"""Perf-regression gate over the benchmarks' JSON outputs.

Compares a benchmark result file against the checked-in budget
(``tools/perf_budget.json``) and exits non-zero on a regression:

* **latency budgets** — per size and path, measured p50 must stay
  within ``budget * factor`` (default factor 2.0, absorbing machine
  variance; a >2x regression fails CI);
* **build budgets** — per size, a ``build_s`` ceiling on the result's
  ``build_seconds`` (the Stage II fit), scaled by the same factor;
* **minimum speedups** — ratios are machine-independent, so they gate
  tightly: the warm cache must beat dense by the budgeted factor
  (>= 5x at 10k sentences per the acceptance bar), pruning must stay
  a net win at scale, and the lazy Stage I build must beat the eager
  baseline — the same build followed by ``explain()`` on every
  sentence, which evaluates every selector (>= 2x at 10k sentences);
* **output identity** — a size entry carrying ``"identical": false``
  fails unconditionally: the build benchmark asserts that the eager,
  lazy and pre-filter advising sets all equal the reference derived
  from the ``explain()`` verdicts, and a speedup bought with different
  output is a bug, not a win.

The budget file holds one section per benchmark: the legacy root
``sizes`` block budgets ``BENCH_serving.json``; ``--section build``
selects the ``build`` block for ``BENCH_build.json``.  Only sizes
present in *both* the results and the budget are checked, so the
quick CI run (small sizes) and the full run (committed artifacts)
share one budget file.

**Multi-check mode** gates several benchmark outputs in one
invocation and reports *every* violation before exiting — a CI run
should surface all regressions at once, not one per push::

    python tools/perf_gate.py \
        --check serving=BENCH_serving.json \
        --check scale=BENCH_serving.json \
        --check build=BENCH_build.json

``serving`` names the root ``sizes`` block; any other section is
looked up in the budget, and in the results file too when it carries
a matching sub-block (so one results file can hold several gated
sections).

**Waivers**: a size entry may carry ``"waivers": {name: reason}``
recorded by the benchmark itself for checks the measuring host cannot
meaningfully run (e.g. a multi-core speedup gate on a single-core
machine).  Waived checks are reported loudly as ``WAIVED`` but do not
fail the gate — the committed artifact still shows the measured value.

Usage::

    python tools/perf_gate.py [--results BENCH_serving.json]
        [--budget tools/perf_budget.json] [--factor 2.0]
    python tools/perf_gate.py --section build --results BENCH_build.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def evaluate(results: dict, budget: dict, factor: float = 2.0,
             waived: list[str] | None = None) -> list[str]:
    """Budget violations in *results*; empty means the gate passes.

    When *waived* is a list, checks named in a size entry's
    ``waivers`` map are appended to it (as explanatory strings)
    instead of failing.
    """
    failures: list[str] = []
    checked = 0
    result_sizes = results.get("sizes", {})
    for size, size_budget in budget.get("sizes", {}).items():
        entry = result_sizes.get(size)
        if entry is None:
            continue
        if entry.get("identical") is False:
            checked += 1
            failures.append(
                f"size {size}: output identity violated — the compared "
                f"paths produced different results")
        for stat in ("p50_ms", "p95_ms"):
            for path, budget_value in size_budget.get(stat, {}).items():
                stats = entry.get("paths", {}).get(path)
                if stats is None:
                    failures.append(
                        f"size {size}: path {path!r} missing from results")
                    continue
                checked += 1
                allowed = budget_value * factor
                if stats[stat] > allowed:
                    failures.append(
                        f"size {size}: {path} {stat[:3]} "
                        f"{stats[stat]:.3f}ms exceeds {allowed:.3f}ms "
                        f"(budget {budget_value}ms x factor {factor})")
        build_budget = size_budget.get("build_s")
        if build_budget is not None:
            checked += 1
            measured = entry.get("build_seconds")
            allowed = build_budget * factor
            if measured is None:
                failures.append(
                    f"size {size}: build_seconds missing from results")
            elif measured > allowed:
                failures.append(
                    f"size {size}: build {measured:.3f}s exceeds "
                    f"{allowed:.3f}s (budget {build_budget}s x factor "
                    f"{factor})")
        for name, minimum in size_budget.get("min_speedups", {}).items():
            measured = entry.get("speedups", {}).get(name)
            checked += 1
            waiver = entry.get("waivers", {}).get(name)
            if waiver is not None:
                if waived is not None:
                    shown = ("unmeasured" if measured is None
                             else f"{measured:.2f}x")
                    waived.append(
                        f"size {size}: speedup {name} >= {minimum}x "
                        f"waived ({waiver}; measured {shown})")
                continue
            if measured is None:
                failures.append(
                    f"size {size}: speedup {name!r} missing from results")
            elif measured < minimum:
                failures.append(
                    f"size {size}: speedup {name} {measured:.2f}x below "
                    f"required {minimum}x")
    if checked == 0:
        failures.append(
            "no overlapping sizes between results and budget — "
            "nothing was gated")
    return failures


def _select(data: dict, section: str | None) -> dict:
    """The block of *data* holding the gated ``sizes`` for *section*.

    The root block serves the legacy/default ``serving`` section; a
    named section is used when the file carries a matching sub-block
    (one results file can hold several gated sections).
    """
    if section in (None, "serving"):
        return data
    nested = data.get(section)
    if isinstance(nested, dict) and "sizes" in nested:
        return nested
    return data


def run_check(section: str | None, results_path: Path, budget_all: dict,
              factor: float) -> tuple[list[str], list[str]]:
    """Gate one (section, results file) pair.

    Returns ``(failures, waived)`` with every message prefixed by the
    section and file so multi-check output stays attributable.
    """
    label = f"[{section or 'serving'} @ {results_path}]"
    if not results_path.exists():
        return ([f"{label} results file not found; run the matching "
                 f"benchmark first"], [])
    results = json.loads(results_path.read_text(encoding="utf-8"))
    if section in (None, "serving"):
        budget = budget_all
    else:
        budget = budget_all.get(section)
        if budget is None:
            return ([f"{label} budget has no section {section!r}"], [])
    waived: list[str] = []
    failures = evaluate(_select(results, section), budget,
                        factor=factor, waived=waived)
    return ([f"{label} {failure}" for failure in failures],
            [f"{label} {note}" for note in waived])


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", default="BENCH_serving.json",
                        help="bench output to gate")
    parser.add_argument("--budget", default="tools/perf_budget.json",
                        help="checked-in budget file")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="slack multiplier on latency budgets")
    parser.add_argument("--section", default=None,
                        help="budget section to gate against (e.g. "
                             "'build'); default: the root serving block")
    parser.add_argument("--check", action="append", default=None,
                        metavar="SECTION=RESULTS",
                        help="gate SECTION against RESULTS; repeatable "
                             "— all checks run and every violation is "
                             "reported before the single exit code")
    args = parser.parse_args()

    budget_all = json.loads(Path(args.budget).read_text(encoding="utf-8"))
    if args.check:
        checks = []
        for spec in args.check:
            section, sep, path = spec.partition("=")
            if not sep or not section or not path:
                print(f"perf_gate: malformed --check {spec!r} "
                      f"(expected SECTION=RESULTS)")
                return 2
            checks.append((section, Path(path)))
    else:
        checks = [(args.section, Path(args.results))]

    all_failures: list[str] = []
    all_waived: list[str] = []
    for section, results_path in checks:
        failures, waived = run_check(section, results_path, budget_all,
                                     args.factor)
        all_failures.extend(failures)
        all_waived.extend(waived)
    for note in all_waived:
        print(f"WAIVED: {note}")
    for failure in all_failures:
        print(f"FAIL: {failure}")
    if not all_failures:
        ran = ", ".join(f"{section or 'serving'} @ {path}"
                        for section, path in checks)
        print(f"perf gate passed ({ran}, factor {args.factor})")
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(_main())
