"""Annotation reuse — cold builds vs warm-store rebuilds vs saved loads.

The one-pass annotation pipeline promises that NLP work (tokenize,
stem, parse, SRL) happens once per distinct sentence, ever.  This
bench quantifies the claim on the CUDA guide across four scenarios:

* **cold** — fresh framework, empty store: every layer computed;
* **warm store** — same framework rebuilds the same guide: every
  sentence served from the in-memory :class:`AnalysisStore`;
* **disk warm** — a *new* framework pointed at the same
  ``--annotations-cache`` directory: lexical layers restored from the
  persistent tier;
* **saved-advisor load** — ``load_advisor`` on a saved header +
  ``.bin`` sidecar: Stage II restored with **zero** tokenizer/stemmer
  calls.

Run standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_annotation_reuse.py --quick
"""

from __future__ import annotations

import time

from conftest import print_table

from repro.core.egeria import Egeria
from repro.core.persistence import load_advisor, save_advisor
from repro.textproc import instrumentation


def run_reuse(document, cache_dir: str, advisor_path: str) -> dict:
    """Time the four scenarios; returns per-scenario measurements."""
    results: dict[str, dict] = {}

    def timed(name: str, fn):
        with instrumentation.measure() as calls:
            started = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - started
        results[name] = {
            "seconds": elapsed,
            "tokenize_calls": calls.tokenize_calls,
            "stem_calls": calls.stem_calls,
        }
        return value

    egeria = Egeria(annotations_cache=cache_dir)
    advisor = timed("cold build", lambda: egeria.build_advisor(document))
    results["cold build"]["store_hits"] = egeria.store.stats()["hits"]

    egeria.store.reset_counters()
    timed("warm store rebuild", lambda: egeria.build_advisor(document))
    results["warm store rebuild"]["store_hits"] = \
        egeria.store.stats()["hits"]

    fresh = Egeria(annotations_cache=cache_dir)   # new process, same dir
    timed("disk warm rebuild", lambda: fresh.build_advisor(document))
    stats = fresh.store.stats()
    results["disk warm rebuild"]["store_hits"] = stats["hits"]
    results["disk warm rebuild"]["disk_hits"] = stats["disk_hits"]

    save_advisor(advisor, advisor_path)
    timed("saved-advisor load", lambda: load_advisor(advisor_path))
    results["saved-advisor load"]["store_hits"] = 0
    return results


def reuse_rows(results: dict) -> list[list]:
    return [
        [name,
         f"{m['seconds']:.3f}",
         m["tokenize_calls"],
         m["stem_calls"],
         m.get("store_hits", 0)]
        for name, m in results.items()
    ]


def check_reuse(results: dict) -> list[str]:
    """The acceptance assertions; returns a list of failure messages."""
    failures: list[str] = []
    cold = results["cold build"]
    warm = results["warm store rebuild"]
    load = results["saved-advisor load"]
    if cold["tokenize_calls"] == 0:
        failures.append("cold build performed no tokenization — the "
                        "counter is broken or the store leaked")
    if warm["seconds"] >= 0.8 * cold["seconds"]:
        failures.append(
            f"warm rebuild ({warm['seconds']:.3f}s) not measurably "
            f"faster than cold ({cold['seconds']:.3f}s)")
    if warm["store_hits"] == 0:
        failures.append("warm rebuild took zero store hits")
    if load["tokenize_calls"] or load["stem_calls"]:
        failures.append(
            f"saved-advisor load performed {load['tokenize_calls']} "
            f"tokenize / {load['stem_calls']} stem calls; expected zero")
    return failures


def test_annotation_reuse(benchmark, cuda, tmp_path):
    results = benchmark.pedantic(
        lambda: run_reuse(cuda.document,
                          cache_dir=str(tmp_path / "anncache"),
                          advisor_path=str(tmp_path / "advisor.json")),
        rounds=1, iterations=1)
    print_table(
        "Annotation reuse (CUDA guide)",
        ["scenario", "seconds", "tokenize", "stem", "store hits"],
        reuse_rows(results))
    failures = check_reuse(results)
    assert not failures, "; ".join(failures)


def _main(argv: list[str] | None = None) -> int:
    """Standalone reuse check (no pytest) — the CI smoke entry."""
    import argparse
    import tempfile

    from repro.corpus import cuda_guide
    from repro.docs.document import Document

    parser = argparse.ArgumentParser(
        description="Measure annotation reuse: cold build vs warm-store "
                    "rebuild vs saved-advisor load on the CUDA guide.")
    parser.add_argument("--quick", action="store_true",
                        help="use a 150-sentence slice of the guide")
    args = parser.parse_args(argv)

    document = cuda_guide().document
    if args.quick:
        document = Document.from_sentences(
            [s.text for s in document.sentences[:150]],
            title="CUDA guide (quick slice)")
        document.reindex()

    with tempfile.TemporaryDirectory() as scratch:
        results = run_reuse(document,
                            cache_dir=f"{scratch}/anncache",
                            advisor_path=f"{scratch}/advisor.json")
    print_table(
        f"Annotation reuse ({document.title})",
        ["scenario", "seconds", "tokenize", "stem", "store hits"],
        reuse_rows(results))
    failures = check_reuse(results)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        cold = results["cold build"]["seconds"]
        warm = results["warm store rebuild"]["seconds"]
        print(f"reuse check passed: warm rebuild {cold / max(warm, 1e-9):.1f}x "
              "faster than cold, saved-advisor load ran zero NLP "
              "calls")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
