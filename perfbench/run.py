"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload build-guides --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps the program's public
callables in spans and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it (``#``)
are diagnostics: sample counts, p99, checksums, cache hit ratios.

``--write-benchmark-json`` regenerates the repository's
``BENCHMARK.json`` from :mod:`spec`; ``--all`` does that, then runs
every workload in turn (each in its own process) and prints its
checks and metrics.  Run it from the root of a checkout: the program
is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import spec
from common import ROOT, SRC

WORKLOADS = tuple(spec.WORKLOADS)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print its metrics")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.write_benchmark_json):
        parser.error("give --workload, --all or --write-benchmark-json")
    return args


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and refuse any
    other copy of the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _run_one(args) -> dict:
    _import_program()
    if args.workload == "build-guides":
        import build_guides as workload
    else:
        import serve as workload
    result = workload.run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    samples = result.pop("samples")
    print(f"# samples: {json.dumps(samples, sort_keys=True)}")
    if args.trace:
        layers = result.pop("layers")
        unknown = set(layers) - set(spec.PER_LAYER)
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {unknown}")
        result["metrics"] = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in spec.PER_LAYER.items()}
    elif set(result["metrics"]) != set(spec.END_TO_END):
        raise SystemExit("end-to-end metrics differ from spec.py")
    for name, entry in result["metrics"].items():
        print(f"# {args.workload} {name} = {entry['value']:.6g} "
              f"{entry['unit']}")
    return result


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exit code {completed.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
    return status


def _write_benchmark_json() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.benchmark_json(), handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still stops the servers it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_benchmark_json:
        _write_benchmark_json()
        return 0
    if args.all:
        _write_benchmark_json()
        return _run_all(args)
    result = _run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
