#!/bin/sh
# Minimal CI for the Egeria reproduction.
#
#   tools/ci.sh            lint gate + tier-1 suite, then chaos mode,
#                          the annotation-reuse smoke check, the
#                          prefork/binary-index smoke, and the
#                          serving + build + incremental perf smokes
#                          gated in one perf_gate run
#   tools/ci.sh --fast     lint gate + tier-1 suite only
#
# Chaos mode = the tier-1 suite plus the fault-injection check of
# benchmarks/bench_robustness.py under the canned fault plan
# (tools/chaos_plan.json) — see `make chaos`.  The reuse smoke check
# (benchmarks/bench_annotation_reuse.py --quick) asserts that a warm
# AnalysisStore rebuild beats a cold build and that a saved-advisor
# load performs zero tokenizer/stemmer calls.  The perf
# smoke runs the serving throughput bench at small sizes and gates the
# fresh numbers against tools/perf_budget.json (>2x regression fails).

set -e
cd "$(dirname "$0")/.."

PYTHON="${PYTHON:-python}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== egeria-lint =="
# the gate covers the library, the benches and the tooling; the JSON
# report is the machine-readable CI artifact
"$PYTHON" tools/lint.py src/ benchmarks/ tools/ \
    --json-output benchmarks/out/lint_report.json

echo "== tier-1 test suite =="
"$PYTHON" -m pytest -x -q

if [ "$1" = "--fast" ]; then
    exit 0
fi

echo "== chaos mode: fault-injected robustness check =="
"$PYTHON" benchmarks/bench_robustness.py --quick \
    --fault-plan tools/chaos_plan.json

echo "== crash safety: kill-mid-save + corruption recovery =="
"$PYTHON" benchmarks/bench_robustness.py --quick --crash-safety

echo "== annotation reuse smoke check =="
"$PYTHON" benchmarks/bench_annotation_reuse.py --quick

echo "== prefork + binary index smoke =="
"$PYTHON" tools/prefork_smoke.py

echo "== pre-filter train -> calibrate -> eval smoke =="
# distill a Stage I pre-filter from the bundled CUDA guide and refuse
# the commit unless the calibrated model is provably recall-safe: the
# report must exist and both the calibration recall and the eval
# recall (vs labels AND vs the cascade) must be exactly 1.0
PREFILTER_TMP="$(mktemp -d)"
trap 'rm -rf "$PREFILTER_TMP"' EXIT
"$PYTHON" -m repro train-prefilter cuda \
    -o "$PREFILTER_TMP/model.json" \
    --report "$PREFILTER_TMP/report.json"
"$PYTHON" tools/prefilter_smoke.py "$PREFILTER_TMP/report.json" \
    "$PREFILTER_TMP/model.json"

echo "== perf smokes (serving / build / incremental) =="
"$PYTHON" benchmarks/bench_serving_throughput.py --quick \
    --output benchmarks/out/BENCH_serving_quick.json
"$PYTHON" benchmarks/bench_build_throughput.py --quick \
    --output benchmarks/out/BENCH_build_quick.json
"$PYTHON" benchmarks/bench_incremental.py --quick \
    --output benchmarks/out/BENCH_incremental_quick.json

echo "== regression gates (one run, every violation reported) =="
# every budget section in a single invocation, so a bad commit
# surfaces ALL of its regressions at once instead of one per rerun;
# the committed BENCH_serving.json scale block is gated too (its
# prefork_vs_threaded entry self-waives on hosts with too few cores)
"$PYTHON" tools/perf_gate.py \
    --check serving=benchmarks/out/BENCH_serving_quick.json \
    --check build=benchmarks/out/BENCH_build_quick.json \
    --check incremental=benchmarks/out/BENCH_incremental_quick.json \
    --check serving=BENCH_serving.json \
    --check scale=BENCH_serving.json
