#!/usr/bin/env bash
# Self-test of the end-to-end benchmark.  Run from anywhere:
#
#   bash bench/e2e/selftest.sh
#
# 1. API hygiene: the benchmark names none of the engine's execution
#    strategies, the legacy machine shape or the snapshot API, so
#    changes to those need no edit here.
# 2. compare.py's unit tests.
# 3. Every workload at --smoke scale (about 1/20 of the work per
#    operation) passes its checks, and its traced run emits every
#    per-layer metric and writes loadable Chrome trace-event JSON.
# 4. A wrong --golden file is caught: failed > 0 and correct is false.
set -euo pipefail
cd "$(dirname "$0")/../.."
E2E=bench/e2e
WORK=.bench_build/e2e/selftest
mkdir -p "$WORK"

fail() {
    echo "selftest: FAIL: $*" >&2
    exit 1
}

forbidden='SystemShape|batching|batched_lanes|fork_runs|cloned_results'
forbidden+='|BatchMachine|BatchBinding|Snapshot|snapshot\(|restore\('
forbidden+='|resumeRun|runEvents|knobFirstReadEvent|batchable'
if grep -nE "$forbidden" "$E2E"/*.cc "$E2E"/*.h; then
    fail "the benchmark names an engine strategy or legacy API (above)"
fi
echo "selftest: API hygiene ok"

python3 -m unittest discover -s "$E2E" -p 'test_*.py'

# check_result OUT caught: the run failed operations and is incorrect.
# check_result OUT TRACE: the run passed every check, emitted every
# per-layer metric, and TRACE holds Chrome trace-event JSON.
check_result() {
    python3 - "$@" <<'PY'
import json, sys
result = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
if sys.argv[2] == "caught":
    sys.exit(0 if result["failed"] > 0 and not result["correct"] else 1)
names = {m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]}
if not (result["correct"] and result["failed"] == 0
        and result["attempted"] > 0 and set(result["metrics"]) == names):
    sys.exit("checks failed or per-layer metrics missing")
events = json.load(open(sys.argv[2]))["traceEvents"]
if not events or not all(e["ph"] == "X" and e["dur"] >= 0 and e["name"]
                         and "ts" in e for e in events):
    sys.exit("not Chrome trace-event JSON")
PY
}

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    out="$WORK/$workload.out"
    python3 "$E2E/run.py" --workload "$workload" --seed 7 --seconds 1 \
        --trace 1 --smoke > "$out"
    check_result "$out" ".bench_build/e2e/traces/$workload-7.json" ||
        fail "$workload: $(tail -1 "$out")"
    echo "selftest: $workload ok"
done

wrong="$WORK/wrong_golden.txt"
sed -E 's/ [0-9a-f]{16}$/ 0000000000000000/' \
    "$E2E/golden/sim_knob_sweep.txt" > "$wrong"
python3 "$E2E/run.py" --workload sim_knob_sweep --seed 7 --seconds 1 \
    --smoke --golden "$wrong" > "$WORK/wrong_golden.out"
check_result "$WORK/wrong_golden.out" caught ||
    fail "a wrong golden went unnoticed: $(tail -1 "$WORK/wrong_golden.out")"
echo "selftest: wrong golden caught"
echo "selftest: all ok"
