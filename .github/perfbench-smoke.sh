#!/usr/bin/env bash
# Benchmark smoke test: a one-second run of each perfbench workload, without
# and with --trace 1.  Every correctness check in perfbench/ must pass: group
# orders, balance, mixing times against perfbench/reference.json, coupling
# drift and, in the traced runs, the states of perfbench's timed copy of the
# step loop against run_chain's.  It runs the perfbench/ next to this script:
#
#   bash .github/perfbench-smoke.sh
#
# Each run's output goes under $RUNNER_TEMP/perfbench, or a fresh temporary
# directory.  All six runs go ahead; a run that fails or reports a failed
# check makes the exit non-zero.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${RUNNER_TEMP:-$(mktemp -d)}/perfbench"
mkdir -p "$out"
status=0
for trace in 0 1; do
  for w in graph-tv fs-gibbs exact-kernel; do
    log="$out/$w-trace$trace.out"
    if ! python3 "$root/perfbench/run.py" --workload "$w" --seed 1 --seconds 1 \
        --trace "$trace" > "$log"; then
      echo "$w --trace $trace: run failed, see $log"
      status=1
      continue
    fi
    tail -n 1 "$log" | python3 -c '
import json, sys
result = json.load(sys.stdin)
print(sys.argv[1], result["attempted"], "checks,", result["failed"], "failed")
sys.exit(result["failed"] != 0)' "$w --trace $trace" || status=1
  done
done
exit "$status"
