#!/usr/bin/env bash
# End-to-end CLI check: `diagnose --stats-json -` must print the solver,
# cache and CNF counters (including the binary-BCP layer's
# sat.binary_propagations) for the SAT-backed approaches.
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: python3 not found (needed for JSON parsing)" >&2
  exit 0
fi

# check_metrics FILE NAME...: every NAME is a key of the metrics JSON object
# printed after the diagnose output (from the line that is exactly "{" on;
# solution lines are "{g1, g2}"), and cnf.copies_stamped is non-zero.
check_metrics() {
  python3 - "$@" <<'EOF'
import json, sys

path, names = sys.argv[1], sys.argv[2:]
with open(path) as f:
    lines = f.read().splitlines()
metrics = json.loads("\n".join(lines[lines.index("{"):]))
missing = [n for n in names if n not in metrics]
if missing:
    sys.exit(f"missing metrics {missing} in --stats-json output of {path}")
# BSAT must actually have loaded test copies into its instance.
if metrics.get("cnf.copies_stamped", 0) == 0:
    sys.exit(f"expected a non-zero cnf.copies_stamped in {path}")
EOF
}

"$CLI" gen --profile s298_like --seed 7 --out "$TMP/c.bench" > /dev/null
"$CLI" inject "$TMP/c.bench" --errors 1 --seed 3 \
    --out "$TMP/faulty.bench" --tests-out "$TMP/tests.txt" > /dev/null

"$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
    --approach bsat --stats-json - > "$TMP/bsat.out"
check_metrics "$TMP/bsat.out" \
    sat.conflicts sat.decisions sat.propagations sat.binary_propagations \
    sat.restarts sat.inprocess_runs sat.vars_eliminated \
    cache.hits cache.misses cache.evictions cache.bytes \
    cnf.copies_stamped cnf.clauses_stamped

"$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
    --approach hybrid --stats-json - > "$TMP/hybrid.out"
check_metrics "$TMP/hybrid.out" \
    sat.binary_propagations sat.tier_core sat.tier_mid sat.tier_local \
    cache.misses cnf.copies_stamped

echo PASS
