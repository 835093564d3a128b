#!/usr/bin/env bash
# End-to-end CLI check of the exec/ runtime plumbing: `--threads` must be
# validated, and diagnose/experiment outputs must be bit-identical across
# thread counts (modulo the wall-clock lines, which are stripped).
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$CLI" gen --profile s526_like --seed 5 --out "$TMP/c.bench" > /dev/null
"$CLI" inject "$TMP/c.bench" --errors 2 --seed 3 \
    --out "$TMP/faulty.bench" --tests-out "$TMP/tests.txt" \
    --num-tests 6 > /dev/null

# --threads < 1 must be a hard CLI error, not a silent fallthrough.
for bad in 0 -3; do
  if "$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
      --approach bsat --threads "$bad" > /dev/null 2>&1; then
    echo "expected 'diagnose --threads $bad' to fail" >&2
    exit 1
  fi
done
if "$CLI" experiment --circuits s298_like --tests 4 --scale 0.5 \
    --threads 0 > /dev/null 2>&1; then
  echo "expected 'experiment --threads 0' to fail" >&2
  exit 1
fi

# Approaches that cannot use the runtime must reject --threads > 1 rather
# than silently running serially.
for approach in bsim cov; do
  if "$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
      --approach "$approach" --threads 2 > /dev/null 2>&1; then
    echo "expected 'diagnose --approach $approach --threads 2' to fail" >&2
    exit 1
  fi
done

# Garbage --tests entries must be a hard error, not a prefix parse.
if "$CLI" experiment --circuits s298_like --tests 8abc --scale 0.5 \
    > /dev/null 2>&1; then
  echo "expected 'experiment --tests 8abc' to fail" >&2
  exit 1
fi

# Diagnose solution lists (the '{...}' lines) are bit-identical for any
# thread count; the header line carries wall-clock times and is skipped.
for n in 1 2 8; do
  "$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
      --approach bsat --k 2 --threads "$n" | grep '^{' > "$TMP/sol_$n.txt"
done
cmp "$TMP/sol_1.txt" "$TMP/sol_2.txt"
cmp "$TMP/sol_1.txt" "$TMP/sol_8.txt"
test -s "$TMP/sol_1.txt"

# A test set the circuit already passes (the golden circuit against the
# injected error's tests): nothing to diagnose at any thread count. Whole
# output compared except the header's wall-clock times.
for n in 1 4; do
  "$CLI" diagnose "$TMP/c.bench" --tests "$TMP/tests.txt" \
      --approach bsat --k 2 --threads "$n" \
      | sed 's/(.*)//' > "$TMP/pass_$n.txt"
done
cmp "$TMP/pass_1.txt" "$TMP/pass_4.txt"
grep -q '^0 valid corrections' "$TMP/pass_1.txt"

# The merged --stats-json metrics must include the solver counters and a
# non-zero cnf.copies_stamped at every thread count (python3 parses them).
command -v python3 > /dev/null 2>&1 && for n in 1 4; do
  "$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
      --approach bsat --k 2 --threads "$n" --stats-json - > "$TMP/stats_$n.out"
  python3 - "$TMP/stats_$n.out" <<'EOF'
import json, sys

# The metrics object starts at the line that is exactly "{" (solution lines
# are "{g1, g2}").
lines = open(sys.argv[1]).read().splitlines()
metrics = json.loads("\n".join(lines[lines.index("{"):]))
if "sat.binary_propagations" not in metrics:
    sys.exit("missing sat.binary_propagations in " + sys.argv[1])
if metrics.get("cnf.copies_stamped", 0) == 0:
    sys.exit("expected a non-zero cnf.copies_stamped in " + sys.argv[1])
EOF
done

# Experiment tables: non-timing CSV columns are thread-count invariant.
for n in 1 2; do
  "$CLI" experiment --circuits s298_like --errors 1 --tests 4 --scale 0.5 \
      --limit 30 --threads "$n" --csv | cut -d, -f1-3 > "$TMP/exp_$n.csv"
done
cmp "$TMP/exp_1.csv" "$TMP/exp_2.csv"

echo PASS
