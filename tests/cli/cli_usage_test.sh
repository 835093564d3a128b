#!/usr/bin/env bash
# Usage errors of the one-shot CLI: every subcommand rejects a flag it does
# not read, and out-of-range values fail fast with exit 2 and a message
# naming the flag instead of crashing or running with a wrapped value.
set -euo pipefail

CLI="$1"
GOLDEN_DIR="$2"
CIRCUIT="$GOLDEN_DIR/faulty.bench"
TESTS="$GOLDEN_DIR/tests.txt"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# expect_usage "<expected stderr line>" args... : exit 2, that exact message.
expect_usage() {
  local want="$1"
  shift
  local rc=0
  "$CLI" "$@" > /dev/null 2> "$TMP/err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: 'satdiag $*' exited $rc, expected 2" >&2
    cat "$TMP/err" >&2
    exit 1
  fi
  if [ "$(cat "$TMP/err")" != "satdiag: $want" ]; then
    echo "FAIL: 'satdiag $*' printed:" >&2
    cat "$TMP/err" >&2
    echo "expected: satdiag: $want" >&2
    exit 1
  fi
}

# --k is range-checked against the loaded netlist's gate count (111 in the
# fixture, primary inputs included) for every approach.
for approach in bsim cov bsat hybrid; do
  for k in -1 0 112 99999999999; do
    expect_usage "--k must be in [1, 111] (got $k)" \
        diagnose "$CIRCUIT" --tests "$TESTS" --approach "$approach" --k "$k"
  done
done

# A --tests count past the integer range is malformed, like a letter.
expect_usage \
    "--tests entries must be positive integers (got '99999999999999999999999')" \
    experiment --circuits s298_like --tests 99999999999999999999999

# Counts, scales, budgets and solution caps out of range: a negative count
# would wrap to SIZE_MAX, and zero would silently run degenerate work.
for n in -2 0; do
  expect_usage "--num-tests must be >= 1 (got $n)" \
      inject "$CIRCUIT" --num-tests "$n" --out "$TMP/f.bench" \
      --tests-out "$TMP/t.txt"
  expect_usage "--errors must be >= 1 (got $n)" \
      inject "$CIRCUIT" --errors "$n" --out "$TMP/f.bench"
  expect_usage "--errors must be >= 1 (got $n)" \
      experiment --circuits s298_like --tests 4 --errors "$n"
done
test ! -e "$TMP/f.bench"
for scale in 0 -1; do
  expect_usage "--scale must be > 0 (got $scale)" \
      gen --profile s298_like --scale "$scale" --out "$TMP/c.bench"
  expect_usage "--scale must be > 0 (got $scale)" \
      experiment --circuits s298_like --tests 4 --scale "$scale"
done
for limit in -1 0; do
  expect_usage "--limit must be > 0 (got $limit)" \
      diagnose "$CIRCUIT" --tests "$TESTS" --limit "$limit"
  expect_usage "--limit must be > 0 (got $limit)" \
      experiment --circuits s298_like --tests 4 --limit "$limit"
done
for cap in 0 -5; do
  expect_usage "--max-solutions must be -1 or >= 1 (got $cap)" \
      diagnose "$CIRCUIT" --tests "$TESTS" --max-solutions "$cap"
  expect_usage "--max-solutions must be -1 or >= 1 (got $cap)" \
      experiment --circuits s298_like --tests 4 --max-solutions "$cap"
done

# Flags a subcommand does not read are typos, never silently ignored.
expect_usage "unknown flag --aproach for 'diagnose'" \
    diagnose "$CIRCUIT" --tests "$TESTS" --aproach cov
expect_usage "unknown flag --gates for 'gen'" \
    gen --profile s298_like --gates 50 --out "$TMP/c.bench"
test ! -e "$TMP/c.bench"
expect_usage "unknown flag --stats for 'diagnose'" \
    diagnose "$CIRCUIT" --tests "$TESTS" --approach bsat --stats
expect_usage "unknown flag --stats for 'experiment'" \
    experiment --circuits s298_like --tests 4 --stats
expect_usage "unknown flag --k for 'stats'" stats "$CIRCUIT" --k 2
expect_usage "unknown flag --num-test for 'inject'" \
    inject "$CIRCUIT" --num-test 4 --out "$TMP/f.bench"
test ! -e "$TMP/f.bench"
expect_usage "unknown flag --gate for 'repair'" \
    repair "$CIRCUIT" --tests "$TESTS" --gate g92
expect_usage "unknown flag --thread for 'serve'" serve --thread 2

# The global observability flags are accepted by every subcommand.
"$CLI" stats "$CIRCUIT" --stats-json "$TMP/stats.json" > /dev/null

echo PASS
