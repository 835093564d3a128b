#!/usr/bin/env bash
# Golden-schema regression test for the observability artifacts
# (`--report-json`, `--trace-out`, `--stats-json`).
#
# The report's *shape* is the contract (schema "satdiag.report" v3, consumed
# by CI's observability smoke): every numeric value is normalized to
# "<N>" and fixture paths to "<P*>", then the result is compared
# byte-for-byte against tests/cli/golden/report.golden — so adding,
# renaming, or dropping a key, a phase, a span name, or a metric fails
# ctest (`cli.report`) until the golden (and kSchemaVersion, if the change
# is incompatible) is updated deliberately.
#
# Re-record after an intentional schema change:
#     RECORD=1 tests/cli/cli_report_test.sh ./build/tools/satdiag_cli \
#         tests/cli/golden
set -euo pipefail

CLI="$1"
GOLDEN_DIR="$2"
RECORD="${RECORD:-0}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: python3 not found (needed for JSON validation)" >&2
  exit 0
fi

CIRCUIT="$GOLDEN_DIR/faulty.bench"
TESTS="$GOLDEN_DIR/tests.txt"
for fixture in "$CIRCUIT" "$TESTS"; do
  if [ ! -f "$fixture" ]; then
    echo "missing fixture $fixture" >&2
    exit 1
  fi
done

"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach bsat --k 2 \
    --trace-out "$TMP/trace.json" --report-json "$TMP/report.json" \
    > /dev/null

# The trace artifact must be valid JSON (Chrome trace_event array).
python3 -m json.tool "$TMP/trace.json" > /dev/null \
  || { echo "FAIL: --trace-out is not valid JSON" >&2; exit 1; }

# The registry snapshot artifact must be valid JSON as well.
"$CLI" diagnose "$CIRCUIT" --tests "$TESTS" --approach bsat --k 2 \
    --stats-json "$TMP/stats.json" > /dev/null
python3 -m json.tool "$TMP/stats.json" > /dev/null \
  || { echo "FAIL: --stats-json is not valid JSON" >&2; exit 1; }

# Normalize the report: numbers -> "<N>" (except the semantic
# schema_version), fixture and temp paths -> "<P*>", keys sorted.
python3 - "$TMP/report.json" "$CIRCUIT" "$TESTS" "$TMP" > "$TMP/report.norm" <<'EOF'
import json, sys

paths = sys.argv[2:]

def norm(x):
    if isinstance(x, dict):
        return {k: (v if k in ("schema", "schema_version") else norm(v))
                for k, v in x.items()}
    if isinstance(x, list):
        return [norm(v) for v in x]
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, float)):
        return "<N>"
    if isinstance(x, str):
        for i, p in enumerate(paths):
            x = x.replace(p, "<P%d>" % i)
        return x
    return x

with open(sys.argv[1]) as f:
    report = json.load(f)
print(json.dumps(norm(report), indent=1, sort_keys=True))
EOF

GOLDEN="$GOLDEN_DIR/report.golden"
if [ "$RECORD" = "1" ]; then
  cp "$TMP/report.norm" "$GOLDEN"
  echo "recorded $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$TMP/report.norm"; then
  echo "FAIL: report schema drifted from $GOLDEN" >&2
  echo "re-record with: RECORD=1 tests/cli/cli_report_test.sh <cli> $GOLDEN_DIR" >&2
  exit 1
fi

echo PASS
