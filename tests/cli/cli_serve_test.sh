#!/usr/bin/env bash
# End-to-end smoke test for the `satdiag serve` daemon over real TCP:
# start the server with two lanes on an ephemeral port, then drive it with
# a python3 newline-delimited-JSON client covering ping, bsat diagnose
# (twice, to check the warm artifact-cache path), bsim diagnose (which must
# not inherit the server's lanes), metrics, a malformed frame, and a clean
# `shutdown` request. Each served report's whole `result` must equal the
# one-shot `satdiag diagnose --report-json` result over the same fixtures,
# with the wall-clock `*_seconds` fields normalized.
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: python3 not found (needed for the JSON client)" >&2
  exit 0
fi

"$CLI" gen --profile s298_like --seed 7 --out "$TMP/c.bench" > /dev/null
"$CLI" inject "$TMP/c.bench" --errors 1 --seed 3 \
    --out "$TMP/faulty.bench" --tests-out "$TMP/tests.txt" > /dev/null

# One-shot reference runs.
"$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
    --approach bsat --k 2 --report-json "$TMP/oneshot_bsat.json" > /dev/null
"$CLI" diagnose "$TMP/faulty.bench" --tests "$TMP/tests.txt" \
    --approach bsim --report-json "$TMP/oneshot_bsim.json" > /dev/null

"$CLI" serve --port 0 --threads 2 > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!

# The daemon prints "serving on 127.0.0.1:PORT" once the socket is bound.
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$TMP/serve.log" 2>/dev/null || true)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: serve exited before binding:" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "FAIL: serve never printed its port:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi

python3 - "$PORT" "$TMP/faulty.bench" "$TMP/tests.txt" "$TMP" <<'EOF'
import json, socket, sys

port, bench, tests, tmp = sys.argv[1:5]

sock = socket.create_connection(("127.0.0.1", int(port)), timeout=30)
sock_file = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(request):
    sock_file.write(json.dumps(request) + "\n")
    sock_file.flush()
    line = sock_file.readline()
    assert line.endswith("\n"), "response frame not newline-terminated"
    return json.loads(line)

def rpc_raw(frame):
    sock_file.write(frame + "\n")
    sock_file.flush()
    return json.loads(sock_file.readline())

def check(cond, message):
    if not cond:
        sys.exit("FAIL: " + message)

def normalized(result):
    return {k: "<T>" if k.endswith("_seconds") else v
            for k, v in result.items()}

def oneshot(approach):
    with open("%s/oneshot_%s.json" % (tmp, approach)) as f:
        return normalized(json.load(f)["result"])

def check_result(resp, approach):
    check(resp.get("status") == "ok",
          "%s diagnose failed: %r" % (approach, resp))
    served = normalized(resp["report"]["result"])
    check(served == oneshot(approach),
          "served %s result %r != one-shot %r"
          % (approach, served, oneshot(approach)))

resp = rpc({"id": "p1", "command": "ping"})
check(resp.get("status") == "ok" and resp.get("id") == "p1",
      "ping failed: %r" % resp)

diagnose = {"id": "d1", "command": "diagnose", "positional": [bench],
            "args": {"tests": tests, "approach": "bsat", "k": 2}}
resp = rpc(diagnose)
check_result(resp, "bsat")
report = resp["report"]
check(report.get("schema") == "satdiag.report",
      "unexpected report schema: %r" % report.get("schema"))
check(report["result"]["corrections"],
      "served diagnose produced no corrections")

# The server's two lanes are only the default of SAT-backed approaches.
check_result(rpc({"id": "b1", "command": "diagnose", "positional": [bench],
                  "args": {"tests": tests, "approach": "bsim"}}), "bsim")

def cache_hits():
    resp = rpc({"id": "m", "command": "metrics"})
    check(resp.get("status") == "ok", "metrics failed: %r" % resp)
    return resp["report"]["metrics"]["cache.hits"]

cold = cache_hits()
diagnose["id"] = "d2"
check_result(rpc(diagnose), "bsat")
warm = cache_hits()
check(warm > cold, "warm repeat did not raise cache.hits (%d -> %d)"
      % (cold, warm))

resp = rpc_raw("this is not json")
check(resp.get("status") == "error"
      and resp.get("error", {}).get("code") == "bad_request",
      "malformed frame not rejected as bad_request: %r" % resp)

resp = rpc({"id": "s", "command": "shutdown"})
check(resp.get("status") == "ok", "shutdown failed: %r" % resp)
print("client OK")
EOF

# The shutdown request must terminate the daemon promptly and cleanly.
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: serve still running after shutdown request" >&2
  exit 1
fi
wait "$SERVE_PID"
SERVE_PID=""
grep -q "serve: shut down" "$TMP/serve.log" || {
  echo "FAIL: missing shutdown message:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
}

echo PASS
