#!/usr/bin/env python3
"""satdiag performance benchmark.

    python3 perfbench/run.py --workload diag_pool --seed 1 --seconds 15 --trace 0

Run from the root of a satdiag checkout. Builds the benchmark program and
satdiag_cli from the checkout's sources (CMake, Release) into the directory
named by CARGO_TARGET_DIR (default .bench_build), then runs one workload:

  diag_pool  Table 2 per instance (BSIM, COV, BSAT with k = p) over a
             seed-derived pool of reduced-scale s6669_like instances.
  sim_sweep  full-scale s38417_like instances: BSIM, X-refined BSIM, X-list
             and a chunked stuck-at fault grade.
  serve_mix  a closed loop over four connections against the serve daemon,
             mixing warm diagnose/gen/metrics requests with cold diagnoses.

The program prints a report (work fingerprint, error rate, every metric with
unit and sample count) and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 repeats the timed loop with
the benchmark's spans on and reports the per-layer metrics, writing the spans
to <build dir>/traces/. The exit code is non-zero when the build fails, an
output check fails, or the metric names disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the two targets (both quick when current)."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "satdiag_cli", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=["diag_pool", "sim_sweep", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--cli", os.path.join(build_dir, "satdiag", "tools", "satdiag_cli")]
    # Own process group, so a timeout also stops the serve daemon.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        traces = os.path.join(build_dir, "traces")
        for name in os.listdir(work_dir):
            if name.startswith("trace_"):
                os.makedirs(traces, exist_ok=True)
                stem = name[len("trace_"):-len(".json")]
                shutil.move(os.path.join(work_dir, name),
                            os.path.join(traces, "%s_seed%d.json" % (stem, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        result, names = None, None
    if child.returncode != 0 or result is None:
        sys.stdout.write(out)
        print("perfbench: run failed (exit %d)" % child.returncode,
              file=sys.stderr)
        return 1
    if names != expected_metrics(args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: metric names disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
