#!/usr/bin/env python3
"""Run the bench/ drivers with pinned arguments and record wall-clock JSON.

This is how the BENCH_*.json perf trajectory at the repo root is produced:

    # before an engine change (building the pre-change tree):
    tools/bench_runner.py --build-dir build --out BENCH_baseline.json
    # after the change (same machine, same arguments):
    tools/bench_runner.py --build-dir build --out BENCH_pr2.json
    tools/bench_runner.py --compare BENCH_baseline.json BENCH_pr2.json

Every benchmark is a full driver invocation with fixed seeds, so numbers are
comparable as long as the two runs happen on the same machine. Drivers are
run sequentially (the container is single-core anyway); each entry records
the command line so a cell can be reproduced by hand.

Workloads whose argv contains the {REPORT} placeholder run with
--report-json and get the report's per-phase timings (schema
"satdiag.report", see README "Observability") embedded as sub-rows of their
BENCH entry; --compare prints those as indented "name/phase.x" rows, so a
regression can be attributed to load/build/enumerate/sim without rerunning
anything. {FIXTURES} expands to the pinned tests/cli/golden fixture
directory.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES_DIR = os.path.join(REPO_ROOT, "tests", "cli", "golden")

# name -> (driver binary, argv). Seeds/scales are pinned: the workload must
# be identical across runs for the wall-clock comparison to mean anything.
# A driver containing "/" is resolved relative to the build dir root
# (e.g. "tools/satdiag_cli"); a bare name comes from build/bench/; a .py
# driver is resolved relative to the repo root and run under the current
# python3, with {BUILD} in its argv expanding to the build dir.
BENCHES = {
    # Solver-bound: BSAT/COV/BSIM across the Table 2 grid at reduced scale.
    # --threads 1 pins the serial baseline row (no-regression guard for the
    # exec/ runtime); the *_mtN rows below run the identical workload on N
    # lanes — wall-clock wins require >= N physical cores.
    "table2_runtime": (
        "bench_table2_runtime",
        ["--scale", "0.1", "--limit", "60", "--max-solutions", "2000",
         "--seed", "1", "--threads", "1"],
    ),
    "table2_mt4": (
        "bench_table2_runtime",
        ["--scale", "0.1", "--limit", "60", "--max-solutions", "2000",
         "--seed", "1", "--threads", "4"],
    ),
    "table2_mt8": (
        "bench_table2_runtime",
        ["--scale", "0.1", "--limit", "60", "--max-solutions", "2000",
         "--seed", "1", "--threads", "8"],
    ),
    # Construction-bound: walk vs template-stamped instance building on a
    # table2-scale multi-test instance (cold = empty artifact cache, warm =
    # templates cached). The driver also verifies walk/stamp DB identity.
    "instance_build": (
        "bench_instance_build",
        ["--circuit", "s38417_like", "--scale", "1.0", "--errors", "2",
         "--tests", "32", "--seed", "1", "--rounds", "3", "--json"],
    ),
    # Solver-bound: the advanced-SAT ablation (four BSAT variants).
    "ablation_advanced_sat": (
        "bench_ablation_advanced_sat",
        ["--circuit", "s1423_like", "--scale", "1.0", "--tests", "16",
         "--errors", "3", "--seed", "3", "--limit", "300"],
    ),
    # Solver-bound: the same ablation grid with the inprocessing pipeline
    # disabled — comparing against ablation_advanced_sat isolates what
    # probing/vivification/subsumption/BVE buy on the diagnosis instances.
    "sat_inprocess": (
        "bench_ablation_advanced_sat",
        ["--circuit", "s1423_like", "--scale", "1.0", "--tests", "16",
         "--errors", "3", "--seed", "3", "--limit", "300",
         "--no-inprocess"],
    ),
    # Simulation-bound: exhaustive stuck-at fault simulation.
    "fault_sim": (
        "bench_fault_sim",
        ["--profile", "s38417_like", "--scale", "1.0", "--seed", "1",
         "--rounds", "1", "--threads", "1", "--json"],
    ),
    "fault_sim_mt4": (
        "bench_fault_sim",
        ["--profile", "s38417_like", "--scale", "1.0", "--seed", "1",
         "--rounds", "1", "--threads", "4", "--json"],
    ),
    "fault_sim_mt8": (
        "bench_fault_sim",
        ["--profile", "s38417_like", "--scale", "1.0", "--seed", "1",
         "--rounds", "1", "--threads", "8", "--json"],
    ),
    # Simulation-bound: X-list diagnosis, one 3-valued X-injection sweep per
    # candidate gate (the ThreeValuedSimulator hot loop).
    "xlist_sim3": (
        "bench_xlist",
        ["--circuit", "s38417_like", "--scale", "1.0", "--errors", "2",
         "--tests", "16", "--seed", "1", "--rounds", "1", "--threads", "1",
         "--json"],
    ),
    "xlist_sim3_mt8": (
        "bench_xlist",
        ["--circuit", "s38417_like", "--scale", "1.0", "--errors", "2",
         "--tests", "16", "--seed", "1", "--rounds", "1", "--threads", "8",
         "--json"],
    ),
    # Simulation-bound: lane-batched vs scalar X-injection head to head on
    # the same candidate pool (the driver cross-checks mask equality).
    "xbatch": (
        "bench_xbatch",
        ["--circuit", "s38417_like", "--scale", "1.0", "--errors", "2",
         "--tests", "16", "--seed", "1", "--rounds", "1", "--json"],
    ),
    # Report-driven CLI workloads: the run report's phase timings become
    # sub-rows, attributing any wall-clock drift to a pipeline stage.
    "cli_diagnose_report": (
        "tools/satdiag_cli",
        ["diagnose", "{FIXTURES}/faulty.bench",
         "--tests", "{FIXTURES}/tests.txt", "--approach", "bsat", "--k", "2",
         "--report-json", "{REPORT}"],
    ),
    "cli_experiment_report": (
        "tools/satdiag_cli",
        ["experiment", "--circuits", "s298_like,s526_like", "--errors", "1",
         "--tests", "4,6", "--scale", "0.5", "--seed", "3", "--limit", "60",
         "--csv", "--report-json", "{REPORT}"],
    ),
    # Daemon-path: concurrent clients against `satdiag serve` over localhost
    # TCP (warm artifact cache, bounded admission). The loadgen's JSON
    # summary line (throughput_rps, latency_ms percentiles, cache_hits_delta)
    # lands in the entry's self_reported field; any correctness failure
    # (shed request, divergent corrections, unclean shutdown) exits non-zero.
    "serve_throughput": (
        "tools/serve_loadgen.py",
        ["--cli", "{BUILD}/tools/satdiag_cli", "--clients", "8",
         "--requests", "12", "--threads", "2", "--queue-depth", "64",
         "--seed", "7", "--expect-no-shed"],
    ),
}


def run_bench(build_dir, name, spec):
    driver = spec[0]
    if driver.endswith(".py"):
        prefix = [sys.executable, os.path.join(REPO_ROOT, *driver.split("/"))]
    elif "/" in driver:
        prefix = [os.path.join(build_dir, *driver.split("/"))]
    else:
        prefix = [os.path.join(build_dir, "bench", driver)]
    report_path = None
    argv = []
    for arg in spec[1]:
        if "{REPORT}" in arg:
            if report_path is None:
                fd, report_path = tempfile.mkstemp(suffix=".json",
                                                   prefix="satdiag_report_")
                os.close(fd)
            arg = arg.replace("{REPORT}", report_path)
        arg = arg.replace("{BUILD}", build_dir)
        argv.append(arg.replace("{FIXTURES}", FIXTURES_DIR))
    cmd = prefix + argv
    print(f"[bench_runner] {name}: {' '.join(cmd)}", file=sys.stderr)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    seconds = time.monotonic() - start
    entry = {
        "driver": spec[0],
        "args": spec[1],
        "seconds": round(seconds, 3),
        "exit_code": proc.returncode,
    }
    # Drivers that emit a JSON line report their own inner timing too.
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{") and line.endswith("}"):
            try:
                entry["self_reported"] = json.loads(line)
            except json.JSONDecodeError:
                pass
    if report_path is not None:
        try:
            with open(report_path) as f:
                report = json.load(f)
            entry["report"] = {
                "schema_version": report.get("schema_version"),
                "wall_seconds": report.get("wall_seconds"),
                # Phase sub-rows: {"phase.build": seconds, ...}.
                "phases": {p["name"]: p["seconds"]
                           for p in report.get("phases", [])},
            }
        except (OSError, json.JSONDecodeError, KeyError) as err:
            entry["report_error"] = str(err)
        finally:
            os.unlink(report_path)
    if proc.returncode != 0:
        entry["stderr_tail"] = proc.stderr[-2000:]
    print(f"[bench_runner] {name}: {seconds:.1f}s "
          f"(exit {proc.returncode})", file=sys.stderr)
    return entry


def compare(baseline_path, after_path):
    with open(baseline_path) as f:
        base = json.load(f)
    with open(after_path) as f:
        after = json.load(f)
    print(f"{'bench':<28} {'baseline s':>10} {'after s':>10} {'speedup':>8}")
    for name, b in base["benches"].items():
        a = after["benches"].get(name)
        if not a:
            continue
        speedup = b["seconds"] / a["seconds"] if a["seconds"] > 0 else 0.0
        print(f"{name:<28} {b['seconds']:>10.2f} {a['seconds']:>10.2f} "
              f"{speedup:>7.2f}x")
        # Phase sub-rows from the run report, where both runs captured one.
        b_phases = b.get("report", {}).get("phases", {})
        a_phases = a.get("report", {}).get("phases", {})
        for phase, b_s in b_phases.items():
            a_s = a_phases.get(phase)
            if a_s is None:
                continue
            ratio = b_s / a_s if a_s > 0 else 0.0
            print(f"  {phase:<26} {b_s:>10.3f} {a_s:>10.3f} "
                  f"{ratio:>7.2f}x")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default=None,
                        help="output JSON path (e.g. BENCH_baseline.json)")
    parser.add_argument("--only", action="append", default=None,
                        help="run only the named bench (repeatable)")
    parser.add_argument("--compare", nargs=2, metavar=("BASELINE", "AFTER"),
                        help="print a speedup table for two recorded files")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0

    selected = {k: v for k, v in BENCHES.items()
                if args.only is None or k in args.only}
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
        },
        "benches": {},
    }
    for name, spec in selected.items():
        result["benches"][name] = run_bench(args.build_dir, name, spec)

    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"[bench_runner] wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
