#!/usr/bin/env python3
"""Paired A/B comparison of two satdiag revisions on the perfbench workloads.

    python3 tools/perf_ab.py BASE [HEAD] [--pairs N] [--workloads a,b]
                             [--trace 0|1] [--work DIR]
    python3 tools/perf_ab.py --self-test

BASE and HEAD are git revisions of the repository this script lives in
(HEAD defaults to HEAD), or directories that already hold a checkout (for
example "." to measure uncommitted changes). Each revision is exported
with `git archive` into its own directory under --work, so the measured
tree holds exactly the committed files and the repository's own worktree
list is left alone; each side builds into its own CARGO_TARGET_DIR there.
Every run's parsed result is appended to --work/runs.jsonl, one JSON
object per line, so a long comparison leaves its raw samples behind.

For every workload the script runs perfbench/run.py for N pairs, pair i
at seed i, alternating which side runs first, each run as long as
BENCHMARK.json's run_seconds. It reports whether the two
sides did the same work (equal fingerprints on every seed, error_rate 0),
and for every metric of BENCHMARK.json (end-to-end ones, or per-layer ones
with --trace 1) both medians, the relative change, the base side's
IQR/median and how many pairs each side won, with a verdict:

  unresolved  fewer than 4 pairs (no quartiles), or the base spread
              (IQR/median) exceeds the metric's bound; in the second case
              the verdict is gain if every head run beats every base run
  regression  the head median is worse than the base median by more than
              the bound
  gain        the head side is better in at least 90% of the pairs and
              the medians differ by more than the base IQR
  loss        the same rule with the head side worse (within the bound)
  no change   anything else

Metrics without a bound (the per-layer ones) are never regression or
unresolved by spread. A claimed gain wants at least 10 pairs. The exit
code is 1 when a fingerprint or error rate differs or any verdict is
"regression" or "unresolved", else 0.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["diag_pool", "sim_sweep", "serve_mix"]


# ---------------------------------------------------------------------------
# One run's output

def parse_run(text):
    """Fingerprint, error rate and metric values of one run.py output."""
    fingerprint, error_rate, metrics = None, None, None
    for line in text.splitlines():
        if line.startswith("fingerprint"):
            fingerprint = dict(item.split("=", 1) for item in line.split()[1:])
        elif line.startswith("error_rate "):
            error_rate = float(line.split()[1])
        elif line.startswith("{"):
            metrics = {name: entry["value"]
                       for name, entry in json.loads(line)["metrics"].items()}
    if fingerprint is None or error_rate is None or metrics is None:
        raise ValueError("not a perfbench result:\n" + text)
    return {"fingerprint": fingerprint, "error_rate": error_rate,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Statistics and verdicts

def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def relative(delta, base):
    return delta / base if base else (0.0 if delta == 0 else math.inf)


def compare(spec, base, head):
    """Row of the report for one metric over paired samples."""
    lower = spec["better"] == "lower"
    bound = spec.get("bound")
    base_med, head_med = statistics.median(base), statistics.median(head)
    base_iqr = iqr(base)
    change = relative(head_med - base_med, base_med)
    spread = relative(base_iqr, abs(base_med))
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    losses = sum((h > b) if lower else (h < b) for b, h in zip(base, head))
    needed = math.ceil(0.9 * len(base))
    shifted = abs(head_med - base_med) > base_iqr
    worse = change > 0 if lower else change < 0
    apart = (max(head) < min(base)) if lower else (min(head) > max(base))
    if len(base) < 4:
        verdict = "unresolved"
    elif bound is not None and spread > bound:
        verdict = "gain" if apart else "unresolved"
    elif bound is not None and worse and abs(change) > bound:
        verdict = "regression"
    elif wins >= needed and shifted:
        verdict = "gain"
    elif losses >= needed and shifted:
        verdict = "loss"
    else:
        verdict = "no change"
    return {"name": spec["name"], "base": base_med, "head": head_med,
            "change": change, "spread": spread, "wins": wins,
            "losses": losses, "verdict": verdict}


def report(workload, specs, runs, out=sys.stdout):
    """Print one workload's comparison; return True when it passes."""
    pairs = sorted(runs["base"])
    same_work = all(runs["base"][s]["fingerprint"] == runs["head"][s]["fingerprint"]
                    for s in pairs)
    errors = [runs[side][s]["error_rate"] for side in ("base", "head")
              for s in pairs]
    print("workload %s: %d pairs, fingerprints %s, error_rate max %g" %
          (workload, len(pairs), "equal" if same_work else "DIFFER",
           max(errors)), file=out)
    if not same_work:
        for s in pairs:
            print("  seed %d base %s\n  seed %d head %s" %
                  (s, runs["base"][s]["fingerprint"], s,
                   runs["head"][s]["fingerprint"]), file=out)
    print("  %-26s %14s %14s %9s %8s %7s  %s" %
          ("metric", "base median", "head median", "change", "base IQR",
           "wins", "verdict"), file=out)
    ok = same_work and max(errors) == 0
    for spec in specs:
        base = [runs["base"][s]["metrics"][spec["name"]] for s in pairs]
        head = [runs["head"][s]["metrics"][spec["name"]] for s in pairs]
        row = compare(spec, base, head)
        print("  %-26s %14.6g %14.6g %+8.1f%% %7.1f%% %3d/%-3d  %s" %
              (row["name"], row["base"], row["head"], 100 * row["change"],
               100 * row["spread"], row["wins"], len(pairs), row["verdict"]),
              file=out)
        ok = ok and row["verdict"] not in ("regression", "unresolved")
    return ok


# ---------------------------------------------------------------------------
# Building and running

def export(rev, dest):
    """A directory holding `rev`: itself if it is one, else a git archive."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    # A fresh export keeps each file's commit time, so a reused --work
    # directory rebuilds only what changed.
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit("perf_ab: cannot export revision %s" % rev)
    return dest


def run_once(tree, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode:
        raise SystemExit("perf_ab: %s failed (exit %d):\n%s" %
                         (" ".join(cmd), done.returncode, done.stdout))
    return parse_run(done.stdout)


def main_ab(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = spec["per_layer" if args.trace else "end_to_end"]
    work = args.work or tempfile.mkdtemp(prefix="perf_ab-")
    os.makedirs(work, exist_ok=True)
    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        sides[side] = (export(rev, os.path.join(work, "src-" + side)),
                       os.path.join(work, "target-" + side))
    ok = True
    with open(os.path.join(work, "runs.jsonl"), "a") as log:
        for workload in args.workloads.split(","):
            runs = {"base": {}, "head": {}}
            for seed in range(1, args.pairs + 1):
                order = ("base", "head") if seed % 2 else ("head", "base")
                for side in order:
                    tree, target = sides[side]
                    result = run_once(tree, target, workload, seed,
                                      spec["run_seconds"], args.trace)
                    runs[side][seed] = result
                    print("perf_ab: %s seed %d %s done" %
                          (workload, seed, side), file=sys.stderr)
                    log.write(json.dumps(dict(result, side=side, seed=seed,
                                              workload=workload)) + "\n")
                    log.flush()
            ok = report(workload, specs, runs) and ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Self-test over canned result lines

def canned(fp, wall, p50, error_rate=0.0):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "op_p50_ms": {"value": p50, "unit": "ms"}}
    return ("workload sim_sweep: canned\nfingerprint instances=11 faults=%d\n"
            "error_rate %.6f (0 of 11)\nmetric wall_s %f s n=1\n%s\n" %
            (fp, error_rate, wall,
             json.dumps({"correct": True, "attempted": 11, "failed": 0,
                         "metrics": metrics})))


def self_test():
    specs = [{"name": "wall_s", "better": "lower", "bound": 0.25},
             {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
    parsed = parse_run(canned(7, 10.0, 38.0))
    assert parsed["fingerprint"] == {"instances": "11", "faults": "7"}
    assert parsed["error_rate"] == 0.0
    assert parsed["metrics"] == {"wall_s": 10.0, "op_p50_ms": 38.0}
    try:
        parse_run("no result here\n")
        raise AssertionError("parse_run accepted a non-result")
    except ValueError:
        pass

    def verdicts(base, head, spec=specs[1]):
        return compare(spec, base, head)["verdict"]

    tight = [38.0, 37.5, 38.2, 37.9, 38.1, 37.7, 38.3, 37.8, 38.0, 37.6]
    # A clear speed-up: every pair wins, the shift dwarfs the base IQR.
    assert verdicts(tight, [v * 0.6 for v in tight]) == "gain"
    # The same code on both sides: no gain, no regression.
    assert verdicts(tight, tight[5:] + tight[:5]) == "no change"
    # Worse by more than the bound.
    assert verdicts(tight, [v * 1.4 for v in tight]) == "regression"
    # Worse in every pair but within the bound.
    assert verdicts(tight, [v * 1.1 for v in tight]) == "loss"
    # 8 of 10 wins is not enough for a gain.
    mixed = [v * 0.6 for v in tight[:8]] + tight[8:]
    assert verdicts(tight, mixed) == "no change"
    # A base spread wider than the bound cannot tell anything.
    wide = [10.0, 30.0, 12.0, 28.0, 11.0, 29.0, 13.0, 27.0, 10.5, 30.5]
    assert verdicts(wide, [v * 0.5 for v in wide]) == "unresolved"
    # ... unless every head run is better than every base run.
    assert verdicts(wide, [v * 0.2 for v in wide]) == "gain"
    # One pair has no spread to judge against.
    assert verdicts(tight[:1], [tight[0] * 2]) == "unresolved"
    # Higher-is-better metrics flip the sign.
    rate = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
    assert verdicts(tight, [v * 1.5 for v in tight], rate) == "gain"
    assert verdicts(tight, [v * 0.5 for v in tight], rate) == "regression"
    # No bound: gain / loss / no change only.
    free = {"name": "sim.faultsim_ms", "better": "lower"}
    assert verdicts(wide, [v * 2 for v in wide], free) == "loss"

    # Whole-workload report: equal work passes, different work fails.
    runs = {"base": {s: parse_run(canned(7, 10.0, v))
                     for s, v in enumerate(tight, 1)},
            "head": {s: parse_run(canned(7, 6.0, v * 0.6))
                     for s, v in enumerate(tight, 1)}}
    sink = open(os.devnull, "w")
    assert report("sim_sweep", specs, runs, sink)
    runs["head"][3] = parse_run(canned(8, 6.0, 22.0))
    assert not report("sim_sweep", specs, runs, sink)
    runs["head"][3] = parse_run(canned(7, 6.0, 22.0, error_rate=0.1))
    assert not report("sim_sweep", specs, runs, sink)
    print("perf_ab self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--work", help="export and build directory "
                        "(default: a new temporary directory)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None:
        parser.error("BASE is required")
    for workload in args.workloads.split(","):
        if workload not in WORKLOADS:
            parser.error("unknown workload %s" % workload)
    return main_ab(args)


if __name__ == "__main__":
    sys.exit(main())
