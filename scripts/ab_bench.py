#!/usr/bin/env python3
"""A/B the repository benchmark: a base revision against the working tree.

Usage, from anywhere inside the repository:

    scripts/ab_bench.py --base <rev> --workload W [--seed N] [--pairs 10]
                        [--workdir DIR]

Extracts `git archive <rev>` into a work directory and builds each tree's
perfbench/ into its own CARGO_TARGET_DIR (perfbench/run.py does the
build). It then runs --pairs pairs of `perfbench/run.py --trace 0`, one
run per side at the benchmark's run_seconds (BENCHMARK.json),
alternating which side runs first. perfbench/ itself is only run, never
edited.

For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles, the change's win share (ties count for neither
side), and a verdict:

  GAIN        at least ten pairs, the change wins at least 9/10 of them,
              and its median is better than the base's by more than the
              base's IQR;
  no gain     better median, but not by that rule;
  UNRESOLVED  worse median, and the base's own IQR is wider than the
              metric's bound, so the runs cannot tell;
  in bound    worse median, by no more than the bound;
  WORSE       worse median, by more than the bound.

The simulated metrics and allocs_per_op are exact for a seed; the script
reports, for each of the two groups, whether it is identical between the
two sides in every pair. Any run whose result is not correct, or that
reports failed ops, is listed, and makes the exit status 1.

The work directory defaults to a fresh temporary directory that is
removed at exit; pass --workdir to keep the two builds for a later run
(the base tree is extracted once per revision).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED = ["sim_kops", "sim_read_p50_us", "sim_update_p50_us",
             "sim_p99_us", "sim_p999_us", "waf", "space_amp"]


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """The tree of `rev` under dest/ (kept when it is already there)."""
    if os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        return
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        sys.exit("ab_bench: git archive %s failed" % rev)


def run_once(tree, target, args, seconds):
    """One perfbench run; its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("ab_bench: run failed in %s" % tree)
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    iqr = bq3 - bq1
    gap = (bmed - cmed) if lower else (cmed - bmed)  # > 0: change better
    if gap > 0:
        gain = (len(base) >= 10 and wins * 10 >= 9 * len(base)
                and gap > iqr)
        word = "GAIN" if gain else "no gain"
    elif gap == 0:
        word = "same"
    else:
        rel = -gap / bmed if bmed else float("inf")
        if bmed and iqr / bmed > metric["bound"]:
            word = "UNRESOLVED"
        elif rel <= metric["bound"]:
            word = "in bound"
        else:
            word = "WORSE"
    return wins, word


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", default=None,
                    help="keep the base tree and both builds here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sha = git("rev-parse", "--short", args.base + "^{commit}")

    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_bench-")
    try:
        base_tree = os.path.join(workdir, "base-" + sha)
        extract(sha, base_tree)
        sides = {"base": (base_tree, os.path.join(workdir, "build-base-" + sha)),
                 "change": (ROOT, os.path.join(workdir, "build-change"))}
        # A zero-length run builds each side before any timed pair.
        for name, (tree, target) in sides.items():
            print("building %s (%s)" % (name, tree), flush=True)
            run_once(tree, target, args, 0)

        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for name in order:
                runs[name].append(run_once(*sides[name], args, seconds))
            b, c = (runs[s][-1]["metrics"]["host_ns_per_op"]["value"]
                    for s in ("base", "change"))
            print("pair %2d (%s first): host_ns_per_op base %.0f change %.0f"
                  % (i + 1, order[0], b, c), flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    print("\n%s, seed %d, %d pairs of %gs, base %s vs working tree"
          % (args.workload, args.seed, args.pairs, seconds, sha))
    print("%-18s %-34s %-34s %6s  %s" % ("metric", "base q1/median/q3",
                                         "change q1/median/q3", "wins",
                                         "verdict"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins, word = verdict(metric, base, change)
        fmt = lambda q: "%.4g / %.4g / %.4g" % q
        print("%-18s %-34s %-34s %2d/%-3d  %s"
              % (name, fmt(quartiles(base)), fmt(quartiles(change)), wins,
                 len(base), word))

    def identical(names):
        return all(rb["metrics"][m]["value"] == rc["metrics"][m]["value"]
                   for rb, rc in zip(runs["base"], runs["change"])
                   for m in names)
    print("\nidentical between the sides in every pair: simulated metrics %s,"
          " allocs_per_op %s" % ("yes" if identical(SIMULATED) else "NO",
                                 "yes" if identical(["allocs_per_op"]) else "no"))
    bad = ["%s run %d" % (name, i + 1) for name, rs in runs.items()
           for i, r in enumerate(rs)
           if r.get("correct") is not True or r.get("failed") != 0]
    print("runs not correct or with failed ops: %s"
          % (", ".join(bad) if bad else "none"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
