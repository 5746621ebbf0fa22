#!/usr/bin/env python3
"""Same-host A/B comparison of two git revisions with perfbench.

Run from the repository root:

    python3 perfbench/ab.py BASE_REV NEW_REV [--workload W ...] [--pairs 10]

Each revision is checked out into its own git worktree under --workdir, and
this checkout's perfbench/ directory is copied over the worktree's, so both
sides are measured by identical benchmark code and settings. Every pair runs
both sides on the same seed, alternating which side runs first. For each
end-to-end metric of each workload the script prints both sides' median and
quartiles, NEW's win share (ties count for neither) and whether the change
meets the gain rule: it wins at least nine tenths of the pairs and the
medians differ by more than BASE's own interquartile distance.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def run(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {cwd} failed:\n{out.stderr[-2000:]}")
    return out.stdout


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workload", action="append", help="workload to compare (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", default=".bench_build/ab")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("the gain rule needs at least 10 pairs")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    repo = os.getcwd()
    sides = {}
    try:
        for label, rev in (("base", args.base), ("new", args.new)):
            wt = os.path.abspath(os.path.join(args.workdir, label))
            if os.path.exists(wt):
                run(["git", "worktree", "remove", "--force", wt], repo)
            run(["git", "worktree", "add", "--detach", wt, rev], repo)
            shutil.rmtree(os.path.join(wt, "perfbench"), ignore_errors=True)
            shutil.copytree(os.path.join(repo, "perfbench"), os.path.join(wt, "perfbench"))
            sides[label] = wt

        for wl in workloads:
            vals = {"base": {}, "new": {}}
            for i in range(args.pairs):
                seed = str(1000 + i)
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                for label in order:
                    out = run(["bash", "perfbench/run.sh", "--workload", wl, "--seed", seed,
                               "--seconds", seconds, "--trace", "0"], sides[label])
                    res = json.loads(out.strip().splitlines()[-1])
                    if not res["correct"]:
                        sys.exit(f"{label} {wl} seed {seed}: {res['failed']} of {res['attempted']} failed")
                    for name, m in res["metrics"].items():
                        vals[label].setdefault(name, []).append(m["value"])
                print(f"{wl}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            report(wl, vals, better)
    finally:
        for wt in sides.values():
            subprocess.run(["git", "worktree", "remove", "--force", wt], cwd=repo, capture_output=True)


def report(wl, vals, better):
    print(f"\n{wl}")
    print(f"{'metric':<18} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32} {'new wins':>9}  verdict")
    for name in sorted(vals["base"]):
        b, n = vals["base"][name], vals["new"][name]
        higher = better.get(name) == "higher"
        wins = sum(1 for x, y in zip(b, n) if (y > x if higher else y < x))
        share = wins / len(b)
        bm, nm = statistics.median(b), statistics.median(n)
        bq1, bq3 = quartiles(b)
        nq1, nq3 = quartiles(n)
        gain = share >= 0.9 and abs(nm - bm) > bq3 - bq1
        base = f"{bm:.5g} [{bq1:.5g}, {bq3:.5g}]"
        new = f"{nm:.5g} [{nq1:.5g}, {nq3:.5g}]"
        print(f"{name:<18} {base:>32} {new:>32} {share:>9.0%}  " + ("gain" if gain else "no claim"))


if __name__ == "__main__":
    main()
