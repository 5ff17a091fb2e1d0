#!/usr/bin/env python3
"""Paired A/B of the repo benchmark: a base revision against this checkout.

    python3 scripts/perf_ab.py BASE_REV WORKLOAD [--pairs 10] [--seconds 30]

Unpacks `git archive BASE_REV` into a temporary directory, then runs
PAIRS pairs of the benchmark's own command, `python3 perfbench/run.py
--workload WORKLOAD --seed S --seconds SECONDS --trace 0`, once from
that directory and once from this checkout. run.py builds its
checkout before it runs (a no-op after the first run), and main.exe
times itself, so the build does not enter the metrics. Both runs of a
pair use the same seed; each pair draws a new one. The side that runs
first alternates from pair to pair, so drift in the host's speed lands
on both sides equally. One line per pair, with its seed and both
sides' values, goes to standard error.

Prints, for each side, the median and quartiles of every end-to-end
metric that BENCHMARK.json declares, and the failed fraction. For each
metric it then prints how many pairs the change won (ties count for
neither side; the better direction comes from BENCHMARK.json) and a
label:

  gain        there are at least 10 pairs, the change won at least 9/10
              of them, and its median is better than the base's by more
              than the base's interquartile range; fewer pairs never
              make a gain
  regression  the change's median is worse than the base's by more than
              the metric's bound (a fraction of the base's median)
  unresolved  anything else

Exits 0 once the report is printed, 1 when a side fails to build or
run, 2 on a usage error. The report decides nothing by itself.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_GAIN_PAIRS = 10


def unpack(rev, dest):
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        sys.exit("perf_ab: git archive %s failed" % rev)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run(root, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, universal_newlines=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        print("perf_ab: %s exited %d without a result" % (root, done.returncode),
              file=sys.stderr)
        sys.exit(1)
    return json.loads(lines[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def judge(metric, base, head):
    """The change's pair wins and the metric's label."""
    lower = metric["better"] == "lower"
    wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    mb, mh = quantile(base, 0.5), quantile(head, 0.5)
    gained = mb - mh if lower else mh - mb
    iqr = quantile(base, 0.75) - quantile(base, 0.25)
    if len(base) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(base) and gained > iqr:
        return wins, "gain"
    if -gained > metric["bound"] * abs(mb):
        return wins, "regression"
    return wins, "unresolved"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0:
        ap.error("--pairs must be positive and --seconds not negative")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    base_root = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        unpack(args.base_rev, base_root)
        sides = {"base": base_root, "change": ROOT}
        rng = random.SystemRandom()
        results = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = rng.randrange(1, 1 << 30)
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                results[side].append(run(sides[side], args.workload, seed, args.seconds))
            b, h = results["base"][-1], results["change"][-1]
            print("pair %d/%d: seed %d, %s first; base/change %s" %
                  (i + 1, args.pairs, seed, order[0],
                   ", ".join("%s %.4g/%.4g" % (m["name"], value(b, m["name"]), value(h, m["name"]))
                             for m in metrics)),
                  file=sys.stderr)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)

    print("%s: %s vs this checkout, %d pairs of %gs" %
          (args.workload, args.base_rev, args.pairs, args.seconds))
    for side in ("base", "change"):
        runs = results[side]
        print("%-6s failed %d/%d" % (side, sum(r["failed"] for r in runs),
                                     sum(r["attempted"] for r in runs)))
    print("%-16s %-6s %12s %12s %12s   %-8s %s" %
          ("metric", "side", "q1", "median", "q3", "wins", "label"))
    for m in metrics:
        base = [value(r, m["name"]) for r in results["base"]]
        head = [value(r, m["name"]) for r in results["change"]]
        wins, verdict = judge(m, base, head)
        for side, xs, tail in (("base", base, ""),
                               ("change", head, "   %2d/%-5d %s" % (wins, args.pairs, verdict))):
            print("%-16s %-6s %12.4g %12.4g %12.4g%s" %
                  (m["name"], side, quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75),
                   tail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
