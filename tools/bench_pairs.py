"""Run the benchmark on two source trees in alternating pairs and compare them.

For each seed and each workload of the comma-separated ``--workload``
list, one pair of runs: each tree's own ``perfbench/run.py`` on the same
workload, seed and run length, every listed workload's pair before the
next seed, so that a drift of the host over the run lands on every
workload alike.  The side that goes first alternates from one seed to
the next.  Then, for each workload and each end-to-end metric, it prints
each side's median and quartiles and the number of pairs the new tree
won (ties count for neither side), and whether the gain rule holds:
at least ten pairs, wins in at least nine of every ten, and medians further
apart than the old tree's interquartile range.  It also flags a metric as
worse when the new median moved the wrong way by more than the metric's
``bound`` in ``BENCHMARK.json``, a fraction of the old median, and as
unresolved when the old tree's interquartile range is wider than that
bound, so that a median inside the bound shows no more than the noise,
unless every new run beats every old run.

    python tools/bench_pairs.py --old path/to/parent --new . \\
        --workload bitvec_topk,bitvec_sparsemap --seeds 1,2,3,4,5,6,7,8,9,1000 \\
        --seconds 20

Runs go one at a time.  Each run writes its own output file under its
tree's ``perfbench/out/``; nothing else in either tree is touched.
``--out`` also saves every run's result line and each workload's summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", required=True, help="root of the baseline source tree")
    parser.add_argument("--new", required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=None, help="also write the results to this JSON file")
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        args.seeds = []
    if not args.seeds or any(s < 0 for s in args.seeds):
        parser.error("--seeds must be a nonempty list of non-negative integers")
    args.workload = [w.strip() for w in args.workload.split(",") if w.strip()]
    if not args.workload or len(set(args.workload)) < len(args.workload):
        parser.error("--workload must be a nonempty list of distinct workload names")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its last output line, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s: %s exited with %d:\n%s"
                         % (tree, " ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


MIN_PAIRS = 10  # fewer pairs cannot show a gain, however many the new tree wins


def summarize(pairs, directions: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's quartiles, the new tree's wins, the gain
    rule and the worse and unresolved flags.

    A gain needs at least ``MIN_PAIRS`` pairs, wins in at least nine of
    every ten, and medians further apart, in the metric's better
    direction, than the old tree's interquartile range.  A metric is
    worse when its new median is past the old one in the wrong direction
    by more than ``bounds[name]`` times the old median's size.  It is
    unresolved when the old interquartile range is wider than that bound
    and some new run does not beat every old run.  A metric without a
    bound is never flagged.
    """
    summary = {}
    for name, better in directions.items():
        bound = (bounds or {}).get(name)
        old = [p["old"]["metrics"][name]["value"] for p in pairs]
        new = [p["new"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = _quartiles(old), _quartiles(new)
        beats_all = all(sign * (b - a) > 0 for a in old for b in new)
        summary[name] = {
            "better": better,
            "old": {"q1": o1, "median": om, "q3": o3},
            "new": {"q1": n1, "median": nm, "q3": n3},
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "gain": (len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                     and sign * (nm - om) > o3 - o1),
            "worse": bound is not None and sign * (om - nm) > bound * abs(om),
            "unresolved": bound is not None and o3 - o1 > bound * abs(om) and not beats_all,
        }
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(args.new, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    directions = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    sides = {"old": args.old, "new": args.new}
    pairs = {workload: [] for workload in args.workload}
    for n, seed in enumerate(args.seeds):
        order = ("old", "new") if n % 2 == 0 else ("new", "old")
        for workload in args.workload:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
            pairs[workload].append(pair)
            print("%s seed %d (%s first): %s" % (workload, seed, order[0], "  ".join(
                "%s %s correct=%s failed=%d" % (
                    side, " ".join("%s=%.6g" % (k, v["value"])
                                   for k, v in pair[side]["metrics"].items()),
                    pair[side]["correct"], pair[side]["failed"])
                for side in ("old", "new"))), flush=True)

    results = {}
    for workload, runs in pairs.items():
        summary = summarize(runs, directions, bounds)
        print("%s, %d pairs, %g s runs" % (workload, len(runs), args.seconds))
        for name, s in summary.items():
            print("%-24s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  new wins %d of %d%s" % (
                name, s["old"]["median"], s["old"]["q1"], s["old"]["q3"],
                s["new"]["median"], s["new"]["q1"], s["new"]["q3"], s["wins"], s["pairs"],
                "".join("  (%s)" % flag for flag in ("gain", "worse", "unresolved") if s[flag])))
        bad = sum(not p[side]["correct"] or p[side]["failed"] > 0
                  for p in runs for side in ("old", "new"))
        print("runs incorrect or with failures: %d of %d" % (bad, 2 * len(runs)))
        results[workload] = {"pairs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "seeds": args.seeds, "workloads": results},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
