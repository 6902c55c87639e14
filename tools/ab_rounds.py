"""Time two source trees against each other in one process, in paired
rounds of one benchmark workload.

Each tree's ``src/sparsemarg`` is copied to a temporary directory under a
package name of its own (``sparsemarg_old`` and ``sparsemarg_new``; the
package imports itself only relatively), so that both load side by side.
A round is one round of this checkout's ``perfbench/run.py`` on the
workload, the same code for both sides: every method trained once on
every replica, from a fresh model, on the data of ``--seed``.  The
module-level ``toys`` of ``perfbench/workloads.py``, which that file looks
up at call time, points at each side in turn.

The rounds alternate between the sides, the side that goes first
alternating from one pair to the next, and each is timed in CPU seconds
(``time.process_time``) with one BLAS thread.  Two separate runs of one
tree can differ by far more than the change being sized, when the host
is shared; two rounds next to each other in one process mostly share
its state.  It prints each side's median round, the median of the pairs'
speed ratios (old time over new time, above 1 when the new tree is
faster) and the number of pairs the new tree won, and then the same
figures for each method's training calls within a round, so that a
change to one method is sized on its own:

    python tools/ab_rounds.py --old path/to/parent --new . \\
        --workload bitvec_sparsemap --seed 1 --rounds 10

The rounds' work is the program's own, so a ratio sizes a change
quickly; a gain is still claimed only from ``tools/bench_pairs.py``,
whose runs are the benchmark's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")
_SIDES = ("old", "new")
# What a comparison imports, each side's package and perfbench's two
# modules under names of their own; it removes them when done.
_MODULES = ("sparsemarg_old", "sparsemarg_new", "_ab_workloads", "_ab_run")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", required=True, help="root of the baseline source tree")
    parser.add_argument("--new", required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True, help="one workload name")
    parser.add_argument("--seed", type=int, default=1, help="non-negative workload seed")
    parser.add_argument("--rounds", type=int, default=10, help="pairs of rounds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def _load(name: str, path: str):
    """The module at ``path``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _packages(trees: dict, tmp: str) -> dict:
    """Each side's copy of its tree's package, imported with its ``toys``."""
    for side, tree in trees.items():
        shutil.copytree(os.path.join(tree, "src", "sparsemarg"),
                        os.path.join(tmp, "sparsemarg_" + side),
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, tmp)
    try:
        return {side: importlib.import_module("sparsemarg_%s.toys" % side) for side in trees}
    finally:
        sys.path.remove(tmp)


def _workloads(package):
    """perfbench's workloads module, loaded with ``package`` standing in for
    the ``sparsemarg`` it imports ``toys`` from."""
    before = sys.modules.get("sparsemarg")
    sys.modules["sparsemarg"] = package
    try:
        return _load("_ab_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    finally:
        if before is None:
            del sys.modules["sparsemarg"]
        else:
            sys.modules["sparsemarg"] = before


def _timed(train, spent: dict):
    """``train`` adding each call's CPU seconds to ``spent`` under its method."""
    def timed(wl, model, data, cfg):
        t0 = time.process_time()
        try:
            return train(wl, model, data, cfg)
        finally:
            spent[cfg.method] = spent.get(cfg.method, 0.0) + time.process_time() - t0
    return timed


def rounds(trees: dict, workload: str, seed: int, n: int) -> dict:
    """Each side's CPU seconds per round, ``n`` rounds each, in alternating
    pairs; each side's per-round seconds of each method's training calls;
    and whether every round trained exactly as that side's first."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            toys = _packages(trees, tmp)
            W = _workloads(sys.modules["sparsemarg_old"])
            run = _load("_ab_run", os.path.join(_PERFBENCH, "run.py"))
            wl = W.WORKLOADS[workload]
            problems, keys, cpu = {}, {}, {side: [] for side in trees}
            spent, methods = {}, {side: {m: [] for m in wl.methods} for side in trees}
            W.train = _timed(W.train, spent)
            for side in trees:
                W.toys = toys[side]
                problems[side] = run._setup(W, wl, seed)
            for i in range(n):
                for side in _SIDES if i % 2 == 0 else _SIDES[::-1]:
                    W.toys = toys[side]
                    spent.clear()
                    t0 = time.process_time()
                    _, _, _, failed, replica_runs = run._round(W, wl, problems[side])
                    cpu[side].append(time.process_time() - t0)
                    for method, seconds in methods[side].items():
                        seconds.append(spent[method])
                    if failed:
                        raise SystemExit("%s: %d examples failed" % (side, failed))
                    keys.setdefault(side, set()).add(run._log_key(replica_runs))
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] in _MODULES]:
                del sys.modules[name]
    return {"cpu": cpu, "methods": methods,
            "repeatable": all(len(k) == 1 for k in keys.values())}


def summary(cpu: dict) -> dict:
    """Both medians, the median paired ratio old / new and the new side's wins."""
    ratios = [a / b for a, b in zip(cpu["old"], cpu["new"])]
    return {"old_s": statistics.median(cpu["old"]), "new_s": statistics.median(cpu["new"]),
            "ratio": statistics.median(ratios), "wins": sum(r > 1.0 for r in ratios),
            "pairs": len(ratios)}


def main(argv=None) -> int:
    args = _parse(argv)
    # Before numpy loads, so its BLAS pool has one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    out = rounds({"old": args.old, "new": args.new}, args.workload, args.seed, args.rounds)
    s = summary(out["cpu"])
    print("%s seed %d, %d pairs of rounds: old %.4f s, new %.4f s, old/new %.3f, new wins %d of %d"
          % (args.workload, args.seed, s["pairs"], s["old_s"], s["new_s"], s["ratio"], s["wins"],
             s["pairs"]))
    for method in out["methods"]["old"]:
        s = summary({side: out["methods"][side][method] for side in _SIDES})
        print("  %s: old %.4f s, new %.4f s, old/new %.3f, new wins %d of %d"
              % (method, s["old_s"], s["new_s"], s["ratio"], s["wins"], s["pairs"]))
    if not out["repeatable"]:
        print("warning: rounds of one side trained differently", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
