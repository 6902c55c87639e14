"""Command-line harness: property checks, micro-benchmarks, toy training.

Three subcommands share one convention: anything random is driven by an
explicit ``--seed``, training CSV output is byte-identical across reruns
of the same command, and wall-clock information lives only in the
manifest sidecar so it never breaks output diffs.

Exit codes: 0 success, 1 property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict

import numpy as np

from . import __version__
from .activeset import sparsemap, sparsemap_rows
from .bitvec import BitVectorPolytope, kbest, kbest_rows
from .checks import SUITES, run_suite
from .rng import make_rng
from .simplex import sparsemax
from .topk import topk_sparsemax
from .toys import (
    ToyBitVectorVAE,
    ToyCategoricalModel,
    TrainConfig,
    _check_config,
    make_bitvec_images,
    make_cluster_data,
    train_bitvec_vae,
    train_categorical,
)

__all__ = ["main", "cmd_check", "cmd_bench", "cmd_train"]

MESSAGES = 16  # the categorical task's messages, clusters and labels
# bench warms each op up with this many calls before its traced call and
# its timed trials: the interpreter specializes a function's code over its
# first calls, which allocates a few bytes more, so an earlier traced call
# reads more.
SETTLED_CALLS = 7

TRAIN_COLUMNS = (
    "epoch",
    "loss",
    "metric",
    "calls_mean",
    "calls_p10",
    "calls_median",
    "calls_p90",
    "support_mean",
    "support_max",
    "cert_frac",
)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _atomic_write(path: str, text: str) -> None:
    # Write-then-rename so a crashed run never leaves a truncated file.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _usage_error(message: str) -> int:
    """Print a usage error as one ``error: ...`` line; return its exit code."""
    print("error: %s" % message, file=sys.stderr)
    return 2


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def cmd_check(args) -> int:
    report_lines = []
    failures = 0
    for result in run_suite(args.suite, args.trials, args.seed):
        status = "ok" if result.ok else "FAIL"
        failures += not result.ok
        report_lines.append(
            "%-4s %-42s %d/%d passed, worst error %.3g"
            % (status, result.name, result.passes, result.trials, result.worst_error)
        )
    print("suite %s (%d trials, seed %d)" % (args.suite, args.trials, args.seed))
    print("\n".join(report_lines))
    if failures:
        print("%d properties failed" % failures)
        return 1
    print("all properties passed")
    return 0


def _bench_call(op: str, size: int, rows: int, rng):
    if op == "sparsemax":
        s = rng.normal(size=size)
        return lambda: sparsemax(s), None
    if op == "topk":
        s = rng.normal(size=size)
        k = max(1, size // 10)
        return lambda: topk_sparsemax(s, k), None
    if op == "kbest":
        t = rng.normal(size=size)
        return lambda: kbest(t, 16), None
    if op == "kbest_rows":  # topk training maps batches of 16 and an initial pass of 64
        T = rng.normal(size=(rows, size))
        return lambda: kbest_rows(T, 16), None
    if op == "sparsemap":
        t = rng.normal(size=size)
        oracle = BitVectorPolytope(size)
        return lambda: sparsemap(oracle, t), lambda res: res.iterations
    if op == "sparsemap_rows":  # a batch solve; training's are 8-24 rows
        T = rng.normal(size=(rows, size))
        oracle = BitVectorPolytope(size)
        return (lambda: sparsemap_rows(oracle, T),
                lambda results: np.mean([res.iterations for res in results]))
    raise AssertionError(op)


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or any(s < 1 for s in sizes):
        return _usage_error("--sizes must be a nonempty list of positive integers")
    if args.rows is not None and args.op not in ("sparsemap_rows", "kbest_rows"):
        return _usage_error("--rows applies to --op sparsemap_rows and kbest_rows only")
    n_rows = 8 if args.rows is None else args.rows
    if n_rows < 1:
        return _usage_error("--rows must be at least 1, got %d" % n_rows)
    rng = make_rng(args.seed)
    rows = []
    for size in sizes:
        fn, iter_of = _bench_call(args.op, size, n_rows, rng)
        for _ in range(SETTLED_CALLS):
            fn()
        # One more call, untimed: the peak of what it allocates, traced.
        # The collection empties the free lists, which would hide some.
        # It comes before the trials, so that --trials cannot change it.
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times = np.empty(args.trials)
        iters = []
        for i in range(args.trials):
            t0 = time.perf_counter_ns()
            res = fn()
            times[i] = time.perf_counter_ns() - t0
            if iter_of is not None:
                iters.append(iter_of(res))
        mean_iters = _fmt(np.mean(iters)) if iters else ""
        rows.append((args.op, str(size), _fmt(np.median(times)), _fmt(np.percentile(times, 90)),
                     mean_iters, _fmt(peak / 2**20)))
    lines = ["op,size,median_ns,p90_ns,mean_iters,traced_peak_mb"]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _train_run(args, cfg):
    if args.task == "categorical":
        data = make_cluster_data(n=args.n, n_clusters=MESSAGES, seed=args.seed)
        model = ToyCategoricalModel.init(n_messages=MESSAGES, n_classes=MESSAGES, seed=args.seed)
        return train_categorical(model, data, cfg)
    data = make_bitvec_images(n=args.n, d=args.d, seed=args.seed)
    model = ToyBitVectorVAE.init(d=args.d, n_pixels=data.n_pixels, seed=args.seed)
    return train_bitvec_vae(model, data, cfg)


def cmd_train(args) -> int:
    cfg = TrainConfig(
        method=args.method,
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        k=args.k,
        budget=args.budget,
    )
    try:
        _check_config(args.task, cfg, args.n, MESSAGES if args.task == "categorical" else args.d)
    except ValueError as exc:
        return _usage_error(str(exc))
    started = _timestamp()
    log = _train_run(args, cfg)
    lines = [",".join(TRAIN_COLUMNS)]
    for row in log.rows:
        lines.append(
            ",".join(
                (
                    str(row.epoch),
                    _fmt(row.loss),
                    _fmt(row.metric),
                    _fmt(row.calls.mean),
                    _fmt(row.calls.p10),
                    _fmt(row.calls.median),
                    _fmt(row.calls.p90),
                    _fmt(row.support_mean),
                    _fmt(row.support_max),
                    "" if row.cert_frac is None else _fmt(row.cert_frac),
                )
            )
        )
    out = args.out or "%s_%s.csv" % (args.task, args.method)
    _atomic_write(out, "\n".join(lines) + "\n")
    manifest = {
        "command": " ".join([os.path.basename(sys.argv[0] or "sparsemarg")] + sys.argv[1:])
        if sys.argv
        else "sparsemarg",
        "task": args.task,
        "config": asdict(cfg),
        "n": args.n,
        "d": args.d if args.task == "bitvec" else None,
        "seed": args.seed,
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "outputs": [out],
        "initial_loss": log.initial_loss,
        "diverged": log.diverged,
        "initial_loss_s": log.initial_loss_s,
        "epoch_s": log.epoch_s,
    }
    _atomic_write(out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    print("wrote %s (%d epochs)" % (out, len(log.rows)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemarg",
        description="Property checks, benchmarks, and toy training for sparse marginalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a module property suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="micro-benchmark an operation")
    p_bench.add_argument("--op", choices=("sparsemax", "topk", "kbest", "kbest_rows",
                                          "sparsemap", "sparsemap_rows"),
                         default="sparsemax")
    p_bench.add_argument("--sizes", default="10,100,1000",
                         help="comma-separated problem sizes")
    p_bench.add_argument("--rows", type=int, default=None,
                         help="score rows per sparsemap_rows or kbest_rows batch (default 8)")
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)

    p_train = sub.add_parser("train", help="train a toy task and write the epoch CSV")
    p_train.add_argument("task", choices=("categorical", "bitvec"))
    p_train.add_argument("--method", required=True)
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.add_argument("--lr", type=float, default=0.2)
    p_train.add_argument("--batch-size", type=int, default=16)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--k", type=int, default=1)
    p_train.add_argument("--budget", type=int, default=0)
    p_train.add_argument("--d", type=int, default=8)
    p_train.add_argument("--n", type=int, default=256)
    p_train.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _usage_error("--seed must be non-negative, got %d" % args.seed)
    if args.command in ("check", "bench") and args.trials < 1:
        return _usage_error("--trials must be at least 1, got %d" % args.trials)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "bench":
        return cmd_bench(args)
    return cmd_train(args)


if __name__ == "__main__":
    sys.exit(main())
