"""Training-throughput benchmark for sparsemarg.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload categorical_sparse --seed 1 --seconds 20 --trace 0

One process, one thread (BLAS pools included) and a closed loop with one
caller: each round trains every method of the workload from a fresh
model through the public training API, and the next round starts when it
returns.  Rounds repeat for ``--seconds`` of wall time.  Afterwards the
outputs are checked against computations made apart from the program
(``refs.py``).

Times are CPU seconds of the process.  With one thread, CPU time equals
wall time on a quiet machine, but it leaves out the spells in which a
shared host takes the CPU away.  Training time is further scaled to a
host of reference speed (``hostspeed.py``), which takes out the spells
in which the host runs the same code slower.  The raw CPU and wall times
of every round go to the output file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics taken from
the spans (``spans.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the same object, with the per-round figures, is written to
``perfbench/out/``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
WARMUP_EXAMPLES = 4
CHECK_SAMPLE = 6  # examples per workload checked one by one
PROBE_SHARE = 0.1  # host-speed probe time per unit of training time
PROBE_MIN_S = 0.01


def _import_program():
    """Import sparsemarg from this checkout's sources, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import sparsemarg
    except ImportError as exc:
        sys.exit("error: cannot import sparsemarg from %s: %s" % (SRC, exc))
    where = os.path.realpath(sparsemarg.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("error: sparsemarg was imported from %s, not from %s" % (where, SRC))


def _parse(argv):
    parser = argparse.ArgumentParser(description="Training-throughput benchmark for sparsemarg.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _log_key(replica_runs):
    """What a round's training logs say, for comparing rounds."""
    return repr([{m: (log.initial_loss, log.diverged,
                      [(r.loss, r.calls, r.support_mean, r.support_max, r.cert_frac)
                       for r in log.rows])
                  for m, (_, log) in runs.items()}
                 for runs in replica_runs])


def _round(W, wl, problems, speed=None):
    """Train every method on every replica once, from a fresh model.

    ``problems`` holds each replica's (seed, data).  After each training
    call, ``speed`` (a HostSpeed, if given) probes the host for a tenth of
    the call's CPU time.  Returns the CPU and wall seconds spent in the
    training calls, the examples that passed and failed, and per replica
    a dict of each method's (model, log).
    """
    cpu, wall, done, failed, replica_runs = 0.0, 0.0, 0, 0, []
    for seed, data in problems:
        runs = {}
        for method in wl.methods:
            model = W.make_model(wl, seed)
            cfg = W.config(wl, method, seed)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                log = W.train(wl, model, data, cfg)
            except Exception as exc:
                # The log is lost, so the whole call counts as failed.
                print("warning: %s raised %r" % (method, exc), file=sys.stderr)
                log = None
            call_cpu = time.process_time() - c0
            cpu += call_cpu
            wall += time.perf_counter() - t0
            if speed is not None:
                speed.probe(max(PROBE_MIN_S, PROBE_SHARE * call_cpu))
            if log is None:
                failed += wl.examples_per_method
                continue
            # The epoch that diverged and every later one fail.
            ok = wl.n * (1 + len(log.rows)) if log.diverged else wl.examples_per_method
            done += ok
            failed += wl.examples_per_method - ok
            runs[method] = (model, log)
        replica_runs.append(runs)
    return cpu, wall, done, failed, replica_runs


def _setup(W, wl, seed):
    """Data generation and model init for every replica, and one short
    warm-up training call per method."""
    problems = [(s, W.make_data(wl, s)) for s in wl.seeds(seed)]
    for s, _ in problems:
        W.make_model(wl, s)
    s, data = problems[0]
    warm = W.subset(wl, data, slice(0, WARMUP_EXAMPLES))
    for method in wl.methods:
        W.train(wl, W.make_model(wl, s), warm, W.config(wl, method, s, epochs=1))
    return problems


def main(argv=None):
    args = _parse(argv)
    # Before numpy loads, so its BLAS pool has one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    import numpy as np

    import refs
    import spans
    import workloads as W
    from hostspeed import HostSpeed

    if args.workload not in W.WORKLOADS:
        sys.exit("error: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(W.WORKLOADS)))
    wl = W.WORKLOADS[args.workload]
    # CPU time of the process so far: interpreter start and imports.
    import_s = time.process_time()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        c0 = time.process_time()
        problems = _setup(W, wl, args.seed)
        setup_times.append(time.process_time() - c0)

    recorder = spans.Recorder() if args.trace else None
    rounds, traced, layer_rounds, keys = [], [], [], set()
    attempted = failed = 0
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not rounds:
        speed = HostSpeed()
        cpu, wall, done, lost, replica_runs = _round(W, wl, problems, speed)
        attempted, failed = attempted + done + lost, failed + lost
        rounds.append((cpu, wall, done, speed.scale()))
        keys.add(_log_key(replica_runs))
        if recorder is not None:
            with recorder.installed(len(traced)):
                cpu, wall, done, lost, traced_runs = _round(W, wl, problems)
            attempted, failed = attempted + done + lost, failed + lost
            layer_rounds.append(spans.layer_metrics(recorder.arrays(), len(traced)))
            traced.append((cpu, wall, done, None))
            keys.add(_log_key(traced_runs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatches = []
    if len(keys) != 1:
        mismatches.append("rounds of the same seed gave different training logs")
    rng = np.random.default_rng([args.seed, 7])
    sample = [(int(r), int(i)) for r, i in zip(rng.permutation(wl.replicas)[:CHECK_SAMPLE],
                                               rng.choice(wl.n, size=CHECK_SAMPLE))]
    if all(set(runs) == set(wl.methods) for runs in replica_runs):
        try:
            replicas = [(s, d, runs) for (s, d), runs in zip(problems, replica_runs)]
            refs.CHECKS[wl.name](wl, replicas, sample)
        except refs.CheckFailed as exc:
            mismatches.append(str(exc))
    else:
        print("warning: a method failed, so its outputs are not checked", file=sys.stderr)
    for m in mismatches:
        print("check failed: %s" % m, file=sys.stderr)

    if args.trace:
        layer_rounds = [dict(r, **{"trace.overhead_s": t[0] - p[0]})
                        for r, t, p in zip(layer_rounds, traced, rounds)]
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
                   for name, unit in spans.UNITS.items()}
    else:
        # EpochRow.calls.mean is the mean over the epoch's n examples.
        logs = [log for runs in replica_runs for _, log in runs.values()]
        calls = sum(round(row.calls.mean * wl.n) for log in logs for row in log.rows)
        trained = sum(wl.n * len(log.rows) for log in logs)
        metrics = {
            "examples_per_s": {
                "value": statistics.median(done / (cpu * scale) for cpu, _, done, scale in rounds),
                "unit": "examples/s"},
            "loss_calls_per_example": {"value": calls / max(trained, 1), "unit": "calls"},
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not mismatches, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, workload=wl.name, seed=args.seed, import_s=import_s,
                       setup_times=setup_times,
                       rounds=rounds, traced_rounds=traced,
                       layer_rounds=layer_rounds), fh, indent=1)
    if recorder is not None:
        # One file per workload, so repeated runs do not pile up.
        recorder.save(os.path.join(OUT, "%s-spans.npz" % wl.name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
