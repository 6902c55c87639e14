"""The verdicts of ``tools/bench_pairs.py``: the gain rule (enough pairs,
enough wins, medians apart), the worse flag (a median past its bound) and
the unresolved flag (an old spread wider than the bound)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(old, new):
    def run(value):
        return {"metrics": {"examples_per_s": {"value": value}}}
    return [{"old": run(a), "new": run(b)} for a, b in zip(old, new)]


def _gain(old, new):
    summary = bench_pairs.summarize(_pairs(old, new), {"examples_per_s": "higher"})
    return summary["examples_per_s"]


def test_four_of_four_wins_is_no_gain():
    s = _gain([100.0, 101.0, 102.0, 103.0], [200.0, 201.0, 202.0, 203.0])
    assert (s["wins"], s["pairs"]) == (4, 4)
    assert not s["gain"]


def test_nine_of_ten_wins_with_medians_past_the_old_spread_is_a_gain():
    old = [100.0 + i for i in range(10)]
    new = [120.0 + i for i in range(9)] + [50.0]
    s = _gain(old, new)
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["new"]["median"] - s["old"]["median"] > s["old"]["q3"] - s["old"]["q1"]
    assert s["gain"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_eight_of_ten_wins_is_no_gain(better):
    sign = 1.0 if better == "higher" else -1.0
    old = [100.0 + i for i in range(10)]
    new = [a + sign * 30.0 for a in old[:8]] + [a - sign * 30.0 for a in old[8:]]
    s = bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better})["examples_per_s"]
    assert (s["wins"], s["losses"]) == (8, 2)
    assert not s["gain"]


def test_nine_of_ten_wins_inside_the_old_spread_is_no_gain():
    old = [100.0 + 10.0 * i for i in range(10)]
    new = [a + 1.0 for a in old[:9]] + [old[9] - 1.0]
    s = _gain(old, new)
    assert s["wins"] == 9
    assert not s["gain"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_median_past_its_bound_in_the_wrong_direction_is_worse(better):
    # Bound 0.1 on an old median of 100: a new median 11 the wrong way is
    # worse, 9 the wrong way or any distance the right way is not.
    sign = 1.0 if better == "higher" else -1.0
    old = [100.0] * 10

    def verdict(shift, bound=0.1):
        new = [a + sign * shift for a in old]
        bounds = None if bound is None else {"examples_per_s": bound}
        return bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better},
                                     bounds)["examples_per_s"]

    assert verdict(-11.0)["worse"] and not verdict(-11.0)["gain"]
    assert not verdict(-9.0)["worse"]
    assert not verdict(30.0)["worse"] and verdict(30.0)["gain"]
    assert not verdict(-11.0, bound=None)["worse"]  # no bound, no flag


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_an_old_spread_wider_than_the_bound_leaves_the_metric_unresolved(better):
    # Bound 0.1 on old runs spread from 70 to 130 (quartiles 85 and 115):
    # a new median within 1 of the old one shows nothing either way, and
    # is neither worse nor unchanged.
    sign = 1.0 if better == "higher" else -1.0
    old = [70.0 + 60.0 * i / 9 for i in range(10)]
    new = [a + sign * 1.0 for a in old[::-1]]
    s = bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better},
                              {"examples_per_s": 0.1})["examples_per_s"]
    assert s["old"]["q3"] - s["old"]["q1"] > 0.1 * s["old"]["median"]
    assert s["unresolved"] and not s["worse"] and not s["gain"]
    # Without a bound, or with one wider than the spread, no flag.
    assert not bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better}
                                     )["examples_per_s"]["unresolved"]
    assert not bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better},
                                     {"examples_per_s": 0.5})["examples_per_s"]["unresolved"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_wide_old_spread_is_resolved_when_every_new_run_beats_every_old_run(better):
    # The same wide old spread, but every new run is better than the best
    # old run: resolved, however the medians compare to the bound.
    sign = 1.0 if better == "higher" else -1.0
    old = [70.0 + 60.0 * i / 9 for i in range(10)]
    edge = max(old) if better == "higher" else min(old)
    new = [edge + sign * (1.0 + i) for i in range(10)]
    s = bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better},
                              {"examples_per_s": 0.1})["examples_per_s"]
    assert s["old"]["q3"] - s["old"]["q1"] > 0.1 * s["old"]["median"]
    assert not s["unresolved"] and not s["worse"]
    # One new run that only ties the best old run leaves it unresolved.
    new[0] = edge
    assert bench_pairs.summarize(_pairs(old, new), {"examples_per_s": better},
                                 {"examples_per_s": 0.1})["examples_per_s"]["unresolved"]


def test_main_runs_every_workload_at_a_seed_before_the_next_and_writes_each_summary(
        tmp_path, monkeypatch, capsys):
    # run_once stubbed: the new tree is 10 better on every metric's value
    # (so lower-is-better metrics read worse), and the order of the runs
    # is recorded.
    new = str(_PATH.parents[1])  # a tree with BENCHMARK.json
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(("new" if tree == new else "old", workload, seed, seconds))
        value = 100.0 + seed + (10.0 if tree == new else 0.0)
        return {"correct": True, "failed": 0, "metrics": {
            name: {"value": value} for name in (
                "examples_per_s", "loss_calls_per_example", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    seeds = list(range(1, 11))
    assert bench_pairs.main(["--old", "parent", "--new", new, "--workload", "wa, wb",
                             "--seeds", ",".join(map(str, seeds)), "--seconds", "2",
                             "--out", str(out)]) == 0
    expected = []
    for n, seed in enumerate(seeds):
        first, second = ("old", "new") if n % 2 == 0 else ("new", "old")
        for workload in ("wa", "wb"):
            expected += [(first, workload, seed, 2.0), (second, workload, seed, 2.0)]
    assert calls == expected
    saved = json.loads(out.read_text())
    assert (saved["seconds"], saved["seeds"], list(saved["workloads"])) == (2.0, seeds, ["wa", "wb"])
    for result in saved["workloads"].values():
        assert [p["seed"] for p in result["pairs"]] == seeds
        assert [p["first"] for p in result["pairs"]] == ["old", "new"] * 5
        assert result["summary"]["examples_per_s"]["gain"]
        assert result["summary"]["setup_s"]["wins"] == 0
    printed = capsys.readouterr().out
    assert printed.count(", 10 pairs, 2 s runs") == 2
    assert printed.count("runs incorrect or with failures: 0 of 20") == 2


@pytest.mark.parametrize("workload", [",", " ", "wa,wa"])
def test_main_refuses_an_empty_or_repeated_workload_list(workload, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit):
        bench_pairs.main(["--old", "a", "--new", "b", "--workload", workload, "--seeds", "1"])
