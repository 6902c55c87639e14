"""``tools/ab_rounds.py`` on one tree against itself: two rounds a side of
``categorical_sparse``, each side's own copy of the package, and nothing
left imported afterwards."""

import importlib.util
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ab_rounds", _ROOT / "tools" / "ab_rounds.py")
ab_rounds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_rounds)


def test_an_a_a_comparison_times_both_sides_and_leaves_nothing_imported(capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; this puts them back after
    path = list(sys.path)
    assert ab_rounds.main(["--old", str(_ROOT), "--new", str(_ROOT),
                           "--workload", "categorical_sparse", "--seed", "1", "--rounds", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    line = re.fullmatch(r"categorical_sparse seed 1, 2 pairs of rounds: old (\S+) s, new (\S+) s, "
                        r"old/new (\S+), new wins ([012]) of 2\n", captured.out)
    assert line is not None, captured.out
    old_s, new_s, ratio = map(float, line.groups()[:3])
    assert old_s > 0 and new_s > 0 and ratio > 0
    assert sys.path == path
    assert not [m for m in sys.modules if m.split(".")[0] in ab_rounds._MODULES]


def test_the_summary_is_medians_the_median_ratio_and_wins():
    s = ab_rounds.summary({"old": [2.0, 3.0, 4.0], "new": [1.0, 4.0, 2.0]})
    assert s == {"old_s": 3.0, "new_s": 2.0, "ratio": 2.0, "wins": 2, "pairs": 3}
