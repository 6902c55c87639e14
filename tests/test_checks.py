"""Every property suite behind ``sparsemarg check``: at the CLI defaults,
and at small trial counts over many seeds."""

import math

import pytest

from sparsemarg.checks import SUITES, _result, run_suite
from sparsemarg.cli import _build_parser


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_property_suite_passes_at_cli_defaults(suite):
    args = _build_parser().parse_args(["check", suite])
    assert (args.trials, args.seed) == (200, 0)
    results = run_suite(suite, args.trials, args.seed)
    assert results
    failed = ["%s (%d/%d, worst %.3g)" % (r.name, r.passes, r.trials, r.worst_error)
              for r in results if not r.ok]
    assert not failed


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_property_runs_at_any_trial_count(suite):
    # Each property gets at least one trial whatever the seed and the
    # trial count: the marginal suite builds a full-support and a split
    # case in every trial, and each score batch carries a row that every
    # vjp and certificate property can check.
    for trials in (1, 2, 5):
        for seed in range(20):
            results = run_suite(suite, trials, seed)
            assert results
            assert all(r.trials >= 1 for r in results), (trials, seed)


def test_a_property_without_trials_fails():
    empty = _result("never run", [], 1.0)
    assert (empty.trials, empty.passes) == (0, 0)
    assert math.isnan(empty.worst_error)
    assert not empty.ok
    assert _result("run once", [0.5], 1.0).ok
