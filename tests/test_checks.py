"""Every property suite behind ``sparsemarg check``, at the CLI defaults."""

import pytest

from sparsemarg.checks import SUITES, run_suite
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
