"""The bit-identity gate of ``tools/solver_matrix.py``: the per-input and
the batched listing print the same lines, each in the documented format,
on the main corpus, the error corpus and the large block."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

from sparsemarg import activeset

_PATH = Path(__file__).resolve().parents[1] / "tools" / "solver_matrix.py"
_SPEC = importlib.util.spec_from_file_location("solver_matrix", _PATH)
solver_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solver_matrix)

# index, kind, polytope, then the result's sha256 and counters (or the
# class name and text of the exception the solve raised)
_LINE = re.compile(r"^(\d+) (normal|ties|zeros|zeros40|nonfinite|huge|overflow) D=\d+(,b=\d+)? "
                   r"(?:[0-9a-f]{64} converged=(True|False) iterations=\d+ adds=\d+ "
                   r"drops=(\d+) refactorizations=\d+ widenings=\d+|(\w+: .+))$")


def _listing(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert solver_matrix.run_matrix(argv) == 0
    return out.getvalue().splitlines()


def test_per_input_and_batched_listings_print_the_same_lines(monkeypatch):
    monkeypatch.setattr(solver_matrix, "N_INPUTS", 96)
    monkeypatch.setattr(solver_matrix, "N_ERRORS", 64)
    monkeypatch.setattr(solver_matrix, "LARGE_ROWS", 0)
    lines = _listing([])
    assert _listing(["--rows"]) == lines
    assert len(lines) == 160
    matches = [_LINE.match(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    assert [int(m.group(1)) for m in matches] == list(range(160))
    assert [m.group(2) for m in matches] == (list(solver_matrix.KINDS) * 24
                                             + list(solver_matrix.ERROR_KINDS) * 16)
    # The main corpus's first inputs all converge, and some of them drop.
    assert all(m.group(4) == "True" for m in matches[:96])
    assert any(int(m.group(5)) > 0 for m in matches[:96])
    # The error corpus mixes solves with errors, and every non-finite
    # input raises.
    errors = {m.group(6) for m in matches[96:]}
    assert None in errors and len(errors) > 2
    assert all(m.group(6) == "ValueError: scores must be finite"
               for m in matches[96:] if m.group(2) == "nonfinite")


def test_large_block_follows_as_batches_that_evict_rows(monkeypatch):
    # The large block, cut to 64 inputs per group, follows the two corpora
    # in index order, the kinds in turn and the groups in order, and
    # prints the same lines per input and batched.  Each group's batch
    # outgrows its starting room after some of its rows have converged,
    # and so evicts them from its stack.
    monkeypatch.setattr(solver_matrix, "N_INPUTS", 8)
    monkeypatch.setattr(solver_matrix, "N_ERRORS", 8)
    monkeypatch.setattr(solver_matrix, "LARGE_ROWS", 64)
    lines = _listing([])
    evicted, advance = set(), activeset._advance_rows

    def advance_rows(sets, oracle, live):
        if sets.origin != list(range(len(sets.origin))):
            evicted.add(id(oracle))
        return advance(sets, oracle, live)

    monkeypatch.setattr(activeset, "_advance_rows", advance_rows)
    assert _listing(["--rows"]) == lines
    assert len(evicted) == len(solver_matrix.LARGE) == 4
    assert len(lines) == 16 + 256
    matches = [_LINE.match(line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    assert [int(m.group(1)) for m in matches] == list(range(272))
    block = matches[16:]
    assert [m.group(2) for m in block] == list(solver_matrix.KINDS) * 64
    assert [line.split()[2] for line in lines[16:]] == [
        label for label in ("D=40", "D=40,b=10", "D=64", "D=64,b=16") for _ in range(64)]
    assert all(m.group(4) == "True" for m in block)
