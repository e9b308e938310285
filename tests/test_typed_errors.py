"""Malformed input raises a typed error with its message, and the CLI
exits 2 on it.

One table: each case is a call and the exception type and message it
must raise.  A CLI case is an argument list, with the files it reads
written to a work directory first; its command must raise the error, and
``minusord`` must exit 2 with ``error:`` and the message on stderr, and
no traceback.
"""

import re

import numpy as np
import pytest

from minusord.cli import _COMMANDS, build_parser, main
from minusord.exceptions import GroupInvertibilityError
from minusord.generate import minus_pair
from minusord.geninv import is_group_invertible, reflexive_inverse
from minusord.linalg import range_contains
from minusord.lsq import Weight, decoupled_lss, solve_system, wlss_solve
from minusord.mmio import parse_matrix
from minusord.reporting import canonical_json
from minusord.subspaces import Projection, Subspace
from minusord.sums import agreeing_split, ordered_inverse_additivity

A, B = minus_pair(7, 4, 3, 1, 2)
E1 = Subspace(np.eye(4, dtype=complex)[:, :1])
HEADER = "%%MatrixMarket matrix array real general"


def _mtx(field, value):
    return f"%%MatrixMarket matrix array {field} general\n1 1\n{value}\n"


CASES = [
    # CLI: argv, the files it reads, and the error its command raises
    pytest.param((["gen", "minus", "--dims", "0x3", "--ranks", "1,1"], {}),
                 ValueError, "dims must be positive", id="cli-gen-dims"),
    pytest.param((["gen", "minus", "--dims", "3x3", "--ranks", "1,2,3"], {}),
                 ValueError, "malformed ranks '1,2,3'; expected r1,r2", id="cli-gen-ranks"),
    pytest.param((["check", "minus", "a.mtx", "b.mtx"],
                  {"a.mtx": _mtx("pattern", 1), "b.mtx": _mtx("real", 1)}),
                 ValueError, "unsupported field 'pattern'", id="cli-check-pattern"),
    pytest.param((["check", "minus", "a.mtx", "b.mtx"],
                  {"a.mtx": _mtx("real", 1e308), "b.mtx": _mtx("real", -1e308)}),
                 ValueError, "B - A contains non-finite entries", id="cli-check-overflow"),
    # calls
    pytest.param(lambda: parse_matrix("%%MatrixMarket matrix array real\n1 1\n1\n"),
                 ValueError, "malformed Matrix Market header", id="mmio-header"),
    pytest.param(lambda: parse_matrix(_mtx("pattern", 1)),
                 ValueError, "unsupported field 'pattern'", id="mmio-pattern"),
    pytest.param(lambda: parse_matrix(f"{HEADER}\n% no size line\n\n"),
                 ValueError, "missing size line", id="mmio-size-line"),
    pytest.param(lambda: Weight(np.ones((2, 3))).validate(),
                 ValueError, "weight must be square", id="lsq-weight-square"),
    pytest.param(lambda: solve_system(A, B, np.ones(3), np.ones(4)),
                 ValueError, "right-hand side length mismatch", id="lsq-solve-system"),
    pytest.param(lambda: wlss_solve(A, np.ones(3), np.eye(4)),
                 ValueError, "right-hand side length mismatch", id="lsq-wlss"),
    pytest.param(lambda: decoupled_lss(A, B, np.ones(3)),
                 ValueError, "right-hand side length mismatch", id="lsq-decoupled"),
    pytest.param(lambda: reflexive_inverse(A, E1, E1),
                 ValueError, "ambient mismatch", id="geninv-reflexive"),
    pytest.param(lambda: is_group_invertible(np.ones((2, 3))),
                 ValueError, "square matrix required", id="geninv-group-square"),
    pytest.param(lambda: range_contains(np.ones((3, 2)), np.ones((4, 2))),
                 ValueError, "row counts differ", id="linalg-range-contains"),
    pytest.param(lambda: Subspace(np.zeros((0, 0))),
                 ValueError, "ambient dimension must be positive", id="subspace-empty"),
    pytest.param(lambda: Subspace(np.ones((2, 3))),
                 ValueError, "more basis vectors than the ambient dimension", id="subspace-wide"),
    pytest.param(lambda: E1.contains_vector(np.ones(3)),
                 ValueError, "ambient mismatch", id="subspace-contains-vector"),
    pytest.param(lambda: Projection(np.ones((4, 3)), E1, E1),
                 ValueError, "projection matrix must be square", id="projection-square"),
    pytest.param(lambda: agreeing_split(A, B, E1, E1),
                 ValueError, "ambient mismatch", id="sums-agreeing-split"),
    pytest.param(lambda: ordered_inverse_additivity(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                                    np.eye(2), kind="core"),
                 GroupInvertibilityError, "A is not group invertible", id="sums-core-nilpotent"),
    pytest.param(lambda: canonical_json(np.zeros(2)),
                 TypeError, "cannot serialize float64 arrays deterministically",
                 id="reporting-float64"),
]


@pytest.mark.parametrize("case, error, message", CASES)
def test_malformed_input_raises_a_typed_error(case, error, message, tmp_path, monkeypatch,
                                              capsys):
    if callable(case):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            case()
        return
    argv, files = case
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = build_parser().parse_args(argv)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _COMMANDS[args.command](args)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {message}\n")
    assert "Traceback" not in captured.err and captured.out == ""
