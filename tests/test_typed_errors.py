"""Malformed input raises a typed error with its message, and the CLI
exits 2 on it.

One table: each case is a call and the exception type and message it
must raise.  A CLI case is an argument list, with the files it reads
written to a work directory first; its command must raise the error, and
``minusord`` must exit 2 with ``error:`` and the message on stderr, and
no traceback, and issue no warning.

A second table holds one valid call of each public function that takes
a ``tol`` or a Subspace: a ``tol`` of None, a float or a string, and an
array of basis columns where a Subspace is expected, each raise
TypeError, and a library call whose A + B overflows warns no more than
the CLI does.
"""

import inspect
import re
import warnings

import numpy as np
import pytest

import minusord
from minusord.cli import _COMMANDS, build_parser, main
from minusord.exceptions import GroupInvertibilityError
from minusord.generate import minus_pair, star_pair
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
    pytest.param((["pinv-sum", "a.mtx", "a.mtx"], {"a.mtx": _mtx("real", 1e308)}),
                 ValueError, "A + B contains non-finite entries", id="cli-pinv-overflow"),
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {message}\n")
    assert "Traceback" not in captured.err and captured.out == ""


SA, SB = star_pair(7, 4, 4, 1, 2)
_rng = np.random.default_rng(3)
# complements of R(A + B) and N(A + B), and of N(A) and R(A), of dimensions
# 1 and 3, and 1 and 3
_M, _N, _RANGE, _NULL = (Subspace.from_span(_rng.standard_normal((4, k)) + 0j)
                         for k in (1, 3, 1, 3))
_X = _rng.standard_normal(4) + 0j
_S1, _S2 = Subspace(np.eye(4, dtype=complex)[:, :1]), Subspace(np.eye(4, dtype=complex)[:, 1:3])

#: One valid call of each public function with a ``tol`` or a Subspace
#: parameter, by keyword.
VALID = {
    **{name: {"A": SA} for name in ("numerical_rank", "range_basis", "null_basis", "pinv",
                                    "is_group_invertible", "group_inverse", "core_inverse")},
    "range_contains": {"B": SA + SB, "A": SA},
    **{name: {"m_space": _S1, "n_space": _S2}
       for name in ("subspace_sum", "intersect", "ominus", "is_direct_sum", "subspace_equal",
                    "minimal_angle_cos", "angle_equivalences")},
    "orthogonal_projection": {"m_space": _S1},
    "oblique_projection": {"m_space": _M, "n_space": _N},
    **{name: {"A": SA, "B": SB}
       for name in ("is_range_additive", "disjoint_range_additivity", "kernel_characterization",
                    "build_split", "fill_fishkind_pinv", "st_projections")},
    **{name: {"A": SA, "B": SA + SB}
       for name in ("minus_order", "left_minus_order", "right_minus_order", "star_order",
                    "left_star_order", "right_star_order", "sharp_order", "core_order",
                    "weak_minus_order", "inner_inverse_witness")},
    "reflexive_inverse": {"A": SA, "range_space": _RANGE, "nullspace": _NULL},
    **{name: {"A": SA, "B": SB, "range_complement": _M, "kernel_complement": _N}
       for name in ("agreeing_split", "sum_reflexive_inverse", "werner_decomposition")},
    "ordered_inverse_additivity": {"A": SA, "B": SB, "kind": "moore_penrose"},
    "solve_system": {"A": SA, "B": SB, "a": SA @ _X, "b": SB @ _X},
    "wlss_solve": {"C": SA, "y": _X, "w": np.eye(4)},
    "decoupled_lss": {"A": SA, "B": SB, "c": _X},
}


def _signatures():
    """The public functions of ``minusord`` with their parameters."""
    for name in minusord.__all__:
        obj = getattr(minusord, name)
        if inspect.isfunction(obj):
            yield name, inspect.signature(obj).parameters


TOLERANT = sorted(name for name, params in _signatures() if "tol" in params)
SPACES = sorted((name, param) for name, params in _signatures()
                for param, p in params.items() if "Subspace" in str(p.annotation))


def test_every_typed_public_function_has_a_valid_call():
    # the table covers each function the walks below reach, and each of its
    # calls passes, so a TypeError below comes from the one bad argument
    assert sorted(VALID) == sorted({*TOLERANT, *(name for name, _ in SPACES)})
    for name, kwargs in VALID.items():
        getattr(minusord, name)(**kwargs)


@pytest.mark.parametrize("bad", [None, 1e-8, "x"], ids=["None", "float", "str"])
@pytest.mark.parametrize("name", TOLERANT)
def test_a_tolerance_of_the_wrong_type_raises_type_error(name, bad):
    message = f"^tol must be a ToleranceConfig, not {type(bad).__name__}$"
    with pytest.raises(TypeError, match=message):
        getattr(minusord, name)(**VALID[name], tol=bad)


@pytest.mark.parametrize("name, param", SPACES)
def test_an_array_for_a_subspace_raises_type_error(name, param):
    # the basis of the Subspace the call expects, or of a one-dimensional
    # one for an optional parameter
    kwargs = dict(VALID[name])
    kwargs[param] = kwargs[param].basis if param in kwargs else _S1.basis
    with pytest.raises(TypeError, match=f"^{param} must be a Subspace, not ndarray$"):
        getattr(minusord, name)(**kwargs)


@pytest.mark.parametrize("call", [
    lambda: minusord.fill_fishkind_pinv([[1e308]], [[1e308]]),
    lambda: minusord.decoupled_lss([[1e308]], [[1e308]], [1.0]),
], ids=["fill_fishkind_pinv", "decoupled_lss"])
def test_a_construction_whose_sum_overflows_warns_nothing(call):
    # the sum is formed with the overflow ignored, and reported as the
    # ValueError alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^A \\+ B contains non-finite entries$"):
            call()
