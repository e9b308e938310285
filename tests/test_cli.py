import json

import numpy as np
import pytest

import minusord.cli
from minusord.cli import main
from minusord.linalg import ToleranceConfig
from minusord.lsq import decoupled_lss
from minusord.mmio import read_matrix, read_vector, write_matrix
from minusord.orders import order_predicate
from minusord.sums import fill_fishkind_pinv

from test_io_oracle import ref_format_matrix, ref_matrix_payload, ref_render, ref_vector_payload


@pytest.fixture
def pair_files(tmp_path):
    """A seeded minus pair on disk, via the gen subcommand itself."""
    prefix = str(tmp_path / "p_")
    assert main(["gen", "minus", "--dims", "6x5", "--ranks", "2,2",
                 "--seed", "7", "--out-prefix", prefix]) == 0
    return prefix + "A.mtx", prefix + "B.mtx", prefix + "ApB.mtx"


def test_gen_writes_three_files(pair_files):
    a, b, apb = (read_matrix(p) for p in pair_files)
    assert a.shape == (6, 5)
    assert np.allclose(a + b, apb)


def test_check_holds_exit_zero(pair_files, capsys):
    fa, fb, fs = pair_files
    assert main(["check", "minus", fa, fs]) == 0
    out = capsys.readouterr().out
    assert "minus: holds" in out
    assert "ranges: yes" in out


def test_check_fails_exit_one(pair_files, capsys):
    fa, fb, fs = pair_files
    assert main(["check", "star", fa, fs]) == 1
    out = capsys.readouterr().out
    assert "star: does not hold" in out


def test_check_json_deterministic(pair_files, capsys):
    fa, fb, fs = pair_files
    main(["check", "minus", fa, fs, "--json"])
    first = capsys.readouterr().out
    main(["check", "minus", fa, fs, "--json"])
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["result"]["holds"] is True
    assert parsed["command"] == "check"


def test_check_order_aliases(pair_files):
    fa, fb, fs = pair_files
    assert main(["check", "left-minus", fa, fs]) == 0
    assert main(["check", "left_minus", fa, fs]) == 0


def test_tol_rank_env_and_flag(pair_files, monkeypatch, capsys):
    fa, fb, fs = pair_files
    monkeypatch.setenv("MINUSORD_TOL_RANK", "0.99")
    # under an absurd cutoff A and B keep one direction each and B - A,
    # cut at the operands' scale, none, so the order holds; the env var
    # must reach the rank decisions
    assert main(["check", "minus", fa, fs, "--json"]) == 0
    ranks = json.loads(capsys.readouterr().out)["result"]["rank_data"]
    assert ranks == {"rank_A": 1, "rank_B": 1, "rank_B_minus_A": 0}
    # an explicit flag beats the environment
    assert main(["check", "minus", fa, fs, "--tol-rank", "1e-12", "--json"]) == 0
    ranks = json.loads(capsys.readouterr().out)["result"]["rank_data"]
    assert ranks == {"rank_A": 2, "rank_B": 4, "rank_B_minus_A": 2}


def test_pinv_sum_writes_result(pair_files, tmp_path, capsys):
    fa, fb, fs = pair_files
    out = str(tmp_path / "pinv.mtx")
    assert main(["pinv-sum", fa, fb, "--out", out]) == 0
    capsys.readouterr()
    got = read_matrix(out)
    want = np.linalg.pinv(read_matrix(fs))
    assert np.allclose(got, want, atol=1e-8)


def test_pinv_sum_stdout_matrix(pair_files, capsys):
    fa, fb, fs = pair_files
    assert main(["pinv-sum", fa, fb]) == 0
    out = capsys.readouterr().out
    assert out.startswith("%%MatrixMarket")


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("command", ["pinv-sum", "lsq"])
def test_order_failure_one_path(tmp_path, capsys, command, json_mode):
    # both constructions report a failing order through main's one handler
    rng = np.random.default_rng(3)
    files = [str(tmp_path / name) for name in ("a.mtx", "b.mtx", "c.mtx")]
    for path, cols in zip(files, (4, 4, 1)):
        write_matrix(path, rng.standard_normal((4, cols)).astype(complex))
    argv = [command] + files[:3 if command == "lsq" else 2] + (["--json"] if json_mode else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    if json_mode:
        payload = json.loads(captured.out)
        assert payload["command"] == command
        assert "left-minus" in payload["error"]
        assert payload["result"]["order"] == "left_minus"
        assert captured.err == ""
    else:
        assert captured.err.startswith("error: ") and "left-minus" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("json_mode", [False, True])
def test_deferred_error_of_an_order_failure_exits_two(tmp_path, monkeypatch, capsys, json_mode):
    # the failure report computes its cross-checks while it is rendered; an
    # error there exits 2 with nothing on stdout, as when the check raised it
    def failing(*args):
        raise ValueError("matrix is not idempotent")

    monkeypatch.setattr("minusord.orders._projection_ok", failing)
    rng = np.random.default_rng(3)
    files = [str(tmp_path / name) for name in ("a.mtx", "b.mtx")]
    for path in files:
        write_matrix(path, rng.standard_normal((4, 4)).astype(complex))
    assert main(["pinv-sum"] + files + (["--json"] if json_mode else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: matrix is not idempotent\n"
    assert captured.out == ""


def test_pinv_sum_linalg_error_exit_two(pair_files, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("minusord.cli.fill_fishkind_pinv", failing)
    fa, fb, _ = pair_files
    assert main(["pinv-sum", fa, fb]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: SVD did not converge\n"
    assert "Traceback" not in captured.out + captured.err


def test_lsq_runs(pair_files, tmp_path, capsys):
    fa, fb, fs = pair_files
    rng = np.random.default_rng(0)
    fc = str(tmp_path / "c.mtx")
    write_matrix(fc, rng.standard_normal((6, 1)).astype(complex))
    assert main(["lsq", fa, fb, fc, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["result"]["x_joint"]) == 5
    assert all(v < 1e-6 for v in payload["result"]["residuals"].values())


def test_missing_file_exit_two(capsys):
    assert main(["check", "minus", "nope.mtx", "also-nope.mtx"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_order_exit_two(pair_files, capsys):
    fa, fb, fs = pair_files
    assert main(["check", "loewner", fa, fs]) == 2
    assert "unknown order" in capsys.readouterr().err


def test_shape_mismatch_exit_two(pair_files, capsys):
    fa, fb, fs = pair_files
    assert main(["check", "sharp", fa, fs]) == 2
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_residual_tolerance_exit_two(pair_files, capsys, value):
    # every residual compared against NaN would fail silently: exit 2, not 1
    fa, fb, fs = pair_files
    assert main(["check", "star", fa, fs, "--tol-residual", value]) == 2
    captured = capsys.readouterr()
    assert "residual_atol" in captured.err and captured.out == ""


def test_gen_rejects_bad_arguments(tmp_path, capsys):
    prefix = str(tmp_path / "x_")
    assert main(["gen", "minus", "--dims", "4", "--ranks", "1,1",
                 "--out-prefix", prefix]) == 2
    assert main(["gen", "minus", "--dims", "4x4", "--ranks", "3,3",
                 "--out-prefix", prefix]) == 2
    assert main(["gen", "sharp", "--dims", "4x5", "--ranks", "1,1",
                 "--out-prefix", prefix]) == 2
    capsys.readouterr()


def test_gen_sharp_square(tmp_path):
    prefix = str(tmp_path / "s_")
    assert main(["gen", "sharp", "--dims", "5x5", "--ranks", "2,1",
                 "--seed", "3", "--out-prefix", prefix]) == 0
    assert main(["check", "sharp", prefix + "A.mtx", prefix + "ApB.mtx"]) == 0


def test_gen_deterministic_bytes(tmp_path):
    one = str(tmp_path / "one_")
    two = str(tmp_path / "two_")
    for prefix in (one, two):
        assert main(["gen", "star", "--dims", "5x4", "--ranks", "1,2",
                     "--seed", "11", "--out-prefix", prefix]) == 0
    for name in ("A.mtx", "B.mtx", "ApB.mtx"):
        with open(one + name, "rb") as f1, open(two + name, "rb") as f2:
            assert f1.read() == f2.read()


def _spy(monkeypatch, name):
    """The argument tuples of every call to ``minusord.cli.<name>``."""
    calls = []
    real = getattr(minusord.cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(minusord.cli, name, spy)
    return calls


@pytest.fixture
def lsq_files(pair_files, tmp_path):
    fc = str(tmp_path / "c.mtx")
    write_matrix(fc, np.random.default_rng(0).standard_normal((6, 1)).astype(complex))
    return pair_files[0], pair_files[1], fc


def test_pinv_sum_json_formats_no_matrix(pair_files, monkeypatch, capsys):
    calls = _spy(monkeypatch, "format_matrix")
    fa, fb, _ = pair_files
    assert main(["pinv-sum", fa, fb, "--json"]) == 0
    assert calls == []
    assert main(["pinv-sum", fa, fb]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_text_check_builds_no_report_payload(pair_files, monkeypatch, capsys):
    calls = _spy(monkeypatch, "order_report_payload")
    fa, _, fs = pair_files
    assert main(["check", "minus", fa, fs]) == 0
    assert main(["check", "star", fa, fs]) == 1
    assert calls == []
    assert main(["check", "minus", fa, fs, "--json"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_json_runs_format_no_text_pairs(lsq_files, tmp_path, monkeypatch, capsys):
    calls = _spy(monkeypatch, "_format_pairs")
    fa, fb, fc = lsq_files
    prefix = str(tmp_path / "g_")
    for argv in (["check", "minus", fa, fb], ["pinv-sum", fa, fb], ["lsq", fa, fb, fc],
                 ["gen", "minus", "--dims", "4x3", "--ranks", "1,1", "--out-prefix", prefix]):
        assert main(argv + ["--json"]) in (0, 1)
    assert calls == []
    assert main(["lsq", fa, fb, fc]) == 0
    assert len(calls) == 2
    capsys.readouterr()


def _inputs(**files):
    return {name: {"path": path, "shape": [rows, cols]}
            for name, (path, rows, cols) in files.items()}


def _tolerance(tol):
    return {"rank_rtol": tol.rank_rtol, "residual_atol": tol.residual_atol,
            "angle_gap": tol.angle_gap}


def _check_outputs(order, fa, fb):
    """The text and the JSON payload of ``check`` from the public report."""
    tol = ToleranceConfig()
    a, b = read_matrix(fa), read_matrix(fb)
    rep = order_predicate(order)(a, b, tol)
    verdict = "holds" if rep.holds else "does not hold"
    text = [f"{rep.order_name}: {verdict}"]
    text += [f"  {k}: {'yes' if v else 'no'}"
             for k, v in sorted(rep.characterization_verdicts.items())]
    text += [f"  warning: {flag}" for flag in rep.boundary_flags]

    def witness(projection):
        return None if projection is None else ref_matrix_payload(projection.matrix)

    payload = {
        "command": "check",
        "inputs": _inputs(A=(fa, *a.shape), B=(fb, *b.shape)),
        "tolerance": _tolerance(tol),
        "result": {
            "order": rep.order_name,
            "holds": rep.holds,
            "verdicts": dict(rep.characterization_verdicts),
            "rank_data": {"rank_A": rep.rank_data.rank_a, "rank_B": rep.rank_data.rank_b,
                          "rank_B_minus_A": rep.rank_data.rank_diff},
            "witness_P": witness(rep.witness_p),
            "witness_Q": witness(rep.witness_q),
            "boundary_flags": list(rep.boundary_flags),
        },
        "boundary_flags": list(rep.boundary_flags),
    }
    return (0 if rep.holds else 1), "\n".join(text) + "\n", payload


def _pinv_sum_outputs(fa, fb):
    tol = ToleranceConfig()
    a, b = read_matrix(fa), read_matrix(fb)
    result = fill_fishkind_pinv(a, b, tol)
    payload = {
        "command": "pinv-sum",
        "inputs": _inputs(A=(fa, *a.shape), B=(fb, *b.shape)),
        "tolerance": _tolerance(tol),
        "result": {"pinv_sum": ref_matrix_payload(result)},
        "boundary_flags": [],
    }
    return 0, ref_format_matrix(result), payload


def _lsq_outputs(fa, fb, fc):
    tol = ToleranceConfig()
    a, b, c = read_matrix(fa), read_matrix(fb), read_vector(fc)
    result = decoupled_lss(a, b, c, tol)
    text = ["x_joint:"]
    text += [f"  {z.real!r} {z.imag!r}" for z in map(complex, result.x_joint)]
    text.append("x_system:")
    text += [f"  {z.real!r} {z.imag!r}" for z in map(complex, result.x_system)]
    text += [f"residual {k}: {v:.3e}" for k, v in sorted(result.residuals.items())]
    payload = {
        "command": "lsq",
        "inputs": _inputs(A=(fa, *a.shape), B=(fb, *b.shape), c=(fc, c.shape[0], 1)),
        "tolerance": _tolerance(tol),
        "result": {
            "x_joint": ref_vector_payload(result.x_joint),
            "x_system": ref_vector_payload(result.x_system),
            "weight": ref_matrix_payload(result.weight.matrix),
            "residuals": result.residuals,
        },
        "boundary_flags": [],
    }
    return 0, "\n".join(text) + "\n", payload


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("command", ["check minus", "check star", "pinv-sum", "lsq", "gen"])
def test_stdout_matches_reference_outputs(lsq_files, tmp_path, capsys, command, json_mode):
    # every subcommand in both modes prints what the public results give:
    # per-entry reference text, or ref_render of a payload of nested lists
    fa, fb, fc = lsq_files
    fs = fa.replace("A.mtx", "ApB.mtx")
    if command.startswith("check"):
        order = command.split()[1]
        argv = ["check", order, fa, fs]
        code, text, payload = _check_outputs(order, fa, fs)
    elif command == "pinv-sum":
        argv = ["pinv-sum", fa, fb]
        code, text, payload = _pinv_sum_outputs(fa, fb)
    elif command == "lsq":
        argv = ["lsq", fa, fb, fc]
        code, text, payload = _lsq_outputs(fa, fb, fc)
    else:
        prefix = str(tmp_path / "g_")
        argv = ["gen", "minus", "--dims", "6x5", "--ranks", "2,2", "--seed", "7",
                "--out-prefix", prefix]
        files = [f"{prefix}{name}.mtx" for name in ("A", "B", "ApB")]
        code, text = 0, "".join(f"wrote {path}\n" for path in files)
        payload = {"command": "gen", "kind": "minus", "dims": [6, 5], "ranks": [2, 2],
                   "seed": 7, "files": files}
    assert main(argv + (["--json"] if json_mode else [])) == code
    out = capsys.readouterr().out
    assert out == (ref_render(payload) + "\n" if json_mode else text)
