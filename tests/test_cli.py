import json

import numpy as np
import pytest

from minusord.cli import main
from minusord.mmio import read_matrix, write_matrix


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
