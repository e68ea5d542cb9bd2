"""CLI behaviour: commands, exit codes, reproducible JSON reports."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import pytest

from qmm.cli import COMMANDS, EXIT_BROKEN_PIPE, EXIT_CODES, EXIT_INTERNAL_ERROR, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_exact_passes():
    code, out, _ = run(["verify", "--n", "2", "--degree", "4", "--params", "multi", "--mode", "exact"])
    assert code == 0
    assert "pass=True" in out


def test_verify_n1_free_telescoping():
    code, out, _ = run(["verify", "--n", "1", "--degree", "10", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(r["residual_terms_before_reduction"] == 0 for r in report["results"])


def test_verify_degree_zero():
    code, out, _ = run(["verify", "--n", "2", "--degree", "0", "--output", "json"])
    assert code == 0
    assert json.loads(out)["results"][0]["degree"] == 0


def test_qdet_single_parameter_rendering():
    code, out, _ = run(["qdet", "--n", "2", "--subset", "1,2", "--params", "single"])
    assert code == 0
    assert "z11*z22 - q^-1*z21*z12" in out


def test_qdet_singleton():
    code, out, _ = run(["qdet", "--n", "3", "--subset", "2"])
    assert code == 0
    assert "z22" in out


def test_qdet_subset_parameters():
    code, out, _ = run(["qdet", "--n", "3", "--subset", "1,3", "--params", "multi"])
    assert code == 0
    assert "q13" in out and "q12" not in out and "q23" not in out


def test_qdet_out_of_range_subset_usage_error():
    code, _, err = run(["qdet", "--n", "2", "--subset", "1,5"])
    assert code == 2
    assert "subset" in err


def test_koszul_single_ell():
    code, out, _ = run(["koszul", "--n", "2", "--ell", "3", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    entry = report["results"][0]
    assert all(h == 0 for h in entry["homology"])
    assert entry["d_squared_zero"] is True


def test_koszul_n1():
    code, _, _ = run(["koszul", "--n", "1", "--ell", "5"])
    assert code == 0


def test_koszul_has_no_draws_to_run_out_of():
    # n = 8 has 28 parameters, more than the 24 odd primes a draw would need
    code, out, _ = run(["koszul", "--n", "8", "--degree", "2", "--output", "json"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_twisted_passes():
    code, _, _ = run(["twisted", "--n", "2", "--degree", "3"])
    assert code == 0


def test_twisted_n1_matches_untwisted():
    code, out, _ = run(["twisted", "--n", "1", "--degree", "5", "--output", "json"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_twisted_rejects_multiparameter():
    # twisted always runs in one-parameter mode, so it has no --params
    code, _, err = run(["twisted", "--n", "2", "--params", "multi"])
    assert code == 2
    assert "unrecognized arguments: --params" in err


def test_koszul_takes_ell_or_degree_not_both():
    code, out, err = run(["koszul", "--n", "2", "--ell", "2", "--degree", "3", "--output", "json"])
    assert code == 2 and out == ""
    assert "not allowed with" in err


def test_classical_identity_matrix(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, _, _ = run(["classical", "--matrix", str(path), "--degree", "6"])
    assert code == 0


def test_classical_swap_matrix(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["0", "1"], ["1", "0"]]))
    code, _, _ = run(["classical", "--matrix", str(path), "--degree", "6"])
    assert code == 0


def test_classical_random_seeded():
    code, out, _ = run(
        ["classical", "--random", "20", "--n", "3", "--degree", "6", "--seed", "7", "--output", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 20


def test_classical_bad_matrix_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[[1, 2], [3]]")
    code, _, err = run(["classical", "--matrix", str(path)])
    assert code == 2
    assert "matrix must be square" in err


@pytest.mark.parametrize("data", [["12", "34"], {"12": 0, "34": 0}, "1234", [[1, 2], "34"], [[1, 2], {"3": 4}]])
def test_classical_matrix_must_be_an_array_of_arrays(tmp_path, data):
    # strings and objects iterate, so without a shape check "12" would read as the row [1, 2]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["classical", "--matrix", str(path), "--output", "json"])
    assert code == 2 and out == ""
    assert "array of JSON arrays" in err


def test_classical_requires_exactly_one_source():
    code, _, _ = run(["classical", "--n", "2"])
    assert code == 2


def test_json_reports_are_byte_identical():
    argv = ["verify", "--n", "2", "--degree", "3", "--seed", "5", "--output", "json"]
    assert run(argv) == run(argv)
    argv = ["koszul", "--n", "2", "--ell", "2", "--seed", "1", "--output", "json"]
    assert run(argv) == run(argv)


def test_json_schema():
    code, out, _ = run(["verify", "--n", "2", "--degree", "2", "--output", "json"])
    report = json.loads(out)
    assert set(report) == {"command", "config", "results", "pass"}
    assert report["command"] == "verify"
    assert report["config"]["n"] == 2


def test_missing_subcommand_is_usage_error():
    code, _, _ = run([])
    assert code == 2


def test_numeric_mode_requires_assignment():
    code, _, err = run(["verify", "--n", "2", "--params", "numeric"])
    assert code == 2
    assert "q-assign" in err and "q_12" in err


def test_numeric_mode_with_no_parameters_needs_no_assignment():
    # n = 1 has no q_ij, so there is nothing to assign
    code, out, _ = run(["verify", "--n", "1", "--params", "numeric", "--output", "json"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_numeric_mode_verify():
    code, out, _ = run(
        ["verify", "--n", "2", "--degree", "3", "--params", "numeric", "--q-assign", "1,2=2", "--output", "json"]
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "assign, named",
    [("1,2=2;1,3=5", "(1, 3)"), ("1,2=2;2,1=5", "(2, 1)"), ("1,2=2;0,7=1", "(0, 7)"), ("1,2=2;1,2=3", "q_1,2")],
)
def test_q_assign_rejects_what_is_not_one_value_per_parameter(assign, named):
    code, out, err = run(["verify", "--n", "2", "--degree", "2", "--params", "numeric", "--q-assign", assign])
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("params", ["multi", "single"])
def test_q_assign_needs_numeric_params(params):
    code, _, err = run(["koszul", "--n", "2", "--degree", "2", "--params", params, "--q-assign", "1,2=2"])
    assert code == 2
    assert "--params numeric" in err


def test_negative_classical_degree_is_usage_error():
    code, out, err = run(["classical", "--random", "2", "--degree", "-1", "--output", "json"])
    assert code == 2
    assert out == "" and "degree" in err


def test_nonpositive_random_count_is_usage_error():
    code, out, err = run(["classical", "--random", "0", "--n", "2", "--output", "json"])
    assert code == 2
    assert out == "" and "random" in err


def test_verify_has_no_draws_to_run_out_of():
    # n = 8 has 28 parameters, more than the 24 odd primes a draw would need;
    # membership is exact, so the default mode passes
    code, out, _ = run(["verify", "--n", "8", "--degree", "2", "--output", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert [r["pass"] for r in report["results"]] == [True] * 3
    assert report["config"]["mode"] == "exact" and "seeds" not in report["config"]


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("n", ["1", "2"])
@pytest.mark.parametrize("command", ["verify", "twisted", "koszul"])
def test_no_command_takes_a_seed_count(command, n, count):
    # nothing is drawn, so a draw count is an option no command has
    code, out, err = run([command, "--n", n, "--degree", "2", "--seeds", count])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seeds" in err


@pytest.mark.parametrize("command", ["verify", "twisted"])
def test_specialize_is_not_a_mode(command):
    code, out, err = run([command, "--n", "2", "--degree", "2", "--mode", "specialize", "--output", "json"])
    assert code == 2 and out == ""
    assert "invalid choice: 'specialize'" in err


def test_n_beyond_byte_letters_is_usage_error():
    code, out, err = run(["verify", "--n", "17", "--params", "single", "--degree", "2"])
    assert code == 2
    assert out == "" and "16" in err


def test_koszul_specialize_requires_at_least_one_seed():
    # koszul certifies exactness with no specialization draws, so it takes no seed count
    code, out, err = run(["koszul", "--n", "2", "--ell", "2", "--seeds", "0"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seeds" in err


def test_internal_defect_is_not_a_usage_error(monkeypatch):
    from qmm.param_ring import ModeMismatchError

    def broken(*args, **kwargs):
        raise ModeMismatchError("scalars over different parameter modes")

    # main must not report it as exit 2: it exits EXIT_INTERNAL_ERROR with
    # its traceback on stderr
    monkeypatch.setattr("qmm.cli.verify_master", broken)
    code, out, err = run(["verify", "--n", "2", "--degree", "2"])
    assert code == EXIT_INTERNAL_ERROR and out == ""
    assert "Traceback" in err and "ModeMismatchError: scalars over different parameter modes" in err


def test_a_command_that_raises_exits_with_no_verdict(monkeypatch):
    # a MemoryError, as from `koszul --degree 100000000000` building its
    # list of degrees, is an internal error and never a verdict (0, 1, 3)
    # or a usage error (2)
    def broken(args):
        raise MemoryError

    monkeypatch.setattr("qmm.cli.cmd_koszul", broken)
    code, out, err = run(["koszul", "--n", "2"])
    assert code == EXIT_INTERNAL_ERROR
    assert EXIT_INTERNAL_ERROR not in [*EXIT_CODES.values(), 2, EXIT_BROKEN_PIPE]
    assert out == "" and "Traceback" in err and "MemoryError" in err


CLASSICAL = ["classical", "--random", "1", "--n", "2", "--degree", "2"]
QDET = ["qdet", "--n", "2", "--subset", "1,2"]
KOSZUL = ["koszul", "--n", "2", "--degree", "2"]
TWISTED = ["twisted", "--n", "2", "--degree", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        CLASSICAL + ["--params", "single"],
        CLASSICAL + ["--params", "numeric", "--q-assign", "1,2=5"],
        CLASSICAL + ["--mode", "exact"],
        CLASSICAL + ["--seeds", "0"],
        QDET + ["--mode", "exact"],
        QDET + ["--seed", "3"],
        QDET + ["--seeds", "2"],
        KOSZUL + ["--mode", "exact"],
        TWISTED + ["--params", "single"],
        TWISTED + ["--q-assign", "1,2=2"],
    ],
)
def test_options_a_command_never_reads_are_usage_errors(argv):
    code, out, err = run(argv + ["--output", "json"])
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (CLASSICAL + ["--seed", "4"], {"n", "degree", "random", "seed"}),
        (QDET + ["--params", "single"], {"n", "params", "subset"}),
        (KOSZUL, {"n", "params", "degree", "seed"}),
        (["verify", "--n", "2", "--degree", "2"], {"n", "params", "mode", "seed", "degree"}),
        (TWISTED, {"n", "mode", "seed", "degree"}),
        (["koszul", "--n", "2", "--ell", "2"], {"n", "params", "ell", "seed"}),
        (["koszul", "--n", "2"], {"n", "params", "degree", "seed"}),
    ],
)
def test_config_echoes_exactly_the_options_the_command_has(argv, keys):
    code, out, _ = run(argv + ["--output", "json"])
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == keys and None not in config.values()


def _false_identity(*args):
    entry = {"degree": 0, "residual_terms_before_reduction": 1, "twist_weights_match_torus": True, "pass": False}
    return {"results": [entry], "pass": False}


def _false(*args):
    return False


@pytest.mark.parametrize(
    "argv, target, fake",
    [
        (["verify", "--n", "2", "--degree", "2"], "qmm.cli.verify_master", _false_identity),
        (TWISTED, "qmm.cli.verify_twisted", _false_identity),
        (KOSZUL, "qmm.koszul.composites_vanish", _false),
        (CLASSICAL, "qmm.cli.classical_check", _false),
    ],
    ids=["verify", "twisted", "koszul", "classical"],
)
def test_a_false_verdict_exits_1(monkeypatch, argv, target, fake):
    monkeypatch.setattr(target, fake)
    code, out, _ = run(argv + ["--output", "json"])
    assert code == 1
    assert json.loads(out)["pass"] is False


TEXT_REPORTS = {
    "verify --n 2 --degree 2": [
        "[verify] pass=True",
        "degree 0: residual_terms=0 pass=True",
        "degree 1: residual_terms=0 pass=True",
        "degree 2: residual_terms=4 pass=True",
    ],
    "qdet --n 2 --subset 1,2": ["[qdet] pass=True", "z11*z22 - q12^-1*z21*z12"],
    "koszul --n 2 --degree 2": [
        "[koszul] pass=True",
        "ell 1: dims=[2, 2] homology=[0, 0] d2=0:True conclusive=True",
        "ell 2: dims=[1, 4, 3] homology=[0, 0, 0] d2=0:True conclusive=True",
    ],
    "twisted --n 2 --degree 2": [
        "[twisted] pass=True",
        "degree 0: residual_terms=0 weights_match=True pass=True",
        "degree 1: residual_terms=0 weights_match=True pass=True",
        "degree 2: residual_terms=4 weights_match=True pass=True",
    ],
    "classical --random 2 --n 2 --degree 2 --seed 1": [
        "[classical] pass=True",
        "matrix 0: pass=True",
        "matrix 1: pass=True",
    ],
}


@pytest.mark.parametrize("argv", sorted(TEXT_REPORTS))
def test_text_output_is_unchanged(argv):
    code, out, err = run(argv.split())
    assert code == 0 and err == ""
    assert out.splitlines() == TEXT_REPORTS[argv]


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["1", "2"], ["3", "4"]]))
    return str(path)


def test_classical_matrix_rejects_another_n(matrix_file):
    code, out, err = run(["classical", "--matrix", matrix_file, "--n", "5", "--output", "json"])
    assert code == 2 and out == ""
    assert "--n 5" in err


@pytest.mark.parametrize("seed", ["0", "3"])
def test_classical_matrix_rejects_a_seed(matrix_file, seed):
    # nothing is drawn for a given matrix, so a seed would be echoed and never read
    code, out, err = run(["classical", "--matrix", matrix_file, "--seed", seed, "--output", "json"])
    assert code == 2 and out == ""
    assert "--seed" in err


def test_classical_matrix_config_has_its_size_and_no_seed(matrix_file):
    code, out, _ = run(["classical", "--matrix", matrix_file, "--n", "2", "--degree", "3", "--output", "json"])
    assert code == 0
    assert json.loads(out)["config"] == {"degree": 3, "matrix": matrix_file, "n": 2}


def parse_with_every_command(argv):
    """(exit code, stdout, stderr) of the parser of all five commands on
    ``argv``, for argv that the parser itself ends."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    return int(exc.value.code or 0), out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["verify", "-h"],
        ["koszul", "-h"],
        [],
        ["bogus"],
        ["verify", "--bogus"],
        ["koszul", "--ell", "2", "--degree", "3"],
    ],
)
def test_the_one_command_parser_prints_what_the_full_parser_prints(argv):
    assert run(argv) == parse_with_every_command(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--params", "numeric", "--q-assign", "1,2=2"],
        ["qdet", "--subset", "1,2"],
        ["koszul", "--ell", "2", "--seed", "4"],
        ["twisted", "--degree", "2", "--output", "json"],
        ["classical", "--random", "2"],
    ],
)
def test_the_one_command_parser_parses_as_the_full_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))
    # and it has no other command
    for other in set(COMMANDS) - {argv[0]}:
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit):
            build_parser(argv[0]).parse_args([other, "-h"])
        assert f"invalid choice: '{other}'" in err.getvalue()


@pytest.mark.parametrize("output", ["json", "text"])
def test_a_closed_stdout_is_not_a_verdict(output):
    # the read end is closed before the CLI starts, so writing the report
    # fails whatever its size
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "qmm.cli", "koszul", "--n", "3", "--degree", "3", "--output", output]
    try:
        done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert done.returncode == EXIT_BROKEN_PIPE
    assert EXIT_BROKEN_PIPE not in [*EXIT_CODES.values(), 2]
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
