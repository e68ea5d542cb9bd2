"""CLI behaviour: commands, exit codes, reproducible JSON reports."""

import io
import json
from contextlib import redirect_stdout, redirect_stderr

import pytest

from qmm.cli import main


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
    code, _, err = run(["twisted", "--n", "2", "--params", "multi"])
    assert code == 2
    assert "one-parameter" in err


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
    assert "q-assign" in err


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
    assert [r["oracle_mode"] for r in report["results"]] == ["exact"] * 3
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

    # main must not report it as exit 2: it propagates with its traceback
    monkeypatch.setattr("qmm.cli.verify_master", broken)
    with pytest.raises(ModeMismatchError):
        main(["verify", "--n", "2", "--degree", "2"])


CLASSICAL = ["classical", "--random", "1", "--n", "2", "--degree", "2"]
QDET = ["qdet", "--n", "2", "--subset", "1,2"]
KOSZUL = ["koszul", "--n", "2", "--degree", "2"]


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
    ],
)
def test_config_echoes_exactly_the_options_the_command_has(argv, keys):
    code, out, _ = run(argv + ["--output", "json"])
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == keys and None not in config.values()
