import contextlib
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import netkalman
from netkalman.cli import main
from netkalman.config import ConfigError, dump_normalized, parse_config
from netkalman.gains import gain_set
from netkalman.model import fixture, load_matrix_csv, save_matrix_csv


FIXTURE_CFG = """\
[system]
fixture = case1_stable

[delays]
lambda1 = 0.25
lambda2 = 0.75

[sim]
steps = 12
runs = 4
seed = 7
"""

EXPLICIT_CFG = """\
[system]
n1 = 1
n2 = 1
a =
    0.5 0.2
    0.1 0.4
c1 = 1
c2 = 1
w =
    1 0
    0 1
v =
    1 0
    0 1
sigma0 =
    1 0
    0 1

[delays]
lambda1 = 0.5
lambda2 = 0.5
lambda2_grid = 0 1

[sim]
steps = 6
runs = 3
seed = 1

[analysis]
restarts = 2
iterations = 100
horizon = 50
"""


# dump_normalized of FIXTURE_CFG and of EXPLICIT_CFG with a divergence
# threshold, byte for byte.
FIXTURE_DUMP = """\
[system]
n1 = 2
n2 = 2
a =
    -0.66959999999999997 0.43419999999999997 -0.16800000000000001 0.096000000000000002
    -0.43419999999999997 -0.66959999999999997 0.080799999999999997 -0.1608
    0.093600000000000003 -0.18479999999999999 0.78810000000000002 0.27279999999999999
    0.087999999999999995 -0.16320000000000001 0.16 0.76449999999999996
c1 =
    1 0
    0 1
c2 =
    1 1
w =
    1 0 0 0
    0 1 0 0
    0 0 1 0
    0 0 0 1
v =
    1 0 0
    0 1 0
    0 0 1
sigma0 =
    1 0 0 0
    0 1 0 0
    0 0 1 0
    0 0 0 1

[delays]
lambda1 = 0.25
lambda2 = 0.75

[sim]
steps = 12
runs = 4
seed = 7

[analysis]
bisect_tol = 0.02
horizon = 400
"""

EXPLICIT_DUMP = """\
[system]
n1 = 1
n2 = 1
a =
    0.5 0.20000000000000001
    0.10000000000000001 0.40000000000000002
c1 =
    1
c2 =
    1
w =
    1 0
    0 1
v =
    1 0
    0 1
sigma0 =
    1 0
    0 1

[delays]
lambda1 = 0.5
lambda2 = 0.5
lambda2_grid = 0 1

[sim]
steps = 6
runs = 3
seed = 1

[analysis]
divergence_threshold = 2500000000000
bisect_tol = 0.02
horizon = 50
"""


@pytest.fixture
def fixture_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FIXTURE_CFG)
    return str(path)


@pytest.fixture
def explicit_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(EXPLICIT_CFG)
    return str(path)


class TestParseConfig:
    def test_fixture_config(self, fixture_cfg):
        cfg = parse_config(fixture_cfg)
        assert cfg.model.n == 4
        assert cfg.delays.lambda1 == 0.25
        assert cfg.steps == 12

    def test_explicit_matrices(self, explicit_cfg):
        cfg = parse_config(explicit_cfg)
        assert cfg.model.n1 == 1
        assert_allclose(cfg.model.A, [[0.5, 0.2], [0.1, 0.4]])
        assert cfg.lambda2_grid == (0.0, 1.0)
        # the former solver keys still parse, and are ignored
        assert cfg.solver is None
        assert "restarts" not in dump_normalized(cfg)

    def test_matrix_file_reference(self, tmp_path, toy):
        for name, M in (("a", toy.A), ("c1", toy.C1), ("c2", toy.C2),
                        ("w", toy.W), ("v", toy.V), ("sigma0", toy.Sigma0)):
            save_matrix_csv(tmp_path / f"{name}.csv", np.asarray(M))
        lines = ["[system]", "n1 = 1", "n2 = 1"]
        lines += [f"{name}_file = {name}.csv"
                  for name in ("a", "c1", "c2", "w", "v", "sigma0")]
        path = tmp_path / "files.cfg"
        path.write_text("\n".join(lines) + "\n")
        cfg = parse_config(path)
        assert_allclose(cfg.model.A, toy.A)

    def test_missing_file_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nn1 = 1\nn2 = 1\na_file = nope.csv\n")
        with pytest.raises(ConfigError, match="a_file"):
            parse_config(path)

    def test_fixture_and_matrices_conflict(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nfixture = toy_identity\na = 1\n")
        with pytest.raises(ConfigError, match="fixture"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["n1", "n2"])
    def test_dimension_next_to_fixture_named(self, tmp_path, key):
        # n1 and n2 go only with explicit matrices; a fixture sets its own
        path = tmp_path / "bad.cfg"
        path.write_text(FIXTURE_CFG.replace("[delays]", f"{key} = 7\n\n[delays]"))
        with pytest.raises(ConfigError, match=rf"^\[system\] {key}: give a fixture"):
            parse_config(path)

    def test_default_section_named(self, tmp_path, capsys):
        # configparser copies [DEFAULT] keys into every section, so the
        # error has to name [DEFAULT] itself; an empty one stays harmless
        path = tmp_path / "bad.cfg"
        path.write_text("[DEFAULT]\n\n" + FIXTURE_CFG)
        assert main(["validate", str(path)]) == 0
        path.write_text("[DEFAULT]\nseed = 3\n\n" + FIXTURE_CFG)
        capsys.readouterr()
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: [DEFAULT]: unknown section\n"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(FIXTURE_CFG + "\n[analysis]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    @pytest.mark.parametrize("key,value", [
        ("bisect_tol", "0"), ("bisect_tol", "-0.1"), ("bisect_tol", "nan"),
        ("divergence_threshold", "nan"), ("divergence_threshold", "inf"),
        ("divergence_threshold", "0"),
    ])
    def test_nonpositive_or_non_finite_analysis_value_named(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(FIXTURE_CFG + f"\n[analysis]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)

    @pytest.mark.parametrize("rows, what", [
        ("nan 0.2; 0.1 0.4", "matrix has non-finite entries"),
        ("inf 0.2; 0.1 0.4", "matrix has non-finite entries"),
        ("-inf 0.2; 0.1 0.4", "matrix has non-finite entries"),
        ("0.5 0.2; 0.1", "ragged rows"),
        ("", "no matrix rows found"),
        ("0.5 x; 0.1 0.4", "could not convert string to float: 'x'"),
    ], ids=["nan", "inf", "-inf", "ragged", "empty", "non-numeric"])
    def test_non_finite_matrix_entry_named(self, tmp_path, rows, what):
        # the same rows inline (joined by ";") and in a file fail alike,
        # each naming its own key; a file error also names the file
        path = tmp_path / "bad.cfg"
        path.write_text(EXPLICIT_CFG.replace("a =\n    0.5 0.2\n    0.1 0.4\n", f"a = {rows}\n"))
        with pytest.raises(ConfigError, match=rf"^\[system\] a: {re.escape(what)}$"):
            parse_config(path)
        (tmp_path / "a.csv").write_text(rows.replace("; ", "\n"))
        path.write_text(EXPLICIT_CFG.replace("a =\n    0.5 0.2\n    0.1 0.4\n", "a_file = a.csv\n"))
        with pytest.raises(ConfigError, match=rf"^\[system\] a_file: {re.escape(what)}"):
            parse_config(path)

    def test_bad_probability_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nfixture = toy_identity\n\n[delays]\nlambda1 = 1.5\n")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(path)

    def test_normalized_round_trip(self, explicit_cfg, tmp_path):
        cfg = parse_config(explicit_cfg)
        text = dump_normalized(cfg)
        path = tmp_path / "norm.cfg"
        path.write_text(text)
        again = dump_normalized(parse_config(path))
        assert text == again

    @pytest.mark.parametrize("text, golden", [
        (FIXTURE_CFG, FIXTURE_DUMP),
        (EXPLICIT_CFG.replace("horizon = 50\n", "horizon = 50\ndivergence_threshold = 2.5e12\n"),
         EXPLICIT_DUMP),
    ], ids=["fixture", "explicit"])
    def test_dump_normalized_golden(self, tmp_path, text, golden):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert dump_normalized(parse_config(path)) == golden

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("section, key", [
        ("sim", "steps"), ("sim", "runs"), ("analysis", "horizon"),
    ])
    def test_count_key_below_one_named(self, tmp_path, section, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[system]\nfixture = case1_stable\n\n[{section}]\n{key} = {value}\n")
        message = f"[{section}] {key}: must be >= 1, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)


# A valid explicit config, one section per key group; matrices are rows
# joined by ";".  Every key is numeric.
FUZZ_BASE = {
    "system": {"n1": "1", "n2": "2", "a": "0.5 0.2 0; 0.1 0.4 0; 0 0 0.3",
               "c1": "1", "c2": "1 0", "w": "1 0 0; 0 1 0; 0 0 1", "v": "1 0; 0 1",
               "sigma0": "1 0 0; 0 1 0; 0 0 1"},
    "delays": {"lambda1": "0.5", "lambda2": "0.5", "lambda1_grid": "0 1",
               "lambda2_grid": "0.25 0.75"},
    "sim": {"steps": "6", "runs": "3", "seed": "1"},
    "analysis": {"divergence_threshold": "1e12", "bisect_tol": "0.02", "horizon": "50"},
}
FUZZ_MATRIX_KEYS = ("a", "c1", "c2", "w", "v", "sigma0")
FUZZ_KEYS = [(sec, key) for sec, keys in FUZZ_BASE.items() for key in keys]
# Printable ASCII but "#", which starts an inline comment; the trailing
# "?" keeps the text from spelling a number.
NOT_A_NUMBER = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                     exclude_characters="#"), max_size=6).map(lambda s: s + "?")
NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"])


def _fuzz_config(replaced):
    """FUZZ_BASE as config text, with the values of ``{(section, key): value}``."""
    return "".join(
        f"[{sec}]\n" + "".join(f"{k} = {replaced.get((sec, k), v)}\n" for k, v in keys.items())
        for sec, keys in FUZZ_BASE.items())


def _wrong_shape(key):
    """A matrix text whose shape no valid config of FUZZ_BASE's dimensions has."""
    valid = {"c1": lambda r, c: c == 1, "c2": lambda r, c: c == 2,
             "v": lambda r, c: (r, c) == (2, 2)}.get(key, lambda r, c: (r, c) == (3, 3))
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda s: not valid(*s))
    return shapes.map(lambda s: "; ".join(" ".join(["1"] * s[1]) for _ in range(s[0])))


class TestConfigFuzz:
    @given(data=st.data(), where=st.sampled_from(FUZZ_KEYS))
    def test_malformed_numeric_value_exits_2_naming_key(self, tmp_path_factory, data, where):
        # property: a malformed value of any numeric key fails at parsing,
        # before any model check, and the message names the key
        sec, key = where
        if key in FUZZ_MATRIX_KEYS:
            entries = FUZZ_BASE[sec][key].replace(";", " ; ").split()
            at = data.draw(st.sampled_from([i for i, tok in enumerate(entries) if tok != ";"]))
            entries[at] = data.draw(NOT_A_NUMBER | NON_FINITE)
            value = data.draw(st.just(" ".join(entries)) | _wrong_shape(key))
        else:
            value = data.draw(NOT_A_NUMBER | NON_FINITE)
        text = _fuzz_config({where: value})
        path = tmp_path_factory.mktemp("fuzz") / "bad.cfg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", str(path)])
        assert code == 2, (text, err.getvalue())
        assert f"[{sec}] {key}:" in err.getvalue()

    def test_base_config_is_valid(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(_fuzz_config({}))
        assert main(["validate", str(path)]) == 0
        assert "model valid" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [("n1", "0"), ("n2", "-1")])
    def test_nonpositive_dimension_fails_validation(self, tmp_path, capsys, key, value):
        # a dimension below 1 parses; validate_model reports it (exit 1)
        path = tmp_path / "bad.cfg"
        path.write_text(EXPLICIT_CFG.replace(f"{key} = 1", f"{key} = {value}"))
        assert main(["validate", str(path)]) == 1
        assert "state dimensions must be positive" in capsys.readouterr().err

    def test_wrong_shape_from_file_names_file_key(self, tmp_path):
        save_matrix_csv(tmp_path / "w.csv", np.eye(3))
        path = tmp_path / "bad.cfg"
        path.write_text(EXPLICIT_CFG.replace("w =\n    1 0\n    0 1\n", "w_file = w.csv\n"))
        with pytest.raises(ConfigError, match=r"\] w_file: matrix is 3x3, expected 2x2"):
            parse_config(path)


class TestCliExitCodes:
    def test_validate_ok(self, fixture_cfg, capsys):
        assert main(["validate", fixture_cfg]) == 0
        assert "model valid" in capsys.readouterr().out

    def test_validate_invalid_model_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[system]\nn1 = 1\nn2 = 1\na =\n    1 0\n    0 1\nc1 = 1\nc2 = 1\n"
            "w =\n    0 0\n    0 0\nv =\n    1 0\n    0 1\nsigma0 =\n    1 0\n    0 1\n"
        )
        assert main(["validate", str(cfg)]) == 1
        assert "W not positive definite" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[system]\nfixture = nonsense\n")
        assert main(["validate", str(cfg)]) == 2
        assert "fixture" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "missing.cfg")]) == 2

    def test_config_not_utf8_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"\xff" + FIXTURE_CFG.encode())
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")

    def test_zero_bisect_tol_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FIXTURE_CFG + "\n[analysis]\nbisect_tol = 0\n")
        assert main(["critical", str(cfg), "--fix", "lambda2=0.5", "--empirical"]) == 2
        assert "bisect_tol" in capsys.readouterr().err

    def test_nan_matrix_entry_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(EXPLICIT_CFG.replace("0.5 0.2", "nan 0.2"))
        assert main(["validate", str(cfg)]) == 2
        assert "[system] a:" in capsys.readouterr().err

    @pytest.mark.parametrize("P, what", [
        (np.diag([1.0, float("nan"), 1.0, 1.0]), "prior covariance has non-finite entries"),
        (np.diag([1.0, float("inf"), 1.0, 1.0]), "prior covariance has non-finite entries"),
        (np.eye(3), "prior covariance must be 4x4 for this model, got 3x3"),
        ("1 0\n0 1 0\n", "ragged rows in {}"),
        ("1 x\n0 1\n", "could not convert string to float: 'x' in {}"),
        ("", "no matrix rows found in {}"),
        (None, "[Errno 2] No such file or directory: '{}'"),
    ], ids=["nan", "inf", "3x3", "ragged", "non-numeric", "empty", "missing"])
    def test_bad_prior_names_p(self, fixture_cfg, tmp_path, capsys, P, what):
        # P is a matrix to save, the raw text of the file, or None for no
        # file; a file error names the file as a config's *_file does
        p_path = tmp_path / "p.csv"
        if isinstance(P, str):
            p_path.write_text(P)
        elif P is not None:
            save_matrix_csv(p_path, P)
        assert main(["gains", fixture_cfg, "--p", str(p_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --p: {what.format(p_path)}\n"

    @pytest.mark.parametrize("entry, value, what", [
        ((0, 1), 0.9, "not symmetric"),
        ((1, 1), -1.0, "not positive semidefinite"),
    ], ids=["asymmetric", "indefinite"])
    def test_prior_must_be_symmetric_psd(self, fixture_cfg, tmp_path, capsys,
                                         entry, value, what):
        P = np.eye(4)
        P[entry] = value
        p_path = tmp_path / "p.csv"
        save_matrix_csv(p_path, P)
        assert main(["gains", fixture_cfg, "--p", str(p_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --p:")
        assert what in captured.err

    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    @pytest.mark.parametrize("command, flag", [
        ("filter", "--steps"), ("iterate-g", "--steps"), ("sweep", "--runs"),
        ("sweep", "--horizon"),
    ])
    def test_count_flag_below_one_names_flag(self, fixture_cfg, capsys, command, flag, value):
        assert main([command, fixture_cfg, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: must be an integer >= 1, got '{value}'\n")

    def test_prior_symmetric_up_to_roundoff_passes(self, fixture_cfg, tmp_path):
        P = np.eye(4) + 0.3
        P[1, 0] = np.nextafter(P[0, 1], 1.0)
        p_path = tmp_path / "p.csv"
        save_matrix_csv(p_path, P)
        assert main(["gains", fixture_cfg, "--p", str(p_path)]) == 0

    def test_module_entry_point(self, fixture_cfg, tmp_path):
        # ``python -m netkalman.cli`` runs the same CLI as the script
        src = os.path.dirname(os.path.dirname(netkalman.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        bad = tmp_path / "bad.cfg"
        bad.write_text(FIXTURE_CFG + "\n[analysis]\nbogus = 1\n")
        for path, code in ((fixture_cfg, 0), (str(bad), 2)):
            proc = subprocess.run([sys.executable, "-m", "netkalman.cli", "validate", path],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == code, proc.stderr
        assert "bogus" in proc.stderr

    def test_import_loads_no_scipy(self):
        # the library and its CLI run on numpy alone
        src = os.path.dirname(os.path.dirname(netkalman.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, netkalman, netkalman.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCliCommands:
    def test_dump_normalized_round_trip(self, fixture_cfg, tmp_path):
        out1 = tmp_path / "n1.cfg"
        out2 = tmp_path / "n2.cfg"
        assert main(["validate", fixture_cfg, "--dump-normalized",
                     "--out", str(out1)]) == 0
        assert main(["validate", str(out1), "--dump-normalized",
                     "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_gains_output_matches_library(self, fixture_cfg, tmp_path, capsys):
        model, _ = fixture("case1_stable")
        P = np.eye(4)
        p_path = tmp_path / "p.csv"
        save_matrix_csv(p_path, P)
        assert main(["gains", fixture_cfg, "--p", str(p_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "outcome,row,col,value"
        gs = gain_set(P, model.C, model.V, model.dims)
        values = {}
        for line in out[1:]:
            outcome, row, col, value = line.split(",")
            values[(outcome, int(row), int(col))] = float(value)
        assert values[("00", 1, 1)] == pytest.approx(gs.d00[0, 0], abs=0)
        assert values[("11", 4, 3)] == pytest.approx(gs.d11[3, 2], abs=0)
        assert len(values) == 4 * 4 * 3

    def test_filter_writes_csv(self, fixture_cfg, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["filter", fixture_cfg, "--steps", "9", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,gamma1,gamma2,")
        assert len(lines) == 10
        # same seed, same bytes
        out2 = tmp_path / "traj2.csv"
        assert main(["filter", fixture_cfg, "--steps", "9", "--seed", "3",
                     "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_sweep_writes_grid(self, explicit_cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", explicit_cfg, "--runs", "2", "--horizon", "4",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,t,trace_mean,stderr,trace_kalman"
        assert len(lines) == 1 + 2 * 4  # 1x2 grid, horizon 4

    def test_iterate_g_series(self, explicit_cfg, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["iterate-g", explicit_cfg, "--steps", "20",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,trace_Y"
        assert len(lines) == 21

    def test_bounded_identity_sensing_all_zero(self, tmp_path, capsys):
        cfg = tmp_path / "ident.cfg"
        cfg.write_text(
            "[system]\nn1 = 1\nn2 = 1\na =\n    1.5 0\n    0 1.5\nc1 = 1\nc2 = 1\n"
            "w =\n    1 0\n    0 1\nv =\n    1 0\n    0 1\nsigma0 =\n    1 0\n    0 1\n"
            "\n[analysis]\nrestarts = 2\niterations = 100\n"
        )
        out = tmp_path / "bounded.csv"
        assert main(["bounded", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["r1"]) < 1e-18
        assert float(fields["r4"]) < 1e-18
        assert fields["verdict"] == "BoundedCertified"

    def test_bounded_certificates_written(self, fixture_cfg, tmp_path):
        out = tmp_path / "b.csv"
        certs = tmp_path / "certs"
        cfg_text = FIXTURE_CFG + "\n[analysis]\nrestarts = 2\niterations = 100\n"
        cfg = tmp_path / "r.cfg"
        cfg.write_text(cfg_text)
        assert main(["bounded", str(cfg), "--out", str(out),
                     "--certificates", str(certs)]) == 0
        # one gain, C+, certifies every mask and fills all four files
        model, _ = fixture("case1_stable")
        for name in ("X_block_diag", "X_lower_block", "X_upper_block", "X_full"):
            assert_allclose(load_matrix_csv(certs / f"{name}.csv"),
                            np.linalg.pinv(model.C), atol=1e-12)

    def test_bounded_certificates_into_existing_dir(self, fixture_cfg, tmp_path):
        certs = tmp_path / "certs"
        certs.mkdir()
        assert main(["bounded", fixture_cfg, "--out", str(tmp_path / "b.csv"),
                     "--certificates", str(certs)]) == 0
        assert (certs / "X_full.csv").is_file()

    @pytest.mark.parametrize("bad", ["missing parent", "file"])
    def test_bounded_certificates_bad_dir_exits_2(self, fixture_cfg, tmp_path, capsys, bad):
        # a mistyped path used to be created with all its missing parents
        out = tmp_path / "b.csv"
        certs = tmp_path / "typo" / "certs"
        if bad == "file":
            certs = tmp_path / "certs"
            certs.write_text("")
        assert main(["bounded", fixture_cfg, "--out", str(out),
                     "--certificates", str(certs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(certs) in captured.err
        assert not out.exists() and not (tmp_path / "typo").exists()

    def test_critical_certified_branch(self, tmp_path, capsys):
        # case1's block-diagonal and full minima coincide below one, so
        # the whole axis is certified: bracket [1, 1]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FIXTURE_CFG + "\n[analysis]\nrestarts = 2\niterations = 150\n")
        out = tmp_path / "crit.csv"
        assert main(["critical", str(cfg), "--fix", "lambda1=1.0",
                     "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["lower"]) == 1.0
        assert float(fields["upper"]) == 1.0

    def test_critical_empirical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            FIXTURE_CFG
            + "\n[analysis]\nrestarts = 2\niterations = 150\nhorizon = 120\n"
        )
        out = tmp_path / "crit.csv"
        assert main(["critical", str(cfg), "--fix", "lambda2=1.0", "--empirical",
                     "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["empirical"]) == 1.0

    def test_critical_bad_fix_argument(self, fixture_cfg, capsys):
        assert main(["critical", fixture_cfg, "--fix", "lambda3=0.5"]) == 2
        assert "lambda" in capsys.readouterr().err


# A = diag(2, 0.5) with no sensor on the unstable state: the bound
# sequence crosses its threshold, 1e12 tr W, at step 21.
DIVERGING_CFG = """\
[system]
n1 = 1
n2 = 1
a = 2 0; 0 0.5
c1 = 0
c2 = 1
w = 1 0; 0 1
v = 1 0; 0 1
sigma0 = 1 0; 0 1

[delays]
lambda1 = 1
lambda2 = 0.5
"""

INVALID_CFG = """\
[system]
n1 = 1
n2 = 1
a = 1 0; 0 1
c1 = 1
c2 = 1
w = 0 0; 0 0
v = 1 0; 0 1
sigma0 = 1 0; 0 1
"""


class TestCliRouting:
    """Which stream each subcommand writes to, and when it writes a file."""

    def test_iterate_g_reports_divergence_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(DIVERGING_CFG)
        assert main(["iterate-g", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "diverged at step 21 (threshold 2e+12)\n"
        lines = captured.out.splitlines()
        assert lines[0] == "t,trace_Y"
        assert len(lines) == 22

    def test_bounded_and_critical_csv_on_stdout_text_on_stderr(self, fixture_cfg, capsys):
        cfg = parse_config(fixture_cfg)
        report = netkalman.analysis.boundedness_test(cfg.model, cfg.delays)
        assert main(["bounded", fixture_cfg]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (report.to_csv(), report.to_text() + "\n")
        bounds = netkalman.analysis.critical_bounds(cfg.model, 0.5, 2)
        assert main(["critical", fixture_cfg, "--fix", "lambda2=0.5"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (bounds.to_csv(), bounds.to_text() + "\n")

    def test_out_dash_is_stdout(self, fixture_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "b.csv"
        assert main(["bounded", fixture_cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        monkeypatch.chdir(tmp_path)
        assert main(["bounded", fixture_cfg, "--out", "-"]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert not (tmp_path / "-").exists()

    def test_validate_out_writes_model_valid(self, fixture_cfg, tmp_path, capsys):
        out = tmp_path / "valid.txt"
        assert main(["validate", fixture_cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
        assert out.read_text() == "model valid\n"

    @pytest.mark.parametrize("extra", [
        ["validate"], ["gains", "--p", "p.csv"], ["filter"], ["sweep"], ["iterate-g"],
        ["bounded"], ["critical", "--fix", "lambda1=0.5"],
    ], ids=lambda extra: extra[0])
    def test_invalid_model_exits_1_from_every_subcommand(self, tmp_path, capsys,
                                                         monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        save_matrix_csv(tmp_path / "p.csv", np.eye(2))
        (tmp_path / "bad.cfg").write_text(INVALID_CFG)
        out = tmp_path / "out.csv"
        assert main([extra[0], "bad.cfg", *extra[1:], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "W not positive definite" in captured.err
        assert not out.exists()
