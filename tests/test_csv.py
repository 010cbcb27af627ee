"""The exact text of the package's CSV output.

Every table has a header row; a matrix CSV (a certificate file, ``--p``)
has none.  Numbers are written with ``%.17g``: a double keeps its bits
and an integer below 2**53 prints as it does with ``%d``.  The golden
texts below pin the data rows, which header checks and run-to-run
equality do not.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import unseen_mode_model
from netkalman import (DelayModel, boundedness_test, critical_bounds, fixture, make_rng,
                       run_filter, sweep)
from netkalman.cli import main
from netkalman.model import _csv_text, _table_rows
from test_cli import EXPLICIT_CFG, FIXTURE_CFG

FILTER_CSV = """\
t,gamma1,gamma2,x_1,x_2,xhat_1,xhat_2,trace_P_prior,trace_P_post,sq_err
1,0,0,0.37635846738646461,-0.0037221773840003802,-1.2584281020243917,0.48206493136796735,\
2.46,1.1024892842050189,2.9085162425557125
2,0,0,-0.40503820287143372,0.16375629707270953,-0.42692721968071723,-0.087675153002099132,\
2.2616219588271989,1.0611099223997553,0.063696903143598091
3,1,1,-0.66357181983277858,-0.86679375027501104,-1.0866633166186661,-0.29575957456207252,\
2.2492952991197397,1.0573250429951262,0.50508644448467777
"""

SWEEP_CSV = """\
lambda1,lambda2,t,trace_mean,stderr,trace_kalman
0.10000000000000001,0.25,1,2.46,0,2.46
0.10000000000000001,0.25,2,2.2611706505193321,0.00022565415393345964,2.2609449963653985
0.10000000000000001,0.69999999999999996,1,2.46,0,2.46
0.10000000000000001,0.69999999999999996,2,2.261154672978305,0.00010483830645317366,\
2.2609449963653985
"""

R_CASE1 = "0.37951044999999978"

BOUNDED_CSV = f"""\
lambda1,lambda2,r1,r2,r3,r4,weighted_sum,verdict
0.10000000000000001,0.69999999999999996,{R_CASE1},{R_CASE1},{R_CASE1},{R_CASE1},{R_CASE1},\
BoundedCertified
"""

CRITICAL_HEADER = "fixed_which,lambda_fixed,lower,upper,alpha,empirical,r1,r2,r3,r4\n"

GAINS_CSV = """\
outcome,row,col,value
00,1,1,0.66666666666666663
00,1,2,0
00,2,1,0
00,2,2,0.5
01,1,1,0.66666666666666663
01,1,2,0
01,2,1,0.086956521739130432
01,2,2,0.47826086956521741
10,1,1,0.65217391304347827
10,1,2,0.086956521739130432
10,2,1,0
10,2,2,0.5
11,1,1,0.65217391304347827
11,1,2,0.086956521739130432
11,2,1,0.086956521739130432
11,2,2,0.47826086956521741
"""

ITERATE_G_CSV = """\
t,trace_Y
1,2.46
2,2.2612897266918583
3,2.2491374556108359
"""

CERTIFICATE_CSV = """\
1,0,0
0,1,0
0,0,0.49999999999999978
0,0,0.49999999999999989
"""


class TestGoldenText:
    def test_filter(self, toy):
        record = run_filter(toy, DelayModel(0.5, 0.5), 3, make_rng(7))
        assert record.to_csv() == FILTER_CSV

    def test_sweep(self, toy):
        assert sweep(toy, [0.1], [0.25, 0.7], 3, 2, 5).to_csv() == SWEEP_CSV

    def test_boundedness_report(self, case1):
        assert boundedness_test(case1, DelayModel(0.1, 0.7)).to_csv() == BOUNDED_CSV

    def test_critical_bounds_without_alpha(self):
        bounds = critical_bounds(unseen_mode_model(1), 0.5, 1)
        assert bounds.alpha is None and bounds.empirical is None
        assert bounds.to_csv() == CRITICAL_HEADER + "1,0.5,0,1,,,1,1,1,1\n"

    def test_critical_bounds_with_empirical(self, case1):
        bounds = dataclasses.replace(critical_bounds(case1, 0.3, 2), empirical=1 / 3)
        row = f"2,0.29999999999999999,1,1,0,0.33333333333333331,{R_CASE1},{R_CASE1},{R_CASE1},"
        assert bounds.to_csv() == CRITICAL_HEADER + row + R_CASE1 + "\n"

    @pytest.mark.parametrize("argv, golden", [
        (["gains", "CFG", "--p", "P"], GAINS_CSV),
        (["iterate-g", "CFG", "--steps", "3"], ITERATE_G_CSV),
    ])
    def test_cli_table(self, tmp_path, capsys, argv, golden):
        cfg, prior = tmp_path / "toy.cfg", tmp_path / "p.csv"
        cfg.write_text(EXPLICIT_CFG)
        prior.write_text("2,0.5\n0.5,1\n")
        argv = [{"CFG": str(cfg), "P": str(prior)}.get(a, a) for a in argv]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden

    def test_certificate_file(self, tmp_path, capsys):
        cfg, certs = tmp_path / "run.cfg", tmp_path / "certs"
        cfg.write_text(FIXTURE_CFG)
        assert main(["bounded", str(cfg), "--certificates", str(certs)]) == 0
        assert (certs / "X_full.csv").read_text() == CERTIFICATE_CSV


def _fields(text):
    return [line.split(",") for line in text.splitlines()]


class TestWriter:
    @given(st.floats(width=64))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(2.225073858507201e-309)
    @example(1.7976931348623157e308)
    @example(-np.inf)
    @example(np.inf)
    @example(np.nan)
    def test_every_double_parses_back(self, x):
        back = float(_csv_text(None, [(x,)]))
        if np.isnan(x):
            assert np.isnan(back)
        else:
            assert np.float64(back).tobytes() == np.float64(x).tobytes()

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3))))
    def test_array_rows_parse_back(self, M):
        text = _csv_text(None, _table_rows(M))
        back = np.array([[float(v) for v in row] for row in _fields(text)])
        assert back.shape == M.shape
        assert np.array_equal(back, M, equal_nan=True)
        assert (np.signbit(back) == np.signbit(M))[~np.isnan(M)].all()

    @given(st.integers(-(2**53 - 1), 2**53 - 1))
    def test_integer_written_as_an_integer(self, n):
        for value in (n, float(n)):
            text = _csv_text(None, [(value,)]).rstrip("\n")
            assert "." not in text and "e" not in text and int(text) == n

    def test_strings_written_as_they_are(self):
        text = _csv_text("outcome,row,alpha,value", [("01", 2, "", 0.1), ("10", 3, "", 2.0)])
        assert text == "outcome,row,alpha,value\n01,2,,0.10000000000000001\n10,3,,2\n"
        assert _csv_text(None, []) == ""

    @pytest.mark.parametrize("rows", [255, 256, 257])
    def test_row_and_field_counts_across_chunks(self, rows):
        t = np.arange(1, rows + 1)
        X = np.random.default_rng(rows).standard_normal((rows, 3))
        fields = _fields(_csv_text("t,a,b,c,d", _table_rows(t, X, X[:, 0])))
        assert len(fields) == rows + 1 and {len(f) for f in fields} == {5}
        assert [int(f[0]) for f in fields[1:]] == t.tolist()
        assert np.array_equal(np.array(fields[1:], dtype=float)[:, 1:4], X)
