import copy
import dataclasses
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from netkalman.model import (
    DelayModel,
    DelayOutcome,
    SystemModel,
    fixture,
    load_matrix_csv,
    save_matrix_csv,
    validate_model,
)


def identity_model(n1=1, n2=1):
    n = n1 + n2
    return SystemModel(
        n1=n1, n2=n2, A=0.5 * np.eye(n), C1=np.eye(n1), C2=np.eye(n2),
        W=np.eye(n), V=np.eye(n), Sigma0=np.eye(n),
    )


class TestValidate:
    def test_identity_covariances_valid(self):
        assert validate_model(identity_model()).ok

    def test_zero_v_not_positive_definite(self):
        m = identity_model()
        bad = SystemModel(n1=1, n2=1, A=m.A, C1=m.C1, C2=m.C2,
                          W=m.W, V=np.zeros((2, 2)), Sigma0=m.Sigma0)
        report = validate_model(bad)
        assert not report.ok
        assert any("V not positive definite" in v for v in report.violations)

    def test_power_fixture_valid(self, case1):
        assert validate_model(case1).ok
        assert case1.C.shape == (3, 4)
        assert_allclose(case1.V, np.eye(3))

    def test_dimension_mismatch_reported(self):
        m = identity_model()
        bad = SystemModel(n1=1, n2=1, A=np.eye(3), C1=m.C1, C2=m.C2,
                          W=m.W, V=m.V, Sigma0=m.Sigma0)
        report = validate_model(bad)
        assert any("A has shape" in v for v in report.violations)

    def test_non_finite_entries_named(self):
        m = identity_model()
        fields = dict(A=m.A, C1=m.C1, C2=m.C2, W=m.W, V=m.V, Sigma0=m.Sigma0)
        for name, bad_value in (("A", np.nan), ("C1", np.inf), ("C2", -np.inf),
                                ("W", np.nan), ("V", np.inf), ("Sigma0", np.nan)):
            M = np.array(fields[name], dtype=float)
            M[0, 0] = bad_value
            report = validate_model(SystemModel(n1=1, n2=1, **{**fields, name: M}))
            assert not report.ok
            assert f"{name} has non-finite entries" in report.violations


class TestStackedC:
    def test_built_once_read_only_and_per_instance(self):
        model = identity_model(2, 1)
        assert model.C is model.C
        with pytest.raises(ValueError):
            model.C[0, 0] = 2.0
        other = dataclasses.replace(model, C1=np.array([[1.0, 2.0]]))
        assert other.C is not model.C
        assert np.array_equal(other.C, [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(model.C, np.eye(3))

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_arrays_read_only(self, clone):
        model = fixture("case1_stable")[0]
        model.C  # cached before the round trip, so it travels with the state
        back = clone(model)
        for name in ("A", "C1", "C2", "W", "V", "Sigma0", "C"):
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
            assert not getattr(back, name).flags.writeable, name
        assert back.C is back.C


class TestDelayTypes:
    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            DelayModel(-0.1, 0.5)
        with pytest.raises(ValueError):
            DelayModel(0.5, 1.5)

    def test_outcome_labels(self):
        oc = DelayOutcome(0, 1)
        assert (oc.gamma1, oc.gamma2) == (0, 1)
        assert oc.label == "01"
        with pytest.raises(ValueError):
            DelayOutcome(2, 0)

    def test_outcome_probabilities_sum_to_one(self):
        d = DelayModel(0.3, 0.8)
        total = sum(
            d.outcome_probability(DelayOutcome(g1, g2))
            for g1 in (0, 1) for g2 in (0, 1)
        )
        assert_allclose(total, 1.0, rtol=1e-15)


# The paper's continuous-time four-bus network, its sampling time and its
# two printed feedback gains.  The fixtures hold the printed closed-loop
# matrices; the two classes below rebuild them from this data, with the
# Euler step A_d = Ts*A + I, B_d = Ts*B and the closed loop A_d + B_d @ L.
POWER_NETWORK = {
    "A": np.array(
        [
            [175.9, 176.8, 511.0, 1036.0],
            [-350.0, 0.0, 0.0, 0.0],
            [-544.2, -474.8, -408.8, -828.8],
            [-119.7, -554.6, -968.8, -1077.5],
        ]
    ),
    "B": np.array(
        [
            [0.8, 334.2, 525.1, -103.6],
            [-350.0, 0.0, 0.0, 0.0],
            [-69.3, -66.1, -420.1, -828.8],
            [-434.9, -414.2, -108.7, -1077.5],
        ]
    ),
    "Ts": 0.05,
    "L_stable": np.array(
        [
            [-0.9752, 0.0954, -0.0046, 0.0092],
            [1.2278, -0.2457, -1.4844, -1.4526],
            [-1.1925, -0.2489, -0.0979, -1.1097],
            [-0.0708, -0.4306, -0.3197, -0.3290],
        ]
    ),
    "L_unstable": np.array(
        [
            [-0.9553, 0.1260, -0.1420, 0.0165],
            [1.2028, -0.2767, -1.3840, -1.4669],
            [-1.1969, -0.2184, -0.1625, -1.0997],
            [-0.0701, -0.4426, -0.2987, -0.3388],
        ]
    ),
}


class TestDiscretize:
    def test_power_network_printed_entries(self):
        raw = POWER_NETWORK
        A_d = raw["Ts"] * raw["A"] + np.eye(4)
        B_d = raw["Ts"] * raw["B"]
        printed_A_d = np.array(
            [
                [9.795, 8.84, 25.55, 51.8],
                [-17.5, 1.0, 0.0, 0.0],
                [-27.21, -23.74, -19.44, -41.44],
                [-5.985, -27.73, -48.44, -52.875],
            ]
        )
        printed_B_d = np.array(
            [
                [0.04, 16.71, 26.255, -5.18],
                [-17.5, 0.0, 0.0, 0.0],
                [-3.465, -3.305, -21.005, -41.44],
                [-21.745, -20.71, -5.435, -53.875],
            ]
        )
        assert_allclose(A_d, printed_A_d, atol=1e-12)
        assert_allclose(B_d, printed_B_d, atol=1e-12)


class TestCloseLoop:
    @pytest.mark.parametrize("gain_key,fixture_name", [
        ("L_stable", "case1_stable"),
        ("L_unstable", "case2_unstable"),
    ])
    def test_reproduces_printed_closed_loop(self, gain_key, fixture_name):
        # The published feedback gains are rounded to 4 decimals, so the
        # recomputed closed loop can differ from the published matrix by
        # up to |B_d| * 0.5e-4 entrywise.  Check against that bound.
        raw = POWER_NETWORK
        A_d = raw["Ts"] * raw["A"] + np.eye(4)
        B_d = raw["Ts"] * raw["B"]
        A_c = A_d + B_d @ raw[gain_key]
        printed = fixture(fixture_name)[0].A
        bound = np.abs(B_d) @ np.full((4, 4), 0.5e-4) + 1e-9
        assert (np.abs(A_c - printed) <= bound).all()
        # leading entries, as published
        if fixture_name == "case1_stable":
            assert abs(A_c[0, 0] - (-0.6696)) < 2.5e-3
            assert max(abs(np.linalg.eigvals(A_c))) < 1.0
        else:
            assert abs(A_c[0, 0] - (-1.2053)) < 2.5e-3
            assert max(abs(np.linalg.eigvals(A_c))) > 1.0


class TestFixtures:
    def test_all_fixtures_valid(self):
        for name in ("case1_stable", "case2_unstable", "toy_identity"):
            model, delays = fixture(name)
            assert validate_model(model).ok, name
            assert isinstance(delays, DelayModel)

    def test_spectral_radii(self, case1, case2, toy):
        assert max(abs(np.linalg.eigvals(case1.A))) < 1.0
        assert max(abs(np.linalg.eigvals(case2.A))) > 1.0
        assert max(abs(np.linalg.eigvals(toy.A))) < 1.0

    def test_printed_closed_loop_entries(self, case1, case2):
        assert case1.A[0, 0] == -0.6696
        assert case2.A[0, 0] == -1.2053
        assert case2.A[1, 2] == 2.4854

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            fixture("case3")

    def test_models_are_immutable(self, case1):
        with pytest.raises(ValueError):
            case1.A[0, 0] = 0.0


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        M = np.array([[1.25, -3.5e-7], [2.0 / 3.0, 1e17]])
        path = tmp_path / "m.csv"
        save_matrix_csv(path, M)
        assert_allclose(load_matrix_csv(path), M, rtol=0, atol=0)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
