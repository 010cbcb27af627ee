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
    close_loop,
    detectable_full,
    discretize,
    fixture,
    load_matrix_csv,
    power_network_continuous,
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
        oc = DelayOutcome.from_label("01")
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


class TestDiscretize:
    def test_zero_dynamics(self):
        A_d, B_d, W = discretize(np.zeros((3, 3)), np.zeros((3, 2)), np.eye(3), 0.05)
        assert_allclose(A_d, np.eye(3))
        assert_allclose(B_d, 0.0)

    def test_noise_scaling(self):
        _, _, W = discretize(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), 0.05)
        assert_allclose(W, 0.0025 * np.eye(2), rtol=1e-15)

    def test_power_network_printed_entries(self):
        raw = power_network_continuous()
        A_d, B_d, _ = discretize(raw["A"], raw["B"], np.eye(4), raw["Ts"])
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

    def test_rejects_nonpositive_ts(self):
        with pytest.raises(ValueError):
            discretize(np.eye(2), np.eye(2), np.eye(2), 0.0)


class TestCloseLoop:
    def test_zero_gain_is_open_loop(self):
        A_d = np.arange(4.0).reshape(2, 2)
        assert_allclose(close_loop(A_d, np.ones((2, 2)), np.zeros((2, 2))), A_d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            close_loop(np.eye(2), np.ones((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("gain_key,fixture_name", [
        ("L_stable", "case1_stable"),
        ("L_unstable", "case2_unstable"),
    ])
    def test_reproduces_printed_closed_loop(self, gain_key, fixture_name):
        # The published feedback gains are rounded to 4 decimals, so the
        # recomputed closed loop can differ from the published matrix by
        # up to |B_d| * 0.5e-4 entrywise.  Check against that bound.
        raw = power_network_continuous()
        A_d, B_d, _ = discretize(raw["A"], raw["B"], np.eye(4), raw["Ts"])
        A_c = close_loop(A_d, B_d, raw[gain_key])
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


class TestDetectability:
    def test_stable_system_always_detectable(self):
        assert detectable_full(0.5 * np.eye(3), np.zeros((1, 3)))

    def test_unobserved_unstable_mode(self):
        assert not detectable_full(2.0 * np.eye(2), np.array([[1.0, 0.0]]))

    def test_unstable_fixture_detectable_with_full_sensing(self, case2):
        assert detectable_full(case2.A, case2.C)
        # independent PBH evaluation at each unstable eigenvalue
        for z in np.linalg.eigvals(case2.A):
            if abs(z) >= 1:
                stacked = np.vstack([case2.A - z * np.eye(4), case2.C.astype(complex)])
                sv = np.linalg.svd(stacked, compute_uv=False)
                assert sv[3] > 1e-8


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
