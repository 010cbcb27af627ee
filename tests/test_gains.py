import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_instance, random_psd
from netkalman.model import ALL_OUTCOMES, BlockDims, DelayOutcome
from netkalman.gains import (
    StructuredMask,
    gain_set,
    innovation_blocks,
    mask_for_outcome,
    mask_pattern,
    optimal_gain,
    oracle_structured_gain,
    posterior_cov,
)

DIMS_2X2 = BlockDims(1, 1, 1, 1)


class TestMasks:
    def test_outcome_structure_mapping(self):
        assert mask_for_outcome(DelayOutcome(1, 1)) is StructuredMask.FULL
        assert mask_for_outcome(DelayOutcome(0, 1)) is StructuredMask.LOWER_BLOCK
        assert mask_for_outcome(DelayOutcome(1, 0)) is StructuredMask.UPPER_BLOCK
        assert mask_for_outcome(DelayOutcome(0, 0)) is StructuredMask.BLOCK_DIAG

    def test_mask_nesting(self):
        dims = BlockDims(2, 1, 1, 2)
        full = mask_pattern(StructuredMask.FULL, dims)
        lower = mask_pattern(StructuredMask.LOWER_BLOCK, dims)
        upper = mask_pattern(StructuredMask.UPPER_BLOCK, dims)
        bd = mask_pattern(StructuredMask.BLOCK_DIAG, dims)
        assert (full | lower).all() and (full | upper).all()
        assert ((lower & bd) == bd).all()
        assert ((upper & bd) == bd).all()


class TestInnovationBlocks:
    def test_decoupled_identity_case(self):
        blocks = innovation_blocks(np.eye(2), np.eye(2), np.eye(2), DIMS_2X2)
        assert_allclose(blocks.s21, [[0.0]])
        assert_allclose(blocks.xcov1, [[1.0], [0.0]])
        assert_allclose(blocks.s11_inv, [[0.5]])
        assert_allclose(blocks.s12, [[0.0]])
        assert_allclose(blocks.xcov2, [[0.0], [1.0]])
        assert_allclose(blocks.s22_inv, [[0.5]])

    def test_coupled_prior(self):
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        blocks = innovation_blocks(P, np.eye(2), np.eye(2), DIMS_2X2)
        assert_allclose(blocks.s21, [[0.5]])
        assert_allclose(blocks.s11_inv, [[0.5]])
        assert_allclose(blocks.s12, [[0.5]])
        assert_allclose(blocks.s22_inv, [[0.5]])
        assert_allclose(blocks.xcov1, [[1.0], [0.5]])
        assert_allclose(blocks.xcov2, [[0.5], [1.0]])

    def test_zero_prior(self):
        V = np.diag([2.0, 4.0])
        blocks = innovation_blocks(np.zeros((2, 2)), np.eye(2), V, DIMS_2X2)
        assert_allclose(blocks.xcov1, 0.0)
        assert_allclose(blocks.xcov2, 0.0)
        assert_allclose(blocks.s11_inv, [[0.5]])
        assert_allclose(blocks.s22_inv, [[0.25]])

    def test_rejects_indefinite_prior(self):
        with pytest.raises(ValueError):
            innovation_blocks(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), DIMS_2X2)

    def test_diagonal_inverses_spd_and_transpose_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            P, C, V, dims = random_instance(rng)
            blocks = innovation_blocks(P, C, V, dims)
            assert_allclose(blocks.s21, blocks.s12.T, atol=1e-12)
            for M in (blocks.s11_inv, blocks.s22_inv):
                assert_allclose(M, M.T, atol=1e-12)
                assert np.linalg.eigvalsh(M)[0] > 0


class TestOptimalGain:
    def test_decoupled_identity_all_outcomes(self):
        for oc in ALL_OUTCOMES:
            D = optimal_gain(np.eye(2), np.eye(2), np.eye(2), DIMS_2X2, oc)
            assert_allclose(D, 0.5 * np.eye(2), atol=1e-14)

    def test_coupled_lower_block_gain(self):
        # frozen from the exact structured normal equations
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        D = optimal_gain(P, np.eye(2), np.eye(2), DIMS_2X2, DelayOutcome(0, 1))
        expected = np.array([[0.5, 0.0], [2.0 / 15.0, 7.0 / 15.0]])
        assert_allclose(D, expected, atol=1e-12)

    def test_coupled_full_gain_is_kalman(self):
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        D = optimal_gain(P, np.eye(2), np.eye(2), DIMS_2X2, DelayOutcome(1, 1))
        expected = P @ np.linalg.inv(np.eye(2) + P)
        assert_allclose(D, expected, atol=1e-12)
        assert_allclose(expected, np.array([[7.0, 2.0], [2.0, 7.0]]) / 15.0, atol=1e-12)

    def test_zero_patterns_are_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            P, C, V, dims = random_instance(rng)
            gs = gain_set(P, C, V, dims)
            n1, m1 = dims.n1, dims.m1
            assert np.all(gs.d00[:n1, m1:] == 0.0)
            assert np.all(gs.d00[n1:, :m1] == 0.0)
            assert np.all(gs.d01[:n1, m1:] == 0.0)
            assert np.all(gs.d10[n1:, :m1] == 0.0)

    def test_oracle_agreement_property(self):
        # the exact quadratic minimizer is the arbiter for the closed forms
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            P, C, V, dims = random_instance(rng)
            for oc in ALL_OUTCOMES:
                D = optimal_gain(P, C, V, dims, oc)
                Dref = oracle_structured_gain(P, C, V, dims, mask_for_outcome(oc))
                worst = max(worst, float(np.abs(D - Dref).max()))
        assert worst < 1e-8

    def test_trace_ordering_under_mask_nesting(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            P, C, V, dims = random_instance(rng)
            gs = gain_set(P, C, V, dims)
            tr = {
                label: np.trace(posterior_cov(P, getattr(gs, f"d{label}"), C, V))
                for label in ("11", "01", "10", "00")
            }
            assert tr["11"] <= tr["01"] + 1e-10
            assert tr["01"] <= tr["00"] + 1e-10
            assert tr["11"] <= tr["10"] + 1e-10
            assert tr["10"] <= tr["00"] + 1e-10


class TestOracle:
    def test_full_mask_identity_case(self):
        D = oracle_structured_gain(np.eye(2), np.eye(2), np.eye(2), DIMS_2X2,
                                   StructuredMask.FULL)
        assert_allclose(D, 0.5 * np.eye(2), atol=1e-14)

    def test_block_diag_ignores_cross_covariance(self):
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        D = oracle_structured_gain(P, np.eye(2), np.eye(2), DIMS_2X2,
                                   StructuredMask.BLOCK_DIAG)
        assert_allclose(D, np.diag([0.5, 0.5]), atol=1e-14)

    def test_full_mask_matches_kalman_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            P, C, V, dims = random_instance(rng)
            D = oracle_structured_gain(P, C, V, dims, StructuredMask.FULL)
            K = P @ C.T @ np.linalg.inv(V + C @ P @ C.T)
            assert_allclose(D, K, atol=1e-10)


class TestPosteriorCov:
    def test_zero_gain_returns_prior(self):
        P = random_psd(np.random.default_rng(0), 3)
        C = np.ones((2, 3))
        assert_allclose(posterior_cov(P, np.zeros((3, 2)), C, np.eye(2)), (P + P.T) / 2)

    def test_identity_half_gain(self):
        out = posterior_cov(np.eye(2), 0.5 * np.eye(2), np.eye(2), np.eye(2))
        assert_allclose(out, 0.5 * np.eye(2), atol=1e-15)

    def test_symmetric_psd_for_arbitrary_gain(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            P, C, V, dims = random_instance(rng)
            D = rng.standard_normal((dims.n, dims.m))
            out = posterior_cov(P, D, C, V)
            assert_allclose(out, out.T, atol=0)
            assert np.linalg.eigvalsh(out)[0] >= -1e-12 * np.trace(out)


class TestConditioning:
    def test_ill_conditioned_innovation_warns(self):
        dims = BlockDims(2, 1, 2, 1)
        V = np.diag([1.0, 1e-14, 1.0])  # sensor-1 block has condition 1e14
        with pytest.warns(RuntimeWarning, match="ill conditioned"):
            optimal_gain(np.zeros((3, 3)), np.eye(3), V, dims, DelayOutcome(0, 0))
