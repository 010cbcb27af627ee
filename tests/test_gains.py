import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from conftest import random_instance, random_model, random_psd
from netkalman.filtering import predict_cov
from netkalman.model import ALL_OUTCOMES, FIXTURE_NAMES, BlockDims, DelayOutcome, fixture
from netkalman.gains import (
    COND_WARN,
    PSD_TOL,
    StructuredMask,
    _check_psd,
    _dot,
    _gain_plan,
    _lu_inverse,
    _spd_inverse,
    gain_set,
    innovation_blocks,
    mask_for_outcome,
    mask_pattern,
    optimal_gain,
    oracle_structured_gain,
    posterior_cov,
    structured_gain,
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
        assert_allclose(blocks.xcov1, [[1.0], [0.0]])
        assert_allclose(blocks.s11_inv, [[0.5]])
        assert_allclose(blocks.xcov2, [[0.0], [1.0]])
        assert_allclose(blocks.s22_inv, [[0.5]])

    def test_coupled_prior(self):
        P = np.array([[1.0, 0.5], [0.5, 1.0]])
        blocks = innovation_blocks(P, np.eye(2), np.eye(2), DIMS_2X2)
        assert_allclose(blocks.s11_inv, [[0.5]])
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

    @given(seed=st.integers(0, 2**32 - 1))
    def test_oracle_agreement_hypothesis(self, seed):
        # property: every closed-form gain is the exact masked minimizer
        P, C, V, dims = random_instance(np.random.default_rng(seed))
        for oc in ALL_OUTCOMES:
            D = optimal_gain(P, C, V, dims, oc)
            Dref = oracle_structured_gain(P, C, V, dims, mask_for_outcome(oc))
            assert np.abs(D - Dref).max() < 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    def test_gain_set_equals_optimal_gain(self, seed):
        # gain_set shares one set of innovation blocks across the three
        # delayed outcomes; each gain must keep optimal_gain's bits
        rng = np.random.default_rng(seed)
        P, C, V, dims = random_instance(rng)
        stack = np.array([random_psd(rng, dims.n) for _ in range(3)])
        for prior in (P, stack):
            gs = gain_set(prior, C, V, dims)
            for oc in ALL_OUTCOMES:
                assert np.array_equal(gs.for_outcome(oc),
                                      optimal_gain(prior, C, V, dims, oc))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_delayed_gains_are_rows_of_kalman_and_local_gains(self, seed):
        # property: the posterior trace separates over the rows of the
        # gain, so an on-time subsystem keeps its rows of the Kalman gain
        # (outcome 11) and a delayed one its local gain (outcome 00)
        rng = np.random.default_rng(seed)
        P, C, V, dims = random_instance(rng)
        stack = np.array([random_psd(rng, dims.n) for _ in range(3)])
        rows = (slice(0, dims.n1), slice(dims.n1, dims.n))
        for prior in (P, stack):
            full = optimal_gain(prior, C, V, dims, DelayOutcome(1, 1))
            local = optimal_gain(prior, C, V, dims, DelayOutcome(0, 0))
            for oc in (DelayOutcome(0, 1), DelayOutcome(1, 0)):
                D = optimal_gain(prior, C, V, dims, oc)
                for gamma, r in zip((oc.gamma1, oc.gamma2), rows):
                    ref = full if gamma else local
                    assert np.array_equal(D[..., r, :], ref[..., r, :])

    @given(seed=st.integers(0, 2**32 - 1),
           outcomes=st.lists(st.sampled_from(ALL_OUTCOMES), min_size=1, max_size=8))
    def test_mixed_outcome_stack_equals_optimal_gain(self, seed, outcomes):
        # each layer of a stack may have its own outcome and keeps the bits
        # of optimal_gain for that outcome alone
        rng = np.random.default_rng(seed)
        _, C, V, dims = random_instance(rng)
        stack = np.array([random_psd(rng, dims.n) for _ in outcomes])
        gamma1 = np.array([oc.gamma1 for oc in outcomes])
        gamma2 = np.array([oc.gamma2 for oc in outcomes])
        D = structured_gain(stack, C, V, dims, gamma1, gamma2)
        for r, oc in enumerate(outcomes):
            assert np.array_equal(D[r], optimal_gain(stack[r], C, V, dims, oc))


    @pytest.mark.parametrize("name", ["toy_identity", "case1_stable"])
    def test_empty_indicators_give_an_empty_gain_stack(self, name):
        # no layer, so no outcome: the stack of gains is empty but keeps its
        # (n, m) matrix axes, whether the priors or the indicators are empty
        model = fixture(name)[0]
        none = np.zeros(0, dtype=int)
        for P in (np.zeros((0, model.n, model.n)), np.eye(model.n)):
            D = structured_gain(P, model.C, model.V, model.dims, none, none)
            assert D.shape == (0, model.n, model.m)

    @given(seed=st.integers(0, 2**32 - 1),
           outcomes=st.lists(st.sampled_from(ALL_OUTCOMES), min_size=1, max_size=6))
    def test_gain_set_and_structured_gain_equal_oracle(self, seed, outcomes):
        # property: both stacked entry points give the exact masked
        # minimizer, to the tolerance of acceptance criterion 1
        rng = np.random.default_rng(seed)
        P, C, V, dims = random_instance(rng)
        gs = gain_set(P, C, V, dims)
        for oc in ALL_OUTCOMES:
            Dref = oracle_structured_gain(P, C, V, dims, mask_for_outcome(oc))
            assert np.abs(gs.for_outcome(oc) - Dref).max() < 1e-8
        stack = np.array([random_psd(rng, dims.n) for _ in outcomes])
        D = structured_gain(stack, C, V, dims, [oc.gamma1 for oc in outcomes],
                            [oc.gamma2 for oc in outcomes])
        for prior, oc, got in zip(stack, outcomes, D):
            Dref = oracle_structured_gain(prior, C, V, dims, mask_for_outcome(oc))
            assert np.abs(got - Dref).max() < 1e-8


def _prior_with_min_eig(rel, n=3, seed=0):
    """Symmetric prior with eigenvalues 1, 0.5, ..., and ``rel`` times the largest."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    eigs = np.r_[1.0, np.linspace(0.5, 0.1, n - 2), rel]
    P = (Q * eigs) @ Q.T
    return (P + P.T) / 2.0


# The fixtures, and random models: max_n = 1 draws n1 = n2 = 1 and
# max_m = 1 draws m1 = m2 = 1; the larger bounds draw 1 among other sizes.
PLAN_MODELS = (st.sampled_from(FIXTURE_NAMES).map(lambda name: fixture(name)[0])
               | st.builds(lambda seed, max_n, max_m: random_model(
                   np.random.default_rng(seed), max_n, max_m),
                   st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.sampled_from([1, 2])))


class TestGainPlan:
    """``_gain_plan``: each way of assembling a gain against the row selection."""

    @settings(max_examples=60)
    @given(model=PLAN_MODELS, runs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           checked=st.booleans())
    @example(model=fixture("toy_identity")[0], runs=2, seed=0, checked=False)
    def test_single_outcome_plans_have_the_bytes_of_a_mixed_stack(self, model, runs, seed,
                                                                   checked):
        # property: a plan for one outcome, on a 2-D prior (through matmul
        # and through _dot) and on a stack with scalar indicators, gives
        # each prior's gain the bytes of its layer inside a mixed-outcome
        # stack, which selects rows with np.where
        rng = np.random.default_rng(seed)
        C, CT, V, dims = model.C, model.C.T, model.V, model.dims
        priors = np.array([predict_cov(model, random_psd(rng, model.n)) for _ in range(runs)])
        mixed = _gain_plan(C, CT, V, dims, [oc.gamma1 for oc in ALL_OUTCOMES] * runs,
                           [oc.gamma2 for oc in ALL_OUTCOMES] * runs,
                           checked)(np.repeat(priors, 4, axis=0)).reshape(runs, 4, model.n, -1)
        for o, oc in enumerate(ALL_OUTCOMES):
            single = _gain_plan(C, CT, V, dims, oc.gamma1, oc.gamma2, checked)
            assert single(priors).tobytes() == mixed[:, o].tobytes()
            for r, prior in enumerate(priors):
                for mul in (np.matmul, _dot):
                    got = _gain_plan(C, CT, V, dims, oc.gamma1, oc.gamma2, checked, mul)(prior)
                    assert got.tobytes() == mixed[r, o].tobytes()


class TestPsdCheck:
    # The check runs on every gain call, whatever the delay outcomes: in
    # gain_set, innovation_blocks and structured_gain, all on time included.
    DIMS = BlockDims(2, 1, 1, 1)
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    V = np.eye(2)

    def _calls(self, P):
        C, V, dims = self.C, self.V, self.DIMS
        return [lambda: gain_set(P, C, V, dims), lambda: innovation_blocks(P, C, V, dims),
                lambda: structured_gain(P, C, V, dims, 0, 1),
                lambda: structured_gain(P, C, V, dims, 1, 1),
                lambda: structured_gain(np.array([P, P]), C, V, dims, [1, 1], [1, 0])]

    @pytest.mark.parametrize("P", [np.zeros((3, 3)), _prior_with_min_eig(0.0),
                                   _prior_with_min_eig(-1e-10)],
                             ids=["zero", "singular", "slightly_negative"])
    def test_psd_within_tolerance_passes(self, P):
        # the Cholesky factorization fails on each; the eigenvalue test passes it
        for call in self._calls(P):
            call()

    def test_indefinite_beyond_tolerance_raises(self):
        for call in self._calls(_prior_with_min_eig(-1e-6)):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                call()

    def test_one_bad_layer_fails_the_stack(self):
        stack = np.array([np.eye(3), _prior_with_min_eig(-1e-6)])
        with pytest.raises(ValueError, match="min eig -1.000e-06"):
            gain_set(stack, self.C, self.V, self.DIMS)

    def test_infinite_prior_raises_linalg_error(self):
        # the Cholesky factor of an infinite prior is not finite, so the
        # fallback runs and rejects the prior by name before any eigensolve
        P = np.diag([1.0, np.inf, 1.0])
        for call in self._calls(P):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
                call()

    @given(seed=st.integers(0, 2**32 - 1),
           rel=st.sampled_from([0.0, 1e-12, -1e-12, -1e-9, -5e-9, -2e-8, -1e-6, -1.0]),
           scale=st.sampled_from([1e-6, 1.0, 1e6]),
           poison=st.sampled_from([None, np.inf, -np.inf, np.nan]))
    def test_verdict_equals_eigenvalue_test(self, seed, rel, scale, poison):
        # the Cholesky shortcut never changes the verdict of the
        # eigenvalue test it stands in front of; a non-finite prior is
        # rejected by name
        P = scale * _prior_with_min_eig(rel, n=2 + seed % 3, seed=seed)
        stack = np.array([P, scale * np.eye(len(P))])
        if poison is not None:
            stack[seed % 2, 0, -1] = stack[seed % 2, -1, 0] = poison

        def verdict(check):
            try:
                with np.errstate(invalid="ignore"):
                    check(stack)
            except (ValueError, np.linalg.LinAlgError) as exc:
                return type(exc), str(exc)
            return None

        def eigenvalue_test(P):
            if not np.isfinite(P).all():
                raise ValueError("P has non-finite entries")
            eigs = np.linalg.eigvalsh(P)
            bad = eigs[..., 0] < -PSD_TOL * np.maximum(eigs[..., -1], 1.0)
            if np.any(bad):
                worst = np.min(eigs[..., 0][bad])
                raise ValueError(f"P is not positive semidefinite (min eig {worst:.3e})")

        assert verdict(_check_psd) == verdict(eigenvalue_test)


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

    def test_non_pd_support_raises(self):
        # S = V is indefinite, and every mask's support holds its -1 entry
        for mask in StructuredMask:
            with pytest.raises(np.linalg.LinAlgError):
                oracle_structured_gain(np.zeros((2, 2)), np.eye(2), np.diag([1.0, -1.0]),
                                       DIMS_2X2, mask)


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

    def test_singular_cross_coupling_warns(self):
        # S11 and S22 are 1x1, so well conditioned, but two perfectly
        # correlated states make the full S = I + 1e14 * ones nearly
        # singular; every outcome that uses the Kalman gain must say so
        P = 1e14 * np.ones((2, 2))
        for oc in (DelayOutcome(1, 1), DelayOutcome(0, 1), DelayOutcome(1, 0)):
            with pytest.warns(RuntimeWarning, match="ill conditioned"):
                optimal_gain(P, np.eye(2), np.eye(2), DIMS_2X2, oc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimal_gain(P, np.eye(2), np.eye(2), DIMS_2X2, DelayOutcome(0, 0))


# Every double: a uniform 64-bit pattern reaches NaN payloads, subnormals and
# both infinities, which hypothesis' float strategy draws only at its edges.
_DOUBLES = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))))


def _outcome(call):
    """The bits of ``call()``, or its error, and the warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
            result = (result.shape, result.tobytes())
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _unscreened_spd_inverse(M, what):
    """``_spd_inverse`` as it was before its screen: the estimate on every layer."""
    M_inv = np.linalg.inv(M)
    c = np.abs(M).sum(-2).max(-1) * np.abs(M_inv).sum(-2).max(-1)
    ill = c[c > COND_WARN]
    if ill.size:
        warnings.warn(f"{what} is ill conditioned (cond ~ {ill.max():.2e})", RuntimeWarning)
    return M_inv


class TestOneByOneInverse:
    @given(entries=st.lists(_DOUBLES.filter(lambda x: x != 0.0), min_size=1, max_size=6))
    def test_reciprocal_has_the_bits_of_lapack(self, entries):
        # a 1x1 stack with no zero entry is inverted as 1.0 / M: the same
        # bits as np.linalg.inv, NaN payloads included, and no warning
        M = np.array(entries).reshape(-1, 1, 1)
        assert _outcome(lambda: _lu_inverse(M)) == _outcome(lambda: np.linalg.inv(M))
        assert _outcome(lambda: _lu_inverse(M[0])) == _outcome(lambda: np.linalg.inv(M[0]))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_entry_raises(self, zero):
        with pytest.raises(np.linalg.LinAlgError):
            _lu_inverse(np.array([2.0, zero, np.nan]).reshape(3, 1, 1))
        with pytest.raises(np.linalg.LinAlgError):
            _lu_inverse(np.array([[zero]]))

    @pytest.mark.parametrize("a", [5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                                   np.inf, -np.inf, np.nan])
    def test_single_matrix_at_edge_values(self, a):
        # a single (1, 1) matrix is inverted by a Python float division:
        # the bits of np.linalg.inv and of the same entry inside a stack,
        # and no floating-point signal, even where numpy would raise
        M, stack = np.array([[a]]), np.array([2.0, a, -3.0]).reshape(3, 1, 1)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got, layer = _lu_inverse(M), _lu_inverse(stack)[1]
        assert got.shape == (1, 1)
        assert got.tobytes() == np.linalg.inv(M).tobytes() == layer.tobytes()


@st.composite
def _conditioning_stacks(draw):
    """Stacks of n x n layers: well conditioned, condition 1e11 to 1e17, NaN or inf.

    All layers share one scale, from near underflow to near overflow, and
    many are well conditioned, so that many stacks pass the screen.  An
    ``edge`` layer has a condition number near ``COND_WARN``, and at n = 2
    an estimate close to the screen's bound.
    """
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.sampled_from([-308, -300, -20, 0, 20, 300, 307]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    kinds = st.sampled_from(["good"] * 4 + ["ill"] * 2 + ["edge"] * 2 + ["nan", "inf"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "edge" and n > 1:
            M = np.eye(n)
            M[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 4.0 * 10.0 ** -rng.uniform(11.5, 12.5)]]
        else:
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            log_cond = rng.uniform(11.0, 17.0) if kind == "ill" else rng.uniform(0.0, 3.0)
            M = (Q * np.logspace(0.0, -log_cond, n)) @ Q.T
            M = (M + M.T) / 2.0
        M *= scale
        if kind in ("nan", "inf"):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            M[i, j] = M[j, i] = draw(st.sampled_from([np.nan] if kind == "nan"
                                                     else [np.inf, -np.inf]))
        layers.append(M)
    return np.array(layers)


class TestConditionScreen:
    @given(M=_conditioning_stacks())
    def test_warns_exactly_when_the_estimate_does(self, M):
        # the screen changes neither the inverse nor any warning, the
        # ill-conditioning text and its cond ~ figure included
        assert (_outcome(lambda: _spd_inverse(M, "S"))
                == _outcome(lambda: _unscreened_spd_inverse(M, "S")))

    @pytest.mark.parametrize("cond", [0.99e12, 1.05e12, 1.9e12])
    def test_estimate_near_the_screens_bound(self, cond):
        # at n = 2 with entries of one magnitude the estimate is within
        # rounding of the bound n^2 a b, so a looser screen would hide a warning
        M = np.array([[[1.0, 1.0], [1.0, 1.0 + 4.0 / cond]], np.eye(2)])
        result, caught = _outcome(lambda: _spd_inverse(M, "S"))
        assert (result, caught) == _outcome(lambda: _unscreened_spd_inverse(M, "S"))
        assert [m for _, m in caught] == ([] if cond < COND_WARN else
                                          [f"S is ill conditioned (cond ~ {cond:.2e})"])

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_stack(self, n):
        M = np.zeros((0, n, n))
        assert _outcome(lambda: _spd_inverse(M, "S")) == (((0, n, n), b""), [])


# Entries that reach a product's special cases: both zeros, both
# infinities, NaN, subnormals and the largest doubles, among any others.
_PRODUCT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.0 ** -1040,
                     1e308, -1e308]),
    st.floats(-4.0, 4.0),
    _DOUBLES,
)


@st.composite
def _dot_operand(draw, shape, block=False):
    """A float array of ``shape``: C-contiguous, F-contiguous or, if ``block``, a block of one."""
    values = draw(hnp.arrays(np.float64, shape, elements=_PRODUCT_ENTRIES))
    layout = draw(st.sampled_from(["C", "F", "block"] if block else ["C", "F"]))
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "block":
        (rows, cols), (top, left) = shape, draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        whole = np.zeros((top + rows + draw(st.integers(0, 2)), left + cols + 2))
        whole[top:top + rows, left:left + cols] = values
        return whole[top:top + rows, left:left + cols]
    return np.ascontiguousarray(values)


class TestDotRoute:
    """``gains._dot``, the product of the single filter run, against ``@``."""

    @given(m=st.integers(1, 5), k=st.integers(1, 5), p=st.integers(0, 5), data=st.data())
    def test_has_the_bytes_of_matmul(self, m, k, p, data):
        # property: on the operands the filter gives it (a contiguous
        # matrix or a block of one, times a contiguous matrix, its own
        # transpose or a vector; p = 0 draws a vector) _dot returns the
        # shape and bytes of a @ b, whatever the zeros, infinities, NaN
        # and subnormals among the entries
        a = data.draw(_dot_operand((m, k), block=True))
        if p == m and (a.flags.c_contiguous or a.flags.f_contiguous) and data.draw(st.booleans()):
            b = a.T  # one buffer, the symmetric rank-k case of both routes
        else:
            b = data.draw(_dot_operand((k,) if p == 0 else (k, p)))
        with np.errstate(all="ignore"):
            got, want = _dot(a, b), a @ b
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a, b", [
        ([[0.0]], [[np.inf, 1.0]]),
        ([[np.inf], [-0.0]], [[0.0]]),
        ([[-0.0]], [0.0]),
        ([[1.0], [np.nan]], [[-0.0, np.inf]]),
    ])
    def test_inner_dimension_one_goes_to_matmul(self, a, b):
        # ndarray.dot takes a 1x1 operand for a scalar, and 0 * inf is NaN
        # only through matmul; _dot keeps matmul's bytes
        a, b = np.array(a), np.array(b)
        with np.errstate(all="ignore"):
            assert _dot(a, b).tobytes() == (a @ b).tobytes()
