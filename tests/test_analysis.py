import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg as sla

from conftest import random_model, random_psd
from netkalman.model import (
    ALL_OUTCOMES, BlockDims, DelayModel, DelayOutcome, SystemModel, validate_model,
)
from netkalman import analysis
from netkalman.analysis import (
    EmpiricalCritical,
    InapplicableError,
    NormMinima,
    _bound_orbits,
    boundedness_test,
    bounds_from_minima,
    cov_bound_sequence,
    critical_bounds,
    divergence_witness,
    empirical_critical,
    expected_kron_update,
    expected_next_cov,
    first_prediction_cov,
    kron_update_radius,
    masked_norm_minima,
    min_structured_norm,
    one_step_cov,
    residual_gram,
    residual_gram_floor,
)
from netkalman.filtering import initial_state, predict, predict_cov, update
from netkalman.gains import StructuredMask, gain_set, mask_pattern, optimal_gain, posterior_cov


# One (lambda1, lambda2) pair per layer of a stack; 0 and 1 make outcomes
# impossible in some layers and possible in others.
LAMBDA_TABLES = st.lists(
    st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2),
    min_size=1, max_size=5,
)


def make_model(A, C1, C2, n1, W=None, V=None, Sigma0=None):
    n = A.shape[0]
    m = C1.shape[0] + C2.shape[0]
    return SystemModel(
        n1=n1, n2=n - n1, A=A, C1=C1, C2=C2,
        W=np.eye(n) if W is None else W,
        V=np.eye(m) if V is None else V,
        Sigma0=np.eye(n) if Sigma0 is None else Sigma0,
    )


class TestCovOperators:
    def test_zero_gain(self, case1):
        Y = random_psd(np.random.default_rng(0), 4)
        X = np.zeros((4, 3))
        assert_allclose(one_step_cov(case1, X, Y),
                        case1.A @ Y @ case1.A.T + case1.W, atol=1e-12)

    def test_zero_gain_zero_cov_gives_noise(self, case1):
        out = one_step_cov(case1, np.zeros((4, 3)), np.zeros((4, 4)))
        assert_allclose(out, case1.W)

    def test_term_decomposition(self, case1):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 3))
        Y = random_psd(rng, 4)
        F = case1.A - case1.A @ X @ case1.C
        AX = case1.A @ X
        total = F @ Y @ F.T + AX @ case1.V @ AX.T + case1.W
        assert_allclose(one_step_cov(case1, X, Y), (total + total.T) / 2, atol=1e-12)

    def test_matches_filter_covariance_path(self, toy):
        # one_step_cov is the filter's update followed by its time update
        rng = np.random.default_rng(2)
        Y = random_psd(rng, 2)
        D = optimal_gain(Y, toy.C, toy.V, toy.dims, DelayOutcome(1, 1))
        via_filter = predict_cov(toy, posterior_cov(Y, D, toy.C, toy.V))
        assert np.array_equal(one_step_cov(toy, D, Y), via_filter)
        Ys = np.array([random_psd(rng, 2) for _ in range(3)])
        Ds = optimal_gain(Ys, toy.C, toy.V, toy.dims, DelayOutcome(0, 1))
        stacked = one_step_cov(toy, Ds, Ys)
        for k in range(3):
            via_filter = predict_cov(toy, posterior_cov(Ys[k], Ds[k], toy.C, toy.V))
            assert np.array_equal(stacked[k], via_filter)

    def test_residual_gram_psd(self, case1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            G = residual_gram(case1, X)
            assert np.linalg.eigvalsh((G + G.T) / 2)[0] >= -1e-12


class TestExpectedNextCov:
    def test_no_delay_corner_is_single_outcome(self, case1):
        Y = random_psd(np.random.default_rng(4), 4)
        D = optimal_gain(Y, case1.C, case1.V, case1.dims, DelayOutcome(1, 1))
        assert_allclose(expected_next_cov(case1, DelayModel(0, 0), Y),
                        one_step_cov(case1, D, (Y + Y.T) / 2), atol=1e-13)

    def test_always_delay_corner_is_single_outcome(self, case1):
        Y = random_psd(np.random.default_rng(5), 4)
        D = optimal_gain(Y, case1.C, case1.V, case1.dims, DelayOutcome(0, 0))
        assert_allclose(expected_next_cov(case1, DelayModel(1, 1), Y),
                        one_step_cov(case1, D, (Y + Y.T) / 2), atol=1e-13)

    def test_four_outcome_enumeration_identity(self, case1):
        # the expected map must equal the probability-weighted average of
        # the four realized predict(update) covariance maps
        rng = np.random.default_rng(6)
        delays = DelayModel(0.3, 0.6)
        for _ in range(10):
            Y = random_psd(rng, 4)
            gs = gain_set(Y, case1.C, case1.V, case1.dims)
            expected = np.zeros((4, 4))
            for oc in ALL_OUTCOMES:
                P_post = posterior_cov(Y, gs.for_outcome(oc), case1.C, case1.V)
                nxt = case1.A @ P_post @ case1.A.T + case1.W
                expected += delays.outcome_probability(oc) * nxt
            got = expected_next_cov(case1, delays, Y)
            assert np.abs(got - expected).max() < 1e-12

    def test_full_gain_outcome_dominates(self, case1):
        # the on-time outcome's gain minimizes the posterior covariance in
        # the matrix order, so its propagated covariance sits below the
        # other three outcomes'
        rng = np.random.default_rng(9)
        for _ in range(25):
            Y = random_psd(rng, 4)
            gs = gain_set(Y, case1.C, case1.V, case1.dims)
            t = {lab: one_step_cov(case1, gs.for_outcome(DelayOutcome.from_label(lab)), Y)
                 for lab in ("11", "01", "10", "00")}
            for high in ("01", "10", "00"):
                assert np.linalg.eigvalsh(t[high] - t["11"])[0] >= -1e-9

    def test_monotone_along_probability_edges(self, case1):
        # with one channel never delayed, raising the other probability
        # only trades the on-time outcome for a dominated one, so the
        # expected map is matrix-monotone along the axes
        rng = np.random.default_rng(8)
        for _ in range(25):
            Y = random_psd(rng, 4)
            g_lo2 = expected_next_cov(case1, DelayModel(0.0, 0.2), Y)
            g_hi2 = expected_next_cov(case1, DelayModel(0.0, 0.8), Y)
            g_lo1 = expected_next_cov(case1, DelayModel(0.2, 0.0), Y)
            g_hi1 = expected_next_cov(case1, DelayModel(0.9, 0.0), Y)
            assert np.linalg.eigvalsh(g_hi2 - g_lo2)[0] >= -1e-9
            assert np.linalg.eigvalsh(g_hi1 - g_lo1)[0] >= -1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="matrix-order concavity fails for the masked trace-optimal "
        "gains: they do not minimize the A-weighted propagated covariance "
        "(see notes in the acceptance suite for criterion 4)",
    )
    def test_concavity_matrix_order_spec_claim(self, case1):
        rng = np.random.default_rng(7)
        delays = DelayModel(0.4, 0.7)
        for _ in range(25):
            Y1 = random_psd(rng, 4)
            Y2 = random_psd(rng, 4)
            for a in (0.25, 0.5, 0.75):
                mix = expected_next_cov(case1, delays, a * Y1 + (1 - a) * Y2)
                avg = a * expected_next_cov(case1, delays, Y1) \
                    + (1 - a) * expected_next_cov(case1, delays, Y2)
                assert np.linalg.eigvalsh(mix - avg)[0] >= -1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="interior matrix-order monotonicity inherits the same defect "
        "through the delayed-outcome comparison terms",
    )
    def test_monotonicity_matrix_order_spec_claim(self, case1):
        rng = np.random.default_rng(8)
        for _ in range(25):
            Y = random_psd(rng, 4)
            g_lo = expected_next_cov(case1, DelayModel(0.3, 0.2), Y)
            g_hi2 = expected_next_cov(case1, DelayModel(0.3, 0.8), Y)
            g_hi1 = expected_next_cov(case1, DelayModel(0.9, 0.2), Y)
            assert np.linalg.eigvalsh(g_hi2 - g_lo)[0] >= -1e-9
            assert np.linalg.eigvalsh(g_hi1 - g_lo)[0] >= -1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="only the on-time outcome's gain has matrix-order dominance; "
        "the 01/00 and 10/00 comparisons fail for trace-optimal gains",
    )
    def test_outcome_cost_full_chain_spec_claim(self, case1):
        rng = np.random.default_rng(9)
        for _ in range(25):
            Y = random_psd(rng, 4)
            gs = gain_set(Y, case1.C, case1.V, case1.dims)
            t = {lab: one_step_cov(case1, gs.for_outcome(DelayOutcome.from_label(lab)), Y)
                 for lab in ("11", "01", "10", "00")}
            for low, high in (("01", "00"), ("10", "00")):
                assert np.linalg.eigvalsh(t[high] - t[low])[0] >= -1e-9

    def test_trace_ordering_of_outcome_costs_weighted_by_state_cost(self, case1):
        # what does survive for the delayed outcomes: the posterior trace
        # at each outcome's own optimal gain orders by mask nesting; see
        # the gains test suite for that property.  Here: the expected map
        # is exactly the probability mixture of the outcome maps.
        rng = np.random.default_rng(10)
        Y = random_psd(rng, 4)
        delays = DelayModel(0.25, 0.6)
        gs = gain_set(Y, case1.C, case1.V, case1.dims)
        mix = np.zeros((4, 4))
        for oc in ALL_OUTCOMES:
            mix += delays.outcome_probability(oc) * one_step_cov(
                case1, gs.for_outcome(oc), Y)
        assert np.abs(expected_next_cov(case1, delays, Y) - mix).max() < 1e-12

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lams=LAMBDA_TABLES,
    )
    def test_stack_layers_keep_single_bits(self, seed, lams):
        # property: each layer of a stack, and a lone matrix, equal the
        # tensordot of the possible outcomes' one-step covariances bit for bit
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        delays = [DelayModel(*lam) for lam in lams]
        Ys = np.array([random_psd(rng, model.n) for _ in delays])
        stacked = expected_next_cov(model, delays, Ys)
        for Y, d, got in zip(Ys, delays, stacked):
            Y = (Y + Y.T) / 2.0
            gs = gain_set(Y, model.C, model.V, model.dims)
            live = [oc for oc in ALL_OUTCOMES if d.outcome_probability(oc) > 0.0]
            X = np.stack([gs.for_outcome(oc) for oc in live])
            p = np.array([d.outcome_probability(oc) for oc in live])
            want = np.tensordot(p, one_step_cov(model, X, Y), 1)
            assert np.array_equal(got, want)
            assert np.array_equal(expected_next_cov(model, d, Y), want)

    def test_mixed_live_outcome_counts_keep_single_bits(self):
        # a 7-layer stack, the shape of one bisection stack, whose layers
        # have 1, 2 and 4 possible outcomes: each count is summed by its
        # own matmul, and every layer keeps the bits it has alone
        rng = np.random.default_rng(77)
        model = random_model(rng)
        lams = [(0.0, 0.0), (1.0, 0.5), (0.3, 0.6), (0.5, 1.0), (0.0, 1.0), (0.3, 0.6),
                (1.0, 0.5)]
        delays = [DelayModel(*lam) for lam in lams]
        counts = [sum(d.outcome_probability(oc) > 0.0 for oc in ALL_OUTCOMES) for d in delays]
        assert sorted(set(counts)) == [1, 2, 4]
        Ys = np.array([random_psd(rng, model.n) for _ in delays])
        stacked = expected_next_cov(model, delays, Ys)
        for Y, d, got in zip(Ys, delays, stacked):
            assert np.array_equal(got, expected_next_cov(model, d, Y))


def plain_bound_sequence(model, delays, steps):
    """Reference bound sequence: every step iterated, no cycle exit."""
    threshold = 1e12 * float(np.trace(model.W))
    ys = [first_prediction_cov(model)]
    while len(ys) < steps and not np.trace(ys[-1]) > threshold:
        ys.append(expected_next_cov(model, delays, ys[-1]))
    traces = np.array([float(np.trace(Y)) for Y in ys])
    diverged_at = len(ys) if traces[-1] > threshold else None
    return np.array(ys), traces, diverged_at


def plain_witness_traces(model, delays, steps):
    """Reference divergence-witness traces: every step iterated, no cycle exit."""
    threshold = 1e12 * float(np.trace(model.W))
    p00 = delays.lambda1 * delays.lambda2
    Y = first_prediction_cov(model)
    traces = [float(np.trace(Y))]
    while len(traces) < steps and not traces[-1] > threshold:
        D = optimal_gain(Y, model.C, model.V, model.dims, DelayOutcome(0, 0))
        Y = p00 * one_step_cov(model, D, Y) if p00 > 0.0 else np.zeros_like(Y)
        traces.append(float(np.trace(Y)))
    return np.array(traces)


def sequential_critical(model, lambda_fixed, fixed_which, horizon, bisect_tol):
    """Reference bisection: one plain bound sequence per probe, in order."""

    def delays_at(free):
        if fixed_which == 1:
            return DelayModel(lambda_fixed, free)
        return DelayModel(free, lambda_fixed)

    def bounded(free):
        return plain_bound_sequence(model, delays_at(free), horizon)[2] is None

    threshold = 1e12 * float(np.trace(model.W))
    h = bool(plain_witness_traces(model, delays_at(1.0), horizon)[-1] > threshold)
    if bounded(1.0):
        return EmpiricalCritical(fixed_which, lambda_fixed, 1.0, 1.0, 1.0, h, 1)
    if not bounded(0.0):
        return EmpiricalCritical(fixed_which, lambda_fixed, 0.0, 0.0, 0.0, h, 2)
    lo, hi, probes = 0.0, 1.0, 2
    while hi - lo > bisect_tol:
        mid = (lo + hi) / 2.0
        if bounded(mid):
            lo = mid
        else:
            hi = mid
        probes += 1
    return EmpiricalCritical(fixed_which, lambda_fixed, (lo + hi) / 2.0, lo, hi, h, probes)


class TestCovBoundSequence:
    def test_starts_at_first_prediction_cov(self, case1):
        seq = cov_bound_sequence(case1, DelayModel(0.5, 0.5), 3)
        assert_allclose(seq.value_at(1), first_prediction_cov(case1))

    def test_stable_always_delayed_plateaus(self, case1):
        seq = cov_bound_sequence(case1, DelayModel(1.0, 1.0), 200)
        assert not seq.diverged
        assert seq.plateaued(rtol=1e-8)

    def test_no_delay_limit_is_dare_solution(self, case1):
        seq = cov_bound_sequence(case1, DelayModel(0.0, 0.0), 300)
        C = case1.C
        P_star = sla.solve_discrete_are(case1.A.T, C.T, np.asarray(case1.W),
                                        np.asarray(case1.V))
        assert_allclose(seq.Y[-1], P_star, atol=1e-8)

    def test_degenerate_zero_system(self):
        model = make_model(np.zeros((2, 2)), np.eye(1), np.eye(1), 1,
                           W=np.zeros((2, 2)))
        seq = cov_bound_sequence(model, DelayModel(0.5, 0.5), 5,
                                 divergence_threshold=1e6)
        assert_allclose(seq.value_at(1), 0.0)
        assert_allclose(seq.traces, 0.0)

    def test_divergence_flag_and_truncation(self):
        # unstable subsystem 2 is unobservable to itself, so at always-
        # delayed probabilities the bound sequence must blow up
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.2]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        seq = cov_bound_sequence(model, DelayModel(1.0, 1.0), 400)
        assert seq.diverged
        assert seq.diverged_at == seq.steps_completed
        assert seq.traces[-1] > seq.threshold

    @pytest.mark.parametrize("lams", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.75),
                                      (1.0, 0.0)])
    def test_cycle_exit_equals_plain_iteration(self, case1, case2, lams):
        # both fixtures fall into an exact cycle well before step 400; the
        # tiled tail must be the iteration itself, bit for bit
        delays = DelayModel(*lams)
        for model in (case1, case2):
            seq = cov_bound_sequence(model, delays, 400)
            Y, traces, diverged_at = plain_bound_sequence(model, delays, 400)
            assert np.array_equal(seq.Y, Y)
            assert np.array_equal(seq.traces, traces)
            assert seq.diverged_at == diverged_at
            assert seq.diverged == (diverged_at is not None)
            w = divergence_witness(model, delays, 400)
            assert np.array_equal(w.traces, plain_witness_traces(model, delays, 400))

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lams=LAMBDA_TABLES,
    )
    def test_stacked_layers_equal_single_sequences(self, seed, lams):
        # property: a layer's bits do not depend on the other layers of
        # its stack, including outcomes that are impossible (lambda 0 or 1)
        # in some layers and possible in others
        rng = np.random.default_rng(seed)
        model = random_model(rng, spectral_radius=rng.uniform(0.5, 1.5))
        delays = [DelayModel(*lam) for lam in lams]
        for layer, d in zip(_bound_orbits(model, delays, 50, None), delays):
            single = cov_bound_sequence(model, d, 50)
            Y, traces = layer.tiled()
            assert np.array_equal(Y, single.Y)
            assert np.array_equal(traces, single.traces)
            assert (layer.diverged_at, layer.threshold) == (single.diverged_at, single.threshold)


class TestKronUpdate:
    def test_zero_gains_give_transition_square(self, case1):
        rho = kron_update_radius(case1, DelayModel(0.5, 0.5), np.zeros((4, 3)))
        rho_A = max(abs(np.linalg.eigvals(np.asarray(case1.A))))
        assert_allclose(rho, rho_A**2, rtol=1e-10)

    def test_identity_placements_cancel_terms(self):
        # with C = I, the identity gain zeroes out the propagation factor,
        # so the update matrix vanishes
        model = make_model(np.eye(2) * 0.9, np.eye(1), np.eye(1), 1)
        M = expected_kron_update(model, DelayModel(0.5, 0.5), np.eye(2))
        assert_allclose(M, 0.0, atol=1e-15)

    def test_steady_kalman_gain_contracts_at_zero_delay(self, case2):
        # with no delays only the unconstrained outcome is possible, so
        # the full Kalman gain is admissible
        C = case2.C
        P_star = sla.solve_discrete_are(case2.A.T, C.T, np.asarray(case2.W),
                                        np.asarray(case2.V))
        K = P_star @ C.T @ np.linalg.inv(np.asarray(case2.V) + C @ P_star @ C.T)
        assert kron_update_radius(case2, DelayModel(0.0, 0.0), K) < 1.0

    def test_mask_violation_rejected(self, case1):
        bad = np.ones((4, 3))
        with pytest.raises(ValueError, match="zero pattern"):
            kron_update_radius(case1, DelayModel(0.5, 0.5), bad)
        # one delayed channel forbids one cross block
        lower = np.ones((4, 3))
        lower[:2, 2:] = 0.0
        kron_update_radius(case1, DelayModel(1.0, 0.0), lower)
        with pytest.raises(ValueError, match="upper_block"):
            kron_update_radius(case1, DelayModel(0.0, 1.0), lower)

    def test_shape_validation(self, case1):
        with pytest.raises(ValueError, match="shape"):
            kron_update_radius(case1, DelayModel(0.5, 0.5), np.zeros((3, 4)))

    def test_radius_equals_kron_eigenvalues(self, case1, case2):
        for model in (case1, case2):
            X = masked_norm_minima(model).X
            M = expected_kron_update(model, DelayModel(0.5, 0.5), X)
            assert_allclose(kron_update_radius(model, DelayModel(0.5, 0.5), X),
                            np.abs(np.linalg.eigvals(M)).max(), rtol=1e-12)


class TestMinStructuredNorm:
    def test_square_invertible_sensing_reaches_zero(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((3, 3))
        dims = BlockDims(2, 1, 2, 1)
        res = min_structured_norm(A, np.eye(3), dims)
        assert res.value < 1e-20
        assert_allclose(res.X, np.eye(3), atol=1e-9)

    def test_zero_sensing_leaves_norm(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3))
        dims = BlockDims(2, 1, 1, 1)
        target = np.linalg.norm(A, 2) ** 2
        res = min_structured_norm(A, np.zeros((2, 3)), dims)
        assert_allclose(res.value, target, rtol=1e-12)

    def test_full_mask_matches_projection_residual(self):
        # closed form for the unconstrained minimum: projecting out the
        # measured row space, r = ||A (I - pinv(C) C)||^2
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, full_row_rank=True)
            A, C = np.asarray(model.A), model.C
            res = min_structured_norm(A, C, model.dims)
            resid = A @ (np.eye(model.n) - np.linalg.pinv(C) @ C)
            closed = np.linalg.norm(resid, 2) ** 2
            assert res.value <= closed + 1e-9
            assert res.value >= closed - 1e-9

    def test_random_search_cannot_beat_solver(self, case1):
        res = min_structured_norm(np.asarray(case1.A), case1.C, case1.dims)
        rng = np.random.default_rng(13)
        A, C = np.asarray(case1.A), case1.C
        best = res.value
        base = res.X
        for _ in range(500):
            X = base + 0.05 * rng.standard_normal(base.shape)
            best = min(best, np.linalg.norm(A - A @ X @ C, 2) ** 2)
        assert best >= res.value - 1e-4

    def test_certificate_is_feasible_and_certifies(self, case2):
        res = min_structured_norm(np.asarray(case2.A), case2.C, case2.dims)
        free = mask_pattern(StructuredMask.BLOCK_DIAG, case2.dims)
        assert np.all(res.X[~free] == 0.0)
        value = np.linalg.norm(np.asarray(case2.A) - case2.A @ res.X @ case2.C, 2) ** 2
        assert_allclose(value, res.value, rtol=1e-12)

    def test_coupled_sensing_rejected(self):
        # the closed form needs C = blkdiag(C1, C2); a sensor that also
        # reads the other subsystem's state is refused, not mis-solved
        dims = BlockDims(2, 1, 1, 1)
        upper = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        lower = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 1.0]])
        for C in (upper, lower):
            with pytest.raises(ValueError, match="diagonal blocks"):
                min_structured_norm(np.eye(3), C, dims)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_closed_form_beats_random_masked_gains(self, seed):
        # property: the certificate is feasible under all four masks, and
        # no random gain feasible under any mask does better
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        A, C, dims = np.asarray(model.A), model.C, model.dims
        res = min_structured_norm(A, C, dims)
        for mask in StructuredMask:
            free = mask_pattern(mask, dims)
            assert np.all(res.X[~free] == 0.0)
            for scale in (1e-3, 1e-1, 1.0):
                X = np.where(free, res.X + scale * rng.standard_normal(free.shape), 0.0)
                value = np.linalg.norm(A - A @ X @ C, 2) ** 2
                assert res.value <= value * (1 + 1e-12) + 1e-12


class TestNormMinima:
    def test_orderings_hold_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            model = random_model(rng)
            m = masked_norm_minima(model)
            assert m.r4 <= min(m.r2, m.r3)
            assert max(m.r2, m.r3) <= m.r1

    def test_fixture_minima_collapse_to_projection_value(self, case1):
        # block-diagonal sensing makes the projection gain feasible in
        # every mask, so all four minima coincide
        m = masked_norm_minima(case1)
        A, C = np.asarray(case1.A), case1.C
        closed = np.linalg.norm(A @ (np.eye(4) - np.linalg.pinv(C) @ C), 2) ** 2
        for r in (m.r1, m.r2, m.r3, m.r4):
            assert_allclose(r, closed, atol=1e-9)


class TestBoundednessTest:
    def test_identity_sensing_certifies_everywhere(self):
        model = make_model(1.5 * np.eye(2), np.eye(1), np.eye(1), 1)
        for l1 in (0.0, 0.5, 1.0):
            for l2 in (0.0, 0.5, 1.0):
                rep = boundedness_test(model, DelayModel(l1, l2))
                assert rep.r1 < 1e-18 and rep.r4 < 1e-18
                assert rep.certified

    def test_zero_delay_needs_only_full_mask(self, case2):
        rep = boundedness_test(case2, DelayModel(0.0, 0.0))
        # r4 > 1 for this fixture, so even the best case is inconclusive;
        # verify the weighted sum uses only r4 at this corner
        assert_allclose(rep.weighted_sum, rep.r4, rtol=1e-12)

    def test_certified_at_zero_delay_when_r4_small(self, case1):
        rep = boundedness_test(case1, DelayModel(0.0, 0.0))
        assert rep.r4 < 1.0
        assert rep.certified

    def test_grid_verdicts_monotone(self, case1):
        minima = masked_norm_minima(case1)
        grid = (0.0, 0.5, 1.0)
        verdicts = {
            (l1, l2): boundedness_test(case1, DelayModel(l1, l2), minima=minima).certified
            for l1 in grid for l2 in grid
        }
        for l1 in grid:
            for l2 in grid:
                if verdicts[(l1, l2)]:
                    for k1 in grid:
                        for k2 in grid:
                            if k1 <= l1 and k2 <= l2:
                                assert verdicts[(k1, k2)]

    def test_report_serialization(self, case1):
        rep = boundedness_test(case1, DelayModel(0.25, 0.75))
        text = rep.to_text()
        assert "verdict" in text
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "lambda1,lambda2,r1,r2,r3,r4,weighted_sum,verdict"
        rho = kron_update_radius(case1, DelayModel(0.25, 0.75), rep.certificates())
        assert rho <= rep.weighted_sum + 1e-9


class TestResidualGramFloor:
    def test_identity_sensing_gives_zero_floor(self):
        model = make_model(0.8 * np.eye(2), np.eye(1), np.eye(1), 1)
        res = residual_gram_floor(model)
        assert_allclose(res.X1, np.eye(1))
        assert_allclose(res.X2, np.eye(1))
        assert res.alpha == 0.0

    def test_wide_block_uses_right_pseudo_inverse(self):
        C1 = np.array([[1.0, 0.0]])
        C2 = np.eye(1)
        A = np.diag([0.9, 1.1, 0.7])
        model = make_model(A, C1, C2, 2)
        res = residual_gram_floor(model)
        assert_allclose(res.X1, np.array([[1.0], [0.0]]))
        assert_allclose(res.X2, np.eye(1))
        # independent evaluation of the floor
        Xstar = res.stacked(model.dims)
        F = A - A @ Xstar @ model.C
        assert_allclose(res.alpha, np.linalg.eigvalsh(F.T @ F)[0], atol=1e-12)
        # the pseudo-inverse gain attains the smallest possible floor:
        # no random block-diagonal gain goes lower
        rng = np.random.default_rng(15)
        dims = model.dims
        for _ in range(200):
            X = np.zeros((3, 2))
            X[:2, :1] = rng.standard_normal((2, 1))
            X[2:, 1:] = rng.standard_normal((1, 1))
            G = residual_gram(model, X)
            assert np.linalg.eigvalsh((G + G.T) / 2)[0] >= res.alpha - 1e-8

    def test_trace_minimality_for_identity_dynamics(self):
        # with identity dynamics the pseudo-inverse gain is also the
        # Frobenius minimizer; compare against a masked least-squares fit
        C1 = np.array([[1.0, 1.0]])
        C2 = np.eye(1)
        model = make_model(np.eye(3), C1, C2, 2)
        res = residual_gram_floor(model)
        Xstar = res.stacked(model.dims)
        # masked least squares: vec(X C) = (C^T kron I) vec(X), Fortran order
        free = mask_pattern(StructuredMask.BLOCK_DIAG, model.dims).flatten(order="F")
        design = np.kron(model.C.T, np.eye(3))[:, free]
        sol, *_ = np.linalg.lstsq(design, np.eye(3).flatten(order="F"), rcond=None)
        Xls = np.zeros(free.size)
        Xls[free] = sol
        Xls = Xls.reshape((3, 2), order="F")
        tr_star = np.trace(residual_gram(model, Xstar))
        tr_ls = np.trace(residual_gram(model, Xls))
        assert_allclose(tr_star, tr_ls, atol=1e-10)

    def test_zero_dynamics_zero_floor(self):
        model = make_model(np.zeros((2, 2)), np.eye(1), np.eye(1), 1)
        assert residual_gram_floor(model).alpha == 0.0

    def test_rank_deficient_block_rejected(self):
        C1 = np.array([[1.0, 0.0], [1.0, 0.0]])  # rank 1, two rows
        model = make_model(np.eye(3), C1, np.eye(1), 2,
                           V=np.eye(3))
        with pytest.raises(InapplicableError):
            residual_gram_floor(model)

    def test_tall_block_rejected(self):
        C1 = np.array([[1.0], [0.5]])  # more sensors than states
        model = make_model(np.eye(2), C1, np.eye(1), 1, V=np.eye(3))
        with pytest.raises(InapplicableError):
            residual_gram_floor(model)


def synthetic_minima(r1, r2, r3, r4):
    return NormMinima(r1=r1, r2=r2, r3=r3, r4=r4, X=np.zeros((2, 2)))


class TestCriticalBounds:
    def test_equal_minima_below_one_certifies_whole_axis(self):
        m = synthetic_minima(0.8, 0.8, 0.8, 0.8)
        b = bounds_from_minima(m, 0.7, 1, alpha=2.0)
        assert b.lower == 1.0 and b.upper == 1.0

    def test_equal_minima_above_one_gives_zero_lower(self):
        m = synthetic_minima(1.5, 1.5, 1.5, 1.5)
        b = bounds_from_minima(m, 0.7, 1, alpha=None)
        assert b.lower == 0.0 and b.upper == 1.0

    def test_upper_bound_caps_at_one(self):
        m = synthetic_minima(2.0, 1.5, 1.2, 0.5)
        b = bounds_from_minima(m, 0.5, 1, alpha=1.5)
        assert b.upper == 1.0  # alpha * lambda_fixed < 1

    def test_large_dynamics_give_exact_zero_floor_and_unit_upper(self):
        # at this scale an eigensolve of the singular residual Gram
        # returns rounding of order one, which no bound may use
        r = np.random.default_rng(9)
        A = 1e8 * r.standard_normal((5, 5))
        model = make_model(A, r.standard_normal((1, 3)), r.standard_normal((1, 2)), 3)
        assert validate_model(model).ok
        b = critical_bounds(model, 1.0, 1)
        assert b.alpha == 0.0
        assert b.lower == 0.0 and b.upper == 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 1.0),
           fixed_which=st.sampled_from([1, 2]))
    def test_bracket_is_closed_form(self, seed, lam, fixed_which):
        # property: alpha is exactly 0 and the bracket is [1, 1] if r1 <= 1,
        # [0, 1] otherwise, with no rounding left in either
        model = random_model(np.random.default_rng(seed), full_row_rank=True)
        b = critical_bounds(model, lam, fixed_which)
        assert b.alpha == 0.0
        assert (b.lower, b.upper) == ((1.0, 1.0) if b.r1 <= 1.0 else (0.0, 1.0))

    def test_case1_hits_certified_branch(self, case1):
        from netkalman.analysis import critical_bounds
        b = critical_bounds(case1, 1.0, 1)
        assert b.lower == 1.0 and b.upper == 1.0
        assert b.alpha == 0.0

    def test_serialization(self):
        m = synthetic_minima(2.0, 1.5, 1.2, 0.5)
        b = bounds_from_minima(m, 0.4, 1, alpha=None, empirical=0.55)
        assert "empirical" in b.to_csv().splitlines()[0]
        assert "unavailable" in b.to_text()


class TestDivergenceWitness:
    def test_stable_fixture_bounded_even_always_delayed(self, case1):
        w = divergence_witness(case1, DelayModel(1.0, 1.0), steps=300)
        assert not w.diverged

    def test_zero_product_probability_collapses(self, case1):
        w = divergence_witness(case1, DelayModel(0.0, 1.0), steps=20)
        assert not w.diverged
        assert w.traces[-1] < w.traces[0]

    def test_unobservable_unstable_subsystem_diverges(self):
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.2]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        w = divergence_witness(model, DelayModel(1.0, 1.0), steps=400)
        assert w.diverged

    @pytest.mark.parametrize("steps", [0, -5])
    def test_nonpositive_steps_rejected(self, case1, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            divergence_witness(case1, DelayModel(1.0, 1.0), steps=steps)

    def test_small_product_probability_contracts(self):
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.2]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        # growth rate 1.2^2 < 1/0.5, so the damped iteration stays finite
        w = divergence_witness(model, DelayModel(0.5, 1.0), steps=400)
        assert not w.diverged


class TestEmpiricalCritical:
    def test_nonpositive_tolerance_rejected(self):
        # a zero tolerance used to bisect forever on a model that bisects
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.3]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        for tol in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="bisect_tol"):
                empirical_critical(model, 1.0, 1, horizon=50, bisect_tol=tol)

    def test_identity_sensing_never_diverges(self):
        model = make_model(0.9 * np.eye(2), np.eye(1), np.eye(1), 1)
        est = empirical_critical(model, 1.0, 1, horizon=200)
        assert est.estimate == 1.0
        assert not est.h_diverged

    def test_bisection_brackets_partially_observable_system(self):
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.3]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        est = empirical_critical(model, 1.0, 1, horizon=300, bisect_tol=0.02)
        assert 0.0 < est.estimate < 1.0
        assert est.bracket_high - est.bracket_low <= 0.02 + 1e-12
        # boundedness really flips across the bracket
        lo_seq = cov_bound_sequence(model, DelayModel(1.0, est.bracket_low), 300)
        hi_seq = cov_bound_sequence(model, DelayModel(1.0, est.bracket_high), 300)
        assert not lo_seq.diverged
        assert hi_seq.diverged
        assert est.h_diverged  # at free probability one the witness blows up

    def test_estimate_within_closed_form_bracket(self, case1, case2):
        for model in (case1, case2):
            minima = masked_norm_minima(model)
            try:
                alpha = residual_gram_floor(model).alpha
            except InapplicableError:
                alpha = None
            bnds = bounds_from_minima(minima, 1.0, 1, alpha)
            est = empirical_critical(model, 1.0, 1, horizon=250)
            assert bnds.lower - 0.02 <= est.estimate <= bnds.upper + 0.02

    @pytest.fixture(scope="class")
    def hidden_mode_runs(self, hidden_mode):
        """(result, gain_set calls) of empirical_critical and of the reference."""
        runs = {}
        for name, bisect in (("stacked", empirical_critical), ("sequential", sequential_critical)):
            calls = [0]

            def counting_gain_set(*args, **kwargs):
                calls[0] += 1
                return gain_set(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "gain_set", counting_gain_set)
                runs[name] = bisect(hidden_mode, 0.5, 2, 400, bisect_tol=0.02), calls[0]
        return runs

    def test_hidden_mode_equals_sequential_bisection(self, hidden_mode_runs):
        est = hidden_mode_runs["stacked"][0]
        assert 0.0 < est.estimate < 1.0
        assert est == hidden_mode_runs["sequential"][0]

    @pytest.mark.parametrize("bisect_tol", [0.05, 0.1])
    def test_partial_lookahead_equals_sequential_bisection(self, hidden_mode, bisect_tol):
        # 5 and 4 bisection levels: the last stack of midpoints is cut short
        for fixed_which in (1, 2):
            est = empirical_critical(hidden_mode, 0.5, fixed_which, 200, bisect_tol=bisect_tol)
            assert est == sequential_critical(hidden_mode, 0.5, fixed_which, 200, bisect_tol)

    def test_hidden_mode_halves_gain_set_calls(self, hidden_mode_runs):
        # work-count guard: the stacked probes and the cycle exit make at
        # most half the gain_set calls of probe-by-probe plain iteration
        assert hidden_mode_runs["stacked"][1] <= hidden_mode_runs["sequential"][1] / 2
