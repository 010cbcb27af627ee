import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg as sla

from conftest import exact_prior_means, random_model, random_psd, unseen_mode_model
from netkalman.model import (
    ALL_OUTCOMES, FIXTURE_NAMES, BlockDims, DelayModel, DelayOutcome, SystemModel, fixture,
    validate_model,
)
from netkalman import analysis, gains
from netkalman.analysis import (
    CovBoundSequence,
    EmpiricalCritical,
    InapplicableError,
    NormMinima,
    boundedness_test,
    bounds_from_minima,
    cov_bound_sequence,
    critical_bounds,
    divergence_witness,
    empirical_critical,
    expected_next_cov,
    kron_update_radius,
    masked_norm_minima,
    min_structured_norm,
    one_step_cov,
    residual_gram_floor,
)
from netkalman.filtering import initial_state, predict, predict_cov, update
from netkalman.montecarlo import kalman_baseline
from netkalman.gains import (
    StructuredMask, gain_set, mask_pattern, optimal_gain, posterior_cov,
)


# One (lambda1, lambda2) pair per layer of a stack; 0 and 1 make outcomes
# impossible in some layers and possible in others.
LAMBDA_TABLES = st.lists(
    st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2),
    min_size=1, max_size=5,
)
# One bisection stack: 7 layers with 1, 2 and 4 possible outcomes.
BISECTION_STACK = [(0.0, 0.0), (1.0, 0.5), (0.3, 0.6), (0.5, 1.0), (0.0, 1.0), (0.3, 0.6),
                   (1.0, 0.5)]


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
            t = {lab: one_step_cov(
                     case1, gs.for_outcome(DelayOutcome(int(lab[0]), int(lab[1]))), Y)
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
            t = {lab: one_step_cov(
                     case1, gs.for_outcome(DelayOutcome(int(lab[0]), int(lab[1]))), Y)
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

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lams=LAMBDA_TABLES,
    )
    @example(seed=77, lams=BISECTION_STACK)
    def test_mixed_live_outcome_counts_keep_single_bits(self, seed, lams):
        # property: layers with different counts of possible outcomes are
        # summed by one matmul per count, and every layer of a random stack
        # keeps the bits it has alone, including outcomes that are
        # impossible (lambda 0 or 1) in some layers and possible in others
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        delays = [DelayModel(*lam) for lam in lams]
        counts = {sum(d.outcome_probability(oc) > 0.0 for oc in ALL_OUTCOMES) for d in delays}
        assert lams != BISECTION_STACK or counts == {1, 2, 4}
        Ys = np.array([random_psd(rng, model.n) for _ in delays])
        stacked = expected_next_cov(model, delays, Ys)
        for Y, d, got in zip(Ys, delays, stacked):
            assert np.array_equal(got, expected_next_cov(model, d, Y))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), lams=LAMBDA_TABLES, data=st.data())
    def test_zero_table_row_maps_to_zero(self, seed, lams, data):
        # a table row with no outcome of positive probability (the witness's
        # table at p00 = 0) maps its layer to +0.0, alone or in a stack, and
        # the other layers of the stack keep the bits they have alone
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        delays = [DelayModel(*lam) for lam in lams]
        zero = data.draw(st.integers(0, len(delays)))
        p = np.insert(analysis._outcome_probabilities(delays), zero, 0.0, axis=0)
        Ys = np.array([random_psd(rng, model.n) for _ in p])
        stacked = analysis._expected_map(model, p)(Ys)
        for got in (stacked[zero], analysis._expected_map(model, p[[zero]])(Ys[[zero]])[0]):
            assert np.array_equal(got, np.zeros((model.n, model.n)))
            assert not np.signbit(got).any()
        others = np.arange(len(p)) != zero
        for Y, d, got in zip(Ys[others], delays, stacked[others]):
            assert np.array_equal(got, expected_next_cov(model, d, Y))


def plain_bound_sequence(model, delays, steps):
    """Reference bound sequence: every step iterated, no cycle exit."""
    threshold = 1e12 * float(np.trace(model.W))
    ys = [predict_cov(model, model.Sigma0)]
    while len(ys) < steps and not np.trace(ys[-1]) > threshold:
        ys.append(expected_next_cov(model, delays, ys[-1]))
    traces = np.array([float(np.trace(Y)) for Y in ys])
    diverged_at = len(ys) if traces[-1] > threshold else None
    return np.array(ys), traces, diverged_at


def plain_witness_step(model, p00, Y):
    """Reference divergence-witness step: the both-delayed gain alone, scaled by p00."""
    D = optimal_gain(Y, model.C, model.V, model.dims, DelayOutcome(0, 0))
    return p00 * one_step_cov(model, D, Y) if p00 > 0.0 else np.zeros_like(Y)


def plain_witness_traces(model, delays, steps):
    """Reference divergence-witness traces: every step iterated, no cycle exit."""
    threshold = 1e12 * float(np.trace(model.W))
    p00 = delays.lambda1 * delays.lambda2
    Y = predict_cov(model, model.Sigma0)
    traces = [float(np.trace(Y))]
    while len(traces) < steps and not traces[-1] > threshold:
        Y = plain_witness_step(model, p00, Y)
        traces.append(float(np.trace(Y)))
    return np.array(traces)


def plain_growth_bounded(model, delays, budget):
    """Reference rate verdict of one probe: normalized power steps of G(sY)/s, one at a time."""
    s = 1e8 * max(np.trace(model.W), np.trace(model.V) / (np.sum(model.C**2) or np.inf))
    Y, log_u, log_half, last = np.eye(model.n), 0.0, 0.0, np.nan
    for k in range(budget):
        Y = expected_next_cov(model, delays, s * Y) / s
        rate = np.linalg.eigvalsh(Y)[-1]
        log_u += np.log(rate) if rate > 0.0 else -np.inf
        if log_u < 0.0:  # (b): the norm-product bound is below 1
            return True
        if abs(rate - last) <= 1e-12 * rate:  # (a): the rate has settled
            return bool(rate < 1.0)
        if k < budget // 2:
            log_half = log_u
        Y, last = Y / rate, rate
    # budget spent: the mean log rate over its second half decides
    return bool(log_u < log_half)


def period_two_model():
    """A model whose normalized rates cycle with period 2 and never settle.

    Subsystem 2 (states 1 and 2) has no sensor and swaps its states,
    ``A22 @ A22 = 1.1 I``.  State 1 drives state 0, which sensor 1 sees;
    with lambda1 = 0 that measurement reveals state 1 unless the
    subsystem-2 estimate is late (probability lambda2).  So the rates
    alternate between 4 lambda2 and 0.3025, and over two steps the map
    grows by 1.21 lambda2: the critical lambda2 is 1 / 1.21.
    """
    A = np.array([[0.5, 1.0, 0.0], [0.0, 0.0, 0.55], [0.0, 2.0, 0.0]])
    return make_model(A, np.eye(1), np.zeros((1, 2)), 1)


def witness_counterexample_model():
    """A random model whose witness map diverges where its norm-product bound is below 1.

    Draw 43 of ``random_model(rng, max_n=3, max_m=1, spectral_radius=rng.uniform(1.05,
    2.5))`` with ``rng = np.random.default_rng(2026)`` (each draw followed by one
    ``rng.uniform(0, 1)`` per axis), written out to full precision.  With lambda1
    fixed at 0.34777963752430907 and lambda2 = 1, the homogenized witness map's
    first rates from I are 6.33, 2.95, 0.143, 0.143, so their product ``U_3`` is
    below 1, yet its long-run rate is about 1.16 and the witness diverges.
    """
    A = np.array([
        [2.275517773434127, -0.11709757326250175, -0.6562400413251057, -1.1729416718238197,
         -3.743787471376904],
        [-0.8368050465507308, -0.4407472438330792, -1.0499612178278674, -1.5052208357476184,
         -0.15716771622936274],
        [-0.5896638741027583, 0.18115601893422054, -1.532099599379193, 2.839260069546553,
         0.7964917585033079],
        [-0.27512616466494866, -1.2233589644661358, -1.5061902172339088, 1.1709825624768064,
         -0.6558077458092673],
        [0.043775526230827935, 0.5977266288598974, -0.859764049609641, 0.35740918439607217,
         -2.8658006726728433],
    ])
    W = np.array([
        [3.0500390821502865, -2.038646171694327, -0.7841280000458771, -2.758941006084177,
         -0.7067799721783585],
        [-2.038646171694327, 7.237101461555082, -2.312718387669793, 1.6862618152823057,
         1.5228956578630575],
        [-0.7841280000458771, -2.312718387669793, 2.624774572067805, 0.36996245231999403,
         0.18343390480143895],
        [-2.758941006084177, 1.6862618152823057, 0.36996245231999403, 4.014364099473249,
         -0.5906492735703098],
        [-0.7067799721783585, 1.5228956578630575, 0.18343390480143895, -0.5906492735703098,
         2.220761331590143],
    ])
    V = np.array([[1.8413253027191312, -1.2196949756608326],
                  [-1.2196949756608326, 1.1063853346797015]])
    Sigma0 = np.array([
        [11.42151045238559, 0.11104690251125804, 3.0410025580144526, -1.4451497305317142,
         0.06312159032213575],
        [0.11104690251125804, 4.473718404393984, 1.3154077699820799, 1.4097001921350996,
         -2.133259822293709],
        [3.0410025580144526, 1.3154077699820799, 3.6690996063022956, 1.3136356472049562,
         -1.701748660688901],
        [-1.4451497305317142, 1.4097001921350996, 1.3136356472049562, 7.368345921682325,
         0.6580418426042213],
        [0.06312159032213575, -2.133259822293709, -1.701748660688901, 0.6580418426042213,
         2.4667603491101575],
    ])
    C1 = np.array([[-0.984088105656567, -1.9519285710788044]])
    C2 = np.array([[-0.43167093073078694, -0.4479876069776393, 1.7289640163821058]])
    return make_model(A, C1, C2, 2, W=W, V=V, Sigma0=Sigma0)


def sequential_critical(model, lambda_fixed, fixed_which, horizon, bisect_tol):
    """Reference bisection: one plain rate verdict per probe, in order."""

    def delays_at(free):
        if fixed_which == 1:
            return DelayModel(lambda_fixed, free)
        return DelayModel(free, lambda_fixed)

    def bounded(free):
        return plain_growth_bounded(model, delays_at(free), horizon)

    def witness():
        threshold = 1e12 * float(np.trace(model.W))
        traces = plain_witness_traces(model, delays_at(1.0), horizon)
        return SimpleNamespace(diverged=bool(traces[-1] > threshold))

    if bounded(1.0):
        return EmpiricalCritical(fixed_which, lambda_fixed, 1.0, 1.0, 1.0, 1, _witness=witness)
    if not bounded(0.0):
        return EmpiricalCritical(fixed_which, lambda_fixed, 0.0, 0.0, 0.0, 2, _witness=witness)
    lo, hi, probes = 0.0, 1.0, 2
    while hi - lo > bisect_tol:
        mid = (lo + hi) / 2.0
        if bounded(mid):
            lo = mid
        else:
            hi = mid
        probes += 1
    return EmpiricalCritical(fixed_which, lambda_fixed, (lo + hi) / 2.0, lo, hi, probes,
                             _witness=witness)


def assert_same_estimate(est, ref):
    """``est == ref`` leaves the deferred witness out, so its verdict is compared apart."""
    assert est == ref
    assert est.h_diverged == ref.h_diverged


def hidden_mode_draw(a, poles, coupling, rng):
    """A model shaped like the benchmark's seeded hidden-mode models, with mode ``a``."""
    A = np.array([[a, 0.0, 0.0], [0.0, poles[0], 0.0], [coupling[0], coupling[1], poles[1]]])

    def psd(n):
        G = 0.3 * rng.standard_normal((n, n))
        return G @ G.T + np.eye(n)

    return SystemModel(n1=2, n2=1, A=A, C1=np.array([[0.0, 1.0]]), C2=np.array([[1.0]]),
                       W=psd(3), V=psd(2), Sigma0=psd(3))


class TestCovBoundSequence:
    def test_starts_at_first_prediction_cov(self, case1):
        seq = cov_bound_sequence(case1, DelayModel(0.5, 0.5), 3)
        assert_allclose(seq.Y[0], predict_cov(case1, case1.Sigma0))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           lams=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2))
    def test_equals_exact_eec_before_the_first_jensen_step(self, seed, lams):
        # Y_1 = E[P_1] is deterministic and Y_2 = G(Y_1) = E[P_2]; from
        # t = 3 on they can differ unless only one outcome is possible.
        model, delays = random_model(np.random.default_rng(seed)), DelayModel(*lams)
        one_outcome = set(lams) <= {0.0, 1.0}
        T = 8 if one_outcome else 2
        seq = cov_bound_sequence(model, delays, T)
        exact = exact_prior_means(model, delays, T)[:seq.steps_completed]
        assert np.abs(seq.Y - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.xfail(
        strict=True,
        reason="the bound sequence is not an upper bound on the EEC, even in "
        "trace: on case2_unstable at (0.25, 0.75), tr Y_3 = 20.7846 lies below "
        "tr E[P_3] = 20.7882, a pure Jensen gap since Y_2 = E[P_2]",
    )
    def test_bounds_exact_eec_trace_spec_claim(self, case2):
        delays = DelayModel(0.25, 0.75)
        seq = cov_bound_sequence(case2, delays, 3)
        exact = exact_prior_means(case2, delays, 3)
        assert seq.traces[2] >= np.trace(exact[2])

    def test_one_trace_never_plateaus(self, case1):
        # a plateau compares the last two traces, so one trace has none
        seq = cov_bound_sequence(case1, DelayModel(0.5, 0.5), 1)
        assert len(seq.traces) == 1 and not seq.diverged
        assert not seq.plateaued(rtol=np.inf)

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
        assert_allclose(seq.Y[0], 0.0)
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
                                      (1.0, 0.0), (0.34777963752430907, 1.0)])
    def test_cycle_exit_equals_plain_iteration(self, case1, case2, lams):
        # the orbits fall into exact cycles of period 1, 2, 3, 8 and 10 well
        # before step 400, and at the last lambda pair the witness of
        # witness_counterexample_model diverges at step 130; the tiled tail
        # must be the iteration itself, bit for bit
        delays = DelayModel(*lams)
        for model, steps in itertools.product(
                (case1, case2, period_two_model(), witness_counterexample_model()), (1, 7, 400)):
            seq = cov_bound_sequence(model, delays, steps)
            Y, traces, diverged_at = plain_bound_sequence(model, delays, steps)
            assert np.array_equal(seq.Y, Y)
            assert np.array_equal(seq.traces, traces)
            assert seq.diverged_at == diverged_at
            assert seq.diverged == (diverged_at is not None)
            w = divergence_witness(model, delays, steps)
            assert np.array_equal(w.traces, plain_witness_traces(model, delays, steps))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           lams=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 2))
    def test_witness_on_random_models_equals_plain_iteration(self, seed, lams):
        # the witness steps the outcome table's 00 column; on random models,
        # at p00 = 0, p00 = 1 and in between, each iterate is the reference
        # step of the one before, bit for bit (the cycle-filled tail too),
        # and the traces and divergence step are the plain iteration's
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_m=1, spectral_radius=rng.uniform(0.5, 2.5))
        delays = DelayModel(*lams)
        w = divergence_witness(model, delays, 50)
        traces = plain_witness_traces(model, delays, 50)
        assert np.array_equal(w.traces, traces)
        assert w.diverged_at == (len(traces) if traces[-1] > w.threshold else None)
        assert np.array_equal(w.Y[0], predict_cov(model, model.Sigma0))
        for Y, Y_next in zip(w.Y, w.Y[1:]):
            assert np.array_equal(Y_next, plain_witness_step(model, lams[0] * lams[1], Y))


def swap_subsystems(model):
    """The model with subsystems 1 and 2 exchanged, and its state and sensor permutations."""
    s = np.r_[model.n1:model.n, :model.n1]
    y = np.r_[model.m1:model.m, :model.m1]
    swapped = SystemModel(n1=model.n2, n2=model.n1, A=model.A[np.ix_(s, s)],
                          C1=model.C2, C2=model.C1, W=model.W[np.ix_(s, s)],
                          V=model.V[np.ix_(y, y)], Sigma0=model.Sigma0[np.ix_(s, s)])
    return swapped, s, y


SWAP_MODELS = (st.sampled_from(FIXTURE_NAMES).map(lambda name: fixture(name)[0])
               | st.builds(lambda seed, rho: random_model(np.random.default_rng(seed),
                                                          spectral_radius=rho),
                           st.integers(0, 2**32 - 1), st.floats(0.5, 2.0)))


class TestSubsystemSwap:
    """Exchanging the two subsystems, and lambda1 with lambda2, permutes every result."""

    @settings(max_examples=20)
    @given(model=SWAP_MODELS, lams=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           fixed_which=st.sampled_from([1, 2]))
    def test_results_map_to_their_swaps(self, model, lams, fixed_which):
        swapped, s, y = swap_subsystems(model)
        delays, swapped_delays = DelayModel(*lams), DelayModel(*lams[::-1])
        seq = cov_bound_sequence(model, delays, 60)
        swapped_seq = cov_bound_sequence(swapped, swapped_delays, 60)
        assert_allclose(swapped_seq.traces, seq.traces, rtol=1e-12, atol=0)

        P = seq.Y[min(seq.steps_completed, 5) - 1]
        gains = gain_set(P, model.C, model.V, model.dims)
        swapped_gains = gain_set(P[np.ix_(s, s)], swapped.C, swapped.V, swapped.dims)
        for label, swapped_label in (("11", "11"), ("01", "10"), ("10", "01"), ("00", "00")):
            K = getattr(gains, f"d{label}")[np.ix_(s, y)]
            assert_allclose(getattr(swapped_gains, f"d{swapped_label}"), K,
                            rtol=0, atol=1e-12 * np.abs(K).max())

        assert (boundedness_test(swapped, swapped_delays).verdict
                == boundedness_test(model, delays).verdict)

        def bracket(est):
            return est.estimate, est.bracket_low, est.bracket_high, est.probes

        assert (bracket(empirical_critical(swapped, lams[0], 3 - fixed_which, horizon=60))
                == bracket(empirical_critical(model, lams[0], fixed_which, horizon=60)))


class TestKronUpdate:
    def test_zero_gains_give_transition_square(self, case1):
        rho = kron_update_radius(case1, DelayModel(0.5, 0.5), np.zeros((4, 3)))
        rho_A = max(abs(np.linalg.eigvals(np.asarray(case1.A))))
        assert_allclose(rho, rho_A**2, rtol=1e-10)

    def test_identity_placements_cancel_terms(self):
        # with C = I, the identity gain zeroes out the propagation factor,
        # so the update matrix vanishes
        model = make_model(np.eye(2) * 0.9, np.eye(1), np.eye(1), 1)
        assert kron_update_radius(model, DelayModel(0.5, 0.5), np.eye(2)) == 0.0

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
            F = model.A - model.A @ X @ model.C
            M = np.kron(F, F)
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

    @pytest.mark.parametrize("lams", [(0.5, 0.5), (0.3, 0.9)])
    def test_minima_at_one_are_inconclusive(self, lams):
        # the unseen random walk's minima are exactly 1 and its covariance
        # grows without bound (kalman_baseline reads 1002 at t = 1000); the
        # weighted sum rounds to 1.0 and to 0.9999999999999999 here, and
        # the verdict is taken from the minima, not from that rounding
        model = unseen_mode_model(1)
        rep = boundedness_test(model, DelayModel(*lams))
        assert (rep.r1, rep.r2, rep.r3, rep.r4) == (1.0, 1.0, 1.0, 1.0)
        assert rep.weighted_sum <= 1.0
        assert rep.verdict == "Inconclusive"
        assert kalman_baseline(model, 1000)[-1] > 1000

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam1=st.floats(0.0, 1.0), lam2=st.floats(0.0, 1.0),
           unit=st.sampled_from([None, 1.0, -1.0]))
    def test_certified_models_stay_bounded(self, seed, lam1, lam2, unit):
        # property: a certified model's certificate gain contracts and its
        # bound sequence stays below the divergence threshold; a mode of
        # modulus 1 that no sensor sees puts every minimum at 1 or above,
        # and is never certified
        rng = np.random.default_rng(seed)
        model = random_model(rng, spectral_radius=rng.uniform(0.2, 1.2))
        if unit is not None:
            A, C1 = np.array(model.A), np.array(model.C1)
            A[0, :] = A[:, 0] = 0.0
            A[0, 0] = unit
            C1[:, 0] = 0.0
            model = SystemModel(n1=model.n1, n2=model.n2, A=A, C1=C1, C2=model.C2,
                                W=model.W, V=model.V, Sigma0=model.Sigma0)
        delays = DelayModel(lam1, lam2)
        rep = boundedness_test(model, delays)
        if unit is not None:
            assert rep.r1 >= 1.0 and not rep.certified
        elif rep.certified:
            assert kron_update_radius(model, delays, rep.certificates()) < 1.0
            assert not cov_bound_sequence(model, delays, 400).diverged

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


def residual_gram(model, X):
    """``F^T F`` for the propagation factor ``F = A - A X C``."""
    F = model.A - model.A @ np.asarray(X, dtype=float) @ model.C
    return F.T @ F


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
        Xstar = sla.block_diag(res.X1, res.X2)
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
        Xstar = sla.block_diag(res.X1, res.X2)
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
        # property: alpha is exactly 0 and the bracket is [1, 1] if r1 < 1,
        # [0, 1] otherwise, with no rounding left in either
        model = random_model(np.random.default_rng(seed), full_row_rank=True)
        b = critical_bounds(model, lam, fixed_which)
        assert b.alpha == 0.0
        assert (b.lower, b.upper) == ((1.0, 1.0) if b.r1 < 1.0 else (0.0, 1.0))

    @pytest.mark.parametrize("lams", [(0.5, 0.5), (0.3, 0.9)])
    def test_minima_at_one_certify_nothing(self, lams):
        # the unseen random walk's minima are exactly 1 and its covariance
        # grows without bound, so r1 = 1 certifies no part of either axis
        model = unseen_mode_model(1)
        for fixed_which, lam in ((1, lams[0]), (2, lams[1])):
            b = critical_bounds(model, lam, fixed_which)
            assert b.r1 == 1.0
            assert (b.lower, b.upper) == (0.0, 1.0)

    def test_floor_unavailable_when_c1_has_more_rows_than_columns(self):
        model = make_model(0.5 * np.eye(2), np.array([[1.0], [2.0]]), np.eye(1), 1)
        b = critical_bounds(model, 0.5, 1)
        assert b.alpha is None
        assert "residual floor alpha: unavailable" in b.to_text()

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
    def test_no_full_inverse_for_outcomes_it_cannot_draw(self):
        # the witness reads only the 00 gain, so the full S of a model whose
        # sensor 2 sees nothing is never inverted; on these draws the full
        # S is ill conditioned at some iterates, and the 00 gains keep their bits
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = random_model(rng, max_m=1, spectral_radius=rng.uniform(1.05, 2.5))
            model = SystemModel(n1=m.n1, n2=m.n2, A=m.A, C1=m.C1, C2=np.zeros_like(m.C2),
                                W=m.W, V=m.V, Sigma0=m.Sigma0)
            delays = DelayModel(rng.uniform(0, 1), rng.uniform(0, 1))
            with warnings.catch_warnings():
                warnings.filterwarnings("error", message=".*ill conditioned")
                w = divergence_witness(model, delays, 300)
            # a cycle-filled tail repeats its pairs; each is checked once
            for Y, Y_next in {Y.tobytes(): (Y, Y_next) for Y, Y_next in zip(w.Y, w.Y[1:])}.values():
                assert np.array_equal(Y_next, plain_witness_step(
                    model, delays.lambda1 * delays.lambda2, Y))

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

    @pytest.mark.parametrize("steps", [2.5, "5", True, np.True_])
    @pytest.mark.parametrize("sequence", [cov_bound_sequence, divergence_witness])
    def test_non_integer_steps_rejected(self, case1, sequence, steps):
        with pytest.raises(ValueError, match="steps must be >= 1 and an integer"):
            sequence(case1, DelayModel(1.0, 1.0), steps)

    def test_small_product_probability_contracts(self):
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.2]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        # growth rate 1.2^2 < 1/0.5, so the damped iteration stays finite
        w = divergence_witness(model, DelayModel(0.5, 1.0), steps=400)
        assert not w.diverged

    def test_returns_the_bound_sequence_type(self, case1):
        w = divergence_witness(case1, DelayModel(1.0, 1.0), steps=30)
        assert isinstance(w, CovBoundSequence)
        assert w.Y.shape == (30, case1.n, case1.n)
        assert np.array_equal(w.traces, np.trace(w.Y, axis1=1, axis2=2))
        assert w.diverged_at is None


# The analysis entry points that take a divergence threshold, by name, each
# called over 50 steps.
THRESHOLD_CALLS = {
    "cov_bound_sequence": lambda model, t: cov_bound_sequence(model, DelayModel(0.5, 0.5), 50, t),
    "divergence_witness": lambda model, t: divergence_witness(model, DelayModel(0.5, 0.5), 50, t),
    "empirical_critical": lambda model, t: empirical_critical(
        model, 0.5, 1, horizon=50, divergence_threshold=t),
}


class TestDivergenceThreshold:
    # NaN used to make nothing diverge, a negative or zero threshold made
    # step 1 diverge, and inf let a diverging sequence overflow unreported
    @pytest.mark.parametrize("entry", sorted(THRESHOLD_CALLS))
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_threshold_rejected(self, case1, entry, threshold):
        with pytest.raises(ValueError, match="divergence_threshold must be finite and > 0"):
            THRESHOLD_CALLS[entry](case1, threshold)


class TestEmpiricalCritical:
    def test_nonpositive_tolerance_rejected(self):
        # a zero tolerance used to bisect forever on a model that bisects
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.3]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        for tol in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="bisect_tol must be finite and > 0"):
                empirical_critical(model, 1.0, 1, horizon=50, bisect_tol=tol)

    @pytest.mark.parametrize("tol", [1e-17, 5e-324])
    def test_tolerance_below_double_spacing_ends_at_adjacent_doubles(self, hidden_mode, tol):
        # the midpoint of adjacent doubles is one of them, so the bracket
        # stops shrinking there; such a tolerance used to bisect forever
        est = empirical_critical(hidden_mode, 0.5, 2, bisect_tol=tol)
        assert np.nextafter(est.bracket_low, 1.0) == est.bracket_high
        assert est.probes == 55
        default = empirical_critical(hidden_mode, 0.5, 2)
        assert (default.estimate, default.bracket_low, default.bracket_high, default.probes) \
            == (0.6328125, 0.625, 0.640625, 8)

    @pytest.mark.parametrize("horizon", [0, -3, 2.5, "400", True, np.True_])
    def test_bad_horizon_rejected_before_any_step(self, hidden_mode, horizon):
        # 0 used to raise "steps must be >= 1", naming no argument of this
        # function, 2.5 a bare TypeError, and True ran one probe step
        def no_step(*args, **kwargs):
            raise AssertionError("a probe ran before the arguments were checked")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_gain_plan", no_step)
            with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
                empirical_critical(hidden_mode, 0.5, 2, horizon=horizon)

    def test_witness_runs_at_first_read_only(self, case1, case2, hidden_mode):
        cases = [(case1, 1.0, 1), (case2, 0.5, 2), (hidden_mode, 1.0, 1), (hidden_mode, 0.5, 2),
                 (period_two_model(), 0.0, 1)]
        seen = set()
        for model, lam, fixed_which in cases:
            calls = []

            def counting_witness(*args, **kwargs):
                calls.append(args)
                return divergence_witness(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "divergence_witness", counting_witness)
                est = empirical_critical(model, lam, fixed_which, 400)
                assert calls == []
                first = est.h_diverged
                assert est.h_diverged == first and len(calls) == 1  # cached
            delays = DelayModel(lam, 1.0) if fixed_which == 1 else DelayModel(1.0, lam)
            assert first == divergence_witness(model, delays, 400).diverged
            seen.add(first)
        assert seen == {False, True}  # the hidden-mode axes differ

    def test_witness_diverges_where_its_norm_product_bound_is_below_one(self):
        # a rate verdict's rule (b) would call this witness map bounded,
        # so h_diverged must come from the witness itself
        model = witness_counterexample_model()
        lam = 0.34777963752430907
        delays = DelayModel(lam, 1.0)
        s = 1e8 * max(np.trace(model.W), np.trace(model.V) / np.sum(model.C**2))
        Y, rates = np.eye(model.n), []
        for _ in range(4):
            D = optimal_gain(s * Y, model.C, model.V, model.dims, DelayOutcome(0, 0))
            Y = lam * one_step_cov(model, D, s * Y) / s
            rates.append(np.linalg.eigvalsh(Y)[-1])
            Y = Y / rates[-1]
        assert np.prod(rates) < 1.0
        assert divergence_witness(model, delays, 400).diverged_at == 130
        assert empirical_critical(model, lam, 1).h_diverged

    @pytest.mark.parametrize("horizon", [300, 400, 401])
    def test_cycling_rates_decide_by_mean_log_rate(self, horizon):
        # at lambda2 = 1 the rates alternate 4, 0.3025 (rho = 1.1): neither
        # rule fires, and at an odd last step the last rate 0.3025 used to
        # call the whole axis bounded
        model = period_two_model()
        delays = [DelayModel(0.0, 1.0), DelayModel(0.0, 0.8)]
        assert list(analysis._growth_verdicts(model, delays, horizon)) == [False, True]
        assert [plain_growth_bounded(model, d, horizon) for d in delays] == [False, True]
        est = empirical_critical(model, 0.0, 1, horizon=horizon)
        assert 0.0 < est.estimate < 1.0
        assert est.bracket_low <= 1 / 1.21 <= est.bracket_high
        assert_same_estimate(est, sequential_critical(model, 0.0, 1, horizon, 0.02))

    @pytest.mark.parametrize("c, d", [(1e3, 1.0), (1.0, 1e3), (1e-3, 1e-3)])
    def test_rescaled_units_give_the_same_estimate_without_warnings(self, hidden_mode, c, d):
        # sensor units times c (C -> c C, V -> c**2 V) and state units times
        # d (C -> C / d, W -> d**2 W) describe the same estimator; s is in
        # state units, so S = V + s C Y C^T keeps its condition number
        m = hidden_mode
        rescaled = SystemModel(n1=2, n2=1, A=m.A, C1=c / d * m.C1, C2=c / d * m.C2,
                               W=d**2 * m.W, V=c**2 * m.V, Sigma0=d**2 * m.Sigma0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = empirical_critical(rescaled, 0.5, 2, 400)
            est.h_diverged  # the witness runs at this first read
        assert_same_estimate(est, empirical_critical(hidden_mode, 0.5, 2, 400))

    def test_zero_map_is_bounded_without_warnings(self):
        # A = 0 and W = 0 make every rate exactly 0, so U_1 = 0 decides
        model = make_model(np.zeros((2, 2)), np.eye(1), np.eye(1), 1, W=np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = empirical_critical(model, 0.5, 1, horizon=20)
            assert not est.h_diverged  # the witness runs at this first read
        assert (est.estimate, est.probes) == (1.0, 1)

    def test_identity_sensing_never_diverges(self):
        model = make_model(0.9 * np.eye(2), np.eye(1), np.eye(1), 1)
        est = empirical_critical(model, 1.0, 1, horizon=200)
        assert est.estimate == 1.0
        assert not est.h_diverged

    def test_bisection_brackets_partially_observable_system(self):
        # the mode 1.3 is seen by no sensor while subsystem 2 is late, so
        # the critical lambda2 is 1 / 1.3**2 = 0.5917
        model = make_model(np.array([[0.5, 1.0], [0.0, 1.3]]),
                           np.eye(1), np.zeros((1, 1)), 1)
        est = empirical_critical(model, 1.0, 1, horizon=300, bisect_tol=0.02)
        assert 0.0 < est.estimate < 1.0
        assert est.bracket_high - est.bracket_low <= 0.02 + 1e-12
        assert est.bracket_low <= 1 / 1.3**2 <= est.bracket_high
        # the rate verdict really flips across the bracket
        assert plain_growth_bounded(model, DelayModel(1.0, est.bracket_low), 300)
        assert not plain_growth_bounded(model, DelayModel(1.0, est.bracket_high), 300)
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
        """(result, expected-map gain calls) of empirical_critical and of the reference."""
        runs = {}
        for name, bisect in (("stacked", empirical_critical), ("sequential", sequential_critical)):
            with pytest.MonkeyPatch.context() as mp:
                calls = count_gain_steps(mp)
                runs[name] = bisect(hidden_mode, 0.5, 2, 400, bisect_tol=0.02), len(calls)
        return runs

    def test_hidden_mode_equals_sequential_bisection(self, hidden_mode_runs):
        est = hidden_mode_runs["stacked"][0]
        assert 0.0 < est.estimate < 1.0
        assert_same_estimate(est, hidden_mode_runs["sequential"][0])

    @pytest.mark.parametrize("bisect_tol", [0.05, 0.1])
    def test_partial_lookahead_equals_sequential_bisection(self, hidden_mode, bisect_tol):
        # 5 and 4 bisection levels: the last stack holds points of levels
        # the bisection never reaches
        for fixed_which in (1, 2):
            est = empirical_critical(hidden_mode, 0.5, fixed_which, 200, bisect_tol=bisect_tol)
            assert_same_estimate(
                est, sequential_critical(hidden_mode, 0.5, fixed_which, 200, bisect_tol))

    def test_hidden_mode_halves_gain_set_calls(self, hidden_mode_runs):
        # work-count guard: the stacked probes make at most half the
        # expected-map gain calls (one gain-kernel call a step) of
        # probe-by-probe rate verdicts
        assert 0 < hidden_mode_runs["stacked"][1] <= hidden_mode_runs["sequential"][1] / 2

    @pytest.mark.parametrize("lambda2", [0.0, 0.25, 0.5, 1.0])
    def test_hidden_mode_estimate_is_one_over_a_squared(self, hidden_mode, lambda2):
        # the unstable mode a = 1.25 is seen only through the cross
        # measurement, so the critical lambda1 is 1 / a**2 = 0.64 whatever
        # lambda2 is (Sinopoli et al. 2004)
        est = empirical_critical(hidden_mode, lambda2, 2, 400, bisect_tol=0.02)
        assert abs(est.estimate - 0.64) <= 0.02
        assert est.bracket_low <= 0.64 <= est.bracket_high

    @settings(max_examples=25)
    @given(
        a=st.floats(1.05, 1.6),
        poles=st.tuples(st.floats(0.3, 0.6), st.floats(0.3, 0.6)),
        coupling=st.tuples(st.floats(0.8, 1.2), st.floats(-0.2, 0.2)),
        lambda2=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_hidden_mode_bracket_contains_one_over_a_squared(
            self, a, poles, coupling, lambda2, seed):
        model = hidden_mode_draw(a, poles, coupling, np.random.default_rng(seed))
        est = empirical_critical(model, lambda2, 2, 400, bisect_tol=0.02)
        assert est.bracket_low <= 1 / a**2 <= est.bracket_high

    def test_fixture_ends_take_few_gain_calls(self, case1, case2, toy):
        # work-count guard: the growth rate decides both ends of every
        # fixture axis within a few steps (a 300-step threshold race used
        # to run all 300 on a bounded end)
        for model in (case1, case2, toy):
            for fixed_which, lam in ((1, 1.0), (2, 0.5)):
                with pytest.MonkeyPatch.context() as mp:
                    calls = count_gain_steps(mp)
                    est = empirical_critical(model, lam, fixed_which, horizon=300)
                assert est.estimate == 1.0
                assert 0 < len(calls) <= 6


# Outcome-table rows of each kind the expected map handles: no positive
# entry, entries summing to less than 1 (some of them 0), one positive
# entry, and four positive entries of a delay model, summing to 1.
TABLE_ROWS = st.one_of(
    st.just([0.0] * 4),
    st.lists(st.just(0.0) | st.floats(0.01, 0.24), min_size=4, max_size=4),
    st.builds(lambda i, q: [q if j == i else 0.0 for j in range(4)],
              st.integers(0, 3), st.floats(0.05, 1.0)),
    st.builds(lambda l1, l2: [DelayModel(l1, l2).outcome_probability(oc) for oc in ALL_OUTCOMES],
              st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
)
PLAN_MODELS = (st.sampled_from(FIXTURE_NAMES).map(lambda name: fixture(name)[0])
               | st.integers(0, 2**32 - 1).map(lambda seed: random_model(
                   np.random.default_rng(seed))))


def count_calls(monkeypatch, name, owner=analysis):
    """Replace ``owner.<name>`` by a wrapper that records each call; return the record."""
    calls, wrapped = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_gain_steps(monkeypatch):
    """Make each gain plan that ``analysis`` makes record its steps; return the record."""
    steps, plan = [], analysis._gain_plan

    def counted_plan(*args, **kwargs):
        gain = plan(*args, **kwargs)

        def counted(P):
            steps.append((P,))
            return gain(P)

        return counted

    monkeypatch.setattr(analysis, "_gain_plan", counted_plan)
    return steps


class TestExpectedMap:
    """The expected map planned once per outcome table and stepped many times."""

    @settings(max_examples=40)
    @given(model=PLAN_MODELS, rows=st.lists(TABLE_ROWS, min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    @example(model=fixture("case2_unstable")[0],
             rows=[[0.0] * 4, [0.1, 0.0, 0.2, 0.3], [0.0, 0.0, 0.7, 0.0],
                   [0.09, 0.21, 0.21, 0.49]], seed=3)
    def test_reused_plan_equals_fresh_map_bit_for_bit(self, model, rows, seed):
        # property: a plan stepped 12 times gives at each step the bits of
        # a freshly planned step, on tables with zero rows, rows
        # summing to less than 1, single-outcome rows and all-live rows
        rng = np.random.default_rng(seed)
        p = np.array(rows)
        step = analysis._expected_map(model, p)
        Y = np.array([random_psd(rng, model.n) for _ in rows])
        for _ in range(12):
            got = step(Y)
            assert got.tobytes() == analysis._expected_map(model, p)(Y).tobytes()
            Y = got

    def test_growth_verdicts_replan_as_layers_leave(self, hidden_mode, monkeypatch):
        # the 7 bisection points of [0, 1] leave the stack at different
        # steps, so the plan is rebuilt for the layers left; each layer
        # keeps the verdict it has alone
        delays = [DelayModel(lam, 0.5) for lam in np.linspace(0.0, 1.0, 9)[1:-1]]
        plans = count_calls(monkeypatch, "_expected_map")
        stacked = analysis._growth_verdicts(hidden_mode, delays, 400)
        sizes = [len(p) for _, p in plans]
        monkeypatch.undo()
        assert sizes[0] == 7 and len(sizes) >= 3 and sizes == sorted(set(sizes), reverse=True)
        assert set(stacked) == {False, True}
        alone = [analysis._growth_verdicts(hidden_mode, [d], 400)[0] for d in delays]
        assert list(stacked) == alone

    @pytest.mark.parametrize("run", [cov_bound_sequence, divergence_witness])
    def test_bound_sequence_works_out_its_outcome_masks_once(self, case2, monkeypatch, run):
        # work-count guard: the masks depend on the outcome table alone
        masks = count_calls(monkeypatch, "_outcomes", gains)
        steps = count_gain_steps(monkeypatch)
        run(case2, DelayModel(0.5, 0.5), 400)
        assert len(masks) == 1 < len(steps)

