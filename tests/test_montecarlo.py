import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import exact_prior_means, random_model
from netkalman import montecarlo
from netkalman.model import DelayModel, SystemModel, fixture
from netkalman.filtering import covariance_step, make_rng, run_filter, stream_seed
from netkalman.analysis import cov_bound_sequence, expected_next_cov
from netkalman.montecarlo import _run_indicators, _stack_run, estimate_eec, kalman_baseline, sweep

MODELS = {name: fixture(name)[0] for name in ("toy_identity", "case1_stable", "case2_unstable")}
# (model, delays) pairs checked against the exact EEC: the fixtures, one
# axis end where only two outcomes are possible, and random draws.
EXACT_CASES = {
    **{f"{name}-0.25-0.75": (model, DelayModel(0.25, 0.75)) for name, model in MODELS.items()},
    "case2_unstable-1-0.3": (MODELS["case2_unstable"], DelayModel(1.0, 0.3)),
    **{f"random{k}-0.5-0.5": (random_model(np.random.default_rng(k)), DelayModel(0.5, 0.5))
       for k in range(3)},
}


def plain_stack_run(model, gamma1, gamma2):
    """Reference stack: every run through covariance_step at every step."""
    R, T = gamma1.shape
    traces = np.zeros((R, T))
    sum_P = np.zeros((T, model.n, model.n))
    P_post = np.broadcast_to(model.Sigma0, (R, model.n, model.n)).copy()
    for k in range(T):
        P_prior, P_post, _ = covariance_step(model, P_post, gamma1[:, k], gamma2[:, k])
        traces[:, k] = np.trace(P_prior, axis1=1, axis2=2)
        sum_P[k] = P_prior.sum(axis=0)
    return traces, sum_P


def count_layers(monkeypatch):
    """Record the stack size of every covariance_step call montecarlo makes."""
    layers = []

    def counted(model, P_post, gamma1, gamma2):
        layers.append(len(P_post))
        return covariance_step(model, P_post, gamma1, gamma2)

    monkeypatch.setattr(montecarlo, "covariance_step", counted)
    return layers


class TestEstimateEec:
    def test_zero_delay_equals_baseline_exactly(self, toy):
        est = estimate_eec(toy, DelayModel(0.0, 0.0), runs=4, horizon=15, master_seed=5)
        baseline = kalman_baseline(toy, 15)
        assert np.array_equal(est.trace_mean, baseline)
        assert_allclose(est.trace_se, 0.0, atol=1e-14)

    def test_single_run_reduces_to_filter(self, toy):
        delays = DelayModel(0.4, 0.6)
        est = estimate_eec(toy, delays, runs=1, horizon=12, master_seed=77)
        rec = run_filter(toy, delays, 12, make_rng(77, 0))
        assert np.array_equal(est.trace_mean, rec.trace_prior())
        assert np.array_equal(est.mean_P, rec.P_prior)

    def test_reproducible(self, toy):
        a = estimate_eec(toy, DelayModel(0.5, 0.5), 10, 8, master_seed=3)
        b = estimate_eec(toy, DelayModel(0.5, 0.5), 10, 8, master_seed=3)
        assert np.array_equal(a.trace_mean, b.trace_mean)
        assert np.array_equal(a.trace_se, b.trace_se)

    def test_rejects_zero_runs(self, toy):
        with pytest.raises(ValueError):
            estimate_eec(toy, DelayModel(0.5, 0.5), 0, 5, 0)

    @pytest.mark.parametrize("t", [0, -1, 6])
    def test_step_outside_horizon_rejected(self, toy, t):
        est = estimate_eec(toy, DelayModel(0.5, 0.5), runs=4, horizon=5, master_seed=3)
        assert est.trace_at(1) == est.trace_mean[0] and est.se_at(5) == est.trace_se[4]
        for read in (est.trace_at, est.se_at):
            with pytest.raises(ValueError, match=r"t must lie in 1\.\.5"):
                read(t)

    def test_mean_bounded_by_expected_map_sequence(self, toy):
        # the bound sequence need not bound the EEC (README "Known
        # limitations"), but on toy_identity it does not fall below it
        delays = DelayModel(0.5, 0.5)
        est = estimate_eec(toy, delays, runs=500, horizon=20, master_seed=11)
        seq = cov_bound_sequence(toy, delays, 20)
        for t in (5, 10, 20):
            assert est.trace_at(t) <= seq.traces[t - 1] + 5 * est.se_at(t)

    @pytest.mark.parametrize("case", EXACT_CASES)
    def test_mean_within_four_standard_errors_of_exact_eec(self, case):
        model, delays = EXACT_CASES[case]
        exact = np.trace(exact_prior_means(model, delays, 8), axis1=1, axis2=2)
        est = estimate_eec(model, delays, runs=2000, horizon=8, master_seed=1)
        # At t = 1 every run agrees, the standard error is 0 and only the
        # rounding of the mean is left.
        assert (np.abs(est.trace_mean - exact) <= 4 * est.trace_se + 1e-12 * exact).all()

    def test_one_step_mean_matches_expected_map(self, toy):
        # E(P_{t+1}) == E(g(P_t)): check the sampled means against the
        # map applied per run, within Monte-Carlo error
        delays = DelayModel(0.5, 0.5)
        runs, t0 = 400, 6
        diffs = np.zeros(runs)
        for r in range(runs):
            rec = run_filter(toy, delays, t0 + 1, make_rng(123, r))
            mapped = expected_next_cov(toy, delays, rec.P_prior[t0 - 1])
            diffs[r] = np.trace(rec.P_prior[t0]) - np.trace(mapped)
        se = diffs.std(ddof=1) / np.sqrt(runs)
        assert abs(diffs.mean()) <= 5 * max(se, 1e-12)

    def test_jensen_direction_on_sampled_means(self, toy):
        # trace of the sampled mean of P_{t+1} stays below the expected
        # map applied to the sampled mean of P_t, within sampling error;
        # the runs draw the delay streams of make_rng(456, r), as
        # run_filter(toy, delays, 21, make_rng(456, r)) does
        delays = DelayModel(0.5, 0.5)
        est = estimate_eec(toy, delays, runs=2000, horizon=21, master_seed=456)
        for t in (5, 10, 20):
            mean_next = est.mean_P[t]  # E(P_{t+1}), index t
            mapped = expected_next_cov(toy, delays, est.mean_P[t - 1])
            assert np.trace(mean_next) <= np.trace(mapped) + 5 * max(est.trace_se[t], 1e-12)

    @pytest.mark.parametrize("name", ["toy_identity", "case1_stable"])
    def test_jensen_direction_on_exact_means(self, name):
        # the same inequality on the exact E(P_t) of every delay history, to
        # rounding: the relative gaps are 0 at t = 1 and 7e-11 to 2e-8 later
        model, delays = MODELS[name], DelayModel(0.5, 0.5)
        means = exact_prior_means(model, delays, 8)
        for t in range(1, 8):
            mapped = expected_next_cov(model, delays, means[t - 1])
            assert np.trace(mapped) >= np.trace(means[t]) * (1 - 1e-12)


class TestStackRun:
    lam = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)

    @given(model=st.sampled_from(sorted(MODELS)),
           cells=st.lists(st.tuples(lam, lam, st.integers(1, 6), st.integers(0, 2**32)),
                          min_size=1, max_size=4),
           horizon=st.integers(1, 12), on_time_row=st.booleans())
    def test_shared_histories_keep_plain_stack_bits(self, model, cells, horizon, on_time_row):
        # one covariance_step per distinct history prefix gives every run,
        # every trace and the run-order sum the bits of the plain stack
        model = MODELS[model]
        draws = [_run_indicators(DelayModel(l1, l2), runs, horizon, seed)
                 for l1, l2, runs, seed in cells]
        if on_time_row:
            draws.append((np.ones((1, horizon), dtype=int),) * 2)
        gamma1 = np.concatenate([g1 for g1, _ in draws])
        gamma2 = np.concatenate([g2 for _, g2 in draws])
        traces, sum_P = _stack_run(model, gamma1, gamma2)
        ref_traces, ref_sum = plain_stack_run(model, gamma1, gamma2)
        assert np.array_equal(traces, ref_traces)
        assert np.array_equal(sum_P, ref_sum)

    def test_constant_grid_steps_one_layer_per_cell(self, case1, monkeypatch):
        # with lambda in {0, 1} each cell is one history, and the Kalman
        # baseline row shares the lambda = (0, 0) cell's
        layers = count_layers(monkeypatch)
        sweep(case1, [0.0, 1.0], [0.0, 1.0], runs=10, horizon=50, master_seed=0)
        assert len(layers) == 50
        assert max(layers) <= 4

    def test_each_step_sends_one_layer_per_distinct_prefix(self, toy, monkeypatch):
        l1s, l2s, runs, horizon, seed = [0.0, 0.5], [0.3, 1.0], 6, 9, 21
        layers = count_layers(monkeypatch)
        sweep(toy, l1s, l2s, runs=runs, horizon=horizon, master_seed=seed)
        draws = [_run_indicators(DelayModel(l1, l2), runs, horizon,
                                 stream_seed(seed, i * len(l2s) + j))
                 for i, l1 in enumerate(l1s) for j, l2 in enumerate(l2s)]
        draws.append((np.ones((1, horizon), dtype=int),) * 2)
        gamma1 = np.concatenate([g1 for g1, _ in draws])
        gamma2 = np.concatenate([g2 for _, g2 in draws])
        prefixes = [len(np.unique(np.hstack([gamma1[:, :k + 1], gamma2[:, :k + 1]]), axis=0))
                    for k in range(horizon)]
        assert layers == prefixes
        assert max(layers) <= runs * len(l1s) * len(l2s) + 1


class TestKalmanBaseline:
    def test_converges_for_detectable_model(self, case2):
        tr = kalman_baseline(case2, 400)
        assert abs(tr[-1] - tr[-2]) < 1e-8 * max(1.0, tr[-1])

    def test_zero_dynamics_steady_trace_is_noise_trace(self):
        model = SystemModel(n1=1, n2=1, A=np.zeros((2, 2)), C1=np.eye(1),
                            C2=np.eye(1), W=np.diag([2.0, 3.0]), V=np.eye(2),
                            Sigma0=np.eye(2))
        tr = kalman_baseline(model, 10)
        assert_allclose(tr[1:], 5.0, rtol=1e-14)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_nonpositive_horizon_rejected_as_in_estimate_eec(self, toy, horizon):
        # a zero horizon used to return an empty series, and a negative one
        # raised numpy's unnamed negative-dimension error
        for call in (lambda: kalman_baseline(toy, horizon),
                     lambda: estimate_eec(toy, DelayModel(0.5, 0.5), 2, horizon, 0)):
            with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
                call()

    @pytest.mark.parametrize("count", [2.5, "5", True, np.True_])
    def test_non_integer_counts_rejected(self, toy, count):
        # a non-integer count used to raise numpy's or Python's unnamed
        # TypeError, and a bool is not taken as the count 1
        message = f" must be >= 1 and an integer, got {count!r}"
        for name, call in (
                ("horizon", lambda: kalman_baseline(toy, count)),
                ("horizon", lambda: estimate_eec(toy, DelayModel(0.5, 0.5), 2, count, 0)),
                ("runs", lambda: estimate_eec(toy, DelayModel(0.5, 0.5), count, 3, 0))):
            with pytest.raises(ValueError, match=re.escape(name + message)):
                call()

    def test_numpy_integer_counts_accepted(self, toy):
        a = estimate_eec(toy, DelayModel(0.5, 0.5), np.int64(3), np.int64(4), 0)
        b = estimate_eec(toy, DelayModel(0.5, 0.5), 3, 4, 0)
        assert np.array_equal(a.mean_P, b.mean_P)
        assert np.array_equal(kalman_baseline(toy, np.int64(4)), kalman_baseline(toy, 4))


class TestSweep:
    def test_single_cell_reduces_to_estimate(self, toy):
        # Every cell equals its own estimate_eec, also when the runs of
        # several cells share one stack.
        for l1s, l2s in (([0.3], [0.6]), ([0.0, 0.3, 1.0], [0.6, 0.1])):
            res = sweep(toy, l1s, l2s, runs=5, horizon=10, master_seed=9)
            for i, l1 in enumerate(l1s):
                for j, l2 in enumerate(l2s):
                    est = estimate_eec(toy, DelayModel(l1, l2), 5, 10,
                                       stream_seed(9, i * len(l2s) + j))
                    assert np.array_equal(res.trace_mean[i, j], est.trace_mean)
                    assert np.array_equal(res.trace_se[i, j], est.trace_se)

    def test_csv_layout(self, toy):
        res = sweep(toy, [0.0, 1.0], [0.5], runs=2, horizon=3, master_seed=1)
        lines = res.to_csv().splitlines()
        assert lines[0] == "lambda1,lambda2,t,trace_mean,stderr,trace_kalman"
        assert len(lines) == 1 + 2 * 1 * 3
        assert lines[1].startswith("0,0.5,1,")

    @pytest.mark.parametrize("l1s, l2s", [([0.0, 0.5], [0.0, 0.7]), ([0.4, 1.0], [0.2])])
    def test_kalman_trace_equals_baseline_exactly(self, case2, l1s, l2s):
        res = sweep(case2, l1s, l2s, runs=3, horizon=30, master_seed=8)
        assert np.array_equal(res.kalman_trace, kalman_baseline(case2, 30))

    def test_worker_count_does_not_change_bytes(self, toy):
        kwargs = dict(runs=4, horizon=6, master_seed=42)
        serial = sweep(toy, [0.0, 0.5], [0.25, 0.75], workers=1, **kwargs)
        parallel = sweep(toy, [0.0, 0.5], [0.25, 0.75], workers=2, **kwargs)
        assert serial.to_csv() == parallel.to_csv()

    def test_grid_values_validated(self, toy):
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match="lambda1"):
                sweep(toy, [0.5, bad], [0.5], runs=1, horizon=2, master_seed=0)
        with pytest.raises(ValueError, match="at least one"):
            sweep(toy, [], [0.5], runs=1, horizon=2, master_seed=0)

    def test_constant_cells_have_zero_stderr(self, case1):
        # with lambda in {0, 1} every run draws the same outcomes, so the
        # runs of a cell share one trace and its standard error is 0
        res = sweep(case1, [0.0, 1.0], [0.0, 1.0], runs=10, horizon=50, master_seed=0)
        assert np.all(res.trace_se[0, 0] == 0.0)
        assert np.all(res.trace_se[1, 1] == 0.0)

    def test_degradation_with_delay_probability(self, case1):
        res = sweep(case1, [0.0, 1.0], [0.0, 1.0], runs=60, horizon=25,
                    master_seed=2024)
        t_end = 25
        worst = res.trace_mean[1, 1, t_end - 1]
        best = res.trace_mean[0, 0, t_end - 1]
        se = res.trace_se[1, 1, t_end - 1]
        assert worst >= best - 5 * se

