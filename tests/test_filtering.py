import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import random_instance, random_model, random_psd, textbook_riccati_priors
from netkalman.model import ALL_OUTCOMES, DelayModel, DelayOutcome, SystemModel, fixture
from netkalman.filtering import (
    covariance_step,
    delay_indicators,
    delay_rng,
    initial_state,
    make_rng,
    predict,
    run_filter,
    simulate_plant,
    stream_seed,
    subsystem_updates,
    update,
)
from netkalman import gains
from netkalman.gains import optimal_gain, posterior_cov
from netkalman.montecarlo import kalman_baseline


class TestSeeding:
    def test_same_stream_same_draws(self):
        a = make_rng(123, 4).standard_normal(8)
        b = make_rng(123, 4).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(123, 0).standard_normal(8)
        b = make_rng(123, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_stream_seed_is_stable(self):
        # pinned so serialized experiment outputs stay reproducible
        assert stream_seed(0, 0) == 16294208416658607535
        assert stream_seed(123, 4) == 12656037256202479922
        assert stream_seed(2**64 - 1, 7) < 2**64

    @given(seed=st.integers(0, 2**64 - 1) | st.integers(2**64 - 64, 2**64 - 1),
           stream=st.integers(0, 1000) | st.integers(1001, 2**32),
           lambdas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_delay_rng_is_run_filter_delay_stream(self, seed, stream, lambdas):
        # the direct stream gives the indicators run_filter draws from
        # the second child of make_rng(seed, stream)
        delays = DelayModel(*lambdas)
        direct = delay_indicators(delays, 40, delay_rng(seed, stream))
        spawned = delay_indicators(delays, 40, make_rng(seed, stream).spawn(2)[1])
        for a, b in zip(direct, spawned):
            assert np.array_equal(a, b)
        assert np.array_equal(delay_rng(seed, stream).random(8),
                              make_rng(seed, stream).spawn(2)[1].random(8))


class TestSimulatePlant:
    def test_zero_noise_zero_trajectory(self, toy):
        silent = SystemModel(
            n1=1, n2=1, A=toy.A, C1=toy.C1, C2=toy.C2,
            W=np.zeros((2, 2)), V=np.zeros((2, 2)), Sigma0=np.zeros((2, 2)),
        )
        traj = simulate_plant(silent, 20, make_rng(0))
        assert_allclose(traj.x, 0.0)
        assert_allclose(traj.y1, 0.0)
        assert_allclose(traj.y2, 0.0)

    def test_deterministic_given_seed(self, case1):
        t1 = simulate_plant(case1, 30, make_rng(42))
        t2 = simulate_plant(case1, 30, make_rng(42))
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.y1, t2.y1)
        assert np.array_equal(t1.y2, t2.y2)

    def test_dynamics_recursion_holds(self, toy):
        # x_{t+1} - A x_t must be the realized process noise, iid N(0, W);
        # with W = I its empirical second moment is near identity.
        traj = simulate_plant(toy, 4000, make_rng(3))
        w = traj.x[1:] - traj.x[:-1] @ toy.A.T
        cov = w.T @ w / len(w)
        assert_allclose(cov, np.eye(2), atol=0.15)

    def test_initial_state_mean(self, toy):
        draws = 100_000
        rng = make_rng(17)
        Ls = np.linalg.cholesky(np.asarray(toy.Sigma0))
        xs = rng.standard_normal((draws, 2)) @ Ls.T
        # same sampler as simulate_plant; mean within 4 sigma / sqrt(N)
        bound = 4.0 * np.sqrt(np.diag(toy.Sigma0) / draws)
        assert (np.abs(xs.mean(axis=0)) <= bound).all()
        # spot check that simulate_plant's x0 uses that sampler
        first = simulate_plant(toy, 1, make_rng(17)).x[0]
        assert_allclose(first, xs[0], atol=1e-12)

    def test_rejects_zero_horizon(self, toy):
        with pytest.raises(ValueError):
            simulate_plant(toy, 0, make_rng(0))


class TestPredictUpdate:
    def test_zero_estimate_stays_zero(self, case1):
        state = predict(initial_state(case1), case1)
        assert_allclose(state.xhat, 0.0)
        assert state.t == 1

    def test_identity_covariance_prediction(self):
        model = SystemModel(n1=1, n2=1, A=np.eye(2), C1=np.eye(1), C2=np.eye(1),
                            W=np.eye(2), V=np.eye(2), Sigma0=np.eye(2))
        state = predict(initial_state(model), model)
        assert_allclose(state.P_prior, 2 * np.eye(2))

    def test_first_prediction_covariance(self, toy):
        state = predict(initial_state(toy), toy)
        assert_allclose(state.P_prior, toy.A @ toy.A.T + np.eye(2), atol=1e-15)

    def test_on_time_update_is_kalman(self, case1):
        rng = make_rng(5)
        state = predict(initial_state(case1), case1)
        y1 = rng.standard_normal(2)
        y2 = rng.standard_normal(1)
        new = update(state, case1, y1, y2, DelayOutcome(1, 1))
        P = state.P_prior
        C = case1.C
        K = P @ C.T @ np.linalg.inv(case1.V + C @ P @ C.T)
        inn = np.concatenate([y1, y2]) - C @ state.xhat
        assert_allclose(new.xhat, state.xhat + K @ inn, atol=1e-12)

    def test_both_delayed_toy_uses_scalar_half_gains(self, toy):
        state = initial_state(toy)
        state = predict(state, toy)
        # force P_prior = I to match the worked scalar example
        state = type(state)(xhat1=state.xhat1, xhat2=state.xhat2,
                            P_prior=np.eye(2), P_post=state.P_post, t=state.t)
        new = update(state, toy, np.array([2.0]), np.array([4.0]), DelayOutcome(0, 0))
        assert_allclose(new.xhat1, [1.0])
        assert_allclose(new.xhat2, [2.0])

    def test_zero_innovation_leaves_estimate(self, case1):
        rng = make_rng(6)
        state = predict(initial_state(case1), case1)
        state = type(state)(
            xhat1=rng.standard_normal(2), xhat2=rng.standard_normal(2),
            P_prior=state.P_prior, P_post=state.P_post, t=state.t)
        y1 = case1.C1 @ state.xhat1
        y2 = case1.C2 @ state.xhat2
        for oc in (DelayOutcome(1, 1), DelayOutcome(0, 1), DelayOutcome(1, 0),
                   DelayOutcome(0, 0)):
            new = update(state, case1, y1, y2, oc)
            assert_allclose(new.xhat, state.xhat, atol=1e-14)

    def test_update_rejects_bad_shapes(self, case1):
        state = predict(initial_state(case1), case1)
        with pytest.raises(ValueError):
            update(state, case1, np.zeros(3), np.zeros(1), DelayOutcome(1, 1))

    def test_stacked_equals_per_subsystem(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            P, C, V, dims = random_instance(rng)
            model = SystemModel(
                n1=dims.n1, n2=dims.n2,
                A=rng.standard_normal((dims.n, dims.n)),
                C1=C[:dims.m1, :dims.n1], C2=C[dims.m1:, dims.n1:],
                W=np.eye(dims.n), V=V, Sigma0=np.eye(dims.n),
            )
            state = initial_state(model)
            state = type(state)(
                xhat1=rng.standard_normal(dims.n1),
                xhat2=rng.standard_normal(dims.n2),
                P_prior=P, P_post=P, t=1)
            y1 = rng.standard_normal(dims.m1)
            y2 = rng.standard_normal(dims.m2)
            for g1 in (0, 1):
                for g2 in (0, 1):
                    oc = DelayOutcome(g1, g2)
                    stacked = update(state, model, y1, y2, oc)
                    x1, x2 = subsystem_updates(state, model, y1, y2, oc)
                    assert_allclose(stacked.xhat1, x1, rtol=0, atol=1e-13)
                    assert_allclose(stacked.xhat2, x2, rtol=0, atol=1e-13)


class TestRunFilter:
    def test_no_delay_matches_textbook_riccati(self, case1):
        rec = run_filter(case1, DelayModel(0.0, 0.0), 40, make_rng(1))
        refs = textbook_riccati_priors(case1, 40)
        worst = max(np.abs(rec.P_prior[t] - refs[t]).max() for t in range(40))
        assert worst < 1e-12

    def test_always_delayed_gains_block_diagonal(self, case1):
        rec = run_filter(case1, DelayModel(1.0, 1.0), 25, make_rng(2))
        assert np.all(rec.gamma1 == 0) and np.all(rec.gamma2 == 0)
        for t in range(25):
            D = optimal_gain(rec.P_prior[t], case1.C, case1.V, case1.dims,
                             DelayOutcome(0, 0))
            assert np.all(D[:2, 2:] == 0) and np.all(D[2:, :2] == 0)

    def test_covariance_recursion_identity(self, toy):
        # prediction covariances must satisfy the one-step propagated
        # form (A - A D C) P (.)^T + (A D) V (A D)^T + W
        delays = DelayModel(0.5, 0.5)
        rec = run_filter(toy, delays, 50, make_rng(9))
        A, C, V, W = toy.A, toy.C, toy.V, toy.W
        for t in range(49):
            D = optimal_gain(rec.P_prior[t], C, V, toy.dims,
                             DelayOutcome(int(rec.gamma1[t]), int(rec.gamma2[t])))
            F = A - A @ D @ C
            direct = F @ rec.P_prior[t] @ F.T + (A @ D) @ V @ (A @ D).T + W
            assert np.abs(direct - rec.P_prior[t + 1]).max() < 1e-12

    def test_posterior_covariance_recorded(self, toy):
        rec = run_filter(toy, DelayModel(0.3, 0.7), 10, make_rng(4))
        for t in range(10):
            oc = DelayOutcome(int(rec.gamma1[t]), int(rec.gamma2[t]))
            D = optimal_gain(rec.P_prior[t], toy.C, toy.V, toy.dims, oc)
            assert_allclose(rec.P_post[t],
                            posterior_cov(rec.P_prior[t], D, toy.C, toy.V),
                            atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1),
           lambdas=st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0])))
    def test_equals_predict_update_loop(self, seed, lambdas):
        # run_filter takes its covariances and gains from covariance_step;
        # the single-step API on the same plant and delays keeps its bits
        model = random_model(np.random.default_rng(seed))
        T = 10
        rec = run_filter(model, DelayModel(*lambdas), T, make_rng(seed))
        plant = simulate_plant(model, T, make_rng(seed).spawn(2)[0])
        state = initial_state(model)
        for k in range(T):
            state = predict(state, model)
            oc = DelayOutcome(int(rec.gamma1[k]), int(rec.gamma2[k]))
            state = update(state, model, plant.y1[k + 1], plant.y2[k + 1], oc)
            err = plant.x[k + 1] - state.xhat
            assert np.array_equal(rec.xhat[k], state.xhat)
            assert np.array_equal(rec.P_prior[k], state.P_prior)
            assert np.array_equal(rec.P_post[k], state.P_post)
            assert rec.sq_err[k] == float(err @ err)

    def test_byte_identical_csv_for_same_seed(self, toy):
        a = run_filter(toy, DelayModel(0.5, 0.5), 30, make_rng(77)).to_csv()
        b = run_filter(toy, DelayModel(0.5, 0.5), 30, make_rng(77)).to_csv()
        assert a.encode() == b.encode()
        header = a.splitlines()[0]
        assert header.startswith("t,gamma1,gamma2,x_1")
        assert len(a.splitlines()) == 31

    def test_csv_rows_equal_per_value_formatting(self, case2):
        # 1300 steps cross the overflow of case2's unstable plant near step
        # 1202, so the rows include inf and nan values
        rec = run_filter(case2, DelayModel(0.25, 0.75), 1300, make_rng(5))
        assert not np.isfinite(rec.xhat).all()
        tp, tq = rec.trace_prior(), rec.trace_post()
        lines = rec.to_csv().split("\n")
        assert lines[-1] == "" and len(lines) == rec.horizon + 2
        for k in range(rec.horizon):
            vals = [str(int(rec.t[k])), str(int(rec.gamma1[k])), str(int(rec.gamma2[k]))]
            vals += [f"{v:.17g}" for v in (*rec.x[k], *rec.xhat[k], tp[k], tq[k], rec.sq_err[k])]
            assert lines[k + 1] == ",".join(vals)

    def test_delay_frequencies_follow_probabilities(self, toy):
        rec = run_filter(toy, DelayModel(0.8, 0.1), 4000, make_rng(12))
        assert abs((rec.gamma1 == 0).mean() - 0.8) < 0.03
        assert abs((rec.gamma2 == 0).mean() - 0.1) < 0.03

    def test_error_second_moment_matches_covariance(self, toy):
        # E(e e^T | history) = P, so the paired difference between the
        # squared prediction error and trace(P_prior) has zero mean.
        runs, t_check = 2000, 10
        delays = DelayModel(0.5, 0.5)
        diffs = np.zeros(runs)
        for r in range(runs):
            rec = run_filter(toy, delays, t_check, make_rng(1000, r))
            if t_check == 1:
                prior_est = np.zeros(2)
            else:
                prior_est = toy.A @ rec.xhat[t_check - 2]
            e = rec.x[t_check - 1] - prior_est
            diffs[r] = e @ e - np.trace(rec.P_prior[t_check - 1])
        se = diffs.std(ddof=1) / np.sqrt(runs)
        assert abs(diffs.mean()) <= 5 * se


class TestCovarianceStep:
    @given(
        seed=st.integers(0, 2**32 - 1),
        outcomes=st.lists(st.lists(st.sampled_from(ALL_OUTCOMES), min_size=4, max_size=4),
                          min_size=1, max_size=6),
    )
    def test_run_does_not_depend_on_its_stack(self, seed, outcomes):
        # outcomes[r][k] is run r's delay outcome at step k
        model = random_model(np.random.default_rng(seed))
        gamma1 = np.array([[oc.gamma1 for oc in run] for run in outcomes])
        gamma2 = np.array([[oc.gamma2 for oc in run] for run in outcomes])
        runs = len(outcomes)
        stack = np.broadcast_to(model.Sigma0, (runs, model.n, model.n)).copy()
        alone = [np.array(model.Sigma0)[None] for _ in range(runs)]
        for k in range(gamma1.shape[1]):
            prior, stack, D = covariance_step(model, stack, gamma1[:, k], gamma2[:, k])
            for r in range(runs):
                prior_r, alone[r], _ = covariance_step(model, alone[r], gamma1[r:r + 1, k],
                                                       gamma2[r:r + 1, k])
                assert np.array_equal(prior_r[0], prior[r])
                assert np.array_equal(alone[r][0], stack[r])
                # the gain each run used is the optimal gain of its outcome
                assert np.array_equal(D[r], optimal_gain(prior[r], model.C, model.V,
                                                         model.dims, outcomes[r][k]))

    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 6))
    def test_on_time_stack_builds_no_local_gains(self, seed, runs):
        # a step with every run on time inverts only the full innovation
        # covariance, as the no-delay baseline does; a delayed run builds
        # its local gain, and only from the diagonal block of S it reads
        model = random_model(np.random.default_rng(seed))
        spd_inverse = gains._spd_inverse
        inverted = []

        def counting(M, what):
            inverted.append(what)
            return spd_inverse(M, what)

        P = np.broadcast_to(model.Sigma0, (runs, model.n, model.n)).copy()
        on_time = np.ones(runs, dtype=int)
        delayed = on_time.copy()
        delayed[-1] = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gains, "_spd_inverse", counting)
            covariance_step(model, P, on_time, on_time)
            kalman_baseline(model, 3)
            assert set(inverted) == {"innovation covariance"}
            inverted.clear()
            covariance_step(model, P, on_time, delayed)
            assert sorted(inverted) == ["innovation covariance", "sensor-2 innovation covariance"]
            inverted.clear()
            covariance_step(model, P, delayed, on_time)
            assert sorted(inverted) == ["innovation covariance", "sensor-1 innovation covariance"]

    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 6))
    def test_stacked_gain_equals_per_slice_gain(self, seed, runs):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        priors = np.array([random_psd(rng, model.n) for _ in range(runs)])
        for oc in ALL_OUTCOMES:
            stacked = optimal_gain(priors, model.C, model.V, model.dims, oc)
            for r in range(runs):
                single = optimal_gain(priors[r], model.C, model.V, model.dims, oc)
                assert np.array_equal(stacked[r], single)
