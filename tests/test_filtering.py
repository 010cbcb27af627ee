import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import (random_instance, random_model, random_psd, textbook_riccati_priors,
                      unseen_mode_model)
from netkalman.model import ALL_OUTCOMES, DelayModel, DelayOutcome, SystemModel, fixture
from netkalman.filtering import (
    _chol_psd,
    covariance_step,
    delay_indicators,
    delay_rng,
    initial_state,
    make_rng,
    predict,
    predict_cov,
    run_filter,
    simulate_plant,
    stream_seed,
    subsystem_updates,
    update,
)
from netkalman import filtering, gains
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

    def test_singular_noise_covariance_takes_eigen_factor(self):
        # W = [[1, 1], [1, 1]] is PSD and singular, so its Cholesky
        # factorization fails and its factor comes from eigh: the noise
        # drives both states alike, and with Sigma0 = W they stay equal
        W = np.ones((2, 2))
        model = SystemModel(n1=1, n2=1, A=0.5 * np.eye(2), C1=np.eye(1), C2=np.eye(1),
                            W=W, V=np.eye(2), Sigma0=W)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(W)
        L = _chol_psd(W)
        assert_allclose(L @ L.T, W, rtol=0, atol=1e-15)
        x = simulate_plant(model, 50, make_rng(4)).x
        assert_allclose(x[:, 0], x[:, 1], rtol=0, atol=1e-12)
        assert np.abs(x).max() > 0.1

    def test_rejects_zero_horizon(self, toy):
        with pytest.raises(ValueError):
            simulate_plant(toy, 0, make_rng(0))

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 40))
    def test_equals_per_step_reference(self, seed, T):
        # the plant's bits are those of one state draw and one measurement
        # draw per step, interleaved, each a matrix-vector product
        model = random_model(np.random.default_rng(seed))
        traj = simulate_plant(model, T, make_rng(seed))
        Ls, Lw, Lv = (_chol_psd(M) for M in (model.Sigma0, model.W, model.V))
        rng, C = make_rng(seed), model.C
        x = Ls @ rng.standard_normal(model.n)
        for t in range(T + 1):
            if t:
                x = model.A @ x + Lw @ rng.standard_normal(model.n)
            y = C @ x + Lv @ rng.standard_normal(model.m)
            assert np.array_equal(traj.x[t], x)
            assert np.array_equal(traj.y1[t], y[:model.m1])
            assert np.array_equal(traj.y2[t], y[model.m1:])


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

    @given(seed=st.integers(0, 2**32 - 1),
           lambdas=st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0])))
    def test_one_gain_call_over_the_run_keeps_its_bits(self, seed, lambdas):
        # the covariance recursion depends on the delay indicators alone, so
        # one structured_gain call over the recorded priors gives the gains
        # of every step: the posteriors and the estimates keep their bits
        model = random_model(np.random.default_rng(seed))
        rec = run_filter(model, DelayModel(*lambdas), 40, make_rng(seed))
        C, V = model.C, model.V
        D = gains.structured_gain(rec.P_prior, C, V, model.dims, rec.gamma1, rec.gamma2)
        assert np.array_equal(posterior_cov(rec.P_prior, D, C, V), rec.P_post)
        x = np.zeros(model.n)
        for k in range(rec.horizon):
            x = filtering._correct(model, model.A @ x, D[k], rec.y1[k], rec.y2[k])
            assert np.array_equal(x, rec.xhat[k])

    def test_outcome_masks_are_worked_out_once_per_run(self, case1, monkeypatch):
        # work-count guard: a run plans the gain of each of the four
        # outcomes once, and its checking call once more, however many
        # steps it takes; no step works out an outcome mask
        calls, outcomes = [], gains._outcomes
        monkeypatch.setattr(gains, "_outcomes", lambda *args: calls.append(args) or outcomes(*args))
        for T in (5, 300):
            calls.clear()
            run_filter(case1, DelayModel(0.25, 0.75), T, make_rng(3))
            assert len(calls) == 5

    @pytest.mark.parametrize("T", [2.5, "5", True, np.True_])
    def test_non_integer_steps_rejected_before_any_draw(self, toy, T):
        # a non-integer step count used to raise numpy's unnamed TypeError,
        # and a bool is not taken as one step
        for call in (run_filter, lambda model, delays, T, rng: simulate_plant(model, T, rng)):
            rng = make_rng(3)
            with pytest.raises(ValueError, match=re.escape(
                    f"T must be >= 1 and an integer, got {T!r}")):
                call(toy, DelayModel(0.5, 0.5), T, rng)
            assert rng.bit_generator.seed_seq.n_children_spawned == 0
            assert rng.random() == make_rng(3).random()

    def test_numpy_integer_steps_accepted(self, toy):
        a = run_filter(toy, DelayModel(0.5, 0.5), np.int64(7), make_rng(3))
        assert a.to_csv() == run_filter(toy, DelayModel(0.5, 0.5), 7, make_rng(3)).to_csv()

    def test_diverging_run_warns_once_per_label_then_raises(self, hidden_mode):
        # lambda1 = 1 hides the unstable mode from subsystem 1 for good, so
        # P overflows; the steps are checked once per run, so the run says
        # at most once per matrix that it is ill conditioned, then names
        # the non-finite prior
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="P has non-finite entries"):
                run_filter(hidden_mode, DelayModel(1.0, 0.5), 4000, make_rng(5))
        ill = Counter(str(w.message).split(" is ill conditioned")[0] for w in caught
                      if "ill conditioned" in str(w.message))
        assert ill and max(ill.values()) == 1

    def test_diverging_run_stops_at_first_non_finite_prior(self, hidden_mode, monkeypatch):
        # no step runs on an inf/NaN covariance: the run stops predicting at
        # its first non-finite prior, long before its 4000 steps
        priors = []

        def recording_predict_cov(model, P_post):
            priors.append(predict_cov(model, P_post))
            return priors[-1]

        monkeypatch.setattr(filtering, "predict_cov", recording_predict_cov)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="P has non-finite entries"):
                run_filter(hidden_mode, DelayModel(1.0, 0.5), 4000, make_rng(5))
        assert len(priors) < 4000
        assert all(np.isfinite(P).all() for P in priors[:-1])
        assert not np.isfinite(priors[-1]).all()

    def test_ill_conditioned_run_warns_once_per_label(self):
        # each sensor reads its state twice with tiny noise, so S, S11 and
        # S22 are all near singular at every step; one warning per matrix
        # carries the worst condition number of the run
        column = np.ones((2, 1))
        model = SystemModel(n1=1, n2=1, A=np.array([[0.5, 0.2], [0.1, 0.5]]), C1=column,
                            C2=column, W=10.0 * np.eye(2), V=1e-12 * np.eye(4),
                            Sigma0=np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_filter(model, DelayModel(0.5, 0.5), 200, make_rng(8))
        assert np.isfinite(rec.P_prior).all()
        ill = Counter(str(w.message).split(" is ill conditioned")[0] for w in caught)
        assert ill == {"innovation covariance": 1, "sensor-1 innovation covariance": 1,
                       "sensor-2 innovation covariance": 1}

    def test_byte_identical_csv_for_same_seed(self, toy):
        a = run_filter(toy, DelayModel(0.5, 0.5), 30, make_rng(77)).to_csv()
        b = run_filter(toy, DelayModel(0.5, 0.5), 30, make_rng(77)).to_csv()
        assert a.encode() == b.encode()
        header = a.splitlines()[0]
        assert header.startswith("t,gamma1,gamma2,x_1")
        assert len(a.splitlines()) == 31

    def test_csv_rows_equal_per_value_formatting(self, case2):
        # 1300 steps cross the overflow of case2's unstable plant near step
        # 1202, so the rows include inf and nan values; the overflow and the
        # invalid values after it are expected here, and only here
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.warns(RuntimeWarning, match="invalid value"):
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

    @given(seed=st.integers(0, 2**32 - 1),
           lambdas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           T=st.integers(1, 25), unseen_steps=st.none() | st.integers(1, 300))
    def test_two_d_steps_have_the_stack_bytes(self, seed, lambdas, T, unseen_steps):
        # run_filter steps (n, n) matrices through ndarray.dot, the stack
        # through matmul: a loop of covariance_step on a stack of one gives
        # the bytes of every prior and posterior (which np.array_equal would
        # not tell for signed zeros and NaN), on random models with blocks
        # of size 1 and on the unseen mode a = 3 up to priors near 1e286
        if unseen_steps is None:
            model = random_model(np.random.default_rng(seed))
        else:
            model, T = unseen_mode_model(3), unseen_steps
        rec = run_filter(model, DelayModel(*lambdas), T, make_rng(seed))
        priors, posts, P = [], [], np.array(model.Sigma0)[None]
        for k in range(T):
            prior, P, _ = covariance_step(model, P, rec.gamma1[k:k + 1], rec.gamma2[k:k + 1])
            priors.append(prior[0])
            posts.append(P[0])
        assert np.array(priors).tobytes() == rec.P_prior.tobytes()
        assert np.array(posts).tobytes() == rec.P_post.tobytes()

    def test_predict_cov_of_a_view_keeps_matmul_bytes(self, case1):
        # a 2-D prior that is a view with other strides (every second
        # entry, reversed, a block) is predicted through matmul, with the
        # bytes of the same view as a stack of one
        rng = np.random.default_rng(4)
        for _ in range(20):
            whole = random_psd(rng, 8) * 10.0 ** rng.integers(-3, 4)
            for P in (whole[::2, ::2], whole[::-1, ::-1][:4, 1:5], whole[1:5, 2:6]):
                want = predict_cov(case1, P[None])[0]
                assert predict_cov(case1, P).tobytes() == want.tobytes()

    @staticmethod
    def _check_unsymmetrized_step(model, P_post, gamma1, gamma2):
        """The step on a predict_cov prior equals the public gain path, or stops at it."""
        C, V, dims = model.C, model.V, model.dims

        def outcome(call):
            try:
                return call()
            except (ValueError, np.linalg.LinAlgError) as exc:
                return type(exc), str(exc)

        def public(prior):
            D = gains.structured_gain(prior, C, V, dims, gamma1, gamma2)
            return posterior_cov(prior, D, C, V), D

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prior = predict_cov(model, P_post)
            if not np.isfinite(prior).all():
                with pytest.raises(ValueError, match="P has non-finite entries"):
                    covariance_step(model, P_post, gamma1, gamma2)
                return False
            # symmetrizing the prior again, as the public functions do,
            # returns its bits, so the step's gain and posterior are theirs
            # (or its error, where a huge prior makes an S block singular)
            assert gains._sym(prior).tobytes() == prior.tobytes()
            step = outcome(lambda: covariance_step(model, P_post, gamma1, gamma2)[1:])
            ref = outcome(lambda: public(prior))
        if isinstance(ref[0], type):
            assert step == ref
        else:
            for got, want in zip(step, ref):
                assert np.array_equal(got, want, equal_nan=True)
        return True

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(300.0, 308.0),
           outcomes=st.lists(st.sampled_from(ALL_OUTCOMES), min_size=1, max_size=3))
    def test_huge_priors_need_no_symmetrization(self, seed, log_scale, outcomes):
        # a finite predict_cov prior is exactly symmetric with entries at
        # most DBL_MAX / 2, however large; one that overflows stops the step
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        P_post = np.array([random_psd(rng, model.n) for _ in outcomes])
        P_post *= 10.0 ** log_scale / np.abs(P_post).max()  # largest entry 10**log_scale
        self._check_unsymmetrized_step(model, P_post, [oc.gamma1 for oc in outcomes],
                                       [oc.gamma2 for oc in outcomes])

    @pytest.mark.parametrize("above", [False, True])
    def test_prior_entries_end_at_half_dbl_max(self, above):
        # with A = I an entry of DBL_MAX / 2 survives predict_cov's own
        # symmetrization, and the next double overflows it: the step stops
        half = np.finfo(float).max / 2.0
        entry = np.nextafter(half, np.inf) if above else half
        model = SystemModel(n1=1, n2=1, A=np.eye(2), C1=np.eye(1), C2=np.eye(1),
                            W=np.eye(2), V=np.eye(2), Sigma0=np.eye(2))
        P_post = np.array([np.diag([entry, 1.0])] * 4)
        g1, g2 = [1, 0, 1, 0], [1, 1, 0, 0]
        assert self._check_unsymmetrized_step(model, P_post, g1, g2) is not above

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
