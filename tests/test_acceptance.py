"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N ...: PASS/FAIL``
line (run with ``pytest -s`` to see them as they complete) and asserts
the criterion at its stated tolerance and runtime cap.

Criterion 4 (matrix-order concavity/monotonicity of the expected
covariance map) fails and is expected to: the per-outcome gains minimize
the trace of the posterior covariance, and for the masked outcomes that
does not imply dominance of the propagated covariance in the positive
semidefinite order.  The two comparisons that do have a dominance proof
(on-time outcome versus each one-sided outcome) hold at machine
precision; see README "Known limitations".
"""

import time

import numpy as np
import pytest

from conftest import random_instance, random_model, random_psd, textbook_riccati_priors
from netkalman.model import ALL_OUTCOMES, DelayModel, DelayOutcome, fixture
from netkalman.gains import (
    gain_set,
    mask_for_outcome,
    optimal_gain,
    oracle_structured_gain,
    posterior_cov,
)
from netkalman.filtering import make_rng, run_filter
from netkalman.analysis import (
    InapplicableError,
    boundedness_test,
    bounds_from_minima,
    cov_bound_sequence,
    empirical_critical,
    expected_next_cov,
    kron_update_radius,
    masked_norm_minima,
    one_step_cov,
    residual_gram_floor,
)
from netkalman.montecarlo import kalman_baseline, sweep

SEED_C5_TOY = 50_001
SEED_C5_CASE1 = 50_002
SEED_C9 = 90_001
SEED_C10A = 100_001
SEED_C10B = 100_002


def report(num, desc, ok):
    print(f"\n[acceptance] criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# expensive shared computations (timed at first use)


@pytest.fixture(scope="module")
def mc_bound_data():
    start = time.time()
    out = {}
    for name, seed in (("toy_identity", SEED_C5_TOY), ("case1_stable", SEED_C5_CASE1)):
        model, _ = fixture(name)
        res = sweep(model, [0.5], [0.5], runs=2000, horizon=20, master_seed=seed)
        seq = cov_bound_sequence(model, DelayModel(0.5, 0.5), 20)
        out[name] = (res, seq)
    return out, time.time() - start


@pytest.fixture(scope="module")
def grid_case1():
    start = time.time()
    model, _ = fixture("case1_stable")
    res = sweep(model, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], runs=1000, horizon=50,
                master_seed=SEED_C9)
    return res, time.time() - start


@pytest.fixture(scope="module")
def sweeps_case2():
    start = time.time()
    model, _ = fixture("case2_unstable")
    res_a = sweep(model, [1.0], [0.0, 0.5, 1.0], runs=1000, horizon=50,
                  master_seed=SEED_C10A)
    res_b = sweep(model, [0.0, 0.5, 1.0], [1.0], runs=1000, horizon=50,
                  master_seed=SEED_C10B)
    return (res_a, res_b), time.time() - start


def test_criterion_1_gain_optimality_vs_oracle():
    start = time.time()
    rng = np.random.default_rng(11_001)
    worst_dev = 0.0
    worst_trace_gap = 0.0
    for _ in range(200):
        P, C, V, dims = random_instance(rng, max_n=3, max_m=2)  # n <= 6, m <= 4
        for oc in ALL_OUTCOMES:
            D = optimal_gain(P, C, V, dims, oc)
            Dref = oracle_structured_gain(P, C, V, dims, mask_for_outcome(oc))
            worst_dev = max(worst_dev, float(np.abs(D - Dref).max()))
            tr = np.trace(posterior_cov(P, D, C, V))
            tr_ref = np.trace(posterior_cov(P, Dref, C, V))
            worst_trace_gap = max(worst_trace_gap, tr - tr_ref)
    elapsed = time.time() - start
    ok = worst_dev < 1e-8 and worst_trace_gap < 1e-10 and elapsed < 30
    assert report(1, "gain optimality vs oracle", ok), (
        f"max gain deviation {worst_dev:.2e}, trace excess {worst_trace_gap:.2e}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_2_no_delay_reduction_to_kalman():
    start = time.time()
    worst = 0.0
    for name in ("toy_identity", "case1_stable"):
        model, _ = fixture(name)
        rec = run_filter(model, DelayModel(0.0, 0.0), 100, make_rng(12_001))
        refs = textbook_riccati_priors(model, 100)
        for t in range(100):
            worst = max(worst, float(np.abs(rec.P_prior[t] - refs[t]).max()))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 1
    assert report(2, "no-delay reduction to the full-gain recursion", ok), (
        f"max covariance deviation {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_3_conditional_expectation_identity():
    start = time.time()
    rng = np.random.default_rng(13_001)
    models = [fixture("toy_identity")[0], fixture("case1_stable")[0]]
    delays = DelayModel(0.35, 0.65)
    worst = 0.0
    for k in range(50):
        model = models[k % 2]
        Y = random_psd(rng, model.n)
        gs = gain_set(Y, model.C, model.V, model.dims)
        enum = np.zeros((model.n, model.n))
        for oc in ALL_OUTCOMES:
            post = posterior_cov(Y, gs.for_outcome(oc), model.C, model.V)
            enum += delays.outcome_probability(oc) * (
                model.A @ post @ model.A.T + model.W
            )
        got = expected_next_cov(model, delays, Y)
        worst = max(worst, float(np.abs(got - enum).max()))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 5
    assert report(3, "expected map equals 4-outcome enumeration", ok), (
        f"max deviation {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_4_matrix_concavity_and_monotonicity():
    # KNOWN RED.  The masked per-outcome gains are trace-of-posterior
    # optimal; they do not dominate the A-weighted propagated covariance
    # in the semidefinite order, so this matrix-level criterion is not
    # attainable by any implementation whose gains satisfy criteria 1-3.
    # Violations are orders of magnitude above the stated slack; the
    # trace-level and probability-edge versions hold (see the analysis
    # test module).  Kept faithful and red rather than weakened.
    start = time.time()
    rng = np.random.default_rng(14_001)
    model, _ = fixture("case1_stable")
    delays = DelayModel(0.4, 0.7)
    worst_conc = 0.0
    for _ in range(500):
        Y1 = random_psd(rng, 4)
        Y2 = random_psd(rng, 4)
        a = float(rng.choice([0.25, 0.5, 0.75]))
        mix = expected_next_cov(model, delays, a * Y1 + (1 - a) * Y2)
        avg = a * expected_next_cov(model, delays, Y1) \
            + (1 - a) * expected_next_cov(model, delays, Y2)
        worst_conc = min(worst_conc, float(np.linalg.eigvalsh(mix - avg)[0]))
    worst_mono = 0.0
    for _ in range(500):
        Y = random_psd(rng, 4)
        g_lo = expected_next_cov(model, DelayModel(0.4, 0.3), Y)
        g_hi = expected_next_cov(model, DelayModel(0.4, 0.9), Y)
        worst_mono = min(worst_mono, float(np.linalg.eigvalsh(g_hi - g_lo)[0]))
    elapsed = time.time() - start
    ok = worst_conc >= -1e-8 and worst_mono >= -1e-8 and elapsed < 60
    assert report(4, "matrix-order concavity/monotonicity of the expected map", ok), (
        f"smallest concavity eigenvalue {worst_conc:.2e}, smallest monotonicity "
        f"eigenvalue {worst_mono:.2e} (stated slack -1e-8); trace-optimal masked "
        f"gains do not minimize the propagated covariance in the matrix order, "
        f"so the semidefinite form of this property does not hold"
    )


def test_criterion_5_expected_covariance_upper_bound(mc_bound_data):
    data, elapsed = mc_bound_data
    ok = True
    detail = []
    for name, (res, seq) in data.items():
        for t in (5, 10, 20):
            mean = res.trace_mean[0, 0, t - 1]
            se = res.trace_se[0, 0, t - 1]
            bound = seq.traces[t - 1]
            ok = ok and (mean <= bound + 5 * se)
            detail.append(f"{name} t={t}: mean {mean:.6f} vs bound {bound:.6f} "
                          f"(se {se:.2e})")
    ok = ok and elapsed < 120
    assert report(5, "Monte-Carlo mean below deterministic bound", ok), \
        "; ".join(detail) + f"; {elapsed:.1f}s"


def test_criterion_6_masked_minimum_orderings():
    start = time.time()
    rng = np.random.default_rng(16_001)
    models = [fixture("case1_stable")[0], fixture("case2_unstable")[0]]
    for _ in range(20):
        models.append(random_model(rng, max_n=3, max_m=2))
    ok = True
    for model in models:
        m = masked_norm_minima(model)
        ok = ok and (m.r4 <= min(m.r2, m.r3) + 1e-6)
        ok = ok and (max(m.r2, m.r3) <= m.r1 + 1e-6)
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    assert report(6, "masked norm minima orderings", ok), f"{elapsed:.1f}s"


def test_criterion_7_certificate_consistency():
    start = time.time()
    rng = np.random.default_rng(17_001)
    cases = []
    for name in ("case1_stable", "case2_unstable"):
        model, _ = fixture(name)
        cases.append(model)
    cases.append(random_model(rng, max_n=2, max_m=1, spectral_radius=0.8))
    cases.append(random_model(rng, max_n=2, max_m=2, spectral_radius=1.2,
                              full_row_rank=True))
    ok = True
    checked = 0
    for model in cases:
        minima = masked_norm_minima(model)
        for l1 in (0.0, 0.5, 1.0):
            for l2 in (0.0, 0.5, 1.0):
                delays = DelayModel(l1, l2)
                rep = boundedness_test(model, delays, minima=minima)
                if not rep.certified:
                    continue
                checked += 1
                rho = kron_update_radius(model, delays, rep.certificates())
                ok = ok and rho <= rep.weighted_sum + 1e-9
                seq = cov_bound_sequence(model, delays, 500)
                ok = ok and (not seq.diverged) and seq.plateaued(rtol=1e-6)
    elapsed = time.time() - start
    ok = ok and checked > 0 and elapsed < 120
    assert report(7, "certified weighted sum bounds update radius", ok), (
        f"{checked} certified grid points checked, {elapsed:.1f}s"
    )


def test_criterion_8_critical_probability_bracket():
    start = time.time()
    rng = np.random.default_rng(18_001)
    models = [fixture("case1_stable")[0], fixture("case2_unstable")[0],
              fixture("toy_identity")[0]]
    models.append(random_model(rng, max_n=2, max_m=2, spectral_radius=0.85,
                               full_row_rank=True))
    models.append(random_model(rng, max_n=2, max_m=2, spectral_radius=1.25,
                               full_row_rank=True))
    ok = True
    for model in models:
        minima = masked_norm_minima(model)
        alpha = residual_gram_floor(model).alpha  # full row rank by construction
        for fixed_which, lam in ((1, 1.0), (2, 0.5)):
            bounds = bounds_from_minima(minima, lam, fixed_which, alpha)
            est = empirical_critical(model, lam, fixed_which, horizon=300,
                                     bisect_tol=0.02)
            ok = ok and (bounds.lower - 0.02 <= est.estimate <= bounds.upper + 0.02)
            if lam * alpha > 1.1:
                ok = ok and est.h_diverged
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    assert report(8, "critical probability bracket and divergence witness", ok), (
        f"{elapsed:.1f}s"
    )


def test_criterion_9_stable_grid_reproduction(grid_case1):
    res, elapsed = grid_case1
    model, _ = fixture("case1_stable")
    steady = kalman_baseline(model, 300)[-1]
    t_end = 50
    ok = bool(np.isfinite(res.trace_mean).all())
    worst_cell = res.trace_mean[2, 2, t_end - 1]   # (1, 1)
    best_cell = res.trace_mean[0, 0, t_end - 1]    # (0, 0)
    se = res.trace_se[2, 2, t_end - 1]
    ok = ok and (worst_cell >= best_cell - 5 * se)
    ok = ok and bool((res.trace_mean[:, :, t_end - 1] <= 10 * steady).all())
    ok = ok and elapsed < 600
    assert report(9, "stable fixture grid: finite, monotone, near baseline", ok), (
        f"(1,1) {worst_cell:.3f} vs (0,0) {best_cell:.3f}, steady {steady:.3f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_10_unstable_axis_sweeps(sweeps_case2):
    (res_a, res_b), elapsed = sweeps_case2
    model, _ = fixture("case2_unstable")
    baseline = kalman_baseline(model, 50)
    t_end = 50
    ok = bool(np.isfinite(res_a.trace_mean).all())
    ok = ok and bool(np.isfinite(res_b.trace_mean).all())
    cap = 10 * baseline[t_end - 1]
    ok = ok and bool((res_a.trace_mean[:, :, t_end - 1] <= cap).all())
    ok = ok and bool((res_b.trace_mean[:, :, t_end - 1] <= cap).all())
    ok = ok and elapsed < 600
    assert report(10, "unstable fixture axis sweeps near baseline", ok), (
        f"max cell {max(res_a.trace_mean[..., -1].max(), res_b.trace_mean[..., -1].max()):.2f} "
        f"vs cap {cap:.2f}, {elapsed:.1f}s"
    )


def test_criterion_11_determinism_across_workers(mc_bound_data, grid_case1,
                                                 sweeps_case2):
    data, _ = mc_bound_data
    res9, _ = grid_case1
    (res10a, res10b), _ = sweeps_case2
    toy, _ = fixture("toy_identity")
    case1, _ = fixture("case1_stable")
    case2, _ = fixture("case2_unstable")

    again5 = sweep(toy, [0.5], [0.5], runs=2000, horizon=20,
                   master_seed=SEED_C5_TOY, workers=2)
    again9 = sweep(case1, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], runs=1000,
                   horizon=50, master_seed=SEED_C9, workers=2)
    again10 = sweep(case2, [1.0], [0.0, 0.5, 1.0], runs=1000, horizon=50,
                    master_seed=SEED_C10A, workers=2)

    ok = data["toy_identity"][0].to_csv().encode() == again5.to_csv().encode()
    ok = ok and res9.to_csv().encode() == again9.to_csv().encode()
    ok = ok and res10a.to_csv().encode() == again10.to_csv().encode()
    assert report(11, "byte-identical repetition across worker counts", ok)
