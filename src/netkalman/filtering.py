"""Plant simulation and the distributed delay-aware estimator.

The estimator predicts with the full coupled dynamics, then updates with
the trace-optimal gain for the realized delay outcome: a subsystem takes
its rows of the Kalman gain when its cross measurement is on time and its
local gain when delayed.  A delayed cross measurement's gain block is thus
exact zero, so the stacked update and the two per-subsystem updates
coincide; both forms are provided.  The covariance recursion is driven
only by the delay indicators, so the recorded covariances are the exact
conditional error covariances given the delay history.
:func:`covariance_step` runs it for a stack of runs, with no plant, and
:func:`run_filter` on 2-D matrices before the estimate recursion; each
run gets the same bits as :func:`predict` and :func:`update`.  Both step
with one kernel, :func:`predict_cov` followed by a step of the private
gain plan of :mod:`~netkalman.gains` and the posterior, with the model's
matrices taken once per call; :func:`run_filter`'s products go through
``ndarray.dot`` and the stack's through ``np.matmul``, with the same
bits.  Every prior is checked, so a recursion stops at its first
non-finite one; :func:`run_filter`'s steps do arithmetic only, and one
gain call checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gains import (_check_psd, _dot, _gain_plan, _identity, _posterior, _sym, optimal_gain,
                    posterior_cov, structured_gain)
from .model import DelayModel, DelayOutcome, SystemModel, _csv_text, _table_rows

__all__ = [
    "stream_seed",
    "make_rng",
    "delay_rng",
    "PlantTrajectory",
    "simulate_plant",
    "EstimatorState",
    "initial_state",
    "predict",
    "update",
    "subsystem_updates",
    "TrajectoryRecord",
    "delay_indicators",
    "predict_cov",
    "covariance_step",
    "run_filter",
]

_MASK64 = (1 << 64) - 1


def stream_seed(master_seed: int, stream_id: int) -> int:
    """Derive a 64-bit per-stream seed from (master seed, stream id).

    splitmix64 applied to the master seed offset by the stream id; the
    mixing constants are fixed so results are stable across platforms and
    library versions.
    """
    z = (int(master_seed) + (int(stream_id) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_rng(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic generator for a (seed, stream) pair."""
    return np.random.default_rng(stream_seed(master_seed, stream_id))


def delay_rng(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """The delay-indicator stream of ``make_rng(master_seed, stream_id)``.

    Equal to ``make_rng(master_seed, stream_id).spawn(2)[1]``, the child
    from which :func:`run_filter` draws its delay indicators, built
    directly from that child's seed sequence (spawn key ``(1,)``) without
    the parent and plant-noise generators.
    """
    seq = np.random.SeedSequence(stream_seed(master_seed, stream_id), spawn_key=(1,))
    return np.random.default_rng(seq)


def _chol_psd(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky-like factor, tolerating a zero (or PSD) matrix."""
    M = np.asarray(M, dtype=float)
    if np.abs(M).max() == 0.0:
        return np.zeros_like(M)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # PSD fallback through the symmetric eigendecomposition.
        eigs, vecs = np.linalg.eigh((M + M.T) / 2.0)
        eigs = np.clip(eigs, 0.0, None)
        return vecs * np.sqrt(eigs)


@dataclass(frozen=True)
class PlantTrajectory:
    """States and measurements for t = 0..T (row t is time t)."""

    x: np.ndarray  # (T+1, n)
    y1: np.ndarray  # (T+1, m1)
    y2: np.ndarray  # (T+1, m2)


def _check_count(value, name: str, top=None) -> None:
    """Raise unless ``value`` is an integer >= 1, and <= ``top`` if given (not a bool)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
    if top is not None and not 1 <= value <= top:
        raise ValueError(f"{name} must lie in 1..{top}, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def simulate_plant(model: SystemModel, T: int, rng: np.random.Generator) -> PlantTrajectory:
    """Simulate the plant for T steps.

    ``x_0 ~ N(0, Sigma0)``, ``x_{t+1} = A x_t + w_t`` with
    ``w_t ~ N(0, W)``, and both sensors measured at every time with noise
    covariance V.  Deterministic given the generator state: row t of one
    (T+1, n+m) standard normal draw holds the state noise, then the
    measurement noise, of time t, the order of one draw per vector.
    """
    _check_count(T, "T")
    n, m1 = model.n, model.m1
    E = rng.standard_normal((T + 1, n + model.m))
    # Row t holds w_t until the loop replaces it with x_t.
    x = np.matmul(_chol_psd(model.W), E[:, :n, None])[..., 0]
    x[0] = _chol_psd(model.Sigma0) @ E[0, :n]
    A = model.A
    for t in range(1, T + 1):
        x[t] = _dot(A, x[t - 1]) + x[t]
    y = np.matmul(model.C, x[:, :, None])[..., 0] + np.matmul(_chol_psd(model.V),
                                                             E[:, n:, None])[..., 0]
    return PlantTrajectory(x=x, y1=y[:, :m1], y2=y[:, m1:])


@dataclass(frozen=True)
class EstimatorState:
    """Estimator state between steps.

    ``xhat1``/``xhat2`` are the per-subsystem estimates: after
    :func:`predict` they are the one-step predictions, after
    :func:`update` the posteriors.  ``P_prior`` is the current prediction
    covariance (``Sigma0`` at t = 0 by convention) and ``P_post`` the
    latest posterior covariance.  ``t`` is the step index.
    """

    xhat1: np.ndarray
    xhat2: np.ndarray
    P_prior: np.ndarray
    P_post: np.ndarray
    t: int

    @property
    def xhat(self) -> np.ndarray:
        return np.concatenate([self.xhat1, self.xhat2])


def initial_state(model: SystemModel) -> EstimatorState:
    """Zero estimate with covariance Sigma0 at t = 0."""
    return EstimatorState(
        xhat1=np.zeros(model.n1),
        xhat2=np.zeros(model.n2),
        P_prior=np.array(model.Sigma0),
        P_post=np.array(model.Sigma0),
        t=0,
    )


def predict_cov(model: SystemModel, P_post: np.ndarray) -> np.ndarray:
    """Prediction covariance ``A P A^T + W`` of an (n, n) matrix or an (..., n, n) stack.

    A C- or F-contiguous (n, n) array takes the products of
    :func:`~netkalman.gains._dot`, and any other P the same bits through
    ``np.matmul``.
    """
    mul = np.matmul
    if getattr(P_post, "ndim", 0) == 2 and (P_post.flags.c_contiguous
                                             or P_post.flags.f_contiguous):
        mul = _dot
    P_prior = mul(mul(model.A, P_post), model.A.T)
    P_prior += model.W
    return _sym(P_prior)


def predict(state: EstimatorState, model: SystemModel) -> EstimatorState:
    """Time update: propagate the estimate and covariance one step."""
    xhat = model.A @ state.xhat
    return EstimatorState(
        xhat1=xhat[: model.n1],
        xhat2=xhat[model.n1 :],
        P_prior=predict_cov(model, state.P_post),
        P_post=state.P_post,
        t=state.t + 1,
    )


def _correct(model: SystemModel, xhat: np.ndarray, D: np.ndarray, y1, y2) -> np.ndarray:
    """Estimate ``xhat`` corrected by the innovations of both sensors, gain D."""
    m1 = model.m1
    return _corrected(xhat, D[:, :m1], D[:, m1:], model.C1, model.C2, model.n1, y1, y2)


def _corrected(xhat, D1, D2, C1, C2, n1: int, y1, y2) -> np.ndarray:
    """:func:`_correct` with the gain's columns ``D1``/``D2`` of sensor 1/2 given."""
    return xhat + _dot(D1, y1 - _dot(C1, xhat[:n1])) + _dot(D2, y2 - _dot(C2, xhat[n1:]))


def update(
    state: EstimatorState,
    model: SystemModel,
    y1: np.ndarray,
    y2: np.ndarray,
    outcome: DelayOutcome,
) -> EstimatorState:
    """Measurement update with the outcome's trace-optimal gain.

    Innovations from a delayed cross measurement are harmless to include:
    the corresponding gain block is exactly zero, so only the permitted
    innovations contribute.  The stacked form used here produces the same
    estimates as the per-subsystem realization
    (:func:`subsystem_updates`).
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != (model.m1,) or y2.shape != (model.m2,):
        raise ValueError(
            f"measurement shapes {y1.shape}, {y2.shape} do not match "
            f"(m1, m2) = ({model.m1}, {model.m2})"
        )
    D = optimal_gain(state.P_prior, model.C, model.V, model.dims, outcome)
    xhat = _correct(model, state.xhat, D, y1, y2)
    P_post = posterior_cov(state.P_prior, D, model.C, model.V)
    return EstimatorState(
        xhat1=xhat[: model.n1],
        xhat2=xhat[model.n1 :],
        P_prior=state.P_prior,
        P_post=P_post,
        t=state.t,
    )


def subsystem_updates(
    state: EstimatorState,
    model: SystemModel,
    y1: np.ndarray,
    y2: np.ndarray,
    outcome: DelayOutcome,
):
    """Per-subsystem realization of the measurement update.

    Each subsystem corrects its own prediction with its local innovation,
    then, only when its cross measurement arrived on time, adds the cross
    innovation term.  Returns ``(xhat1, xhat2)``; agrees with the stacked
    update of :func:`update`.
    """
    D = optimal_gain(state.P_prior, model.C, model.V, model.dims, outcome)
    n1, m1 = model.n1, model.m1
    inn1 = np.asarray(y1, dtype=float) - model.C1 @ state.xhat1
    inn2 = np.asarray(y2, dtype=float) - model.C2 @ state.xhat2
    xhat1 = state.xhat1 + D[:n1, :m1] @ inn1
    if outcome.gamma1 == 1:
        xhat1 = xhat1 + D[:n1, m1:] @ inn2
    xhat2 = state.xhat2 + D[n1:, m1:] @ inn2
    if outcome.gamma2 == 1:
        xhat2 = xhat2 + D[n1:, :m1] @ inn1
    return xhat1, xhat2


@dataclass(frozen=True)
class TrajectoryRecord:
    """Everything recorded during one filter run (rows are t = 1..T)."""

    t: np.ndarray  # (T,) step index
    gamma1: np.ndarray  # (T,) delay indicators
    gamma2: np.ndarray
    x: np.ndarray  # (T, n) true states
    y1: np.ndarray  # (T, m1) measurements
    y2: np.ndarray  # (T, m2)
    xhat: np.ndarray  # (T, n) posterior estimates
    P_prior: np.ndarray  # (T, n, n) prediction covariances
    P_post: np.ndarray  # (T, n, n) posterior covariances
    sq_err: np.ndarray  # (T,) squared posterior estimation errors
    x0: np.ndarray  # (n,) initial true state

    @property
    def horizon(self) -> int:
        return len(self.t)

    def trace_prior(self) -> np.ndarray:
        return np.trace(self.P_prior, axis1=1, axis2=2)

    def trace_post(self) -> np.ndarray:
        return np.trace(self.P_post, axis1=1, axis2=2)

    def to_csv(self) -> str:
        """Canonical CSV serialization (header + one row per step)."""
        states = range(1, self.x.shape[1] + 1)
        header = ",".join(["t", "gamma1", "gamma2"] + [f"x_{i}" for i in states]
                          + [f"xhat_{i}" for i in states]
                          + ["trace_P_prior", "trace_P_post", "sq_err"])
        return _csv_text(header, _table_rows(self.t, self.gamma1, self.gamma2, self.x, self.xhat,
                                             self.trace_prior(), self.trace_post(), self.sq_err))


def delay_indicators(delays: DelayModel, T: int, rng: np.random.Generator):
    """Draw the on-time indicators ``(gamma1, gamma2)`` of T steps.

    Two uniforms per step, in step order, regardless of the
    probabilities; ``gamma = 1`` means the cross measurement is on time.
    """
    u = rng.random((T, 2))
    gamma1 = (u[:, 0] >= delays.lambda1).astype(int)
    gamma2 = (u[:, 1] >= delays.lambda2).astype(int)
    return gamma1, gamma2


def covariance_step(model: SystemModel, P_post: np.ndarray, gamma1, gamma2):
    """Advance an (R, n, n) stack of posterior covariances by one step.

    Run r is predicted, then updated with the optimal gain of outcome
    ``(gamma1[r], gamma2[r])``.  Returns the new ``(P_prior, P_post)``
    stacks and the (R, n, m) stack D of the gains used.  Each run gets
    the same bits as :func:`predict` followed by :func:`update`.  The step
    is :func:`run_filter`'s: the gain kernel, planned once for this call's
    indicators, takes the prior as :func:`predict_cov` returns it, exactly
    symmetric and so not symmetrized again, and is checked, with the PSD
    check and the warning inverse of
    :func:`~netkalman.gains.structured_gain`.
    """
    P_prior = predict_cov(model, P_post)
    C, V = model.C, model.V
    D = _gain_plan(C, C.T, V, model.dims, gamma1, gamma2, True)(P_prior)
    return P_prior, _posterior(P_prior, D, C, V, _identity(model.n)), D


def run_filter(
    model: SystemModel,
    delays: DelayModel,
    T: int,
    rng: np.random.Generator,
) -> TrajectoryRecord:
    """Simulate the plant and run the delay-aware estimator for T steps.

    The generator is split into two child streams (plant noise, delay
    indicators) so that the realized delays do not perturb the plant
    sample path.  The covariance recursion depends on the delay
    indicators alone, so it runs first, on (n, n) matrices, with the bits
    of :func:`covariance_step` on a stack of one: the kernel's products go
    through ``ndarray.dot``, which has matmul's bits on these operands,
    the model's matrices are taken once per run, and each posterior is
    written into the record in place.  The gain kernel is planned once
    per run for each of the four outcomes, unchecked, and each step takes
    the plan of its indicators: arithmetic only, with one LU inverse per
    block read and no test of the outcome masks.  The steps stop at the
    first non-finite prior, but not at an indefinite one.
    Then, also when a step raised, one
    :func:`structured_gain` call over the stepped priors makes that call's
    checks, the PSD check of each included, with at most one
    ill-conditioning warning per label, and one more PSD check names a
    non-finite or indefinite prior that the steps stopped at.  The
    estimate recursion runs on the gains of that call, with the steps' bits,
    and its products, like the plant's, go through ``ndarray.dot`` too.
    """
    _check_count(T, "T")
    plant_rng, delay_rng = rng.spawn(2)
    plant = simulate_plant(model, T, plant_rng)
    gamma1, gamma2 = delay_indicators(delays, T, delay_rng)

    n, dims = model.n, model.dims
    C, V = model.C, model.V
    CT, I = C.T, _identity(n)
    plans = [[_gain_plan(C, CT, V, dims, a, b, False, _dot) for b in (0, 1)] for a in (0, 1)]
    on1, on2 = gamma1.tolist(), gamma2.tolist()
    P_prior = np.zeros((T, n, n))
    P_post = np.zeros((T, n, n))

    P = np.array(model.Sigma0, dtype=float)
    stepped = 0
    try:
        for k in range(T):
            prior = P_prior[k] = predict_cov(model, P)
            if not np.isfinite(prior).all():
                break  # the PSD check of this prior names it
            D_k = plans[on1[k]][on2[k]](prior)
            P = _posterior(prior, D_k, C, V, I, P_post[k], _dot)
            stepped = k + 1
    finally:
        D = structured_gain(P_prior[:stepped], C, V, dims, gamma1[:stepped], gamma2[:stepped])
        _check_psd(P_prior[stepped:k + 1])

    A, C1, C2, n1, m1 = model.A, model.C1, model.C2, model.n1, model.m1
    D1, D2, y1, y2 = D[..., :m1], D[..., m1:], plant.y1[1:], plant.y2[1:]
    xhat = np.zeros((T, n))
    x = np.zeros(n)
    for k in range(T):
        x = xhat[k] = _corrected(_dot(A, x), D1[k], D2[k], C1, C2, n1, y1[k], y2[k])
    err = plant.x[1:] - xhat
    return TrajectoryRecord(
        t=np.arange(1, T + 1),
        gamma1=gamma1,
        gamma2=gamma2,
        x=plant.x[1:].copy(),
        y1=plant.y1[1:].copy(),
        y2=plant.y2[1:].copy(),
        xhat=xhat,
        P_prior=P_prior,
        P_post=P_post,
        sq_err=np.matmul(err[:, None], err[..., None])[:, 0, 0],  # bits of each err @ err
        x0=plant.x[0].copy(),
    )
