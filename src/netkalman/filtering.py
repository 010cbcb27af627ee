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
:func:`run_filter` on a stack of one beside the estimate recursion; each
run gets the same bits as :func:`predict` and :func:`update`.  The public
calls check each call; :func:`run_filter`'s steps do arithmetic only,
and it makes the same checks once over the whole run.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .gains import (_innovation, _on_time_rows, _run_checks, _select_gain, optimal_gain,
                    posterior_cov, structured_gain)
from .model import DelayModel, DelayOutcome, SystemModel

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
_CSV_CHUNK = 256  # rows converted to Python floats at a time by to_csv


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


def _check_count(value, name: str) -> None:
    """Raise unless ``value`` is an integer >= 1 (``np.int64`` included, bools not)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
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
        x[t] = A @ x[t - 1] + x[t]
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
    """Prediction covariance ``A P A^T + W`` of an (..., n, n) stack."""
    P_prior = model.A @ P_post @ model.A.T + model.W
    return (P_prior + np.swapaxes(P_prior, -1, -2)) / 2.0


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
    m1, n1 = model.m1, model.n1
    return (xhat + D[:, :m1] @ (y1 - model.C1 @ xhat[:n1])
            + D[:, m1:] @ (y2 - model.C2 @ xhat[n1:]))


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
        n = self.x.shape[1]
        cols = (
            ["t", "gamma1", "gamma2"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"xhat_{i + 1}" for i in range(n)]
            + ["trace_P_prior", "trace_P_post", "sq_err"]
        )
        row = ",".join(["%d"] * 3 + ["%.17g"] * (2 * n + 3)) + "\n"
        columns = [self.t, self.gamma1, self.gamma2, self.x, self.xhat,
                   self.trace_prior(), self.trace_post(), self.sq_err]
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for start in range(0, self.horizon, _CSV_CHUNK):
            chunk = np.column_stack([c[start:start + _CSV_CHUNK] for c in columns])
            buf.writelines(row % tuple(v) for v in chunk.tolist())
        return buf.getvalue()


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
    the same bits as :func:`predict` followed by :func:`update`.
    """
    P_prior = predict_cov(model, P_post)
    D = structured_gain(P_prior, model.C, model.V, model.dims, gamma1, gamma2)
    return P_prior, posterior_cov(P_prior, D, model.C, model.V), D


def run_filter(
    model: SystemModel,
    delays: DelayModel,
    T: int,
    rng: np.random.Generator,
) -> TrajectoryRecord:
    """Simulate the plant and run the delay-aware estimator for T steps.

    The generator is split into two child streams (plant noise, delay
    indicators) so that the realized delays do not perturb the plant
    sample path.  Each step is arithmetic only, on a stack of one: the
    prediction, the gain of :func:`covariance_step` through an unchecked
    inverse that keeps what it inverts, the posterior, and the estimate
    predicted and corrected with that gain; each gets the same bits as
    :func:`covariance_step`.  The checks run once, over the whole run
    (``gains._run_checks``).  A run stops stepping at its first non-finite
    prior, and runs the checks also when a step raises, so a run whose
    covariance turns non-finite fails with the PSD check's named error.
    """
    _check_count(T, "T")
    plant_rng, delay_rng = rng.spawn(2)
    plant = simulate_plant(model, T, plant_rng)
    gamma1, gamma2 = delay_indicators(delays, T, delay_rng)

    n, dims = model.n, model.dims
    on_time = _on_time_rows(dims, gamma1, gamma2)
    late1, late2 = (gamma1 == 0).tolist(), (gamma2 == 0).tolist()
    A, C, V = model.A, model.C, model.V
    xhat = np.zeros((T, n))
    P_prior = np.zeros((T, n, n))
    P_post = np.zeros((T, n, n))
    sq_err = np.zeros(T)
    inverse, check_run = _run_checks(T)

    x = np.zeros(n)
    P = np.array(model.Sigma0, dtype=float)[None]
    try:
        for k in range(T):
            prior = predict_cov(model, P)
            P_prior[k] = prior[0]
            if not np.isfinite(prior).all():
                break  # the PSD check of the recorded priors names it
            _, S, xcov = _innovation(prior, C, V)
            D = _select_gain(S, xcov, dims, on_time[k], late1[k], late2[k], inverse)
            P = posterior_cov(prior, D, C, V)
            x = _correct(model, A @ x, D[0], plant.y1[k + 1], plant.y2[k + 1])
            xhat[k] = x
            P_post[k] = P[0]
            err = plant.x[k + 1] - x
            sq_err[k] = float(err @ err)
    except np.linalg.LinAlgError:
        check_run(P_prior[:k + 1])
        raise
    check_run(P_prior[:k + 1])

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
        sq_err=sq_err,
        x0=plant.x[0].copy(),
    )
