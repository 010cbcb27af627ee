"""Monte-Carlo estimation of the expected error covariance.

The prediction covariance depends only on the delay indicators, so a
Monte-Carlo run needs no plant: run r draws its indicators from the delay
stream that :func:`~netkalman.filtering.run_filter` would use for the
generator ``make_rng(master_seed, r)``
(:func:`~netkalman.filtering.delay_rng`), and all runs advance together
as one stack through :func:`~netkalman.filtering.covariance_step`.  Runs
that share a delay history prefix share one covariance computation: each
step advances one representative per distinct prefix.  Each run gets the
same covariances as its filter run, bit for bit, whatever else is in the
stack.  The headline metric is the trace of the average prediction
covariance per step, compared against the no-delay Kalman recursion,
which a sweep runs as one all-on-time layer of the same stack.  Run seeds
derive from the master seed through a fixed mixing function and results
are reduced over every run in run-index order, so output is
byte-identical for a given seed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .filtering import _check_count, covariance_step, delay_indicators, delay_rng, stream_seed
# Not called here; kept as a module attribute because the benchmark's
# traced run (perfbench/spans.py) wraps ``montecarlo.run_filter`` by name.
from .filtering import run_filter  # noqa: F401
from .model import DelayModel, SystemModel

__all__ = [
    "EecEstimate",
    "estimate_eec",
    "kalman_baseline",
    "SweepResult",
    "sweep",
]


@dataclass(frozen=True)
class EecEstimate:
    """Monte-Carlo average of the prediction covariance per step.

    ``mean_P[k]`` estimates the expected prediction covariance at step
    ``t = k+1``; ``trace_mean`` and ``trace_se`` are the per-step sample
    mean and standard error of the covariance traces across runs.
    """

    mean_P: np.ndarray  # (horizon, n, n)
    trace_mean: np.ndarray  # (horizon,)
    trace_se: np.ndarray  # (horizon,)
    runs: int
    horizon: int
    master_seed: int

    def _index(self, t: int) -> int:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"t must lie in 1..{self.horizon}, got {t}")
        return t - 1

    def trace_at(self, t: int) -> float:
        return float(self.trace_mean[self._index(t)])

    def se_at(self, t: int) -> float:
        return float(self.trace_se[self._index(t)])


def _run_indicators(delays: DelayModel, runs: int, horizon: int, master_seed: int):
    """(runs, horizon) indicators of runs 0..runs-1, as ``run_filter`` draws them."""
    _check_count(runs, "runs")
    _check_count(horizon, "horizon")
    draws = [delay_indicators(delays, horizon, delay_rng(master_seed, r)) for r in range(runs)]
    return np.stack([g1 for g1, _ in draws]), np.stack([g2 for _, g2 in draws])


def _stack_run(model: SystemModel, gamma1: np.ndarray, gamma2: np.ndarray):
    """Run the covariance recursion of R runs over T steps as one stack.

    Runs that share a delay history prefix share its covariances, so each
    step advances one layer per distinct prefix, keyed by
    ``4 * parent layer + 2 * gamma1 + gamma2``.  Returns the (R, T) traces
    of the prediction covariances and their (T, n, n) sums over the runs,
    accumulated in run order over every run's gathered covariance, so
    both have the bits of a stack with one layer per run.
    """
    R, T = gamma1.shape
    traces = np.zeros((R, T))
    sum_P = np.zeros((T, model.n, model.n))
    layer = np.zeros(R, dtype=np.intp)  # the layer of P_post holding each run
    P_post = np.array(model.Sigma0, dtype=float)[None]
    for k in range(T):
        key = 4 * layer + 2 * gamma1[:, k] + gamma2[:, k]
        # A presence table lists the distinct keys in ascending order
        # without a sort, and its running count numbers them.
        seen = np.zeros(4 * len(P_post), dtype=bool)
        seen[key] = True
        keys = np.flatnonzero(seen)
        layer = np.cumsum(seen)[key] - 1
        P_prior, P_post, _ = covariance_step(model, P_post[keys >> 2], (keys >> 1) & 1, keys & 1)
        traces[:, k] = np.trace(P_prior, axis1=1, axis2=2)[layer]
        sum_P[k] = P_prior[layer].sum(axis=0)
    return traces, sum_P


def _trace_stats(traces: np.ndarray):
    """Per-step mean and standard error (exactly 0 where all runs agree) over rows."""
    runs, horizon = traces.shape
    if runs > 1:
        se = traces.std(axis=0, ddof=1) / np.sqrt(runs)
        return traces.mean(axis=0), np.where((traces == traces[0]).all(axis=0), 0.0, se)
    return traces.mean(axis=0), np.zeros(horizon)


def estimate_eec(
    model: SystemModel,
    delays: DelayModel,
    runs: int,
    horizon: int,
    master_seed: int,
) -> EecEstimate:
    """Average the prediction covariance over seeded runs.

    Run r uses the delay stream of ``make_rng(master_seed, r)``;
    covariances are accumulated in ascending run order.
    """
    traces, sum_P = _stack_run(model, *_run_indicators(delays, runs, horizon, master_seed))
    trace_mean, trace_se = _trace_stats(traces)
    return EecEstimate(
        mean_P=sum_P / runs,
        trace_mean=trace_mean,
        trace_se=trace_se,
        runs=runs,
        horizon=horizon,
        master_seed=master_seed,
    )


def kalman_baseline(model: SystemModel, horizon: int) -> np.ndarray:
    """Trace series of the no-delay (full-gain) covariance recursion.

    A stack of one run with every outcome on time, so it matches
    :func:`estimate_eec` at zero delay probabilities bit for bit.
    """
    _check_count(horizon, "horizon")
    on_time = np.ones((1, horizon), dtype=int)
    return _stack_run(model, on_time, on_time)[0][0]


@dataclass(frozen=True)
class SweepResult:
    """Per-cell Monte-Carlo traces over a grid of delay probabilities."""

    lambda1_values: np.ndarray  # (L1,)
    lambda2_values: np.ndarray  # (L2,)
    trace_mean: np.ndarray  # (L1, L2, horizon)
    trace_se: np.ndarray  # (L1, L2, horizon)
    kalman_trace: np.ndarray  # (horizon,)
    runs: int
    horizon: int
    master_seed: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("lambda1,lambda2,t,trace_mean,stderr,trace_kalman\n")
        for i, l1 in enumerate(self.lambda1_values):
            for j, l2 in enumerate(self.lambda2_values):
                for k in range(self.horizon):
                    buf.write(
                        f"{l1:.17g},{l2:.17g},{k + 1},"
                        f"{self.trace_mean[i, j, k]:.17g},"
                        f"{self.trace_se[i, j, k]:.17g},"
                        f"{self.kalman_trace[k]:.17g}\n"
                    )
        return buf.getvalue()


def sweep(
    model: SystemModel,
    lambda1_values: Sequence[float],
    lambda2_values: Sequence[float],
    runs: int,
    horizon: int,
    master_seed: int,
    workers: Optional[int] = None,
) -> SweepResult:
    """Monte-Carlo sweep over a grid of delay probabilities.

    Cell (i, j) equals :func:`estimate_eec` with the seed
    ``stream_seed(master_seed, row-major cell index)``; the runs of all
    cells advance as one stack, in which runs sharing a delay history
    prefix share one covariance computation.  ``kalman_trace`` is read
    from one more all-on-time layer of that stack and equals
    :func:`kalman_baseline` bit for bit.  ``workers`` is accepted for
    compatibility and ignored.
    """
    l1s = np.asarray(list(lambda1_values), dtype=float)
    l2s = np.asarray(list(lambda2_values), dtype=float)
    if l1s.size == 0 or l2s.size == 0:
        raise ValueError("each grid axis needs at least one probability")

    cells = [
        _run_indicators(DelayModel(float(l1), float(l2)), runs, horizon,
                        stream_seed(master_seed, i * len(l2s) + j))
        for i, l1 in enumerate(l1s)
        for j, l2 in enumerate(l2s)
    ]
    # A last all-on-time row gives the Kalman baseline from the same stack.
    on_time = np.ones((1, horizon), dtype=int)
    gamma1 = np.concatenate([g1 for g1, _ in cells] + [on_time])
    gamma2 = np.concatenate([g2 for _, g2 in cells] + [on_time])
    traces = _stack_run(model, gamma1, gamma2)[0]

    trace_mean = np.zeros((len(l1s), len(l2s), horizon))
    trace_se = np.zeros_like(trace_mean)
    for idx in range(len(cells)):
        i, j = divmod(idx, len(l2s))
        trace_mean[i, j], trace_se[i, j] = _trace_stats(traces[idx * runs:(idx + 1) * runs])
    return SweepResult(
        lambda1_values=l1s,
        lambda2_values=l2s,
        trace_mean=trace_mean,
        trace_se=trace_se,
        kalman_trace=traces[-1].copy(),
        runs=runs,
        horizon=horizon,
        master_seed=master_seed,
    )
