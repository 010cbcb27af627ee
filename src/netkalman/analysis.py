"""Boundedness analysis of the expected error covariance.

The prediction covariance is a random matrix driven by the delay
indicators.  This module implements its one-step conditional expectation
under the per-outcome optimal gains, the deterministic iteration of that
map (the working upper bound for the expected covariance; see README
"Known limitations" for the matrix-order caveat), the Kronecker-form
linear update whose spectral radius certifies convergence for a fixed
gain, the masked spectral-norm minima r1..r4 whose probability-weighted
sum yields an easily checked boundedness certificate, and the
closed-form bracket for the critical delay probability, which is [1, 1]
or [0, 1] (plus an empirical bisection counterpart).

Because the stacked sensing matrix is block diagonal, the pseudo-inverse
gain ``C^+`` is admissible under every delay mask and minimizes all four
masked norms, so r1 = r2 = r3 = r4 = ``||A (I - C^+ C)||_2^2`` in closed
form and ``C^+`` is the one certificate gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .filtering import predict_cov
from .gains import _sym, gain_set, mask_for_outcome, mask_pattern, optimal_gain, posterior_cov
from .model import ALL_OUTCOMES, BlockDims, DelayModel, DelayOutcome, SystemModel

__all__ = [
    "one_step_cov",
    "residual_gram",
    "expected_next_cov",
    "first_prediction_cov",
    "CovBoundSequence",
    "cov_bound_sequence",
    "expected_kron_update",
    "kron_update_radius",
    "NormMinResult",
    "min_structured_norm",
    "NormMinima",
    "masked_norm_minima",
    "BoundednessReport",
    "boundedness_test",
    "InapplicableError",
    "GainFloorResult",
    "residual_gram_floor",
    "CriticalBounds",
    "critical_bounds",
    "bounds_from_minima",
    "DivergenceWitness",
    "divergence_witness",
    "EmpiricalCritical",
    "empirical_critical",
]

# Bisection levels empirical_critical evaluates per stack: up to
# 2**3 - 1 = 7 midpoints, of which it keeps the 3 on its path.  A stack of
# 7 bound sequences costs about 1.15 times one sequence.
_LOOKAHEAD_LEVELS = 3


def closed_loop_factor(model: SystemModel, X) -> np.ndarray:
    """``A - A X C``: the error propagation factor under update gain X."""
    A = model.A
    return A - A @ np.asarray(X, dtype=float) @ model.C


def one_step_cov(model: SystemModel, X, Y) -> np.ndarray:
    """Next prediction covariance when gain X is applied at covariance Y.

    The filter's measurement update followed by its time update, which
    equals ``(A - A X C) Y (A - A X C)^T + (A X) V (A X)^T + W``;
    symmetric PSD for PSD Y.  X and Y may be stacks whose leading axes
    broadcast.
    """
    return predict_cov(model, posterior_cov(Y, X, model.C, model.V))


def residual_gram(model: SystemModel, X) -> np.ndarray:
    """Gram matrix of the propagation factor, ``F^T F`` with F = A - AXC."""
    F = closed_loop_factor(model, X)
    return F.T @ F


def first_prediction_cov(model: SystemModel) -> np.ndarray:
    """Prediction covariance at step 1: ``A Sigma0 A^T + W``."""
    return predict_cov(model, model.Sigma0)


def expected_next_cov(
    model: SystemModel, delays: DelayModel | Sequence[DelayModel], Y
) -> np.ndarray:
    """Conditional expectation of the next prediction covariance.

    Averages :func:`one_step_cov` at the four per-outcome optimal gains
    with the outcome probabilities; this equals the exact conditional
    expectation of the covariance recursion given the current value.
    Iterating it from the step-1 covariance gives the deterministic
    companion sequence used to bound the expected covariance.

    Y is an (n, n) matrix with one :class:`DelayModel`, or a (K, n, n)
    stack with a sequence of K delay models, one per layer.  Each layer
    gets the same bits as it would alone: the gains of the stack come
    from one :func:`gain_set` call, :func:`one_step_cov` runs only on the
    (layer, outcome) pairs of positive probability, so that a non-finite
    gain of an impossible outcome cannot reach the sum, and the k layers
    with c possible outcomes are summed by one ``(k, 1, c) @ (k, c, n*n)``
    matmul, which has the bits of a ``tensordot`` of each layer alone
    (padding every layer to 4 outcomes with zero weights would not).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 2:
        return expected_next_cov(model, [delays], Y[None])[0]
    return _expected_next(model, _outcome_probabilities(delays), Y)


def _outcome_probabilities(delays) -> np.ndarray:
    """(K, 4) probabilities of ``ALL_OUTCOMES`` under each of K delay models."""
    return np.array([[d.outcome_probability(oc) for oc in ALL_OUTCOMES] for d in delays])


def _expected_next(model, p, Y) -> np.ndarray:
    """:func:`expected_next_cov` of a (K, n, n) stack with its (K, 4) outcome probabilities."""
    Y = _sym(Y)
    gains = gain_set(Y, model.C, model.V, model.dims)
    X = np.stack([gains.for_outcome(oc) for oc in ALL_OUTCOMES], axis=1)
    live = p > 0.0
    layer = np.nonzero(live)[0]
    terms = one_step_cov(model, X[live], Y[layer]).reshape(len(layer), -1)
    weights, counts = p[live], live.sum(axis=1)
    out = np.empty((len(Y), terms.shape[1]))
    for c in np.unique(counts):
        group = counts == c
        pairs = group[layer]
        out[group] = np.matmul(weights[pairs].reshape(-1, 1, c),
                               terms[pairs].reshape(-1, c, out.shape[1]))[:, 0]
    return out.reshape(Y.shape)


@dataclass(frozen=True)
class CovBoundSequence:
    """Deterministic companion sequence bounding the expected covariance.

    ``Y[k]`` is the iterated expected update at step ``t = k+1`` (the
    sequence starts from the step-1 prediction covariance); it is the
    working upper bound for the expected prediction covariance at the
    same step, validated statistically in the test suite.  The iteration
    stops early once the trace exceeds the divergence threshold;
    ``diverged_at`` is then the step index of the first offending
    iterate.
    """

    Y: np.ndarray  # (steps_completed, n, n)
    traces: np.ndarray  # (steps_completed,)
    diverged: bool
    diverged_at: Optional[int]
    threshold: float

    def value_at(self, t: int) -> np.ndarray:
        """Bound for the prediction covariance at step t (t >= 1)."""
        return self.Y[t - 1]

    @property
    def steps_completed(self) -> int:
        return len(self.traces)

    def plateaued(self, rtol: float = 1e-8) -> bool:
        """True if the final two traces agree to relative tolerance."""
        if self.diverged or len(self.traces) < 2:
            return False
        a, b = self.traces[-2], self.traces[-1]
        return abs(b - a) <= rtol * max(1.0, abs(b))


class _Orbit:
    """The iterates of one deterministic matrix sequence, up to its exit.

    The sequence leaves off at the first iterate whose trace exceeds the
    threshold, or at the first iterate that repeats an earlier one bit
    for bit.  The map is a pure function of the iterate's bits, so a
    repeat means the sequence cycles from there on and never crosses
    the threshold; :meth:`tiled` fills the rest of the horizon with the
    cycle.  A new iterate is compared bitwise only with the earlier
    iterates of the same trace.
    """

    def __init__(self, Y0: np.ndarray, steps: int, threshold: float):
        self.steps = steps
        self.threshold = threshold
        self.length = 0
        self._ys = np.empty((steps,) + Y0.shape)
        self._traces = np.empty(steps)
        self.cycle_start: Optional[int] = None
        self.diverged_at: Optional[int] = None
        self.push(Y0)

    @property
    def running(self) -> bool:
        return self.cycle_start is None and self.diverged_at is None

    def push(self, Y: np.ndarray) -> bool:
        """Record the next iterate; return whether the iteration goes on."""
        trace = float(np.trace(Y))
        n = self.length
        for s in np.flatnonzero(self._traces[:n] == trace):
            if self._ys[s].tobytes() == Y.tobytes():
                self.cycle_start = int(s)
                return False
        self._ys[n] = Y
        self._traces[n] = trace
        self.length = n + 1
        if trace > self.threshold:
            self.diverged_at = self.length
            return False
        return True

    def tiled(self):
        """Iterates and traces up to the horizon, or to the diverging step."""
        n = self.length
        idx = np.arange(n if self.cycle_start is None else self.steps)
        if self.cycle_start is not None:
            s = self.cycle_start
            idx = np.where(idx < n, idx, s + (idx - s) % (n - s))
        return self._ys[idx], self._traces[idx]


def _divergence_threshold(model: SystemModel, steps: int, threshold: Optional[float]) -> float:
    """``threshold``, ``1e12 * trace(W)`` if None, for a run of ``steps >= 1`` steps."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return 1e12 * float(np.trace(model.W)) if threshold is None else threshold


def _bound_orbits(
    model: SystemModel,
    delays: Sequence[DelayModel],
    steps: int,
    divergence_threshold: Optional[float],
) -> List[_Orbit]:
    """Bound sequences of several delay models, iterated as one stack.

    Each layer leaves the stack when it diverges or cycles, and keeps
    the bits it has when iterated alone (see :func:`expected_next_cov`).
    """
    divergence_threshold = _divergence_threshold(model, steps, divergence_threshold)
    Y0 = first_prediction_cov(model)
    orbits = [_Orbit(Y0, steps, divergence_threshold) for _ in delays]
    p = _outcome_probabilities(delays)
    live = [k for k, orbit in enumerate(orbits) if orbit.running]
    Y = np.array([Y0] * len(live))
    for _ in range(steps - 1):
        if not live:
            break
        Y = _expected_next(model, p[live], Y)
        going = [j for j, k in enumerate(live) if orbits[k].push(Y[j])]
        live = [live[j] for j in going]
        Y = Y[going]
    return orbits


def cov_bound_sequence(
    model: SystemModel,
    delays: DelayModel,
    steps: int,
    divergence_threshold: Optional[float] = None,
) -> CovBoundSequence:
    """Iterate the expected-covariance map for ``steps`` steps.

    Starts at the step-1 prediction covariance.  The default divergence
    threshold is ``1e12 * trace(W)`` (scale invariant).  Once an iterate
    repeats an earlier one bit for bit, the rest of the horizon is that
    cycle, filled in without further steps.
    """
    orbit = _bound_orbits(model, [delays], steps, divergence_threshold)[0]
    Y, traces = orbit.tiled()
    return CovBoundSequence(
        Y=Y,
        traces=traces,
        diverged=orbit.diverged_at is not None,
        diverged_at=orbit.diverged_at,
        threshold=orbit.threshold,
    )


# ---------------------------------------------------------------------------
# Kronecker-form expected update


def _certified_factor(model: SystemModel, delays: DelayModel, X) -> np.ndarray:
    """``F = A - A X C`` for a gain X admissible under every possible outcome."""
    X = np.asarray(X, dtype=float)
    if X.shape != (model.n, model.m):
        raise ValueError(f"gain has shape {X.shape}, expected {(model.n, model.m)}")
    for outcome in ALL_OUTCOMES:
        if delays.outcome_probability(outcome) == 0.0:
            continue
        mask = mask_for_outcome(outcome)
        if np.any(X[~mask_pattern(mask, model.dims)] != 0.0):
            raise ValueError(
                f"gain violates the {mask.value} zero pattern of outcome {outcome.label}"
            )
    return closed_loop_factor(model, X)


def expected_kron_update(model: SystemModel, delays: DelayModel, X) -> np.ndarray:
    """Kronecker-form update of the covariance recursion under one fixed gain.

    X is an (n, m) gain applied whatever the delay outcome, so it must
    respect the mask of every outcome with positive probability (raises
    ``ValueError`` otherwise, or on a wrong shape).  The vectorized
    recursion is then affine with the (n^2, n^2) matrix ``kron(F, F)``,
    ``F = A - A X C`` (the probability-weighted sum of identical terms);
    its spectral radius below one certifies convergence of the covariance
    for that gain.
    """
    F = _certified_factor(model, delays, X)
    return np.kron(F, F)


def kron_update_radius(model: SystemModel, delays: DelayModel, X) -> float:
    """Spectral radius of :func:`expected_kron_update`.

    The eigenvalues of ``kron(F, F)`` are the products of pairs of
    eigenvalues of F, so the radius is ``rho(F)**2``, read off the
    (n, n) factor.
    """
    F = _certified_factor(model, delays, X)
    return float(np.abs(np.linalg.eigvals(F)).max() ** 2)


# ---------------------------------------------------------------------------
# Masked spectral-norm minima


@dataclass(frozen=True)
class NormMinResult:
    """Masked spectral-norm minimum ``||A - A X C||_2^2`` and its gain X.

    ``iterations`` is always 0: the minimum has a closed form.
    """

    value: float
    X: np.ndarray
    iterations: int = 0


def min_structured_norm(A, C, dims: BlockDims) -> NormMinResult:
    """Minimize ``||A - A X C||_2^2`` over the gains X of every delay mask.

    ``C = blkdiag(C1, C2)`` has the block-diagonal pseudo-inverse
    ``X = blkdiag(C1^+, C2^+)``, which every mask admits.  ``X C`` is the
    orthogonal projector onto the row space of C, so ``A - A X C = A P``
    with P the projector onto null(C).  Any gain X' leaves null(C)
    untouched, ``(I - X' C) P = P``, hence ``||A (I - X' C)|| >= ||A P||``
    and X attains the minimum under all four masks at once.

    Raises ``ValueError`` if C has a nonzero entry outside its two
    diagonal blocks, where the masked minima differ and this form fails.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n1, m1 = dims.n1, dims.m1
    if C.shape != (dims.m, dims.n):
        raise ValueError(f"C has shape {C.shape}, expected {(dims.m, dims.n)}")
    if np.any(C[:m1, n1:] != 0.0) or np.any(C[m1:, :n1] != 0.0):
        raise ValueError("C has nonzero entries outside its diagonal blocks")
    X = np.zeros((dims.n, dims.m))
    X[:n1, :m1] = np.linalg.pinv(C[:m1, :n1])
    X[n1:, m1:] = np.linalg.pinv(C[m1:, n1:])
    value = float(np.linalg.norm(A - A @ X @ C, 2) ** 2)
    return NormMinResult(value=value, X=X)


@dataclass(frozen=True)
class NormMinima:
    """The four masked norm minima r1..r4 with their common certificate.

    r1 is the block-diagonal minimum, r2 lower-block, r3 upper-block,
    r4 unconstrained.  With block-diagonal sensing all four equal
    ``||A (I - C^+ C)||_2^2``, attained by the one gain ``X = C^+``
    (see :func:`min_structured_norm`).
    """

    r1: float
    r2: float
    r3: float
    r4: float
    X: np.ndarray


def masked_norm_minima(model: SystemModel) -> NormMinima:
    """Compute r1..r4 and their certificate gain for a model."""
    res = min_structured_norm(model.A, model.C, model.dims)
    r = res.value
    return NormMinima(r1=r, r2=r, r3=r, r4=r, X=res.X)


# ---------------------------------------------------------------------------
# Boundedness certificate


@dataclass(frozen=True)
class BoundednessReport:
    """Result of the weighted-sum boundedness test.

    ``weighted_sum`` is ``r1*p00 + r2*p01 + r3*p10 + r4*p11`` with the
    outcome probabilities of the delay model.  A weighted sum of at most
    one makes the fixed-certificate-gain covariance recursion a
    contraction (its Kronecker update radius is below the weighted sum),
    which certifies a bounded expected covariance for that gain schedule;
    the adaptive-gain bound sequence is checked against the certificate
    in the acceptance suite.  The test is sufficient only, so the
    negative verdict is ``Inconclusive`` rather than unbounded.
    """

    lambda1: float
    lambda2: float
    r1: float
    r2: float
    r3: float
    r4: float
    weighted_sum: float
    verdict: str  # "BoundedCertified" | "Inconclusive"
    minima: NormMinima

    @property
    def certified(self) -> bool:
        return self.verdict == "BoundedCertified"

    def certificates(self) -> np.ndarray:
        """The (n, m) certificate gain, admissible under every outcome."""
        return self.minima.X

    def to_text(self) -> str:
        lines = [
            f"delay probabilities: lambda1 = {self.lambda1:g}, lambda2 = {self.lambda2:g}",
            f"masked norm minima:  r1 = {self.r1:.12g} (block diagonal)",
            f"                     r2 = {self.r2:.12g} (lower block)",
            f"                     r3 = {self.r3:.12g} (upper block)",
            f"                     r4 = {self.r4:.12g} (full)",
            f"weighted sum:        {self.weighted_sum:.12g}",
            f"verdict:             {self.verdict}",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = "lambda1,lambda2,r1,r2,r3,r4,weighted_sum,verdict\n"
        row = ",".join(
            [f"{self.lambda1:.17g}", f"{self.lambda2:.17g}"]
            + [f"{v:.17g}" for v in (self.r1, self.r2, self.r3, self.r4, self.weighted_sum)]
            + [self.verdict]
        )
        return header + row + "\n"


def weighted_sum_of(minima: NormMinima, delays: DelayModel) -> float:
    l1, l2 = delays.lambda1, delays.lambda2
    return (
        minima.r1 * l1 * l2
        + minima.r2 * l1 * (1 - l2)
        + minima.r3 * (1 - l1) * l2
        + minima.r4 * (1 - l1) * (1 - l2)
    )


# Compatibility with the benchmark in perfbench/, which is versioned apart
# from the library: it passes ``RunConfig.solver`` (always None) into the
# ``options`` slot of boundedness_test and critical_bounds, which is
# accepted and ignored; its traced run wraps min_structured_norm,
# masked_norm_minima and residual_gram_floor by name and reads
# ``NormMinResult.iterations``.


def boundedness_test(
    model: SystemModel,
    delays: DelayModel,
    options=None,
    minima: Optional[NormMinima] = None,
) -> BoundednessReport:
    """Certify boundedness of the expected covariance at given delays."""
    if minima is None:
        minima = masked_norm_minima(model)
    ws = weighted_sum_of(minima, delays)
    verdict = "BoundedCertified" if ws <= 1.0 else "Inconclusive"
    return BoundednessReport(
        lambda1=delays.lambda1,
        lambda2=delays.lambda2,
        r1=minima.r1,
        r2=minima.r2,
        r3=minima.r3,
        r4=minima.r4,
        weighted_sum=ws,
        verdict=verdict,
        minima=minima,
    )


# ---------------------------------------------------------------------------
# Residual floor and critical-probability bounds


class InapplicableError(ValueError):
    """The closed-form residual floor needs full-row-rank sensor blocks."""


@dataclass(frozen=True)
class GainFloorResult:
    """Residual-Gram floor at the block-diagonal pseudo-inverse gain.

    ``alpha`` is the smallest eigenvalue of ``F^T F``, ``F = A - A X C``,
    at the gain ``X = blkdiag(X1, X2)`` of the per-block right
    pseudo-inverses.  ``X C`` is then a nonzero orthogonal projector and
    F vanishes on its range, so ``F^T F`` is singular and ``alpha`` is
    exactly 0; it is reported as 0.0, since an eigensolve returns only
    rounding that grows with the scale of A.
    """

    alpha: float
    X1: np.ndarray
    X2: np.ndarray

    def stacked(self, dims: BlockDims) -> np.ndarray:
        X = np.zeros((dims.n, dims.m))
        X[: dims.n1, : dims.m1] = self.X1
        X[dims.n1 :, dims.m1 :] = self.X2
        return X


def _right_pinv(Cblock: np.ndarray, name: str) -> np.ndarray:
    mb, nb = Cblock.shape
    if mb > nb:
        raise InapplicableError(f"{name} has more rows than columns; not full row rank")
    svals = np.linalg.svd(Cblock, compute_uv=False)
    if svals[-1] <= 1e-10 * max(svals[0], 1e-300):
        raise InapplicableError(f"{name} is not full row rank")
    return np.linalg.solve(Cblock @ Cblock.T, Cblock).T


def residual_gram_floor(model: SystemModel) -> GainFloorResult:
    """The residual floor at the pseudo-inverse gain, which is 0.

    Requires both sensor blocks to be full row rank (raises
    :class:`InapplicableError` otherwise); the per-block right
    pseudo-inverses then make ``X C`` the orthogonal projector onto the
    measured row space (see :class:`GainFloorResult`).
    """
    X1 = _right_pinv(model.C1, "C1")
    X2 = _right_pinv(model.C2, "C2")
    return GainFloorResult(alpha=0.0, X1=X1, X2=X2)


@dataclass(frozen=True)
class CriticalBounds:
    """Bracket for the critical delay probability along one axis.

    ``fixed_which`` names the held probability (1 or 2); ``lambda_fixed``
    its value.  ``lower``/``upper`` bracket the critical value of the
    free probability: [1, 1] when the certificate covers the whole axis,
    [0, 1] otherwise.  ``alpha`` is the residual floor, 0.0, or None
    when the sensor blocks are not full row rank; no bound depends on
    it.  ``empirical`` optionally carries a bisection estimate.
    """

    fixed_which: int
    lambda_fixed: float
    lower: float
    upper: float
    alpha: Optional[float]
    empirical: Optional[float]
    r1: float
    r2: float
    r3: float
    r4: float

    def to_text(self) -> str:
        free = 2 if self.fixed_which == 1 else 1
        alpha_txt = "unavailable" if self.alpha is None else f"{self.alpha:.12g}"
        lines = [
            f"fixed: lambda{self.fixed_which} = {self.lambda_fixed:g}",
            f"critical lambda{free} lower bound: {self.lower:.12g}",
            f"critical lambda{free} upper bound: {self.upper:.12g}",
            f"residual floor alpha: {alpha_txt}",
        ]
        if self.empirical is not None:
            lines.append(f"empirical estimate: {self.empirical:.12g}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = "fixed_which,lambda_fixed,lower,upper,alpha,empirical,r1,r2,r3,r4\n"
        alpha = "" if self.alpha is None else f"{self.alpha:.17g}"
        emp = "" if self.empirical is None else f"{self.empirical:.17g}"
        row = ",".join(
            [str(self.fixed_which), f"{self.lambda_fixed:.17g}", f"{self.lower:.17g}",
             f"{self.upper:.17g}", alpha, emp]
            + [f"{v:.17g}" for v in (self.r1, self.r2, self.r3, self.r4)]
        )
        return header + row + "\n"


def bounds_from_minima(
    minima: NormMinima,
    lambda_fixed: float,
    fixed_which: int,
    alpha: Optional[float],
    empirical: Optional[float] = None,
) -> CriticalBounds:
    """Evaluate the closed-form critical-probability bracket.

    The weighted sum is a convex combination of r1..r4, and ordered
    minima (r4 <= r2, r3 <= r1: a larger mask minimizes over more gains)
    keep it at most r1 everywhere on the axis.  So ``r1 <= 1`` certifies
    the whole axis (bracket [1, 1]); otherwise nothing is certified
    (bracket [0, 1]).  The upper bound is 1 because the residual floor is
    0 (see :class:`GainFloorResult`); ``alpha`` is recorded, not used.
    """
    if fixed_which not in (1, 2):
        raise ValueError(f"fixed_which must be 1 or 2, got {fixed_which}")
    if not 0.0 <= lambda_fixed <= 1.0:
        raise ValueError(f"lambda_fixed must lie in [0, 1], got {lambda_fixed}")
    return CriticalBounds(
        fixed_which=fixed_which,
        lambda_fixed=float(lambda_fixed),
        lower=1.0 if minima.r1 <= 1.0 else 0.0,
        upper=1.0,
        alpha=alpha,
        empirical=empirical,
        r1=minima.r1,
        r2=minima.r2,
        r3=minima.r3,
        r4=minima.r4,
    )


def critical_bounds(
    model: SystemModel,
    lambda_fixed: float,
    fixed_which: int,
    options=None,
    minima: Optional[NormMinima] = None,
) -> CriticalBounds:
    """Closed-form bracket for the critical probability of one channel."""
    if minima is None:
        minima = masked_norm_minima(model)
    try:
        alpha = residual_gram_floor(model).alpha
    except InapplicableError:
        alpha = None
    return bounds_from_minima(minima, lambda_fixed, fixed_which, alpha)


# ---------------------------------------------------------------------------
# Empirical critical probability


@dataclass(frozen=True)
class DivergenceWitness:
    """Trace trajectory of the both-delayed lower-bound iteration."""

    diverged: bool
    traces: np.ndarray
    threshold: float


def divergence_witness(
    model: SystemModel,
    delays: DelayModel,
    steps: int = 400,
    divergence_threshold: Optional[float] = None,
) -> DivergenceWitness:
    """Iterate the both-delayed term of the expected update on its own.

    The map ``Y -> p00 * one_step_cov(gain00(Y), Y)`` (p00 the
    probability that both channels are delayed) lower-bounds the full
    expected update, so its divergence witnesses an unbounded expected
    covariance.  As in :func:`cov_bound_sequence`, a bitwise repeat of an
    earlier iterate ends the iteration and its cycle fills the horizon.
    """
    divergence_threshold = _divergence_threshold(model, steps, divergence_threshold)
    p00 = delays.lambda1 * delays.lambda2
    Y = first_prediction_cov(model)
    orbit = _Orbit(Y, steps, divergence_threshold)
    for _ in range(steps - 1):
        if not orbit.running:
            break
        if p00 == 0.0:
            Y = np.zeros_like(Y)
        else:
            D = optimal_gain(Y, model.C, model.V, model.dims, DelayOutcome(0, 0))
            Y = p00 * one_step_cov(model, D, Y)
        orbit.push(Y)
    return DivergenceWitness(
        diverged=orbit.diverged_at is not None,
        traces=orbit.tiled()[1],
        threshold=divergence_threshold,
    )


@dataclass(frozen=True)
class EmpiricalCritical:
    """Bisection estimate of the critical probability along one axis.

    ``estimate`` is the midpoint of the final bracket
    ``[largest probability seen bounded, smallest seen divergent]``;
    ``h_diverged`` reports the divergence witness at the free
    probability's extreme (free probability = 1).
    """

    fixed_which: int
    lambda_fixed: float
    estimate: float
    bracket_low: float
    bracket_high: float
    h_diverged: bool
    probes: int


def empirical_critical(
    model: SystemModel,
    lambda_fixed: float,
    fixed_which: int,
    horizon: int = 400,
    divergence_threshold: Optional[float] = None,
    bisect_tol: float = 0.02,
) -> EmpiricalCritical:
    """Bisect the free delay probability for bound-sequence divergence.

    A probability is declared divergent when the deterministic bound
    sequence exceeds the threshold within the horizon.  Boundedness is
    monotone in the probability, so bisection applies.  The probes at 1
    and 0 run as one stack of bound sequences, then each stack holds the
    midpoints of the next few bisection levels; ``probes`` counts only
    those on the path the bisection takes, so every field is what a
    probe-by-probe bisection returns.
    """
    if fixed_which not in (1, 2):
        raise ValueError(f"fixed_which must be 1 or 2, got {fixed_which}")
    if not bisect_tol > 0.0:
        # With a zero tolerance the loop never ends: the bracket stops
        # shrinking once its ends are adjacent doubles.
        raise ValueError(f"bisect_tol must be positive, got {bisect_tol}")

    def delays_at(free: float) -> DelayModel:
        if fixed_which == 1:
            return DelayModel(lambda_fixed, free)
        return DelayModel(free, lambda_fixed)

    def verdicts(frees: List[float]) -> dict:
        orbits = _bound_orbits(model, [delays_at(f) for f in frees], horizon,
                               divergence_threshold)
        return {f: orbit.diverged_at is None for f, orbit in zip(frees, orbits)}

    witness = divergence_witness(model, delays_at(1.0), horizon, divergence_threshold)
    ends = verdicts([1.0, 0.0])
    if ends[1.0]:
        return EmpiricalCritical(fixed_which, lambda_fixed, 1.0, 1.0, 1.0, witness.diverged, 1)
    if not ends[0.0]:
        return EmpiricalCritical(fixed_which, lambda_fixed, 0.0, 0.0, 0.0, witness.diverged, 2)
    probes = 2
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        # Every midpoint the next levels of the bisection could probe, as
        # one stack; only the verdicts on the path taken count as probes.
        bounded = verdicts(_bisection_midpoints(lo, hi, bisect_tol, _LOOKAHEAD_LEVELS))
        for _ in range(_LOOKAHEAD_LEVELS):
            if not hi - lo > bisect_tol:
                break
            mid = (lo + hi) / 2.0
            if bounded[mid]:
                lo = mid
            else:
                hi = mid
            probes += 1
    return EmpiricalCritical(
        fixed_which,
        lambda_fixed,
        (lo + hi) / 2.0,
        lo,
        hi,
        witness.diverged,
        probes,
    )


def _bisection_midpoints(lo: float, hi: float, tol: float, levels: int) -> List[float]:
    """Every midpoint the bisection of [lo, hi] to width ``tol`` can probe in ``levels`` levels."""
    if levels == 0 or not hi - lo > tol:
        return []
    mid = (lo + hi) / 2.0
    return ([mid] + _bisection_midpoints(lo, mid, tol, levels - 1)
            + _bisection_midpoints(mid, hi, tol, levels - 1))
