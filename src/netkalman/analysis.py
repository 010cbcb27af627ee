"""Boundedness analysis of the expected error covariance.

The prediction covariance is a random matrix driven by the delay
indicators.  This module implements its one-step conditional expectation
(the filter's own update averaged over the four delay outcomes at
probabilities that may sum to less than 1), the iteration of that map (a
companion to the expected covariance that need not bound it; README
"Known limitations") and of its both-delayed term alone (the divergence
witness), the Kronecker-form linear update whose spectral radius
certifies convergence for a fixed gain, the masked spectral-norm minima
r1..r4 whose probability-weighted sum yields an easily checked
boundedness certificate, the closed-form bracket for the critical delay
probability, which is [1, 1] or [0, 1], and an empirical estimate of that
probability that bisects on the growth rate of the homogenized expected map.

Because the stacked sensing matrix is block diagonal, the pseudo-inverse
gain ``C^+`` is admissible under every delay mask and minimizes all four
masked norms, so r1 = r2 = r3 = r4 = ``||A (I - C^+ C)||_2^2`` in closed
form and ``C^+`` is the one certificate gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .filtering import _check_count, predict_cov
from .gains import (_gain_plan, _identity, _posterior, _sym, gain_set, mask_for_outcome,
                    mask_pattern, optimal_gain, posterior_cov)
from .model import ALL_OUTCOMES, BlockDims, DelayModel, SystemModel, _csv_text

__all__ = [
    "one_step_cov",
    "expected_next_cov",
    "CovBoundSequence",
    "cov_bound_sequence",
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
    "divergence_witness",
    "EmpiricalCritical",
    "empirical_critical",
]


def one_step_cov(model: SystemModel, X, Y) -> np.ndarray:
    """Next prediction covariance when gain X is applied at covariance Y.

    The filter's measurement update followed by its time update, which
    equals ``(A - A X C) Y (A - A X C)^T + (A X) V (A X)^T + W``;
    symmetric PSD for PSD Y.  X and Y may be stacks whose leading axes
    broadcast.
    """
    return predict_cov(model, posterior_cov(Y, X, model.C, model.V))


def expected_next_cov(
    model: SystemModel, delays: DelayModel | Sequence[DelayModel], Y
) -> np.ndarray:
    """Conditional expectation of the next prediction covariance.

    Averages :func:`one_step_cov` at the four per-outcome optimal gains
    with the outcome probabilities; this equals the exact conditional
    expectation of the covariance recursion given the current value.
    Iterating it from the step-1 covariance gives the deterministic
    companion sequence of the expected covariance.

    Y is an (n, n) matrix with one :class:`DelayModel`, or a (K, n, n)
    stack with a sequence of K delay models, one per layer.  Each layer
    gets the same bits as it would alone: one step of a checked gain
    plan, with the PSD check and the warnings of
    :func:`~netkalman.gains.structured_gain`, gives the (K, 4) gains,
    :func:`one_step_cov` runs only on the (layer, outcome) pairs of
    positive probability, so that a non-finite gain of an impossible
    outcome cannot reach the sum, and the k layers
    with c possible outcomes are summed by one ``(k, 1, c) @ (k, c, n*n)``
    matmul, which has the bits of a ``tensordot`` of each layer alone
    (padding every layer to 4 outcomes with zero weights would not).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 2:
        return expected_next_cov(model, [delays], Y[None])[0]
    return _expected_map(model, _outcome_probabilities(delays))(Y)


def _outcome_probabilities(delays) -> np.ndarray:
    """(K, 4) probabilities of ``ALL_OUTCOMES`` under each of K delay models."""
    return np.array([[d.outcome_probability(oc) for oc in ALL_OUTCOMES] for d in delays])


_GAMMA1, _GAMMA2 = np.array([(oc.gamma1, oc.gamma2) for oc in ALL_OUTCOMES], dtype=bool).T


def _expected_map(model, p) -> Callable[[np.ndarray], np.ndarray]:
    """The expected map at a fixed (K, 4) outcome table p, as a step ``Y -> G(Y)``.

    Rows of p may sum to less than 1; a row with no positive entry maps
    its layer to 0.  What depends on p alone is worked out here, once, for
    every step: the live (layer, outcome) pairs, the checked gain plan
    (``gains._gain_plan``) of the live outcomes, the model's matrices and
    the weights grouped by live-outcome count.  A step symmetrizes the
    (K, n, n) stack Y, steps the gain plan once, and sums each group as
    :func:`expected_next_cov` describes; a step's bits depend on Y and p
    alone, not on how often the plan ran before.  Every caller steps a
    plan: :func:`expected_next_cov` one freshly made for its call.
    """
    live = p > 0.0
    # An outcome no layer can draw is built as 00, whose gain needs no
    # full-S inverse; no layer reads it.
    alive = live.any(axis=0)
    C, V, dims, nn = model.C, model.V, model.dims, model.n**2
    CT, I = C.T, _identity(model.n)
    gain = _gain_plan(C, CT, V, dims, _GAMMA1 & alive, _GAMMA2 & alive, True)
    layer = np.nonzero(live)[0]
    weights, counts = p[live], live.sum(axis=1)
    groups = []
    for c in np.unique(counts[counts > 0]):
        group = counts == c
        pairs = group[layer]
        groups.append((group, pairs, weights[pairs].reshape(-1, 1, c)))

    def step(Y):
        Y = _sym(Y)
        X = gain(Y[:, None])
        terms = predict_cov(model, _posterior(Y[layer], X[live], C, V, I)).reshape(len(layer), nn)
        out = np.zeros((len(Y), nn))
        for group, pairs, w in groups:
            out[group] = np.matmul(w, terms[pairs].reshape(len(w), w.shape[2], nn))[:, 0]
        return out.reshape(Y.shape)

    return step


@dataclass(frozen=True)
class CovBoundSequence:
    """Deterministic companion sequence of the expected covariance.

    ``Y[k]`` is the iterated expected update at step ``t = k+1`` (the
    sequence starts from the step-1 prediction covariance).  It equals
    the expected prediction covariance at t = 1, 2 and need not bound it
    later, even in trace (README "Known limitations").  The iteration
    stops early once the trace exceeds the divergence threshold;
    ``diverged_at`` is then the step index of the first offending
    iterate.
    """

    Y: np.ndarray  # (steps_completed, n, n)
    traces: np.ndarray  # (steps_completed,)
    diverged_at: Optional[int]
    threshold: float

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def steps_completed(self) -> int:
        return len(self.traces)

    def plateaued(self, rtol: float = 1e-8) -> bool:
        """True if the final two traces agree to relative tolerance."""
        if self.diverged or len(self.traces) < 2:
            return False
        a, b = self.traces[-2], self.traces[-1]
        return abs(b - a) <= rtol * max(1.0, abs(b))


def _divergence_threshold(model: SystemModel, steps: int, threshold: Optional[float]) -> float:
    """``threshold`` (finite, > 0), ``1e12 * trace(W)`` if None, for an integer ``steps >= 1``."""
    _check_count(steps, "steps")
    if threshold is not None and not (np.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"divergence_threshold must be finite and > 0, got {threshold}")
    return 1e12 * float(np.trace(model.W)) if threshold is None else threshold


def _iterate(model: SystemModel, p, steps: int, threshold: Optional[float]) -> CovBoundSequence:
    """The expected map at a (1, 4) outcome table p, iterated from the step-1 covariance.

    p may sum to less than 1.  ``threshold`` as in :func:`_divergence_threshold`.
    The iteration ends at the horizon, at the first iterate whose trace
    exceeds the threshold, or at the first iterate that repeats an earlier
    one bit for bit.  A step is a pure function of the iterate's bits, so a
    repeat means the sequence cycles from there on and never crosses the
    threshold; the cycle fills the rest of the horizon.
    """
    threshold = _divergence_threshold(model, steps, threshold)
    step = _expected_map(model, p)
    Y = predict_cov(model, model.Sigma0)
    ys, traces, seen = [], [], {}
    while True:
        # A NaN trace equals no other, so an iterate with one never closes a cycle.
        key = (float(np.trace(Y)), Y.tobytes())
        if key in seen:
            n, start = len(ys), seen[key]
            idx = np.arange(steps)
            idx[n:] = start + (idx[n:] - start) % (n - start)
            break
        seen[key] = len(ys)
        ys.append(Y)
        traces.append(key[0])
        if key[0] > threshold or len(ys) == steps:
            idx = np.arange(len(ys))
            break
        Y = step(Y[None])[0]
    diverged_at = len(ys) if traces[-1] > threshold else None
    return CovBoundSequence(np.array(ys)[idx], np.array(traces)[idx], diverged_at, threshold)


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
    return _iterate(model, _outcome_probabilities([delays]), steps, divergence_threshold)


# ---------------------------------------------------------------------------
# Kronecker-form expected update


def kron_update_radius(model: SystemModel, delays: DelayModel, X) -> float:
    """Spectral radius of the Kronecker-form covariance update under one fixed gain.

    X is an (n, m) gain applied whatever the delay outcome, so it must
    respect the mask of every outcome with positive probability (raises
    ``ValueError`` otherwise, or on a wrong shape).  The vectorized
    recursion is then affine with the (n^2, n^2) matrix ``kron(F, F)``,
    ``F = A - A X C`` (the probability-weighted sum of identical terms);
    its spectral radius below one certifies convergence of the covariance
    for that gain.  The eigenvalues of ``kron(F, F)`` are the products of
    pairs of eigenvalues of F, so the radius is ``rho(F)**2``, read off the
    (n, n) factor.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (model.n, model.m):
        raise ValueError(f"gain has shape {X.shape}, expected {(model.n, model.m)}")
    for outcome in ALL_OUTCOMES:
        mask = mask_for_outcome(outcome)
        if (delays.outcome_probability(outcome) != 0.0
                and np.any(X[~mask_pattern(mask, model.dims)] != 0.0)):
            raise ValueError(
                f"gain violates the {mask.value} zero pattern of outcome {outcome.label}"
            )
    A = model.A
    return float(np.abs(np.linalg.eigvals(A - A @ X @ model.C)).max() ** 2)


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
    outcome probabilities of the delay model, a convex combination of the
    minima.  Minima all below one put it below one, free of its rounding,
    and make the fixed-certificate-gain covariance recursion a contraction
    (its Kronecker update radius is at most the weighted sum), which is the
    certificate; minima of exactly 1 certify nothing.  The adaptive-gain
    bound sequence is checked against it in the acceptance suite.  The test
    is sufficient only, so ``Inconclusive`` does not mean unbounded.
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
        return _csv_text("lambda1,lambda2,r1,r2,r3,r4,weighted_sum,verdict", [(
            self.lambda1, self.lambda2, self.r1, self.r2, self.r3, self.r4, self.weighted_sum,
            self.verdict)])


# Compatibility with the benchmark in perfbench/, which is versioned apart
# from the library: it passes ``RunConfig.solver`` (always None) into the
# ``options`` slot of boundedness_test and critical_bounds, which is
# accepted and ignored; its traced run wraps names of this module by name
# (gain_set and optimal_gain are imported only to be found there) and reads
# ``NormMinResult.iterations``.  tests/test_perfbench_names.py installs the
# benchmark's tracer, so removing a name it wraps fails there.


def boundedness_test(
    model: SystemModel,
    delays: DelayModel,
    options=None,
    minima: Optional[NormMinima] = None,
) -> BoundednessReport:
    """Certify boundedness of the expected covariance at given delays."""
    if minima is None:
        minima = masked_norm_minima(model)
    l1, l2 = delays.lambda1, delays.lambda2
    ws = (
        minima.r1 * l1 * l2
        + minima.r2 * l1 * (1 - l2)
        + minima.r3 * (1 - l1) * l2
        + minima.r4 * (1 - l1) * (1 - l2)
    )
    certified = max(minima.r1, minima.r2, minima.r3, minima.r4) < 1.0
    verdict = "BoundedCertified" if certified else "Inconclusive"
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
        return _csv_text("fixed_which,lambda_fixed,lower,upper,alpha,empirical,r1,r2,r3,r4", [(
            self.fixed_which, self.lambda_fixed, self.lower, self.upper,
            "" if self.alpha is None else self.alpha,
            "" if self.empirical is None else self.empirical, self.r1, self.r2, self.r3, self.r4)])


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
    keep it at most r1 everywhere on the axis.  So ``r1 < 1`` certifies
    the whole axis (bracket [1, 1]); any other r1, 1 included, certifies
    nothing (bracket [0, 1]).  The upper bound is 1 because the residual
    floor is 0 (:class:`GainFloorResult`); ``alpha`` is recorded, not used.
    """
    if fixed_which not in (1, 2):
        raise ValueError(f"fixed_which must be 1 or 2, got {fixed_which}")
    if not 0.0 <= lambda_fixed <= 1.0:
        raise ValueError(f"lambda_fixed must lie in [0, 1], got {lambda_fixed}")
    return CriticalBounds(
        fixed_which=fixed_which,
        lambda_fixed=float(lambda_fixed),
        lower=1.0 if minima.r1 < 1.0 else 0.0,
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


def divergence_witness(
    model: SystemModel,
    delays: DelayModel,
    steps: int = 400,
    divergence_threshold: Optional[float] = None,
) -> CovBoundSequence:
    """Iterate the both-delayed term of the expected update on its own.

    The map ``Y -> p00 * one_step_cov(gain00(Y), Y)``, p00 the probability
    that both channels are delayed, is the expected map at the outcome
    table with every column but ``00`` set to 0.  It lower-bounds the full
    expected update (Sinopoli et al., IEEE TAC 2004), so its divergence
    witnesses an unbounded expected covariance.  As in
    :func:`cov_bound_sequence`, a bitwise repeat of an earlier iterate
    ends the iteration and its cycle fills the horizon.
    """
    p = _outcome_probabilities([delays])
    p[:, _GAMMA1 | _GAMMA2] = 0.0
    return _iterate(model, p, steps, divergence_threshold)


def _growth_verdicts(model, delays, budget) -> np.ndarray:
    """Whether the growth rate of each layer's homogenized expected map is below 1.

    ``G_s(Y) = G(s Y) / s``, G the expected map, is homogeneous of degree
    one up to O(1/s).  ``s = 1e8 max(tr W, tr V / ||C||_F^2)`` lets ``s Y``
    dwarf W and, through C, V; both terms are in state units, so a change
    of state or sensor units leaves ``s C Y C^T`` against V as it was.
    From ``Y_0 = I`` each layer takes power steps ``r_k = ||G_s(Y_k)||_2``,
    ``Y_{k+1} = G_s(Y_k) / r_k``; ``r_k`` tends to the growth rate rho (cone
    spectral radius).  A layer leaves the stack once (a) ``r_k`` settles to
    1e-12 relative: bounded iff ``r_k < 1``; or (b) ``U_k = (r_0 ... r_k) **
    (1/(k+1)) = ||G_s^(k+1)(I)||_2 ** (1/(k+1)) < 1``: bounded, as ``U_k >=
    rho`` if ``G_s`` preserves the matrix order (a conjecture), which makes
    ``log ||G_s^k(I)||`` subadditive.  (b) decides the maps of rate 0, whose
    ``r_k`` alternate and never settle.  After ``budget`` steps the mean
    ``log r_k`` over the second half of the budget decides; it tends to
    ``log rho`` also where the ``r_k`` cycle instead of settling.
    """
    s = 1e8 * max(np.trace(model.W), np.trace(model.V) / (np.sum(model.C**2) or np.inf))
    p = _outcome_probabilities(delays)
    bounded = np.zeros(len(p), bool)
    log_half = np.zeros(len(p))  # log ||G_s^(budget // 2)(I)||_2 of each layer
    live, log_u, last = np.arange(len(p)), 0.0, np.nan
    Y = np.array([np.eye(model.n)] * len(p))
    step = _expected_map(model, p)
    for k in range(budget):
        Y = step(s * Y) / s
        rate = np.linalg.eigvalsh(Y)[:, -1]  # ||Y||_2 of a PSD Y
        with np.errstate(divide="ignore"):  # a rate of 0 makes U_k = 0
            log_u += np.log(rate)
        if k < budget // 2:
            log_half[live] = log_u
        bounded[live] = (log_u < 0) | (rate < 1)  # kept by a layer that leaves
        done = (log_u < 0) | (abs(rate - last) <= 1e-12 * rate)
        live, log_u, last = live[~done], log_u[~done], rate[~done]
        Y = Y[~done] / last[:, None, None]
        if not live.size:
            break
        if done.any():
            step = _expected_map(model, p[live])
    # budget spent: the mean log rate over its second half decides
    bounded[live] = log_u < log_half[live]
    return bounded


@dataclass(frozen=True)
class EmpiricalCritical:
    """Bisection estimate of the critical probability along one axis.

    ``estimate`` is the midpoint of the final bracket
    ``[largest probability seen bounded, smallest seen divergent]``;
    ``h_diverged`` reports the divergence witness at the free
    probability's extreme (free probability = 1).  It is computed on
    first read, by the keyword-only ``_witness`` callable, and cached;
    equality compares every field but the witness.
    """

    fixed_which: int
    lambda_fixed: float
    estimate: float
    bracket_low: float
    bracket_high: float
    probes: int
    _witness: Callable[[], CovBoundSequence] = field(compare=False, repr=False, kw_only=True)

    @cached_property
    def h_diverged(self) -> bool:
        return self._witness().diverged


def empirical_critical(
    model: SystemModel,
    lambda_fixed: float,
    fixed_which: int,
    horizon: int = 400,
    divergence_threshold: Optional[float] = None,
    bisect_tol: float = 0.02,
) -> EmpiricalCritical:
    """Bisect the free delay probability on the growth rate of the expected map.

    A probability counts as bounded when :func:`_growth_verdicts` finds
    the growth rate below 1, within ``horizon`` steps.  That this decides
    boundedness, and that the rate grows with the probability, are
    conjectures (README "Known limitations").  ``divergence_threshold``
    governs only the ``horizon``-step :func:`divergence_witness` behind
    ``h_diverged``, which runs at the first read of ``h_diverged``, not
    here: its arguments are checked now, but a warning or error raised
    inside the witness surfaces at that read.  The probes at 1 and 0 run
    as one stack, then each stack holds the points of the next few
    bisection levels; ``probes`` counts only those on the path taken, as
    a probe-by-probe bisection does.  The bisection also stops once the
    midpoint rounds onto an end, so a ``bisect_tol`` below the spacing of
    doubles ends at adjacent doubles.
    """
    if fixed_which not in (1, 2):
        raise ValueError(f"fixed_which must be 1 or 2, got {fixed_which}")
    if (isinstance(horizon, (bool, np.bool_)) or not isinstance(horizon, (int, np.integer))
            or horizon < 1):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not 0.0 < bisect_tol < np.inf:
        # With a zero tolerance the bracket stops shrinking at adjacent doubles.
        raise ValueError(f"bisect_tol must be finite and > 0, got {bisect_tol}")

    def delays_at(free: float) -> DelayModel:
        if fixed_which == 1:
            return DelayModel(lambda_fixed, free)
        return DelayModel(free, lambda_fixed)

    def verdicts(frees):
        return dict(zip(frees, _growth_verdicts(model, [delays_at(f) for f in frees], horizon)))

    _divergence_threshold(model, horizon, divergence_threshold)
    bounded = verdicts([1.0, 0.0])
    lo, hi, probes = 0.0, 1.0, 2
    if bounded[1.0]:  # bounded on the whole axis
        lo, probes = 1.0, 1
    elif not bounded[0.0]:  # unbounded on the whole axis
        hi = 0.0
    while hi - lo > bisect_tol and lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        if mid not in bounded:
            # The 7 points the next 3 levels of the bisection could probe,
            # as one stack; only the verdicts on the path taken count as probes.
            bounded = verdicts(np.linspace(lo, hi, 9)[1:-1])
        lo, hi = (mid, hi) if bounded[mid] else (lo, mid)
        probes += 1
    return EmpiricalCritical(
        fixed_which,
        lambda_fixed,
        (lo + hi) / 2.0,
        lo,
        hi,
        probes,
        _witness=partial(divergence_witness, model, delays_at(1.0), horizon,
                         divergence_threshold),
    )

