"""Boundedness analysis of the expected error covariance.

The prediction covariance is a random matrix driven by the delay
indicators.  This module implements its one-step conditional expectation
under the per-outcome optimal gains, the deterministic iteration of that
map (the working upper bound for the expected covariance; see README
"Known limitations" for the matrix-order caveat), the Kronecker-form
linear update whose spectral radius certifies convergence for a fixed
gain, the masked spectral-norm minima r1..r4 whose probability-weighted
sum yields an easily checked boundedness certificate, and the
closed-form bracket for the critical delay probability (plus an
empirical bisection counterpart).

Because the stacked sensing matrix is block diagonal, the pseudo-inverse
gain ``C^+`` is admissible under every delay mask and minimizes all four
masked norms, so r1 = r2 = r3 = r4 = ``||A (I - C^+ C)||_2^2`` in closed
form and ``C^+`` is the one certificate gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gains import gain_set, mask_for_outcome, mask_pattern, optimal_gain
from .model import ALL_OUTCOMES, BlockDims, DelayModel, DelayOutcome, SystemModel

__all__ = [
    "cov_propagation_term",
    "gain_noise_term",
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


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def closed_loop_factor(model: SystemModel, X) -> np.ndarray:
    """``A - A X C``: the error propagation factor under update gain X."""
    A = model.A
    return A - A @ np.asarray(X, dtype=float) @ model.C


def cov_propagation_term(model: SystemModel, X, Y) -> np.ndarray:
    """Propagation of covariance Y through one corrected step."""
    F = closed_loop_factor(model, X)
    return F @ np.asarray(Y, dtype=float) @ F.T


def gain_noise_term(model: SystemModel, X) -> np.ndarray:
    """Measurement noise injected by update gain X after prediction."""
    AX = model.A @ np.asarray(X, dtype=float)
    return AX @ model.V @ AX.T


def one_step_cov(model: SystemModel, X, Y) -> np.ndarray:
    """Next prediction covariance when gain X is applied at covariance Y.

    ``(A - A X C) Y (A - A X C)^T + (A X) V (A X)^T + W``; symmetric PSD
    for PSD Y.
    """
    out = cov_propagation_term(model, X, Y) + gain_noise_term(model, X) + model.W
    return _sym(out)


def residual_gram(model: SystemModel, X) -> np.ndarray:
    """Gram matrix of the propagation factor, ``F^T F`` with F = A - AXC."""
    F = closed_loop_factor(model, X)
    return F.T @ F


def first_prediction_cov(model: SystemModel) -> np.ndarray:
    """Prediction covariance at step 1: ``A Sigma0 A^T + W``."""
    return _sym(model.A @ model.Sigma0 @ model.A.T + model.W)


def expected_next_cov(model: SystemModel, delays: DelayModel, Y) -> np.ndarray:
    """Conditional expectation of the next prediction covariance.

    Averages :func:`one_step_cov` at the four per-outcome optimal gains
    with the outcome probabilities; this equals the exact conditional
    expectation of the covariance recursion given the current value.
    Iterating it from the step-1 covariance gives the deterministic
    companion sequence used to bound the expected covariance.
    """
    Y = _sym(np.asarray(Y, dtype=float))
    gains = gain_set(Y, model.C, model.V, model.dims)
    out = np.zeros_like(Y)
    for outcome in ALL_OUTCOMES:
        p = delays.outcome_probability(outcome)
        if p == 0.0:
            continue
        out = out + p * one_step_cov(model, gains.for_outcome(outcome), Y)
    return _sym(out)


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


def cov_bound_sequence(
    model: SystemModel,
    delays: DelayModel,
    steps: int,
    divergence_threshold: Optional[float] = None,
) -> CovBoundSequence:
    """Iterate the expected-covariance map for ``steps`` steps.

    Starts at the step-1 prediction covariance.  The default divergence
    threshold is ``1e12 * trace(W)`` (scale invariant).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if divergence_threshold is None:
        divergence_threshold = 1e12 * float(np.trace(model.W))
    Y = first_prediction_cov(model)
    ys = [Y]
    traces = [float(np.trace(Y))]
    diverged = traces[0] > divergence_threshold
    diverged_at = 1 if diverged else None
    for t in range(2, steps + 1):
        if diverged:
            break
        Y = expected_next_cov(model, delays, Y)
        ys.append(Y)
        traces.append(float(np.trace(Y)))
        if traces[-1] > divergence_threshold:
            diverged = True
            diverged_at = t
    return CovBoundSequence(
        Y=np.array(ys),
        traces=np.array(traces),
        diverged=diverged,
        diverged_at=diverged_at,
        threshold=divergence_threshold,
    )


# ---------------------------------------------------------------------------
# Kronecker-form expected update


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
    F = closed_loop_factor(model, X)
    return np.kron(F, F)


def kron_update_radius(model: SystemModel, delays: DelayModel, X) -> float:
    """Spectral radius of :func:`expected_kron_update`."""
    eigs = np.linalg.eigvals(expected_kron_update(model, delays, X))
    return float(np.abs(eigs).max())


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
    """Residual-Gram floor over block-diagonal gains.

    ``alpha`` is the smallest eigenvalue of ``F^T F`` at the
    block-diagonal pseudo-inverse gain, where ``F = A - A X C``.  It
    lower-bounds the smallest eigenvalue of the residual Gram over all
    block-diagonal gains, which is the rate constant in the divergence
    witness for the critical-probability upper bound.
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
    """Smallest eigenvalue of the residual Gram at the pseudo-inverse gain.

    Requires both sensor blocks to be full row rank; the per-block right
    pseudo-inverses then make ``X C`` the orthogonal projector onto the
    measured row space, which minimizes the smallest eigenvalue of the
    residual Gram over block-diagonal gains.
    """
    X1 = _right_pinv(model.C1, "C1")
    X2 = _right_pinv(model.C2, "C2")
    Xstar = GainFloorResult(alpha=0.0, X1=X1, X2=X2).stacked(model.dims)
    alpha = float(np.linalg.eigvalsh(_sym(residual_gram(model, Xstar)))[0])
    return GainFloorResult(alpha=max(alpha, 0.0), X1=X1, X2=X2)


@dataclass(frozen=True)
class CriticalBounds:
    """Bracket for the critical delay probability along one axis.

    ``fixed_which`` names the held probability (1 or 2); ``lambda_fixed``
    its value.  ``lower``/``upper`` bracket the critical value of the
    free probability; ``alpha`` is the residual floor (None when the
    sensor blocks are not full row rank, in which case the upper bound
    degenerates to 1).  ``empirical`` optionally carries a bisection
    estimate.
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
    branch_tol: float = 1e-9,
    empirical: Optional[float] = None,
) -> CriticalBounds:
    """Evaluate the closed-form critical-probability bracket.

    Branches on whether the block-diagonal and unconstrained minima
    coincide (to relative tolerance ``branch_tol``): if they do and are
    at most one, the weighted sum is constant and at most one, so the
    whole axis is certified (bracket [1, 1]); if they coincide above
    one, nothing is certified (lower bound 0).  Otherwise the lower
    bound solves the weighted-sum condition for the free probability, and
    the upper bound is ``1/(alpha * lambda_fixed)`` capped at one.
    """
    if fixed_which not in (1, 2):
        raise ValueError(f"fixed_which must be 1 or 2, got {fixed_which}")
    if not 0.0 <= lambda_fixed <= 1.0:
        raise ValueError(f"lambda_fixed must lie in [0, 1], got {lambda_fixed}")
    r1, r2, r3, r4 = minima.r1, minima.r2, minima.r3, minima.r4
    v = float(lambda_fixed)
    same = abs(r1 - r4) <= branch_tol * max(1.0, abs(r1), abs(r4))

    if same:
        if r1 <= 1.0:
            lower, upper = 1.0, 1.0
        else:
            lower = 0.0
            upper = _upper_bound(alpha, v)
    else:
        # Weighted sum <= 1 solved for the free probability.
        if fixed_which == 1:
            num = 1.0 - r2 * v - r4 * (1.0 - v)
            den = (r1 - r2) * v + (r3 - r4) * (1.0 - v)
        else:
            num = 1.0 - r3 * v - r4 * (1.0 - v)
            den = (r1 - r3) * v + (r2 - r4) * (1.0 - v)
        if den <= 0.0:
            # Degenerate axis: the weighted sum does not depend on the
            # free probability at this fixed value.
            lower = 1.0 if num >= 0.0 else 0.0
        else:
            lower = min(max(num / den, 0.0), 1.0)
        upper = _upper_bound(alpha, v)
    return CriticalBounds(
        fixed_which=fixed_which,
        lambda_fixed=v,
        lower=lower,
        upper=upper,
        alpha=alpha,
        empirical=empirical,
        r1=r1,
        r2=r2,
        r3=r3,
        r4=r4,
    )


def _upper_bound(alpha: Optional[float], lambda_fixed: float) -> float:
    if alpha is None or alpha <= 0.0 or lambda_fixed <= 0.0:
        return 1.0
    return min(1.0 / (alpha * lambda_fixed), 1.0)


def critical_bounds(
    model: SystemModel,
    lambda_fixed: float,
    fixed_which: int,
    options=None,
    minima: Optional[NormMinima] = None,
    branch_tol: float = 1e-9,
) -> CriticalBounds:
    """Closed-form bracket for the critical probability of one channel."""
    if minima is None:
        minima = masked_norm_minima(model)
    try:
        alpha = residual_gram_floor(model).alpha
    except InapplicableError:
        alpha = None
    return bounds_from_minima(minima, lambda_fixed, fixed_which, alpha, branch_tol)


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
    covariance.
    """
    if divergence_threshold is None:
        divergence_threshold = 1e12 * float(np.trace(model.W))
    p00 = delays.lambda1 * delays.lambda2
    Y = first_prediction_cov(model)
    traces = [float(np.trace(Y))]
    diverged = traces[0] > divergence_threshold
    for _ in range(steps - 1):
        if diverged:
            break
        if p00 == 0.0:
            Y = np.zeros_like(Y)
        else:
            D = optimal_gain(Y, model.C, model.V, model.dims, DelayOutcome(0, 0))
            Y = p00 * one_step_cov(model, D, Y)
        traces.append(float(np.trace(Y)))
        diverged = traces[-1] > divergence_threshold
    return DivergenceWitness(
        diverged=diverged, traces=np.array(traces), threshold=divergence_threshold
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
    monotone in the probability, so bisection applies.
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

    def is_bounded(free: float) -> bool:
        seq = cov_bound_sequence(model, delays_at(free), horizon, divergence_threshold)
        return not seq.diverged

    probes = 0
    witness = divergence_witness(model, delays_at(1.0), horizon, divergence_threshold)

    if is_bounded(1.0):
        return EmpiricalCritical(
            fixed_which, lambda_fixed, 1.0, 1.0, 1.0, witness.diverged, probes + 1
        )
    probes += 1
    if not is_bounded(0.0):
        return EmpiricalCritical(
            fixed_which, lambda_fixed, 0.0, 0.0, 0.0, witness.diverged, probes + 1
        )
    probes += 1
    lo, hi = 0.0, 1.0
    while hi - lo > bisect_tol:
        mid = (lo + hi) / 2.0
        if is_bounded(mid):
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
