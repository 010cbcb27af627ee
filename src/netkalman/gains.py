"""Optimal structured estimator gains for the four delay outcomes.

Given the prior covariance, the update gain that minimizes the posterior
trace is the standard Kalman gain ``K = P C^T S^-1`` when both cross
measurements arrive on time.  When a cross measurement is delayed the
corresponding gain block is forced to zero.  The posterior trace is a
sum of one quadratic per row of the gain, and all rows of a subsystem
share one zero pattern, so each subsystem's rows are optimized on their
own: a subsystem whose cross measurement arrived takes its rows of K,
and one whose cross measurement was delayed takes its local Kalman gain
``(P C^T)[rows_i, cols_i] S_ii^-1``.  One private kernel,
``_gain_plan``, makes that row selection for an exactly symmetric prior,
with the innovation pass and the inverses it needs.  It is planned once
per set of outcomes, which fixes what each step inverts and how it
assembles the gain, and returns the step: a checked plan runs the PSD
check and inverts with a warning, an unchecked one does arithmetic only.
Its products go through ``np.matmul``, or through ``ndarray.dot`` with
the same bits for a caller that steps one 2-D matrix at a time.  The
filter's loop plans each of the four outcomes once per run, the expected
map once per outcome table, and the covariance step and
:func:`structured_gain` once per call.  :func:`structured_gain`
symmetrizes its input and steps a checked plan: :func:`optimal_gain` is
one call for one outcome, and :func:`gain_set` one call for all four,
which lie on a broadcast axis of the prior.  A caller that steps the
kernel unchecked checks its steps afterwards with one
:func:`structured_gain` call over their priors, which
gives every layer's gain with the same bits.  An exact brute-force oracle
(row-wise normal equations over the free entries) verifies them.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .model import BlockDims, DelayOutcome

__all__ = [
    "StructuredMask",
    "InnovationBlocks",
    "GainSet",
    "mask_for_outcome",
    "mask_pattern",
    "innovation_blocks",
    "structured_gain",
    "optimal_gain",
    "gain_set",
    "oracle_structured_gain",
    "posterior_cov",
]

COND_WARN = 1e12
PSD_TOL = 1e-8  # a prior's smallest eigenvalue may reach -PSD_TOL * max(largest, 1)


class StructuredMask(enum.Enum):
    """Zero pattern forced on an (n, m) gain by a delay outcome.

    ``FULL`` leaves all entries free; ``BLOCK_DIAG`` zeroes both
    cross blocks; ``LOWER_BLOCK`` zeroes the upper-right (n1, m2) block;
    ``UPPER_BLOCK`` zeroes the lower-left (n2, m1) block.  As sets of
    admissible matrices, FULL contains LOWER_BLOCK and UPPER_BLOCK, both
    of which contain BLOCK_DIAG.
    """

    FULL = "full"
    BLOCK_DIAG = "block_diag"
    LOWER_BLOCK = "lower_block"
    UPPER_BLOCK = "upper_block"


_OUTCOME_MASK = {
    "11": StructuredMask.FULL,
    "01": StructuredMask.LOWER_BLOCK,
    "10": StructuredMask.UPPER_BLOCK,
    "00": StructuredMask.BLOCK_DIAG,
}


def mask_for_outcome(outcome: DelayOutcome) -> StructuredMask:
    """The gain structure admissible under a delay outcome."""
    return _OUTCOME_MASK[outcome.label]


def mask_pattern(mask: StructuredMask, dims: BlockDims) -> np.ndarray:
    """Boolean (n, m) array marking the free entries of a masked gain."""
    n1, n2, m1, m2 = dims
    free = np.ones((n1 + n2, m1 + m2), dtype=bool)
    if mask in (StructuredMask.BLOCK_DIAG, StructuredMask.LOWER_BLOCK):
        free[:n1, m1:] = False
    if mask in (StructuredMask.BLOCK_DIAG, StructuredMask.UPPER_BLOCK):
        free[n1:, :m1] = False
    return free


def _sym(M: np.ndarray) -> np.ndarray:
    """``(M + M^T) / 2`` of each matrix of a float stack, in a new array."""
    out = M + M.swapaxes(-1, -2)
    out /= 2.0
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D float a and a 1-D or 2-D float b, with its bits.

    It goes through ``ndarray.dot``, which costs about half of ``@`` per
    call on small matrices.  Both routes hand 2-D operands to the same
    BLAS routine (``dgemm``, ``dgemv`` or ``ddot``) with the same shapes
    and transposition flags, so a kernel that might block by shape (Goto
    & van de Geijn, ACM TOMS 2008) cannot tell them apart.  That holds
    for the operands it is given: a is C- or F-contiguous or a block of
    rows and columns of a C-contiguous matrix, and b is C- or
    F-contiguous.  Outside that, with a step other than 1 along a row, a
    negative stride or a one-row a times a block, the routes may sum in
    different orders.  An inner dimension of 1 goes to ``@``: there
    ``ndarray.dot`` takes a 1x1 operand for a scalar and scales the other
    one, which gives 0 for ``0 * inf`` where ``@`` gives NaN, and may
    change the sign of a zero.  A 3-D operand must not come here; for it
    ``ndarray.dot`` is a tensor product, not a stack of products.
    """
    return a.dot(b) if a.shape[-1] > 1 else a @ b


def _lu_inverse(M: np.ndarray, what: str = "") -> np.ndarray:
    """Inverse of each matrix of a stack, by LU factorization with partial pivoting, unchecked.

    ``what`` names M as in :func:`_spd_inverse` and is not used.  For the
    symmetric positive definite blocks of S it is as accurate as an
    inverse through a Cholesky factor: both leave a residual
    ``M X - I`` of order ``u cond(M)`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 14), and it takes one linalg call where
    the Cholesky route takes two.  X is not exactly symmetric.  NumPy's
    linalg gufuncs loop over a stack in C, so a matrix gets the same bits
    whether it is inverted alone or inside a stack.

    A 1x1 matrix with a nonzero entry a is inverted as the reciprocal of
    a, with the bits of ``np.linalg.inv``: LAPACK's ``dgesv`` on ``[a]``
    factors it as ``L = 1``, ``U = a`` with no row to eliminate, and its
    triangular solve of ``a x = 1`` returns the one rounding of ``1/a``,
    for every nonzero double a: subnormals, whose reciprocal may overflow
    to inf, ±inf, whose reciprocal is ±0, and NaN, which stays NaN.
    ``np.linalg.inv`` signals no floating-point error on these, so neither
    does the reciprocal.  A single (1, 1) matrix takes ``1.0 / M.item()``,
    a Python float division, which never consults numpy's error state;
    a stack of them with no zero entry takes ``1.0 / M`` with every
    floating-point error ignored.  A zero entry goes to ``np.linalg.inv``,
    which raises ``LinAlgError``.
    """
    if M.shape == (1, 1):
        a = M.item()
        if a:
            return np.array([[1.0 / a]])
    elif M.shape[-1] == 1 and M.all():
        with np.errstate(all="ignore"):
            return 1.0 / M
    return np.linalg.inv(M)


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    """:func:`_lu_inverse`, with one warning if some matrix is ill conditioned.

    A matrix is ill conditioned when its 1-norm condition number
    ``|M|_1 |M^-1|_1`` exceeds ``COND_WARN``, whatever else is in the
    stack (a layer whose estimate is NaN hides no other); the warning's
    ``cond ~`` is the largest such number.

    A screen over the whole stack skips the per-layer estimate when no
    layer can warn.  With a = max |M| and b = max |M^-1| over the stack,
    a column of a layer sums to at most n a, and one of its inverse to at
    most n b, so every layer has ``|M|_1 |M^-1|_1 <= B = n^2 a b``.  The
    screen passes when ``x y <= 2 COND_WARN``, with ``x = 2 n a`` and
    ``y = 2 n b``, that is when B is at most ``COND_WARN / 2``; it is
    formed in Python floats, which signal nothing.  The margin covers
    rounding, so that a layer's computed estimate c never exceeds
    ``COND_WARN`` when the screen passes.  Let u be the unit roundoff and
    eta = 2^-1075, the largest absolute error of a product that
    underflows:

    - a finite x and y put n a and n b below DBL_MAX / 2, so the screen's
      own roundings give ``B <= (COND_WARN / 2 + 1/4) / (1 - u)^3``;
    - a computed sum of n nonnegative terms is at most
      ``(1 + u)^(n-1) < 2`` times the exact sum, in any order (a sum that
      underflows is exact), so no column sum overflows and
      ``c <= B (1 + u)^(2n-1) + eta``.

    Together ``c <= (COND_WARN / 2 + 1/4) (1 + u)^(2n-1) / (1 - u)^3 + eta``,
    which is below ``COND_WARN`` for every n under 10^15.  A NaN or
    infinite entry, or an x or y that overflows, makes ``x y`` NaN or inf,
    and an empty stack has no maximum; these, like every stack that fails
    the screen, take the per-layer estimate.
    """
    M_inv = _lu_inverse(M)
    if M.size:
        n = M.shape[-1]
        x, y = 2 * n * float(np.abs(M).max()), 2 * n * float(np.abs(M_inv).max())
        if x * y <= 2 * COND_WARN:
            return M_inv
    c = np.abs(M).sum(-2).max(-1) * np.abs(M_inv).sum(-2).max(-1)
    ill = c[c > COND_WARN]
    if ill.size:
        warnings.warn(f"{what} is ill conditioned (cond ~ {ill.max():.2e})", RuntimeWarning)
    return M_inv


def _inputs(P, C, V):
    """The public functions' input handling: P symmetrized, and C, ``C^T`` and V, as floats."""
    C = np.asarray(C, dtype=float)
    return _sym(np.asarray(P, dtype=float)), C, C.T, np.asarray(V, dtype=float)


def _innovation(P, C, CT, V, mul=np.matmul):
    """The innovation pass: ``S = V + C P C^T`` and ``P C^T``, for float arrays.

    CT is the transpose of C, and ``mul`` the matrix product, as in
    :func:`_gain_plan`.  S is exactly symmetric, and so is each of its
    diagonal blocks.
    """
    S = mul(mul(C, P), CT)
    S += V
    return _sym(S), mul(P, CT)


def _check_psd(P: np.ndarray) -> None:
    """Raise unless every (symmetrized) prior is positive semidefinite.

    The test is ``min eig >= -PSD_TOL * max(max eig, 1)`` on each layer.
    A Cholesky factorization of the stack that succeeds with a finite
    factor passes it without eigenvalues: Cholesky is backward stable
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Thm 10.3),
    so the factor is exact for ``P + dP`` with ``|dP|_2 = O(n^2 u) |P|_2``,
    and ``P + dP`` is positive semidefinite, whence
    ``min eig(P) >= -O(n^2 u) |P|_2``, far inside the tolerance.  A
    factorization that fails (a singular or indefinite layer) or yields a
    non-finite factor decides nothing: a non-finite prior is rejected by
    name, and any other goes to the eigenvalue test.
    """
    try:
        if np.isfinite(np.linalg.cholesky(P)).all():
            return
    except np.linalg.LinAlgError:
        pass
    if not np.isfinite(P).all():
        raise ValueError("P has non-finite entries")
    eigs = np.linalg.eigvalsh(P)
    bad = eigs[..., 0] < -PSD_TOL * np.maximum(eigs[..., -1], 1.0)
    if np.any(bad):
        worst = np.min(eigs[..., 0][bad])
        raise ValueError(f"P is not positive semidefinite (min eig {worst:.3e})")


# The labels of the three matrices a gain may invert, named in warnings.
_S_LABEL = "innovation covariance"
_S11_LABEL = "sensor-1 innovation covariance"
_S22_LABEL = "sensor-2 innovation covariance"


@dataclass(frozen=True)
class InnovationBlocks:
    """Per-sensor blocks of ``S = V + C P C^T`` and ``P C^T``.

    ``s11_inv``/``s22_inv`` are the inverses of the diagonal blocks of S
    (both symmetric positive definite), and ``xcov1``/``xcov2`` the
    columns of the state/measurement cross covariance ``P C^T``
    belonging to sensor 1 and sensor 2.  They make up the local gain of
    a subsystem whose cross measurement was delayed; the off-diagonal
    blocks of S enter only the Kalman gain, which inverts S whole.
    """

    xcov1: np.ndarray
    s11_inv: np.ndarray
    xcov2: np.ndarray
    s22_inv: np.ndarray


def innovation_blocks(P, C, V, dims: BlockDims) -> InnovationBlocks:
    """Split ``V + C P C^T`` and ``P C^T`` into per-sensor blocks.

    P is an (n, n) matrix or an (..., n, n) stack, and each block then
    carries the same leading axes.  Every P must be symmetric positive
    semidefinite and V positive definite; the diagonal blocks are then
    positive definite and inverted by :func:`_spd_inverse`.  The blocks come
    from the same innovation pass, and so have the same bits, as the
    gains of :func:`structured_gain` and :func:`gain_set`.
    """
    P, C, CT, V = _inputs(P, C, V)
    S, xcov = _innovation(P, C, CT, V)
    _check_psd(P)
    m1 = dims.m1
    return InnovationBlocks(
        xcov1=xcov[..., :m1].copy(),
        s11_inv=_spd_inverse(S[..., :m1, :m1], _S11_LABEL),
        xcov2=xcov[..., m1:].copy(),
        s22_inv=_spd_inverse(S[..., m1:, m1:], _S22_LABEL),
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _first_rows(dims: BlockDims) -> np.ndarray:
    """Read-only (n, 1) mask of subsystem 1's rows, built once per ``dims``."""
    return _read_only((np.arange(dims.n) < dims.n1)[:, None])


@functools.lru_cache(maxsize=32)
def _identity(n: int) -> np.ndarray:
    """Read-only (n, n) identity, built once per ``n``."""
    return _read_only(np.eye(n))


def _outcomes(dims: BlockDims, gamma1, gamma2):
    """The on-time mask of the gain rows, and whether some ``gamma1``/``gamma2`` is 0.

    The mask has shape (..., n, 1): subsystem 1's rows take ``gamma1``, and
    subsystem 2's ``gamma2``.
    """
    g1, g2 = np.asarray(gamma1, dtype=bool), np.asarray(gamma2, dtype=bool)
    on_time = np.where(_first_rows(dims), g1[..., None, None], g2[..., None, None])
    return on_time, np.count_nonzero(g1) < g1.size, np.count_nonzero(g2) < g2.size


@functools.lru_cache(maxsize=128)
def _late_blocks(dims: BlockDims, late1: bool, late2: bool) -> tuple:
    """(rows, local columns, cross columns, label of the inverted block) of each late subsystem."""
    top, bottom = slice(None, dims.n1), slice(dims.n1, None)
    left, right = slice(None, dims.m1), slice(dims.m1, None)
    return tuple(block for is_late, block in ((late1, (top, left, right, _S11_LABEL)),
                                              (late2, (bottom, right, left, _S22_LABEL)))
                 if is_late)


def _gain_plan(C, CT, V, dims: BlockDims, gamma1, gamma2, checked: bool, mul=np.matmul):
    """The kernel of every gain, planned once for the indicators ``gamma1``/``gamma2``.

    C, its transpose CT and V are float arrays, and the indicators are
    scalars or arrays that broadcast against the leading axes of a stack
    of priors, one outcome per layer.  The plan calls :func:`_outcomes`
    once and returns ``gain(P)``, the innovation pass of P and then each
    layer's gain rows; what a step inverts and how it assembles the gain
    is decided here, before any step.  Only what some layer reads is
    inverted: ``S11`` if some ``gamma1`` is 0, ``S22`` if some ``gamma2``
    is 0, then S whole if some row is on time.  The gain is assembled in
    one of three ways:

    - no late subsystem: K, selected against 0 only where the
      indicators have leading axes other than P's;
    - one outcome for every layer (scalar indicators, for a matrix or a
      stack): K, or zeros when no row is on time, whose late rows are
      then overwritten with 0 and the local gain;
    - a mixed stack: the local gains L and ``np.where(on_time, K, L)``.

    The overwrite copies the values the selection would, so every way
    gives the same bits.  A checked plan runs :func:`_check_psd` on P and
    inverts through :func:`_spd_inverse`; an unchecked one is arithmetic
    only, through :func:`_lu_inverse`.

    P must be exactly symmetric; it is not symmetrized again.  The public
    functions symmetrize their input first.  A prediction covariance
    ``fl(Q + Q^T) / 2`` needs nothing: it is exactly symmetric, because
    floating-point addition commutes, and each finite entry is at most
    ``DBL_MAX / 2``, being half of a finite double.  So ``p + p`` cannot
    overflow, doubling is exact and halving undoes it, and symmetrizing
    returns P bit for bit; an infinite or NaN entry stays what it is.

    ``mul`` makes every matrix product: ``np.matmul``, or :func:`_dot`
    from a caller that steps one (n, n) matrix made by the package with a
    model's C, CT and V, operands on which it has matmul's bits.  The
    kernel does not choose by rank, so that a stack pays nothing for the
    choice and the public functions, which may be handed views of any
    strides, keep matmul.
    """
    on_time, late1, late2 = _outcomes(dims, gamma1, gamma2)
    inverse = _spd_inverse if checked else _lu_inverse
    late = _late_blocks(dims, late1, late2)
    # Unless both subsystems are late in some layer, one is on time in every layer.
    lead, full = on_time.shape[:-2], not (late1 and late2) or bool(on_time.any())

    def innovation(P):
        S, xcov = _innovation(P, C, CT, V, mul)
        if checked:
            _check_psd(P)
        return S, xcov

    def kalman(S, xcov):
        return mul(xcov, inverse(S, _S_LABEL))

    def local(S, xcov):
        """The late subsystems' local gains, each with its rows and its local and cross columns."""
        return [(rows, cols, cross, mul(xcov[..., rows, cols], inverse(S[..., cols, cols], label)))
                for rows, cols, cross, label in late]

    if not late:
        def gain(P):
            K = kalman(*innovation(P))
            return K if not lead or lead == K.shape[:-2] else np.where(on_time, K, 0.0)
    elif not lead:
        def gain(P):
            S, xcov = innovation(P)
            blocks = local(S, xcov)
            D = kalman(S, xcov) if full else np.zeros(xcov.shape)
            for rows, cols, cross, block in blocks:
                D[..., rows, cross] = 0.0
                D[..., rows, cols] = block
            return D
    else:
        def gain(P):
            S, xcov = innovation(P)
            L = np.zeros(xcov.shape)
            for rows, cols, _, block in local(S, xcov):
                L[..., rows, cols] = block
            if full:
                return np.where(on_time, kalman(S, xcov), L)
            return L if lead == L.shape[:-2] else np.where(on_time, 0.0, L)
    return gain


def structured_gain(P, C, V, dims: BlockDims, gamma1, gamma2) -> np.ndarray:
    """Trace-optimal gain for the on-time indicators ``gamma1``, ``gamma2``.

    The indicators are scalars or arrays that broadcast against the
    leading axes of a stack of priors, one outcome per layer.  One
    innovation pass serves the whole stack, and it inverts only what
    some layer reads: S whole if some row is on time, ``S11`` if some
    ``gamma1`` is 0 and ``S22`` if some ``gamma2`` is 0.  The PSD check
    runs once on every call, so a non-finite or indefinite prior raises
    whatever the outcomes, and each inverse warns if some matrix it
    inverts is ill conditioned.
    """
    P, C, CT, V = _inputs(P, C, V)
    return _gain_plan(C, CT, V, dims, gamma1, gamma2, True)(P)


def optimal_gain(P, C, V, dims: BlockDims, outcome: DelayOutcome) -> np.ndarray:
    """Trace-optimal update gain under the structure forced by ``outcome``.

    Minimizes ``trace((I - D C) P (I - D C)^T + D V D^T)`` over gains D
    whose blocks match :func:`mask_for_outcome`.  The masked-out blocks
    of the result are exact zeros.  For an (..., n, n) stack of priors
    the result is the (..., n, m) stack of their gains.
    """
    return structured_gain(P, C, V, dims, outcome.gamma1, outcome.gamma2)


@dataclass(frozen=True)
class GainSet:
    """The four structured optimal gains for one prior covariance."""

    d11: np.ndarray
    d01: np.ndarray
    d10: np.ndarray
    d00: np.ndarray

    def for_outcome(self, outcome: DelayOutcome) -> np.ndarray:
        return getattr(self, f"d{outcome.label}")


def gain_set(P, C, V, dims: BlockDims) -> GainSet:
    """All four per-outcome optimal gains, from one :func:`structured_gain` call.

    The outcomes ``11``, ``01``, ``10``, ``00`` lie on a broadcast axis
    before P's matrix axes, so P is not repeated; each field is a view
    of the (..., 4, n, m) result.
    """
    D = structured_gain(np.asarray(P, dtype=float)[..., None, :, :], C, V, dims,
                        (1, 0, 1, 0), (1, 1, 0, 0))
    return GainSet(*np.moveaxis(D, -3, 0))


def oracle_structured_gain(P, C, V, dims: BlockDims, mask: StructuredMask) -> np.ndarray:
    """Exact masked minimizer of the posterior trace, by normal equations.

    The objective ``trace((I - D C) P (I - D C)^T + D V D^T)`` decouples
    across rows of D: row i minimizes ``d S d^T - 2 d b_i^T`` over its
    free entries, with ``S = V + C P C^T`` and ``b = P C^T``.  Each row
    is solved exactly with a Cholesky factorization ``L L^T`` of the
    corresponding principal submatrix of S, through L and then ``L^T``;
    a support block that is not positive definite raises
    ``np.linalg.LinAlgError``.  Independent of :func:`structured_gain`.
    """
    P = _sym(np.asarray(P, dtype=float))
    C = np.asarray(C, dtype=float)
    V = np.asarray(V, dtype=float)
    free = mask_pattern(mask, dims)
    S = _sym(V + C @ P @ C.T)
    B = P @ C.T
    D = np.zeros((dims.n, dims.m))
    # All rows of a subsystem share a support; factor once per support.
    for rows in (range(0, dims.n1), range(dims.n1, dims.n)):
        rows = list(rows)
        cols = np.where(free[rows[0]])[0]
        if cols.size == 0:
            continue
        L = np.linalg.cholesky(S[np.ix_(cols, cols)])
        sol = np.linalg.solve(L.T, np.linalg.solve(L, B[np.ix_(rows, cols)].T))
        D[np.ix_(rows, cols)] = sol.T
    return D


def posterior_cov(P, D, C, V) -> np.ndarray:
    """Posterior covariance for gain D, in the numerically safe product form.

    ``(I - D C) P (I - D C)^T + D V D^T``, symmetrized on output.  P and
    D may be stacks with matching leading axes.
    """
    P = np.asarray(P, dtype=float)
    return _posterior(P, np.asarray(D, dtype=float), C, V, _identity(P.shape[-1]))


def _posterior(P, D, C, V, I, out=None, mul=np.matmul) -> np.ndarray:
    """:func:`posterior_cov` with the identity I given, written to ``out`` if given.

    ``mul`` makes every matrix product, as in :func:`_gain_plan`.
    """
    IDC = I - mul(D, C)
    M = mul(mul(IDC, P), IDC.swapaxes(-1, -2))
    M += mul(mul(D, V), D.swapaxes(-1, -2))
    out = np.add(M, M.swapaxes(-1, -2), out=out)
    out /= 2.0
    return out
