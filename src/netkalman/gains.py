"""Optimal structured estimator gains for the four delay outcomes.

Given the prior covariance, the update gain that minimizes the posterior
trace is the standard Kalman gain ``K = P C^T S^-1`` when both cross
measurements arrive on time.  When a cross measurement is delayed the
corresponding gain block is forced to zero.  The posterior trace is a
sum of one quadratic per row of the gain, and all rows of a subsystem
share one zero pattern, so each subsystem's rows are optimized on their
own: a subsystem whose cross measurement arrived takes its rows of K,
and one whose cross measurement was delayed takes its local Kalman gain
``(P C^T)[rows_i, cols_i] S_ii^-1``.  :func:`structured_gain` is the
one function that makes that row selection: :func:`optimal_gain` is one
call for one outcome, and :func:`gain_set` one call for all four, which
lie on a broadcast axis of the prior.  Its arithmetic, the row selection
and the inverses it needs, is a private core that checks nothing and
inverts through the inverse it is given; :func:`structured_gain` runs
the PSD check first and passes a warning inverse.  A caller that steps
the core with the unchecked inverse of ``_run_checks`` makes the same
checks once over its steps.  An exact brute-force oracle (row-wise
normal equations over the free entries) verifies them.
"""

from __future__ import annotations

import collections
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


def _T(M: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (plain transpose in 2-D)."""
    return M.swapaxes(-1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + _T(M)) / 2.0


def _cholesky_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of each symmetric positive definite matrix, via Cholesky, unchecked.

    M must be exactly symmetric, as every block of the innovation pass's
    S is; it is not symmetrized again.  NumPy's linalg gufuncs loop over
    a stack in C, so a matrix gets the same bits whether it is inverted
    alone or inside a stack.
    """
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    return _T(L_inv) @ L_inv


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    """:func:`_cholesky_inverse`, with one warning if some matrix is ill conditioned.

    A matrix is ill conditioned when its 1-norm condition number
    ``|M|_1 |M^-1|_1`` exceeds ``COND_WARN``, whatever else is in the
    stack (a layer whose estimate is NaN hides no other); the warning's
    ``cond ~`` is the largest such number.
    """
    M_inv = _cholesky_inverse(M)
    c = np.abs(M).sum(-2).max(-1) * np.abs(M_inv).sum(-2).max(-1)
    ill = c[c > COND_WARN]
    if ill.size:
        warnings.warn(f"{what} is ill conditioned (cond ~ {ill.max():.2e})", RuntimeWarning)
    return M_inv


def _innovation(P, C, V):
    """The innovation pass: the symmetrized P, ``S = V + C P C^T`` and ``P C^T``.

    S is exactly symmetric, and so is each of its diagonal blocks.
    """
    P = _sym(np.asarray(P, dtype=float))
    C = np.asarray(C, dtype=float)
    return P, _sym(np.asarray(V, dtype=float) + C @ P @ C.T), P @ C.T


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
    positive definite and inverted via Cholesky factors.  The blocks come
    from the same innovation pass, and so have the same bits, as the
    gains of :func:`structured_gain` and :func:`gain_set`.
    """
    P, S, xcov = _innovation(P, C, V)
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


def _on_time_rows(dims: BlockDims, gamma1, gamma2) -> np.ndarray:
    """(..., n, 1) mask of the gain rows whose cross measurement is on time."""
    g1, g2 = (np.asarray(g, dtype=bool)[..., None, None] for g in (gamma1, gamma2))
    return np.where(_first_rows(dims), g1, g2)


def _select_gain(S, xcov, dims: BlockDims, on_time, late1: bool, late2: bool,
                 inverse) -> np.ndarray:
    """The gain rows of each layer, from its innovation pass: the arithmetic alone.

    ``on_time`` is the (..., n, 1) mask of :func:`_on_time_rows`, and
    ``late1``/``late2`` say whether some layer has ``gamma1``/``gamma2``
    equal to 0.  Only what some layer reads is inverted, each block
    through ``inverse(M, what)``: S whole if some row is on time, ``S11``
    if ``late1`` and ``S22`` if ``late2``.  It checks nothing of the
    prior; :func:`structured_gain` does that first.
    """
    n1, m1 = dims.n1, dims.m1
    L = 0.0
    if late1 or late2:
        L = np.zeros(xcov.shape[:-2] + (dims.n, dims.m))
        if late1:
            L[..., :n1, :m1] = xcov[..., :n1, :m1] @ inverse(S[..., :m1, :m1], _S11_LABEL)
        if late2:
            L[..., n1:, m1:] = xcov[..., n1:, m1:] @ inverse(S[..., m1:, m1:], _S22_LABEL)
    K = xcov @ inverse(S, _S_LABEL) if on_time.any() else 0.0
    return np.where(on_time, K, L)


def structured_gain(P, C, V, dims: BlockDims, gamma1, gamma2) -> np.ndarray:
    """Trace-optimal gain for the on-time indicators ``gamma1``, ``gamma2``.

    The indicators are scalars or arrays that broadcast against the
    leading axes of a stack of priors, one outcome per layer.  One
    innovation pass serves the whole stack, and it inverts only what
    some layer reads: S whole if some row is on time, ``S11`` if some
    ``gamma1`` is 0 and ``S22`` if some ``gamma2`` is 0.  The PSD check
    runs once, whenever some subsystem is late, and each inverse warns
    if some matrix it inverts is ill conditioned.
    """
    g1, g2 = np.asarray(gamma1, dtype=bool), np.asarray(gamma2, dtype=bool)
    on_time = _on_time_rows(dims, g1, g2)
    late1, late2 = not g1.all(), not g2.all()
    P, S, xcov = _innovation(P, C, V)
    if late1 or late2:
        _check_psd(P)
    return _select_gain(S, xcov, dims, on_time, late1, late2, _spd_inverse)


def _run_checks(T: int):
    """An unchecked inverse for the T steps of a run, and the run's checks.

    Returns ``(inverse, check)``.  ``inverse`` is :func:`_cholesky_inverse`
    for the ``inverse`` slot of :func:`_select_gain`, on a stack of one,
    and keeps each matrix it inverts under its label.  ``check(P)``, given
    the priors of the steps, makes the checks of :func:`structured_gain`
    once over them: each label's matrices are inverted again, as one
    stack, through the warning inverse, so a run gives at most one
    ill-conditioning warning per label, carrying the run's worst
    condition number; then every prior, late step or not, gets the PSD
    check.
    """
    blocks, used = {}, collections.Counter()

    def inverse(M, what):
        M_inv = _cholesky_inverse(M)
        if what not in blocks:
            blocks[what] = np.empty((T,) + M.shape[1:])
        blocks[what][used[what]] = M[0]
        used[what] += 1
        return M_inv

    def check(P):
        for what, stack in blocks.items():
            _spd_inverse(stack[:used[what]], what)
        _check_psd(P)

    return inverse, check


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
    D = np.asarray(D, dtype=float)
    IDC = _identity(P.shape[-1]) - D @ C
    return _sym(IDC @ P @ _T(IDC) + D @ V @ _T(D))
