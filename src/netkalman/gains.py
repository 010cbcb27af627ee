"""Optimal structured estimator gains for the four delay outcomes.

Given the prior covariance, the update gain that minimizes the posterior
trace is the standard Kalman gain when both cross measurements arrive on
time.  When a cross measurement is delayed the corresponding gain block
is forced to zero, and the constrained optimum has a closed form built
from the blocks of the innovation covariance.  This module computes those
closed forms, and also provides an exact brute-force oracle (row-wise
normal equations over the free entries) used to verify them.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .model import ALL_OUTCOMES, BlockDims, DelayOutcome

__all__ = [
    "StructuredMask",
    "InnovationBlocks",
    "GainSet",
    "mask_for_outcome",
    "mask_pattern",
    "innovation_blocks",
    "optimal_gain",
    "gain_set",
    "oracle_structured_gain",
    "posterior_cov",
]

COND_WARN = 1e12


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
    return np.swapaxes(M, -1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + _T(M)) / 2.0


def _warn_cond(M: np.ndarray, what: str):
    c = np.max(np.linalg.cond(M))
    if c > COND_WARN:
        warnings.warn(f"{what} is ill conditioned (cond ~ {c:.2e})", RuntimeWarning)


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    """Inverse of each symmetric positive definite matrix, via Cholesky.

    NumPy's linalg gufuncs loop over a stack in C, so a matrix gets the
    same bits whether it is inverted alone or inside a stack.
    """
    _warn_cond(M, what)
    L_inv = np.linalg.inv(np.linalg.cholesky(_sym(M)))
    return _T(L_inv) @ L_inv


@dataclass(frozen=True)
class InnovationBlocks:
    """Blocks of the innovation covariance ``S = V + C P C^T``.

    ``s12``/``s21`` are the off-diagonal sensor-coupling blocks of S,
    ``s11_inv``/``s22_inv`` the inverses of its diagonal blocks (both
    symmetric positive definite), and ``xcov1``/``xcov2`` the columns of
    the state/measurement cross covariance ``P C^T`` belonging to sensor
    1 and sensor 2.
    """

    s21: np.ndarray
    xcov1: np.ndarray
    s11_inv: np.ndarray
    s12: np.ndarray
    xcov2: np.ndarray
    s22_inv: np.ndarray


def innovation_blocks(P, C, V, dims: BlockDims) -> InnovationBlocks:
    """Split ``V + C P C^T`` and ``P C^T`` into per-sensor blocks.

    P is an (n, n) matrix or an (..., n, n) stack, and each block then
    carries the same leading axes.  Every P must be symmetric positive
    semidefinite and V positive definite; the diagonal blocks are then
    positive definite and inverted via Cholesky factors.
    """
    P = _sym(np.asarray(P, dtype=float))
    C = np.asarray(C, dtype=float)
    V = np.asarray(V, dtype=float)
    eigs = np.linalg.eigvalsh(P)
    bad = eigs[..., 0] < -1e-8 * np.maximum(eigs[..., -1], 1.0)
    if np.any(bad):
        worst = np.min(eigs[..., 0][bad])
        raise ValueError(f"P is not positive semidefinite (min eig {worst:.3e})")
    m1 = dims.m1
    S = _sym(V + C @ P @ C.T)
    xcov = P @ C.T
    return InnovationBlocks(
        s21=S[..., m1:, :m1].copy(),
        xcov1=xcov[..., :m1].copy(),
        s11_inv=_spd_inverse(S[..., :m1, :m1], "sensor-1 innovation covariance"),
        s12=S[..., :m1, m1:].copy(),
        xcov2=xcov[..., m1:].copy(),
        s22_inv=_spd_inverse(S[..., m1:, m1:], "sensor-2 innovation covariance"),
    )


def _kalman_gain(P, C, V) -> np.ndarray:
    S = _sym(V + C @ P @ C.T)
    return (P @ C.T) @ _spd_inverse(S, "innovation covariance")


def _rsolve(B: np.ndarray, M: np.ndarray, what: str) -> np.ndarray:
    """Compute ``B @ inv(M)`` for a general square M via an LU solve."""
    _warn_cond(M, what)
    return _T(np.linalg.solve(_T(M), _T(B)))


def optimal_gain(P, C, V, dims: BlockDims, outcome: DelayOutcome) -> np.ndarray:
    """Trace-optimal update gain under the structure forced by ``outcome``.

    Minimizes ``trace((I - D C) P (I - D C)^T + D V D^T)`` over gains D
    whose blocks match :func:`mask_for_outcome`.  The masked-out blocks
    of the result are exact zeros.  For an (..., n, n) stack of priors
    the result is the (..., n, m) stack of their gains.
    """
    P = _sym(np.asarray(P, dtype=float))
    C = np.asarray(C, dtype=float)
    V = np.asarray(V, dtype=float)
    n1, n2, m1, m2 = dims
    lead = P.shape[:-2]

    if outcome.label == "11":
        return _kalman_gain(P, C, V)

    blocks = innovation_blocks(P, C, V, dims)
    D = np.zeros(lead + (dims.n, dims.m))
    if outcome.label == "00":
        # Decoupled: each subsystem applies its local Kalman gain.
        D[..., :n1, :m1] = blocks.xcov1[..., :n1, :] @ blocks.s11_inv
        D[..., n1:, m1:] = blocks.xcov2[..., n1:, :] @ blocks.s22_inv
        return D

    # Coupling corrections between the free column blocks.
    cross12 = blocks.s11_inv @ blocks.s12 @ blocks.s22_inv  # inv(S11) S12 inv(S22)
    if outcome.label == "01":
        # Sensor-1 columns fully free, sensor-2 columns restricted to
        # subsystem 2.
        resid2 = blocks.xcov1 @ cross12 - blocks.xcov2 @ blocks.s22_inv
        coupling = resid2[..., n1:, :]  # (n2, m2)
        system = np.eye(m2) - blocks.s21 @ cross12
        own2 = -_rsolve(coupling, system, "delayed-to-1 gain system")
        padded = np.concatenate([np.zeros(lead + (n1, m2)), own2], axis=-2)
        left = blocks.xcov1 - padded @ blocks.s21
        D[..., :, :m1] = left @ blocks.s11_inv
        D[..., n1:, m1:] = own2
        return D

    if outcome.label == "10":
        cross21 = blocks.s22_inv @ blocks.s21 @ blocks.s11_inv
        resid1 = blocks.xcov2 @ cross21 - blocks.xcov1 @ blocks.s11_inv
        coupling = resid1[..., :n1, :]  # (n1, m1)
        system = np.eye(m1) - blocks.s12 @ cross21
        own1 = -_rsolve(coupling, system, "delayed-to-2 gain system")
        padded = np.concatenate([own1, np.zeros(lead + (n2, m1))], axis=-2)
        right = blocks.xcov2 - padded @ blocks.s12
        D[..., :n1, :m1] = own1
        D[..., :, m1:] = right @ blocks.s22_inv
        return D

    raise ValueError(f"unknown outcome {outcome!r}")


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
    """Compute all four per-outcome optimal gains at once."""
    return GainSet(
        **{
            f"d{oc.label}": optimal_gain(P, C, V, dims, oc)
            for oc in ALL_OUTCOMES
        }
    )


def oracle_structured_gain(P, C, V, dims: BlockDims, mask: StructuredMask) -> np.ndarray:
    """Exact masked minimizer of the posterior trace, by normal equations.

    The objective ``trace((I - D C) P (I - D C)^T + D V D^T)`` decouples
    across rows of D: row i minimizes ``d S d^T - 2 d b_i^T`` over its
    free entries, with ``S = V + C P C^T`` and ``b = P C^T``.  Each row
    is solved exactly with a Cholesky factorization of the corresponding
    principal submatrix of S.  Independent of :func:`optimal_gain`.
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
        factor = sla.cho_factor(S[np.ix_(cols, cols)], lower=True)
        sol = sla.cho_solve(factor, B[np.ix_(rows, cols)].T).T
        D[np.ix_(rows, cols)] = sol
    return D


def posterior_cov(P, D, C, V) -> np.ndarray:
    """Posterior covariance for gain D, in the numerically safe product form.

    ``(I - D C) P (I - D C)^T + D V D^T``, symmetrized on output.  P and
    D may be stacks with matching leading axes.
    """
    P = np.asarray(P, dtype=float)
    D = np.asarray(D, dtype=float)
    IDC = np.eye(P.shape[-1]) - D @ C
    return _sym(IDC @ P @ _T(IDC) + D @ V @ _T(D))
