"""System model for a two-subsystem interconnected plant.

The plant is a linear system whose state is partitioned between two
subsystems.  Each subsystem measures its own state block through its own
sensor suite; the coupling enters through the off-diagonal blocks of the
transition matrix.  This module holds the immutable data model, the
validation diagnostics, the Euler discretization / state-feedback closure
used to build the power-system fixtures, and the fixtures themselves.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlockDims",
    "SystemModel",
    "DelayModel",
    "DelayOutcome",
    "ValidationReport",
    "validate_model",
    "shape_mismatches",
    "discretize",
    "close_loop",
    "detectable_full",
    "fixture",
    "FIXTURE_NAMES",
    "load_matrix_csv",
    "save_matrix_csv",
    "format_matrix_csv",
]

# Positive definiteness guard: smallest eigenvalue must exceed this
# fraction of the largest (scale invariant).
PD_RTOL = 1e-10
SYM_RTOL = 1e-12


class BlockDims(NamedTuple):
    """State/measurement dimensions of the two subsystems."""

    n1: int
    n2: int
    m1: int
    m2: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def m(self) -> int:
        return self.m1 + self.m2


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemModel:
    """Two-subsystem linear plant with block-diagonal measurement map.

    Parameters
    ----------
    n1, n2 : int
        State dimensions of subsystem 1 and 2.
    A : (n1+n2, n1+n2) array
        Transition matrix; ``A[:n1, :n1]`` acts on subsystem 1, the
        off-diagonal blocks couple the subsystems.
    C1 : (m1, n1) array
        Measurement matrix of subsystem 1.
    C2 : (m2, n2) array
        Measurement matrix of subsystem 2.
    W : (n, n) array
        Process noise covariance (positive definite).
    V : (m1+m2, m1+m2) array
        Measurement noise covariance for the stacked measurement vector.
    Sigma0 : (n, n) array
        Initial state covariance.

    All arrays are copied and made read-only; instances are safe to share
    across threads/processes.
    """

    n1: int
    n2: int
    A: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    W: np.ndarray
    V: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        for name in ("A", "C1", "C2", "W", "V", "Sigma0"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __setstate__(self, state):
        """Unpickle with read-only arrays; a pickled ``C`` is dropped and rebuilt on use."""
        self.__dict__.update((k, v) for k, v in state.items() if k != "C")
        self.__post_init__()

    @property
    def m1(self) -> int:
        return self.C1.shape[0]

    @property
    def m2(self) -> int:
        return self.C2.shape[0]

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    @property
    def dims(self) -> BlockDims:
        return BlockDims(self.n1, self.n2, self.m1, self.m2)

    @functools.cached_property
    def C(self) -> np.ndarray:
        """Stacked measurement matrix, block diagonal in (C1, C2); read-only, built once."""
        C = np.zeros((self.m, self.n))
        C[: self.m1, : self.n1] = self.C1
        C[self.m1 :, self.n1 :] = self.C2
        C.setflags(write=False)
        return C


@dataclass(frozen=True)
class DelayModel:
    """Bernoulli cross-channel delay probabilities.

    ``lambda1`` is the probability that the measurement sent *to*
    subsystem 1 arrives one step late (and is discarded); ``lambda2``
    likewise for subsystem 2.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)

    def outcome_probability(self, outcome: "DelayOutcome") -> float:
        p1 = self.lambda1 if outcome.gamma1 == 0 else 1.0 - self.lambda1
        p2 = self.lambda2 if outcome.gamma2 == 0 else 1.0 - self.lambda2
        return p1 * p2


@dataclass(frozen=True)
class DelayOutcome:
    """One realization of the two delay indicators.

    ``gamma1 = 1`` means the cross measurement reached subsystem 1 on
    time, ``gamma1 = 0`` means it was delayed and discarded.  The label
    concatenates the two bits, e.g. ``"01"`` for (gamma1=0, gamma2=1).
    """

    gamma1: int
    gamma2: int

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            v = int(getattr(self, name))
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v}")
            object.__setattr__(self, name, v)

    @property
    def label(self) -> str:
        return f"{self.gamma1}{self.gamma2}"

    @classmethod
    def from_label(cls, label: str) -> "DelayOutcome":
        if len(label) != 2 or any(ch not in "01" for ch in label):
            raise ValueError(f"outcome label must be two bits, got {label!r}")
        return cls(int(label[0]), int(label[1]))


ALL_OUTCOMES = tuple(
    DelayOutcome(g1, g2) for g1 in (0, 1) for g2 in (0, 1)
)


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics from :func:`validate_model`; empty means valid."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "model valid"
        return "model invalid:\n" + "\n".join(f"  - {v}" for v in self.violations)


def _check_spd(M: np.ndarray, name: str, violations: list):
    if M.shape[0] != M.shape[1]:
        violations.append(f"{name} is not square: shape {M.shape}")
        return
    scale = np.abs(M).max()
    if scale == 0.0:
        violations.append(f"{name} not positive definite")
        return
    if np.abs(M - M.T).max() > SYM_RTOL * scale:
        violations.append(f"{name} not symmetric")
        return
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= PD_RTOL * eigs[-1]:
        violations.append(f"{name} not positive definite")


def shape_mismatches(model: SystemModel) -> list:
    """``(name, shape, expected)`` for each matrix whose shape does not fit.

    The expected shapes follow from ``n1``, ``n2`` and the sensor rows of
    ``C1`` and ``C2``; ``None`` in ``expected`` marks a free dimension.
    Empty when ``n1`` or ``n2`` is not positive, since no shape is then
    defined.
    """
    if model.n1 <= 0 or model.n2 <= 0:
        return []
    n, m = model.n, model.m
    expected = {"A": (n, n), "C1": (None, model.n1), "C2": (None, model.n2),
                "W": (n, n), "V": (m, m), "Sigma0": (n, n)}
    out = []
    for name, want in expected.items():
        shape = getattr(model, name).shape
        if len(shape) != 2 or any(w is not None and w != d for w, d in zip(want, shape)):
            out.append((name, shape, want))
    return out


def validate_model(model: SystemModel) -> ValidationReport:
    """Check the model invariants; returns diagnostics instead of raising.

    Verified: finite entries in every matrix, positive integer
    dimensions, consistent block shapes, and symmetric positive
    definiteness of W, V and Sigma0 (smallest eigenvalue above
    ``PD_RTOL`` times the largest).
    """
    v: list = []
    for name in ("A", "C1", "C2", "W", "V", "Sigma0"):
        if not np.isfinite(getattr(model, name)).all():
            v.append(f"{name} has non-finite entries")
    if model.n1 <= 0 or model.n2 <= 0:
        v.append(f"state dimensions must be positive: n1={model.n1}, n2={model.n2}")
        return ValidationReport(tuple(v))
    for name, shape, want in shape_mismatches(model):
        text = f"{want[1]} columns" if want[0] is None else str(want)
        v.append(f"{name} has shape {shape}, expected {text}")
    if model.m1 <= 0 or model.m2 <= 0:
        v.append(f"measurement dimensions must be positive: m1={model.m1}, m2={model.m2}")
    if not v:
        _check_spd(model.W, "W", v)
        _check_spd(model.V, "V", v)
        _check_spd(model.Sigma0, "Sigma0", v)
    return ValidationReport(tuple(v))


def discretize(A_cont, B_cont, Q_cont, Ts: float):
    """Euler-discretize continuous dynamics with sampling time ``Ts``.

    Returns ``(A_d, B_d, W)`` with ``A_d = Ts*A + I``, ``B_d = Ts*B`` and
    process noise covariance ``W = Ts**2 * Q``.
    """
    if Ts <= 0:
        raise ValueError(f"sampling time must be positive, got {Ts}")
    A_cont = np.asarray(A_cont, dtype=float)
    B_cont = np.asarray(B_cont, dtype=float)
    Q_cont = np.asarray(Q_cont, dtype=float)
    A_d = Ts * A_cont + np.eye(A_cont.shape[0])
    B_d = Ts * B_cont
    W = Ts**2 * Q_cont
    return A_d, B_d, W


def close_loop(A_d, B_d, L) -> np.ndarray:
    """Return the closed-loop transition matrix ``A_d + B_d @ L``."""
    A_d = np.asarray(A_d, dtype=float)
    B_d = np.asarray(B_d, dtype=float)
    L = np.asarray(L, dtype=float)
    if B_d.shape[1] != L.shape[0] or B_d.shape[0] != A_d.shape[0] or L.shape[1] != A_d.shape[1]:
        raise ValueError(
            f"incompatible shapes: A_d {A_d.shape}, B_d {B_d.shape}, L {L.shape}"
        )
    return A_d + B_d @ L


def detectable_full(A, C, tol: float = 1e-9) -> bool:
    """Rank test for detectability of (A, C) with an unconstrained gain.

    True iff ``[A - z I; C]`` has full column rank at every eigenvalue z
    of A with ``|z| >= 1`` (checked with a small tolerance on the unit
    circle).
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    n = A.shape[0]
    for z in np.linalg.eigvals(A):
        if abs(z) >= 1.0 - tol:
            stacked = np.vstack([A - z * np.eye(n), C.astype(complex)])
            if np.linalg.matrix_rank(stacked) < n:
                return False
    return True


# ---------------------------------------------------------------------------
# Fixtures: the four-bus power network example (two areas of two buses each)
# and a minimal scalar-per-subsystem toy model.

_A_CONT = np.array(
    [
        [175.9, 176.8, 511.0, 1036.0],
        [-350.0, 0.0, 0.0, 0.0],
        [-544.2, -474.8, -408.8, -828.8],
        [-119.7, -554.6, -968.8, -1077.5],
    ]
)

_B_CONT = np.array(
    [
        [0.8, 334.2, 525.1, -103.6],
        [-350.0, 0.0, 0.0, 0.0],
        [-69.3, -66.1, -420.1, -828.8],
        [-434.9, -414.2, -108.7, -1077.5],
    ]
)

_TS = 0.05

_L_STABLE = np.array(
    [
        [-0.9752, 0.0954, -0.0046, 0.0092],
        [1.2278, -0.2457, -1.4844, -1.4526],
        [-1.1925, -0.2489, -0.0979, -1.1097],
        [-0.0708, -0.4306, -0.3197, -0.3290],
    ]
)

_L_UNSTABLE = np.array(
    [
        [-0.9553, 0.1260, -0.1420, 0.0165],
        [1.2028, -0.2767, -1.3840, -1.4669],
        [-1.1969, -0.2184, -0.1625, -1.0997],
        [-0.0701, -0.4426, -0.2987, -0.3388],
    ]
)

# Closed-loop matrices as printed in the source material (the feedback
# gains above are rounded to 4 decimals, so recomputing A_d + B_d L only
# reproduces these to ~2e-3; the printed values are authoritative).
_AC_STABLE = np.array(
    [
        [-0.6696, 0.4342, -0.1680, 0.0960],
        [-0.4342, -0.6696, 0.0808, -0.1608],
        [0.0936, -0.1848, 0.7881, 0.2728],
        [0.0880, -0.1632, 0.1600, 0.7645],
    ]
)

_AC_UNSTABLE = np.array(
    [
        [-1.2053, 0.7816, -0.3024, 0.1728],
        [-0.7816, -1.2053, 2.4854, -0.2894],
        [0.1685, -0.3326, 1.4186, 0.4910],
        [0.1584, 0.2938, 0.2880, 1.3761],
    ]
)

# Area 1 measures both of its bus voltages; area 2 measures the sum of
# its two.  Stacked, this gives a 3x4 block-diagonal measurement map
# matching the 3x3 identity measurement noise.
_C1_POWER = np.eye(2)
_C2_POWER = np.array([[1.0, 1.0]])

_A_TOY = np.array([[0.5, 0.2], [0.1, 0.4]])

FIXTURE_NAMES = ("case1_stable", "case2_unstable", "toy_identity")


def fixture(name: str):
    """Return ``(SystemModel, DelayModel)`` for a named benchmark system.

    ``case1_stable`` / ``case2_unstable`` are the four-bus power network
    under the stabilizing / destabilizing feedback gain; ``toy_identity``
    is a scalar-per-subsystem model with identity covariances.  The
    default delay model is (0.5, 0.5).
    """
    if name == "case1_stable":
        A = _AC_STABLE
    elif name == "case2_unstable":
        A = _AC_UNSTABLE
    elif name == "toy_identity":
        return (
            SystemModel(
                n1=1,
                n2=1,
                A=_A_TOY,
                C1=np.eye(1),
                C2=np.eye(1),
                W=np.eye(2),
                V=np.eye(2),
                Sigma0=np.eye(2),
            ),
            DelayModel(0.5, 0.5),
        )
    else:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return (
        SystemModel(
            n1=2,
            n2=2,
            A=A,
            C1=_C1_POWER,
            C2=_C2_POWER,
            W=np.eye(4),
            V=np.eye(3),
            Sigma0=np.eye(4),
        ),
        DelayModel(0.5, 0.5),
    )


def power_network_continuous():
    """Raw continuous-time matrices and feedback gains of the fixtures.

    Returns a dict with keys ``A``, ``B``, ``Ts``, ``L_stable``,
    ``L_unstable``; useful for exercising :func:`discretize` and
    :func:`close_loop` against the published closed-loop matrices.
    """
    return {
        "A": _A_CONT.copy(),
        "B": _B_CONT.copy(),
        "Ts": _TS,
        "L_stable": _L_STABLE.copy(),
        "L_unstable": _L_UNSTABLE.copy(),
    }


# ---------------------------------------------------------------------------
# Matrix CSV I/O (row-major, one row per line, plain decimal floats)


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix from a row-per-line CSV file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)


def format_matrix_csv(M: np.ndarray) -> str:
    """Format a matrix as CSV text with full double precision."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    buf = io.StringIO()
    for row in M:
        buf.write(",".join(f"{x:.17g}" for x in row))
        buf.write("\n")
    return buf.getvalue()


def save_matrix_csv(path, M: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_csv(M))
