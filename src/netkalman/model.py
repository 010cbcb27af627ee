"""System model for a two-subsystem interconnected plant.

The plant is a linear system whose state is partitioned between two
subsystems.  Each subsystem measures its own state block through its own
sensor suite; the coupling enters through the off-diagonal blocks of the
transition matrix.  This module holds the immutable data model, the
validation diagnostics, the fixtures (the power-system example enters as
the closed-loop matrices printed in the source material), the matrix CSV
reader and the CSV writer behind every table and matrix the package prints.
"""

from __future__ import annotations

import functools
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
    "fixture",
    "FIXTURE_NAMES",
    "parse_matrix_rows",
    "load_matrix_csv",
    "save_matrix_csv",
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
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v}")
            object.__setattr__(self, name, int(v))

    @property
    def label(self) -> str:
        return f"{self.gamma1}{self.gamma2}"


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


# ---------------------------------------------------------------------------
# Fixtures: the four-bus power network example (two areas of two buses each)
# and a minimal scalar-per-subsystem toy model.

# Closed-loop matrices as printed in the source material; the printed
# values are authoritative.  The network's continuous-time data, sampled
# by the Euler method and closed with the printed feedback gains (rounded
# to 4 decimals), reproduce them only to ~2e-3; tests/test_model.py keeps
# that derivation.
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

# name: (state dimension of each subsystem, A, C1, C2); W, V and Sigma0
# are identities.
_FIXTURES = {
    "case1_stable": (2, _AC_STABLE, _C1_POWER, _C2_POWER),
    "case2_unstable": (2, _AC_UNSTABLE, _C1_POWER, _C2_POWER),
    "toy_identity": (1, np.array([[0.5, 0.2], [0.1, 0.4]]), np.eye(1), np.eye(1)),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name: str):
    """Return ``(SystemModel, DelayModel)`` for a named benchmark system.

    ``case1_stable`` / ``case2_unstable`` are the four-bus power network
    under the stabilizing / destabilizing feedback gain; ``toy_identity``
    is a scalar-per-subsystem model with identity covariances.  The
    default delay model is (0.5, 0.5).
    """
    try:
        n_sub, A, C1, C2 = _FIXTURES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}") from None
    n, m = 2 * n_sub, len(C1) + len(C2)
    model = SystemModel(n1=n_sub, n2=n_sub, A=A, C1=C1, C2=C2, W=np.eye(n), V=np.eye(m),
                        Sigma0=np.eye(n))
    return model, DelayModel(0.5, 0.5)


# ---------------------------------------------------------------------------
# CSV I/O.  A table has a header row; a matrix has none, one row a line.

_CSV_CHUNK = 256  # rows of an array held as Python objects at a time


def _csv_text(header, rows) -> str:
    """The line ``header`` (none when it is None), then one line per row of Python values.

    Every row takes the format of the first: a field that is a string
    there is written as it is, any other with ``%.17g``, which every double
    survives and which writes an integer below 2**53 as ``%d`` does.
    """
    lines, fmt = [] if header is None else [header + "\n"], None
    for row in rows:
        fmt = fmt or ",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) + "\n"
        lines.append(fmt % tuple(row))
    return "".join(lines)


def _table_rows(*columns):
    """Rows of (T,) and (T, k) arrays side by side, as float lists, ``_CSV_CHUNK`` at a time."""
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        yield from np.column_stack([c[start:start + _CSV_CHUNK] for c in columns]).tolist()


def parse_matrix_rows(lines) -> np.ndarray:
    """Matrix from text lines, one row a line, entries split on commas or spaces.

    Blank lines and lines starting with ``#`` are skipped.  Raises
    ``ValueError`` on a non-number, on no rows and on rows of unequal length.
    """
    rows = [[float(tok) for tok in line.replace(",", " ").split()]
            for line in map(str.strip, lines) if line and not line.startswith("#")]
    if not rows:
        raise ValueError("no matrix rows found")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return np.array(rows, dtype=float)


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix from a row-per-line CSV file; a parse error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_matrix_rows(fh)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ValueError(f"{exc} in {path}") from None


def save_matrix_csv(path, M: np.ndarray):
    """Write a matrix as row-per-line CSV with full double precision."""
    text = _csv_text(None, _table_rows(np.atleast_2d(np.asarray(M, dtype=float))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
