"""Run configuration: one INI-style file drives every CLI subcommand.

The file has four sections.  ``[system]`` names a fixture or spells out
the matrices, inline (one row a line, or rows joined by ``;``) or as
``*_file`` references to row-per-line CSV files; both forms are read by
``model.parse_matrix_rows``, and any error names the key.  ``[delays]``
holds the two delay probabilities and optional sweep grids; ``[sim]``
the step count, run count and master seed; ``[analysis]`` the
bound-iteration and bisection settings.  Each scalar key of ``[sim]``
and ``[analysis]`` is declared once, in ``_SCALARS``, with its section,
type and range rule; its default is the ``RunConfig`` field's.  Parsing,
the unknown-key check and ``dump_normalized`` all loop over that
declaration.  The former masked-norm solver keys (``restarts``,
``iterations``, ``step_scale``, ``tolerance``, ``solver_seed``) are
accepted and ignored, since the minima have a closed form; older files
keep parsing.  ``dump_normalized`` emits a canonical, self-contained form
(fixtures and file references resolved to inline full-precision
matrices) that re-parses to itself.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .model import (
    FIXTURE_NAMES,
    DelayModel,
    SystemModel,
    fixture,
    load_matrix_csv,
    parse_matrix_rows,
    shape_mismatches,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "dump_normalized"]

_MATRIX_KEYS = ("a", "c1", "c2", "w", "v", "sigma0")
# Scalar keys, in dump order: key -> (section, type, rule).  Each default
# is the RunConfig field's; a rule is also the text of its error message.
_SCALARS = {
    "steps": ("sim", int, ">= 1"),
    "runs": ("sim", int, ">= 1"),
    "seed": ("sim", int, None),
    "divergence_threshold": ("analysis", float, "finite and > 0"),
    "bisect_tol": ("analysis", float, "finite and > 0"),
    "horizon": ("analysis", int, ">= 1"),
}
_RULES = {">= 1": lambda v: v >= 1, "finite and > 0": lambda v: math.isfinite(v) and v > 0.0}


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration."""

    model: SystemModel
    delays: DelayModel
    lambda1_grid: Optional[Tuple[float, ...]]
    lambda2_grid: Optional[Tuple[float, ...]]
    steps: int = 50
    runs: int = 1000
    seed: int = 0
    divergence_threshold: Optional[float] = None
    bisect_tol: float = 0.02
    horizon: int = 400

    @property
    def solver(self) -> None:
        """Always None; for the ignored ``options`` slot of the analysis calls."""
        return None

    def grid(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Sweep grid; falls back to the single configured point."""
        l1 = self.lambda1_grid if self.lambda1_grid else (self.delays.lambda1,)
        l2 = self.lambda2_grid if self.lambda2_grid else (self.delays.lambda2,)
        return l1, l2


def _get_matrix(section, key: str, base_dir: str) -> Optional[np.ndarray]:
    inline = section.get(key)
    path = section.get(f"{key}_file")
    if inline is not None and path is not None:
        raise ConfigError(f"[system] {key}: give either {key} or {key}_file, not both")
    if inline is None and path is None:
        return None
    try:
        if inline is not None:
            M = parse_matrix_rows(inline.replace(";", "\n").splitlines())
        else:
            key = f"{key}_file"
            M = load_matrix_csv(os.path.join(base_dir, path))  # an absolute path stays
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[system] {key}: {exc}") from None
    if not np.isfinite(M).all():
        raise ConfigError(f"[system] {key}: matrix has non-finite entries")
    return M


def _get_number(cp, sec: str, key: str, cast, default=None):
    raw = cp.get(sec, key, fallback=None)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key}: cannot parse {raw!r}") from None


def _get_floats(cp, key: str) -> Optional[Tuple[float, ...]]:
    raw = cp.get("delays", key, fallback=None)
    if raw is None or raw.strip() == "":
        return None
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"[delays] {key}: cannot parse {raw!r}") from None
    if not vals:
        return None
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ConfigError(f"[delays] {key}: probabilities must lie in [0, 1]")
    return vals


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    # Values are read literally: a "%" is an entry like any other, not an
    # interpolation reference that would escape the key-naming errors.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    # configparser copies [DEFAULT] keys into every section; name the
    # section they were written in.
    if cp.defaults():
        raise ConfigError("[DEFAULT]: unknown section")
    base_dir = os.path.dirname(os.path.abspath(path))

    if not cp.has_section("system"):
        raise ConfigError("[system]: section is required")
    system = cp["system"]
    fixture_name = system.get("fixture")
    matrices = {k: _get_matrix(system, k, base_dir) for k in _MATRIX_KEYS}
    has_explicit = any(M is not None for M in matrices.values())
    if fixture_name and has_explicit:
        raise ConfigError("[system] fixture: give a fixture or explicit matrices, not both")

    default_delays = DelayModel(0.5, 0.5)
    if fixture_name:
        if fixture_name not in FIXTURE_NAMES:
            raise ConfigError(
                f"[system] fixture: unknown fixture {fixture_name!r}; "
                f"choose from {FIXTURE_NAMES}"
            )
        for key in ("n1", "n2"):
            if key in system:
                raise ConfigError(
                    f"[system] {key}: give a fixture or explicit matrices, not both"
                )
        model, default_delays = fixture(fixture_name)
    else:
        missing = [k for k, M in matrices.items() if M is None]
        if missing:
            raise ConfigError(f"[system] {missing[0]}: matrix is required (or use a fixture)")
        n1 = _get_number(cp, "system", "n1", int)
        n2 = _get_number(cp, "system", "n2", int)
        if n1 is None or n2 is None:
            raise ConfigError("[system] n1: n1 and n2 are required with explicit matrices")
        model = SystemModel(
            n1=n1,
            n2=n2,
            A=matrices["a"],
            C1=matrices["c1"],
            C2=matrices["c2"],
            W=matrices["w"],
            V=matrices["v"],
            Sigma0=matrices["sigma0"],
        )
        # A misshapen matrix is a config error naming its key; the other
        # model checks are left to validate_model.
        bad = shape_mismatches(model)
        if bad:
            name, (r, c), (rows, cols) = bad[0]
            key = name.lower()
            if system.get(f"{key}_file") is not None:
                key = f"{key}_file"
            want = f"{cols} columns" if rows is None else f"{rows}x{cols}"
            raise ConfigError(f"[system] {key}: matrix is {r}x{c}, expected {want}")

    lambda1 = _get_number(cp, "delays", "lambda1", float, default_delays.lambda1)
    lambda2 = _get_number(cp, "delays", "lambda2", float, default_delays.lambda2)
    try:
        delays = DelayModel(lambda1, lambda2)
    except ValueError as exc:
        raise ConfigError(f"[delays] {exc}") from None
    l1_grid = _get_floats(cp, "lambda1_grid")
    l2_grid = _get_floats(cp, "lambda2_grid")

    known = {
        "system": {*_MATRIX_KEYS, *(f"{k}_file" for k in _MATRIX_KEYS), "fixture", "n1", "n2"},
        "delays": {"lambda1", "lambda2", "lambda1_grid", "lambda2_grid"},
        "sim": set(),
        "analysis": {"restarts", "iterations", "step_scale", "tolerance", "solver_seed"},
    }
    defaults = {f.name: f.default for f in fields(RunConfig)}
    scalars = {}
    for key, (sec, cast, rule) in _SCALARS.items():
        known[sec].add(key)
        value = _get_number(cp, sec, key, cast, defaults[key])
        if rule and value is not None and not _RULES[rule](value):
            raise ConfigError(f"[{sec}] {key}: must be {rule}, got {value}")
        scalars[key] = value

    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"[{sec}]: unknown section")
        for key in cp[sec]:
            if key not in known[sec]:
                raise ConfigError(f"[{sec}] {key}: unknown key")

    return RunConfig(
        model=model,
        delays=delays,
        lambda1_grid=l1_grid,
        lambda2_grid=l2_grid,
        **scalars,
    )


def _matrix_lines(M: np.ndarray) -> str:
    rows = ["    " + " ".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(M)]
    return "\n" + "\n".join(rows)


def dump_normalized(cfg: RunConfig) -> str:
    """Canonical self-contained text form of a configuration.

    Fixture names and file references are resolved into inline matrices;
    all keys are written explicitly, so parsing the output and dumping
    again reproduces it byte for byte.
    """
    m = cfg.model
    out = ["[system]"]
    out.append(f"n1 = {m.n1}")
    out.append(f"n2 = {m.n2}")
    for key, mat in (("a", m.A), ("c1", m.C1), ("c2", m.C2),
                     ("w", m.W), ("v", m.V), ("sigma0", m.Sigma0)):
        out.append(f"{key} ={_matrix_lines(mat)}")
    out.append("")
    out.append("[delays]")
    out.append(f"lambda1 = {cfg.delays.lambda1:.17g}")
    out.append(f"lambda2 = {cfg.delays.lambda2:.17g}")
    if cfg.lambda1_grid:
        out.append("lambda1_grid = " + " ".join(f"{v:.17g}" for v in cfg.lambda1_grid))
    if cfg.lambda2_grid:
        out.append("lambda2_grid = " + " ".join(f"{v:.17g}" for v in cfg.lambda2_grid))
    out.append("")
    for sec in ("sim", "analysis"):
        out.append(f"[{sec}]")
        for key, (key_sec, cast, _) in _SCALARS.items():
            value = getattr(cfg, key)
            if key_sec == sec and value is not None:
                out.append(f"{key} = {value:.17g}" if cast is float else f"{key} = {value}")
        out.append("")
    return "\n".join(out)
