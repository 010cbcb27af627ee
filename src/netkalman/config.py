"""Run configuration: one INI-style file drives every CLI subcommand.

The file has four sections.  ``[system]`` names a fixture or spells out
the matrices (inline rows or ``*_file`` references to row-per-line CSV
files); ``[delays]`` holds the two delay probabilities and optional
sweep grids; ``[sim]`` the horizon, run count and master seed;
``[analysis]`` the bound-iteration and bisection settings.  The former
masked-norm solver keys (``restarts``, ``iterations``, ``step_scale``,
``tolerance``, ``solver_seed``) are accepted and ignored, since the
minima have a closed form; older files keep parsing.  ``dump_normalized``
emits a canonical, self-contained form (fixtures and file references
resolved to inline full-precision matrices) that re-parses to itself.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import (
    FIXTURE_NAMES,
    DelayModel,
    SystemModel,
    fixture,
    load_matrix_csv,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "dump_normalized"]

_MATRIX_KEYS = ("a", "c1", "c2", "w", "v", "sigma0")
_IGNORED_ANALYSIS_KEYS = {"restarts", "iterations", "step_scale", "tolerance", "solver_seed"}


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


def _parse_matrix_text(text: str, where: str) -> np.ndarray:
    rows = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([float(tok) for tok in chunk.replace(",", " ").split()])
        except ValueError as exc:
            raise ConfigError(f"{where}: bad matrix entry ({exc})") from None
    if not rows:
        raise ConfigError(f"{where}: empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{where}: ragged matrix rows")
    return np.array(rows, dtype=float)


def _get_matrix(section, key: str, base_dir: str, where: str) -> Optional[np.ndarray]:
    inline = section.get(key)
    path = section.get(f"{key}_file")
    if inline is not None and path is not None:
        raise ConfigError(f"{where}: give either {key} or {key}_file, not both")
    if inline is not None:
        M = _parse_matrix_text(inline, f"{where} {key}")
    elif path is not None:
        key = f"{key}_file"
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        if not os.path.exists(full):
            raise ConfigError(f"{where} {key}: no such file {full}")
        try:
            M = load_matrix_csv(full)
        except ValueError as exc:
            raise ConfigError(f"{where} {key}: {exc}") from None
    else:
        return None
    if not np.isfinite(M).all():
        raise ConfigError(f"{where} {key}: matrix has non-finite entries")
    return M


def _get_number(section, key: str, where: str, cast, default=None):
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{where} {key}: cannot parse {raw!r}") from None


def _get_floats(section, key: str, where: str) -> Optional[Tuple[float, ...]]:
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return None
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{where} {key}: cannot parse {raw!r}") from None
    if not vals:
        return None
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ConfigError(f"{where} {key}: probabilities must lie in [0, 1]")
    return vals


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    base_dir = os.path.dirname(os.path.abspath(path))

    if not cp.has_section("system"):
        raise ConfigError("[system]: section is required")
    system = cp["system"]
    fixture_name = system.get("fixture")
    matrices = {k: _get_matrix(system, k, base_dir, "[system]") for k in _MATRIX_KEYS}
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
        model, default_delays = fixture(fixture_name)
    else:
        missing = [k for k, M in matrices.items() if M is None]
        if missing:
            raise ConfigError(f"[system] {missing[0]}: matrix is required (or use a fixture)")
        n1 = _get_number(system, "n1", "[system]", int)
        n2 = _get_number(system, "n2", "[system]", int)
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

    delays_sec = cp["delays"] if cp.has_section("delays") else {}
    where = "[delays]"
    lambda1 = _get_number(delays_sec, "lambda1", where, float, default_delays.lambda1)
    lambda2 = _get_number(delays_sec, "lambda2", where, float, default_delays.lambda2)
    try:
        delays = DelayModel(lambda1, lambda2)
    except ValueError as exc:
        raise ConfigError(f"{where} lambda: {exc}") from None
    l1_grid = _get_floats(delays_sec, "lambda1_grid", where)
    l2_grid = _get_floats(delays_sec, "lambda2_grid", where)

    sim = cp["sim"] if cp.has_section("sim") else {}
    steps = _get_number(sim, "steps", "[sim]", int, 50)
    runs = _get_number(sim, "runs", "[sim]", int, 1000)
    seed = _get_number(sim, "seed", "[sim]", int, 0)
    if steps < 1:
        raise ConfigError(f"[sim] steps: must be >= 1, got {steps}")
    if runs < 1:
        raise ConfigError(f"[sim] runs: must be >= 1, got {runs}")

    an = cp["analysis"] if cp.has_section("analysis") else {}
    where = "[analysis]"
    divergence_threshold = _get_number(an, "divergence_threshold", where, float, None)
    bisect_tol = _get_number(an, "bisect_tol", where, float, 0.02)
    horizon = _get_number(an, "horizon", where, int, 400)
    if horizon < 1:
        raise ConfigError(f"[analysis] horizon: must be >= 1, got {horizon}")
    for key, value in (("divergence_threshold", divergence_threshold),
                       ("bisect_tol", bisect_tol)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"[analysis] {key}: must be finite and > 0, got {value}")

    known = {
        "system": set(_MATRIX_KEYS)
        | {f"{k}_file" for k in _MATRIX_KEYS}
        | {"fixture", "n1", "n2"},
        "delays": {"lambda1", "lambda2", "lambda1_grid", "lambda2_grid"},
        "sim": {"steps", "runs", "seed"},
        "analysis": _IGNORED_ANALYSIS_KEYS | {"divergence_threshold", "bisect_tol", "horizon"},
    }
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
        steps=steps,
        runs=runs,
        seed=seed,
        divergence_threshold=divergence_threshold,
        bisect_tol=bisect_tol,
        horizon=horizon,
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
    out.append("[sim]")
    out.append(f"steps = {cfg.steps}")
    out.append(f"runs = {cfg.runs}")
    out.append(f"seed = {cfg.seed}")
    out.append("")
    out.append("[analysis]")
    if cfg.divergence_threshold is not None:
        out.append(f"divergence_threshold = {cfg.divergence_threshold:.17g}")
    out.append(f"bisect_tol = {cfg.bisect_tol:.17g}")
    out.append(f"horizon = {cfg.horizon}")
    out.append("")
    return "\n".join(out)
