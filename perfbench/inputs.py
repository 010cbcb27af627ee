"""Seeded inputs for the benchmark workloads, written as netkalman config files.

Everything a workload feeds the program is derived here from the
benchmark seed and written as INI files that the program reads with
``config.parse_config``.  The same seed gives byte-identical files.
Only numpy is needed, so the orchestrator can generate inputs without
importing the package under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("mc_sweep", "filter_long", "certify", "bisect")

# Work size per pass.  Each value is fixed for every seed, so the work a
# pass does is the same whatever the seed.
MC_RUNS = 10  # Monte-Carlo runs per sweep cell
MC_HORIZON = 50  # steps per run, as in the acceptance suite
FILTER_STEPS = 3000  # past the case2_unstable plant overflow (about step 1204)
FILTER_LAMBDAS = (0.25, 0.75)
CERTIFY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
CERTIFY_MODELS = 1  # seeded m < n models next to the two power fixtures
BISECT_MODELS = 2  # seeded hidden-mode models next to the two power fixtures
BISECT_FIXED_LAMBDA2 = 0.5
HIDDEN_MODE = 1.25  # unstable eigenvalue hidden from C1; critical lambda1 ~ 0.68
HORIZON = 400  # [analysis] horizon default: bound-sequence and bisection length
BISECT_TOL = 0.02  # [analysis] bisect_tol default


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit master seed for the program, derived from (seed, stream)."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint32)[0])


def _matrix(M) -> str:
    rows = ["    " + " ".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(M)]
    return "\n" + "\n".join(rows)


def _write_ini(path: Path, sections: dict):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            if isinstance(value, np.ndarray):
                value = _matrix(value)
            elif isinstance(value, (tuple, list)):
                value = " ".join(f"{v:.17g}" for v in value)
            elif isinstance(value, float):
                value = f"{value:.17g}"
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _psd(rng, n: int, floor: float) -> np.ndarray:
    G = 0.3 * rng.standard_normal((n, n))
    return G @ G.T + floor * np.eye(n)


def _explicit(n1, n2, A, C1, C2, W, V, Sigma0) -> dict:
    return {"n1": n1, "n2": n2, "a": A, "c1": C1, "c2": C2, "w": W, "v": V, "sigma0": Sigma0}


def certify_model(rng) -> dict:
    """A model with fewer measurements than states (m = 2 < n = 4).

    With m < n the masked norms r1..r4 are positive, so the subgradient
    solver runs all its restarts and iterations; a square invertible C
    (as in ``toy_identity``) makes it exit at the first start.
    """
    n1, n2 = 2, 2
    A = rng.standard_normal((4, 4))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    C1 = rng.standard_normal((1, n1)) + np.array([[1.0, 0.0]])
    C2 = rng.standard_normal((1, n2)) + np.array([[0.0, 1.0]])
    return _explicit(n1, n2, A, C1, C2, _psd(rng, 4, 1.0), _psd(rng, 2, 1.0), _psd(rng, 4, 1.0))


def hidden_mode_model(rng) -> dict:
    """A model whose critical delay probability lies inside (0, 1).

    Subsystem 1 has an unstable mode (eigenvalue ``HIDDEN_MODE``) that its
    own sensor C1 does not see; it drives subsystem 2, whose sensor does.
    Subsystem 1 can only track the mode when the cross measurement reaches
    it on time, so the bound sequence diverges for lambda1 above roughly
    ``1 / HIDDEN_MODE**2`` and stays bounded below it.  The seed draws the
    stable poles, the coupling gain and the noise covariances, which leave
    the bisection path unchanged.
    """
    A = np.array(
        [
            [HIDDEN_MODE, 0.0, 0.0],
            [0.0, rng.uniform(0.3, 0.6), 0.0],
            [rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2), rng.uniform(0.3, 0.6)],
        ]
    )
    C1 = np.array([[0.0, 1.0]])
    C2 = np.array([[1.0]])
    return _explicit(2, 1, A, C1, C2, _psd(rng, 3, 1.0), _psd(rng, 2, 1.0), _psd(rng, 3, 1.0))


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the config files of one workload and return its manifest.

    The manifest lists each job (its kind and config file), the seed and
    the work sizes, and is written next to the configs as
    ``manifest.json``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []

    def add(kind: str, name: str, sections: dict, **extra):
        path = out_dir / f"{name}.ini"
        _write_ini(path, sections)
        jobs.append({"kind": kind, "name": name, "config": str(path), **extra})

    if workload == "mc_sweep":
        # The acceptance suite's sweeps, its largest cost: the case1 3x3
        # grid and the two case2 axis sweeps, at fewer runs per cell.  Time
        # goes montecarlo -> filtering -> gains.optimal_gain, none to
        # analysis.  Exercises ROADMAP item 2 (batched covariance kernel)
        # and item 4 (cheaper conditioning checks); bypasses item 3.
        grids = [
            ("case1_grid", "case1_stable", (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)),
            ("case2_axis1", "case2_unstable", (1.0,), (0.0, 0.5, 1.0)),
            ("case2_axis2", "case2_unstable", (0.0, 0.5, 1.0), (1.0,)),
        ]
        for k, (name, fix, l1, l2) in enumerate(grids):
            add(
                "sweep",
                name,
                {
                    "system": {"fixture": fix},
                    "delays": {"lambda1_grid": l1, "lambda2_grid": l2},
                    "sim": {"steps": MC_HORIZON, "runs": MC_RUNS, "seed": derived_seed(seed, k)},
                },
                monotone=(fix == "case1_stable"),
            )
        sizes = {"cells": 15, "runs": MC_RUNS, "horizon": MC_HORIZON,
                 "run_steps": 15 * MC_RUNS * MC_HORIZON}
    elif workload == "filter_long":
        # ``netkalman filter``: one long trajectory per fixture, a batch of
        # one that needs the plant and state path.  Same filtering/gains
        # step as mc_sweep, so item 2 must leave it unchanged while item 4
        # moves it.  case2_unstable's plant overflows near step 1204 and
        # the job fails; that known defect (item 5) stays visible.
        for k, fix in enumerate(("case1_stable", "case2_unstable")):
            add(
                "filter",
                fix,
                {
                    "system": {"fixture": fix},
                    "delays": {"lambda1": FILTER_LAMBDAS[0], "lambda2": FILTER_LAMBDAS[1]},
                    "sim": {"steps": FILTER_STEPS, "seed": derived_seed(seed, k)},
                },
            )
        sizes = {"trajectories": 2, "steps": FILTER_STEPS}
    elif workload == "certify":
        # ``netkalman bounded`` over a lambda grid plus ``critical``: almost
        # all time is the masked-norm subgradient solver at its default
        # settings.  The workload for ROADMAP item 3 (closed-form r1..r4);
        # touches no filtering, Monte-Carlo or per-step gains, so it
        # bypasses items 2 and 4.
        grid = {"lambda1_grid": CERTIFY_GRID, "lambda2_grid": CERTIFY_GRID}
        for fix in ("case1_stable", "case2_unstable"):
            add("certify", fix, {"system": {"fixture": fix}, "delays": grid})
        for k in range(CERTIFY_MODELS):
            rng = np.random.default_rng([seed, 100 + k])
            add("certify", f"seeded_m_lt_n_{k}", {"system": certify_model(rng), "delays": grid})
        # Same code path with a two-iteration solver, for warm-up only.
        _write_ini(
            out_dir / "warmup.ini",
            {
                "system": {"fixture": "case1_stable"},
                "analysis": {"restarts": 0, "iterations": 2},
            },
        )
        sizes = {"models": 2 + CERTIFY_MODELS, "grid_points": len(CERTIFY_GRID) ** 2,
                 "seeded_dims": [2, 2, 1, 1]}
    else:
        # ``netkalman critical --empirical`` and ``iterate-g``: every step
        # is expected_next_cov -> gains.gain_set, four gains a step where
        # mc_sweep uses one.  Shows whether a gains change that helps one
        # caller (items 2 and 4) costs the other.  The power fixtures never
        # bisect (one probe), hence the seeded hidden-mode models.
        analysis = {"horizon": HORIZON, "bisect_tol": BISECT_TOL}
        for k in range(BISECT_MODELS):
            rng = np.random.default_rng([seed, 200 + k])
            add(
                "bisect",
                f"hidden_mode_{k}",
                {
                    "system": hidden_mode_model(rng),
                    "delays": {"lambda1": 0.5, "lambda2": BISECT_FIXED_LAMBDA2},
                    "analysis": analysis,
                },
            )
        for fix in ("case1_stable", "case2_unstable"):
            add("bound_sequence", fix, {"system": {"fixture": fix}, "analysis": analysis})
        sizes = {"bisect_models": BISECT_MODELS, "bound_sequences": 2, "horizon": HORIZON,
                 "bisect_tol": BISECT_TOL, "seeded_dims": [2, 1, 1, 1]}

    manifest = {"workload": workload, "seed": seed, "sizes": sizes, "jobs": jobs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
