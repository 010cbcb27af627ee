#!/usr/bin/env python3
"""Per-layer timings of the gain and covariance layers, written to JSON.

Run from the root of a checkout::

    python3 tools/layer_bench.py --label mychange

It times one structured gain per delay outcome, ``gain_set``, one
``covariance_step`` on stacks of 1, 16 and 150 runs, and
``expected_next_cov`` on one matrix and on a stack of 7 (the shape of one
bisection stack of ``empirical_critical``: lambda2 fixed at 0.5, lambda1
at the midpoints of three bisection levels of [0, 1]), ``sweep`` on the
benchmark's 3x3 grid (lambda in {0, 0.5, 1}, 10 runs x 50 steps a cell),
``estimate_eec`` at lambda (0.5, 0.5) over 1000 runs x 50 steps, where
most delay histories are distinct, and the boundedness minima
(``masked_norm_minima``, and ``critical_bounds`` at lambda1 = 1), all on
``case1_stable``.  It writes the best of ``REPEATS`` timings
(microseconds per call) with the library, BLAS and CPU details to
``bench/BENCH_layers_<label>.json``.  The package on PYTHONPATH, if any,
is timed instead of this checkout's ``src``, which comes before
site-packages; the report names the package file it timed.
Timing two checkouts on one machine makes a change's layer effect a diff
between two files.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import site  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
_SITE = set(site.getsitepackages()) | {site.getusersitepackages()}
sys.path.insert(next((i for i, p in enumerate(sys.path) if p in _SITE), len(sys.path)),
                str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import netkalman  # noqa: E402
from netkalman import analysis, filtering, gains, montecarlo  # noqa: E402
from netkalman.model import ALL_OUTCOMES, DelayModel, fixture  # noqa: E402


def _cases():
    model, _ = fixture("case1_stable")
    delays = DelayModel(0.25, 0.75)
    C, V, dims = model.C, model.V, model.dims
    P = filtering.predict_cov(model, model.Sigma0)[None]
    cases = {f"structured_gain.{oc.label}": (
        lambda g1=np.array([oc.gamma1]), g2=np.array([oc.gamma2]):
        gains.structured_gain(P, C, V, dims, g1, g2)) for oc in ALL_OUTCOMES}
    cases["gain_set"] = lambda: gains.gain_set(P, C, V, dims)
    for runs in (1, 16, 150):
        stack = np.broadcast_to(P, (runs,) + P.shape[1:]).copy()
        g1, g2 = filtering.delay_indicators(delays, runs, filtering.make_rng(runs))
        cases[f"covariance_step.R{runs}"] = (lambda s=stack, a=g1, b=g2:
                                             filtering.covariance_step(model, s, a, b))
    cases["expected_next_cov"] = lambda: analysis.expected_next_cov(model, delays, P[0])
    lookahead = [DelayModel(l1, 0.5) for l1 in (0.5, 0.25, 0.125, 0.375, 0.75, 0.625, 0.875)]
    stack7 = np.broadcast_to(P, (len(lookahead),) + P.shape[1:]).copy()
    cases["expected_next_cov.K7"] = lambda: analysis.expected_next_cov(model, lookahead, stack7)
    grid = (0.0, 0.5, 1.0)
    cases["sweep.case1_3x3.R10"] = lambda: montecarlo.sweep(model, grid, grid, 10, 50, 7)
    cases["estimate_eec.R1000"] = lambda: montecarlo.estimate_eec(
        model, DelayModel(0.5, 0.5), 1000, 50, 7)
    cases["masked_norm_minima"] = lambda: analysis.masked_norm_minima(model)
    cases["critical_bounds"] = lambda: analysis.critical_bounds(model, 1.0, 1)
    return cases


def _blas(config) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    layers = {}
    for name, call in _cases().items():
        loops, _ = timeit.Timer(call).autorange()
        best = min(timeit.repeat(call, number=loops, repeat=REPEATS))
        layers[name] = round(best / loops * 1e6, 2)
        print(f"{name:28s} {layers[name]:10.2f} us", file=sys.stderr)
    cpu = [ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo")
           if ln.startswith("model name")] if os.path.exists("/proc/cpuinfo") else []
    report = {
        "label": args.label,
        "unit": f"us per call, best of {REPEATS}",
        "package": os.path.relpath(netkalman.__file__, ROOT),
        "layers": layers,
        "machine": {"cpu": cpu[0] if cpu else platform.processor(), "cpus": os.cpu_count(),
                    "arch": platform.machine(), "blas_threads": 1},
        "python": platform.python_version(),
        "numpy": {"version": np.__version__, "blas": _blas(np.show_config(mode="dicts"))},
        "scipy": {"version": scipy.__version__, "blas": _blas(scipy.show_config(mode="dicts"))},
    }
    out = ROOT / "bench" / f"BENCH_layers_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out.relative_to(ROOT))


if __name__ == "__main__":
    main()
