#!/usr/bin/env python3
"""Per-layer timings of the gain and covariance layers, written to JSON.

Run from the root of a checkout::

    python3 tools/layer_bench.py --label mychange

It times one structured gain per delay outcome, ``gain_set``, one
``covariance_step`` on stacks of 1, 16 and 150 runs, a 3000-step
``run_filter`` at lambda (0.25, 0.75) with its ``to_csv`` and the
3000-step ``simulate_plant`` inside it, and
``expected_next_cov`` on one matrix and on a stack of 7 (the shape of one
bisection stack of ``empirical_critical``: lambda2 fixed at 0.5, lambda1
at the midpoints of three bisection levels of [0, 1]), ``sweep`` on the
benchmark's 3x3 grid (lambda in {0, 0.5, 1}, 10 runs x 50 steps a cell),
``estimate_eec`` at lambda (0.5, 0.5) over 1000 runs x 50 steps, where
most delay histories are distinct, and the boundedness minima
(``masked_norm_minima``, and ``critical_bounds`` at lambda1 = 1), all on
``case1_stable``; ``cov_bound_sequence.fixtures``: the 400-step bound
sequences of ``case1_stable`` and ``case2_unstable`` at lambda (0.5, 0.5),
the two ``bound_sequence`` jobs of the benchmark's ``bisect`` workload;
and, on the test suite's ``hidden_mode`` model (an unstable mode hidden
from sensor 1), ``divergence_witness`` at lambda
(1, 0.5) and ``empirical_critical`` with lambda2 fixed at 0.5, both over
400 steps, the latter also with a read of its ``h_diverged`` (which runs
the 400-step witness at lambda (1, 0.5) on first read), and
``growth_rate``: the growth-rate verdicts of one stack of the 7
bisection points above (a budget of 400 steps; left out for a
package that has no growth-rate bisection).  ``cold_import`` is the
median time of ``import netkalman`` in ``REPEATS`` fresh interpreters
run with ``PYTHONDONTWRITEBYTECODE=1``, as
the benchmark's set-up probes take it, so it is per process, not per call.
It writes the best of ``REPEATS`` timings (microseconds per call) with the
library, BLAS and CPU details to ``bench/BENCH_layers_<label>.json``.  A
fixed numpy kernel that uses no part of the package is timed in the same
process right before each layer, and each layer is also given as a
multiple of that neighbouring reference, so that files written at
different host speeds, or at a speed that drifts within one run, can be
compared.  The package on PYTHONPATH, if any, is timed instead of this
checkout's ``src``, which comes before site-packages; the report names the
package file it timed, and the fresh interpreters import the same file.
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
import statistics  # noqa: E402
import subprocess  # noqa: E402
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
from netkalman.model import ALL_OUTCOMES, DelayModel, SystemModel, fixture  # noqa: E402

# The test suite's hidden_mode model: subsystem 1's mode 1.25 is seen only
# by sensor 2, so its critical lambda1 lies inside (0, 1).
HIDDEN_MODE = SystemModel(
    n1=2, n2=1, A=np.array([[1.25, 0.0, 0.0], [0.0, 0.5, 0.0], [1.0, 0.1, 0.4]]),
    C1=np.array([[0.0, 1.0]]), C2=np.array([[1.0]]), W=np.eye(3), V=np.eye(2), Sigma0=np.eye(3))


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
    cases["run_filter.case1_T3000"] = lambda: filtering.run_filter(
        model, delays, 3000, filtering.make_rng(1)).to_csv()
    cases["simulate_plant.T3000"] = lambda: filtering.simulate_plant(
        model, 3000, filtering.make_rng(1))
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
    fixtures = [model, fixture("case2_unstable")[0]]
    cases["cov_bound_sequence.fixtures"] = lambda: [
        analysis.cov_bound_sequence(m, DelayModel(0.5, 0.5), 400) for m in fixtures]
    cases["divergence_witness.hidden_mode"] = lambda: analysis.divergence_witness(
        HIDDEN_MODE, DelayModel(1.0, 0.5), 400)
    cases["empirical_critical.hidden_mode"] = lambda: analysis.empirical_critical(
        HIDDEN_MODE, 0.5, 2, 400)
    cases["empirical_critical.hidden_mode.h_diverged"] = lambda: analysis.empirical_critical(
        HIDDEN_MODE, 0.5, 2, 400).h_diverged
    if hasattr(analysis, "_growth_verdicts"):
        cases["growth_rate.hidden_mode"] = lambda: analysis._growth_verdicts(
            HIDDEN_MODE, lookahead, 400)
    return cases


def _reference():
    """Cholesky inverses and products of a fixed (16, 4, 4) SPD stack, in numpy alone."""
    G = np.random.default_rng(0).standard_normal((16, 4, 4))
    S = G @ G.swapaxes(-1, -2) + 4.0 * np.eye(4)

    def kernel():
        L_inv = np.linalg.inv(np.linalg.cholesky(S))
        return L_inv.swapaxes(-1, -2) @ L_inv @ S

    return kernel


_IMPORT = ("import time; t0 = time.perf_counter(); import netkalman; "
           "print(time.perf_counter() - t0, netkalman.__file__)")


def _cold_import() -> float:
    """Median ``import netkalman`` time of ``REPEATS`` fresh interpreters, in microseconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [os.environ.get("PYTHONPATH"), str(ROOT / "src")])))
    times = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        if out[1] != netkalman.__file__:
            raise RuntimeError(f"fresh interpreter imported {out[1]}, not {netkalman.__file__}")
        times.append(float(out[0]))
    return round(statistics.median(times) * 1e6, 2)


def _time(call) -> float:
    """Best of ``REPEATS`` timings of ``call``, in microseconds per call."""
    loops, _ = timeit.Timer(call).autorange()
    return round(min(timeit.repeat(call, number=loops, repeat=REPEATS)) / loops * 1e6, 2)


def _blas(config) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    reference = _reference()
    timers = {name: (lambda call=call: _time(call)) for name, call in _cases().items()}
    timers["cold_import"] = _cold_import
    layers, refs = {}, {}
    for name, timer in timers.items():
        refs[name] = _time(reference)
        layers[name] = timer()
        print(f"{name:44s} {layers[name]:12.2f} us  (reference {refs[name]:.2f} us)",
              file=sys.stderr)
    cpu = [ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo")
           if ln.startswith("model name")] if os.path.exists("/proc/cpuinfo") else []
    report = {
        "label": args.label,
        "unit": f"us per call, best of {REPEATS}; cold_import: us per process, "
                f"median of {REPEATS} fresh interpreters",
        "package": os.path.relpath(netkalman.__file__, ROOT),
        "layers": layers,
        "reference": {"kernel": _reference.__doc__, "timed": "right before each layer",
                      "us": refs},
        "layers_per_reference": {k: round(v / refs[k], 3) for k, v in layers.items()},
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
