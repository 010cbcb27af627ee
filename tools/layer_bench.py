#!/usr/bin/env python3
"""Per-layer timings of the gain and covariance layers, written to JSON.

Run from the root of a checkout::

    python3 tools/layer_bench.py --label mychange

It times one structured gain per delay outcome, ``gain_set``, the
unchecked gain kernel of each delay outcome on one 2-D prior, stepped
through ``ndarray.dot`` as ``run_filter`` steps it (``gain_2d.<outcome>``;
left out for a package without the private ``gains._dot``), one
``covariance_step`` on stacks of 1, 16, 150 and 1000 runs, the checked
inverse of the innovation covariance S of the 150-run stack alone
(``spd_inverse.S.R150``; left out for a package without the private
``gains._innovation``), a 3000-step
``run_filter`` at lambda (0.25, 0.75) with its ``to_csv`` and the
3000-step ``simulate_plant`` inside it, and
``expected_next_cov`` on one matrix and on a stack of 7 (the shape of one
bisection stack of ``empirical_critical``: lambda2 fixed at 0.5, lambda1
at the midpoints of three bisection levels of [0, 1]), ``sweep`` on the
benchmark's 3x3 grid (lambda in {0, 0.5, 1}, 10 runs x 50 steps a cell),
``estimate_eec`` at lambda (0.5, 0.5) over 1000 runs x 50 steps, where
most delay histories are distinct, and the boundedness minima
(``masked_norm_minima``, and ``critical_bounds`` at lambda1 = 1), all on
``case1_stable``; ``run_filter.case2_T3000``: the same run and
``to_csv`` on ``case2_unstable``, whose plant state overflows near step
1200 (its floating-point warnings are silenced), the other half of the
benchmark's ``filter_long``; ``cov_bound_sequence.fixtures``: the 400-step
bound sequences of ``case1_stable`` and ``case2_unstable`` at lambda (0.5, 0.5),
the two ``bound_sequence`` jobs of the benchmark's ``bisect`` workload;
and, on the test suite's ``hidden_mode`` model (an unstable mode hidden
from sensor 1), ``divergence_witness`` at lambda
(1, 0.5) and ``empirical_critical`` with lambda2 fixed at 0.5, both over
400 steps, the latter also with a read of its ``h_diverged`` (which runs
the 400-step witness at lambda (1, 0.5) on first read), and
``growth_rate``: the growth-rate verdicts of one stack of the 7
bisection points above (a budget of 400 steps; left out for a
package that has no growth-rate bisection).  The ``csv`` layers time the
CSV writers alone, on results made beforehand: ``csv.sweep_3grids`` the
``to_csv`` of the benchmark's three ``mc_sweep`` sweeps (the ``case1_stable``
3x3 grid and the two ``case2_unstable`` axis sweeps, 10 runs x 50 steps a
cell), ``csv.filter_T3000`` that of the 3000-step ``run_filter`` record
above, and ``csv.reports`` the 27 report ``to_csv`` calls of one
``certify`` job on ``case1_stable`` (25 boundedness reports on a 5x5
lambda grid and two critical brackets).  ``cold_import`` is the
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

Host speed drifts within seconds on shared machines, faster than a
reference kernel can follow, so for a layer claim time both packages in
one process::

    python3 tools/layer_bench.py --label mychange --against ../parent/src

``--against SRC`` imports the ``netkalman`` under SRC beside this one, as
``netkalman_against``, and times each layer of the two packages in turn,
``ROUNDS`` rounds that alternate which goes first, with one loop count
for both.  The report gives the best round of each
(``layers``, ``against.layers``), and the median over rounds of this
package's time over the other's, the interquartile range of those
per-round ratios, and the number of rounds this package was faster
(``ratio``, ``ratio_iqr``, ``faster_rounds``); ``cold_import``
runs one fresh interpreter of each package a round, and swaps which goes
first on odd rounds.  The reference kernel
is not timed in this mode.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import site  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
ROUNDS = 15  # interleaved rounds per layer with --against
ROUND_S = 0.05  # seconds per timing in a round
_SITE = set(site.getsitepackages()) | {site.getusersitepackages()}
sys.path.insert(next((i for i, p in enumerate(sys.path) if p in _SITE), len(sys.path)),
                str(ROOT / "src"))

import numpy as np  # noqa: E402

import netkalman  # noqa: E402


def _hidden_mode(SystemModel):
    """The test suite's hidden_mode model: subsystem 1's mode 1.25 is seen
    only by sensor 2, so its critical lambda1 lies inside (0, 1)."""
    return SystemModel(
        n1=2, n2=1, A=np.array([[1.25, 0.0, 0.0], [0.0, 0.5, 0.0], [1.0, 0.1, 0.4]]),
        C1=np.array([[0.0, 1.0]]), C2=np.array([[1.0]]), W=np.eye(3), V=np.eye(2),
        Sigma0=np.eye(3))


def _cases(nk):
    """The timed calls of the package ``nk``, by layer name."""
    analysis, filtering, gains, montecarlo = nk.analysis, nk.filtering, nk.gains, nk.montecarlo
    ALL_OUTCOMES, DelayModel, fixture = nk.model.ALL_OUTCOMES, nk.DelayModel, nk.fixture
    HIDDEN_MODE = _hidden_mode(nk.SystemModel)
    model, _ = fixture("case1_stable")
    delays = DelayModel(0.25, 0.75)
    C, V, dims = model.C, model.V, model.dims
    P = filtering.predict_cov(model, model.Sigma0)[None]
    cases = {f"structured_gain.{oc.label}": (
        lambda g1=np.array([oc.gamma1]), g2=np.array([oc.gamma2]):
        gains.structured_gain(P, C, V, dims, g1, g2)) for oc in ALL_OUTCOMES}
    cases["gain_set"] = lambda: gains.gain_set(P, C, V, dims)
    prior, CT = filtering.predict_cov(model, model.Sigma0), C.T
    for oc in ALL_OUTCOMES:
        if hasattr(gains, "_gain_plan"):
            step = gains._gain_plan(C, CT, V, dims, oc.gamma1, oc.gamma2, False, gains._dot)
        elif hasattr(gains, "_gain") and hasattr(gains, "_dot"):
            step = (lambda p, on_time=gains._on_time_rows(dims, [oc.gamma1], [oc.gamma2])[0],
                    late1=not oc.gamma1, late2=not oc.gamma2: gains._gain(
                        p, C, CT, V, dims, on_time, late1, late2, False, gains._dot))
        else:
            break
        cases[f"gain_2d.{oc.label}"] = lambda step=step: step(prior)
    for runs in (1, 16, 150, 1000):
        stack = np.broadcast_to(P, (runs,) + P.shape[1:]).copy()
        g1, g2 = filtering.delay_indicators(delays, runs, filtering.make_rng(runs))
        cases[f"covariance_step.R{runs}"] = (lambda s=stack, a=g1, b=g2:
                                             filtering.covariance_step(model, s, a, b))
    if hasattr(gains, "_innovation"):
        S = gains._innovation(np.broadcast_to(P, (150,) + P.shape[1:]), C, C.T, V)[0]
        cases["spd_inverse.S.R150"] = lambda: gains._spd_inverse(S, "S")
    cases["run_filter.case1_T3000"] = lambda: filtering.run_filter(
        model, delays, 3000, filtering.make_rng(1)).to_csv()
    case2 = fixture("case2_unstable")[0]

    def diverging_run():
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            return filtering.run_filter(case2, delays, 3000, filtering.make_rng(1)).to_csv()

    cases["run_filter.case2_T3000"] = diverging_run
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
    fixtures = [model, case2]
    cases["cov_bound_sequence.fixtures"] = lambda: [
        analysis.cov_bound_sequence(m, DelayModel(0.5, 0.5), 400) for m in fixtures]
    cases["divergence_witness.hidden_mode"] = lambda: analysis.divergence_witness(
        HIDDEN_MODE, DelayModel(1.0, 0.5), 400)
    cases["empirical_critical.hidden_mode"] = lambda: analysis.empirical_critical(
        HIDDEN_MODE, 0.5, 2, 400)
    cases["empirical_critical.hidden_mode.h_diverged"] = lambda: analysis.empirical_critical(
        HIDDEN_MODE, 0.5, 2, 400).h_diverged
    axis = (1.0,)
    sweeps = [montecarlo.sweep(m, a, b, 10, 50, 7)
              for m, a, b in ((model, grid, grid), (case2, axis, grid), (case2, grid, axis))]
    cases["csv.sweep_3grids"] = lambda: [s.to_csv() for s in sweeps]
    cases["csv.filter_T3000"] = filtering.run_filter(model, delays, 3000,
                                                     filtering.make_rng(1)).to_csv
    certify = (0.0, 0.25, 0.5, 0.75, 1.0)
    reports = [analysis.boundedness_test(model, DelayModel(l1, l2))
               for l1 in certify for l2 in certify]
    reports += [analysis.critical_bounds(model, lam, which)
                for which, lam in ((1, 0.25), (2, 0.75))]
    cases["csv.reports"] = lambda: [r.to_csv() for r in reports]
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


def _cold_import_times(packages) -> list:
    """``import netkalman`` times of fresh interpreters, ``REPEATS`` per package.

    ``packages`` are ``(src, __init__ file)`` pairs; the times are in
    seconds.  Each round runs one interpreter per package, in the order
    given on even rounds and in reverse on odd ones, so that no package
    always goes first.
    """
    times = [[] for _ in packages]
    for r in range(REPEATS):
        order = list(zip(packages, times))
        for (src, init), out in (order if r % 2 == 0 else order[::-1]):
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH"), str(ROOT / "src")])))
            t, file = subprocess.run([sys.executable, "-c", _IMPORT], env=env, check=True,
                                     capture_output=True, text=True).stdout.split()
            if file != init:
                raise RuntimeError(f"fresh interpreter imported {file}, not {init}")
            out.append(float(t))
    return times


def _cold_import() -> float:
    """Median ``import netkalman`` time of ``REPEATS`` fresh interpreters, in microseconds."""
    [times] = _cold_import_times([(None, netkalman.__file__)])
    return round(statistics.median(times) * 1e6, 2)


def _time(call) -> float:
    """Best of ``REPEATS`` timings of ``call``, in microseconds per call."""
    loops, _ = timeit.Timer(call).autorange()
    return round(min(timeit.repeat(call, number=loops, repeat=REPEATS)) / loops * 1e6, 2)


def _time_pair(times_a, times_b) -> dict:
    """Best of each of two interleaved timing lists, and the median, interquartile range
    and count of a's faster rounds of their per-round ratios."""
    ratios = [a / b for a, b in zip(times_a, times_b)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"us": round(min(times_a) * 1e6, 2), "against_us": round(min(times_b) * 1e6, 2),
            "ratio": round(statistics.median(ratios), 3), "ratio_iqr": round(q3 - q1, 3),
            "faster_rounds": sum(r < 1.0 for r in ratios)}


def _interleaved(call, other) -> dict:
    """:func:`_time_pair` of ``ROUNDS`` rounds of two calls, alternating which goes first.

    Each timing runs one loop count for both, which makes the slower of
    the two take about ``ROUND_S`` seconds.
    """
    loops = min(max(1, round(n * ROUND_S / t)) for n, t in
                (timeit.Timer(c).autorange() for c in (call, other)))
    times = ([], [])
    for r in range(ROUNDS):
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[i].append(timeit.timeit((call, other)[i], number=loops) / loops)
    return _time_pair(*times)


def _load(src):
    """The ``netkalman`` package under ``src``, imported as ``netkalman_against``."""
    init = Path(src, "netkalman", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location("netkalman_against", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _blas(config) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _against(src) -> dict:
    """The layers of this package and of the one under ``src``, timed in turn."""
    other = _load(src)
    cases, other_cases = _cases(netkalman), _cases(other)
    report = {}
    for name, call in cases.items():
        if name in other_cases:
            report[name] = _interleaved(call, other_cases[name])
            print(f"{name:44s} {report[name]}", file=sys.stderr)
    src_a, src_b = str(Path(netkalman.__file__).parent.parent), str(Path(src).resolve())
    report["cold_import"] = _time_pair(*_cold_import_times(
        [(src_a, netkalman.__file__), (src_b, other.__file__)]))
    return {
        "against": os.path.relpath(other.__file__, Path(src).resolve().parent),
        "unit": f"us per call, best of {ROUNDS} rounds that alternate the two packages; "
                f"ratio: median over rounds of this package's time over the other's, "
                f"ratio_iqr: the interquartile range of those ratios; "
                f"cold_import: us per process, best of {REPEATS} alternating fresh "
                f"interpreters of each",
        "layers": report,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", metavar="SRC",
                        help="directory holding another netkalman package to time in turn")
    args = parser.parse_args()
    if args.against:
        report = {"label": args.label, "package": os.path.relpath(netkalman.__file__, ROOT),
                  **_against(args.against)}
    else:
        reference = _reference()
        timers = {name: (lambda call=call: _time(call))
                  for name, call in _cases(netkalman).items()}
        timers["cold_import"] = _cold_import
        layers, refs = {}, {}
        for name, timer in timers.items():
            refs[name] = _time(reference)
            layers[name] = timer()
            print(f"{name:44s} {layers[name]:12.2f} us  (reference {refs[name]:.2f} us)",
                  file=sys.stderr)
        report = {
            "label": args.label,
            "unit": f"us per call, best of {REPEATS}; cold_import: us per process, "
                    f"median of {REPEATS} fresh interpreters",
            "package": os.path.relpath(netkalman.__file__, ROOT),
            "layers": layers,
            "reference": {"kernel": _reference.__doc__, "timed": "right before each layer",
                          "us": refs},
            "layers_per_reference": {k: round(v / refs[k], 3) for k, v in layers.items()},
        }
    cpu = [ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo")
           if ln.startswith("model name")] if os.path.exists("/proc/cpuinfo") else []
    report.update({
        "machine": {"cpu": cpu[0] if cpu else platform.processor(), "cpus": os.cpu_count(),
                    "arch": platform.machine(), "blas_threads": 1},
        "python": platform.python_version(),
        "numpy": {"version": np.__version__, "blas": _blas(np.show_config(mode="dicts"))},
    })
    out = ROOT / "bench" / f"BENCH_layers_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out.relative_to(ROOT))


if __name__ == "__main__":
    main()
