#!/usr/bin/env python3
"""SHA-256 digests of the package's public outputs over fixed cases, as JSON.

Run from the root of a checkout::

    python3 tools/output_digests.py > mine.json
    python3 tools/output_digests.py --src ../other/src > other.json
    diff mine.json other.json

``--src`` names the ``src`` directory whose ``netkalman`` is run; it
defaults to this checkout's.  The cases come from this checkout's
``tests/conftest.py``, so two packages run with the same copy of this
script see the same cases, and their parity is a ``diff`` of two files.

The models are the three fixtures (``case1_stable``, ``case2_unstable``,
``toy_identity``), the test suite's hidden-mode model, ``RANDOM`` draws
of its ``random_model`` from ``default_rng(2026)`` and, last, two
boundary cases of its ``unseen_mode_model``: the random walk a = 1,
whose masked norm minima are exactly 1, and the mode a = 3, whose
covariances overflow after about 320 steps.  Each runs at the delay
probabilities ``LAMBDAS``.  Per model and lambda pair: ``run_filter``
(3000 steps, ``FILTER_STEPS`` on a random draw) with its CSV,
``estimate_eec``, ``cov_bound_sequence``, ``divergence_witness`` and
``boundedness_test``; per model: ``kalman_baseline``, the ``sweep`` CSV on
a 3x3 grid, and ``critical_bounds`` and ``empirical_critical`` (with
``h_diverged``) on both axes with the other probability fixed at 0.5.
The Monte-Carlo calls (``estimate_eec``, ``kalman_baseline``, ``sweep``)
run 30 steps (20 in a sweep), ``BOUNDARY_HORIZON`` on a boundary case.
Last come the seven CLI subcommands on ``case1_stable``, with their exit
code, stdout and stderr.

Each entry maps an output's fields to the SHA-256 of their bytes (an
array's dtype and shape included).  An exception's type and message are
one entry, ``error``, kept as text; the distinct warning texts raised on
the way are another, ``warnings``, sorted, so a changed figure in a
warning reads as a changed line of the diff.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RANDOM = 120
FILTER_STEPS = 400
SEQUENCE_STEPS = 150
LAMBDAS = ((0.0, 0.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.5), (1.0, 1.0))
BOUNDARY_HORIZON = 1000  # past the a = 3 mode's overflow

CLI_CONFIG = """\
[system]
fixture = case1_stable

[delays]
lambda1 = 0.25
lambda2 = 0.75
lambda2_grid = 0 0.5 1

[sim]
steps = 40
runs = 5
seed = 7
"""


def _sha(value) -> str:
    if isinstance(value, np.ndarray):
        data = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, str):
        data = value.encode()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _fields(value, prefix="") -> dict:
    """Digest of each field of a dataclass, nested ones by dotted name."""
    if not dataclasses.is_dataclass(value):
        return {prefix or "value": _sha(value)}
    out = {}
    for f in dataclasses.fields(value):
        if f.compare:
            out.update(_fields(getattr(value, f.name), f"{prefix}{f.name}."))
    if hasattr(value, "to_csv"):
        out[f"{prefix}to_csv"] = _sha(value.to_csv())
    return {key.rstrip("."): digest for key, digest in out.items()}


def _capture(call) -> dict:
    """The digests of ``call()``, its error if it raised, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            entry = call()
            entry["error"] = None
        except Exception as exc:  # the error is an output like any other
            entry = {"error": f"{type(exc).__name__}: {exc}"}
    entry["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    return entry


def _models(conftest, nk):
    models = [(name, nk.fixture(name)[0])
              for name in ("case1_stable", "case2_unstable", "toy_identity")]
    models.append(("hidden_mode", conftest.hidden_mode_model()))
    rng = np.random.default_rng(2026)
    models += [(f"random_{i:03d}", conftest.random_model(rng)) for i in range(RANDOM)]
    models += [(f"unseen_mode_a{a}", conftest.unseen_mode_model(a)) for a in (1, 3)]
    return models


def _model_outputs(nk, index, name, model) -> dict:
    out = {}
    horizon = BOUNDARY_HORIZON if name.startswith("unseen") else 30
    for j, lams in enumerate(LAMBDAS):
        delays = nk.DelayModel(*lams)
        case = f"{name} lambda={lams[0]:g},{lams[1]:g}"
        steps = FILTER_STEPS if name.startswith("random") else 3000
        out[f"run_filter {case}"] = _capture(
            lambda: _fields(nk.run_filter(model, delays, steps, nk.make_rng(index, j))))
        out[f"estimate_eec {case}"] = _capture(
            lambda: _fields(nk.estimate_eec(model, delays, 20, horizon, index)))
        out[f"cov_bound_sequence {case}"] = _capture(
            lambda: _fields(nk.cov_bound_sequence(model, delays, SEQUENCE_STEPS)))
        out[f"divergence_witness {case}"] = _capture(
            lambda: _fields(nk.divergence_witness(model, delays, SEQUENCE_STEPS)))
        out[f"boundedness_test {case}"] = _capture(
            lambda: _fields(nk.boundedness_test(model, delays)))
    out[f"kalman_baseline {name}"] = _capture(
        lambda: _fields(nk.kalman_baseline(model, horizon)))
    out[f"sweep {name}"] = _capture(
        lambda: {"to_csv": _sha(nk.sweep(model, (0.0, 0.5, 1.0), (0.0, 0.5, 1.0), 5,
                                         horizon - 10, index).to_csv())})
    for fixed_which in (1, 2):
        axis = f"{name} fixed_which={fixed_which}"
        out[f"critical_bounds {axis}"] = _capture(
            lambda: _fields(nk.critical_bounds(model, 0.5, fixed_which)))

        def empirical():
            est = nk.empirical_critical(model, 0.5, fixed_which)
            return {**_fields(est), "h_diverged": _sha(est.h_diverged)}

        out[f"empirical_critical {axis}"] = _capture(empirical)
    return out


def _cli_outputs(main) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "case1.ini")
        cfg.write_text(CLI_CONFIG, encoding="utf-8")
        prior = Path(tmp, "p.csv")
        prior.write_text("\n".join(",".join(["0"] * i + ["1"] + ["0"] * (3 - i))
                                   for i in range(4)) + "\n", encoding="utf-8")
        argvs = [["validate", str(cfg)], ["validate", str(cfg), "--dump-normalized"],
                 ["gains", str(cfg), "--p", str(prior)], ["filter", str(cfg)],
                 ["sweep", str(cfg)], ["iterate-g", str(cfg)], ["bounded", str(cfg)],
                 ["critical", str(cfg), "--fix", "lambda2=0.5", "--empirical"]]
        for argv in argvs:
            def call():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                return {"exit": _sha(code), "stdout": _sha(stdout.getvalue()),
                        "stderr": _sha(stderr.getvalue().replace(tmp, "TMP"))}

            out["cli " + " ".join(argv[:1] + argv[2:3])] = _capture(call)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the netkalman package to run")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import conftest
    import netkalman as nk
    from netkalman.cli import main as cli_main

    print(f"digests of {nk.__file__}", file=sys.stderr)
    digests = {}
    for index, (name, model) in enumerate(_models(conftest, nk)):
        digests.update(_model_outputs(nk, index, name, model))
    digests.update(_cli_outputs(cli_main))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
