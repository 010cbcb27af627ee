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
code, stdout and stderr, and ``bounded --certificates DIR``, which also
digests the four certificate files it writes.

Each entry maps an output's fields to the SHA-256 of their bytes (an
array's dtype and shape included).  An exception's type and message are
one entry, ``error``, kept as text; the distinct warning texts raised on
the way are another, ``warnings``, sorted, so a changed figure in a
warning reads as a changed line of the diff.

Where two packages differ only in rounding, every digest differs, so
the arrays themselves can be saved and compared::

    python3 tools/output_digests.py --arrays mine.npz > mine.json
    python3 tools/output_digests.py --src ../other/src --arrays other.npz > other.json
    python3 tools/output_digests.py --compare other.npz mine.npz

``--arrays`` saves every array and number that is hashed, under
``<entry>|<field>``, and the first line and line count of every text (a
CSV, a CLI's stdout).  ``--compare A B`` prints, per field name, the
largest normwise relative deviation of B from A over all entries and the
entry it occurs in.  A deviation is taken per matrix of a stack of
matrices (3-D and up), per row of a 2-D array and per entry of a series
or number, as ``|b - a| / |a|`` in the Frobenius norm, where entries that
are equal, or both NaN, count as equal and a non-finite entry that
differs makes it infinite.  Entries that are not floats, texts included,
must be equal; those that differ, and names that only one file holds,
are listed after the table.
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
import zipfile
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


class _Saved:
    """Writes the arrays behind the digests, by ``<entry>|<field>``, to an ``.npz``."""

    def __init__(self, path):
        self.zip = zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED)
        self.entry = ""

    def __setitem__(self, field, value):
        with self.zip.open(f"{self.entry}|{field}.npy", "w", force_zip64=True) as f:
            np.lib.format.write_array(f, np.asarray(value), allow_pickle=False)


SAVED = None  # a _Saved while --arrays is given


def _sha(value, field="value") -> str:
    if SAVED is not None:
        if isinstance(value, str):
            SAVED[field] = np.array([value.split("\n", 1)[0], str(value.count("\n"))])
        elif isinstance(value, (np.ndarray, int, float, np.number)):
            SAVED[field] = value
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
        field = prefix.rstrip(".") or "value"
        return {field: _sha(value, field)}
    out = {}
    for f in dataclasses.fields(value):
        if f.compare:
            out.update(_fields(getattr(value, f.name), f"{prefix}{f.name}."))
    if hasattr(value, "to_csv"):
        out[f"{prefix}to_csv"] = _sha(value.to_csv(), f"{prefix}to_csv")
    return {key.rstrip("."): digest for key, digest in out.items()}


def _capture(entry, call) -> dict:
    """The digests of ``call()``, its error if it raised, and the warnings it gave."""
    if SAVED is not None:
        SAVED.entry = entry
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

    def put(entry, call):
        out[entry] = _capture(entry, call)

    horizon = BOUNDARY_HORIZON if name.startswith("unseen") else 30
    for j, lams in enumerate(LAMBDAS):
        delays = nk.DelayModel(*lams)
        case = f"{name} lambda={lams[0]:g},{lams[1]:g}"
        steps = FILTER_STEPS if name.startswith("random") else 3000
        put(f"run_filter {case}",
            lambda: _fields(nk.run_filter(model, delays, steps, nk.make_rng(index, j))))
        put(f"estimate_eec {case}",
            lambda: _fields(nk.estimate_eec(model, delays, 20, horizon, index)))
        put(f"cov_bound_sequence {case}",
            lambda: _fields(nk.cov_bound_sequence(model, delays, SEQUENCE_STEPS)))
        put(f"divergence_witness {case}",
            lambda: _fields(nk.divergence_witness(model, delays, SEQUENCE_STEPS)))
        put(f"boundedness_test {case}", lambda: _fields(nk.boundedness_test(model, delays)))
    put(f"kalman_baseline {name}", lambda: _fields(nk.kalman_baseline(model, horizon)))
    put(f"sweep {name}", lambda: _fields(nk.sweep(model, (0.0, 0.5, 1.0), (0.0, 0.5, 1.0), 5,
                                                  horizon - 10, index)))
    for fixed_which in (1, 2):
        axis = f"{name} fixed_which={fixed_which}"
        put(f"critical_bounds {axis}",
            lambda: _fields(nk.critical_bounds(model, 0.5, fixed_which)))

        def empirical():
            est = nk.empirical_critical(model, 0.5, fixed_which)
            return {**_fields(est), "h_diverged": _sha(est.h_diverged, "h_diverged")}

        put(f"empirical_critical {axis}", empirical)
    return out


def _cli_outputs(main) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "case1.ini")
        cfg.write_text(CLI_CONFIG, encoding="utf-8")
        prior = Path(tmp, "p.csv")
        prior.write_text("\n".join(",".join(["0"] * i + ["1"] + ["0"] * (3 - i))
                                   for i in range(4)) + "\n", encoding="utf-8")
        certs = Path(tmp, "certs")
        argvs = [["validate", str(cfg)], ["validate", str(cfg), "--dump-normalized"],
                 ["gains", str(cfg), "--p", str(prior)], ["filter", str(cfg)],
                 ["sweep", str(cfg)], ["iterate-g", str(cfg)], ["bounded", str(cfg)],
                 ["bounded", str(cfg), "--certificates", str(certs)],
                 ["critical", str(cfg), "--fix", "lambda2=0.5", "--empirical"]]
        for argv in argvs:
            def call():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                files = sorted(certs.glob("*.csv")) if "--certificates" in argv else []
                return {"exit": _sha(code, "exit"), "stdout": _sha(stdout.getvalue(), "stdout"),
                        "stderr": _sha(stderr.getvalue().replace(tmp, "TMP"), "stderr"),
                        **{f.name: _sha(f.read_text(encoding="utf-8"), f.name) for f in files}}

            entry = "cli " + " ".join(argv[:1] + argv[2:3])
            out[entry] = _capture(entry, call)
    return out


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest normwise relative deviation of b from a, per matrix, row or entry."""
    if a.shape != b.shape:
        return np.inf
    axes = (-2, -1) if a.ndim >= 3 else (-1,) if a.ndim == 2 else ()
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        diff = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(b - a))
        diff[np.isnan(diff)] = np.inf
        size = np.where(np.isfinite(a), np.abs(a), 0.0)
        if axes:  # scaled by the largest entry, so that squares do not overflow
            scale = size.max(axis=axes, keepdims=True)
            scale[scale == 0.0] = 1.0
            diff, size = (np.sqrt(np.sum((v / scale) ** 2, axis=axes)) for v in (diff, size))
        rel = np.where(diff == 0.0, 0.0, diff / size)
    return float(rel.max(initial=0.0))


def compare(path_a, path_b) -> None:
    """Print the deviation table of two ``--arrays`` files, then the other differences."""
    worst, unequal = {}, []
    with np.load(path_a) as a, np.load(path_b) as b:
        only = sorted(set(a.files) ^ set(b.files))
        for key in sorted(set(a.files) & set(b.files)):
            entry, field = key.split("|", 1)
            x, y = a[key], b[key]
            if x.dtype.kind == "f" and y.dtype.kind == "f":
                dev = _deviation(x, y)
                if dev > worst.get(field, (-1.0, ""))[0]:
                    worst[field] = (dev, entry)
            elif x.shape != y.shape or (x != y).any():
                unequal.append((key, x.tolist(), y.tolist()))
    print(f"{'field':28s} {'largest deviation':>18s}  entry")
    for field, (dev, entry) in sorted(worst.items()):
        print(f"{field:28s} {dev:18.3e}  {entry}")
    print(f"not floats and unequal: {len(unequal)}")
    for key, x, y in unequal:
        print(f"  {key}: {x} -> {y}")
    print(f"in one file only: {len(only)}")
    for key in only:
        print(f"  {key}")


def main():
    global SAVED
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the netkalman package to run")
    parser.add_argument("--arrays", metavar="PATH.npz",
                        help="also save the arrays behind the digests to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                        help="compare two --arrays files instead of running anything")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import conftest
    import netkalman as nk
    from netkalman.cli import main as cli_main

    print(f"digests of {nk.__file__}", file=sys.stderr)
    if args.arrays:
        SAVED = _Saved(args.arrays)
    digests = {}
    for index, (name, model) in enumerate(_models(conftest, nk)):
        digests.update(_model_outputs(nk, index, name, model))
    digests.update(_cli_outputs(cli_main))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if args.arrays:
        SAVED.zip.close()


if __name__ == "__main__":
    main()
