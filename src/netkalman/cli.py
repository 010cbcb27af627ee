"""Command-line front end.

Subcommands: ``validate`` (model diagnostics, optional canonical config
dump), ``gains`` (the four structured gains for a given prior
covariance), ``filter`` (one simulated estimator run to CSV), ``sweep``
(Monte-Carlo grid over delay probabilities), ``iterate-g`` (the
deterministic covariance bound sequence), ``bounded`` (the weighted-sum
boundedness certificate) and ``critical`` (critical-probability bracket,
optionally with an empirical bisection estimate).

Each subcommand is one row of ``_COMMANDS``: a handler, a help line and
the subcommand's own flags.  A handler takes the parsed config and
arguments and returns its output text and its diagnostics; ``main`` does
the rest for all of them.

Exit codes: 0 success, 1 model validation failure, 2 I/O, parse or
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, montecarlo
from .config import ConfigError, dump_normalized, parse_config
from .filtering import make_rng, run_filter
from .gains import gain_set
from .model import (ALL_OUTCOMES, SYM_RTOL, _csv_text, load_matrix_csv, save_matrix_csv,
                    validate_model)

__all__ = ["main", "run"]


def _validate(cfg, args):
    if args.dump_normalized:
        return dump_normalized(cfg), ""
    return "model valid\n", ""


def _gains(cfg, args):
    n = cfg.model.n
    try:
        P = load_matrix_csv(args.p)
        if P.shape != (n, n):
            raise ValueError(f"prior covariance must be {n}x{n} for this model, "
                             f"got {P.shape[0]}x{P.shape[1]}")
        if not np.isfinite(P).all():
            raise ValueError("prior covariance has non-finite entries")
        if np.abs(P - P.T).max() > SYM_RTOL * np.abs(P).max():
            raise ValueError("prior covariance is not symmetric")
        gs = gain_set(P, cfg.model.C, cfg.model.V, cfg.model.dims)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--p: {exc}") from None
    rows = [(oc.label, i, j, v) for oc in ALL_OUTCOMES
            for i, row in enumerate(gs.for_outcome(oc).tolist(), 1) for j, v in enumerate(row, 1)]
    return _csv_text("outcome,row,col,value", rows), ""


def _filter(cfg, args):
    seed = cfg.seed if args.seed is None else args.seed
    return run_filter(cfg.model, cfg.delays, args.steps or cfg.steps, make_rng(seed)).to_csv(), ""


def _sweep(cfg, args):
    result = montecarlo.sweep(
        cfg.model,
        *cfg.grid(),
        runs=args.runs or cfg.runs,
        horizon=args.horizon or cfg.steps,
        master_seed=cfg.seed if args.seed is None else args.seed,
    )
    return result.to_csv(), ""


def _iterate_g(cfg, args):
    seq = analysis.cov_bound_sequence(
        cfg.model, cfg.delays, args.steps or cfg.horizon, cfg.divergence_threshold
    )
    text = _csv_text("t,trace_Y", enumerate(seq.traces.tolist(), 1))
    if seq.diverged:
        return text, f"diverged at step {seq.diverged_at} (threshold {seq.threshold:.3g})"
    return text, ""


def _bounded(cfg, args):
    report = analysis.boundedness_test(cfg.model, cfg.delays)
    if args.certificates:
        if not os.path.isdir(args.certificates):
            os.mkdir(args.certificates)  # a missing parent is an error, as for --out
        # One gain certifies every mask; the four per-mask files are kept
        # so existing consumers find the names they expect.
        X = report.certificates()
        for name in ("X_block_diag", "X_lower_block", "X_upper_block", "X_full"):
            save_matrix_csv(os.path.join(args.certificates, f"{name}.csv"), X)
    return report.to_csv(), report.to_text()


def _parse_fix(text: str):
    try:
        key, value = text.split("=", 1)
        key = key.strip()
        value = float(value)
    except ValueError:
        raise ConfigError(f"--fix: expected lambda1=<v> or lambda2=<v>, got {text!r}")
    if key not in ("lambda1", "lambda2"):
        raise ConfigError(f"--fix: expected lambda1 or lambda2, got {key!r}")
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"--fix: probability must lie in [0, 1], got {value}")
    return (1 if key == "lambda1" else 2), value


def _critical(cfg, args):
    fixed_which, lam = _parse_fix(args.fix)
    bounds = analysis.critical_bounds(cfg.model, lam, fixed_which)
    if args.empirical:
        est = analysis.empirical_critical(
            cfg.model,
            lam,
            fixed_which,
            horizon=cfg.horizon,
            divergence_threshold=cfg.divergence_threshold,
            bisect_tol=cfg.bisect_tol,
        )
        bounds = dataclasses.replace(bounds, empirical=est.estimate)
    return bounds.to_csv(), bounds.to_text()


def _count(text: str) -> int:
    """Type of the --steps, --runs and --horizon flags: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


# Every subcommand also takes the config path first and --out last.
_COMMANDS = {
    "validate": (_validate, "check a configuration/model",
                 {"--dump-normalized": dict(action="store_true")}),
    "gains": (_gains, "four structured gains for a prior covariance",
              {"--p": dict(required=True, help="CSV file with the prior covariance")}),
    "filter": (_filter, "simulate one estimator run",
               {"--steps": dict(type=_count), "--seed": dict(type=int)}),
    "sweep": (_sweep, "Monte-Carlo sweep over delay probabilities",
              {"--runs": dict(type=_count), "--horizon": dict(type=_count),
               "--seed": dict(type=int),
               "--workers": dict(type=int, help="accepted and ignored")}),
    "iterate-g": (_iterate_g, "deterministic covariance bound sequence",
                  {"--steps": dict(type=_count)}),
    "bounded": (_bounded, "weighted-sum boundedness certificate",
                {"--certificates": dict(help="directory for certificate CSVs")}),
    "critical": (_critical, "critical delay probability bracket",
                 {"--fix": dict(required=True, help="lambda1=<v> or lambda2=<v>"),
                  "--empirical": dict(action="store_true")}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netkalman",
        description="State estimation for interconnected systems with delayed cross measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("config")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out")
        p.set_defaults(func=handler)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = parse_config(args.config)
        report = validate_model(cfg.model)
        if not report.ok:
            print(report, file=sys.stderr)
            return 1
        text, err = args.func(cfg, args)
        if args.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        if err:
            print(err, file=sys.stderr)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
