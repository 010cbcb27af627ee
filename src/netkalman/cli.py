"""Command-line front end.

Subcommands: ``validate`` (model diagnostics, optional canonical config
dump), ``gains`` (the four structured gains for a given prior
covariance), ``filter`` (one simulated estimator run to CSV), ``sweep``
(Monte-Carlo grid over delay probabilities), ``iterate-g`` (the
deterministic covariance bound sequence), ``bounded`` (the weighted-sum
boundedness certificate) and ``critical`` (critical-probability bracket,
optionally with an empirical bisection estimate).

Exit codes: 0 success, 1 model validation failure, 2 I/O, parse or
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from typing import Optional

import numpy as np

from . import analysis, montecarlo
from .config import ConfigError, dump_normalized, parse_config
from .filtering import make_rng, run_filter
from .gains import gain_set
from .model import ALL_OUTCOMES, SYM_RTOL, load_matrix_csv, save_matrix_csv, validate_model

__all__ = ["main", "run"]


def _write_out(text: str, out: Optional[str]):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_validated(path: str):
    cfg = parse_config(path)
    report = validate_model(cfg.model)
    if not report.ok:
        print(str(report), file=sys.stderr)
        raise _ValidationFailure()
    return cfg


class _ValidationFailure(Exception):
    pass


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    report = validate_model(cfg.model)
    if not report.ok:
        print(str(report), file=sys.stderr)
        return 1
    if args.dump_normalized:
        _write_out(dump_normalized(cfg), args.out)
    else:
        print("model valid")
    return 0


def _cmd_gains(args) -> int:
    cfg = _load_validated(args.config)
    P = load_matrix_csv(args.p)
    n = cfg.model.n
    if P.shape != (n, n):
        raise ConfigError(f"--p: prior covariance must be {n}x{n} for this model, "
                          f"got {P.shape[0]}x{P.shape[1]}")
    if not np.isfinite(P).all():
        raise ConfigError("--p: prior covariance has non-finite entries")
    if np.abs(P - P.T).max() > SYM_RTOL * np.abs(P).max():
        raise ConfigError("--p: prior covariance is not symmetric")
    try:
        gs = gain_set(P, cfg.model.C, cfg.model.V, cfg.model.dims)
    except ValueError as exc:
        raise ConfigError(f"--p: {exc}") from exc
    buf = io.StringIO()
    buf.write("outcome,row,col,value\n")
    for oc in ALL_OUTCOMES:
        D = gs.for_outcome(oc)
        for i in range(D.shape[0]):
            for j in range(D.shape[1]):
                buf.write(f"{oc.label},{i + 1},{j + 1},{D[i, j]:.17g}\n")
    _write_out(buf.getvalue(), args.out)
    return 0


def _cmd_filter(args) -> int:
    cfg = _load_validated(args.config)
    steps = args.steps if args.steps is not None else cfg.steps
    seed = args.seed if args.seed is not None else cfg.seed
    rec = run_filter(cfg.model, cfg.delays, steps, make_rng(seed))
    _write_out(rec.to_csv(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_validated(args.config)
    l1s, l2s = cfg.grid()
    result = montecarlo.sweep(
        cfg.model,
        l1s,
        l2s,
        runs=args.runs if args.runs is not None else cfg.runs,
        horizon=args.horizon if args.horizon is not None else cfg.steps,
        master_seed=args.seed if args.seed is not None else cfg.seed,
        workers=args.workers,
    )
    _write_out(result.to_csv(), args.out)
    return 0


def _cmd_iterate_g(args) -> int:
    cfg = _load_validated(args.config)
    steps = args.steps if args.steps is not None else cfg.horizon
    seq = analysis.cov_bound_sequence(
        cfg.model, cfg.delays, steps, cfg.divergence_threshold
    )
    buf = io.StringIO()
    buf.write("t,trace_Y\n")
    for k, tr in enumerate(seq.traces):
        buf.write(f"{k + 1},{tr:.17g}\n")
    _write_out(buf.getvalue(), args.out)
    if seq.diverged:
        print(f"diverged at step {seq.diverged_at} (threshold {seq.threshold:.3g})",
              file=sys.stderr)
    return 0


def _cmd_bounded(args) -> int:
    cfg = _load_validated(args.config)
    report = analysis.boundedness_test(cfg.model, cfg.delays)
    _write_out(report.to_csv(), args.out)
    print(report.to_text(), file=sys.stderr)
    if args.certificates:
        os.makedirs(args.certificates, exist_ok=True)
        # One gain certifies every mask; the four per-mask files are kept
        # so existing consumers find the names they expect.
        X = report.certificates()
        for name in ("X_block_diag", "X_lower_block", "X_upper_block", "X_full"):
            save_matrix_csv(os.path.join(args.certificates, f"{name}.csv"), X)
    return 0


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


def _cmd_critical(args) -> int:
    cfg = _load_validated(args.config)
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
    _write_out(bounds.to_csv(), args.out)
    print(bounds.to_text(), file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netkalman",
        description="State estimation for interconnected systems with delayed cross measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration/model")
    p.add_argument("config")
    p.add_argument("--dump-normalized", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gains", help="four structured gains for a prior covariance")
    p.add_argument("config")
    p.add_argument("--p", required=True, help="CSV file with the prior covariance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gains)

    p = sub.add_parser("filter", help="simulate one estimator run")
    p.add_argument("config")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep over delay probabilities")
    p.add_argument("config")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="accepted and ignored")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("iterate-g", help="deterministic covariance bound sequence")
    p.add_argument("config")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_iterate_g)

    p = sub.add_parser("bounded", help="weighted-sum boundedness certificate")
    p.add_argument("config")
    p.add_argument("--certificates", default=None, help="directory for certificate CSVs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser("critical", help="critical delay probability bracket")
    p.add_argument("config")
    p.add_argument("--fix", required=True, help="lambda1=<v> or lambda2=<v>")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_critical)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _ValidationFailure:
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
