"""Job lists, warm-up and output checks of the four workloads.

Every call goes through a module attribute (``montecarlo.sweep``,
``analysis.empirical_critical``, ...), so the wrappers that ``spans``
installs see each call.  Each job calls the public functions the
matching CLI subcommand calls, with arguments taken from its parsed
config.

A job ends in one of three states:

* ``ok``: it returned and its output passed every check;
* ``failed``: it raised, or returned non-finite numbers (the program did
  not produce a usable result, like an overflow);
* ``incorrect``: it returned finite output that breaks a check.

``failed`` jobs count against ``ok_share``; an ``incorrect`` job makes
the whole run report ``correct: false``.
"""

from __future__ import annotations

import math
import traceback
import warnings
from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

from netkalman import analysis, filtering, montecarlo
from netkalman.model import DelayModel

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]  # output -> (state, detail)


def _finite(*arrays) -> bool:
    return all(bool(np.isfinite(np.asarray(a)).all()) for a in arrays)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _csv_rows(text: str) -> int:
    return text.count("\n") - 1


# ---------------------------------------------------------------------------
# mc_sweep: ``netkalman sweep``


def _sweep_job(spec, cfg) -> Job:
    l1s, l2s = cfg.grid()

    def run():
        result = montecarlo.sweep(cfg.model, l1s, l2s, runs=cfg.runs,
                                  horizon=cfg.steps, master_seed=cfg.seed)
        return result, result.to_csv()

    def check(out):
        res, text = out
        if not _finite(res.trace_mean, res.trace_se, res.kalman_trace):
            return FAILED, "non-finite trace"
        if _csv_rows(text) != len(l1s) * len(l2s) * cfg.steps:
            return INCORRECT, "CSV row count"
        if 0.0 in l1s and 0.0 in l2s:
            # No delays: the Monte-Carlo cell is the Kalman recursion.
            cell = res.trace_mean[l1s.index(0.0), l2s.index(0.0)]
            gap = np.abs(cell - res.kalman_trace) / np.abs(res.kalman_trace)
            if gap.max() > 1e-12:
                return INCORRECT, f"lambda=(0,0) cell off kalman_trace by {gap.max():.2e}"
        if spec.get("monotone"):
            # More delay never lowers the expected trace (criterion 9),
            # up to five standard errors of Monte-Carlo noise.
            last, se = res.trace_mean[..., -1], res.trace_se[..., -1]
            for axis in (0, 1):
                lo = np.take(last, range(last.shape[axis] - 1), axis=axis)
                hi = np.take(last, range(1, last.shape[axis]), axis=axis)
                tol = 5 * np.hypot(np.take(se, range(se.shape[axis] - 1), axis=axis),
                                   np.take(se, range(1, se.shape[axis]), axis=axis))
                if (hi < lo - tol).any():
                    return INCORRECT, f"last-step trace not monotone along lambda{axis + 1}"
        return OK, ""

    return Job(spec["name"], run, check)


# ---------------------------------------------------------------------------
# filter_long: ``netkalman filter``


def _filter_job(spec, cfg) -> Job:
    def run():
        rec = filtering.run_filter(cfg.model, cfg.delays, cfg.steps, filtering.make_rng(cfg.seed))
        return rec, rec.to_csv()

    def check(out):
        rec, text = out
        tp, tq = rec.trace_prior(), rec.trace_post()
        if not _finite(rec.xhat, rec.sq_err, tp, tq):
            bad = ~(np.isfinite(rec.sq_err) & np.isfinite(rec.xhat).all(axis=1))
            step = int(rec.t[np.argmax(bad)]) if bad.any() else None
            return FAILED, f"non-finite output from step {step}"
        if _csv_rows(text) != cfg.steps:
            return INCORRECT, "CSV row count"
        # The zero gain is admissible, so the optimal update never raises
        # the trace.
        if (tq > tp * (1 + 1e-9)).any():
            return INCORRECT, "posterior trace above prior trace"
        return OK, ""

    return Job(spec["name"], run, check)


# ---------------------------------------------------------------------------
# certify: ``netkalman bounded`` over a grid and ``netkalman critical``


def closed_form_r(model) -> float:
    """``||A (I - C+ C)||_2^2``, the masked-norm minimum for block-diagonal C."""
    C = model.C
    proj = np.eye(model.n) - np.linalg.pinv(C) @ C
    return float(np.linalg.norm(model.A @ proj, 2) ** 2)


def _certify_job(spec, cfg) -> Job:
    points = [DelayModel(l1, l2) for l1 in cfg.lambda1_grid for l2 in cfg.lambda2_grid]
    r_ref = closed_form_r(cfg.model)

    def run():
        first = analysis.boundedness_test(cfg.model, points[0], cfg.solver)
        reports = [first] + [
            analysis.boundedness_test(cfg.model, d, cfg.solver, minima=first.minima)
            for d in points[1:]
        ]
        brackets = [
            analysis.critical_bounds(cfg.model, lam, which, cfg.solver, minima=first.minima)
            for which, lam in ((1, cfg.delays.lambda1), (2, cfg.delays.lambda2))
        ]
        text = "".join(r.to_csv() for r in reports) + "".join(b.to_csv() for b in brackets)
        return reports, brackets, text

    def check(out):
        reports, brackets, _ = out
        r = reports[0]
        rs = (r.r1, r.r2, r.r3, r.r4)
        if not all(math.isfinite(v) for v in rs):
            return FAILED, "non-finite minima"
        if not (r.r4 <= min(r.r2, r.r3) <= max(r.r2, r.r3) <= r.r1 + 1e-6):
            return INCORRECT, f"minima out of mask order: {rs}"
        for v in rs:
            if not _rel_close(v, r_ref, 1e-9):
                return INCORRECT, f"minimum {v!r} vs closed form {r_ref!r}"
        for rep in reports:
            l1, l2 = rep.lambda1, rep.lambda2
            ws = (rep.r1 * l1 * l2 + rep.r2 * l1 * (1 - l2)
                  + rep.r3 * (1 - l1) * l2 + rep.r4 * (1 - l1) * (1 - l2))
            if abs(ws - rep.weighted_sum) > 1e-12 * max(1.0, abs(ws)):
                return INCORRECT, f"weighted sum at ({l1}, {l2})"
            if (rep.verdict == "BoundedCertified") != (ws <= 1.0):
                return INCORRECT, f"verdict {rep.verdict} at weighted sum {ws}"
        for b in brackets:
            if not 0.0 <= b.lower <= b.upper <= 1.0:
                return INCORRECT, f"bracket [{b.lower}, {b.upper}]"
        return OK, ""

    return Job(spec["name"], run, check)


# ---------------------------------------------------------------------------
# bisect: ``netkalman critical --empirical`` and ``netkalman iterate-g``


def _bisect_job(spec, cfg) -> Job:
    def run():
        # ``--fix lambda2=<configured lambda2>``: bisect lambda1.
        return analysis.empirical_critical(
            cfg.model, cfg.delays.lambda2, 2, horizon=cfg.horizon,
            divergence_threshold=cfg.divergence_threshold, bisect_tol=cfg.bisect_tol,
        )

    def check(est):
        if not math.isfinite(est.estimate):
            return FAILED, "non-finite estimate"
        if est.bracket_high - est.bracket_low > cfg.bisect_tol:
            return INCORRECT, f"bracket width {est.bracket_high - est.bracket_low}"
        if est.probes <= 2 or not 0.0 < est.estimate < 1.0:
            return INCORRECT, f"no interior critical value ({est.probes} probes)"
        return OK, ""

    return Job(spec["name"], run, check)


def _bound_sequence_job(spec, cfg) -> Job:
    def run():
        return analysis.cov_bound_sequence(cfg.model, cfg.delays, cfg.horizon,
                                           cfg.divergence_threshold)

    def check(seq):
        if not _finite(seq.traces):
            return FAILED, "non-finite trace"
        if seq.diverged or not seq.plateaued():
            return INCORRECT, "bound sequence diverged or did not plateau"
        return OK, ""

    return Job(spec["name"], run, check)


_BUILDERS = {
    "sweep": _sweep_job,
    "filter": _filter_job,
    "certify": _certify_job,
    "bisect": _bisect_job,
    "bound_sequence": _bound_sequence_job,
}


def build_jobs(manifest, configs) -> List[Job]:
    return [_BUILDERS[spec["kind"]](spec, cfg) for spec, cfg in zip(manifest["jobs"], configs)]


def warm_up(manifest, configs, warmup_config=None):
    """Run each job's code path once at a tiny size, untimed."""
    for spec, cfg in zip(manifest["jobs"], configs):
        kind = spec["kind"]
        if kind == "sweep":
            montecarlo.sweep(cfg.model, [0.0, 1.0], [0.0, 1.0], runs=1, horizon=3,
                             master_seed=cfg.seed).to_csv()
        elif kind == "filter":
            filtering.run_filter(cfg.model, cfg.delays, 5, filtering.make_rng(cfg.seed)).to_csv()
        elif kind in ("bisect", "bound_sequence"):
            analysis.cov_bound_sequence(cfg.model, cfg.delays, 3)
            analysis.divergence_witness(cfg.model, cfg.delays, 3)
    if warmup_config is not None:
        wc = warmup_config
        report = analysis.boundedness_test(wc.model, wc.delays, wc.solver)
        analysis.critical_bounds(wc.model, 0.5, 1, wc.solver, minima=report.minima)


def run_job(job: Job):
    """Run one job; return (output, state, detail, warning count).

    This is the boundary that must keep going: an exception inside the
    program is recorded as a failed job, with its traceback as detail.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = job.run()
        except Exception:  # noqa: BLE001 - reported as a failed job
            return None, FAILED, traceback.format_exc(limit=3), len(caught)
    return out, None, "", len(caught)


def check_job(job: Job, out):
    try:
        return job.check(out)
    except Exception:  # noqa: BLE001 - a check that cannot run is a wrong output
        return INCORRECT, traceback.format_exc(limit=3)
