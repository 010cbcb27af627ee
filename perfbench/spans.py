"""Spans around the calls into each netkalman module, recorded from outside.

``Tracer.install`` replaces public names with timing wrappers in the
namespace where each caller looks them up (``filtering.optimal_gain`` is
what ``filtering.update`` calls, ``analysis.gain_set`` what
``analysis.expected_next_cov`` calls, and so on); ``uninstall`` puts the
originals back.  Nothing in the package is edited.  Spans stay in memory
as ``[name, start, end, parent index, job id, detail]`` and are written
out once the traced pass has ended; the per-layer metrics are derived
from them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from netkalman import analysis, filtering, gains, montecarlo

LABELS = ("11", "01", "10", "00")  # delay outcomes, gamma1 gamma2 (1 = on time)


def _outcome_label(args, kwargs, out):
    outcome = args[4] if len(args) > 4 else kwargs["outcome"]
    return outcome.label


def _outcome_counts(args, kwargs, rec):
    delays = args[1] if len(args) > 1 else kwargs["delays"]
    steps = len(rec.t)
    drawn, expected = {}, {}
    for lb in LABELS:
        g1, g2 = int(lb[0]), int(lb[1])
        drawn[lb] = int(((rec.gamma1 == g1) & (rec.gamma2 == g2)).sum())
        p1 = 1.0 - delays.lambda1 if g1 else delays.lambda1
        p2 = 1.0 - delays.lambda2 if g2 else delays.lambda2
        expected[lb] = steps * p1 * p2
    return {"drawn": drawn, "expected": expected}


def _nbytes(args, kwargs, text):
    return len(text.encode("utf-8"))


def _targets():
    """(owner, attribute, span name, detail, only when called from)."""
    return [
        (montecarlo, "sweep", "montecarlo.sweep", None, None),
        (montecarlo, "estimate_eec", "montecarlo.estimate_eec", None, None),
        (montecarlo, "kalman_baseline", "montecarlo.kalman_baseline", None, None),
        (montecarlo, "run_filter", "filtering.run_filter", _outcome_counts, None),
        (montecarlo.SweepResult, "to_csv", "montecarlo.to_csv", _nbytes, None),
        (filtering, "run_filter", "filtering.run_filter", _outcome_counts, None),
        (filtering, "simulate_plant", "filtering.simulate_plant", None, None),
        (filtering, "predict", "filtering.predict", None, None),
        (filtering, "update", "filtering.update", None, None),
        (filtering, "optimal_gain", "gains.optimal_gain", _outcome_label, None),
        (filtering, "posterior_cov", "gains.posterior_cov", None, None),
        (filtering.TrajectoryRecord, "to_csv", "filtering.to_csv", _nbytes, None),
        (gains, "optimal_gain", "gains.optimal_gain", _outcome_label, None),
        (gains, "innovation_blocks", "gains.innovation_blocks", None, None),
        (np.linalg, "cond", "gains.cond_checks", None, "netkalman.gains"),
        (analysis, "gain_set", "gains.gain_set", None, None),
        (analysis, "optimal_gain", "gains.optimal_gain", _outcome_label, None),
        (analysis, "expected_next_cov", "analysis.expected_next_cov", None, None),
        (analysis, "cov_bound_sequence", "analysis.cov_bound_sequence",
         lambda a, k, out: out.steps_completed, None),
        (analysis, "divergence_witness", "analysis.divergence_witness", None, None),
        (analysis, "empirical_critical", "analysis.empirical_critical",
         lambda a, k, out: out.probes, None),
        (analysis, "min_structured_norm", "analysis.min_structured_norm",
         lambda a, k, out: out.iterations, None),
        (analysis, "masked_norm_minima", "analysis.masked_norm_minima", None, None),
        (analysis, "residual_gram_floor", "analysis.residual_gram_floor", None, None),
        (analysis, "boundedness_test", "analysis.boundedness_test", None, None),
        (analysis, "critical_bounds", "analysis.critical_bounds", None, None),
    ]


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, detail, only_from):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_from is not None and sys._getframe(1).f_globals.get("__name__") != only_from:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if detail is not None:
                rec[5] = detail(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for owner, attr, name, detail, only_from in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, detail, only_from))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, origin: float):
        """Write the spans as JSON lines, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, detail in self.spans:
                row = {"name": name, "start": start - origin, "end": end - origin,
                       "parent": parent, "job": job}
                if detail is not None:
                    row["detail"] = detail
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans) -> dict:
    """Counts, inclusive times and self times per span name, from the spans."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, *_rest) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - covered[i]

    m = {
        "montecarlo.sweep.self_s": self_s["montecarlo.sweep"],
        "montecarlo.estimate_eec.self_s": self_s["montecarlo.estimate_eec"],
        "montecarlo.kalman_baseline.s": total["montecarlo.kalman_baseline"],
        "montecarlo.to_csv.s": total["montecarlo.to_csv"],
        "filtering.run_filter.calls": calls["filtering.run_filter"],
        "filtering.run_filter.self_s": self_s["filtering.run_filter"],
        "filtering.simulate_plant.s": total["filtering.simulate_plant"],
        "filtering.predict.calls": calls["filtering.predict"],
        "filtering.predict.s": total["filtering.predict"],
        "filtering.update.calls": calls["filtering.update"],
        "filtering.update.self_s": self_s["filtering.update"],
        "filtering.to_csv.s": total["filtering.to_csv"],
        "gains.gain_set.calls": calls["gains.gain_set"],
        "gains.gain_set.s": total["gains.gain_set"],
        "gains.innovation_blocks.calls": calls["gains.innovation_blocks"],
        "gains.posterior_cov.s": total["gains.posterior_cov"],
        "gains.cond_checks.calls": calls["gains.cond_checks"],
        "gains.cond_checks.s": total["gains.cond_checks"],
        "analysis.expected_next_cov.calls": calls["analysis.expected_next_cov"],
        "analysis.expected_next_cov.self_s": self_s["analysis.expected_next_cov"],
        "analysis.divergence_witness.s": total["analysis.divergence_witness"],
        "analysis.min_structured_norm.calls": calls["analysis.min_structured_norm"],
        "analysis.min_structured_norm.s": total["analysis.min_structured_norm"],
        "analysis.masked_norm_minima.s": total["analysis.masked_norm_minima"],
        "analysis.residual_gram_floor.s": total["analysis.residual_gram_floor"],
    }
    sums = defaultdict(float)
    for lb in LABELS:
        m[f"gains.optimal_gain.calls.{lb}"] = 0
        m[f"gains.optimal_gain.s.{lb}"] = 0.0
        m[f"filtering.outcomes.{lb}"] = 0
        m[f"filtering.outcomes_expected.{lb}"] = 0.0
    in_gain_set = 0
    for i, (name, _, _, parent, _, detail) in enumerate(spans):
        if name == "gains.optimal_gain":
            m[f"gains.optimal_gain.calls.{detail}"] += 1
            m[f"gains.optimal_gain.s.{detail}"] += dur[i]
        elif name == "filtering.run_filter":
            for lb in LABELS:
                m[f"filtering.outcomes.{lb}"] += detail["drawn"][lb]
                m[f"filtering.outcomes_expected.{lb}"] += detail["expected"][lb]
        elif name in ("montecarlo.to_csv", "filtering.to_csv"):
            sums[f"{name}.bytes"] += detail
        elif name == "analysis.cov_bound_sequence":
            sums["analysis.cov_bound_sequence.steps"] += detail
        elif name == "analysis.empirical_critical":
            sums["analysis.empirical_critical.probes"] += detail
        elif name == "analysis.min_structured_norm":
            sums["analysis.min_structured_norm.iterations"] += detail
        elif name == "gains.innovation_blocks":
            while parent >= 0 and spans[parent][0] != "gains.gain_set":
                parent = spans[parent][3]
            in_gain_set += parent >= 0
    for key in ("montecarlo.to_csv.bytes", "filtering.to_csv.bytes",
                "analysis.cov_bound_sequence.steps", "analysis.empirical_critical.probes",
                "analysis.min_structured_norm.iterations"):
        m[key] = int(sums[key])
    n_sets = calls["gains.gain_set"]
    m["gains.innovation_blocks_per_gain_set"] = in_gain_set / n_sets if n_sets else 0.0
    return m
