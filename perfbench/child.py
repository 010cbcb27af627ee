"""One benchmark process; ``run.py`` starts it, never a user.

``child.py setup MANIFEST`` times a cold start in this fresh interpreter:
``import netkalman``, ``parse_config`` of every config of the workload,
``validate_model`` of every model.  ``child.py measure MANIFEST SECONDS
TRACE`` warms up, runs the workload's job list again and again for
SECONDS, checks every output, and with TRACE=1 runs one more pass under
the tracer.  Either prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

REFERENCE_STEPS = 700  # the reference unit: about 0.1 s on a 2-core x86 VM
SLICE_STEPS = 30  # reference steps per timer tick
SLICE_PERIOD_S = 0.1  # timer period while a pass runs


def _setup(manifest) -> dict:
    t0 = time.perf_counter()
    import netkalman
    from netkalman import config, model

    t_import = time.perf_counter()
    cfgs = [config.parse_config(job["config"]) for job in manifest["jobs"]]
    t_parse = time.perf_counter()
    reports = [model.validate_model(cfg.model) for cfg in cfgs]
    t_validate = time.perf_counter()
    if not all(r.ok for r in reports):
        raise SystemExit(f"model validation failed: {[str(r) for r in reports]}")
    return {
        "import_s": t_import - t0,
        "parse_s": t_parse - t_import,
        "validate_s": t_validate - t_parse,
        "setup_s": t_validate - t0,
        "netkalman_file": netkalman.__file__,
    }


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


class _Reference:
    """A fixed computation that does not touch netkalman.

    A textbook Kalman covariance recursion written directly in numpy and
    scipy (4 states, 3 sensors), with a condition number, a masked
    spectral-norm subgradient step and some float formatting: the mix of
    small dense linear algebra and Python overhead the workloads spend
    their time in.  Timed while the workload runs, it measures how fast
    the machine runs at that moment.
    """

    def __init__(self):
        import numpy as np
        from scipy import linalg as sla

        self.np, self.sla = np, sla
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        self.A, self.W = 0.5 * M, M @ M.T + 4.0 * np.eye(4)
        self.C, self.V = rng.standard_normal((3, 4)), np.eye(3)
        self.free = np.ones((4, 3), dtype=bool)
        self.free[:2, 2:] = False

    def run(self, steps: int):
        np, sla = self.np, self.sla
        A, W, C, V, free = self.A, self.W, self.C, self.V, self.free
        P, X = W.copy(), np.zeros((4, 3))
        for i in range(steps):
            P = A @ P @ A.T + W
            P = (P + P.T) / 2.0
            S = C @ P @ C.T + V
            np.linalg.cond(S)
            K = sla.cho_solve(sla.cho_factor(S, lower=True), (P @ C.T).T).T
            P = P - K @ C @ P
            U, _, Vt = np.linalg.svd(A - A @ X @ C)
            X = np.where(free, X - 0.01 * np.outer(A.T @ U[:, 0], C @ Vt[0]), 0.0)
            if i % 10 == 0:
                ",".join(f"{x:.17g}" for x in P[0])


class _Sampler:
    """Runs the reference in slices of ``SLICE_STEPS`` on a wall-clock timer.

    While entered, a ``SIGALRM`` every ``SLICE_PERIOD_S`` runs one slice
    between two bytecodes of whatever the workload is doing, so machine
    speed is sampled throughout the pass, inside long jobs too.  The time
    spent in slices is kept in ``seconds`` and left out of the pass time.
    One slice runs on entry, so even a short pass has a sample.
    """

    def __init__(self, reference: _Reference):
        self.reference = reference
        self.seconds, self.steps = 0.0, 0

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.reference.run(SLICE_STEPS)
        self.seconds += time.perf_counter() - start
        self.steps += SLICE_STEPS

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self) -> float:
        """Mean time of ``REFERENCE_STEPS`` reference steps while entered."""
        return self.seconds / self.steps * REFERENCE_STEPS


def _run_pass(wl, jobs, reference=None, tracer=None):
    """Run the job list once; checks are left for later, outside the timing.

    With a ``reference`` the pass runs under a ``_Sampler``.  Returns the
    pass time without the sampler's slices, that time in units of the
    reference (``None`` without one), the outputs and the warning count.
    """
    outs, states, warned = [], [], 0
    sampler = _Sampler(reference) if reference is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with sampler:
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            out, state, detail, n_warn = wl.run_job(job)
            outs.append(out)
            states.append((state, detail))
            warned += n_warn
    if reference is None:
        return time.perf_counter() - start, None, outs, states, warned
    busy = time.perf_counter() - start - sampler.seconds
    return busy, busy / sampler.unit_s(), outs, states, warned


def _measure(manifest, seconds: float, trace: bool, out_dir: Path) -> dict:
    from netkalman import config, model

    import spans
    import workloads as wl

    cfgs = [config.parse_config(job["config"]) for job in manifest["jobs"]]
    for cfg in cfgs:
        if not model.validate_model(cfg.model).ok:
            raise SystemExit("model validation failed")
    warm = out_dir / "warmup.ini"
    wl.warm_up(manifest, cfgs, config.parse_config(warm) if warm.exists() else None)
    reference = _Reference()
    reference.run(REFERENCE_STEPS)
    jobs = wl.build_jobs(manifest, cfgs)

    tally = {wl.OK: 0, wl.FAILED: 0, wl.INCORRECT: 0}
    job_log = {}
    warned = 0

    def settle(outs, states):
        for job, out, (state, detail) in zip(jobs, outs, states):
            if state is None:
                state, detail = wl.check_job(job, out)
            tally[state] += 1
            job_log.setdefault(job.name, {}).setdefault(state, detail)

    pass_s, pass_ref, spent = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        busy, in_ref, outs, states, n_warn = _run_pass(wl, jobs, reference)
        spent.append(time.perf_counter() - start)
        pass_s.append(busy)
        pass_ref.append(in_ref)
        warned += n_warn
        settle(outs, states)
        del outs  # hold one pass of outputs at a time (peak_rss_mb)
        # Stop when another pass would end after the deadline.
        if time.perf_counter() + statistics.median(spent) > deadline:
            break
    result = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_ref": pass_ref,
        "wall_s": statistics.median(pass_s),
        "wall_ref": statistics.median(pass_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }

    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            origin = time.perf_counter()
            traced_s, _, outs, states, _ = _run_pass(wl, jobs, tracer=tracer)
        finally:
            tracer.uninstall()
        settle(outs, states)
        tracer.write(out_dir / "spans.jsonl", origin)
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["layers"]["trace_overhead_s"] = traced_s - result["wall_s"]
        result["traced_pass_s"] = traced_s

    result.update(
        attempted=sum(tally.values()),
        failed=tally[wl.FAILED],
        incorrect=tally[wl.INCORRECT],
        jobs=job_log,
        warnings=warned,
    )
    return result


def main(argv) -> int:
    role, manifest_path = argv[0], Path(argv[1])
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if role == "setup":
        result = _setup(manifest)
    elif role == "measure":
        result = _measure(manifest, float(argv[2]), argv[3] == "1", manifest_path.parent)
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
