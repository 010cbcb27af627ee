#!/usr/bin/env python3
"""netkalman benchmark: one workload, one seed, one process at a time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 1

The program under test is ``src/netkalman`` of this checkout.  Inputs are
generated from ``--seed`` and handed over as config files.  Set-up is
timed in several fresh interpreters; the workload then runs in one more
fresh interpreter, with BLAS pinned to one thread.  The last stdout line
is a JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  Everything a
run writes goes under ``perfbench/.out/``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # cold interpreters per run; setup_s is their median
TIME_LIMIT_S = 170.0  # a run must end within 180 s

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("NETKALMAN_WORKERS", None)  # sweeps run in-process, one job at a time
    return env


def _run_child(args, env, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the next benchmark process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "netkalman" / "__init__.py").is_file():
        print(f"error: no src/netkalman under {ROOT}; run from a netkalman checkout",
              file=sys.stderr)
        return 2

    out_dir = HERE / ".out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    manifest = inputs.write_inputs(args.workload, args.seed, out_dir)
    manifest_path = str(out_dir / "manifest.json")
    env = _child_env()

    try:
        probes = [_run_child(["setup", manifest_path], env, deadline)
                  for _ in range(SETUP_PROBES)]
        stray = {p["netkalman_file"] for p in probes} - {str(ROOT / "src" / "netkalman" / "__init__.py")}
        if stray:
            raise RuntimeError(f"imported netkalman from outside this checkout: {stray}")
        measured = _run_child(["measure", manifest_path, str(args.seconds), str(args.trace)],
                              env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def median_of(key):
        return statistics.median(p[key] for p in probes)

    attempted = measured["attempted"]
    failed = measured["failed"] + measured["incorrect"]
    if args.trace:
        values = dict(measured["layers"])
        values["config.parse_config.s"] = median_of("parse_s")
        values["model.validate_model.s"] = median_of("validate_s")
        values["setup.import_s"] = median_of("import_s")
        section = "per_layer"
    else:
        values = {
            "setup_s": median_of("setup_s"),
            "wall_ref": measured["wall_ref"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
        section = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [(m["name"], m["unit"]) for m in spec[section]]
    result = {
        "correct": measured["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }

    env = {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **measured["env"],
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sizes": manifest["sizes"], "env": env,
              "setup_probes": probes, "measured": measured, "result": result}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  sizes {json.dumps(manifest['sizes'])}")
    print(f"env {json.dumps(env)}")
    print(f"passes {measured['passes']}  jobs {json.dumps(measured['jobs'])}  "
          f"warnings {measured['warnings']}")
    for name, unit in names:
        print(f"  {name:44s} {values[name]!r} {unit}")
    print(f"  {'wall_s':44s} {measured['wall_s']!r} s (median pass, raw)")
    print(f"  {'failed_share':44s} {failed / attempted!r} ratio ({failed} of {attempted} jobs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
