"""Host-cost benchmark of the MESSENGERS vs PVM simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures_service --seed 0 \\
        --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):
``figures_service`` and ``hops_mail``.

``--trace 0`` starts ``PROCESSES`` fresh worker processes one after the
other.  Each one is a set-up sample (``setup_s``: spawn to warm) and
then repeats warm runs for its share of ``--seconds``, each followed
by a few timings of a fixed speed probe.  ``cpu_s`` and ``wall_s`` add
up each operation's fastest repetition over all runs of all processes
(best-of-N per operation: on a shared host the slower repetitions
measure other tenants' load); ``setup_s`` and ``peak_rss_mb`` are
medians over the processes.  These three times are multiplied by
``PROBE_REFERENCE_S`` over the probe's fastest time in the run, which
takes out the host's slow minutes.  ``--trace 1`` starts one worker
that measures untraced runs and then profiles one more; it reports the
per-layer metrics.

Every operation checks its simulated outputs (see ``workloads.py``);
``ok_ratio`` is the share of operations that passed, and the result's
``failed``/``attempted`` count the rest.  The last line of standard
output is the result object; the line before it records provenance
(source digest, Python, nproc, BLAS threads, seed, run count, each
metric's median, quartiles and unit, the unscaled times, and the
median and quartiles of whole runs as they were timed).  Both are also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh processes per untraced run: each is one ``setup_s`` sample.
PROCESSES = 3
#: Hard limit on one benchmark invocation, workers included.
DEADLINE_S = 170.0
#: Fastest time of ``worker.speed_probe`` on the host this benchmark was
#: set up on (2-vCPU Intel Xeon under KVM, CPython 3.11).  Time metrics
#: are scaled to that host speed; changing it rescales every result.
PROBE_REFERENCE_S = 0.0102


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest() -> str:
    """SHA-1 over every ``.py`` file under ``src/`` (path + bytes)."""
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def spread(values: list) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def fastest_ops(runs: list) -> dict:
    """Each operation's fastest CPU and wall time over all runs, by name.

    Work, outputs and checks are the same on every repetition; only
    the host time varies, and on a shared host a slower repetition
    measures the neighbours' load, not the program.
    """
    best: dict = {}
    for run in runs:
        for op in run["ops"]:
            seen = best.setdefault(op["name"], dict(op))
            seen["cpu_s"] = min(seen["cpu_s"], op["cpu_s"])
            seen["wall_s"] = min(seen["wall_s"], op["wall_s"])
    return best


def run_worker(args, deadline: float, budget: float, trace: int) -> dict:
    """One fresh worker process; returns its parsed JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", str(trace),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the benchmark's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-cost benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--inject", choices=("netsim", "mp"),
        help="slow one layer down on purpose (attribution self-test)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no repro package under {SRC}; run from a checkout")
    if not os.path.isfile(spec_path):
        return fail(f"missing {spec_path}")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    # Byte-compile up front so every set-up sample starts from the same
    # warm bytecode cache.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        check=True, stdout=subprocess.DEVNULL,
    )

    try:
        if args.trace:
            workers = [run_worker(args, deadline, args.seconds, 1)]
        else:
            workers = [
                run_worker(args, deadline, args.seconds / PROCESSES, 0)
                for _ in range(PROCESSES)
            ]
    except RuntimeError as exc:
        return fail(str(exc))

    runs = [run for worker in workers for run in worker["runs"]]
    attempted = sum(
        w["warm"]["ops"] + sum(len(r["ops"]) for r in w["runs"])
        for w in workers
    )
    failed = sum(
        w["warm"]["failed_ops"] + sum(r["failed_ops"] for r in w["runs"])
        for w in workers
    )
    errors = [e for w in workers for e in w["warm"]["errors"]] + [
        e for r in runs for e in r["errors"]
    ]
    best = fastest_ops(runs)
    # The host's speed drifts by ~30% over minutes; the probe's fastest
    # time in this same window tracks it (see PROBE_REFERENCE_S).
    probe_s = min(t for w in workers for t in w["probe_s"])
    speed = PROBE_REFERENCE_S / probe_s
    raw_cpu_s = sum(op["cpu_s"] for op in best.values())
    raw_wall_s = sum(op["wall_s"] for op in best.values())
    cpu_s = raw_cpu_s * speed
    by_system: dict = {}
    for op in best.values():
        if op["system"]:
            by_system[op["system"]] = (
                by_system.get(op["system"], 0.0) + op["cpu_s"] * speed
            )
    samples = {
        "cpu_s": [cpu_s],
        "wall_s": [raw_wall_s * speed],
        "work_per_cpu_s": [sum(op["work"] for op in best.values()) / cpu_s],
        "setup_s": [w["setup_s"] * speed for w in workers],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "ok_ratio": [(attempted - failed) / attempted],
        "messengers_cpu_s": [by_system.get("messengers", 0.0)],
        "pvm_cpu_s": [by_system.get("pvm", 0.0)],
        "runtime.gc_s": [r["gc_s"] for r in runs],
        "runtime.gc_collections": [r["gc_collections"] for r in runs],
    }
    # Whole runs as they were timed, for the provenance record.
    per_run = {
        "run_cpu_s": [sum(op["cpu_s"] for op in r["ops"]) for r in runs],
        "run_wall_s": [sum(op["wall_s"] for op in r["ops"]) for r in runs],
    }
    if args.trace:
        layers = workers[0]["layers"]
        errors += layers["_errors"]
        attempted += layers["_ops"]
        failed += layers["_failed_ops"]
        for name, value in layers.items():
            if not name.startswith("_"):
                samples[name] = [value]
    summary = {
        name: dict(spread(samples[name]), unit=unit)
        for name, unit in units.items()
    }
    provenance = {
        "workload": args.workload,
        "work_unit": workers[0]["work_unit"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": workers[0]["blas_threads"],
        "processes": len(workers),
        "runs": len(runs),
        "probe_min_s": probe_s,
        "probe_samples": sum(len(w["probe_s"]) for w in workers),
        "speed_scale": speed,
        "unscaled": {
            "cpu_s": raw_cpu_s,
            "wall_s": raw_wall_s,
            "setup_s": spread([w["setup_s"] for w in workers]),
        },
        "per_run": {
            name: spread(values) for name, values in per_run.items()
        },
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": summary,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in summary.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as handle:
        json.dump({
            "provenance": provenance,
            "result": result,
            "fastest_ops": best,
            "runs": [run["ops"] for run in runs],
            "probe_s": [w["probe_s"] for w in workers],
        }, handle, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
