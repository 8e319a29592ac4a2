"""Attribution self-test: does the benchmark catch and place a slowdown?

Runs ``run.py`` exactly as the benchmark command is run and checks
four claims against the bounds in ``BENCHMARK.json``.  A bound applies
to the median of a set of runs compared with the median of a baseline
set.

1. A fixed busy-spin wrapped around one public ``netsim`` function
   (``Network.enqueue``) and, separately, one public ``mp`` function
   (``TaskContext.send``) moves ``cpu_s`` beyond its bound on the
   workloads that use that layer.
2. The traced run charges the added time to the wrapped layer.
3. A workload that bypasses the layer stays within every bound:
   ``hops_mail`` (ring hops and mailbox conversations) never calls
   ``TaskContext.send``.
4. Ten clean reruns of each workload, one seed each, trip no bound,
   and the spread between their quartiles stays within each bound
   (``setup_s`` excepted), as the benchmark's acceptance asks.

Clean and slowed runs alternate, seed by seed, so that a host that
drifts faster or slower during the test moves both sides alike.

Usage (from the root of a checkout; about 40 minutes on a 2-core
host)::

    python3 perfbench/selftest.py

Exit code 0 means every claim held.  The measurements are written to
``.perfbench/selftest.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PAIRED_SEEDS = (201, 202, 203)
RERUN_SEEDS = tuple(range(1, 11))
#: workload -> layers it uses (must move) and layers it bypasses (must
#: not move).
CASES = {
    "figures_service": (("netsim", "mp"), ()),
    "hops_mail": (("netsim",), ("mp",)),
}
#: Where the traced run must place each spin.
TRACED = {"netsim": "hops_mail", "mp": "figures_service"}
#: The spin must raise the wrapped layer's share of the traced CPU time
#: by at least this much, and no other layer's share by this much.
#: Shares, unlike seconds, do not move when the whole host slows down.
MIN_SHARE_RISE = 0.05
MAX_OTHER_RISE = 0.01


def bench(workload: str, seed: int, trace: int = 0, inject=None) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=200, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: incorrect outputs")
    return {k: v["value"] for k, v in result["metrics"].items()}


def medians(runs: list, names) -> dict:
    return {name: statistics.median(run[name] for run in runs)
            for name in names}


def spread(runs: list, name: str) -> float:
    """Distance between the quartiles of ``name`` over ``runs``, as a
    share of their median."""
    q1, median, q3 = statistics.quantiles([run[name] for run in runs], n=4)
    return (q3 - q1) / median


def worse_by(metric: dict, value: float, baseline: float) -> float:
    """How much worse ``value`` is than ``baseline``, as a share."""
    if metric["better"] == "lower":
        return (value - baseline) / baseline
    return (baseline - value) / baseline


def layer_shares(values: dict) -> dict:
    """Each layer's share of the traced run's CPU time."""
    times = {k: v for k, v in values.items()
             if k.endswith(".self_cpu_s")
             or k == "runtime.unattributed_cpu_s"}
    total = sum(times.values())
    return {k: v / total for k, v in times.items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {"runs": {}, "checks": []}
    ok = True

    def check(claim: str, passed: bool, **detail) -> None:
        nonlocal ok
        ok &= passed
        report["checks"].append(dict(claim=claim, passed=passed, **detail))
        print(("PASS " if passed else "FAIL ") + claim,
              json.dumps(detail), flush=True)

    clean_medians = {}
    for workload, (used, bypass) in CASES.items():
        runs: dict = {"clean": []}
        for seed in PAIRED_SEEDS:
            runs["clean"].append(bench(workload, seed))
            for layer in used + bypass:
                runs.setdefault(layer, []).append(
                    bench(workload, seed, inject=layer)
                )
        report["runs"][workload] = runs
        clean = clean_medians[workload] = medians(runs["clean"], metrics)
        for layer in used + bypass:
            slowed = medians(runs[layer], metrics)
            for name, metric in metrics.items():
                worse = round(worse_by(metric, slowed[name], clean[name]), 4)
                if layer in used and name == "cpu_s":
                    check(f"{layer} spin moves cpu_s on {workload}",
                          worse > metric["bound"], worse=worse,
                          bound=metric["bound"])
                elif layer in bypass:
                    check(f"{layer} spin leaves {name} on {workload}",
                          worse <= metric["bound"], worse=worse,
                          bound=metric["bound"])

    for layer, workload in TRACED.items():
        seed = PAIRED_SEEDS[0]
        before = layer_shares(bench(workload, seed, trace=1))
        after = layer_shares(bench(workload, seed, trace=1, inject=layer))
        rise = {k: after[k] - before[k] for k in before}
        target = f"{layer}.self_cpu_s"
        others = max(v for k, v in rise.items() if k != target)
        check(f"traced run charges the {layer} spin to {layer} "
              f"on {workload}",
              rise[target] >= MIN_SHARE_RISE and others < MAX_OTHER_RISE,
              share_rise=round(rise[target], 4),
              largest_other_rise=round(others, 4))

    for workload in CASES:
        runs = [bench(workload, seed) for seed in RERUN_SEEDS]
        report["runs"][f"{workload}/reruns"] = runs
        rerun = medians(runs, metrics)
        baseline = clean_medians[workload]
        worse = {name: round(worse_by(metric, rerun[name], baseline[name]), 4)
                 for name, metric in metrics.items()}
        tripped = {name: w for name, w in worse.items()
                   if w > metrics[name]["bound"]}
        check(f"ten clean reruns of {workload} trip nothing",
              not tripped, worse=worse)
        spreads = {
            name: round(spread(runs, name), 4) for name in metrics
            if name != "setup_s"
        }
        check(f"ten clean reruns of {workload} spread within bounds",
              all(spreads[n] <= metrics[n]["bound"] for n in spreads),
              spread=spreads)

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "selftest.json"),
              "w") as handle:
        json.dump(report, handle, indent=1)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
