"""One benchmark worker process: set up, warm, measure, print JSON.

``run.py`` starts this script in a fresh interpreter for every setup
sample.  The worker pins numpy's BLAS to one thread before numpy is
imported, imports ``repro`` from the checkout's ``src/`` (never from an
installed copy), builds the workload from ``--seed``, runs it once to
warm (app-kernel memos, MCL compiles), and reports ``setup_s``: the
time from the parent's spawn stamp ``--t0`` to warm.  It then runs the
workload repeatedly for up to ``--budget`` seconds and prints one JSON object
as the last line of its standard output.

``--trace 1`` adds one profiled run after the untraced ones and
reports the per-layer metrics (see ``attribution.py``).

``--inject LAYER`` wraps one public function of ``netsim`` or ``mp``
with a fixed busy-spin; it exists for ``selftest.py`` only.

``--write-reference`` runs every workload part once at the default seed and
rewrites ``reference.json`` with the observed outputs.
"""

from __future__ import annotations

import os

#: Set before numpy (and its BLAS) is first imported.
BLAS_THREADS = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(
        os.path.realpath(SRC) + os.sep
    ):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


class GcTimer:
    """Host time spent in the cyclic garbage collector."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, _info):
        if phase == "start":
            self._start = time.process_time()
        else:
            self.seconds += time.process_time() - self._start
            self.collections += 1

    def reset(self):
        self.seconds = 0.0
        self.collections = 0


def run_once(workload, gc_timer: GcTimer) -> dict:
    """One benchmark run: a list of checked operations, each timed."""
    gc.collect()
    gc_timer.reset()
    ops = workload.run()
    return {
        "ops": [
            {"name": op.name, "system": op.system, "cpu_s": op.cpu_s,
             "wall_s": op.wall_s, "work": op.work}
            for op in ops
        ],
        "failed_ops": sum(1 for op in ops if op.errors),
        "errors": [e for op in ops for e in op.errors],
        "gc_s": gc_timer.seconds,
        "gc_collections": gc_timer.collections,
    }


# -- host speed probe ----------------------------------------------------------

#: Probe repetitions after every measured run.
PROBE_REPEATS = 8


def speed_probe() -> float:
    """CPU seconds of one fixed pure-Python kernel (~10 ms).

    A small discrete-event loop (generators on a binary heap, dicts,
    tuples) that looks like the simulator's hot path but shares none
    of its code, so it runs the same on every commit.  Its fastest time
    over a benchmark run says how fast the host was during that run.
    Never change it: ``run.py`` scales every time by it.
    """
    cpu0 = time.process_time()
    queue: list = []
    store: dict = {}

    def proc(i):
        acc = 0
        for k in range(50):
            msg = {"src": i, "k": k, "payload": (i, k, acc)}
            store[i, k & 7] = msg
            acc += len(msg["payload"]) + (i * k) % 13
            yield ((i * k) % 17 + 1) * 1e-3

    seq = 0
    for i in range(200):
        seq += 1
        heapq.heappush(queue, (0.0, seq, proc(i)))
    while queue:
        now, _, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq, gen))
    return time.process_time() - cpu0


# -- injected slowdown (attribution self-test) ---------------------------------

#: Busy-spin iterations added to every call of the wrapped function.
SPIN_ITERATIONS = {"netsim": 3000, "mp": 10000}

_SPIN_SOURCE = """
def wrap(original, iterations):
    def spun(*args, **kwargs):
        for _ in range(iterations):
            pass
        return original(*args, **kwargs)
    return spun
"""


def inject(layer: str) -> None:
    """Wrap one public function of ``layer`` with a fixed busy-spin.

    The wrapper is compiled under the wrapped module's file name, so the
    profiler sees the spin as that layer's own code — exactly as a
    regression inside the layer would look.
    """
    if layer == "netsim":
        from repro.netsim import transport

        owner, name, module = transport.Network, "enqueue", transport
    elif layer == "mp":
        from repro.mp import task

        owner, name, module = task.TaskContext, "send", task
    else:
        raise SystemExit(f"perfbench: cannot inject into {layer!r}")
    namespace: dict = {}
    exec(compile(_SPIN_SOURCE, module.__file__, "exec"), namespace)
    setattr(owner, name, namespace["wrap"](
        getattr(owner, name), SPIN_ITERATIONS[layer]
    ))


# -- traced run ----------------------------------------------------------------


class Instances:
    """Records every instance of some classes built inside the block."""

    def __init__(self, *classes):
        self.classes = classes
        self.found = {cls: [] for cls in classes}
        self._saved = []

    def __enter__(self):
        for cls in self.classes:
            original = cls.__init__
            found = self.found[cls]

            def init(obj, *args, _original=original, _found=found,
                     **kwargs):
                _original(obj, *args, **kwargs)
                _found.append(obj)

            self._saved.append((cls, original))
            cls.__init__ = init
        return self

    def __exit__(self, *exc):
        for cls, original in self._saved:
            cls.__init__ = original


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def traced_run(workload, untraced_cpu_s: float) -> dict:
    """Count one run, profile another; return the per-layer metrics.

    The work counters come from a run with the event hasher and the
    instance recorders attached; the profile comes from a separate run
    with nothing but the profiler attached, so neither instrument shows
    up in the other's numbers.  Both go part by part, so that each
    ``des.*_per_*`` ratio is measured on the part that does that work
    (hops on ``ring_hops``, requests on ``service_2x``, mails on
    ``conversations``, packets on ``paper_figs``).
    """
    import cProfile
    import pstats

    from repro.mailbox import MailboxService
    from repro.messengers import MessengersSystem
    from repro.netsim import Network
    from repro.perf import hashing_all_simulators

    import attribution

    classifier = attribution.Classifier(SRC, HERE)
    counted: list = []
    ops: list = []
    profilers = []
    traced_cpu = 0.0
    networks: list = []
    daemons: list = []
    services: list = []
    #: part name -> the counts that its own ratios divide.
    by_part: dict = {}
    for part in getattr(workload, "components", [workload]):
        with hashing_all_simulators() as hasher, Instances(
            Network, MessengersSystem, MailboxService
        ) as seen:
            part_counted = part.run()
        counted += part_counted

        gc.collect()
        profiler = cProfile.Profile()
        cpu0 = time.process_time()
        profiler.enable()
        ops += part.run()
        # Close the run's abandoned generators inside the profile: when
        # the collector happens to run must not change the call counts.
        gc.collect()
        profiler.disable()
        traced_cpu += time.process_time() - cpu0
        profilers.append(profiler)

        part_networks = seen.found[Network]
        part_daemons = [
            d for system in seen.found[MessengersSystem]
            for d in system.daemons.values()
        ]
        networks += part_networks
        daemons += part_daemons
        services += seen.found[MailboxService]
        by_part[part.name] = {
            "events": hasher.events,
            "spawns": attribution.calls_of(
                pstats.Stats(profiler).stats, "des/core.py", "process"
            ),
            "remote_hops": sum(d.stats.hops_out_remote for d in part_daemons),
            "requests": sum(
                op.outputs["arrivals"] for op in part_counted
                if op.name.startswith("service/")
            ),
            "mails": sum(
                s.counts.get("delivered", 0)
                for s in seen.found[MailboxService]
            ),
            "packets": sum(n.delivered for n in part_networks),
        }

    def per(part, numerator, denominator):
        """A ratio measured on the one part whose work it describes."""
        counts = by_part.get(part)
        if counts is None:
            return 0.0
        return _ratio(counts[numerator], counts[denominator])

    stats = pstats.Stats(*profilers).stats
    folded = attribution.attribute(stats, classifier)
    clock_total = sum(folded["self"].values())
    scale = _ratio(traced_cpu, clock_total)
    self_cpu = {k: v * scale for k, v in folded["self"].items()}

    def self_s(layer):
        return self_cpu.get(layer, 0.0)

    mail_counts: dict = {}
    repl_counts: dict = {}
    for service in services:
        for k, v in service.counts.items():
            mail_counts[k] = mail_counts.get(k, 0) + v
        if service.replication is not None:
            for k, v in service.replication.counts.items():
                repl_counts[k] = repl_counts.get(k, 0) + v
    events = sum(c["events"] for c in by_part.values())
    spawns = attribution.calls_of(stats, "des/core.py", "process")
    remote_hops = sum(d.stats.hops_out_remote for d in daemons)
    local_hops = sum(d.stats.hops_out_local for d in daemons)
    instructions = sum(d.stats.instructions for d in daemons)
    packets = sum(n.delivered for n in networks)
    retransmits = sum(
        n.faults.counts.get("retransmits", 0)
        for n in networks if n.faults is not None
    )
    messages = attribution.calls_from_layer(
        stats, classifier, "netsim/transport.py", "enqueue", "mp"
    )
    requests = completed = 0
    for op in counted:
        if op.name.startswith("service/"):
            requests += op.outputs["arrivals"]
            completed += op.outputs["outcomes"].get("completed", 0)
    delivered = mail_counts.get("delivered", 0)
    edges = folded["edges"]
    crossings = sum(edge[0] for edge in edges.values())

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{workload.name}.json"),
              "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": workload.seed,
            "clock_to_cpu_scale": scale,
            "edges": [
                {"caller": a, "callee": b, "count": e[0],
                 "total_s": e[1] * scale, "self_s": e[2] * scale}
                for (a, b), e in sorted(edges.items())
            ],
            "self_cpu_s": dict(sorted(self_cpu.items())),
        }, handle, indent=1)

    return {
        "des.events": events,
        "des.process_spawns": spawns,
        "des.timeouts": attribution.calls_of(stats, "des/core.py", "timeout"),
        "des.self_cpu_s": self_s("des"),
        "des.cpu_us_per_event": _ratio(self_s("des") * 1e6, events),
        "des.events_per_remote_hop": per("ring_hops", "events",
                                         "remote_hops"),
        "des.spawns_per_remote_hop": per("ring_hops", "spawns",
                                         "remote_hops"),
        "des.events_per_request": per("service_2x", "events", "requests"),
        "des.events_per_mail": per("conversations", "events", "mails"),
        "des.events_per_packet": per("paper_figs", "events", "packets"),
        "messengers.remote_hops": remote_hops,
        "messengers.local_hops": local_hops,
        "messengers.self_cpu_s": self_s("messengers"),
        "messengers.cpu_us_per_hop": _ratio(
            self_s("messengers") * 1e6, remote_hops + local_hops
        ),
        "netsim.packets": packets,
        "netsim.bytes": sum(n.segment.bytes_carried for n in networks),
        "netsim.retransmits": retransmits,
        "netsim.self_cpu_s": self_s("netsim"),
        "netsim.cpu_us_per_packet": _ratio(self_s("netsim") * 1e6, packets),
        "mp.messages": messages,
        "mp.self_cpu_s": self_s("mp"),
        "mp.cpu_us_per_message": _ratio(self_s("mp") * 1e6, messages),
        "mcl.instructions": instructions,
        "mcl.self_cpu_s": self_s("mcl"),
        "mcl.cpu_ns_per_instruction": _ratio(
            self_s("mcl") * 1e9, instructions
        ),
        "mcl.share": _ratio(self_s("mcl"), traced_cpu),
        "apps.self_cpu_s": self_s("apps"),
        "gvt.self_cpu_s": self_s("gvt"),
        "service.requests": requests,
        "service.completed": completed,
        "service.goodput_ratio": _ratio(completed, requests),
        "service.self_cpu_s": self_s("service"),
        "resilience.self_cpu_s": self_s("resilience"),
        "mailbox.sent": mail_counts.get("sent", 0),
        "mailbox.delivered": delivered,
        "mailbox.read": mail_counts.get("read", 0),
        "mailbox.self_cpu_s": self_s("mailbox"),
        "replication.quorum_writes": repl_counts.get("quorum_writes", 0),
        "replication.gossip_rounds": repl_counts.get("gossip_rounds", 0),
        "replication.repairs": repl_counts.get("repairs", 0),
        # Mailboxes repaired per gossip exchange started.
        "replication.gossip_useful_ratio": _ratio(
            repl_counts.get("mailboxes_repaired", 0),
            repl_counts.get("gossip_syns", 0),
        ),
        "replication.self_cpu_s": self_s("replication"),
        "faults.self_cpu_s": self_s("faults"),
        "runtime.unattributed_cpu_s": self_s(attribution.UNATTRIBUTED),
        "trace.overhead_ratio": _ratio(traced_cpu, untraced_cpu_s),
        "trace.boundary_crossings": crossings,
        "trace.attributed_share": 1.0 - _ratio(
            self_s(attribution.UNATTRIBUTED), traced_cpu
        ),
        "_errors": [e for op in counted + ops for e in op.errors],
        "_ops": len(counted) + len(ops),
        "_failed_ops": sum(1 for op in counted + ops if op.errors),
    }


# -- entry points --------------------------------------------------------------


def write_reference() -> None:
    import workloads

    reference = {}
    for name, cls in workloads.PARTS.items():
        workload = cls(workloads.DEFAULT_SEED, None)
        workload.prepare()
        outputs = {op.name: op.outputs for op in workload.run()}
        reference[name] = workloads._canonical(outputs)
        print(f"{name}: {len(outputs)} operations", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("netsim", "mp"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.perf_counter()
    # One thread on one CPU: no migrations between cores mid-run.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    import_repro()
    sys.path.insert(0, HERE)
    import workloads

    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.inject:
        inject(args.inject)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_reference()
    )
    gc_timer = GcTimer()
    workload.prepare()
    warm = run_once(workload, gc_timer)
    setup_s = time.perf_counter() - t0
    warm["ops"] = len(warm["ops"])

    # Repeat until a next run as long as the last would end past the
    # budget.
    runs = []
    probe_s = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(run_once(workload, gc_timer))
        # Collect the run's garbage first, so no probe pays for it.
        gc.collect()
        gc.disable()
        probe_s += [speed_probe() for _ in range(PROBE_REPEATS)]
        gc.enable()
        now = time.perf_counter()
        if now - start + (now - began) > args.budget:
            break
    result = {
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "blas_threads": BLAS_THREADS,
        "setup_s": setup_s,
        "warm": {k: warm[k] for k in ("ops", "failed_ops", "errors")},
        "runs": runs,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if args.trace:
        gc.callbacks.remove(gc_timer._callback)
        cpus = sorted(
            sum(op["cpu_s"] for op in run["ops"]) for run in runs
        )
        result["layers"] = traced_run(workload, cpus[len(cpus) // 2])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
