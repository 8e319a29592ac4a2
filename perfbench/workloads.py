"""The benchmark's workloads, driven through the public ``repro`` API.

Four *parts* (``paper_figs``, ``ring_hops``, ``service_2x``,
``conversations``) are combined into the two benchmark workloads:
``figures_service`` runs both systems (Fig 5, Fig 12b and the open-loop
service) and ``hops_mail`` runs MESSENGERS alone (ring hops and saga
chains over replicated mailboxes; no mp, no PVM).  Each part keeps its
own operations, checks and reference outputs.

Each workload is built once per process from ``--seed`` (:meth:`prepare`)
and then run repeatedly (:meth:`run`).  One run is a list of
*operations* — one closed simulated run each, issued one at a time —
and every operation checks its own simulated outputs right after it
returns.  The checks look at observable results only (simulated
seconds, images, matrices, hop counts, request outcomes, mailbox
digests), never at the kernel's event order, so a change that
reorders events but keeps the results passes.

For the default seed the outputs must equal ``reference.json``; for
any other seed they must satisfy the workload's invariants (for
``paper_figs``, whose simulated outputs do not depend on the seed, they
must still equal the reference).  The
reference file is regenerated with ``python3 perfbench/worker.py
--write-reference`` from a checkout whose results are trusted.

Only the call into ``repro`` is timed: building inputs and checking
outputs happen outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field

#: The seed whose simulated outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


@dataclass
class Op:
    """Outcome of one timed operation."""

    name: str
    system: str  # "messengers", "pvm" or "" (neither)
    cpu_s: float
    wall_s: float
    work: float
    outputs: dict
    errors: list = field(default_factory=list)


def measure(name: str, system: str, fn, *args, **kwargs):
    """Run and time one operation: returns ``(op, result)``.

    An exception inside ``repro`` is the operation's failure, not the
    benchmark's: it is recorded on the op and ``result`` is None.
    """
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        result, errors = fn(*args, **kwargs), []
    except Exception as exc:
        result, errors = None, [f"{name}: raised {exc!r}"]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return Op(name, system, cpu, wall, 0, {}, errors), result


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


class Workload:
    """Base class: ``prepare`` once, then ``run`` many times."""

    name = ""
    #: What one unit of ``work_per_cpu_s`` is.
    work_unit = ""
    #: True when the seed changes only data values and no simulated
    #: output, so every seed is checked against the pinned reference.
    outputs_ignore_seed = False

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        #: This workload's pinned outputs, or None for a held-out seed.
        self.reference = None
        if reference and (seed == DEFAULT_SEED or self.outputs_ignore_seed):
            self.reference = reference.get(self.name)

    def prepare(self) -> None:
        """Build the seed's inputs (untimed)."""

    def run(self) -> list[Op]:
        raise NotImplementedError

    def check_reference(self, op: Op) -> None:
        """Default seed: the op's outputs must equal the pinned ones."""
        if self.reference is None:
            return
        expected = self.reference.get(op.name)
        if expected is None:
            op.errors.append(f"{op.name}: no reference outputs")
        elif _canonical(op.outputs) != expected:
            op.errors.append(
                f"{op.name}: outputs {_canonical(op.outputs)} differ "
                f"from reference {expected}"
            )


def _canonical(value):
    """JSON round-trip, so tuples/ints compare like the stored file."""
    return json.loads(json.dumps(value, sort_keys=True))


# -- paper_figs ----------------------------------------------------------------

FIG5_IMAGE = 640
FIG5_GRIDS = (8, 16, 32)
FIG5_PROCS = (1, 2, 8, 32)
FIG12B_M = 3
FIG12B_BLOCKS = (10, 20, 50, 100, 300)


class PaperFigs(Workload):
    """Fig 5 (Mandelbrot 640x640) and Fig 12b (3x3 block matmul), both
    systems: 24 Mandelbrot runs plus 10 matmul runs per benchmark run."""

    name = "paper_figs"
    work_unit = "simulated runs"
    # The seed draws the matrices; simulated time is charged from flop
    # counts and message sizes, which do not depend on their values.
    outputs_ignore_seed = True

    def prepare(self) -> None:
        import numpy as np

        from repro.apps import mandelbrot, matmul

        self.np = np
        self.mandelbrot = mandelbrot
        self.matmul = matmul
        self.grids = {
            g: mandelbrot.TaskGrid(FIG5_IMAGE, g) for g in FIG5_GRIDS
        }
        # The sequential image is the correctness oracle for both
        # distributed runs; computing it also fills the block memo.
        self.images = {
            g: mandelbrot.run_sequential(grid).image
            for g, grid in self.grids.items()
        }
        self.matrices = {}
        for s in FIG12B_BLOCKS:
            a, b = matmul.make_matrices(FIG12B_M * s, seed=self.seed)
            self.matrices[s] = (a, b, a @ b)

    def run(self) -> list[Op]:
        from repro.bench import FIG12B_CPU_SCALE

        np = self.np
        ops = []
        for g, grid in self.grids.items():
            for procs in FIG5_PROCS:
                for system in ("messengers", "pvm"):
                    op, result = measure(
                        f"fig5/{system}/g{g}/p{procs}", system,
                        getattr(self.mandelbrot, f"run_{system}"),
                        grid, procs,
                    )
                    ops.append(op)
                    if result is None:
                        continue
                    op.work, op.outputs = 1, {"seconds": result.seconds}
                    if not np.array_equal(result.image, self.images[g]):
                        op.errors.append(
                            f"{op.name}: image differs from sequential"
                        )
                    self._check_seconds(op)
        for s, (a, b, c) in self.matrices.items():
            for system in ("messengers", "pvm"):
                op, result = measure(
                    f"fig12b/{system}/s{s}", system,
                    getattr(self.matmul, f"run_{system}"),
                    a, b, FIG12B_M, cpu_scale=FIG12B_CPU_SCALE,
                )
                ops.append(op)
                if result is None:
                    continue
                op.work, op.outputs = 1, {"seconds": result.seconds}
                if not np.allclose(result.c, c):
                    op.errors.append(f"{op.name}: C is not close to a @ b")
                self._check_seconds(op)
        return ops

    def _check_seconds(self, op: Op) -> None:
        seconds = op.outputs["seconds"]
        if not (math.isfinite(seconds) and seconds > 0):
            op.errors.append(f"{op.name}: bad simulated seconds {seconds}")
        self.check_reference(op)


# -- ring_hops -----------------------------------------------------------------

RING_DAEMONS = 16
RING_NODES = 6400
RING_WALKERS = 800
RING_HOPS = 16


class RingHops(Workload):
    """800 walker Messengers x 16 remote hops over a 6,400-node logical
    ring striped across 16 daemons: the pure MESSENGERS hop path."""

    name = "ring_hops"
    work_unit = "remote hops"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.starts = [rng.randrange(RING_NODES) for _ in range(RING_WALKERS)]

    def _ring(self):
        from repro.des import Simulator
        from repro.messengers import (
            DaemonNetwork,
            MessengersSystem,
            build_ring,
        )
        from repro.netsim import build_lan
        from repro.perf.scale import WALKER_SCRIPT

        sim = Simulator()
        network = build_lan(sim, RING_DAEMONS)
        system = MessengersSystem(
            network, DaemonNetwork.ring(network.host_names)
        )
        system.retain_finished = False  # scale mode, as in BENCH_scale
        ring = build_ring(system, RING_NODES)
        program = system.compile(WALKER_SCRIPT)
        for start in self.starts:
            node = ring[f"n{start}"]
            system.inject(
                program, (RING_HOPS,), daemon=node.daemon, node=node.name
            )
        sim_seconds = system.run_to_quiescence()
        stats = [d.stats for d in system.daemons.values()]
        return {
            "sim_seconds": sim_seconds,
            "remote_hops": sum(s.hops_out_remote for s in stats),
            "local_hops": sum(s.hops_out_local for s in stats),
            "finished": sum(s.messengers_finished for s in stats),
            "lost": sum(s.messengers_lost for s in stats),
        }

    def run(self) -> list[Op]:
        op, outputs = measure("ring", "messengers", self._ring)
        if outputs is None:
            return [op]
        op.work, op.outputs = outputs["remote_hops"], outputs
        expected_hops = RING_WALKERS * RING_HOPS
        if outputs["remote_hops"] != expected_hops:
            op.errors.append(
                f"ring: {outputs['remote_hops']} remote hops, "
                f"expected {expected_hops}"
            )
        if outputs["local_hops"] or outputs["lost"]:
            op.errors.append(f"ring: local or lost hops in {outputs}")
        if outputs["finished"] != RING_WALKERS:
            op.errors.append(
                f"ring: {outputs['finished']} walkers finished, "
                f"expected {RING_WALKERS}"
            )
        if not (math.isfinite(outputs["sim_seconds"])
                and outputs["sim_seconds"] > 0):
            op.errors.append(f"ring: bad sim_seconds {outputs}")
        self.check_reference(op)
        return [op]


# -- service_2x ----------------------------------------------------------------

SERVICE_HOSTS = 4  # 1 frontend + 3 servers: ~250 rps saturation
SERVICE_RATE = 500.0
SERVICE_DURATION_S = 6.0
SERVICE_LOSS = 0.05
SERVICE_CRASH = ("host2", 1.5, 3.5)  # host, crash at, restart at
SERVICE_DEADLINE_MS = 50.0


class Service2x(Workload):
    """Open-loop Poisson arrivals at 2x saturation for 6 simulated
    seconds, degradation stack armed, 5% loss and one server
    crash/restart; one run per system."""

    name = "service_2x"
    work_unit = "requests resolved"

    def _service(self, system: str) -> dict:
        from repro import Cluster, ClusterConfig, ResiliencePolicy
        from repro.faults import FaultPlan
        from repro.service import ServiceConfig

        host, crash_at, restart_at = SERVICE_CRASH
        plan = (
            FaultPlan()
            .drop(SERVICE_LOSS)
            .crash(host, at=crash_at)
            .restart(host, at=restart_at)
        )
        config = ClusterConfig(
            n_hosts=SERVICE_HOSTS,
            service=ServiceConfig(
                rate_rps=SERVICE_RATE, duration_s=SERVICE_DURATION_S
            ),
            faults=plan,
            resilience=ResiliencePolicy(),
            seed=self.seed,
        )
        return Cluster(config=config).service.run(system)

    def run(self) -> list[Op]:
        ops = []
        for system in ("messengers", "pvm"):
            op, stats = measure(f"service/{system}", system,
                                self._service, system)
            ops.append(op)
            if stats is None:
                continue
            op.outputs = {
                "arrivals": stats["arrivals"],
                "outcomes": stats["outcomes"],
                "latency_ms": stats["latency_ms"],
                "open_requests": stats["open_requests"],
                "duplicate_resolutions": stats["duplicate_resolutions"],
            }
            resolved = op.work = sum(stats["outcomes"].values())
            if stats["open_requests"] or stats["duplicate_resolutions"]:
                op.errors.append(f"{op.name}: open or duplicate requests")
            if resolved != stats["arrivals"]:
                op.errors.append(
                    f"{op.name}: {resolved} resolved of "
                    f"{stats['arrivals']} arrivals"
                )
            if not stats["outcomes"].get("completed"):
                op.errors.append(f"{op.name}: nothing completed")
            lat = stats["latency_ms"]
            if not (0 < lat["p50"] <= lat["p99"] <= lat["p999"]
                    <= SERVICE_DEADLINE_MS):
                op.errors.append(f"{op.name}: bad latency quantiles {lat}")
            self.check_reference(op)
        return ops


# -- conversations -------------------------------------------------------------

CONV_HOSTS = 4
#: Replication factor -> saga chains started over the start window.
#: Factor 3 costs more replica traffic per mail and, pushed past ~2
#: chain starts per simulated second, stops recovering from the
#: partition backlog (most chains then time out), so it runs at a
#: lower rate; both rates keep compensation down to the chains the
#: partition strands.
CONV_CHAINS = {2: 100, 3: 30}
CONV_CHAIN_LEN = 4
CONV_START_WINDOW_S = 20.0
CONV_PARTITION = (7.0, 10.0)  # cut hosts {0,1} from {2,3} in this window
CONV_DEADLINE_S = 1.0  # a chain still running this long after its start compensates
CONV_POLL_S = 0.01


class _Chains:
    """Saga chains of one coordinator: each reply triggers the next
    step's request; a chain still running at its deadline sends an undo
    to every participant that already did work."""

    def __init__(self, cluster, coordinator, routes):
        self.cluster = cluster
        self.coordinator = coordinator
        #: chain id -> participant of each step (drawn from the seed).
        self.routes = routes
        self.state = {cid: [] for cid in routes}  # done steps
        self.outcome = {}
        cluster.consumer(coordinator, self.on_reply)

    def start(self, cid):
        self.request(cid, 0)

    def request(self, cid, step):
        self.cluster.mail.request(
            self.routes[cid][step],
            {"chain": cid, "step": step},
            subject="step",
            frm=self.coordinator,
        )

    def on_reply(self, mail):
        cid = mail.body["chain"]
        if cid in self.outcome:
            return
        done = self.state[cid]
        done.append(mail.body["step"])
        if len(done) == CONV_CHAIN_LEN:
            self.outcome[cid] = "completed"
        else:
            self.request(cid, len(done))

    def deadline(self, cid):
        if cid in self.outcome:
            return
        self.outcome[cid] = "compensated"
        for step in self.state[cid]:
            self.cluster.send_mail(
                self.routes[cid][step],
                {"chain": cid, "undo": step},
                subject="compensate",
                frm=self.coordinator,
            )


class Conversations(Workload):
    """Saga chains over replicated mailboxes (factor 2 and 3) with a
    partition window and a heal: quorum writes, reads and gossip
    anti-entropy side by side.  Bypasses MCL and mp."""

    name = "conversations"
    work_unit = "mails delivered"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        participants = [f"part{i}" for i in range(CONV_HOSTS)]
        self.plans = {}
        for factor, chains in CONV_CHAINS.items():
            routes = {
                cid: [rng.choice(participants)
                      for _ in range(CONV_CHAIN_LEN)]
                for cid in range(chains)
            }
            starts = {
                cid: round(rng.uniform(0.0, CONV_START_WINDOW_S), 6)
                for cid in range(chains)
            }
            self.plans[factor] = (routes, starts)

    def _conversations(self, factor: int) -> dict:
        from repro import Cluster, ClusterConfig, MailboxConfig
        from repro.faults import FaultPlan
        from repro.replication import ReplicationConfig

        cut_at, heal_at = CONV_PARTITION
        plan = FaultPlan()
        for a in ("host0", "host1"):
            for b in ("host2", "host3"):
                plan.partition(a, b, at=cut_at)
                plan.heal(a, b, at=heal_at)
        c = Cluster(config=ClusterConfig(
            n_hosts=CONV_HOSTS,
            mailbox=MailboxConfig(
                poll_interval_s=CONV_POLL_S,
                replication=ReplicationConfig(factor=factor),
            ),
            faults=plan,
            seed=self.seed,
        ))
        undone = []

        def participant(mail):
            if mail.subject == "step":
                c.mail.reply(mail, dict(mail.body))
            elif mail.subject == "compensate":
                undone.append((mail.body["chain"], mail.body["undo"]))

        for index in range(CONV_HOSTS):
            c.add_node(f"part{index}", daemon=f"host{index}")
            c.consumer(f"part{index}", participant)
        routes, starts = self.plans[factor]
        coordinators = []
        for coord, daemon, parity in (("coord_a", "host0", 0),
                                      ("coord_b", "host2", 1)):
            c.add_node(coord, daemon=daemon)
            mine = {cid: r for cid, r in routes.items() if cid % 2 == parity}
            chains = _Chains(c, coord, mine)
            coordinators.append(chains)
            for cid in sorted(mine):
                c.schedule(starts[cid],
                           lambda cl, ch=chains, i=cid: ch.start(i))
                c.schedule(starts[cid] + CONV_DEADLINE_S,
                           lambda cl, ch=chains, i=cid: ch.deadline(i))
        c.run_to_quiescence()

        service = c.mail
        repl = service.replication
        outcomes = {}
        for chains in coordinators:
            for state in chains.outcome.values():
                outcomes[state] = outcomes.get(state, 0) + 1
        boxes = service.mailboxes
        lifecycle = service.lifecycle_counts()
        return {
            "chains": dict(sorted(outcomes.items())),
            "undone": len(undone),
            "delivered": service.counts.get("delivered", 0),
            "read_digest": service.read_digest(),
            "lifecycle_digest": service.lifecycle_digest(),
            "converged": repl.stats()["dirty"] == 0 and all(
                len(set(repl.digests(box.node.uid).values())) <= 1
                for box in boxes
            ),
            "unread": lifecycle["sent"] - lifecycle["read"],
            "misread": sum(
                1 for box in boxes for mail in box.mails
                if mail.status != "read" or mail.read_count != 1
            ),
            "makespan_s": c.now,
        }

    def run(self) -> list[Op]:
        ops = []
        for factor, n_chains in CONV_CHAINS.items():
            op, outputs = measure(f"conversations/f{factor}", "",
                                  self._conversations, factor)
            ops.append(op)
            if outputs is None:
                continue
            op.work, op.outputs = outputs["delivered"], outputs
            chains = outputs["chains"]
            if sum(chains.values()) != n_chains or set(chains) - {
                "completed", "compensated"
            }:
                op.errors.append(f"{op.name}: chain outcomes {chains}")
            if not chains.get("completed"):
                op.errors.append(f"{op.name}: no chain completed")
            if not outputs["converged"]:
                op.errors.append(f"{op.name}: replicas did not converge")
            if outputs["unread"] or outputs["misread"]:
                op.errors.append(
                    f"{op.name}: {outputs['unread']} pending, "
                    f"{outputs['misread']} not read exactly once"
                )
            self.check_reference(op)
        return ops


# -- the benchmark workloads ---------------------------------------------------


class Composite(Workload):
    """Parts run back to back, each with its own operations and checks."""

    parts: tuple = ()

    def __init__(self, seed: int, reference: dict | None):
        super().__init__(seed, reference)
        self.components = [cls(seed, reference) for cls in self.parts]

    def prepare(self) -> None:
        for part in self.components:
            part.prepare()

    def run(self) -> list[Op]:
        return [op for part in self.components for op in part.run()]


class FiguresService(Composite):
    """Both systems: Fig 5 and Fig 12b (34 simulated runs) and the
    open-loop service at 2x saturation (one run per system)."""

    name = "figures_service"
    work_unit = "simulated runs"
    parts = (PaperFigs, Service2x)

    def run(self) -> list[Op]:
        ops = super().run()
        for op in ops:
            op.work = 1 if op.outputs else 0
        return ops


class HopsMail(Composite):
    """MESSENGERS only: the ring hop path, then saga chains over
    replicated mailboxes.  Bypasses mp and PVM."""

    name = "hops_mail"
    work_unit = "remote hops + mails delivered"
    parts = (RingHops, Conversations)


PARTS = {
    cls.name: cls for cls in (PaperFigs, RingHops, Service2x, Conversations)
}
WORKLOADS = {cls.name: cls for cls in (FiguresService, HopsMail)}
