"""Hop-path observables: what the model computes, not how the kernel
schedules it.

The golden trace digests in ``tests/test_perf_determinism.py`` pin the
*kernel's* event schedule — every event id, including the bookkeeping
events (process start-ups, resource grants, queue puts) that carry no
simulated meaning.  A change that removes such bookkeeping moves those
pins while leaving the model untouched.  This file pins the model's
observables only, so it must hold across any such change:

* each Messenger's **journey** — the ``(time, kind, daemon, node)``
  of every :class:`~repro.messengers.trace.Tracer` event, grouped by
  Messenger (ids are process-global, so journeys are compared as a
  sorted collection rather than by raw id);
* the **simulated outputs** — final clocks, result images and
  matrices, fault counters, hop counts, mailbox digests;
* the **cost ledger** — every simulator's per-category
  :class:`~repro.obs.MetricsRegistry` totals.

Every float is folded in by its exact ``repr``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from hashlib import blake2b

import pytest

from repro.apps.mandelbrot.kernel import TaskGrid
from repro.apps.mandelbrot.messengers_app import run_messengers
from repro.apps.mandelbrot.pvm_app import run_pvm
from repro.apps.matmul.kernel import make_matrices
from repro.apps.matmul.messengers_app import run_messengers as run_matmul
from repro.bench.conversations_experiments import run_conversations_scenario
from repro.des import Simulator
from repro.faults import FaultPlan
from repro.messengers import MessengersSystem
from repro.messengers.trace import Tracer
from repro.obs import MetricsRegistry
from repro.perf.scale import run_scale_point

GRID = TaskGrid(64, 4)
PROCS = 3

#: scenario -> (journeys digest, outputs digest, ledger digest)
EXPECTED = {
    "conversations_partition": (
        "7ebb3c7c2a87b1a2f8a7ed729ecb040d",
        "6d64ed8f0bd2ccfd2f52e05214313462",
        "208a757780c3ff5f248a5b00340cfbad",
    ),
    "fig5_messengers": (
        "2ebcaaa71c4eb9ecc02417aa11a8511b",
        "a8593cbeea431fbc1f46811f284f6344",
        "847ff69a8ce6fcaf865d20c36096e0f4",
    ),
    "fig5_pvm": (
        "7ebb3c7c2a87b1a2f8a7ed729ecb040d",
        "981981c11d2a18ee1cd79c977e7cfba2",
        "f2b9d3dc5f3a4caba126771430dc2e0a",
    ),
    "lossy_messengers": (
        "e1bc6695d214230f1e917f261ff17bb8",
        "9ca8d269e3e51b304359f6bb552a04b0",
        "016edbcf80c0fdf82e8feeba23e6cdf7",
    ),
    "lossy_pvm": (
        "7ebb3c7c2a87b1a2f8a7ed729ecb040d",
        "d5e5a8dba2311f2e6d5061f30c46c845",
        "fd370c986a1b7a2269086d27e34fe83e",
    ),
    "matmul_2x2": (
        "bc77798b5703ed9a7dd31de11814981a",
        "37ea61a011b3812f7c79cedcb9ca23a1",
        "0cc2a4feb298a317849ec7dacbf6aadd",
    ),
    "ring_4d_64n_8w": (
        "9d2d5ae84cff48624caad1e2408cacf6",
        "a8aabc9bea619bc7db03073f5665266c",
        "08549c416164d09a042129b3627a56ff",
    ),
}


def _digest(value) -> str:
    return blake2b(
        json.dumps(value, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


def _bytes_digest(raw: bytes) -> str:
    return blake2b(raw, digest_size=16).hexdigest()


@contextmanager
def _observed():
    """Attach a metrics registry to every simulator and a tracer to
    every MESSENGERS system built inside the block."""
    sims: list = []
    tracers: list = []
    sim_init = Simulator.__init__
    system_init = MessengersSystem.__init__

    def patched_sim_init(self, *args, **kwargs):
        sim_init(self, *args, **kwargs)
        self.metrics = MetricsRegistry()
        sims.append(self)

    def patched_system_init(self, *args, **kwargs):
        system_init(self, *args, **kwargs)
        tracers.append(Tracer.attach(self))

    Simulator.__init__ = patched_sim_init
    MessengersSystem.__init__ = patched_system_init
    try:
        yield sims, tracers
    finally:
        Simulator.__init__ = sim_init
        MessengersSystem.__init__ = system_init


def _journeys(tracers) -> list:
    by_messenger: dict = {}
    for tracer in tracers:
        for event in tracer.events:
            by_messenger.setdefault(event.messenger, []).append(
                (repr(event.time), event.kind, event.daemon, event.node)
            )
    return sorted(by_messenger.values())


def _ledgers(sims) -> list:
    return [
        sorted((k, repr(v)) for k, v in sim.metrics.ledger.items())
        for sim in sims
        if sim.metrics is not None
    ]


def _observe(run):
    """Digests of one scenario: ``run()`` returns its outputs dict."""
    with _observed() as (sims, tracers):
        outputs = run()
    return (
        _digest(_journeys(tracers)),
        _digest(outputs),
        _digest(_ledgers(sims)),
    )


def _mandelbrot(runner, **kwargs):
    def run():
        result = runner(GRID, PROCS, **kwargs)
        return {
            "seconds": repr(result.seconds),
            "image": _bytes_digest(result.image.tobytes()),
            "faults": result.stats.get("faults", {}),
        }

    return run


def _matmul():
    a, b = make_matrices(60, seed=0)
    result = run_matmul(a, b, 2)
    return {
        "seconds": repr(result.seconds),
        "c": _bytes_digest(result.c.tobytes()),
        "gvt_rounds": result.gvt_rounds,
        "hops_remote": result.hops_remote,
    }


def _ring():
    point = run_scale_point(4, 64, 8)
    return {
        "sim_seconds": repr(point["sim_seconds"]),
        "remote_hops": point["remote_hops"],
    }


def _conversations():
    result = run_conversations_scenario(partition=True)
    return {k: repr(v) if isinstance(v, float) else v
            for k, v in result.items()}


SCENARIOS = {
    "fig5_messengers": _mandelbrot(run_messengers),
    "fig5_pvm": _mandelbrot(run_pvm),
    "lossy_messengers": _mandelbrot(
        run_messengers, faults=FaultPlan().drop(0.05), seed=7
    ),
    "lossy_pvm": _mandelbrot(
        run_pvm, faults=FaultPlan().drop(0.05), seed=7
    ),
    "matmul_2x2": _matmul,
    "ring_4d_64n_8w": _ring,
    "conversations_partition": _conversations,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observables_unchanged(name):
    journeys, outputs, ledger = _observe(SCENARIOS[name])
    expected = EXPECTED[name]
    assert outputs == expected[1], f"{name}: simulated outputs diverged"
    assert journeys == expected[0], f"{name}: a Messenger journey diverged"
    assert ledger == expected[2], f"{name}: cost ledger diverged"
