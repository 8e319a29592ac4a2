"""Work-counter gate for the MESSENGERS hop path.

Deterministic counts, not timings, so the gate cannot flake: on the
4-daemon / 64-node / 8-walker ring every hop is remote, and the daemon's
CPU charges, the NIC's wire time and the hand-offs between them run
inline in the long-lived pumps.  A remote hop therefore costs a handful
of kernel events (the CPU and wire timeouts plus the queue wake-ups)
and spawns no process at all.  Re-introducing a per-hop spawn or a
zero-waiter event shows up here as a count, by name.
"""

from collections import Counter

from repro.des import Simulator
from repro.perf import hashing_all_simulators
from repro.perf.scale import run_scale_point

#: Long-lived service loops started once per host at build time.
PUMPS = ("_tx_pump", "_arrival_pump", "_interpreter_loop")
DAEMONS = 4

MAX_EVENTS_PER_REMOTE_HOP = 10


def _ring_counts():
    spawned: Counter = Counter()
    process = Simulator.process

    def counting(self, generator, daemon=False):
        spawned[generator.__name__] += 1
        return process(self, generator, daemon)

    Simulator.process = counting
    try:
        with hashing_all_simulators() as hasher:
            point = run_scale_point(DAEMONS, 64, 8)
    finally:
        Simulator.process = process
    return hasher.events, spawned, point["remote_hops"]


def test_ring_hop_work_counters():
    events, spawned, remote_hops = _ring_counts()
    assert remote_hops == 128
    per_hop = events / remote_hops
    assert per_hop <= MAX_EVENTS_PER_REMOTE_HOP, (
        f"{per_hop:.2f} kernel events per remote hop "
        f"(gate {MAX_EVENTS_PER_REMOTE_HOP})"
    )
    for pump in PUMPS:
        assert spawned.pop(pump, 0) == DAEMONS, f"{pump} not one per host"
    assert not spawned, f"per-hop process spawns: {dict(spawned)}"
