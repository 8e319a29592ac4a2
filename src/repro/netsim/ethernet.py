"""Shared-medium Ethernet segment.

The paper's cluster is a single 10 Mb/s Ethernet LAN: one shared broadcast
medium that serializes all frames.  We model exactly that — a single
capacity-1 resource held for each frame's transmission time — because the
serialization is what makes centralized communication patterns (PVM's
manager) degrade with processor count, one of the effects behind
Figure 7.

Frames above the MTU are fragmented; each fragment re-arbitrates for the
medium, which lets short frames interleave with bulk transfers the way
real Ethernet does.
"""

from __future__ import annotations

import math

from ..des import Resource, Simulator
from .costs import CostModel

__all__ = ["EthernetSegment"]


class EthernetSegment:
    """A single shared broadcast domain."""

    #: Maximum payload carried by one frame (classic Ethernet MTU).
    MTU = 1500

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "lan0"):
        self.sim = sim
        self.costs = costs
        self.name = name
        self._medium = Resource(sim, capacity=1)
        #: Total bytes carried, for utilization reporting.
        self.bytes_carried: int = 0
        #: Total frames (fragments) carried.
        self.frames_carried: int = 0
        #: Accumulated medium-busy time.
        self.busy_seconds: float = 0.0

    def transmit(self, size_bytes: int):
        """Generator: occupy the medium while sending a payload.

        Drive it inline from a process
        (``yield from segment.transmit(n)``); it completes when the last
        fragment has been received at the far end, and the caller layers
        endpoint costs on top.  An idle medium is taken synchronously,
        so an uncontended fragment costs one timeout.
        """
        if size_bytes < 0:
            raise ValueError(f"negative frame size {size_bytes}")
        return self._transmit(size_bytes)

    def _transmit(self, size_bytes: int):
        fragments = max(1, math.ceil(size_bytes / self.MTU))
        last = size_bytes - (fragments - 1) * self.MTU
        sim = self.sim
        medium = self._medium
        for index in range(fragments):
            payload = self.MTU if index < fragments - 1 else last
            requested = sim.now
            req = medium.acquire()
            try:
                if not req.processed:
                    yield req
                duration = self.costs.wire_seconds(payload)
                start = sim.now
                yield sim.timeout(duration)
                self.busy_seconds += duration
                self.bytes_carried += payload
                self.frames_carried += 1
                metrics = sim.obs
                if metrics is not None:
                    metrics.count("netsim.eth.frames")
                    metrics.count("netsim.eth.bytes", payload)
                    stall = start - requested
                    if stall > 0:
                        # Contention: time spent waiting for the
                        # shared medium (not charged to the ledger —
                        # it overlaps other senders' wire time).
                        metrics.count("netsim.eth.stall_seconds", stall)
                        metrics.observe("netsim.eth.stall", stall)
                    metrics.span(
                        self.name, "frame", "wire", start, sim.now,
                    )
            finally:
                medium.release(req)

    def utilization(self) -> float:
        """Fraction of elapsed virtual time the medium was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_seconds / self.sim.now

    def __repr__(self) -> str:
        return (
            f"<EthernetSegment {self.name} frames={self.frames_carried} "
            f"bytes={self.bytes_carried}>"
        )
