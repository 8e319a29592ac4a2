"""Unit tests for the physical substrate: costs, hosts, Ethernet, network."""

import pytest

from repro.des import Interrupt, Simulator
from repro.netsim import (
    CacheModel,
    CostModel,
    EthernetSegment,
    Host,
    Network,
    Packet,
    build_lan,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def costs():
    return CostModel()


class TestCacheModel:
    def test_in_cache_is_free(self):
        cache = CacheModel(capacity_bytes=1 << 20, penalty=3.0)
        assert cache.factor(1000) == 1.0
        assert cache.factor(1 << 20) == 1.0

    def test_factor_monotone_in_working_set(self):
        cache = CacheModel(capacity_bytes=1 << 20, penalty=3.0)
        sizes = [2 << 20, 8 << 20, 64 << 20, 1 << 30]
        factors = [cache.factor(s) for s in sizes]
        assert factors == sorted(factors)
        assert all(f > 1.0 for f in factors)

    def test_factor_saturates_at_penalty(self):
        cache = CacheModel(capacity_bytes=1024, penalty=2.5)
        assert cache.factor(1e15) == pytest.approx(3.5, rel=1e-6)


class TestCostModel:
    def test_with_overrides(self, costs):
        modified = costs.with_(cpu_flops=1e9)
        assert modified.cpu_flops == 1e9
        assert costs.cpu_flops != 1e9  # original untouched (frozen)

    def test_compute_seconds_scales_with_cpu(self, costs):
        base = costs.compute_seconds(1e6)
        fast = costs.compute_seconds(1e6, cpu_scale=2.0)
        assert fast == pytest.approx(base / 2)

    def test_compute_seconds_cache_penalty(self, costs):
        small = costs.compute_seconds(1e6, working_set_bytes=1024)
        large = costs.compute_seconds(1e6, working_set_bytes=1 << 28)
        assert large > small

    def test_wire_seconds(self, costs):
        t = costs.wire_seconds(10_000)
        assert t == pytest.approx(
            costs.wire_latency_s + 10_000 / costs.bandwidth_bytes_per_s
        )


class TestHost:
    def test_compute_charges_time(self, sim, costs):
        host = Host(sim, "h0", costs)

        def proc(sim):
            yield sim.process(host.compute(costs.cpu_flops))  # 1 second

        p = sim.process(proc(sim))
        sim.run(until=p)
        assert sim.now == pytest.approx(1.0)
        assert host.busy_seconds == pytest.approx(1.0)

    def test_cpu_serializes_jobs(self, sim, costs):
        host = Host(sim, "h0", costs)

        def job(sim):
            yield sim.process(host.compute(costs.cpu_flops))

        sim.process(job(sim))
        sim.process(job(sim))
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_inline_busy_costs_one_timeout(self, sim, costs):
        host = Host(sim, "h0", costs)

        def proc(sim):
            yield from host.busy(0.5)

        sim.process(proc(sim))
        sim.run()
        before = sim._eid
        sim.process(proc(sim))
        sim.run()
        # Process start, the busy timeout, the process exit: no CPU
        # grant event and no nested process.
        assert sim._eid - before == 3
        assert host.busy_seconds == pytest.approx(1.0)

    def test_interrupted_busy_frees_the_cpu(self, sim, costs):
        host = Host(sim, "h0", costs)
        ends = []

        def job(sim):
            try:
                yield from host.busy(1.0)
            except Interrupt:
                ends.append(("interrupted", sim.now))
                return
            ends.append(("done", sim.now))

        first = sim.process(job(sim))
        queued = sim.process(job(sim))

        def killer(sim):
            yield sim.timeout(0.25)
            queued.interrupt()
            first.interrupt()

        sim.process(killer(sim))
        sim.process(job(sim))
        sim.run()
        assert ends == [
            ("interrupted", 0.25), ("interrupted", 0.25), ("done", 1.25),
        ]
        assert host.cpu.count == 0 and host.cpu.queue_length == 0

    def test_cpu_scale_validation(self, sim, costs):
        with pytest.raises(ValueError):
            Host(sim, "bad", costs, cpu_scale=0)

    def test_negative_busy_rejected(self, sim, costs):
        host = Host(sim, "h0", costs)
        with pytest.raises(ValueError):
            host.busy(-1)

    def test_ports_created_on_demand(self, sim, costs):
        host = Host(sim, "h0", costs)
        q = host.port("pvm")
        assert host.port("pvm") is q
        assert host.port_names == ["pvm"]


class TestEthernet:
    def test_transmission_time(self, sim, costs):
        segment = EthernetSegment(sim, costs)

        def proc(sim):
            yield sim.process(segment.transmit(1000))

        p = sim.process(proc(sim))
        sim.run(until=p)
        assert sim.now == pytest.approx(costs.wire_seconds(1000))
        assert segment.bytes_carried == 1000
        assert segment.frames_carried == 1

    def test_fragmentation(self, sim, costs):
        segment = EthernetSegment(sim, costs)

        def proc(sim):
            yield sim.process(segment.transmit(4000))

        p = sim.process(proc(sim))
        sim.run(until=p)
        # ceil(4000/1500) = 3 fragments, each paying latency.
        assert segment.frames_carried == 3
        assert segment.bytes_carried == 4000
        expected = (
            2 * costs.wire_seconds(1500) + costs.wire_seconds(1000)
        )
        assert sim.now == pytest.approx(expected)

    def test_medium_is_serialized(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        ends = []

        def sender(sim):
            yield sim.process(segment.transmit(1500))
            ends.append(sim.now)

        sim.process(sender(sim))
        sim.process(sender(sim))
        sim.run()
        one = costs.wire_seconds(1500)
        assert ends == [pytest.approx(one), pytest.approx(2 * one)]

    def test_negative_size_rejected(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        with pytest.raises(ValueError):
            segment.transmit(-1)

    def test_utilization(self, sim, costs):
        segment = EthernetSegment(sim, costs)
        assert segment.utilization() == 0.0


class TestNetwork:
    def test_build_lan(self, sim, costs):
        net = build_lan(sim, 4, costs)
        assert len(net) == 4
        assert net.host_names == ["host0", "host1", "host2", "host3"]
        assert net.host("host2").network is net

    def test_build_lan_validation(self, sim, costs):
        with pytest.raises(ValueError):
            build_lan(sim, 0, costs)

    def test_duplicate_host_rejected(self, sim, costs):
        net = Network(sim, costs)
        net.add_host(Host(sim, "a", costs))
        with pytest.raises(ValueError):
            net.add_host(Host(sim, "a", costs))

    def test_unknown_host_lookup(self, sim, costs):
        net = Network(sim, costs)
        with pytest.raises(KeyError):
            net.host("ghost")

    def test_remote_delivery(self, sim, costs):
        net = build_lan(sim, 2, costs)
        received = []

        def receiver(sim):
            packet = yield net.receive("host1", "svc")
            received.append((sim.now, packet.payload))

        def sender(sim):
            yield sim.process(
                net.send(Packet("host0", "host1", "svc", "hello", 100))
            )

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert len(received) == 1
        time, payload = received[0]
        assert payload == "hello"
        expected = 2 * costs.endpoint_overhead_s + costs.wire_seconds(100)
        assert time == pytest.approx(expected)

    def test_local_delivery_skips_wire(self, sim, costs):
        net = build_lan(sim, 1, costs)
        times = []

        def receiver(sim):
            yield net.receive("host0", "svc")
            times.append(sim.now)

        def sender(sim):
            yield sim.process(
                net.send(Packet("host0", "host0", "svc", "x", 10_000))
            )

        sim.process(receiver(sim))
        sim.process(sender(sim))
        sim.run()
        assert times[0] == pytest.approx(costs.endpoint_overhead_s)
        assert net.segment.frames_carried == 0

    def test_send_to_unknown_host_raises(self, sim, costs):
        net = build_lan(sim, 1, costs)
        with pytest.raises(KeyError):
            net.send(Packet("host0", "nowhere", "svc", None, 1))

    def test_post_fire_and_forget(self, sim, costs):
        net = build_lan(sim, 2, costs)
        net.post(Packet("host0", "host1", "svc", 42, 10))
        sim.run()
        assert net.delivered == 1
        ok, packet = net.host("host1").port("svc").try_get()
        assert ok and packet.payload == 42
