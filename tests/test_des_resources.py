"""Unit tests for Resource / Store / PriorityStore / FilterStore."""

import pytest

from repro.des import (
    FilterStore,
    PriorityStore,
    Resource,
    Simulator,
    SimulationError,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_exclusive_access(self, sim):
        cpu = Resource(sim, capacity=1)
        trace = []

        def job(sim, name, hold):
            req = cpu.request()
            yield req
            trace.append((sim.now, name, "start"))
            yield sim.timeout(hold)
            cpu.release(req)
            trace.append((sim.now, name, "end"))

        sim.process(job(sim, "a", 3))
        sim.process(job(sim, "b", 2))
        sim.run()
        assert trace == [
            (0, "a", "start"),
            (3, "a", "end"),
            (3, "b", "start"),
            (5, "b", "end"),
        ]

    def test_capacity_two_runs_concurrently(self, sim):
        link = Resource(sim, capacity=2)
        done = []

        def job(sim, name):
            with link.request() as req:
                yield req
                yield sim.timeout(4)
                done.append((sim.now, name))

        for name in "xyz":
            sim.process(job(sim, name))
        sim.run()
        assert done == [(4, "x"), (4, "y"), (8, "z")]

    def test_count_and_queue_length(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            req = res.request()
            yield req
            assert res.count == 1
            yield sim.timeout(5)
            res.release(req)

        def contender(sim):
            yield sim.timeout(1)
            req = res.request()
            assert res.queue_length == 1
            yield req
            res.release(req)

        sim.process(holder(sim))
        sim.process(contender(sim))
        sim.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)

        def holder(sim):
            req = res.request()
            yield req
            yield sim.timeout(10)
            res.release(req)

        def quitter(sim):
            yield sim.timeout(1)
            req = res.request()
            # changed our mind before being granted
            res.release(req)
            assert res.queue_length == 0

        sim.process(holder(sim))
        sim.process(quitter(sim))
        sim.run()

    def test_acquire_grants_free_slot_synchronously(self, sim):
        res = Resource(sim, capacity=1)
        req = res.acquire()
        assert req.processed and req.ok
        assert res.count == 1
        assert sim.peek() == float("inf")  # no grant event scheduled
        res.release(req)
        assert res.count == 0

    def test_acquire_queues_fifo_behind_holders(self, sim):
        res = Resource(sim, capacity=1)
        trace = []

        def job(sim, name, hold):
            req = res.acquire()
            try:
                if not req.processed:
                    yield req
                trace.append((sim.now, name))
                yield sim.timeout(hold)
            finally:
                res.release(req)

        for name in "abc":
            sim.process(job(sim, name, 2))
        sim.run()
        assert trace == [(0, "a"), (2, "b"), (4, "c")]
        assert res.count == 0 and res.queue_length == 0

    def test_release_unknown_request_raises(self, sim):
        a = Resource(sim, capacity=1)
        b = Resource(sim, capacity=1)

        def proc(sim):
            req = a.request()
            yield req
            with pytest.raises(SimulationError):
                b.release(req)
            a.release(req)

        p = sim.process(proc(sim))
        sim.run(until=p)


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def producer(sim):
            for k in range(3):
                yield store.put(k)
                yield sim.timeout(1)

        def consumer(sim):
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        times = []

        def consumer(sim):
            yield store.get()
            times.append(sim.now)

        def producer(sim):
            yield sim.timeout(7)
            yield store.put("item")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert times == [7]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put("a")
            log.append((sim.now, "put-a"))
            yield store.put("b")
            log.append((sim.now, "put-b"))

        def consumer(sim):
            yield sim.timeout(5)
            item = yield store.get()
            log.append((sim.now, f"got-{item}"))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [(0, "put-a"), (5, "got-a"), (5, "put-b")]

    def test_put_nowait_wakes_getter_without_put_event(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim):
            got.append((yield store.get()))

        sim.process(consumer(sim), daemon=True)
        sim.run()
        before = sim._eid
        store.put_nowait("x")
        assert sim._eid == before + 1  # the getter's wake-up, nothing else
        sim.run()
        assert got == ["x"]

    def test_put_nowait_on_full_store_raises(self, sim):
        store = Store(sim, capacity=1)
        store.put_nowait(1)
        with pytest.raises(SimulationError):
            store.put_nowait(2)
        assert store.items == [1]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)

        def proc(sim):
            yield store.put(9)

        sim.process(proc(sim))
        sim.run()
        assert store.try_get() == (True, 9)

    def test_len_and_items(self, sim):
        store = Store(sim)

        def proc(sim):
            yield store.put("a")
            yield store.put("b")

        sim.process(proc(sim))
        sim.run()
        assert len(store) == 2
        assert store.items == ["a", "b"]

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestPriorityStore:
    def test_orders_by_value(self, sim):
        store = PriorityStore(sim)
        got = []

        def producer(sim):
            for item in (5, 1, 3):
                yield store.put(item)

        def consumer(sim):
            yield sim.timeout(1)
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [1, 3, 5]

    def test_peek(self, sim):
        store = PriorityStore(sim)
        with pytest.raises(SimulationError):
            store.peek()

        def proc(sim):
            yield store.put((3, "c"))
            yield store.put((1, "a"))

        sim.process(proc(sim))
        sim.run()
        assert store.peek() == (1, "a")
        assert len(store) == 2


class TestFilterStore:
    def test_predicate_matching(self, sim):
        store = FilterStore(sim)
        got = []

        def producer(sim):
            yield store.put(("b", 2))
            yield store.put(("a", 1))

        def consumer(sim):
            item = yield store.get(lambda it: it[0] == "a")
            got.append(item)

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert got == [("a", 1)]
        assert store.items == [("b", 2)]

    def test_waits_for_matching_item(self, sim):
        store = FilterStore(sim)
        times = []

        def consumer(sim):
            yield store.get(lambda it: it == "wanted")
            times.append(sim.now)

        def producer(sim):
            yield store.put("other")
            yield sim.timeout(9)
            yield store.put("wanted")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert times == [9]
