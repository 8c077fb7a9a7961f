"""Tests for resources and channels."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Engine, Resource


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_grant_when_free(self, engine):
        res = Resource(engine, capacity=2)

        def proc():
            req = res.request()
            yield req
            return res.in_use

        assert engine.run(engine.process(proc())) == 1

    def test_fifo_queueing(self, engine):
        res = Resource(engine, capacity=1)
        order = []

        def worker(tag, hold):
            yield from res.use(hold)
            order.append((tag, engine.now))

        engine.run_all(
            [
                engine.process(worker("a", 2.0)),
                engine.process(worker("b", 1.0)),
                engine.process(worker("c", 1.0)),
            ]
        )
        # a holds [0,2), b [2,3), c [3,4) — strict arrival order.
        assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0)]

    def test_parallel_capacity(self, engine):
        res = Resource(engine, capacity=3)

        def worker():
            yield from res.use(1.0)
            return engine.now

        results = engine.run_all([engine.process(worker()) for _ in range(3)])
        assert results == [1.0, 1.0, 1.0]

    def test_release_wakes_waiter(self, engine):
        res = Resource(engine, capacity=1)

        def first():
            req = res.request()
            yield req
            yield engine.timeout(5.0)
            res.release(req)

        def second():
            req = res.request()
            yield req
            res.release(req)
            return engine.now

        engine.process(first())
        proc = engine.process(second())
        assert engine.run(proc) == 5.0

    def test_release_without_hold_rejected(self, engine):
        res = Resource(engine, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)

        engine.run(engine.process(proc()))

    def test_busy_accounting(self, engine):
        res = Resource(engine, capacity=1)

        def worker():
            yield from res.use(4.0)

        engine.run(engine.process(worker()))
        assert res.busy_seconds() == pytest.approx(4.0)

    def test_use_releases_on_exception(self, engine):
        res = Resource(engine, capacity=1)

        def bad():
            gen = res.use(10.0)
            yield next(gen)  # acquire
            gen.throw(RuntimeError("abort"))

        with pytest.raises(RuntimeError):
            engine.run(engine.process(bad()))
        assert res.in_use == 0

    def test_queue_length(self, engine):
        res = Resource(engine, capacity=1)

        def holder():
            yield from res.use(10.0)

        def waiter():
            yield from res.use(1.0)

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=1.0)
        assert res.queue_length == 1


class TestChannel:
    def test_put_then_get(self, engine):
        chan = Channel(engine)
        chan.put("hello")

        def proc():
            msg = yield chan.get()
            return msg

        assert engine.run(engine.process(proc())) == "hello"

    def test_get_blocks_until_put(self, engine):
        chan = Channel(engine)

        def consumer():
            msg = yield chan.get()
            return (msg, engine.now)

        def producer():
            yield engine.timeout(3.0)
            chan.put(42)

        proc = engine.process(consumer())
        engine.process(producer())
        assert engine.run(proc) == (42, 3.0)

    def test_fifo_message_order(self, engine):
        chan = Channel(engine)
        for i in range(5):
            chan.put(i)

        def proc():
            out = []
            for _ in range(5):
                out.append((yield chan.get()))
            return out

        assert engine.run(engine.process(proc())) == [0, 1, 2, 3, 4]

    def test_multiple_waiters_fifo(self, engine):
        chan = Channel(engine)
        results = []

        def consumer(tag):
            msg = yield chan.get()
            results.append((tag, msg))

        def producer():
            yield engine.timeout(1.0)
            chan.put("first")
            chan.put("second")

        engine.process(consumer("a"))
        engine.process(consumer("b"))
        engine.process(producer())
        engine.run()
        assert results == [("a", "first"), ("b", "second")]

    def test_len(self, engine):
        chan = Channel(engine)
        chan.put(1)
        chan.put(2)
        assert len(chan) == 2

    def test_idle_tracks_messages_and_waiters(self, engine):
        chan = Channel(engine)
        assert chan.idle
        chan.put(1)
        assert not chan.idle
        chan.get()
        assert chan.idle
        chan.get()  # a waiting receiver
        assert not chan.idle

    def test_repr_shows_name_or_identity(self, engine):
        assert "<Channel (0, 1, 60) items=0 waiting=0>" == repr(
            Channel(engine, name=(0, 1, 60))
        )
        assert repr(Channel(engine, name="inbox")).startswith("<Channel inbox ")
        assert repr(Channel(engine)).startswith("<Channel 0x")
