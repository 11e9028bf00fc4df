"""Unit tests for resources, stores, and containers."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, SimulationError, Store


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        env.run()
        assert r1.processed and r2.processed
        assert not r3.triggered
        assert res.count == 2

    def test_release_grants_next_fifo(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, name, hold):
            with res.request() as req:
                yield req
                order.append((env.now, name))
                yield env.timeout(hold)

        env.process(worker(env, res, "a", 3))
        env.process(worker(env, res, "b", 2))
        env.process(worker(env, res, "c", 1))
        env.run()
        assert order == [(0, "a"), (3, "b"), (5, "c")]

    def test_context_manager_releases(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def worker(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        env.process(worker(env, res))
        env.run()
        assert res.count == 0

    def test_cancel_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        queued.cancel()
        res.release(held)
        env.run()
        assert not queued.triggered
        assert res.count == 0

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestPriorityResource:
    def test_lower_priority_number_served_first(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def worker(env, res, name, priority):
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        def submit(env):
            # Occupy, then queue others while held.
            with res.request(priority=0) as req:
                yield req
                order.append("first")
                env.process(worker(env, res, "low", 5))
                env.process(worker(env, res, "high", 1))
                yield env.timeout(1)

        env.process(submit(env))
        env.run()
        assert order == ["first", "high", "low"]

    def test_fifo_within_priority(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        held = res.request(priority=0)
        a = res.request(priority=1)
        b = res.request(priority=1)
        res.release(held)
        env.run()
        assert a.processed and not b.triggered


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            yield store.put("x")
            item = yield store.get()
            return item

        assert env.run(until=env.process(proc(env))) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(4)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(4, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        out = []

        def proc(env):
            for i in range(3):
                yield store.put(i)
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(proc(env))
        env.run()
        assert out == [0, 1, 2]

    def test_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(env.now)
            yield store.put("b")
            times.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0, 5]

    def test_filtered_get(self):
        env = Environment()
        store = Store(env)
        out = []

        def proc(env):
            yield store.put({"to": 1})
            yield store.put({"to": 2})
            item = yield store.get(lambda m: m["to"] == 2)
            out.append(item)

        env.process(proc(env))
        env.run()
        assert out == [{"to": 2}]
        assert store.items == [{"to": 1}]

    def test_filtered_get_does_not_block_others(self):
        env = Environment()
        store = Store(env)
        out = []

        def picky(env):
            item = yield store.get(lambda m: m == "never")
            out.append(item)

        def normal(env):
            item = yield store.get()
            out.append(item)

        def producer(env):
            yield store.put("x")

        env.process(picky(env))
        env.process(normal(env))
        env.process(producer(env))
        env.run()
        assert out == ["x"]

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)


class TestContainer:
    def test_level_tracking(self):
        env = Environment()
        box = Container(env, capacity=10, init=4)
        assert box.level == 4

        def proc(env):
            yield box.get(3)
            yield box.put(5)

        env.process(proc(env))
        env.run()
        assert box.level == 6

    def test_get_blocks_until_enough(self):
        env = Environment()
        box = Container(env, capacity=10, init=0)
        times = []

        def consumer(env):
            yield box.get(2)
            times.append(env.now)

        def producer(env):
            yield env.timeout(1)
            yield box.put(1)
            yield env.timeout(1)
            yield box.put(1)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [2]

    def test_put_blocks_at_capacity(self):
        env = Environment()
        box = Container(env, capacity=2, init=2)
        times = []

        def producer(env):
            yield box.put(1)
            times.append(env.now)

        def consumer(env):
            yield env.timeout(3)
            yield box.get(1)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [3]

    def test_init_validation(self):
        with pytest.raises(SimulationError):
            Container(Environment(), capacity=2, init=3)

    def test_nonpositive_amounts_rejected(self):
        env = Environment()
        box = Container(env, capacity=5, init=1)
        with pytest.raises(SimulationError):
            box.get(0)
        with pytest.raises(SimulationError):
            box.put(-1)


class _CountingEnv(Environment):
    """An environment that counts the calendar events it processes."""

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


def _returns_scenario(give_back):
    """Four getters queue on an empty box; two returns arrive at t=1, t=2.

    ``give_back(box, amount)`` is the return under test.  Marker events
    succeeded just before and just after each return pin down *where* in
    the same-instant calendar the grants land.
    """
    env = _CountingEnv()
    box = Container(env, capacity=10, init=0)
    order = []

    def getter(name, amount):
        yield box.get(amount)
        order.append((name, env.now))

    def marker(label):
        evt = env.event()
        evt.callbacks.append(lambda _evt: order.append((label, env.now)))
        evt.succeed()

    def returner():
        for amount in (3, 5):
            yield env.timeout(1)
            marker("before")
            give_back(box, amount)
            marker("after")

    for name, amount in (("a", 1), ("b", 2), ("c", 1), ("d", 4)):
        env.process(getter(name, amount))
    env.process(returner())
    env.run()
    return order, env.steps, box.level


class TestContainerRelease:
    def test_refuses_overflow(self):
        box = Container(Environment(), capacity=5, init=4)
        with pytest.raises(SimulationError, match="overflows capacity"):
            box.release(2)
        assert box.level == 4
        box.release(1)
        assert box.level == 5

    def test_refuses_nonpositive_amount(self):
        box = Container(Environment(), capacity=5, init=1)
        with pytest.raises(SimulationError):
            box.release(0)

    def test_refuses_to_jump_queued_putters(self):
        box = Container(Environment(), capacity=5, init=2)
        blocked = box.put(4)  # 2 + 4 > 5: queued
        assert not blocked.triggered
        # 2 + 1 fits, but the queued putter came first.
        with pytest.raises(SimulationError, match="queued putter"):
            box.release(1)
        assert box.level == 2

    def test_grants_getters_fifo_in_put_order(self):
        released = _returns_scenario(lambda box, n: box.release(n))
        put = _returns_scenario(lambda box, n: box.put(n))
        expected = [
            ("before", 1), ("a", 1), ("b", 1), ("after", 1),
            ("before", 2), ("c", 2), ("d", 2), ("after", 2),
        ]
        assert released[0] == put[0] == expected
        assert released[2] == put[2] == 0
        # Same order, minus exactly the two never-awaited put events.
        assert put[1] - released[1] == 2

    def test_schedules_no_calendar_event(self):
        env = _CountingEnv()
        box = Container(env, capacity=3, init=1)
        box.release(2)
        assert box.level == 3
        assert env.peek() == float("inf")
        env.run()
        assert env.steps == 0

    def test_waiting_getter_costs_its_own_event_only(self):
        env = _CountingEnv()
        box = Container(env, capacity=3, init=0)
        get = box.get(2)
        box.release(2)
        env.run()
        assert get.processed and box.level == 0
        assert env.steps == 1
