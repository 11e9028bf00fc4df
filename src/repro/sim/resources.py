"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted resource (e.g. a pool of query processors);
  requests are events that fire when a slot frees up, FIFO.
* :class:`PriorityResource` — like Resource but requests carry a priority
  (lower number served first; ties FIFO).
* :class:`Store` — a FIFO buffer of Python objects with blocking get/put
  (used e.g. for message queues between processors).
* :class:`Container` — a level of continuous/discrete "stuff" with blocking
  get/put (used e.g. for free cache-frame accounting), plus an eventless
  :meth:`Container.release` for returns that can never block: it grants
  waiting getters exactly as ``put`` would but puts no event on the
  calendar, since nobody ever waits on such a return.

Requests are usable as context managers inside processes::

    with resource.request() as req:
        yield req
        ... # holding the resource
    # released automatically
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.core import Environment, Event, SimulationError

__all__ = [
    "Container",
    "ContainerGet",
    "ContainerPut",
    "PriorityRequest",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot; grants the oldest waiting request, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a queued (never-granted) request is a cancel.
            self._cancel(request)
            return
        queue = self.queue
        while queue:
            nxt = queue.popleft()
            if nxt._triggered:  # cancelled/interrupted leftover
                continue
            self.users.append(nxt)
            nxt.succeed()
            break

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def retire(self, request: Request) -> None:
        """Remove a granted request *and* its slot (the server died).

        Unlike :meth:`release`, no waiter is promoted: the returned slot
        no longer exists.  Capacity shrinks by one.
        """
        self.users.remove(request)
        self.capacity -= 1

    def add_capacity(self, n: int = 1) -> None:
        """Grow the pool by ``n`` servers, granting waiters that now fit."""
        if n < 1:
            raise SimulationError(f"capacity increment must be >= 1, got {n}")
        self.capacity += n
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt.triggered:  # cancelled/interrupted leftover
                continue
            self.users.append(nxt)
            nxt.succeed()

    def remove_capacity(self, n: int = 1) -> None:
        """Shrink the pool by ``n`` *idle* servers (a free unit died)."""
        if n < 1:
            raise SimulationError(f"capacity decrement must be >= 1, got {n}")
        if self.capacity - n < len(self.users):
            raise SimulationError(
                f"cannot remove {n} slots: {len(self.users)} of "
                f"{self.capacity} are held (retire the holder instead)"
            )
        self.capacity -= n


class PriorityRequest(Request):
    """A resource claim with a priority key."""

    __slots__ = ("priority", "_order")

    def __init__(self, resource: "PriorityResource", priority: float):
        self.priority = priority
        self._order = resource._next_order()
        super().__init__(resource)

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)


class PriorityResource(Resource):
    """A resource whose wait queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._heap: List[PriorityRequest] = []
        self._order_counter = 0

    def _next_order(self) -> int:
        self._order_counter += 1
        return self._order_counter

    def request(self, priority: float = 0) -> PriorityRequest:  # type: ignore[override]
        req = PriorityRequest(self, priority)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            heapq.heappush(self._heap, req)
        return req

    def release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            self._cancel(request)
            return
        while self._heap:
            nxt = heapq.heappop(self._heap)
            if nxt.triggered:
                continue
            self.users.append(nxt)
            nxt.succeed()
            break

    def _cancel(self, request: Request) -> None:
        # Lazy deletion: mark by triggering with a failure-free sentinel is
        # unsafe; instead filter on pop.  Physically remove here for sanity.
        try:
            self._heap.remove(request)  # type: ignore[arg-type]
            heapq.heapify(self._heap)
        except ValueError:
            pass


class StoreGet(Event):
    __slots__ = ()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any):
        super().__init__(env)
        self.item = item


class Store:
    """FIFO object buffer with optional capacity.

    ``put(item)`` blocks while full; ``get()`` blocks while empty.  An
    optional ``get`` filter selects the first matching item (a la simpy's
    FilterStore) — handy for picking messages addressed to a specific node.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: Deque[Tuple[StoreGet, Optional[Callable[[Any], bool]]]] = deque()
        self._putters: Deque[StorePut] = deque()

    def put(self, item: Any) -> StorePut:
        evt = StorePut(self.env, item)
        self._putters.append(evt)
        self._dispatch()
        return evt

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        evt = StoreGet(self.env)
        self._getters.append((evt, filter))
        self._dispatch()
        return evt

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                if put.triggered:
                    continue
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve getters in FIFO order; a filtered getter that matches
            # nothing stays queued without blocking those behind it.
            remaining: Deque[Tuple[StoreGet, Optional[Callable[[Any], bool]]]] = deque()
            while self._getters:
                get, flt = self._getters.popleft()
                if get.triggered:
                    continue
                idx = None
                if flt is None:
                    if self.items:
                        idx = 0
                else:
                    for i, item in enumerate(self.items):
                        if flt(item):
                            idx = i
                            break
                if idx is None:
                    remaining.append((get, flt))
                else:
                    get.succeed(self.items.pop(idx))
                    progress = True
            self._getters = remaining


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.amount = amount


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class Container:
    """A homogeneous level (frames, bytes, ...) with blocking get/put."""

    def __init__(self, env: Environment, capacity: float = float("inf"), init: float = 0):
        if init < 0 or init > capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters: Deque[ContainerGet] = deque()
        self._putters: Deque[ContainerPut] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        evt = ContainerPut(self.env, amount)
        self._putters.append(evt)
        self._dispatch()
        return evt

    def release(self, amount: float) -> None:
        """Return ``amount`` at once: a :meth:`put` that cannot block.

        The level rises and waiting getters are granted in the same order,
        at the same point, as ``put`` followed by its dispatch would grant
        them; only the put's own event, which nothing waits on, is never
        scheduled.  An amount that would overflow the capacity, or jump
        ahead of putters already queued, is refused: that return would
        have had to block.
        """
        if amount <= 0:
            raise SimulationError("release amount must be positive")
        if self._putters:
            raise SimulationError(
                f"release({amount}) would jump ahead of "
                f"{len(self._putters)} queued putter(s)"
            )
        if self._level + amount > self.capacity:
            raise SimulationError(
                f"release({amount}) overflows capacity {self.capacity} "
                f"at level {self._level}"
            )
        self._level += amount
        if self._getters:
            self._dispatch()

    def get(self, amount: float) -> ContainerGet:
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        evt = ContainerGet(self.env, amount)
        if not self._getters and not self._putters and self._level >= amount:
            # A lone getter that fits: granted on the spot, exactly as
            # ``_dispatch`` would grant it.
            self._level -= amount
            evt.succeed()
            return evt
        self._getters.append(evt)
        self._dispatch()
        return evt

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                put = self._putters[0]
                if put._triggered:
                    self._putters.popleft()
                    progress = True
                elif self._level + put.amount <= self.capacity:
                    self._putters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._getters:
                get = self._getters[0]
                if get._triggered:
                    self._getters.popleft()
                    progress = True
                elif self._level >= get.amount:
                    self._getters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True
