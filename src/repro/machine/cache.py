"""The page-addressable disk cache managed by the back-end controller.

For the timing model the cache is a counted pool of frames plus occupancy
statistics.  The quantities the paper reports are tracked explicitly:

* free frames over time (anticipatory reading stalls when none are free);
* the number of updated pages *blocked* in the cache waiting for their log
  records (or scratch writes) to reach stable storage — e.g. the paper's
  "on average there were less than 5 pages in the cache waiting for their
  log records" (Section 4.1.1) and "129 frames out of 150 were occupied by
  updated pages waiting" (Section 4.1.2).
"""

from __future__ import annotations

from repro.sim.core import Environment, Event, SimulationError
from repro.sim.monitor import CounterStat, TimeWeightedStat
from repro.sim.resources import Container

__all__ = ["DiskCache"]


class DiskCache:
    """A pool of ``capacity`` page frames with blocking allocation."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError("cache needs at least one frame")
        self.env = env
        self.capacity = capacity
        self._frames = Container(env, capacity=capacity, init=capacity)
        self.free_frames = TimeWeightedStat(env.now, capacity, name="cache.free")
        self.blocked_pages = TimeWeightedStat(env.now, 0, name="cache.blocked")
        self.allocations = CounterStat("cache.allocations")
        #: Frame count -> the grant callback recording it (one per count,
        #: shared by every acquisition of that many frames).
        self._recorders = {}

    @property
    def free(self) -> int:
        return int(self._frames.level)

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    def acquire(self, n: int = 1) -> Event:
        """Claim ``n`` frames; the event fires when they are available."""
        if n > self.capacity:
            raise SimulationError(
                f"requesting {n} frames from a {self.capacity}-frame cache"
            )
        evt = self._frames.get(n)
        recorder = self._recorders.get(n)
        if recorder is None:
            recorder = self._recorders[n] = self._on_acquired(n)
        # The callback list survives until the event is *processed*, so this
        # works whether the grant was immediate or deferred.
        evt.callbacks.append(recorder)
        return evt

    def _on_acquired(self, n: int):
        def record(_event) -> None:
            self.allocations.increment(n)
            self.free_frames.update(self.env.now, self.free)

        return record

    def release(self, n: int = 1) -> None:
        """Return ``n`` frames to the pool (eventless: a return never blocks)."""
        self._frames.release(n)
        self.free_frames.update(self.env.now, self.free)

    # -- blocked-page accounting ------------------------------------------------
    def mark_blocked(self, n: int = 1) -> None:
        """Count ``n`` updated pages now waiting on stable-storage writes."""
        self.blocked_pages.add(self.env.now, n)

    def unmark_blocked(self, n: int = 1) -> None:
        self.blocked_pages.add(self.env.now, -n)

    def mean_blocked(self, t_end: float) -> float:
        return self.blocked_pages.mean(t_end)

    def mean_free(self, t_end: float) -> float:
        return self.free_frames.mean(t_end)
