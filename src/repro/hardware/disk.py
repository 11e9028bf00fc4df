"""Timed disk models: conventional and parallel-access drives.

Both models are simulation processes that serve a FIFO request queue.  A
request names one or more page addresses; the ``done`` event fires when the
transfer completes.

* :class:`ConventionalDisk` (IBM 3350-like) moves one page per head pass.
  Head position is tracked so that *sequentially adjacent* pages stream with
  transfer-only cost, same-cylinder pages pay rotational latency only, and
  anything else pays a distance-dependent seek.
* :class:`ParallelAccessDisk` (SURE / DBC-like) reads or writes **all pages
  of one cylinder in a single access**: every track has its own head, so a
  batch of pages in one cylinder costs one seek + latency + at most one
  rotation.  The server coalesces queued same-kind, same-cylinder requests
  into one access — this is what makes sequential scans and batched
  write-backs dramatically cheaper, the effect driving the paper's
  parallel-sequential results.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.hardware.params import DiskParams
from repro.sim.core import Environment, Event, SimulationError
from repro.sim.monitor import CounterStat, TimeWeightedStat, UtilizationTracker
from repro.sim.rng import RandomStreams

__all__ = [
    "ConventionalDisk",
    "Disk",
    "DiskAddress",
    "DiskFailure",
    "DiskRequest",
    "ParallelAccessDisk",
    "make_disk",
    "split_by_cylinder",
]


class DiskFailure(SimulationError):
    """A request completed with an error (the disk died)."""


class DiskAddress(NamedTuple):
    """Physical position of one page on a disk."""

    cylinder: int
    track: int
    sector: int

    def linear(self, params: DiskParams) -> int:
        """Position in the disk's total page ordering."""
        return (
            self.cylinder * params.pages_per_cylinder
            + self.track * params.pages_per_track
            + self.sector
        )

    @staticmethod
    def from_linear(index: int, params: DiskParams) -> "DiskAddress":
        """Inverse of :meth:`linear`."""
        if index < 0 or index >= params.capacity_pages:
            raise ValueError(
                f"page index {index} outside disk capacity {params.capacity_pages}"
            )
        cylinder, rest = divmod(index, params.pages_per_cylinder)
        track, sector = divmod(rest, params.pages_per_track)
        # Built directly, skipping the namedtuple's generated __new__ frame.
        return _new_address(DiskAddress, (cylinder, track, sector))


_new_address = tuple.__new__


class DiskRequest:
    """One queued I/O: a kind, a set of page addresses, a completion event."""

    __slots__ = (
        "kind",
        "addresses",
        "cylinder",
        "done",
        "tag",
        "submitted_at",
        "error",
        "torn",
        "corrupt",
    )

    def __init__(
        self,
        env: Environment,
        kind: str,
        addresses: Sequence[DiskAddress],
        tag: str = "",
    ):
        if kind not in ("read", "write"):
            raise SimulationError(f"unknown request kind {kind!r}")
        if not addresses:
            raise SimulationError("request with no addresses")
        self.kind = kind
        self.addresses: Tuple[DiskAddress, ...] = tuple(addresses)
        #: The one cylinder a parallel-access request touches, resolved
        #: when the request enters its disk; ``None`` on conventional disks.
        self.cylinder: Optional[int] = None
        self.done: Event = Event(env)
        self.tag = tag
        self.submitted_at = env.now
        #: set when the request failed (disk death) instead of completing.
        self.error: Optional[str] = None
        #: set when a write reached the platter only partially (media fault);
        #: the caller must treat the page as not durably written.
        self.torn = False
        #: set when a read returned data from a rotted sector (silent
        #: corruption the checksum layer would reject); the scrubber and
        #: the mirror fallback path react to it.
        self.corrupt = False

    @property
    def n_pages(self) -> int:
        return len(self.addresses)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.torn and not self.corrupt


class Disk:
    """Common queueing/metrics machinery; service policy lives in subclasses."""

    parallel_access = False

    def __init__(
        self,
        env: Environment,
        params: DiskParams,
        name: str = "disk",
        rng: Optional[random.Random] = None,
    ):
        self.env = env
        self.params = params
        self.name = name
        # Latency samples come from a named stream even when the caller does
        # not wire one up, so stand-alone disks stay reproducible too.
        self.rng = rng if rng is not None else RandomStreams(0).stream(f"disk.{name}")
        self._queue: Deque[DiskRequest] = deque()
        self._wakeup: Optional[Event] = None
        self._head_cylinder = 0
        self._head_linear = -2  # "nowhere": first access never streams
        #: duck-typed fault injector (``torn_write(target)`` predicate);
        #: assigned by whoever arms fault injection.  ``None`` = no faults.
        self.faults = None
        self.failed = False
        #: Linear page index -> simulation time its stored bits rotted in
        #: place (latent sector errors); a full rewrite of a sector clears
        #: it.  The rot time is what the scrubber's detection-latency
        #: accounting measures against.
        self.corrupt_sectors: dict = {}
        self.busy = UtilizationTracker(env.now, name=name)
        self.queue_length = TimeWeightedStat(env.now, 0, name=f"{name}.queue")
        self.accesses = CounterStat(f"{name}.accesses")
        self.pages_read = CounterStat(f"{name}.pages_read")
        self.pages_written = CounterStat(f"{name}.pages_written")
        self.torn_writes = CounterStat(f"{name}.torn_writes")
        self.failed_requests = CounterStat(f"{name}.failed_requests")
        self.rotted_sectors = CounterStat(f"{name}.rotted_sectors")
        self.corrupt_reads = CounterStat(f"{name}.corrupt_reads")
        env.process(self._server(), name=f"{name}.server")

    # -- client API ---------------------------------------------------------
    def submit(
        self, kind: str, addresses: Sequence[DiskAddress], tag: str = ""
    ) -> DiskRequest:
        """Enqueue an I/O; ``request.done`` fires when it finishes.

        A request the drive cannot serve in one access raises
        :class:`SimulationError` here, to the submitter.
        """
        env = self.env
        req = DiskRequest(env, kind, addresses, tag)
        self._admit(req)
        if self.failed:
            req.error = "disk-failed"
            self.failed_requests.increment()
            req.done.succeed(env.now)
            return req
        queue = self._queue
        queue.append(req)
        self.queue_length.update(env.now, len(queue))
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
        return req

    def fail(self) -> None:
        """The disk dies: queued and future requests complete with an error.

        A request already in service also errors out when its (wasted)
        service time elapses — the head crashed mid-transfer.
        """
        if self.failed:
            return
        self.failed = True
        while self._queue:
            req = self._queue.popleft()
            req.error = "disk-failed"
            self.failed_requests.increment()
            req.done.succeed(self.env.now)
        self.queue_length.update(self.env.now, 0)

    def read(self, addresses: Sequence[DiskAddress], tag: str = "") -> DiskRequest:
        return self.submit("read", addresses, tag)

    def write(self, addresses: Sequence[DiskAddress], tag: str = "") -> DiskRequest:
        return self.submit("write", addresses, tag)

    @property
    def pending(self) -> int:
        """Number of requests waiting (not counting one in service)."""
        return len(self._queue)

    def utilization(self, t_end: Optional[float] = None) -> float:
        return self.busy.utilization(t_end if t_end is not None else self.env.now)

    # -- server ---------------------------------------------------------------
    def _server(self):
        env = self.env
        while True:
            # ``while``, not ``if``: a disk failure can drain the queue
            # between the wakeup firing and the server resuming.
            while not self._queue:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
            batch = self._select_batch()
            self.queue_length.update(env.now, len(self._queue))
            service = self._service_time(batch)
            # Duck-typed tracer (repro.trace attaches itself via env.tracer;
            # the literal name is registered in the span catalogue).
            tracer = env.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "disk.service",
                    track=self.name,
                    kind=batch[0].kind,
                    tag=batch[0].tag,
                    pages=sum(r.n_pages for r in batch),
                )
            self.busy.start(env.now)
            yield env.timeout(service)
            now = env.now
            self.busy.stop(now)
            if tracer is not None:
                tracer.end(span)
            self.accesses.increment()
            for req in batch:
                if self.failed:
                    req.error = "disk-failed"
                    self.failed_requests.increment()
                elif req.kind == "write":
                    if self.faults is not None and self.faults.torn_write():
                        req.torn = True
                        self.torn_writes.increment()
                    self._settle_rot(req, tracer)
                elif self.corrupt_sectors and self._hits_rot(req):
                    req.corrupt = True
                    self.corrupt_reads.increment()
                counter = self.pages_read if req.kind == "read" else self.pages_written
                counter.increment(len(req.addresses))
                req.done.succeed(now)

    def _admit(self, req: DiskRequest) -> None:
        """Validate a request as it enters; the default accepts any."""

    def _select_batch(self) -> List[DiskRequest]:
        raise NotImplementedError

    def _service_time(self, batch: List[DiskRequest]) -> float:
        raise NotImplementedError

    # -- silent corruption (latent sector errors) ------------------------------
    def _settle_rot(self, req: DiskRequest, tracer) -> None:
        """Apply the bit-rot model to one completed write.

        Each written sector either rots in place (a per-sector draw from
        the injector's dedicated ``corrupt`` stream) or, being freshly and
        fully rewritten, sheds any rot it carried — which is exactly how
        the scrubber's repair writes heal a sector.  Without BIT_ROT specs
        the injector returns False without drawing, so clean runs make no
        extra random draws and stay byte-identical.
        """
        for addr in req.addresses:
            linear = addr.linear(self.params)
            if self.faults is not None and self.faults.bit_rot():
                if linear not in self.corrupt_sectors:
                    self.corrupt_sectors[linear] = self.env.now
                    self.rotted_sectors.increment()
                    if tracer is not None:
                        tracer.instant(
                            "corrupt.inject", track=self.name, sector=linear
                        )
            else:
                self.corrupt_sectors.pop(linear, None)

    def _hits_rot(self, req: DiskRequest) -> bool:
        return any(
            addr.linear(self.params) in self.corrupt_sectors
            for addr in req.addresses
        )

    # -- shared timing helpers -------------------------------------------------
    def _seek_to(self, cylinder: int) -> float:
        cost = self.params.seek_ms(abs(cylinder - self._head_cylinder))
        self._head_cylinder = cylinder
        return cost

    def _latency_sample(self) -> float:
        return self.rng.uniform(0.0, self.params.rotation_ms)


class ConventionalDisk(Disk):
    """One request per access; adjacency *within* a request streams.

    Across requests the head always pays a fresh rotational latency: a
    1985-era controller finishes one transfer, interrupts the host, and by
    the time the next command arrives the target sector has passed under
    the head.  Multi-page requests chain transfers, so batched sequential
    I/O (a scratch-ring dump, a physical log record of two pages) is cheap
    while page-at-a-time sequential reads still pay latency each time.

    ``scheduling`` selects the queue discipline: ``"fcfs"`` (the default,
    and what the paper's era of controllers did) or ``"sstf"``
    (shortest-seek-time-first, an extension for ablation studies — it
    reduces seek time under concurrent transaction streams at some
    fairness cost).
    """

    def __init__(self, *args, scheduling: str = "fcfs", **kwargs):
        if scheduling not in ("fcfs", "sstf"):
            raise SimulationError(f"unknown scheduling policy {scheduling!r}")
        super().__init__(*args, **kwargs)
        self.scheduling = scheduling

    def _select_batch(self) -> List[DiskRequest]:
        if self.scheduling == "fcfs" or len(self._queue) == 1:
            return [self._queue.popleft()]
        nearest = min(
            range(len(self._queue)),
            key=lambda i: abs(
                self._queue[i].addresses[0].cylinder - self._head_cylinder
            ),
        )
        request = self._queue[nearest]
        del self._queue[nearest]
        return [request]

    def _service_time(self, batch: List[DiskRequest]) -> float:
        (req,) = batch
        self._head_linear = -2  # no streaming carry-over between requests
        total = 0.0
        for addr in req.addresses:
            total += self._page_time(addr)
        return total

    def _page_time(self, addr: DiskAddress) -> float:
        params = self.params
        linear = addr.linear(params)
        cost = 0.0
        if addr.cylinder != self._head_cylinder:
            cost += self._seek_to(addr.cylinder)
            cost += self._latency_sample()
        elif linear != self._head_linear + 1:
            # Same cylinder, not the next sector: wait for it to come around.
            cost += self._latency_sample()
        # else: streaming the next sequential page, transfer only.
        cost += params.transfer_ms
        self._head_linear = linear
        return cost


class ParallelAccessDisk(Disk):
    """All pages of one cylinder are transferable in a single access."""

    parallel_access = True

    def _admit(self, req: DiskRequest) -> None:
        """Resolve the request's single cylinder, once, at entry."""
        cylinder = req.addresses[0].cylinder
        for addr in req.addresses:
            if addr.cylinder != cylinder:
                cylinders = sorted({a.cylinder for a in req.addresses})
                raise SimulationError(
                    f"parallel-access request spans cylinders {cylinders}; "
                    "split requests with split_by_cylinder()"
                )
        req.cylinder = cylinder

    def _select_batch(self) -> List[DiskRequest]:
        first = self._queue.popleft()
        if not self._queue:
            return [first]
        kind = first.kind
        cylinder = first.cylinder
        batch = [first]
        survivors: Deque[DiskRequest] = deque()
        for req in self._queue:
            if req.kind == kind and req.cylinder == cylinder:
                batch.append(req)
            else:
                survivors.append(req)
        self._queue = survivors
        return batch

    def _service_time(self, batch: List[DiskRequest]) -> float:
        params = self.params
        cylinder = batch[0].cylinder
        sectors = {addr.sector for req in batch for addr in req.addresses}
        cost = 0.0
        if cylinder != self._head_cylinder:
            cost += self._seek_to(cylinder)
        cost += self._latency_sample()
        # Every track has a head: a sector position streams all tracks at once;
        # hitting every position costs at most one rotation.
        cost += min(len(sectors) * params.transfer_ms, params.rotation_ms)
        self._head_linear = -2  # no streaming carry-over between accesses
        return cost


def make_disk(
    env: Environment,
    params: DiskParams,
    parallel: bool,
    name: str = "disk",
    rng: Optional[random.Random] = None,
    scheduling: str = "fcfs",
) -> Disk:
    """Factory: conventional or parallel-access drive.

    ``scheduling`` applies to conventional drives only (parallel-access
    drives already coalesce whole cylinders per access).
    """
    if parallel:
        return ParallelAccessDisk(env, params, name=name, rng=rng)
    return ConventionalDisk(env, params, name=name, rng=rng, scheduling=scheduling)


def split_by_cylinder(
    addresses: Iterable[DiskAddress],
) -> List[List[DiskAddress]]:
    """Group addresses into per-cylinder lists (parallel-disk request units)."""
    groups: dict = {}
    for addr in addresses:
        groups.setdefault(addr.cylinder, []).append(addr)
    return [groups[cyl] for cyl in sorted(groups)]
