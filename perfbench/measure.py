"""Measurement primitives: percentiles, digests, layers, the tracer.

Nothing here imports ``repro``; the workloads hand in what they measured.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import hashlib
import heapq
import json
import math
import os
import pstats
import resource
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot set it alone.
MIN_BEYOND = 10

#: The layers self time is charged to: every package under ``src/repro``,
#: ``repro`` for its top-level modules (``registry``, ``jobs``, ``cli``),
#: ``python`` for the standard library and ``harness`` for this benchmark.
PACKAGES = (
    "analysis", "bench", "checkpoint", "core", "experiments", "faults",
    "hardware", "integrity", "lint", "loadgen", "machine", "metrics",
    "resilience", "sim", "storage", "trace", "workload",
)
LAYERS = PACKAGES + ("repro", "python", "harness")

#: The traced pass's layer self times must add up to at least this share
#: of its wall-clock (and not exceed it by more than the upper slack); the
#: rest is the profiler's own bookkeeping, which no layer owns.
COVERAGE_SLACK = (0.70, 1.02)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples
    lie above the rank, i.e. when the samples cannot support ``q``.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        need = math.ceil(MIN_BEYOND / (1.0 - q / 100.0)) if q < 100 else math.inf
        raise ValueError(
            f"p{q:g} needs at least {need} samples to have {MIN_BEYOND} "
            f"beyond it, got {n}"
        )
    return sorted(samples)[rank - 1]


def digest(value: Any) -> str:
    """A short stable hash of a result (dataclasses are taken field-wise)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_of(path: str, repro_dir: str, harness_dir: str) -> str:
    """The layer owning the code in source file ``path``.

    ``repro_dir`` is the ``src/repro`` package directory and
    ``harness_dir`` this benchmark's directory; everything else (the
    standard library, frozen modules) is ``python``.
    """
    path = os.path.abspath(path) if os.sep in path else path
    if path.startswith(os.path.abspath(harness_dir) + os.sep):
        return "harness"
    repro = os.path.abspath(repro_dir) + os.sep
    if not path.startswith(repro):
        return "python"
    head = path[len(repro):].split(os.sep)
    return head[0] if len(head) > 1 and head[0] in PACKAGES else "repro"


def _code_key(function: Callable) -> Tuple[str, int, str]:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class LayerProfile:
    """One pass under the stdlib deterministic profiler, read by layer.

    Self time of Python code goes to the layer of its file.  Builtins
    (``heapq.heappush``, ``zlib.crc32``, ...) are not profiled on their
    own, so their time stays with the function that called them.  The
    profiler times each resumption of a generator, so simulation
    processes are charged correctly.
    """

    def __init__(self, repro_dir: str, harness_dir: str):
        self.repro_dir = repro_dir
        self.harness_dir = harness_dir
        self.wall = 0.0
        self._stats: Dict[Tuple[str, int, str], tuple] = {}

    def run(self, fn: Callable[[], Any]) -> Any:
        profile = cProfile.Profile(builtins=False)
        start = time.perf_counter()
        try:
            return profile.runcall(fn)
        finally:
            self.wall = time.perf_counter() - start
            self._stats = pstats.Stats(profile).stats

    def self_seconds(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for (filename, _line, _name), entry in self._stats.items():
            totals[layer_of(filename, self.repro_dir, self.harness_dir)] += entry[2]
        return totals

    def calls(self, functions: Iterable[Callable]) -> int:
        """Total calls into ``functions`` (plain functions, not generators,
        whose every resumption the profiler counts as a call)."""
        return sum(
            self._stats.get(_code_key(fn), (0, 0))[1] for fn in functions
        )


#: Seconds :func:`reference_seconds` takes when the host runs at full
#: speed (a 2-core Xeon container, Python 3.11).  Host times are reported
#: scaled to that speed; see :func:`reference_seconds`.
REFERENCE_SECONDS = 0.02


def reference_seconds() -> float:
    """Time a fixed pure-Python event loop, after a full collection.

    Shared hosts switch between speeds within seconds, so the benchmark
    times this kernel between items and scales each item's host time by
    ``REFERENCE_SECONDS`` over the kernel time around it.  The kernel is
    the benchmark's own code, so a change to ``repro`` cannot move it.
    """
    gc.collect()
    start = time.perf_counter()
    _event_loop(2000)
    return time.perf_counter() - start


def _event_loop(n: int) -> int:
    """Generators resumed through callbacks off a heap, like a simulator."""
    queue: List[tuple] = []
    finished = 0

    def process(steps: int):
        for _ in range(steps):
            yield []

    def schedule(proc, when: float, order: int) -> None:
        nonlocal finished
        try:
            waiters = proc.send(None)
        except StopIteration:
            finished += 1
            return
        waiters.append(proc)
        heapq.heappush(queue, (when + order % 97 / 10.0, order, waiters))

    for order in range(n):
        schedule(process(8), order * 0.5, order)
    order = n
    while queue:
        when, _, waiters = heapq.heappop(queue)
        for proc in waiters:
            order += 1
            schedule(proc, when, order)
    return finished


def median_sum(groups: Dict[str, List[float]]) -> float:
    """Sum over groups of each group's median: one pass of every item."""
    return sum(statistics.median(values) for values in groups.values())
