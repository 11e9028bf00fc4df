"""The deterministic span/event recorder.

A :class:`Tracer` attaches to a simulation
:class:`~repro.sim.core.Environment` (``machine = DatabaseMachine(...,
tracer=tracer)`` sets ``env.tracer``); instrumented components call
``begin``/``end``/``instant`` with names from the registered catalogue.
Recording is a synchronous list append — no simulation events, no RNG
draws, no callbacks — so a traced run is *observationally identical* to
an untraced one: same event calendar, same random streams, same metrics.

Record order derives from ``(simulation time, sequence number)`` where
the sequence number increments per record — never from wall clock — so
two runs with the same seed produce byte-identical trace files (lint
rule DET01 polices wall-clock use; the determinism test in
``tests/test_trace_export.py`` proves it end to end).

Records are stored as flat rows, not objects.  ``begin`` appends one
six-slot row — signature, start, parent handle, tid, argument values,
end — to a chunk of a plain list and returns an ``int`` handle, the
span's index in :attr:`Tracer.spans`.  The signature is one shared
``(name, track, argument keys)`` tuple per call shape, so a row holds
only pointers to shared strings, times and values.  :class:`Span`
objects are built when ``spans`` or ``instants`` is read; building
consumes the rows it read, so a run is never held in both forms.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional

from repro.trace.names import CATALOGUE

__all__ = ["Span", "Tracer"]

#: Slots per span row: signature, start, parent, tid, values, end.
_WIDTH = 6
_TID = 3
_END = 5
#: Slots per instant row: signature, time, tid, values.
_INSTANT_WIDTH = 4
#: Rows per chunk, as a power of two.  A full chunk of span rows is a
#: 96 KiB pointer array, under glibc's default mmap threshold, and no
#: list bigger than one chunk is ever grown.
_SHIFT = 11
_MASK = (1 << _SHIFT) - 1
_SPAN_SLOTS = _WIDTH << _SHIFT
_INSTANT_SLOTS = _INSTANT_WIDTH << _SHIFT


def _unregistered(name: str) -> ValueError:
    return ValueError(
        f"span name {name!r} is not in the registered catalogue "
        "(repro.trace.names.CATALOGUE); register it there first"
    )


def _ended(sid: int, name: str) -> ValueError:
    return ValueError(f"span {sid} ({name}) already ended")


def _args(keys: tuple, values: Any) -> Dict[str, Any]:
    """The ``args`` dict of a row: one argument's value is stored bare,
    several as a tuple in key order."""
    if not keys:
        return {}
    if len(keys) == 1:
        return {keys[0]: values}
    return dict(zip(keys, values))


class Span:
    """One interval of work or waiting, in simulation time.

    ``end`` is ``None`` while the span is open.  ``tid`` marks spans
    belonging to a transaction's tree; ``track`` marks device-lane spans
    (a disk, an interconnect).  ``args`` is free-form structured detail
    (page numbers, hook names, byte counts).
    """

    __slots__ = ("sid", "parent_sid", "name", "start", "end", "tid", "track", "args", "seq")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        seq: int,
        parent_sid: Optional[int] = None,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.sid = sid
        self.parent_sid = parent_sid
        self.name = name
        self.start = start
        self.seq = seq
        self.end: Optional[float] = None
        self.tid = tid
        self.track = track
        self.args: Dict[str, Any] = {} if args is None else args

    @property
    def duration(self) -> float:
        """Span length in ms (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.3f}" if self.end is not None else "open"
        return f"<Span {self.sid} {self.name} [{self.start:.3f}, {end}] tid={self.tid}>"


class Tracer:
    """Deterministic recorder of spans and instants for one run.

    ``begin`` returns a handle, the span's index in :attr:`spans`; pass
    it back as ``end``'s span or another ``begin``'s ``parent``.
    ``seq`` numbers every record monotonically, which breaks
    simulation-time ties without touching wall clock.  Names are
    validated against the registered catalogue at record time,
    mirroring the static TRACE01 check.
    """

    def __init__(self, env=None) -> None:
        #: The clock source.  ``DatabaseMachine(..., tracer=tracer)`` binds
        #: its own environment here, so a tracer may be built first.
        self.env = env
        #: Spans begun so far; the next span's handle.
        self._n = 0
        #: Spans already built into ``_spans``: the handle of the first row.
        self._base = 0
        self._rows: List[Any] = []
        self._chunks: List[Optional[List[Any]]] = [self._rows]
        self._instant_rows: List[Any] = []
        self._instant_chunks: List[Optional[List[Any]]] = [self._instant_rows]
        #: Per instant, the spans begun before it: with ``_n`` this gives
        #: every record's ``seq`` without storing one per span.
        self._marks: List[int] = []
        #: ``(name, track, *keys)`` -> the shared ``(name, track, keys)``.
        self._signatures: Dict[tuple, tuple] = {}
        self._end_keys: Dict[tuple, tuple] = {}
        self._spans: List[Span] = []
        self._instants: List[Span] = []
        self._by_tid: Dict[Optional[int], List[Span]] = {}
        self._by_name: Dict[str, List[Span]] = {}
        self._indexed = 0

    # One call per record: the machine binds these methods directly.  The
    # signature lookup doubles as the catalogue check (a name enters the
    # table only through ``_signature``), and one argument's value is
    # stored bare, several as a tuple.
    def begin(
        self,
        name: str,
        parent: Optional[int] = None,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> int:
        """Open a span at the current simulation time; return its handle."""
        signature = self._signatures.get((name, track, *args))
        if signature is None:
            signature = self._signature(name, track, args)
        if len(args) == 1:
            [values] = args.values()
        else:
            values = tuple(args.values()) if args else None
        if parent is not None and tid is None:
            tid = self._tid_of(parent)
        rows = self._rows
        rows += (signature, self.env.now, parent, tid, values, None)
        if len(rows) == _SPAN_SLOTS:
            self._rows = []
            self._chunks.append(self._rows)
        handle = self._n
        self._n = handle + 1
        return handle

    def end(self, span: int, **args) -> None:
        """Close the span with handle ``span`` at the current simulation time."""
        local = span - self._base
        if local < 0:
            return self._end_built(span, args)
        rows = self._chunks[local >> _SHIFT]
        slot = (local & _MASK) * _WIDTH + _END
        if rows[slot] is not None:
            raise _ended(span, rows[slot - _END][0])
        if not args:
            rows[slot] = self.env.now
            return None
        keys = tuple(args)
        if len(args) == 1:
            [values] = args.values()
        else:
            values = tuple(args.values())
        rows[slot] = (self.env.now, self._end_keys.setdefault(keys, keys), values)
        return None

    def instant(
        self,
        name: str,
        tid: Optional[int] = None,
        track: Optional[str] = None,
        **args,
    ) -> None:
        """Record a zero-duration marker at the current simulation time."""
        signature = self._signatures.get((name, track, *args))
        if signature is None:
            signature = self._signature(name, track, args)
        if len(args) == 1:
            [values] = args.values()
        else:
            values = tuple(args.values()) if args else None
        rows = self._instant_rows
        rows += (signature, self.env.now, tid, values)
        if len(rows) == _INSTANT_SLOTS:
            self._instant_rows = []
            self._instant_chunks.append(self._instant_rows)
        self._marks.append(self._n)

    def _signature(self, name: str, track: Optional[str], args: Dict[str, Any]) -> tuple:
        if name not in CATALOGUE:
            raise _unregistered(name)
        signature = (name, track, tuple(args))
        self._signatures[(name, track, *args)] = signature
        return signature

    def _tid_of(self, parent: int) -> Optional[int]:
        local = parent - self._base
        if local < 0:
            return self._built(parent).tid
        return self._chunks[local >> _SHIFT][(local & _MASK) * _WIDTH + _TID]

    def _built(self, sid: int) -> Span:
        if sid < 0:
            raise IndexError(f"no span with handle {sid}")
        return self._spans[sid]

    def _end_built(self, sid: int, args: Dict[str, Any]) -> None:
        span = self._built(sid)
        if span.end is not None:
            raise _ended(sid, span.name)
        span.end = self.env.now
        if args:
            span.args.update(args)

    # -- views -------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every span in ``begin`` order; ``spans[handle]`` is that span."""
        if self._n > self._base:
            self._build_spans()
        return self._spans

    @property
    def instants(self) -> List[Span]:
        """Every instant in record order, as zero-duration spans."""
        if len(self._marks) > len(self._instants):
            self._build_instants()
        return self._instants

    def _build_spans(self) -> None:
        chunks = self._chunks
        self._rows = []
        self._chunks = [self._rows]
        sid = self._base
        self._base = self._n
        marks = self._marks
        n_marks = len(marks)
        before = bisect_right(marks, sid)  # instants recorded before span ``sid``
        out = self._spans
        for c in range(len(chunks)):
            rows = iter(chunks[c])
            chunks[c] = None
            for signature, start, parent, tid, values, end in zip(*[rows] * _WIDTH):
                while before < n_marks and marks[before] <= sid:
                    before += 1
                name, track, keys = signature
                args = _args(keys, values)
                span = Span(sid, name, start, sid + 1 + before, parent, tid, track, args)
                if end is not None:
                    if type(end) is tuple:
                        end, keys, values = end
                        args.update(_args(keys, values))
                    span.end = end
                out.append(span)
                sid += 1

    def _build_instants(self) -> None:
        chunks = self._instant_chunks
        self._instant_rows = []
        self._instant_chunks = [self._instant_rows]
        marks = self._marks
        out = self._instants
        index = len(out)
        for c in range(len(chunks)):
            rows = iter(chunks[c])
            chunks[c] = None
            for signature, at, tid, values in zip(*[rows] * _INSTANT_WIDTH):
                name, track, keys = signature
                mark = Span(
                    index, name, at, index + 1 + marks[index], None, tid, track,
                    _args(keys, values),
                )
                mark.end = at
                out.append(mark)
                index += 1

    def _index(self) -> None:
        spans = self.spans
        by_tid = self._by_tid
        by_name = self._by_name
        for span in spans[self._indexed:]:
            by_tid.setdefault(span.tid, []).append(span)
            by_name.setdefault(span.name, []).append(span)
        self._indexed = len(spans)

    # -- queries ---------------------------------------------------------------
    def spans_of(self, tid: int) -> List[Span]:
        """Closed spans belonging to transaction ``tid``, in begin order."""
        self._index()
        return [s for s in self._by_tid.get(tid, ()) if s.end is not None]

    def named(self, name: str) -> List[Span]:
        """Closed spans with ``name``, in begin order."""
        self._index()
        return [s for s in self._by_name.get(name, ()) if s.end is not None]

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (e.g. cut off by a machine crash)."""
        return [s for s in self.spans if not s.closed]

    def __len__(self) -> int:
        return self._n + len(self._marks)
