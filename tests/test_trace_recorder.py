"""Unit tests for the span recorder (repro.trace.recorder)."""

import gc
import random
import tracemalloc
from itertools import count
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.loadgen import ArrivalConfig, generate_arrivals
from repro.loadgen.runner import sim_architecture
from repro.registry import machine_overrides
from repro.sim import RandomStreams
from repro.trace import CATALOGUE, PHASE_CHARS, PRIORITY, Span, Tracer
from repro.trace.names import OTHER_PHASE


class Clock:
    """Stands in for the simulation Environment: just a settable `.now`."""

    def __init__(self):
        self.now = 0.0


def make_tracer():
    clock = Clock()
    return Tracer(env=clock), clock


class TestCatalogue:
    def test_priority_names_are_registered(self):
        assert set(PRIORITY) <= CATALOGUE

    def test_phase_chars_cover_priorities_plus_other(self):
        assert set(PHASE_CHARS) == set(PRIORITY) | {OTHER_PHASE}

    def test_phase_chars_are_unique(self):
        chars = list(PHASE_CHARS.values())
        assert len(chars) == len(set(chars))

    def test_txn_root_never_claims_time(self):
        assert "txn" in CATALOGUE and "txn" not in PRIORITY


class TestTracer:
    def test_begin_end_records_interval(self):
        tracer, clock = make_tracer()
        handle = tracer.begin("qp.exec", tid=1, page=7)
        clock.now = 5.0
        tracer.end(handle)
        span = tracer.spans[handle]
        assert span.closed
        assert span.duration == 5.0
        assert span.args == {"page": 7}

    def test_unregistered_name_rejected(self):
        tracer, _ = make_tracer()
        message = (
            r"span name 'made\.up\.name' is not in the registered catalogue "
            r"\(repro\.trace\.names\.CATALOGUE\); register it there first"
        )
        with pytest.raises(ValueError, match=message):
            tracer.begin("made.up.name")  # reprolint: disable-line=TRACE01
        with pytest.raises(ValueError, match=message):
            tracer.instant("made.up.name")  # reprolint: disable-line=TRACE01
        assert len(tracer) == 0

    def test_double_end_rejected(self):
        tracer, _ = make_tracer()
        span = tracer.begin("commit")
        tracer.end(span)
        with pytest.raises(ValueError, match=r"span 0 \(commit\) already ended"):
            tracer.end(span)

    def test_argless_records_own_their_args(self):
        tracer, _ = make_tracer()
        first = tracer.begin("commit")
        second = tracer.begin("commit")
        tracer.instant("fault.point")
        tracer.end(first, status="committed")
        mark = tracer.instants[0]
        assert tracer.spans[first].args == {"status": "committed"}
        assert tracer.spans[second].args == {} and mark.args == {}
        records = tracer.spans + tracer.instants
        assert len({id(record.args) for record in records}) == len(records)

    def test_tid_inherited_from_parent(self):
        tracer, _ = make_tracer()
        root = tracer.begin("txn", tid=3)
        child = tracer.begin("lock.wait", parent=root)
        assert tracer.spans[child].tid == 3
        assert tracer.spans[child].parent_sid == tracer.spans[root].sid

    def test_explicit_tid_beats_parent(self):
        tracer, _ = make_tracer()
        root = tracer.begin("txn", tid=3)
        child = tracer.begin("writeback", parent=root, tid=9)
        assert tracer.spans[child].tid == 9

    def test_seq_is_strictly_monotonic_across_kinds(self):
        tracer, _ = make_tracer()
        first = tracer.begin("txn")
        tracer.instant("fault.point", hook="x")
        last = tracer.begin("commit")
        seqs = [
            tracer.spans[first].seq,
            tracer.instants[0].seq,
            tracer.spans[last].seq,
        ]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3

    def test_end_merges_args(self):
        tracer, _ = make_tracer()
        span = tracer.begin("txn", attempt=1)
        tracer.end(span, status="committed")
        assert tracer.spans[span].args == {"attempt": 1, "status": "committed"}

    def test_instant_is_zero_duration(self):
        tracer, clock = make_tracer()
        clock.now = 4.0
        assert tracer.instant("machine.crash", reason="test") is None
        mark = tracer.instants[0]
        assert mark.start == mark.end == 4.0
        assert mark.duration == 0.0

    def test_open_span_duration_is_zero(self):
        tracer, clock = make_tracer()
        handle = tracer.begin("qp.wait")
        clock.now = 10.0
        span = tracer.spans[handle]
        assert not span.closed
        assert span.duration == 0.0


class TestMachineBinding:
    def test_traced_machine_records_through_the_tracer_itself(self):
        tracer = Tracer()
        machine = DatabaseMachine(MachineConfig(), tracer=tracer)
        assert machine._tspan == tracer.begin
        assert machine._tend == tracer.end
        assert machine._tinstant == tracer.instant

    def test_untraced_machine_records_nothing(self):
        machine = DatabaseMachine(MachineConfig())
        span = machine._tspan("txn", tid=1, attempt=1)
        assert span is None
        assert machine._tend(span, status="committed") is None
        assert machine._tinstant("machine.crash", reason="test") is None
        assert machine.tracer is None and machine.env.tracer is None


class TestQueries:
    def build(self):
        tracer, clock = make_tracer()
        a = tracer.begin("txn", tid=1)
        b = tracer.begin("qp.exec", parent=a)
        clock.now = 2.0
        tracer.end(b)
        tracer.end(a)
        tracer.begin("txn", tid=2)  # never ended: crash victim
        return tracer

    def test_spans_of_returns_closed_spans_for_tid(self):
        tracer = self.build()
        assert [s.name for s in tracer.spans_of(1)] == ["txn", "qp.exec"]
        assert tracer.spans_of(2) == []

    def test_named_filters_by_name(self):
        tracer = self.build()
        assert [s.tid for s in tracer.named("qp.exec")] == [1]

    def test_open_spans_survive_a_crash_cut(self):
        tracer = self.build()
        assert [s.tid for s in tracer.open_spans()] == [2]

    def test_len_counts_spans_and_instants(self):
        tracer = self.build()
        tracer.instant("fault.point", hook="h")
        assert len(tracer) == 4


class TestHandlesAndViews:
    def test_handle_is_the_index_in_spans(self):
        tracer, _ = make_tracer()
        handles = [tracer.begin("txn", tid=t) for t in range(3)]
        assert handles == [0, 1, 2]
        assert [tracer.spans[h].tid for h in handles] == [0, 1, 2]

    def test_reads_are_cached_and_extended(self):
        tracer, clock = make_tracer()
        first = tracer.begin("txn", tid=1)
        view = tracer.spans
        assert tracer.spans is view and tracer.spans[first] is view[first]
        second = tracer.begin("commit", parent=first)
        assert tracer.spans is view and len(view) == 2
        assert view[second].tid == 1 and view[second].parent_sid == first

    def test_end_after_read_patches_the_cached_span(self):
        tracer, clock = make_tracer()
        handle = tracer.begin("txn", tid=1, attempt=1)
        span = tracer.spans[handle]
        assert not span.closed
        clock.now = 3.0
        tracer.end(handle, status="committed", attempt=2)
        assert span.end == 3.0
        assert list(span.args.items()) == [("attempt", 2), ("status", "committed")]
        with pytest.raises(ValueError, match=r"span 0 \(txn\) already ended"):
            tracer.end(handle)

    def test_len_does_not_build_views(self):
        tracer, _ = make_tracer()
        tracer.begin("txn")
        tracer.instant("fault.point", hook="h")
        assert len(tracer) == 2
        assert tracer._spans == [] and tracer._instants == []

    def test_building_consumes_the_rows(self):
        tracer, _ = make_tracer()
        for tid in range(3000):
            tracer.begin("txn", tid=tid)
            tracer.instant("fault.point", hook="h")
        assert len(tracer.spans) == len(tracer.instants) == 3000
        assert tracer._chunks == [[]] and tracer._instant_chunks == [[]]

    def test_rows_span_several_chunks(self):
        tracer, clock = make_tracer()
        handles = [tracer.begin("qp.exec", tid=i % 7, page=i) for i in range(5000)]
        clock.now = 1.0
        for h in reversed(handles):
            tracer.end(h, update=h % 2 == 0)
        spans = tracer.spans
        assert [s.sid for s in spans] == handles
        assert spans[4321].args == {"page": 4321, "update": False}
        assert all(s.end == 1.0 for s in spans)
        assert len(tracer.spans_of(3)) == len(range(3, 5000, 7))


# -- the reference recorder ------------------------------------------------------
class ReferenceTracer:
    """The recorder as it stood before rows: one :class:`Span` object per
    record, each keeping its own ``**args`` dict.  It is the oracle the
    row-based :class:`Tracer` must match field for field."""

    def __init__(self, env=None) -> None:
        self.env = env
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._seq = count(1)

    def begin(self, name, parent=None, tid=None, track=None, **args) -> Span:
        if name not in CATALOGUE:
            raise ValueError(
                f"span name {name!r} is not in the registered catalogue "
                "(repro.trace.names.CATALOGUE); register it there first"
            )
        if parent is None:
            parent_sid = None
        else:
            parent_sid = parent.sid
            if tid is None:
                tid = parent.tid
        span = Span(
            len(self.spans), name, self.env.now, next(self._seq), parent_sid, tid, track, args
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, **args) -> Span:
        if span.end is not None:
            raise ValueError(f"span {span.sid} ({span.name}) already ended")
        span.end = self.env.now
        if args:
            span.args.update(args)
        return span

    def instant(self, name, tid=None, track=None, **args) -> Span:
        if name not in CATALOGUE:
            raise ValueError(
                f"span name {name!r} is not in the registered catalogue "
                "(repro.trace.names.CATALOGUE); register it there first"
            )
        now = self.env.now
        mark = Span(len(self.instants), name, now, next(self._seq), None, tid, track, args)
        mark.end = now
        self.instants.append(mark)
        return mark

    def spans_of(self, tid):
        return [s for s in self.spans if s.tid == tid and s.closed]

    def named(self, name):
        return [s for s in self.spans if s.name == name and s.closed]

    def open_spans(self):
        return [s for s in self.spans if not s.closed]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


def _fields(span: Span) -> tuple:
    """Every field of a record; ``args`` as ordered, typed items."""
    return (
        span.sid, span.parent_sid, span.name, span.start, type(span.start), span.end,
        type(span.end),
        span.tid, span.track, span.seq,
        [(key, type(value), value) for key, value in span.args.items()],
    )


class Twin:
    """Drives a :class:`Tracer` and a :class:`ReferenceTracer` with the same
    calls and checks that they agree, errors included."""

    def __init__(self) -> None:
        self.clock = Clock()
        self.tracer = Tracer(env=self.clock)
        self.reference = ReferenceTracer(env=self.clock)
        self.handles: List[int] = []
        self.objects: List[Span] = []

    def _both(self, new, old) -> Optional[tuple]:
        try:
            expected = old()
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                new()
            assert str(raised.value) == str(error)
            return None
        return new(), expected

    def advance(self, dt) -> None:
        self.clock.now = self.clock.now + dt

    # The twin forwards drawn names, registered or not, so its two record
    # calls are exempt from the literal-name rule.
    def begin(self, name, parent, tid, track, args: Dict[str, Any]) -> None:
        parent_handle = None if parent is None else self.handles[parent]
        parent_span = None if parent is None else self.objects[parent]
        pair = self._both(
            lambda: self.tracer.begin(name, parent_handle, tid, track, **args),  # reprolint: disable-line=TRACE01
            lambda: self.reference.begin(name, parent_span, tid, track, **args),
        )
        if pair is not None:
            handle, span = pair
            assert handle == span.sid
            self.handles.append(handle)
            self.objects.append(span)

    def end(self, index, args: Dict[str, Any]) -> None:
        pair = self._both(
            lambda: self.tracer.end(self.handles[index], **args),
            lambda: self.reference.end(self.objects[index], **args),
        )
        if pair is not None:
            assert pair[0] is None

    def instant(self, name, tid, track, args: Dict[str, Any]) -> None:
        pair = self._both(
            lambda: self.tracer.instant(name, tid, track, **args),  # reprolint: disable-line=TRACE01
            lambda: self.reference.instant(name, tid, track, **args),
        )
        if pair is not None:
            assert pair[0] is None

    def check(self) -> None:
        new, old = self.tracer, self.reference
        assert len(new) == len(old)
        assert [_fields(s) for s in new.spans] == [_fields(s) for s in old.spans]
        assert [_fields(s) for s in new.instants] == [_fields(s) for s in old.instants]
        assert [s.sid for s in new.open_spans()] == [s.sid for s in old.open_spans()]
        for tid in {s.tid for s in old.spans}:
            assert [s.sid for s in new.spans_of(tid)] == [s.sid for s in old.spans_of(tid)]
        for name in {s.name for s in old.spans}:
            assert [s.sid for s in new.named(name)] == [s.sid for s in old.named(name)]

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "advance":
            self.advance(op[1])
        elif kind == "begin":
            _, name, parent, tid, track, args = op
            parent = None if parent is None or not self.handles else parent % len(self.handles)
            self.begin(name, parent, tid, track, dict(args))
        elif kind == "end":
            if self.handles:
                self.end(op[1] % len(self.handles), dict(op[2]))
        elif kind == "instant":
            _, name, tid, track, args = op
            self.instant(name, tid, track, dict(args))
        else:
            self.check()


_NAMES = st.one_of(st.sampled_from(sorted(CATALOGUE)), st.just("made.up.name"))
_TIDS = st.one_of(st.none(), st.integers(0, 4), st.integers(-(2 ** 70), 2 ** 70))
_TRACKS = st.sampled_from([None, "data0", "pt0"])
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.tuples(st.integers(0, 9)),
)
#: Argument lists with distinct keys in drawn order (the order is part of
#: what must match).
_ARGS = st.lists(
    st.tuples(st.sampled_from(["page", "kind", "status", "pages", "hook", "outcome"]), _VALUES),
    max_size=4,
    unique_by=lambda item: item[0],
)
_OPS = st.one_of(
    st.tuples(st.just("advance"), st.one_of(st.integers(0, 3), st.floats(0, 10))),
    st.tuples(
        st.just("begin"), _NAMES, st.one_of(st.none(), st.integers(0, 1000)),
        _TIDS, _TRACKS, _ARGS,
    ),
    st.tuples(st.just("end"), st.integers(0, 1000), _ARGS),
    st.tuples(st.just("instant"), _NAMES, _TIDS, _TRACKS, _ARGS),
    st.tuples(st.just("read")),
)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=60))
    def test_random_sequences_match_the_span_object_recorder(self, ops):
        twin = Twin()
        for op in ops:
            twin.apply(op)
        twin.check()

    def test_long_sequence_across_chunks_matches(self):
        # More than two chunks of span rows, late ends of spans from the
        # first chunk, and reads in the middle of recording.
        rng = random.Random(1985)
        twin = Twin()
        names = sorted(CATALOGUE)
        for step in range(12_000):
            roll = rng.random()
            args = {key: rng.randrange(1000) for key in rng.sample(["page", "pages", "hook"], rng.randrange(3))}
            if roll < 0.55:
                parent = rng.randrange(len(twin.handles)) if twin.handles and rng.random() < 0.5 else None
                tid = rng.choice([None, rng.randrange(50)])
                twin.begin(rng.choice(names), parent, tid, rng.choice([None, "data0"]), args)
            elif roll < 0.85 and twin.handles:
                twin.end(rng.randrange(len(twin.handles)), args)
            elif roll < 0.95:
                twin.instant(rng.choice(names), rng.choice([None, 3]), None, args)
            else:
                twin.advance(rng.random())
            if step in (3_000, 9_500):
                twin.check()
        twin.check()
        assert len(twin.handles) > 2 * 2048


# -- memory ----------------------------------------------------------------------
#: Bytes a traced run may retain per trace record.  The row store keeps
#: about 100; one ``Span`` object plus its own ``args`` dict per record
#: kept about 360.
MAX_BYTES_PER_RECORD = 200


def test_traced_open_run_retains_at_most_200_bytes_per_record():
    schedule = generate_arrivals(
        ArrivalConfig(process="poisson", rate_tps=1.0, n_arrivals=20),
        RandomStreams(1985).fork("arrivals"),
    )
    config = MachineConfig().with_overrides(
        seed=1985, parallel_data_disks=True, **machine_overrides("shadow")
    )
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=schedule.offered, max_pages=60),
        config.db_pages,
        RandomStreams(7).stream("workload"),
    )
    tracer = Tracer()
    machine = DatabaseMachine(config, sim_architecture("shadow"), tracer=tracer)
    gc.collect()
    tracemalloc.start()
    try:
        machine.run_open(
            transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
        )
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tracer) > 5_000
    assert retained / len(tracer) <= MAX_BYTES_PER_RECORD
