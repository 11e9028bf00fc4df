"""The reprolint engine: every rule, suppressions, reporters, and the CLI.

Each rule is exercised against a violating and a clean inline fixture
written to a throwaway ``src/repro`` tree, so the tests stay hermetic and
the fixtures document exactly what each rule considers wrong.
"""

import json
import textwrap

import pytest

from repro.lint import (
    Finding,
    LintEngine,
    all_rules,
    render_json,
    render_text,
)
from repro.lint.cli import main
from repro.lint.reporters import JSON_SCHEMA_VERSION

EXPECTED_RULES = {
    "API01",
    "API02",
    "ARCH01",
    "ARCH03",
    "BENCH01",
    "BENCH02",
    "DET01",
    "DET02",
    "DET03",
    "FP01",
    "PROTO01",
    "PROTO02",
    "RNG01",
    "TR02",
    "TRACE01",
}


def lint(tmp_path, files, rules=None):
    """Write ``files`` (relpath -> source) under tmp_path and lint them."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    engine = LintEngine(rules=rules, root=str(tmp_path))
    return engine.run([str(tmp_path)])


def codes(findings):
    return [finding.rule for finding in findings]


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(all_rules()) == EXPECTED_RULES

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="NOPE99"):
            LintEngine(rules=["NOPE99"])

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        findings = lint(tmp_path, {"src/repro/broken.py": "def oops(:\n"})
        assert codes(findings) == ["PARSE"]


class TestDet01AmbientEntropy:
    def test_direct_random_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                import random

                rng = random.Random(3)
                """
            },
            rules=["DET01"],
        )
        assert codes(findings) == ["DET01"]
        assert "RandomStreams" in findings[0].message

    def test_from_import_and_alias_resolved(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                from random import randrange
                import uuid as u

                a = randrange(5)
                b = u.uuid4()
                """
            },
            rules=["DET01"],
        )
        assert codes(findings) == ["DET01", "DET01"]

    def test_wall_clock_calls_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                import time
                from datetime import datetime

                t = time.time()
                d = datetime.now()
                """
            },
            rules=["DET01"],
        )
        assert len(findings) == 2
        assert all("Environment.now" in f.message for f in findings)

    def test_benign_time_member_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                import time

                parsed = time.strptime("1985", "%Y")
                """
            },
            rules=["DET01"],
        )
        assert findings == []

    def test_outside_repro_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "tools/script.py": """
                import random

                x = random.random()
                """
            },
            rules=["DET01"],
        )
        assert findings == []

    def test_file_suppression(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                # reprolint: disable=DET01  (fixture)
                import random

                x = random.random()
                """
            },
            rules=["DET01"],
        )
        assert findings == []

    def test_line_suppression_is_line_scoped(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                import random

                a = random.random()  # reprolint: disable-line=DET01
                b = random.random()
                """
            },
            rules=["DET01"],
        )
        assert len(findings) == 1
        assert findings[0].line == 5


class TestDet02SetIteration:
    def test_iterating_set_literal_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def drain(queue):
                    pending = {1, 2, 3}
                    for item in pending:
                        queue.append(item)
                """
            },
            rules=["DET02"],
        )
        assert codes(findings) == ["DET02"]
        assert "sorted" in findings[0].message

    def test_set_call_and_comprehension_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def spread(items):
                    return [x for x in set(items)]
                """
            },
            rules=["DET02"],
        )
        assert codes(findings) == ["DET02"]

    def test_sorted_wrapper_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def drain(queue):
                    pending = {1, 2, 3}
                    for item in sorted(pending):
                        queue.append(item)
                """
            },
            rules=["DET02"],
        )
        assert findings == []

    def test_reassignment_clears_set_taint(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def drain(queue):
                    pending = {1, 2, 3}
                    pending = sorted(pending)
                    for item in pending:
                        queue.append(item)
                """
            },
            rules=["DET02"],
        )
        assert findings == []

    def test_dict_get_with_set_default_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def members(table, key):
                    for item in table.get(key, set()):
                        yield item
                """
            },
            rules=["DET02"],
        )
        assert codes(findings) == ["DET02"]


class TestDet03ProcessYields:
    def test_non_event_yield_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def ticker(env):
                    yield 5

                def wire(env):
                    env.process(ticker(env))
                """
            },
            rules=["DET03"],
        )
        assert codes(findings) == ["DET03"]
        assert "non-Event" in findings[0].message

    def test_non_generator_target_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def not_a_generator(env):
                    return 1

                def wire(env):
                    env.process(not_a_generator(env))
                """
            },
            rules=["DET03"],
        )
        assert codes(findings) == ["DET03"]
        assert "not a generator" in findings[0].message

    def test_event_yields_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def server(env, disk):
                    yield env.timeout(3.0)
                    request = disk.read([0])
                    yield request.done

                def wire(env, disk):
                    env.process(server(env, disk))
                """
            },
            rules=["DET03"],
        )
        assert findings == []

    def test_unwired_generator_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                def helper():
                    yield 42
                """
            },
            rules=["DET03"],
        )
        assert findings == []


BASE_PY = """
class RecoveryArchitecture:
    name = "bare"

    def attach(self, machine):
        self.machine = machine

    def on_commit(self, txn):
        yield None

    def writeback(self, txn, page):
        yield None
"""


class TestArch01HookSurface:
    def test_violations_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/base.py": BASE_PY,
                "src/repro/core/toy/architecture.py": """
                from repro.core.base import RecoveryArchitecture

                class ToyArchitecture(RecoveryArchitecture):
                    def attach(self, machine):
                        self.machine = machine

                    def on_commit(self, txn, extra):
                        yield None

                    def on_comit(self, txn):
                        yield None
                """,
            },
            rules=["ARCH01"],
        )
        messages = " | ".join(f.message for f in findings)
        assert codes(findings) == ["ARCH01"] * 4
        assert "'name'" in messages
        assert "super().attach" in messages
        assert "drifts from the base hook" in messages
        assert "typo of hook 'on_commit'" in messages

    def test_faithful_subclass_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/base.py": BASE_PY,
                "src/repro/core/toy/architecture.py": """
                from repro.core.base import RecoveryArchitecture

                class ToyArchitecture(RecoveryArchitecture):
                    name = "toy"

                    def attach(self, machine):
                        super().attach(machine)

                    def on_commit(self, txn):
                        yield None
                """,
            },
            rules=["ARCH01"],
        )
        assert findings == []

    def test_base_module_itself_exempt(self, tmp_path):
        findings = lint(
            tmp_path, {"src/repro/core/base.py": BASE_PY}, rules=["ARCH01"]
        )
        assert findings == []


class TestProto01WalOrdering:
    def test_unprotected_writeback_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, addr):
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert codes(findings) == ["PROTO01"]
        assert "no log force" in findings[0].message

    def test_durable_wait_protects(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, fragment, addr):
                    yield fragment.durable
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_log_force_protects(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, log, addr):
                    log.force()
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_branch_local_force_does_not_cover_other_path(self, tmp_path):
        # The source-order walk this rule replaced (ARCH02) was blind to
        # exactly this: the force only happens on the hot-frame branch.
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, log, frame, addr):
                    if frame.hot:
                        log.force()
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert codes(findings) == ["PROTO01"]

    def test_force_on_all_branches_protects(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, log, frame, addr):
                    if frame.hot:
                        log.force()
                    else:
                        yield frame.durable
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_durable_triggered_guard_protects(self, tmp_path):
        # ``if not fragment.durable.triggered: yield`` — consulting the
        # barrier covers both branches (either it fired or we wait).
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                def writeback(machine, fragment, addr):
                    if not fragment.durable.triggered:
                        yield fragment.durable
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_helper_that_forces_counts_at_call_site(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                class Arch:
                    def writeback(self, frame, addr):
                        self._secure(frame)
                        request = self.disks[0].write([addr], tag="writeback")
                        yield request.done

                    def _secure(self, frame):
                        self.log.force()
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_helper_entered_protected_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                class Arch:
                    def writeback(self, frame, addr):
                        self.log.force()
                        yield from self._home(addr)

                    def _home(self, addr):
                        request = self.disks[0].write([addr], tag="writeback")
                        yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []

    def test_helper_entered_unprotected_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/toy.py": """
                class Arch:
                    def writeback(self, frame, addr):
                        yield from self._home(addr)

                    def _home(self, addr):
                        request = self.disks[0].write([addr], tag="writeback")
                        yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert codes(findings) == ["PROTO01"]
        assert "_home" in findings[0].message

    def test_outside_core_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                def writeback(machine, addr):
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO01"],
        )
        assert findings == []


class TestProto02ShadowOrdering:
    def test_unprotected_overwrite_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/shadow/toy.py": """
                def on_commit(machine, addr):
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO02"],
        )
        assert codes(findings) == ["PROTO02"]
        assert "no shadow install" in findings[0].message

    def test_scratch_write_protects(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/shadow/toy.py": """
                def on_commit(machine, addr, scratch_addr):
                    saved = machine.disks[0].write([scratch_addr], tag="scratch")
                    yield saved.done
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO02"],
        )
        assert findings == []

    def test_install_protects_and_loop_paths_checked(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/shadow/toy.py": """
                def on_commit(machine, table, pages):
                    for page in pages:
                        table.install(page)
                    request = machine.disks[0].write(pages, tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO02"],
        )
        # The zero-iteration path skips install: flagged.
        assert codes(findings) == ["PROTO02"]

    def test_wal_scope_not_checked_here(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/core/logging/toy.py": """
                def writeback(machine, addr):
                    request = machine.disks[0].write([addr], tag="writeback")
                    yield request.done
                """
            },
            rules=["PROTO02"],
        )
        assert findings == []


FP01_BASE_PY = """
class RecoveryManager:
    name = "abstract"

    def commit(self, tid):
        self._do_commit(tid)

    def _fault_point(self, name):
        pass
"""


class TestFp01FaultPointCoverage:
    def test_commit_without_fault_point_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        self.stable.append("commits", tid)
                """,
            },
            rules=["FP01"],
        )
        assert codes(findings) == ["FP01"]
        assert "ToyManager._do_commit" in findings[0].message
        assert "_fault_point" in findings[0].message

    def test_fault_point_on_path_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        self._fault_point("toy.commit.pre-record")
                        self.stable.append("commits", tid)
                """,
            },
            rules=["FP01"],
        )
        assert findings == []

    def test_branch_missing_fault_point_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        if tid % 2:
                            self._fault_point("toy.commit.odd")
                        self.stable.append("commits", tid)
                """,
            },
            rules=["FP01"],
        )
        assert codes(findings) == ["FP01"]

    def test_helper_reached_from_entry_checked(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        self._fault_point("toy.commit.pre")
                        self._record(tid)

                    def _record(self, tid):
                        self.stable.append("commits", tid)
                """,
            },
            rules=["FP01"],
        )
        assert codes(findings) == ["FP01"]
        assert "_record" in findings[0].message

    def test_always_faulting_helper_discharges(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        self._pause()
                        self.stable.append("commits", tid)

                    def _pause(self):
                        self._fault_point("toy.commit.pre-record")
                """,
            },
            rules=["FP01"],
        )
        assert findings == []

    def test_method_not_reachable_from_entries_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def debug_poke(self):
                        self.stable.append("scratch", 0)
                """,
            },
            rules=["FP01"],
        )
        assert findings == []

    def test_raising_path_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": FP01_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    def _do_commit(self, tid):
                        self.stable.append("commits", tid)
                        raise RuntimeError("commit path always aborts")
                """,
            },
            rules=["FP01"],
        )
        assert findings == []


class TestTr02SpanBalance:
    def test_early_return_leaves_span_open(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, work):
                        span = self._tspan("service.cpu")
                        if not work:
                            return 0
                        self._tend(span)
                        return 1
                """
            },
            rules=["TR02"],
        )
        assert codes(findings) == ["TR02"]
        assert "still open" in findings[0].message

    def test_finally_balances_early_return(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, work):
                        span = self._tspan("service.cpu")
                        try:
                            if not work:
                                return 0
                            return 1
                        finally:
                            self._tend(span)
                """
            },
            rules=["TR02"],
        )
        assert findings == []

    def test_exceptional_exit_exempt(self, tmp_path):
        # A crash cut-off legitimately leaves the span open.
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, work):
                        span = self._tspan("service.cpu")
                        if not work:
                            raise RuntimeError("machine crashed")
                        self._tend(span)
                        return 1
                """
            },
            rules=["TR02"],
        )
        assert findings == []

    def test_rebegin_while_open_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, jobs):
                        for job in jobs:
                            span = self._tspan("service.cpu")
                            job.go()
                        self._tend(span)
                """
            },
            rules=["TR02"],
        )
        assert any("re-begins" in f.message for f in findings)

    def test_balanced_loop_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, jobs):
                        for job in jobs:
                            span = self._tspan("service.cpu")
                            job.go()
                            self._tend(span)
                """
            },
            rules=["TR02"],
        )
        assert findings == []

    def test_escaping_span_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def open_span(self):
                        span = self._tspan("service.cpu")
                        return span
                """
            },
            rules=["TR02"],
        )
        assert findings == []

    def test_tracer_begin_end_tracked(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/toy.py": """
                def record(tracer, work):
                    span = tracer.begin("txn")
                    if work:
                        tracer.end(span)
                """
            },
            rules=["TR02"],
        )
        assert codes(findings) == ["TR02"]

    def test_outer_finally_keeps_return_apart_from_raise(self, tmp_path):
        # The span is open on the raise edges into the shared finally, but
        # closed on every route that returns through it.
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self):
                        try:
                            span = self._tspan("lock.wait")
                            try:
                                yield 1
                            except ValueError:
                                self._tend(span)
                                return
                            self._tend(span)
                        finally:
                            self.done()
                """
            },
            rules=["TR02"],
        )
        assert findings == []

    def test_outer_finally_still_flags_open_return(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, work):
                        try:
                            span = self._tspan("lock.wait")
                            if not work:
                                return
                            self._tend(span)
                        finally:
                            self.done()
                """
            },
            rules=["TR02"],
        )
        assert codes(findings) == ["TR02"]

    def test_raise_resumed_into_handler_that_returns(self, tmp_path):
        # The inner finally resumes the raise into the outer handler,
        # which returns with the span open.
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self, work):
                        span = self._tspan("lock.wait")
                        try:
                            try:
                                work()
                            finally:
                                self.done()
                        except ValueError:
                            return
                        self._tend(span)
                """
            },
            rules=["TR02"],
        )
        assert codes(findings) == ["TR02"]

    def test_finally_with_nested_try_stays_conservative(self, tmp_path):
        # A finalizer with a try of its own is not labelled: its exit fans
        # out to every continuation, so the raise-edge states reach the
        # parked return (a known false positive, kept on purpose).
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/toy.py": """
                class M:
                    def run(self):
                        try:
                            span = self._tspan("lock.wait")
                            try:
                                yield 1
                            except ValueError:
                                self._tend(span)
                                return
                            self._tend(span)
                        finally:
                            try:
                                self.done()
                            except ValueError:
                                pass
                """
            },
            rules=["TR02"],
        )
        assert codes(findings) == ["TR02"]


class TestRng01StreamAliasing:
    def test_two_modules_sharing_a_stream_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/workload/gen.py": """
                def arrivals(machine):
                    return machine.streams.stream("shared.alias").random()
                """,
                "src/repro/faults/jitter.py": """
                def jitter(machine):
                    return machine.streams.stream("shared.alias").random()
                """,
            },
            rules=["RNG01"],
        )
        assert codes(findings) == ["RNG01", "RNG01"]
        assert "shared.alias" in findings[0].message

    def test_single_consumer_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/workload/gen.py": """
                def arrivals(machine):
                    return machine.streams.stream("workload.arrivals").random()
                """,
                "src/repro/faults/jitter.py": """
                def jitter(machine):
                    return machine.streams.stream("faults.jitter").random()
                """,
            },
            rules=["RNG01"],
        )
        assert findings == []

    def test_fresh_private_streams_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/workload/gen.py": """
                from repro.sim.rng import RandomStreams

                def arrivals(seed):
                    return RandomStreams(seed).stream("shared.name").random()
                """,
                "src/repro/analysis/check.py": """
                from repro.sim.rng import RandomStreams

                def replay(seed):
                    return RandomStreams(seed).fork("replay").stream("shared.name").random()
                """,
            },
            rules=["RNG01"],
        )
        assert findings == []

    def test_computed_names_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/hardware/disk.py": """
                def lane(machine, index):
                    return machine.streams.stream(f"disk.{index}")
                """,
                "src/repro/hardware/mirror.py": """
                def lane(machine, index):
                    return machine.streams.stream(f"disk.{index}")
                """,
            },
            rules=["RNG01"],
        )
        assert findings == []


MANAGER_BASE_PY = """
class RecoveryManager:
    name = "abstract"
    checkpoint_policy = None
    checkpoint_unsupported = False
"""


class TestArch03CheckpointCapability:
    def test_undeclared_manager_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    name = "toy"
                """,
            },
            rules=["ARCH03"],
        )
        assert codes(findings) == ["ARCH03"]
        assert "checkpoint_policy" in findings[0].message
        assert "ToyManager" in findings[0].message

    def test_policy_declaration_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    name = "toy"
                    checkpoint_policy = object
                """,
            },
            rules=["ARCH03"],
        )
        assert findings == []

    def test_explicit_opt_out_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class ToyManager(RecoveryManager):
                    name = "toy"
                    checkpoint_unsupported = True
                """,
            },
            rules=["ARCH03"],
        )
        assert findings == []

    def test_inherited_declaration_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class CheckpointedManager(RecoveryManager):
                    checkpoint_policy = object

                class ToyManager(CheckpointedManager):
                    name = "toy"
                """,
            },
            rules=["ARCH03"],
        )
        assert findings == []

    def test_base_declaration_does_not_count(self, tmp_path):
        # The abstract base's own attributes are the undeclared default —
        # inheriting them is exactly what ARCH03 exists to catch.
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/storage/toy.py": """
                from repro.storage.interface import RecoveryManager

                class MidManager(RecoveryManager):
                    pass

                class ToyManager(MidManager):
                    name = "toy"
                """,
            },
            rules=["ARCH03"],
        )
        assert codes(findings) == ["ARCH03", "ARCH03"]

    def test_outside_storage_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/interface.py": MANAGER_BASE_PY,
                "src/repro/faults/toy.py": """
                from repro.storage.interface import RecoveryManager

                class FixtureManager(RecoveryManager):
                    name = "fixture"
                """,
            },
            rules=["ARCH03"],
        )
        assert findings == []


class TestApi01DunderAll:
    def test_missing_dunder_all_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"src/repro/foo.py": "def public():\n    return 1\n"},
            rules=["API01"],
        )
        assert codes(findings) == ["API01"]
        assert "no __all__" in findings[0].message

    def test_stale_and_missing_entries_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                __all__ = ["gone"]

                def public():
                    return 1
                """
            },
            rules=["API01"],
        )
        messages = " | ".join(f.message for f in findings)
        assert codes(findings) == ["API01", "API01"]
        assert "'gone' which is not defined" in messages
        assert "public 'public' missing" in messages

    def test_non_literal_dunder_all_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                names = ["a"]
                __all__ = names
                """
            },
            rules=["API01"],
        )
        assert codes(findings) == ["API01"]
        assert "literal" in findings[0].message

    def test_consistent_module_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/foo.py": """
                __all__ = ["CONSTANT", "public"]

                CONSTANT = 3

                def public():
                    return _helper()

                def _helper():
                    return 1
                """
            },
            rules=["API01"],
        )
        assert findings == []

    def test_dunder_main_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"src/repro/tool/__main__.py": "def run():\n    return 0\n"},
            rules=["API01"],
        )
        assert findings == []


class TestApi02Layering:
    def test_upward_import_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/sim/bad.py": """
                from repro.machine.machine import DatabaseMachine
                """
            },
            rules=["API02"],
        )
        assert codes(findings) == ["API02"]
        assert "layer violation" in findings[0].message

    def test_downward_and_sibling_imports_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/good.py": """
                from repro.sim.core import Environment
                from repro.machine.config import MachineConfig
                from repro.core.base import RecoveryArchitecture
                """
            },
            rules=["API02"],
        )
        assert findings == []

    def test_type_checking_import_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/sim/hinted.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.machine.machine import DatabaseMachine
                """
            },
            rules=["API02"],
        )
        assert findings == []

    def test_same_layer_cross_package_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/storage/bad.py": """
                import repro.metrics.collectors
                """
            },
            rules=["API02"],
        )
        assert codes(findings) == ["API02"]


class TestBench01DeclaredSeed:
    def test_seedless_benchmark_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                def test_toy(benchmark):
                    benchmark(lambda: 1)
                """
            },
            rules=["BENCH01"],
        )
        assert codes(findings) == ["BENCH01"]
        assert "seed" in findings[0].message

    def test_seed_constant_satisfies(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                SEED = 1985

                def test_toy(benchmark):
                    benchmark(lambda: SEED)
                """
            },
            rules=["BENCH01"],
        )
        assert findings == []

    def test_seed_keyword_satisfies(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                def test_toy(benchmark, run):
                    benchmark(lambda: run(seed=7))
                """
            },
            rules=["BENCH01"],
        )
        assert findings == []

    def test_non_benchmark_file_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {"benchmarks/_helper.py": "def helper():\n    return 1\n"},
            rules=["BENCH01"],
        )
        assert findings == []

    def test_grid_declaration_defers_to_bench02(self, tmp_path):
        # A grid spec pins the seed declaratively; BENCH01 steps aside
        # even though no SEED constant or seed= call keyword appears in
        # the module body outside the grid.
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                from repro.bench import Grid

                GRID = Grid(name="toy", seed=1, runner=len, primary_metric="x")
                """
            },
            rules=["BENCH01"],
        )
        assert findings == []


_GRIDDED = """
from repro.bench import Grid


def runner(params, seed):
    return {"cost": 1.0}


GRID = Grid(name="toy", seed=1985, runner=runner, primary_metric="cost")
"""


class TestBench02GridSpec:
    def test_gridless_benchmark_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                SEED = 1985

                def test_toy(benchmark):
                    benchmark(lambda: SEED)
                """
            },
            rules=["BENCH02"],
        )
        assert codes(findings) == ["BENCH02"]
        assert "grid spec" in findings[0].message

    def test_direct_grid_satisfies(self, tmp_path):
        findings = lint(
            tmp_path,
            {"benchmarks/bench_toy.py": _GRIDDED},
            rules=["BENCH02"],
        )
        assert findings == []

    def test_harness_factory_satisfies(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                from benchmarks._harness import table_grid

                GRID = table_grid("toy", len, primary_metric="mean.x", seed=1985)
                """
            },
            rules=["BENCH02"],
        )
        assert findings == []

    def test_grid_without_seed_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                from repro.bench import Grid

                GRID = Grid(name="toy", runner=len, primary_metric="x")
                """
            },
            rules=["BENCH02"],
        )
        assert codes(findings) == ["BENCH02"]
        assert "seed=" in findings[0].message

    def test_unrelated_call_is_not_a_grid(self, tmp_path):
        # A call that merely *looks* like a factory (same name, different
        # origin) must not satisfy the rule.
        findings = lint(
            tmp_path,
            {
                "benchmarks/bench_toy.py": """
                from somewhere_else import Grid

                GRID = Grid(name="toy", seed=1985)
                """
            },
            rules=["BENCH02"],
        )
        assert codes(findings) == ["BENCH02"]

    def test_non_benchmark_file_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {"benchmarks/_helper.py": "def helper():\n    return 1\n"},
            rules=["BENCH02"],
        )
        assert findings == []


_TRACE_CATALOGUE = """
TXN = "txn"
LOCK_WAIT = "lock.wait"
"""


class TestTrace01CataloguedSpanNames:
    def test_computed_name_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/names.py": _TRACE_CATALOGUE,
                "src/repro/machine/thing.py": """
                def go(self, name):
                    self.tracer.begin(name, tid=1)
                """,
            },
            rules=["TRACE01"],
        )
        assert codes(findings) == ["TRACE01"]
        assert "string literal" in findings[0].message

    def test_unregistered_name_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/names.py": _TRACE_CATALOGUE,
                "src/repro/machine/thing.py": """
                def go(self):
                    self._tspan("made.up", tid=1)
                """,
            },
            rules=["TRACE01"],
        )
        assert codes(findings) == ["TRACE01"]
        assert "made.up" in findings[0].message

    def test_catalogued_literal_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/names.py": _TRACE_CATALOGUE,
                "src/repro/machine/thing.py": """
                def go(self, tracer):
                    span = tracer.begin("txn", tid=1)
                    self._tinstant("lock.wait")
                    return span
                """,
            },
            rules=["TRACE01"],
        )
        assert findings == []

    def test_no_positional_name_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/names.py": _TRACE_CATALOGUE,
                "src/repro/machine/thing.py": """
                def go(self):
                    self.tracer.begin(name="txn")
                """,
            },
            rules=["TRACE01"],
        )
        assert codes(findings) == ["TRACE01"]

    def test_without_catalogue_only_literalness_checked(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/machine/thing.py": """
                def go(self):
                    self._tspan("anything.goes")
                """
            },
            rules=["TRACE01"],
        )
        assert findings == []

    def test_unrelated_begin_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "src/repro/trace/names.py": _TRACE_CATALOGUE,
                "src/repro/storage/thing.py": """
                def go(self, manager, txn):
                    tid = manager.begin()
                    txn.begin(tid)
                    return tid
                """,
            },
            rules=["TRACE01"],
        )
        assert findings == []


class TestReporters:
    FINDINGS = [
        Finding(path="src/repro/a.py", line=3, col=5, rule="DET01", message="bad"),
        Finding(path="src/repro/b.py", line=9, col=1, rule="API01", message="worse"),
    ]

    def test_text_format(self):
        text = render_text(self.FINDINGS, checked_files=4)
        lines = text.splitlines()
        assert lines[0] == "src/repro/a.py:3:5: DET01 bad"
        assert lines[-1] == "2 findings in 4 files"

    def test_text_singular(self):
        assert render_text(self.FINDINGS[:1], checked_files=1).endswith(
            "1 finding in 1 files"
        )

    def test_json_schema(self):
        payload = json.loads(render_json(self.FINDINGS, checked_files=4))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files"] == 4
        assert payload["count"] == 2
        assert len(payload["findings"]) == 2
        entry = payload["findings"][0]
        assert set(entry) == {"path", "line", "col", "rule", "message"}
        assert entry["rule"] == "DET01"

    def test_findings_sort_by_location(self):
        assert sorted(reversed(self.FINDINGS)) == self.FINDINGS


class TestCli:
    def _write(self, tmp_path, rel, text):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/ok.py", '__all__ = []\n')
        assert main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        self._write(
            tmp_path,
            "src/repro/bad.py",
            "import random\n\n__all__ = []\n\nx = random.random()\n",
        )
        assert main([str(tmp_path)]) == 1
        assert "DET01" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        self._write(tmp_path, "src/repro/ok.py", '__all__ = []\n')
        assert main(["--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0

    def test_rule_selection(self, tmp_path, capsys):
        self._write(
            tmp_path, "src/repro/bad.py", "import random\n\nx = random.random()\n"
        )
        # API01 would flag the missing __all__; restricting to DET02 hides both.
        assert main(["--rules", "DET02", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main([str(missing)]) == 2
        assert "no such path" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--rules", "NOPE99", "src"]) == 2
        assert "NOPE99" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in EXPECTED_RULES:
            assert code in out
