"""Flow-sensitive recovery-protocol rules (the paper's ordering disciplines).

These rules walk the CFGs from :mod:`repro.lint.cfg` instead of source
order, so a protection only counts on the paths it actually covers, and
they consult the call graph from :mod:`repro.lint.callgraph`, so a
discipline satisfied inside a helper still counts at the call site.

PROTO01 — write-ahead-log ordering (paper §3.2, §4): inside the
logging/differential architecture layer, every ``tag="writeback"`` stable
write must be *dominated* by securing the log — a ``force()`` call, a
``yield fragment.durable`` barrier wait, or consulting
``fragment.durable.triggered`` (the guard that proves the barrier already
fired).  Checked on every CFG path, interprocedurally: a call to a helper
that establishes protection on all of its paths counts, and a helper
whose every caller enters it protected is not re-flagged.

PROTO02 — shadow ordering (paper §3.3, §5): inside ``repro.core.shadow``,
the shadow/scratch copy (``tag="scratch"`` traffic, ``update_entry``,
``install``) must dominate the home overwrite, same machinery.

FP01 — fault-point coverage (ROADMAP norm, machine-checked): every method
on a ``RecoveryManager`` (``repro.storage``) that is reachable from the
commit / recover / checkpoint / garbage-collection entry points and that
directly mutates stable storage must cross a ``_fault_point(...)`` on
*all* non-exceptional paths — otherwise crashtest can never schedule a
crash inside that mutation window and the recovery discipline there is
untested.  A call to a helper that faults on all of its own paths counts.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import keyword_value, ordered_walk
from repro.lint.callgraph import CallGraph, FunctionInfo, project_callgraph
from repro.lint.cfg import build_cfg, CFG
from repro.lint.dataflow import block_states, states_at_exit
from repro.lint.engine import ModuleContext, Project, Rule, register

__all__ = [
    "Proto01WalOrdering",
    "Proto02ShadowOrdering",
    "Fp01FaultPointCoverage",
]


def _element_nodes(element: ast.AST) -> Iterator[ast.AST]:
    """The element and its sub-expressions in source order (nested
    function/class definitions stay opaque, matching the CFG)."""
    yield element
    yield from ordered_walk(element)


# ---------------------------------------------------------------------------
# PROTO01 / PROTO02 — protection-dominates-home-write, interprocedural.
# ---------------------------------------------------------------------------

_FORCE_CALLS = {"force"}
_SHADOW_CALLS = {"update_entry", "install"}


def _call_tag(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    tag = keyword_value(node, "tag")
    if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
        return tag.value
    return None


def _is_home_write(node: ast.AST) -> bool:
    return _call_tag(node) == "writeback"


def _is_wal_protection(node: ast.AST) -> bool:
    """Log forced, durable barrier awaited, or barrier state consulted."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in _FORCE_CALLS:
            return True
    if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "durable":
            return True
    # ``if not fragment.durable.triggered: yield fragment.durable`` — the
    # read itself proves the code consulted the barrier on both branches.
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "triggered"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "durable"
    ):
        return True
    return False


def _is_shadow_protection(node: ast.AST) -> bool:
    """Scratch/shadow copy touched or page-table entry installed."""
    if _call_tag(node) == "scratch":
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SHADOW_CALLS:
            return True
    return False


class _ProtectionAnalysis:
    """Shared interprocedural engine for the PROTO rules.

    State is one bit — "protection established on this path".  Two
    project-wide fixpoints, both monotone (bits only flip upward):

    * ``protects[f]``: every path through ``f`` to its normal exit
      establishes protection — a call to such a helper counts as
      protection at the call site.
    * ``entered_protected[f]``: every resolved call site of ``f`` is
      itself protected (and at least one exists) — such a helper is
      analyzed with a protected entry state, so its home writes are the
      callers' responsibility, already discharged.

    Functions with no resolved callers (the architecture hooks, driven by
    the machine layer) are entry points: analyzed entered-unprotected.
    """

    def __init__(self, project: Project, in_scope, is_protection):
        self.graph: CallGraph = project_callgraph(project)
        self.is_protection = is_protection
        self.funcs: Dict[str, FunctionInfo] = {
            qualname: info
            for qualname, info in self.graph.functions.items()
            if in_scope(info.module)
        }
        self.cfgs: Dict[str, CFG] = {
            qualname: build_cfg(info.node) for qualname, info in self.funcs.items()
        }
        self.protects: Dict[str, bool] = {qualname: False for qualname in self.funcs}
        self.entered_protected: Dict[str, bool] = {
            qualname: False for qualname in self.funcs
        }
        self._solve()

    # -- transfer ----------------------------------------------------------
    def _step(self, info: FunctionInfo, state: bool, element: ast.AST) -> bool:
        protected = state
        for node in _element_nodes(element):
            if self.is_protection(node):
                protected = True
            elif isinstance(node, ast.Call):
                callee = self.graph.resolve_call(info, node)
                if callee is not None and self.protects.get(callee, False):
                    protected = True
        return protected

    def _entry_states(self, qualname: str) -> Dict[int, FrozenSet[bool]]:
        info = self.funcs[qualname]
        transfer = lambda state, element: self._step(info, state, element)
        return block_states(
            self.cfgs[qualname], transfer, self.entered_protected[qualname]
        )

    # -- fixpoint ----------------------------------------------------------
    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            call_site_protected: Dict[str, List[bool]] = {}
            for qualname, info in self.funcs.items():
                cfg = self.cfgs[qualname]
                entry = self._entry_states(qualname)
                # protects[f]: all states reaching the normal exit are True.
                exit_states = entry.get(cfg.exit.bid, frozenset())
                if exit_states and all(exit_states) and not self.protects[qualname]:
                    self.protects[qualname] = True
                    changed = True
                # Record the protection state at every resolved call site.
                for block in cfg.reachable():
                    if block.bid not in entry:
                        continue
                    for state in entry[block.bid]:
                        for element in block.elements:
                            self._collect_sites(
                                info, state, element, call_site_protected
                            )
                            state = self._step(info, state, element)
            for qualname in self.funcs:
                sites = call_site_protected.get(qualname)
                if sites and all(sites) and not self.entered_protected[qualname]:
                    self.entered_protected[qualname] = True
                    changed = True

    def _collect_sites(
        self,
        info: FunctionInfo,
        state: bool,
        element: ast.AST,
        out: Dict[str, List[bool]],
    ) -> None:
        protected = state
        for node in _element_nodes(element):
            if self.is_protection(node):
                protected = True
            elif isinstance(node, ast.Call):
                callee = self.graph.resolve_call(info, node)
                if callee is not None:
                    if callee in self.funcs:
                        out.setdefault(callee, []).append(protected)
                    if self.protects.get(callee, False):
                        protected = True

class _ProtoRule(Rule):
    """Base for PROTO01/PROTO02: same engine, different scope/protections."""

    discipline = ""  # human name of the missing protection

    def _in_scope(self, module: ModuleContext) -> bool:  # pragma: no cover
        raise NotImplementedError

    def _is_protection(self, node: ast.AST) -> bool:  # pragma: no cover
        raise NotImplementedError

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if module.tree is None or not self._in_scope(module):
            return
        analysis = self._analysis(project)
        for qualname, info in analysis.funcs.items():
            if info.module is not module:
                continue
            yield from self._check_function(module, analysis, qualname, info)

    def _analysis(self, project: Project) -> _ProtectionAnalysis:
        key = "_reprolint_proto_" + self.code
        cached = getattr(project, key, None)
        if cached is None:
            cached = _ProtectionAnalysis(
                project, self._in_scope, self._is_protection
            )
            setattr(project, key, cached)
        return cached

    def _check_function(
        self,
        module: ModuleContext,
        analysis: _ProtectionAnalysis,
        qualname: str,
        info: FunctionInfo,
    ) -> Iterator:
        entry = analysis._entry_states(qualname)
        flagged: Set[int] = set()
        for block in analysis.cfgs[qualname].reachable():
            if block.bid not in entry:
                continue
            for start in sorted(entry[block.bid]):
                protected = start
                for element in block.elements:
                    for node in _element_nodes(element):
                        if analysis.is_protection(node):
                            protected = True
                        elif isinstance(node, ast.Call):
                            callee = analysis.graph.resolve_call(info, node)
                            if callee is not None and analysis.protects.get(
                                callee, False
                            ):
                                protected = True
                            elif _is_home_write(node) and not protected:
                                if id(node) not in flagged:
                                    flagged.add(id(node))
                                    yield module.finding(
                                        self.code,
                                        node,
                                        f"{info.name}() writes a frame home "
                                        "(tag='writeback') on a path where no "
                                        f"{self.discipline} has been "
                                        "established",
                                    )
                                protected = True


@register
class Proto01WalOrdering(_ProtoRule):
    code = "PROTO01"
    summary = (
        "log force / durable-barrier wait must dominate every tag='writeback' "
        "home write in the logging architecture layer (checked on all CFG "
        "paths, through helpers)"
    )
    discipline = "log force or durable-barrier wait"

    def _in_scope(self, module: ModuleContext) -> bool:
        return (
            module.in_package("repro.core")
            and module.package != "repro.core.base"
            and not module.in_package("repro.core.shadow")
        )

    def _is_protection(self, node: ast.AST) -> bool:
        return _is_wal_protection(node)


@register
class Proto02ShadowOrdering(_ProtoRule):
    code = "PROTO02"
    summary = (
        "shadow/scratch install must dominate every tag='writeback' home "
        "overwrite in repro.core.shadow (checked on all CFG paths, through "
        "helpers)"
    )
    discipline = "shadow install or scratch copy"

    def _in_scope(self, module: ModuleContext) -> bool:
        return module.in_package("repro.core.shadow")

    def _is_protection(self, node: ast.AST) -> bool:
        return _is_shadow_protection(node)


# ---------------------------------------------------------------------------
# FP01 — fault-point coverage of stable-storage mutations.
# ---------------------------------------------------------------------------

_MANAGER_CLASS = "RecoveryManager"
#: Methods the crashtest harness drives — the roots of the reachability walk.
_ENTRY_NAMES = {"_do_commit", "_on_recover", "collect_garbage", "repair_corruption"}
#: Mutating methods on the stable-media object (repro.hardware mirrors this).
_STABLE_MUTATORS = {
    "write_page",
    "append",
    "extend",
    "truncate",
    "delete_page",
    "restore_page",
    "replace_record",
}


def _is_stable_mutation(node: ast.AST) -> bool:
    """A ``self.stable.<mutator>(...)`` call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _STABLE_MUTATORS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "stable"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id == "self"
    )


def _is_fault_point(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_fault_point"
    )


def _is_entry_name(name: str) -> bool:
    return name in _ENTRY_NAMES or "checkpoint" in name


class _FaultAnalysis:
    """Project-wide FP01 computation, done once and cached.

    State is the pair ``(mutated, faulted)``.  A method fails when some
    path reaches the *normal* exit with ``mutated and not faulted`` —
    exceptional exits are exempt (a raise aborts the crashtest window
    anyway).  ``always_faults[f]`` (every normal path through ``f``
    crosses a fault point) lets a helper discharge the obligation for its
    caller.
    """

    def __init__(self, project: Project):
        self.graph = project_callgraph(project)
        managers = project.descendants_of(_MANAGER_CLASS) | {_MANAGER_CLASS}
        roots = [
            qualname
            for qualname, info in self.graph.functions.items()
            if info.module.in_package("repro.storage")
            and info.cls in managers
            and _is_entry_name(info.name)
        ]
        self.funcs: Dict[str, FunctionInfo] = {
            qualname: self.graph.functions[qualname]
            for qualname in self.graph.reachable_from(roots)
            if qualname in self.graph.functions
            and self.graph.functions[qualname].module.in_package("repro.storage")
        }
        self.cfgs: Dict[str, CFG] = {
            qualname: build_cfg(info.node) for qualname, info in self.funcs.items()
        }
        self.always_faults: Dict[str, bool] = {q: False for q in self.funcs}
        self._solve()
        #: module package -> findings as (anchor node, method name)
        self.violations: Dict[str, List[Tuple[ast.AST, str]]] = {}
        self._collect_violations()

    def _step(
        self, info: FunctionInfo, state: Tuple[bool, bool], element: ast.AST
    ) -> Tuple[bool, bool]:
        mutated, faulted = state
        for node in _element_nodes(element):
            if _is_fault_point(node):
                faulted = True
            elif _is_stable_mutation(node):
                mutated = True
            elif isinstance(node, ast.Call):
                callee = self.graph.resolve_call(info, node)
                if callee is not None and self.always_faults.get(callee, False):
                    faulted = True
        return (mutated, faulted)

    def _exit_states(self, qualname: str) -> Set[Tuple[bool, bool]]:
        info = self.funcs[qualname]
        cfg = self.cfgs[qualname]
        transfer = lambda state, element: self._step(info, state, element)
        return set(states_at_exit(cfg, transfer, (False, False)))

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for qualname in self.funcs:
                if self.always_faults[qualname]:
                    continue
                exits = self._exit_states(qualname)
                if exits and all(faulted for _, faulted in exits):
                    self.always_faults[qualname] = True
                    changed = True

    def _collect_violations(self) -> None:
        for qualname, info in self.funcs.items():
            exits = self._exit_states(qualname)
            if not any(mutated and not faulted for mutated, faulted in exits):
                continue
            anchor = self._anchor(qualname, info)
            self.violations.setdefault(info.module.package, []).append(
                (anchor, f"{info.cls + '.' if info.cls else ''}{info.name}")
            )

    def _anchor(self, qualname: str, info: FunctionInfo) -> ast.AST:
        """The first stable mutation reachable with no fault point yet —
        the most useful line to point at; falls back to the def line."""
        cfg = self.cfgs[qualname]
        transfer = lambda state, element: self._step(info, state, element)
        entry = block_states(cfg, transfer, (False, False))
        best: Optional[ast.AST] = None
        for block in cfg.reachable():
            if block.bid not in entry:
                continue
            for start in sorted(entry[block.bid]):
                state = start
                for element in block.elements:
                    if not state[1]:  # no fault point yet on this path
                        for node in _element_nodes(element):
                            if _is_stable_mutation(node):
                                if best is None or node.lineno < best.lineno:
                                    best = node
                                break
                    state = self._step(info, state, element)
        return best if best is not None else info.node


@register
class Fp01FaultPointCoverage(Rule):
    code = "FP01"
    summary = (
        "RecoveryManager methods reachable from commit/recover/checkpoint "
        "that mutate stable storage must cross a _fault_point on every "
        "non-exceptional path"
    )

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if module.tree is None or not module.in_package("repro.storage"):
            return
        analysis = self._analysis(project)
        for anchor, method in analysis.violations.get(module.package, ()):
            yield module.finding(
                self.code,
                anchor,
                f"{method} mutates stable storage on a path with no "
                "_fault_point(...) before the normal return; crashtest "
                "cannot probe this mutation window (see docs/FAULTS.md)",
            )

    @staticmethod
    def _analysis(project: Project) -> _FaultAnalysis:
        cached = getattr(project, "_reprolint_fp01", None)
        if cached is None:
            cached = _FaultAnalysis(project)
            project._reprolint_fp01 = cached
        return cached
