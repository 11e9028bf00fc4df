"""Trace-span hygiene: catalogued names (TRACE01) and balance (TR02).

The tracing subsystem validates names at record time, but a span only
recorded on a rare path (an abort, a crash, a checkpoint) would blow up
in production instead of in review.  TRACE01 statically requires every
``tracer.begin(...)`` / ``tracer.instant(...)`` call — and the machine's
``_tspan`` / ``_tinstant`` guard helpers — to pass a *string literal*
first argument, and, when the linted tree contains the catalogue module
(``repro.trace.names``), one of the names registered there.

TR02 is flow-sensitive: a span begun and bound to a local variable must
be ended on every CFG path to the function's *normal* exit (``finally``
blocks count — the CFG routes early returns and raises through them).
Exceptional exits are exempt: a machine crash legitimately cuts spans
open (``Tracer.open_spans`` documents them).  A span variable used for
anything besides ending it — returned, stored, passed on — escapes the
function's responsibility and is exempt too.  An unbalanced span breaks
the "breakdowns sum exactly" invariant the critical-path analysis rests
on (see docs/TRACE.md).

The catalogue is extracted from the module's AST (top-level string
constants), never imported: the linter sits at layer 0 and must not
execute higher-layer code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import block_states
from repro.lint.engine import ModuleContext, Project, Rule, register

__all__ = ["Trace01CataloguedSpanNames", "Tr02SpanBalance"]

#: Methods on a tracer that take a span name as the first argument.
_TRACER_METHODS = ("begin", "instant")
#: The machine's guard helpers, called as ``self._tspan("name", ...)``.
_HELPER_METHODS = ("_tspan", "_tinstant")
#: Dotted module holding the catalogue constants.
_CATALOGUE_MODULE = "repro.trace.names"


def _catalogue_from(project: Project) -> Optional[Set[str]]:
    """Span names declared in the project's catalogue module, or None.

    Reads top-level ``NAME = "literal"`` assignments from the module's
    AST — the same constants ``repro.trace.names.CATALOGUE`` collects at
    runtime — without importing anything.
    """
    module = project.module(_CATALOGUE_MODULE)
    if module is None or module.tree is None:
        return None
    names: Set[str] = set()
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            names.add(node.value.value)
    return names or None


def _is_span_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _HELPER_METHODS:
        return True
    if func.attr not in _TRACER_METHODS:
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id == "tracer"
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "tracer"
    return False


@register
class Trace01CataloguedSpanNames(Rule):
    code = "TRACE01"
    summary = "span names are string literals from the registered catalogue"

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if module.tree is None:
            return
        catalogue: Optional[Set[str]] = None
        catalogue_loaded = False
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_span_call(node)):
                continue
            if not node.args:
                # Name passed by keyword or missing; either way it dodges
                # both this check and the runtime validation — flag it.
                yield module.finding(
                    self.code,
                    node,
                    "span call without a positional name; pass the catalogue "
                    "name as a string literal first argument",
                )
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                yield module.finding(
                    self.code,
                    first,
                    "span name must be a string literal from "
                    "repro.trace.names (computed names defeat the static "
                    "catalogue check)",
                )
                continue
            if not catalogue_loaded:
                catalogue = _catalogue_from(project)
                catalogue_loaded = True
            if catalogue is not None and first.value not in catalogue:
                yield module.finding(
                    self.code,
                    first,
                    f"span name {first.value!r} is not registered in "
                    f"{_CATALOGUE_MODULE}; add it to the catalogue first",
                )


# ---------------------------------------------------------------------------
# TR02 — span balance on all CFG paths.
# ---------------------------------------------------------------------------

#: Span-opening calls: the machine helper, or ``<tracer>.begin``.
_BEGIN_METHODS = ("_tspan",)
#: Span-closing calls: the machine helper, or ``<tracer>.end``.
_END_METHODS = ("_tend",)


def _is_begin_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr in _BEGIN_METHODS:
        return True
    return node.func.attr == "begin" and _is_tracer_receiver(node.func.value)


def _is_end_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr in _END_METHODS:
        return True
    return node.func.attr == "end" and _is_tracer_receiver(node.func.value)


def _is_tracer_receiver(receiver: ast.AST) -> bool:
    if isinstance(receiver, ast.Name):
        return receiver.id == "tracer"
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "tracer"
    return False


def _begin_assignments(func: ast.FunctionDef) -> Dict[str, List[ast.Assign]]:
    """Variable name -> its ``var = <begin call>`` assignment statements."""
    out: Dict[str, List[ast.Assign]] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_begin_call(node.value)
        ):
            out.setdefault(node.targets[0].id, []).append(node)
    return out


def _escapes(func: ast.FunctionDef, var: str) -> bool:
    """True when ``var`` is used beyond begin-assign / end-call-argument —
    returned, stored elsewhere, reassigned, passed along: the span's
    lifetime escapes this function and TR02 cannot judge it."""
    allowed_loads = set()
    allowed_stores = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == var and _is_begin_call(
                node.value
            ):
                allowed_stores.add(id(target))
        if _is_end_call(node) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Name) and first.id == var:
                allowed_loads.add(id(first))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == var:
            if isinstance(node.ctx, ast.Load) and id(node) not in allowed_loads:
                return True
            if isinstance(node.ctx, ast.Store) and id(node) not in allowed_stores:
                return True
            if isinstance(node.ctx, ast.Del):
                return True
    return False


def _span_name(assign: ast.Assign) -> str:
    call = assign.value
    if call.args and isinstance(call.args[0], ast.Constant):
        return repr(call.args[0].value)
    return "<computed>"


@register
class Tr02SpanBalance(Rule):
    code = "TR02"
    summary = (
        "a span bound to a local must be ended on every non-exceptional CFG "
        "path (finally-aware); crash-cut exceptional paths are exempt"
    )

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if module.tree is None:
            return
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            begins = _begin_assignments(func)
            if not begins:
                continue
            cfg = None
            for var, assigns in sorted(begins.items()):
                if _escapes(func, var):
                    continue
                if cfg is None:
                    cfg = build_cfg(func)
                yield from self._check_var(module, func, cfg, var, assigns)

    def _check_var(self, module, func, cfg, var, assigns) -> Iterator:
        assign_ids = {id(a) for a in assigns}

        def transfer(state: bool, element: ast.AST) -> bool:
            if id(element) in assign_ids:
                return True
            for node in ast.walk(element):
                if _is_end_call(node) and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Name) and first.id == var:
                        return False
            return state

        entry = block_states(cfg, transfer, False)
        # Re-begin while open (a loop body that begins without ending).
        for block in cfg.reachable():
            if block.bid not in entry:
                continue
            for start in sorted(entry[block.bid]):
                state = start
                for element in block.elements:
                    if id(element) in assign_ids and state:
                        yield module.finding(
                            self.code,
                            element,
                            f"{func.name}() re-begins span {var!r} "
                            f"({_span_name(element)}) while a previous begin "
                            "is still open on this path",
                        )
                    state = transfer(state, element)
        # Open at the normal exit.
        if any(entry.get(cfg.exit.bid, ())):
            anchor = min(assigns, key=lambda a: a.lineno)
            yield module.finding(
                self.code,
                anchor,
                f"{func.name}() can return with span {var!r} "
                f"({_span_name(anchor)}) still open; end it on every "
                "non-exceptional path (a finally block keeps early returns "
                "balanced)",
            )
