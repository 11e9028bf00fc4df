"""Forward dataflow over the lint CFGs.

The flow-sensitive rules all reduce to the same question: "which abstract
states can execution be in when it reaches this element?"  The state
spaces are tiny and finite (a frozenset of established protections, a
mutated/faulted bit pair, an open-span marker), so instead of a lattice
with widening we track the *exact set* of reachable states per block —
the union-merge fixpoint converges because states are drawn from a finite
domain and the set only grows.

Two entry points:

* :func:`block_states` — the fixpoint: entry-state set per block.
* :func:`iter_element_states` — post-fixpoint replay: for each reachable
  block, step the transfer function through its elements and yield
  ``(block, element, states_before_element)``.  Rules anchor findings
  here ("this home write can be reached with no force established").

Finalizers: the solver carries each state together with the continuation
it entered the innermost simple ``finally`` for (``CFG.continuations``
labels those edges), so a state that reached the ``finally`` along a
raise edge leaves it only along the raise continuation, not into a parked
``return``.  The results are plain state sets; the continuation is
internal to the solve.  The states at the normal exit are the exit
block's entry states (``block_states(...)[cfg.exit.bid]``).

The transfer function signature is ``transfer(state, element) -> state``;
it must be pure and return a hashable state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterator, Tuple

import ast

from repro.lint.cfg import CFG, BasicBlock

__all__ = ["block_states", "iter_element_states", "states_at_exit"]

State = Hashable
Transfer = Callable[[State, ast.AST], State]


def _apply_block(
    states: FrozenSet[State], block: BasicBlock, transfer: Transfer
) -> FrozenSet[State]:
    out = set(states)
    for element in block.elements:
        # sorted-by-repr keeps the iteration order deterministic (DET02);
        # states are heterogeneous hashables, so repr is the common key.
        out = {transfer(s, element) for s in sorted(out, key=repr)}
    return frozenset(out)


def block_states(
    cfg: CFG, transfer: Transfer, init: State
) -> Dict[int, FrozenSet[State]]:
    """Entry-state sets per reachable block id (worklist fixpoint)."""
    blocks = {b.bid: b for b in cfg.reachable()}
    # Internally a state travels as (continuation, state): the
    # continuation a simple finalizer was entered for, or None.
    entry: Dict[int, FrozenSet[Tuple[Any, State]]] = {bid: frozenset() for bid in blocks}
    entry[cfg.entry.bid] = frozenset([(None, init)])
    labels = cfg.continuations
    work = [cfg.entry]
    while work:
        block = work.pop()
        out = _apply_tagged(entry[block.bid], block, transfer)
        for succ in block.succs:
            if succ.bid not in entry:
                continue
            key = (block.bid, succ.bid)
            flowed = out if key not in labels else _follow(out, labels[key])
            merged = entry[succ.bid] | flowed
            if merged != entry[succ.bid]:
                entry[succ.bid] = merged
                work.append(succ)
    return {
        bid: frozenset(state for _, state in tagged) for bid, tagged in entry.items()
    }


def _apply_tagged(
    tagged: FrozenSet[Tuple[Any, State]], block: BasicBlock, transfer: Transfer
) -> FrozenSet[Tuple[Any, State]]:
    by_continuation: Dict[Any, set] = {}
    for continuation, state in tagged:
        by_continuation.setdefault(continuation, set()).add(state)
    out = set()
    for continuation in sorted(by_continuation, key=repr):
        states = _apply_block(frozenset(by_continuation[continuation]), block, transfer)
        out.update((continuation, state) for state in states)
    return frozenset(out)


def _follow(
    tagged: FrozenSet[Tuple[Any, State]], edge_labels
) -> FrozenSet[Tuple[Any, State]]:
    """The tagged states that travel an edge with these labels: an edge out
    of a finalizer carries only the states parked for the continuation it
    resumes; an edge into one parks its continuation on them."""
    out = set()
    for resumes, parks in sorted(edge_labels, key=repr):
        for continuation, state in tagged:
            if resumes is not None:
                if continuation is not None and continuation != resumes:
                    continue
                continuation = None
            if parks is not None:
                continuation = parks
            out.add((continuation, state))
    return frozenset(out)


def iter_element_states(
    cfg: CFG, transfer: Transfer, init: State
) -> Iterator[Tuple[BasicBlock, ast.AST, FrozenSet[State]]]:
    """Replay the converged fixpoint: yield each reachable element with the
    set of states execution may hold just before evaluating it."""
    entry = block_states(cfg, transfer, init)
    for block in cfg.reachable():
        states = set(entry[block.bid])
        for element in block.elements:
            yield block, element, frozenset(states)
            states = {transfer(s, element) for s in sorted(states, key=repr)}


def states_at_exit(
    cfg: CFG, transfer: Transfer, init: State, exceptional: bool = False
) -> FrozenSet[State]:
    """States reaching the normal exit (or the raise exit).

    ``exceptional=False`` answers "what can hold when the function completes
    without raising" — the FP01 question.
    """
    target = cfg.raise_exit if exceptional else cfg.exit
    return block_states(cfg, transfer, init).get(target.bid, frozenset())
