"""Finite NFA abstraction of the belief dynamics over safe cells.

Each safe cell becomes a state; one distinguished absorbing state ``bad``
stands for every cell that overlaps the forbidden belief region.  For each
action the two-corner reach boxes of all safe cells are computed at once,
and one grid search finds the cells each box overlaps under
:func:`boxes_overlap`'s rule; each that is not excluded yields a transition.
Pruning then computes the safety game's greatest fixpoint: an action is
disabled when a successor is ``bad`` or a deleted state, and a state left
without enabled actions is deleted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .dynamics import decomposition, reach_boxes, reduce_belief
from .model import Mdp, Nfa, _state_key
from .partition import BAD, EXCLUDED, SAFE, Partition, locate_cell, overlapping_cells
from .partition import _overlap_rule

__all__ = [
    "BAD_STATE",
    "BadInitialCellError",
    "InitialCellPrunedError",
    "PruneEvent",
    "AbstractionResult",
    "boxes_overlap",
    "build_abstraction",
    "prune",
    "abstract",
    "nfa_to_dot",
    "edges_to_csv",
    "format_prune_log",
]

BAD_STATE = "bad"

_FINER_PARTITION_HINT = (
    "the current partition may be too coarse; retry with smaller grid widths"
)


class BadInitialCellError(RuntimeError):
    """The initial belief sits in a bad cell; refine the partition first."""


class InitialCellPrunedError(RuntimeError):
    """Pruning deleted the initial state of the abstraction."""

    def __init__(self, message: str, events: tuple = ()):
        super().__init__(message)
        self.events = events


@dataclass(frozen=True)
class PruneEvent:
    kind: str  # "disable" or "delete"
    state: object
    action: str | None
    reason: str


@dataclass(frozen=True)
class AbstractionResult:
    nfa: Nfa
    initial_cell: int
    pruned: Nfa
    log: tuple[PruneEvent, ...]


def boxes_overlap(alo, ahi, blo, bhi, mode: str = "strict"):
    """Whether two boxes' intervals meet on every axis under
    :func:`_overlap_rule`.  The corners broadcast, with coordinates on the
    last axis, so one box is tested against many at once."""
    return np.all(_overlap_rule(mode)(alo, ahi, blo, bhi), axis=-1)


def build_abstraction(m: Mdp, p: Partition, overlap_mode: str = "strict") -> Nfa:
    """Abstraction automaton over the safe cells of ``p`` plus ``bad``.

    Requires a canonically ordered model.  Cells outside the belief domain
    never produce transitions even when a raw reach box overlaps them.  The
    initial state is the cell containing the reduced initial belief; if that
    cell is bad, :class:`BadInitialCellError` asks the caller to refine.
    """
    _overlap_rule(overlap_mode)
    initial_cell = locate_cell(reduce_belief(m.pi0), p)
    if p.status[p.row(initial_cell)] == BAD:
        raise BadInitialCellError(
            f"initial belief lies in bad cell {initial_cell}; refine the partition first"
        )

    status = np.array(p.status)
    # what each row contributes: its id (p.ids' own object) or ``bad``
    target = np.where(status == BAD, BAD_STATE, np.array(p.ids, dtype=object))
    usable = status != EXCLUDED
    safe = np.flatnonzero(status == SAFE).tolist()
    delta: dict = {}
    for a in m.actions:
        rlo, rhi = reach_boxes(decomposition(m, a), p.lo[safe], p.hi[safe])
        boxes, rows = overlapping_cells(p, rlo, rhi, overlap_mode)
        keep = usable[rows]
        targets = target[rows[keep]].tolist()
        ends = np.cumsum(np.bincount(boxes[keep], minlength=len(safe))).tolist()
        for row, first, last in zip(safe, [0, *ends], ends):
            if first < last:
                # filled as a set first, which sizes the frozenset to fit
                delta[(p.ids[row], a)] = frozenset(set(targets[first:last]))

    # every target is a safe cell id or ``bad`` and the initial cell is safe,
    # so the parts need no re-validation
    return Nfa._trusted(
        states=frozenset([*(p.ids[r] for r in safe), BAD_STATE]),
        alphabet=m.actions,
        delta=delta,
        initial=frozenset({initial_cell}),
    )


def prune(nfa: Nfa, initial: int) -> tuple[Nfa, tuple[PruneEvent, ...]]:
    """Keep the largest set of states from which some action always stays
    safe: the greatest fixpoint of the safety game against the
    nondeterminism (controlled invariance).

    The nondeterminism is adversarial, so an action is disabled as soon as
    one of its successors is ``bad`` or a deleted state, and a state left
    without enabled actions is deleted.  Every surviving action's successors
    therefore all survive.  Bad-leading actions go first (states ascending,
    actions in alphabet order).  States without enabled actions are then
    deleted, in ascending order and after them in the order they lose their
    last action; each deletion disables the actions into it, found through a
    predecessor index, so the run is linear in the edges.  Every event is
    logged.  Deleting the initial state raises
    :class:`InitialCellPrunedError`.
    """
    if initial not in nfa.states:
        raise ValueError(f"initial state {initial!r} not in the automaton")
    live = sorted((q for q in nfa.states if q != BAD_STATE), key=_state_key)
    enabled = {q: nfa.enabled(q) for q in live}
    events: list[PruneEvent] = []
    disabled = set()
    left = {q: len(acts) for q, acts in enabled.items()}

    def disable(q, a, reason):
        disabled.add((q, a))
        left[q] -= 1
        events.append(PruneEvent("disable", q, a, reason))

    for q in live:
        for a in enabled[q]:
            if BAD_STATE in nfa.delta[(q, a)]:
                disable(q, a, "reaches the bad region")
    queue = deque(q for q in live if not left[q])
    # the (state, action) keys of nfa.delta into each state, built once a
    # state goes; the keys are shared, not copied
    preds: dict = {}
    if queue:
        for key, targets in nfa.delta.items():
            if key[0] in left:
                for t in targets:
                    preds.setdefault(t, []).append(key)
    while queue:
        q = queue.popleft()
        events.append(PruneEvent("delete", q, None, "no enabled actions left"))
        if q == initial:
            raise InitialCellPrunedError(
                f"initial abstraction state {initial} was pruned; " + _FINER_PARTITION_HINT,
                events=tuple(events),
            )
        for p_, a in preds.get(q, ()):
            if (p_, a) in disabled:
                continue
            disable(p_, a, f"leads to deleted state {q}")
            if not left[p_]:
                queue.append(p_)

    # every surviving action's targets are surviving states, so the parts
    # need no re-validation
    pruned = Nfa._trusted(
        states=frozenset(q for q in live if left[q]),
        alphabet=nfa.alphabet,
        delta={
            (q, a): nfa.delta[(q, a)]
            for q in live
            for a in enabled[q] if (q, a) not in disabled
        },
        initial=frozenset({initial}),
    )
    return pruned, tuple(events)


def abstract(m: Mdp, p: Partition, overlap_mode: str = "strict") -> AbstractionResult:
    """Build the abstraction and prune it in one step."""
    nfa = build_abstraction(m, p, overlap_mode=overlap_mode)
    initial_cell = next(iter(nfa.initial))
    pruned, log = prune(nfa, initial_cell)
    return AbstractionResult(nfa=nfa, initial_cell=initial_cell, pruned=pruned, log=log)


_EDGE_STYLES = ("solid", "dashed", "dotted", "bold")


def _node_name(q) -> str:
    return str(q).replace('"', '\\"')


def nfa_to_dot(nfa: Nfa, name: str = "T") -> str:
    """Graphviz rendering: one edge style per action (solid for the first,
    dashed for the second), ``bad`` as a double circle, initial states
    marked by an arrow from a point node."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
    for q in nfa.sorted_states():
        shape = "doublecircle" if q == BAD_STATE else "circle"
        lines.append(f'  "{_node_name(q)}" [shape={shape}];')
    for i, q in enumerate(sorted(nfa.initial, key=_state_key)):
        lines.append(f"  __init{i} [shape=point];")
        lines.append(f'  __init{i} -> "{_node_name(q)}";')
    for q, a, q2 in nfa.sorted_edges():
        style = _EDGE_STYLES[nfa.alphabet.index(a) % len(_EDGE_STYLES)]
        lines.append(
            f'  "{_node_name(q)}" -> "{_node_name(q2)}" [label="{a}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def edges_to_csv(nfa: Nfa) -> str:
    lines = ["src,action,dst"]
    for q, a, q2 in nfa.sorted_edges():
        lines.append(f"{q},{a},{q2}")
    return "\n".join(lines) + "\n"


def format_prune_log(events) -> str:
    lines = []
    for e in events:
        if e.kind == "disable":
            lines.append(f"disable action {e.action} at state {e.state}: {e.reason}")
        else:
            lines.append(f"delete state {e.state}: {e.reason}")
    return "\n".join(lines) + ("\n" if lines else "")
