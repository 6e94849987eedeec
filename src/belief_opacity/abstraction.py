"""Finite NFA abstraction of the belief dynamics over safe cells.

Each safe cell becomes a state; one distinguished absorbing state ``bad``
stands for every cell that overlaps the forbidden belief region.  The
two-corner reach boxes of all safe cells under every action are computed at
once, one stacked matrix-vector product per cell and corner, and for each
action one grid search, :func:`~.partition.overlapping_cells`, finds the
cells each box overlaps under :func:`~.partition._overlap_rule`: per axis, the
grid cells a box meets are one index range taken from the rule, and only
the cells of split grid cells are tested pair by pair.  Each cell found
that is not excluded yields a transition.
Pruning then computes the safety game's greatest fixpoint: an action is
disabled when a successor is ``bad`` or a deleted state, and a state left
without enabled actions is deleted.

Both automata are kept as the sorted edge arrays of :class:`~.model.Nfa`.
The search's (box, cell) pairs become one int key per edge, which is
sorted and deduplicated (the bad cells a box overlaps make one edge to
``bad``); no set is built per (cell, action).  Pruning reads the same
arrays: the bad-leading actions are the edges into ``bad``, and the
deletion cascade walks a predecessor table sorted by target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .dynamics import _stacked_reach_boxes, decomposition, reduce_belief
from .model import Mdp, Nfa, _state_key
from .partition import _BAD, _SAFE, Partition, locate_cell, overlapping_cells
from .partition import _overlap_rule

__all__ = [
    "BAD_STATE",
    "BadInitialCellError",
    "InitialCellPrunedError",
    "PruneEvent",
    "AbstractionResult",
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
    pruned: Nfa
    log: tuple[PruneEvent, ...]

    @property
    def initial_cell(self) -> int:
        """The one initial state of ``nfa``: the cell of the initial belief."""
        return next(iter(self.nfa.initial))


def build_abstraction(m: Mdp, p: Partition, overlap_mode: str = "strict") -> Nfa:
    """Abstraction automaton over the safe cells of ``p`` plus ``bad``.

    Requires a canonically ordered model.  Cells outside the belief domain
    never produce transitions even when a raw reach box overlaps them.  The
    initial state is the cell containing the reduced initial belief; if that
    cell is bad, :class:`BadInitialCellError` asks the caller to refine.
    """
    _overlap_rule(overlap_mode)
    initial_cell = locate_cell(reduce_belief(m.pi0), p)
    codes = p.codes
    if codes[p.row(initial_cell)] == _BAD:
        raise BadInitialCellError(
            f"initial belief lies in bad cell {initial_cell}; refine the partition first"
        )

    safe = np.flatnonzero(codes == _SAFE)
    # states: the safe cells in ascending id, then ``bad``; each row's state
    # index, or -1 for an excluded row
    n = len(safe) + 1
    state = np.where(codes == _BAD, n - 1, -1)
    state[safe] = np.arange(len(safe))
    # an edge's key is its slot (source * |actions| + action) above the
    # bits of its target, so keys sort like (source, action, target)
    k, dst_bits = len(m.actions), n.bit_length()
    # every action's reach boxes from one product per corner; one search per
    # action, which keeps the search's output-sized arrays to one action's
    rlo, rhi = _stacked_reach_boxes([decomposition(m, a) for a in m.actions],
                                    p.lo[safe], p.hi[safe])
    keys = []
    for a_k in range(k):
        boxes, rows = overlapping_cells(p, rlo[:, a_k], rhi[:, a_k], overlap_mode)
        dst = state[rows]
        keep = dst >= 0
        keys.append(((boxes[keep] * k + a_k) << dst_bits) + dst[keep])
    keys = np.concatenate(keys)
    keys.sort()
    # the bad cells a box overlaps become one edge; there may be no edge
    # at all (under ``strict``, a box of zero width meets no cell)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    slot = keys >> dst_bits
    order = (*map(p.ids.__getitem__, safe.tolist()), BAD_STATE)
    return Nfa._from_edges(order, m.actions, slot, keys - (slot << dst_bits),
                           frozenset({initial_cell}))


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
    last action; each deletion disables the actions into it (in alphabet
    order, then ascending source), found through a predecessor table over
    the edge arrays, so the run is linear in the edges.  Every event is
    logged.  Deleting the initial state raises
    :class:`InitialCellPrunedError`.
    """
    if nfa._position(initial) is None:
        raise ValueError(f"initial state {initial!r} not in the automaton")
    order, alphabet, dst = nfa.order, nfa.alphabet, nfa.dst
    n, k = len(order), len(alphabet)
    live = np.ones(n, dtype=bool)
    bad = nfa._position(BAD_STATE)
    if bad is not None:
        live[bad] = False
    # ``bad`` is never live, so its own slots count as disabled
    disabled = ~live.repeat(k)
    per_slot = np.diff(nfa.offsets)
    slot = np.repeat(np.arange(n * k), per_slot)  # each edge's, ascending
    # a slot holds each target once, so the live slots leading to ``bad``
    # are distinct and ascending
    to_bad = slot[~disabled[slot] & ~live[dst]]
    events = [PruneEvent("disable", order[s // k], alphabet[s % k], "reaches the bad region")
              for s in to_bad.tolist()]
    disabled[to_bad] = True
    left = (~disabled & (per_slot > 0)).reshape(n, k).sum(axis=1)
    queue = deque(np.flatnonzero(live & (left == 0)).tolist())
    if queue:
        _delete(nfa, slot, disabled, left, queue, events, initial)

    # every surviving action's targets are surviving states; a surviving
    # state keeps all its slots, renumbered
    kept = left > 0
    edge = ~disabled[slot]
    new_slot = np.cumsum(kept.repeat(k)) - 1
    pruned = Nfa._from_edges(
        tuple(compress(order, kept.tolist())), alphabet,
        new_slot[slot[edge]], (np.cumsum(kept) - 1)[dst[edge]], frozenset({initial}),
    )
    return pruned, tuple(events)


def _delete(nfa: Nfa, slot, disabled, left, queue: deque, events: list, initial) -> None:
    """The deletion cascade of :func:`prune`: delete the states in ``queue``
    and every state that loses its last enabled action on the way, logging
    each event and updating ``disabled`` (per slot) and ``left`` (enabled
    actions per state) in place.  The actions into a deleted state are
    found through a predecessor table, the edges' (action, source) pairs
    sorted by target: those into state t are ``preds[first[t]:first[t +
    1]]``, as ``action * n + source``, so in alphabet order, then ascending
    source."""
    order, alphabet, dst = nfa.order, nfa.alphabet, nfa.dst
    n, k = len(order), len(alphabet)
    bits = (n * k).bit_length()
    preds = slot % k
    preds *= n
    preds += slot // k
    preds |= dst << bits
    preds.sort()
    preds &= (1 << bits) - 1
    first = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))]).tolist()
    flags, counts = bytearray(disabled), left.tolist()
    while queue:
        t = queue.popleft()
        q = order[t]
        events.append(PruneEvent("delete", q, None, "no enabled actions left"))
        if q == initial:
            raise InitialCellPrunedError(
                f"initial abstraction state {initial} was pruned; " + _FINER_PARTITION_HINT,
                events=tuple(events),
            )
        for pred in preds[first[t]:first[t + 1]].tolist():
            a, i = divmod(pred, n)
            if flags[i * k + a]:
                continue
            flags[i * k + a] = True
            counts[i] -= 1
            events.append(PruneEvent("disable", order[i], alphabet[a],
                                     f"leads to deleted state {q}"))
            if not counts[i]:
                queue.append(i)
    disabled[:] = np.frombuffer(flags, dtype=bool)
    left[:] = counts


def abstract(m: Mdp, p: Partition, overlap_mode: str = "strict") -> AbstractionResult:
    """Build the abstraction and prune it in one step."""
    nfa = build_abstraction(m, p, overlap_mode=overlap_mode)
    pruned, log = prune(nfa, next(iter(nfa.initial)))
    return AbstractionResult(nfa=nfa, pruned=pruned, log=log)


_EDGE_STYLES = ("solid", "dashed", "dotted", "bold")


def _node_name(q) -> str:
    return str(q).replace('"', '\\"')


def _dot(nfa: Nfa, graph: str, inits, prefixes: tuple[str, ...]) -> str:
    """Graphviz rendering of ``nfa``: its states in order, ``bad`` as a
    double circle; a point node with an arrow to the state for each
    (name, state) of ``inits``; then per source its edges, sorted by
    (action, target), once for each label prefix in ``prefixes``.  The edge
    style follows the action: solid for the first, dashed for the second."""
    names = [_node_name(q) for q in nfa.order]
    lines = [f"digraph {graph} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines += [f'  "{node}" [shape={"doublecircle" if q == BAD_STATE else "circle"}];'
              for q, node in zip(nfa.order, names)]
    for point, q in inits:
        lines += [f"  {point} [shape=point];", f'  {point} -> "{_node_name(q)}";']
    src, act, dst = nfa.edge_arrays()
    bounds = np.searchsorted(src, np.arange(len(names) + 1)).tolist()
    src, act, dst = src.tolist(), act.tolist(), dst.tolist()
    copies = []  # per prefix, every edge line in edge order
    for prefix in prefixes:
        labels = [f'[label="{prefix}{a}", style={_EDGE_STYLES[k % len(_EDGE_STYLES)]}]'
                  for k, a in enumerate(nfa.alphabet)]
        copies.append([f'  "{names[s]}" -> "{names[d]}" {labels[a]};'
                       for s, a, d in zip(src, act, dst)])
    for first, last in zip(bounds, bounds[1:]):
        for copy in copies:
            lines += copy[first:last]
    lines.append("}")
    return "\n".join(lines) + "\n"


def nfa_to_dot(nfa: Nfa) -> str:
    """Graphviz rendering: one edge style per action (solid for the first,
    dashed for the second), ``bad`` as a double circle, initial states
    marked by an arrow from a point node."""
    inits = [(f"__init{i}", q) for i, q in enumerate(sorted(nfa.initial, key=_state_key))]
    return _dot(nfa, "T", inits, ("",))


def edges_to_csv(nfa: Nfa) -> str:
    names = [str(q) for q in nfa.order]
    lines = ["src,action,dst"]
    lines += [f"{names[s]},{nfa.alphabet[a]},{names[d]}"
              for s, a, d in zip(*(x.tolist() for x in nfa.edge_arrays()))]
    return "\n".join(lines) + "\n"


def format_prune_log(events) -> str:
    lines = []
    for e in events:
        if e.kind == "disable":
            lines.append(f"disable action {e.action} at state {e.state}: {e.reason}")
        else:
            lines.append(f"delete state {e.state}: {e.reason}")
    return "\n".join(lines) + ("\n" if lines else "")
