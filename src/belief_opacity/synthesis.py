"""Controller synthesis against the pruned belief abstraction.

Two enforcement routes are provided.  Direct synthesis keeps, per MDP state,
only the actions enabled at every abstract belief state the MDP state can
occur with, that is at every reachable state of the synchronous product of
the MDP's support automaton with the pruned abstraction.  The product is
never built: the abstract state does not depend on the real one, so the
reachable pairs are exactly the (s, q) with s in R[q], where R is the least
fixpoint of R[q'] >= post_a(R[q]) over the pruned edges (q, a, q'), seeded
with the support of pi0 at the initial abstract states (the subset
construction, run on the abstraction's side).  A stand-in value-iteration
then maximizes the probability of reaching a target set inside the
restricted model.  Edit-function synthesis instead rewrites the observable
action stream at runtime: whatever action actually happened, the edit
function reports some action enabled at the current abstract belief state,
and the observer belief is advanced with the output action, never the real
one.  The real action constrains nothing, so the edit automaton is a view of
the pruned abstraction rather than a copy of its edges per real action.

Both routes read the pruned automaton's edge arrays (see
:class:`~.model.Nfa`): the fixpoint R walks ``offsets`` and ``dst`` by
state index, the edit view's outputs come from the per-state enabled
actions, and :func:`edit_to_dot` groups the sorted edges by source.
:meth:`EditEngine.step` is table-driven: one dict lookup picks the output,
one bound ``ndarray.dot`` advances the belief, the partition's bound grid
fast exit locates it, and one dict lookup per (state, output) slot checks
that the new cell is in delta(q, output) and gives its index, which the
engine carries from step to step.  The tables are built from the edge
arrays on first use; neither route reads the derived ``delta`` mapping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abstraction import _FINER_PARTITION_HINT, _dot
from .dynamics import reduce_belief
from .model import Mdp, Nfa, _state_key, mdp_to_nfa
from .partition import Partition, _search, locate_cell

__all__ = [
    "InitialStatePrunedError",
    "EditUndefinedError",
    "RestrictedMdp",
    "Policy",
    "EditAutomaton",
    "EditEngine",
    "EditCounterexample",
    "EditVerifyReport",
    "STRATEGIES",
    "product",
    "restrict_actions",
    "prune_blocking",
    "synthesize_reach_policy",
    "build_edit_automaton",
    "verify_edit_requirements",
    "edit_to_dot",
    "allowed_to_csv",
    "policy_to_csv",
]

STRATEGIES = ("lex-first", "match-if-safe", "uniform-random")

# the sweep budget of synthesize_reach_policy's value iteration
_MAX_ITER = 1_000_000


class InitialStatePrunedError(RuntimeError):
    """Blocking-state removal reached an initial state of the MDP."""


class EditUndefinedError(RuntimeError):
    """The edit engine has no defined continuation."""


def product(t1: Nfa, t2: Nfa) -> Nfa:
    """Synchronous product, restricted to pairs reachable from I1 x I2.

    Both automata must share the action alphabet; a pair moves on an action
    exactly when both components can.
    """
    if set(t1.alphabet) != set(t2.alphabet):
        raise ValueError("product requires identical alphabets")
    alphabet = t1.alphabet
    initial = frozenset(itertools.product(
        sorted(t1.initial, key=_state_key), sorted(t2.initial, key=_state_key)
    ))
    seen = set(initial)
    frontier = sorted(initial, key=_state_key)
    delta: dict = {}
    while frontier:
        q1, q2 = frontier.pop()
        for a in alphabet:
            s1 = t1.successors(q1, a)
            s2 = t2.successors(q2, a)
            if not s1 or not s2:
                continue
            targets = frozenset(itertools.product(s1, s2))
            delta[((q1, q2), a)] = targets
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return Nfa(states=frozenset(seen), alphabet=alphabet, delta=delta, initial=initial)


@dataclass(frozen=True)
class RestrictedMdp:
    """An MDP with per-state action sets narrowed for privacy.

    States absent from ``allowed`` have been pruned away entirely;
    ``vacuous`` lists states that occur with no reachable abstract state
    (they are in no R[q]) and so kept the full action set by default.
    """

    base: Mdp
    allowed: dict[str, tuple[str, ...]]
    vacuous: frozenset[str]


def _supports(m: Mdp) -> dict[str, list[int]]:
    """Per action, the support of every column as a bitmask over state
    indices: bit i of ``sup[a][j]`` is set when ``a`` moves state j to
    state i with positive probability."""
    sup = {}
    for a in m.actions:
        cols = [0] * m.n
        rows, srcs = np.nonzero(m.trans[a] > 0.0)
        for i, j in zip(rows.tolist(), srcs.tolist()):
            cols[j] |= 1 << i
        sup[a] = cols
    return sup


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def restrict_actions(m: Mdp, pruned_t: Nfa) -> RestrictedMdp:
    """Per-state safe action sets from the pruned abstraction.

    The safe set of s is the intersection, over every reachable state
    (s, q) of the product of the support automaton with the pruned
    abstraction, of the actions both components can move on.  The product
    is not built: R[q], the MDP states that occur with abstract state q, is
    the least fixpoint of R[q'] >= post_a(R[q]) over the pruned edges
    (q, a, q'), seeded with supp(pi0) at every initial state, computed by a
    worklist over bitmasks of MDP states.  Then the safe set of s is
    enabled(s) & enabled(q) over every q with s in R[q].  States in no R[q]
    keep the full action set and are flagged vacuous.  The abstraction's
    alphabet must be ``m.actions``, in the same order.
    """
    if m.actions != pruned_t.alphabet:
        raise ValueError("the abstraction's alphabet must equal the model's actions")
    sups = list(_supports(m).values())
    k = len(sups)
    offsets, dst = pruned_t.offsets.tolist(), memoryview(pruned_t.dst)
    posts = [{} for _ in sups]  # per action, post_a of each mask met so far

    # reach[i]: the bitmask R[q] of the i-th state; a state is pushed each
    # time R[q] grows
    init = sum(1 << i for i in np.flatnonzero(m.pi0 > 0.0).tolist())
    reach = [0] * len(pruned_t.order)
    work = [pruned_t.order.index(q) for q in pruned_t.initial] if init else []
    for i in work:
        reach[i] = init
    while work:
        i = work.pop()
        mask = reach[i]
        for a_k in range(k):
            first, last = offsets[i * k + a_k], offsets[i * k + a_k + 1]
            if first == last:
                continue
            nxt = posts[a_k].get(mask)  # post_a(R[q])
            if nxt is None:
                nxt = 0
                for j in _bits(mask):
                    nxt |= sups[a_k][j]
                posts[a_k][mask] = nxt
            for i2 in dst[first:last]:
                old = reach[i2]
                if old | nxt != old:
                    reach[i2] = old | nxt
                    work.append(i2)

    # inter[j]: the actions enabled at every q with state j in R[q]
    inter = [None] * m.n
    for i, mask in enumerate(reach):
        if not mask:
            continue
        acts = sum(1 << a_k for a_k in range(k)
                   if offsets[i * k + a_k] < offsets[i * k + a_k + 1])
        for j in _bits(mask):
            inter[j] = acts if inter[j] is None else inter[j] & acts

    allowed: dict[str, tuple[str, ...]] = {}
    vacuous = set()
    for j, s in enumerate(m.states):
        if inter[j] is None:
            allowed[s] = m.actions
            vacuous.add(s)
            continue
        allowed[s] = tuple(a for a_k, a in enumerate(m.actions)
                           if inter[j] >> a_k & 1 and sups[a_k][j])
    return RestrictedMdp(base=m, allowed=allowed, vacuous=frozenset(vacuous))


def prune_blocking(r: RestrictedMdp) -> RestrictedMdp:
    """Iteratively delete states without allowed actions.

    When a state goes, every predecessor action that could reach it with
    positive probability is disabled as well, because dropping probability
    mass silently would falsify policy evaluation.  Removing a state that
    carries initial probability raises :class:`InitialStatePrunedError`.
    """
    m = r.base
    allowed = {s: set(acts) for s, acts in r.allowed.items()}
    removed: set[str] = set()
    blocking = [j for j, s in enumerate(m.states) if s in allowed and not allowed[s]]
    if blocking:
        # preds[i]: the (state, action) pairs that reach state i with
        # positive probability
        preds: list[list] = [[] for _ in m.states]
        for a, cols in _supports(m).items():
            for j, mask in enumerate(cols):
                for i in _bits(mask):
                    preds[i].append((m.states[j], a))
    while blocking:
        for j in blocking:
            s = m.states[j]
            del allowed[s]
            removed.add(s)
            if m.pi0[j] > 0.0:
                raise InitialStatePrunedError(
                    f"initial state {s} has no privacy-safe actions; " + _FINER_PARTITION_HINT
                )
        for j in blocking:
            for src, a in preds[j]:
                if src in allowed:
                    allowed[src].discard(a)
        blocking = [j for j, s in enumerate(m.states) if s in allowed and not allowed[s]]
    final = {
        s: tuple(a for a in m.actions if a in allowed[s]) for s in m.states if s in allowed
    }
    return RestrictedMdp(base=m, allowed=final, vacuous=r.vacuous - removed)


@dataclass(frozen=True)
class Policy:
    """Memoryless policy with its reachability value per state."""

    choice: dict[str, str]
    value: dict[str, float]


def synthesize_reach_policy(r: RestrictedMdp, target, eps: float = 1e-9) -> Policy:
    """Value iteration for the maximal probability of reaching ``target``
    using only allowed actions.

    Iterates until the sup-norm change drops below ``eps`` (at most
    ``_MAX_ITER`` sweeps); argmax ties go to the action listed first in the
    model.
    """
    m = r.base
    target = set(target)
    unknown = target - set(m.states)
    if unknown:
        raise ValueError(f"unknown target states: {sorted(unknown)}")
    if eps <= 0:
        raise ValueError("eps must be positive")

    live = [s for s in m.states if s in r.allowed]
    empty = [s for s in live if not r.allowed[s]]
    if empty:
        raise ValueError(
            f"states {empty} have no allowed actions; apply prune_blocking first"
        )
    live_idx = [m.states.index(s) for s in live]
    fixed = [m.states.index(s) for s in live if s in target]
    # blocked[k, j]: action k is not allowed at state j
    blocked = np.array([[a not in r.allowed.get(s, ()) for s in m.states] for a in m.actions],
                       dtype=bool)
    dead = blocked.all(axis=0)
    trans_t = [m.trans[a].T for a in m.actions]
    q = np.empty((len(m.actions), m.n))

    def backup(v):
        # q[k, j]: value of taking action k at state j, -inf where blocked
        for k, h in enumerate(trans_t):
            q[k] = h @ v
        q[blocked] = -np.inf
        return q

    v = np.zeros(m.n)
    v[fixed] = 1.0
    for _ in range(_MAX_ITER):
        new_v = backup(v).max(axis=0)
        new_v[dead] = 0.0
        new_v[fixed] = 1.0
        if np.max(np.abs(new_v - v)) < eps:
            v = new_v
            break
        v = new_v

    best = backup(v).argmax(axis=0)
    choice: dict[str, str] = {}
    value: dict[str, float] = {}
    for s, j in zip(live, live_idx):
        choice[s] = m.actions[best[j]]
        value[s] = float(v[j])
    return Policy(choice=choice, value=value)


@dataclass(frozen=True)
class EditAutomaton:
    """The observation rewriter, as a view of the pruned abstraction.

    In abstract belief state q, whatever ``actual`` action really happens,
    the rewriter may report any action ``output`` enabled at q and move to
    any q' in delta(q, output).  Since ``actual`` constrains nothing, the
    rewrites (q, actual, output, q') are never stored: ``pruned`` is shared,
    not copied, and ``edges`` derives them only when asked for.
    """

    pruned: Nfa

    @property
    def initial(self):
        """The smallest initial state of the pruned abstraction."""
        return min(self.pruned.initial, key=_state_key)

    @property
    def states(self) -> frozenset:
        return self.pruned.states

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.pruned.alphabet

    @property
    def edges(self) -> frozenset:
        """Every rewrite (q, actual, output, q'), |alphabet| per pruned edge."""
        return frozenset((q, actual, o, q2) for q, o, q2 in self.pruned.sorted_edges()
                         for actual in self.alphabet)

    @cached_property
    def _choices(self) -> dict[str, list[dict[str, int]]]:
        """Per deterministic strategy, per state index i in ``pruned.order``,
        the row mapping each real action to its output's alphabet index
        (None at a state without outputs); states with the same enabled
        actions share one row."""
        t = self.pruned
        symbol = dict(zip(t.alphabet, range(len(t.alphabet))))
        lex, match = {}, {}
        for outputs in set(t._enabled):
            first = symbol[outputs[0]] if outputs else None
            lex[outputs] = dict.fromkeys(t.alphabet, first)
            match[outputs] = {a: symbol[a] if a in outputs else first for a in t.alphabet}
        return {"lex-first": [lex[o] for o in t._enabled],
                "match-if-safe": [match[o] for o in t._enabled]}

    @cached_property
    def _successors(self) -> list[dict]:
        """Per slot ``i * K + k`` over the edge arrays (state index i in
        ``pruned.order``, output index k in the alphabet), delta(q, output)
        as a dict from each target cell to its index in ``pruned.order``."""
        t = self.pruned
        offsets, dst, order = t.offsets.tolist(), t.dst.tolist(), t.order
        return [{order[j]: j for j in dst[first:last]}
                for first, last in zip(offsets, offsets[1:])]

    def outputs(self, q, actual: str) -> tuple[str, ...]:
        """Outputs available at q for the given real action, in action order."""
        if actual not in self.pruned.alphabet:
            return ()
        return self.pruned.enabled(q)


def build_edit_automaton(pruned_t: Nfa) -> EditAutomaton:
    """Edit automaton over the pruned abstraction.

    Whatever really happened, any action enabled at the current abstract
    state may be reported, so the automaton is the pruned abstraction
    itself with the smallest initial state; nothing is built per edge.
    """
    if not pruned_t.states:
        raise ValueError("pruned abstraction is empty")
    return EditAutomaton(pruned=pruned_t)


class EditEngine:
    """Stateful runtime rewriter of one observed action stream.

    Tracks the exact observer belief induced by the *output* actions; the
    abstract state is always the cell of that belief, which is how the
    nondeterminism of the automaton is resolved.  A step costs one dict
    lookup for the output (uniform-random draws it), one bound
    ``ndarray.dot``, one call of the partition's grid fast exit, and one
    dict lookup that checks that the new cell is in delta(q, output) and
    gives its index in ``pruned.order``, which the engine carries;
    ``current_cell`` reads it back.  The tables are built on an automaton's
    first engine and cached on it, so a new engine does no per-state work.

    ``seed`` seeds the uniform-random strategy; the other strategies never
    draw and create no generator.  A caller that also draws the real actions
    from a seed should give the engine an independent stream of it, such as
    ``seed=(seed, 1)``, as the CLI does: with the same seed and as many
    outputs as actions, both generators draw the same indices.  Engines are
    single-stream and not thread-safe; run one engine per monitored stream.
    """

    def __init__(
        self,
        m: Mdp,
        p: Partition,
        automaton: EditAutomaton,
        strategy: str = "lex-first",
        seed: int = 0,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
        self.mdp = m
        self.partition = p
        self.automaton = automaton
        self.strategy = strategy
        self.rng = np.random.default_rng(seed) if strategy == "uniform-random" else None
        t = automaton.pruned
        self._order, self._alphabet, self._enabled = t.order, t.alphabet, t._enabled
        self._symbol = dict(zip(t.alphabet, range(len(t.alphabet))))
        self._choice = automaton._choices.get(strategy)  # None for uniform-random
        self._successors = automaton._successors
        self._dots = [m.trans[a].dot for a in t.alphabet]  # the bound update per output
        self._fast = p._fast
        self._k = len(t.alphabet)
        self.observer_belief = np.array(m.pi0, dtype=float)
        cell = locate_cell(reduce_belief(self.observer_belief), p)
        if cell not in automaton.states:
            raise ValueError(f"initial belief cell {cell} is not a state of the edit automaton")
        self._i = t._index[cell]  # the current cell's index in pruned.order

    @property
    def current_cell(self):
        """The abstract state: the cell of the observer belief."""
        return self._order[self._i]

    def step(self, actual: str) -> str:
        """Rewrite one real action and advance the observer belief."""
        i = self._i
        if self._choice is not None:
            k = self._choice[i].get(actual)
        else:
            outputs = self._enabled[i] if actual in self._symbol else ()
            k = self._symbol[outputs[int(self.rng.integers(len(outputs)))]] if outputs else None
        if k is None:
            raise EditUndefinedError(
                f"no output defined at cell {self._order[i]} for action {actual!r}")
        # a new array, not an update in place: traces keep every belief
        belief = self.observer_belief = self._dots[k](self.observer_belief)
        xs = belief.tolist()
        del xs[-1]
        cell = self._fast(xs)
        if cell < 0:
            cell = _search(xs, self.partition)
        j = self._successors[i * self._k + k].get(cell)
        if j is None:
            raise EditUndefinedError(
                f"observer belief moved to cell {cell}, which the edit automaton does not "
                f"cover from cell {self._order[i]} on {self._alphabet[k]!r}"
            )
        self._i = j
        return self._alphabet[k]


@dataclass(frozen=True)
class EditCounterexample:
    requirement: int  # 1 output defined, 2 output word valid, 3 opacity holds
    strategy: str
    sequence: tuple[str, ...]
    step: int
    detail: str


@dataclass(frozen=True)
class EditVerifyReport:
    ok: bool
    sequences_checked: int
    counterexample: EditCounterexample | None

    def __str__(self):
        if self.ok:
            return f"ok ({self.sequences_checked} sequences checked)"
        c = self.counterexample
        return (
            f"requirement {c.requirement} fails under strategy {c.strategy} "
            f"on {'/'.join(c.sequence)} at step {c.step}: {c.detail}"
        )


def verify_edit_requirements(
    ea: EditAutomaton,
    m: Mdp,
    p: Partition,
    depth: int,
    support: Nfa | None = None,
) -> EditVerifyReport:
    """Bounded-exhaustive check of the three edit-function requirements.

    Runs every real-action sequence up to ``depth`` through the engine under
    each of :data:`STRATEGIES` and checks that an output is always defined,
    that the output word stays within the support automaton's language, and
    that the observer's secret mass never exceeds the threshold.  The engine
    of sequence i is seeded ``(0, i)``; the cost grows as ``|actions| ** depth``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    support = support if support is not None else mdp_to_nfa(m)
    checked = 0

    def failed(*counterexample) -> EditVerifyReport:
        return EditVerifyReport(False, checked, EditCounterexample(*counterexample))

    mass0 = m.secret_mass(m.pi0)
    if mass0 > m.threshold:
        return failed(3, STRATEGIES[0], (), 0,
                      f"initial secret mass {mass0!r} exceeds the threshold")

    for strategy in STRATEGIES:
        for seq_idx, seq in enumerate(itertools.product(m.actions, repeat=depth)):
            engine = EditEngine(m, p, ea, strategy=strategy, seed=(0, seq_idx))
            current = set(support.initial)
            checked += 1
            for step, actual in enumerate(seq, start=1):
                try:
                    out = engine.step(actual)
                except EditUndefinedError as exc:
                    return failed(1, strategy, seq, step, str(exc))
                current = set().union(*(support.successors(q, out) for q in current))
                if not current:
                    return failed(2, strategy, seq, step,
                                  f"output word leaves the support language on {out!r}")
                mass = m.secret_mass(engine.observer_belief)
                if mass > m.threshold:
                    return failed(3, strategy, seq, step,
                                  f"observer secret mass {mass!r} exceeds the threshold")
    return EditVerifyReport(ok=True, sequences_checked=checked, counterexample=None)


def edit_to_dot(ea: EditAutomaton) -> str:
    """Graphviz rendering with "actual/output" edge labels: per source, its
    pruned edges once for every real action; the style follows the output
    action."""
    return _dot(ea.pruned, "Tf", [("__init", ea.initial)],
                tuple(f"{actual}/" for actual in ea.alphabet))


def allowed_to_csv(r: RestrictedMdp) -> str:
    lines = ["state,actions,vacuous"]
    for s in r.base.states:
        if s not in r.allowed:
            continue
        acts = ";".join(r.allowed[s])
        lines.append(f"{s},{acts},{str(s in r.vacuous).lower()}")
    return "\n".join(lines) + "\n"


def policy_to_csv(policy: Policy) -> str:
    lines = ["state,action,value"]
    for s, a in policy.choice.items():
        lines.append(f"{s},{a},{policy.value[s]!r}")
    return "\n".join(lines) + "\n"
