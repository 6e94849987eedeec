"""MDP model, secret-state requirement, and the generic NFA.

The model file format is YAML with the top-level keys ``states``,
``actions``, ``pi0``, ``trans``, ``secret`` and ``lambda``.  ``trans`` maps
each action name to an N x N matrix written as rows; entry (i, j) of the
stored matrix is the probability of moving *to* state i *from* state j
under that action, so every column must sum to one.  ``pi0`` is the initial
distribution over states and ``lambda`` is the opacity threshold on the
total probability mass the observer may assign to the secret states.

Parsing is strict about structure (shapes, names) but performs no numeric
checks; those live in :func:`validate_mdp` so that a malformed-but-parseable
document can still be loaded and reported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np
import yaml

__all__ = [
    "Mdp",
    "Nfa",
    "Issue",
    "ValidationReport",
    "ModelFormatError",
    "parse_model",
    "serialize_model",
    "load_model",
    "validate_mdp",
    "mdp_to_nfa",
    "canonical_reorder",
]

_MODEL_KEYS = ("states", "actions", "pi0", "trans", "secret", "lambda")


class ModelFormatError(ValueError):
    """Raised when a model document is structurally invalid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite MDP with a secret-state set and an opacity threshold.

    ``trans[a]`` is the column-stochastic matrix whose (i, j) entry is the
    probability of reaching state i from state j under action ``a``; the
    observer belief therefore evolves as ``b' = trans[a] @ b``.
    """

    states: tuple[str, ...]
    pi0: np.ndarray
    actions: tuple[str, ...]
    trans: dict[str, np.ndarray]
    secret: frozenset[int]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "pi0", _freeze(self.pi0))
        object.__setattr__(self, "trans", {a: _freeze(h) for a, h in self.trans.items()})
        object.__setattr__(self, "secret", frozenset(self.secret))
        object.__setattr__(self, "threshold", float(self.threshold))
        n = len(self.states)
        if self.pi0.shape != (n,):
            raise ValueError(f"pi0 must have {n} entries, got shape {self.pi0.shape}")
        if set(self.trans) != set(self.actions):
            raise ValueError("trans must have exactly one matrix per action")
        for a in self.actions:
            if self.trans[a].shape != (n, n):
                raise ValueError(f"matrix for action {a!r} must be {n}x{n}")
        if any(i < 0 or i >= n for i in self.secret):
            raise ValueError("secret state index out of range")

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def secret_indices(self) -> np.ndarray:
        return np.array(sorted(self.secret), dtype=int)

    def matrix(self, action: str) -> np.ndarray:
        try:
            return self.trans[action]
        except KeyError:
            raise ValueError(f"unknown action {action!r}") from None

    def action_index(self, action: str) -> int:
        try:
            return self.actions.index(action)
        except ValueError:
            raise ValueError(f"unknown action {action!r}") from None

    def secret_mass(self, belief: np.ndarray) -> float:
        """Total probability the belief assigns to secret states."""
        return float(np.asarray(belief, dtype=float)[self.secret_indices].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mdp):
            return NotImplemented
        return (
            self.states == other.states
            and self.actions == other.actions
            and np.array_equal(self.pi0, other.pi0)
            and all(np.array_equal(self.trans[a], other.trans[a]) for a in self.actions)
            and self.secret == other.secret
            and self.threshold == other.threshold
        )


def _state_key(q):
    # total order over the mixed state universes we use (cell ids, names,
    # product tuples, the "bad" sink)
    if isinstance(q, tuple):
        return (2, tuple(_state_key(x) for x in q))
    if isinstance(q, str):
        return (1, q)
    return (0, q)


class Nfa:
    """Nondeterministic finite automaton over an ordered action alphabet.

    The transitions are kept once, as flat int arrays over ``order``, the
    tuple of states sorted by :func:`_state_key`: the targets of state
    ``i`` under the ``k``-th action are ``dst[offsets[s]:offsets[s + 1]]``,
    ascending, for the slot ``s = i * K + k`` with K = |alphabet| (the
    post-index layout of SCOTS).  So the edges are sorted by (source,
    action, target), and :meth:`edge_arrays` gives them as three arrays.
    ``states`` and ``delta``, the read-only mapping (state, action) ->
    frozenset of targets keyed in alphabet order, then ascending state, are
    derived on first use.

    The constructor takes ``delta`` as such a mapping, drops empty targets
    and rejects unknown states and symbols; automata whose arrays are
    already consistent (the abstraction's) skip it through
    :meth:`_from_edges`.
    """

    def __init__(self, states, alphabet, delta, initial):
        states, alphabet, initial = frozenset(states), tuple(alphabet), frozenset(initial)
        order = tuple(sorted(states, key=_state_key))
        index = dict(zip(order, range(len(order))))
        symbol = dict(zip(alphabet, range(len(alphabet))))
        edges = []
        for (q, a), targets in delta.items():
            targets = frozenset(targets)
            if not targets:
                continue
            if q not in states or not targets <= states:
                raise ValueError(f"transition ({q!r}, {a!r}) references unknown states")
            if a not in symbol:
                raise ValueError(f"transition symbol {a!r} not in alphabet")
            slot = index[q] * len(alphabet) + symbol[a]
            edges += [(slot, index[t]) for t in targets]
        if not initial <= states:
            raise ValueError("initial states must be a subset of the state set")
        slot, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        by = np.lexsort((dst, slot))
        self._set(order, alphabet, slot[by], dst[by], initial)

    @classmethod
    def _from_edges(cls, order: tuple, alphabet: tuple, slot, dst, initial: frozenset):
        """Build without the constructor's checks, from each edge's slot and
        target index over ``order``, a ``_state_key``-sorted tuple of states,
        sorted by (slot, target)."""
        nfa = object.__new__(cls)
        nfa._set(order, alphabet, slot, dst, initial)
        return nfa

    def _set(self, order, alphabet, slot, dst, initial):
        offsets = np.zeros(len(order) * len(alphabet) + 1, dtype=np.intp)
        np.cumsum(np.bincount(slot, minlength=len(offsets) - 1), out=offsets[1:])
        dst = np.asarray(dst, dtype=np.intp)
        offsets.flags.writeable = dst.flags.writeable = False
        for name, value in (("order", order), ("alphabet", alphabet), ("offsets", offsets),
                            ("dst", dst), ("initial", initial)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.order == other.order
            and self.alphabet == other.alphabet
            and self.initial == other.initial
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.dst, other.dst)
        )

    __hash__ = None

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge's source, action and target index, sorted by (source,
        action, target)."""
        n, k = len(self.order), len(self.alphabet)
        per_slot = np.diff(self.offsets)
        src = np.repeat(np.arange(n), per_slot.reshape(n, k).sum(axis=1))
        act = np.repeat(np.tile(np.arange(k), n), per_slot)
        return src, act, self.dst

    @cached_property
    def states(self) -> frozenset:
        return frozenset(self.order)

    @cached_property
    def _index(self) -> dict:
        return dict(zip(self.order, range(len(self.order))))

    @cached_property
    def _targets(self) -> tuple[list, list]:
        """``offsets`` as a list and every edge's target state."""
        return self.offsets.tolist(), [self.order[j] for j in self.dst.tolist()]

    @cached_property
    def delta(self) -> Mapping:
        n, k = len(self.order), len(self.alphabet)
        offsets, targets = self._targets
        view = {}
        # the non-empty slots, in alphabet order, then ascending state
        for key in np.flatnonzero(np.diff(self.offsets).reshape(n, k).T).tolist():
            a, i = divmod(key, n)
            s = i * k + a
            view[(self.order[i], self.alphabet[a])] = frozenset(targets[offsets[s]:offsets[s + 1]])
        return MappingProxyType(view)

    @cached_property
    def _enabled(self) -> list[tuple[str, ...]]:
        """Per state, in ``order``, its enabled actions in alphabet order."""
        k = len(self.alphabet)
        has = (np.diff(self.offsets) > 0).reshape(len(self.order), k)
        # each state's enabled actions as a bitmask over the alphabet
        bits = np.array([1 << j for j in range(k)], dtype=object if k > 62 else np.int64)
        masks = (has @ bits).tolist()
        actions = {c: tuple(compress(self.alphabet, (c >> j & 1 for j in range(k))))
                   for c in set(masks)}
        return [actions[c] for c in masks]

    def successors(self, q, a: str) -> frozenset:
        i = self._index.get(q)
        if i is None or a not in self.alphabet:
            return frozenset()
        s = i * len(self.alphabet) + self.alphabet.index(a)
        offsets, targets = self._targets
        return frozenset(targets[offsets[s]:offsets[s + 1]])

    def enabled(self, q) -> tuple[str, ...]:
        i = self._index.get(q)
        return () if i is None else self._enabled[i]

    def accepts(self, word: Iterable[str]) -> bool:
        """Whether the word can be generated from some initial state."""
        current = set(self.initial)
        for a in word:
            current = set().union(*(self.successors(q, a) for q in current)) if current else set()
            if not current:
                return False
        return True

    def reachable(self) -> frozenset:
        seen = set(self.initial)
        frontier = list(self.initial)
        while frontier:
            q = frontier.pop()
            for a in self.alphabet:
                for q2 in self.successors(q, a):
                    if q2 not in seen:
                        seen.add(q2)
                        frontier.append(q2)
        return frozenset(seen)

    def sorted_states(self) -> list:
        return list(self.order)

    def sorted_edges(self) -> list[tuple]:
        """All (source, action, target) triples, by source, action, target."""
        o, al = self.order, self.alphabet
        return [(o[s], al[a], o[d]) for s, a, d in zip(*(x.tolist() for x in self.edge_arrays()))]

    def transition_count(self) -> int:
        return len(self.dst)


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" or "warning"
    message: str
    location: str

    def __str__(self):
        return f"{self.severity}: {self.message} [{self.location}]"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[Issue, ...]

    def __str__(self):
        if not self.issues:
            return "ok"
        head = "ok" if self.ok else "invalid"
        return "\n".join([head] + [f"  {i}" for i in self.issues])


def _require(cond: bool, message: str):
    if not cond:
        raise ModelFormatError(message)


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ModelFormatError(f"{where} must be a number, got {v!r}")
    return float(v)


def parse_model(text: str) -> Mdp:
    """Parse a model document. Structural errors raise :class:`ModelFormatError`.

    Numeric soundness (stochastic columns, pi0 summing to one, the strict
    secret subset) is deliberately not checked here; see :func:`validate_mdp`.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ModelFormatError(
                f"invalid model syntax: {getattr(exc, 'problem', exc)}",
                line=mark.line + 1,
                column=mark.column + 1,
            ) from exc
        raise ModelFormatError(f"invalid model syntax: {exc}") from exc

    _require(isinstance(doc, dict), "model document must be a mapping")
    for key in _MODEL_KEYS:
        _require(key in doc, f"missing key {key!r}")
    for key in doc:
        _require(key in _MODEL_KEYS, f"unknown key {key!r}")

    states = doc["states"]
    _require(
        isinstance(states, list) and states and all(isinstance(s, str) for s in states),
        "'states' must be a non-empty list of names",
    )
    _require(len(set(states)) == len(states), "duplicate state names")
    n = len(states)

    actions = doc["actions"]
    _require(
        isinstance(actions, list) and actions and all(isinstance(a, str) for a in actions),
        "'actions' must be a non-empty list of names",
    )
    _require(len(set(actions)) == len(actions), "duplicate action names")

    pi0 = doc["pi0"]
    _require(isinstance(pi0, list), "'pi0' must be a list of numbers")
    _require(len(pi0) == n, f"'pi0' must have {n} entries, got {len(pi0)}")
    pi0 = [_as_number(v, "pi0 entry") for v in pi0]

    trans_doc = doc["trans"]
    _require(isinstance(trans_doc, dict), "'trans' must map actions to matrices")
    for a in actions:
        _require(a in trans_doc, f"'trans' is missing a matrix for action {a!r}")
    for a in trans_doc:
        _require(a in actions, f"'trans' has a matrix for unknown action {a!r}")
    trans = {}
    for a in actions:
        rows = trans_doc[a]
        _require(
            isinstance(rows, list) and len(rows) == n,
            f"matrix for action {a!r} must have {n} rows",
        )
        mat = []
        for i, row in enumerate(rows):
            _require(
                isinstance(row, list) and len(row) == n,
                f"row {i + 1} of matrix for action {a!r} must have {n} entries",
            )
            mat.append([_as_number(v, f"trans[{a}] entry") for v in row])
        trans[a] = np.array(mat, dtype=float)

    secret_doc = doc["secret"]
    _require(isinstance(secret_doc, list), "'secret' must be a list of state names")
    index = {s: i for i, s in enumerate(states)}
    secret = set()
    for name in secret_doc:
        _require(name in index, f"unknown state name in secret set: {name!r}")
        secret.add(index[name])

    threshold = _as_number(doc["lambda"], "'lambda'")

    return Mdp(
        states=tuple(states),
        pi0=np.array(pi0, dtype=float),
        actions=tuple(actions),
        trans=trans,
        secret=frozenset(secret),
        threshold=threshold,
    )


def serialize_model(m: Mdp) -> str:
    """Render a model back to the document format. Inverse of :func:`parse_model`."""
    doc = {
        "states": list(m.states),
        "actions": list(m.actions),
        "pi0": [float(v) for v in m.pi0],
        "trans": {a: [[float(v) for v in row] for row in m.trans[a]] for a in m.actions},
        "secret": [m.states[i] for i in sorted(m.secret)],
        "lambda": float(m.threshold),
    }
    return yaml.safe_dump(doc, sort_keys=False)


def load_model(path) -> Mdp:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8 text (byte {exc.start})") from None
    return parse_model(text)


def validate_mdp(m: Mdp, tol: float = 1e-9) -> ValidationReport:
    """Check the numeric model axioms. Never raises; failures go in the report.

    The stochasticity tolerance is configurable; no renormalization is ever
    applied, a column off by more than ``tol`` is an error.
    """
    issues: list[Issue] = []

    def err(message, location):
        issues.append(Issue("error", message, location))

    def warn(message, location):
        issues.append(Issue("warning", message, location))

    # sums are taken over the nonnegative part so that negative entries
    # cannot cancel excess mass and mask a sum failure; NaN fails the range tests
    if not np.all((m.pi0 >= -tol) & (m.pi0 <= 1 + tol)):
        err("entries must lie in [0, 1]", "pi0")
    pi0_mass = np.clip(m.pi0, 0.0, None).sum()
    if abs(pi0_mass - 1.0) > tol:
        err(f"entries sum to {pi0_mass!r}, expected 1", "pi0")

    for a in m.actions:
        h = m.trans[a]
        if not np.all((h >= -tol) & (h <= 1 + tol)):
            err("entries must lie in [0, 1]", f"trans[{a}]")
        sums = np.clip(h, 0.0, None).sum(axis=0)
        for j in range(m.n):
            if abs(sums[j] - 1.0) > tol:
                err(
                    f"column {j + 1} sums to {sums[j]!r}, expected 1",
                    f"trans[{a}]",
                )

    if len(m.secret) == m.n:
        err("secret set must be a strict subset of the states", "secret")
    elif not m.secret:
        warn("secret set is empty; the opacity requirement holds trivially", "secret")

    if not 0.0 <= m.threshold <= 1.0:
        err(f"threshold {m.threshold!r} must lie in [0, 1]", "lambda")

    ok = not any(i.severity == "error" for i in issues)
    return ValidationReport(ok=ok, issues=tuple(issues))


def mdp_to_nfa(m: Mdp) -> Nfa:
    """Support automaton of the MDP: an edge wherever a transition has
    positive probability, initial wherever pi0 is positive."""
    delta = {}
    for a in m.actions:
        h = m.trans[a]
        for j, src in enumerate(m.states):
            targets = frozenset(m.states[i] for i in np.nonzero(h[:, j] > 0.0)[0])
            if targets:
                delta[(src, a)] = targets
    initial = frozenset(m.states[i] for i in np.nonzero(m.pi0 > 0.0)[0])
    return Nfa(states=frozenset(m.states), alphabet=m.actions, delta=delta, initial=initial)


def canonical_reorder(m: Mdp) -> tuple[Mdp, tuple[int, ...]]:
    """Permute states so the last one is non-secret.

    Downstream code eliminates the last belief coordinate; keeping that
    coordinate non-secret makes the secret mass a nonnegative linear form of
    the remaining coordinates, which the cell classifier relies on.  If the
    last state is already non-secret the permutation is the identity;
    otherwise the lowest-indexed non-secret state moves to the end and the
    rest keep their relative order.  Returns the reordered model and the
    permutation mapping new indices to old ones.
    """
    n = m.n
    if len(m.secret) >= n:
        raise ValueError("secret set must be a strict subset of the states")
    if (n - 1) not in m.secret:
        perm = tuple(range(n))
        return m, perm
    moved = min(i for i in range(n) if i not in m.secret)
    perm = tuple([i for i in range(n) if i != moved] + [moved])
    idx = np.array(perm, dtype=int)
    old_to_new = {old: new for new, old in enumerate(perm)}
    reordered = Mdp(
        states=tuple(m.states[i] for i in perm),
        pi0=m.pi0[idx],
        actions=m.actions,
        trans={a: m.trans[a][np.ix_(idx, idx)] for a in m.actions},
        secret=frozenset(old_to_new[i] for i in m.secret),
        threshold=m.threshold,
    )
    return reordered, perm
