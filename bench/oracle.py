"""Independent checks of the program's outputs.

Everything here uses NumPy and the standard library alone and never imports
the program: each check recomputes what it needs from the model numbers of
``workloads.py`` and compares.  Checks state properties that hold for any
correct implementation (including a sound fix of the prune fault), never a
stored copy of earlier output.  Each raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import io

import numpy as np

BAD = "bad"
# float round-off allowed between the program's arithmetic and ours
TOL = 1e-9
# uniform samples per safe cell in check_images, besides its lower corner
SAMPLES_PER_CELL = 2


class CheckFailed(AssertionError):
    pass


def _require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


class OracleModel:
    """A model in canonical state order, from the workload's own numbers."""

    def __init__(self, spec):
        perm = np.array(spec.canonical, dtype=int)
        old_to_new = {int(old): new for new, old in enumerate(perm)}
        self.states = tuple(spec.states[i] for i in perm)
        self.actions = tuple(spec.actions)
        self.pi0 = np.asarray(spec.pi0, dtype=float)[perm]
        self.trans = {a: np.asarray(spec.trans[a], dtype=float)[np.ix_(perm, perm)]
                      for a in self.actions}
        self.secret = np.array(sorted(old_to_new[i] for i in spec.secret), dtype=int)
        self.threshold = float(spec.threshold)
        self.support = {
            (s, a): frozenset(self.states[i] for i in np.nonzero(self.trans[a][:, j] > 0.0)[0])
            for a in self.actions for j, s in enumerate(self.states)
        }
        self.support_initial = frozenset(
            self.states[i] for i in np.nonzero(self.pi0 > 0.0)[0])

    @property
    def target(self) -> str:
        return self.states[-1]


def check_model(om: OracleModel, states, pi0, trans: dict, secret_names):
    """The program's loaded, canonically reordered model equals ours."""
    _require(tuple(states) == om.states, f"state order {tuple(states)} != {om.states}")
    _require(np.array_equal(np.asarray(pi0), om.pi0), "pi0 differs after loading")
    for a in om.actions:
        _require(np.array_equal(np.asarray(trans[a]), om.trans[a]), f"matrix {a} differs")
    _require(set(secret_names) == {om.states[i] for i in om.secret}, "secret set differs")


def check_cells(om: OracleModel, lo: np.ndarray, hi: np.ndarray, status) -> None:
    """Cell status from each cell's corners, and the cells tile [0, 1]^d."""
    status = np.asarray(status)
    _require(np.all(lo < hi), "a cell has an empty side")
    volume = float(np.prod(hi - lo, axis=1).sum())
    _require(abs(volume - 1.0) < 1e-9, f"cells cover volume {volume!r}, not 1")
    expect = np.where(
        lo.sum(axis=1) >= 1.0, "excluded",
        np.where(hi[:, om.secret].sum(axis=1) > om.threshold, "bad", "safe"))
    wrong = np.nonzero(expect != status)[0]
    _require(wrong.size == 0,
             f"{wrong.size} cells misclassified, first row {wrong[:1].tolist()}: "
             f"{status[wrong[:1]].tolist()} instead of {expect[wrong[:1]].tolist()}")


def _image(om: OracleModel, x: np.ndarray, a: str) -> np.ndarray:
    b = np.column_stack([x, 1.0 - x.sum(axis=1)])
    return (b @ om.trans[a].T)[:, :-1]


def check_images(om, ids, lo, hi, status, delta: dict, rng) -> int:
    """Exact images of beliefs sampled in each safe cell land in a listed
    successor cell, or in a bad cell when the action has a ``bad`` edge.

    ``delta`` maps (cell id, action) to the raw abstraction's successors.
    Returns the number of images checked.
    """
    status = np.asarray(status)
    safe = np.nonzero(status == "safe")[0]
    usable = np.nonzero(status != "excluded")[0]
    # the lower corner of a safe cell is a belief; add uniform samples of
    # the cell that are beliefs too
    pts = [lo[safe]]
    owner = [safe]
    for _ in range(SAMPLES_PER_CELL):
        x = lo[safe] + rng.random((safe.size, lo.shape[1])) * (hi[safe] - lo[safe])
        keep = x.sum(axis=1) <= 1.0
        pts.append(x[keep])
        owner.append(safe[keep])
    pts = np.vstack(pts)
    owner = np.concatenate(owner)
    ulo, uhi = lo[usable] - 1e-12, hi[usable] + 1e-12
    checked = 0
    for a in om.actions:
        img = _image(om, pts, a)
        for start in range(0, len(img), 256):
            chunk = img[start:start + 256]
            inside = np.all((ulo[None] <= chunk[:, None]) & (chunk[:, None] <= uhi[None]), axis=2)
            for k, row in enumerate(inside):
                src = int(ids[owner[start + k]])
                succ = delta.get((src, a), frozenset())
                hits = usable[np.nonzero(row)[0]]
                ok = any(
                    (BAD in succ) if status[h] == "bad" else int(ids[h]) in succ for h in hits
                )
                _require(ok, f"image of {pts[start + k].tolist()} under {a} leaves the "
                             f"successors {sorted(map(str, succ))} of cell {src}")
                checked += 1
    return checked


def safety_fixpoint(states, alphabet, delta: dict) -> dict:
    """Greatest controlled-invariant set of the raw abstraction: the states
    with some action whose every successor stays in the set (``bad`` never
    does).  Returns state -> actions enabled under that rule."""
    alive = {q for q in states if q != BAD}
    while True:
        enabled = {
            q: [a for a in alphabet if (q, a) in delta and delta[(q, a)] <= alive]
            for q in alive
        }
        dead = {q for q, acts in enabled.items() if not acts}
        if not dead:
            return enabled
        alive -= dead


def check_pruned(raw_states, alphabet, raw_delta, states, delta, initial, sound=True) -> None:
    """No surviving action reaches ``bad``, the survivors come from the raw
    abstraction, and they contain the sound safety-game fixpoint of the raw
    abstraction.

    With ``sound`` (every model not known to hit the prune fault) each
    surviving action keeps all its raw successors, they all survived, and
    every survivor keeps an action: the survivors are then controlled
    invariant, so with the containment above they are exactly the fixpoint.
    Without it only the pruned edges are checked against the survivors,
    which the prune fault passes: it keeps an action after deleting one of
    its successors.
    """
    _require(initial in states, f"initial state {initial} did not survive pruning")
    _require(BAD not in states, "bad survived pruning")
    _require(set(states) <= set(raw_states), "pruning invented states")
    for (q, a), succ in delta.items():
        raw = set(raw_delta.get((q, a), ()))
        _require(q in states, f"edge from deleted state {q}")
        _require(BAD not in succ, f"surviving action {a} at {q} reaches bad")
        _require(set(succ) <= set(states), f"surviving action {a} at {q} leaves the automaton")
        _require(set(succ) <= raw, f"edge {q},{a} not in the raw automaton")
        if sound:
            _require(raw <= set(states),
                     f"surviving action {a} at {q} can reach the deleted states "
                     f"{sorted(map(str, raw - set(states)))}")
    if sound:
        enabled = {q for q, _ in delta}
        _require(set(states) <= enabled,
                 f"survivors without an action: {sorted(map(str, set(states) - enabled))}")
    for q, acts in safety_fixpoint(raw_states, alphabet, raw_delta).items():
        _require(q in states, f"state {q} of the sound fixpoint was deleted")
        for a in acts:
            _require((q, a) in delta, f"action {a} at {q} is safe but was disabled")


def check_allowed(om: OracleModel, delta: dict, initial, allowed: dict) -> int:
    """Allowed actions are enabled at every reachable product state, and no
    allowed action can move into a removed state.  Returns the number of
    reachable product states."""
    seen = {(s, initial) for s in om.support_initial}
    frontier = list(seen)
    while frontier:
        s, q = frontier.pop()
        for a in om.actions:
            if om.support[(s, a)] and (q, a) in delta:
                for pair in ((t, q2) for t in om.support[(s, a)] for q2 in delta[(q, a)]):
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)
    for s, q in seen:
        for a in allowed.get(s, ()):
            _require(om.support[(s, a)] and (q, a) in delta,
                     f"allowed action {a} at {s} is disabled at product state ({s}, {q})")
    for s, acts in allowed.items():
        for a in acts:
            _require(om.support[(s, a)] <= set(allowed),
                     f"allowed action {a} at {s} can reach a removed state")
    return len(seen)


def policy_values(om: OracleModel, choice: dict, target) -> dict:
    """Reachability value of a memoryless policy by a linear solve."""
    covered = [s for s in om.states if s in choice]
    idx = {s: k for k, s in enumerate(covered)}
    chain = np.zeros((len(covered), len(covered)))
    for s in covered:
        col = om.trans[choice[s]][:, om.states.index(s)]
        for i, prob in enumerate(col):
            if prob > 0 and om.states[i] in idx:
                chain[idx[s], idx[om.states[i]]] += prob
    goal = {s for s in target if s in idx}
    reach = set(goal)
    grew = True
    while grew:
        grew = False
        for s in covered:
            if s not in reach and any(chain[idx[s], idx[t]] > 0 for t in reach):
                reach.add(s)
                grew = True
    values = {s: (1.0 if s in goal else 0.0) for s in covered}
    transient = [s for s in covered if s in reach and s not in goal]
    if transient:
        rows = [idx[s] for s in transient]
        q = chain[np.ix_(rows, rows)]
        b = chain[np.ix_(rows, [idx[s] for s in goal])].sum(axis=1)
        sol = np.linalg.solve(np.eye(len(rows)) - q, b)
        values.update({s: float(v) for s, v in zip(transient, sol)})
    return values


def check_policy(om: OracleModel, allowed: dict, choice: dict, value: dict, target) -> None:
    for s, a in choice.items():
        _require(a in allowed.get(s, ()), f"policy picks {a} at {s}, which is not allowed")
    expect = policy_values(om, choice, target)
    for s, v in expect.items():
        _require(abs(value[s] - v) <= 1e-6, f"policy value at {s} is {value[s]!r}, linear solve {v!r}")


def check_edit_stream(om: OracleModel, outputs, beliefs=None, final=None) -> None:
    """Replay the reported actions: the observer belief follows H_out b,
    its secret mass stays within the threshold, and the reported word is in
    the model's support language.  ``beliefs`` (one per step) and ``final``
    are the engine's beliefs to compare."""
    b = om.pi0.copy()
    current = set(om.support_initial)
    for step, out in enumerate(outputs, start=1):
        _require(out in om.trans, f"step {step}: reported action {out!r} is not in the model")
        b = om.trans[out] @ b
        mass = float(b[om.secret].sum())
        _require(mass <= om.threshold + 1e-12, f"step {step}: secret mass {mass!r} exceeds the threshold")
        current = set().union(*(om.support[(s, out)] for s in current))
        _require(current, f"step {step}: reported word leaves the support language on {out}")
        if beliefs is not None:
            _require(np.allclose(beliefs[step - 1], b, rtol=0, atol=TOL),
                     f"step {step}: engine belief {np.asarray(beliefs[step - 1]).tolist()} != {b.tolist()}")
    if final is not None:
        _require(np.allclose(final, b, rtol=0, atol=TOL), "final engine belief differs from the replay")


def check_edges_csv(text: str, edges: set) -> None:
    """The CLI's edges.csv lists exactly the in-process pruned edges."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["src", "action", "dst"], "edges.csv header")
    got = {tuple(r) for r in rows[1:]}
    _require(len(got) == len(rows) - 1, "edges.csv repeats an edge")
    _require(got == {(str(q), a, str(q2)) for q, a, q2 in edges},
             f"edges.csv differs from the pruned automaton ({len(got)} vs {len(edges)} edges)")


def check_allowed_csv(text: str, allowed: dict) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["state", "actions", "vacuous"], "allowed.csv header")
    got = {r[0]: tuple(a for a in r[1].split(";") if a) for r in rows[1:]}
    _require(got == {s: tuple(a) for s, a in allowed.items()}, "allowed.csv differs from restrict_actions")


def check_policy_csv(om: OracleModel, text: str, allowed: dict, target) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["state", "action", "value"], "policy.csv header")
    choice = {r[0]: r[1] for r in rows[1:]}
    value = {r[0]: float(r[2]) for r in rows[1:]}
    check_policy(om, allowed, choice, value, target)


def check_trace_csv(om: OracleModel, text: str, steps: int) -> None:
    """An edited trace written by the CLI obeys the edit requirements."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows, "trace.csv is empty")
    head = rows[0]
    _require(len(rows) == steps + 2, f"trace.csv has {len(rows) - 2} steps, expected {steps}")
    cols = [head.index(f"belief_{s}") for s in om.states]
    beliefs = [np.array([float(r[c]) for c in cols]) for r in rows[2:]]
    _require(np.array_equal(np.array([float(rows[1][c]) for c in cols]), om.pi0),
             "trace.csv does not start at pi0")
    outputs = [r[head.index("output")] for r in rows[2:]]
    check_edit_stream(om, outputs, beliefs=beliefs)


def check_identical(first: dict, again: dict) -> None:
    """Two invocations with the same arguments wrote the same files, byte
    for byte (both maps go from file name to content digest)."""
    _require(first.keys() == again.keys(),
             f"artifact names differ: {sorted(first)} vs {sorted(again)}")
    differ = sorted(k for k in first if first[k] != again[k])
    _require(not differ, f"artifacts differ between invocations: {differ}")
