"""Shared fixtures and independent test oracles.

The three-state reference model is kept here both as a document (for the
parser) and as raw numpy literals (so oracle computations never route
through the code under test).
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belief_opacity as bo

THREE_STATE_DOC = """\
states: [s1, s2, s3]
actions: [a1, a2]
pi0: [0.3, 0.1, 0.6]
trans:
  a1:
    - [0.2, 0.0, 0.1]
    - [0.4, 0.3, 0.2]
    - [0.4, 0.7, 0.7]
  a2:
    - [0.4, 0.65, 0.3]
    - [0.2, 0.0, 0.2]
    - [0.4, 0.35, 0.5]
secret: [s1, s2]
lambda: 0.8
"""

H1 = np.array([[0.2, 0.0, 0.1], [0.4, 0.3, 0.2], [0.4, 0.7, 0.7]])
H2 = np.array([[0.4, 0.65, 0.3], [0.2, 0.0, 0.2], [0.4, 0.35, 0.5]])
PI0 = np.array([0.3, 0.1, 0.6])

# Reference cell labels for the width-0.2 partition of the three-state
# model, keyed by the lower corner of each safe cell.
REF_SAFE_CORNERS = {
    "q0": (0.0, 0.0),
    "q1": (0.0, 0.2),
    "q2": (0.0, 0.4),
    "q3": (0.2, 0.0),
    "q4": (0.4, 0.0),
    "q5": (0.2, 0.2),
}

# Frozen model that drives the restriction to an empty action set at an
# initial state although the pruned abstraction keeps its initial cell
# (random_mdp(default_rng(91), 3); kept literal for reproducibility).
BLOCKED_INITIAL_DOC = """\
states: [s1, s2, s3]
actions: [a1, a2]
pi0: [0.4243307809098009, 0.37265087701657146, 0.20301834207362773]
trans:
  a1:
    - [0.43493486648470847, 0.0738626169432705, 0.06496597364076726]
    - [0.33224961615007936, 0.2731116815804199, 0.7156425494570402]
    - [0.23281551736521208, 0.6530257014763098, 0.21939147690219257]
  a2:
    - [0.3386411114973616, 0.05239952155158638, 0.2667810668341873]
    - [0.024096328537803555, 0.9368531968829754, 0.010555962392976992]
    - [0.6372625599648348, 0.01074728156543813, 0.7226629707728358]
secret: [s1, s2]
lambda: 1.0
"""


@pytest.fixture(scope="session")
def mdp3() -> bo.Mdp:
    m = bo.parse_model(THREE_STATE_DOC)
    assert bo.validate_mdp(m).ok
    m, perm = bo.canonical_reorder(m)
    assert perm == (0, 1, 2)
    return m


@pytest.fixture(scope="session")
def partition3(mdp3) -> bo.Partition:
    return bo.build_grid(0.2, mdp3)


@pytest.fixture(scope="session")
def abstraction3(mdp3, partition3) -> bo.AbstractionResult:
    return bo.abstract(mdp3, partition3)


def ref_cells(p: bo.Partition) -> dict[str, int]:
    """Map the reference labels q0..q5 onto cell ids by geometry."""
    out = {}
    for label, corner in REF_SAFE_CORNERS.items():
        matches = [
            c.id
            for c in p.safe_cells()
            if np.allclose(c.box.lo, corner, atol=1e-12)
        ]
        assert len(matches) == 1, f"no unique safe cell at {corner}"
        out[label] = matches[0]
    return out


def random_mdp(rng: np.random.Generator, n: int, n_actions: int = 2,
               threshold: float | None = None) -> bo.Mdp:
    """Dense random model with Dirichlet columns and a random strict secret set."""
    states = tuple(f"s{i + 1}" for i in range(n))
    actions = tuple(f"a{k + 1}" for k in range(n_actions))
    trans = {
        a: np.column_stack([rng.dirichlet(np.ones(n)) for _ in range(n)])
        for a in actions
    }
    pi0 = rng.dirichlet(np.ones(n))
    size = int(rng.integers(1, n))
    secret = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
    m = bo.Mdp(states=states, pi0=pi0, actions=actions, trans=trans,
               secret=secret, threshold=1.0 if threshold is None else threshold)
    m, _ = bo.canonical_reorder(m)
    return m


@functools.lru_cache(maxsize=8)
def _cell_table(p: bo.Partition):
    """Every cell's lower and upper corner, and whether it is not excluded."""
    los = np.array([c.box.lo for c in p.cells])
    his = np.array([c.box.hi for c in p.cells])
    usable = np.array([c.status != bo.EXCLUDED for c in p.cells])
    return los, his, usable


def scan_locate(x, p):
    """Reference point location: test every cell.  Among non-excluded cells
    whose closed box holds x, the lexicographically largest lower corner,
    then the largest id; None when no cell qualifies."""
    xs = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    los, his, usable = _cell_table(p)
    hits = np.nonzero(usable & np.all(los <= xs, axis=1) & np.all(xs <= his, axis=1))[0]
    if hits.size == 0:
        return None
    return max((tuple(los[i]), p.cells[i].id) for i in hits)[1]


def evaluate_policy_reachability(m: bo.Mdp, choice: dict[str, str], target) -> dict[str, float]:
    """Exact reachability value of a fixed memoryless policy on the full MDP.

    Independent of value iteration: finds the states that can reach the
    target in the induced chain, then solves the linear absorption system.
    """
    covered = [s for s in m.states if s in choice]
    idx = {s: k for k, s in enumerate(covered)}
    k_n = len(covered)
    chain = np.zeros((k_n, k_n))
    for s in covered:
        j = m.states.index(s)
        col = m.trans[choice[s]][:, j]
        for i_full, prob in enumerate(col):
            if prob > 0:
                t = m.states[i_full]
                if t in idx:
                    chain[idx[s], idx[t]] += prob

    target_in = {s for s in target if s in idx}
    can_reach = set(target_in)
    changed = True
    while changed:
        changed = False
        for s in covered:
            if s in can_reach:
                continue
            if any(chain[idx[s], idx[t]] > 0 for t in can_reach):
                can_reach.add(s)
                changed = True

    values = {s: 0.0 for s in covered}
    for s in target_in:
        values[s] = 1.0
    transient = [s for s in covered if s in can_reach and s not in target_in]
    if transient:
        tix = {s: i for i, s in enumerate(transient)}
        q = np.zeros((len(transient), len(transient)))
        b = np.zeros(len(transient))
        for s in transient:
            for t in covered:
                prob = chain[idx[s], idx[t]]
                if prob <= 0:
                    continue
                if t in target_in:
                    b[tix[s]] += prob
                elif t in tix:
                    q[tix[s], tix[t]] += prob
        sol = np.linalg.solve(np.eye(len(transient)) - q, b)
        for s in transient:
            values[s] = float(sol[tix[s]])
    return values


def playable_action_sequences(r: bo.RestrictedMdp, depth: int):
    """All action sequences supported by some state path of the restricted MDP.

    Tracks the set of states reachable along paths whose every step used an
    action allowed at the state it left; a sequence dies when that set
    empties.  Yields every playable sequence of length 1..depth.
    """
    m = r.base
    supports = {}
    for s in m.states:
        j = m.states.index(s)
        for a in r.allowed.get(s, ()):
            supports[(s, a)] = frozenset(
                m.states[i] for i in np.nonzero(m.trans[a][:, j] > 0)[0]
            )
    initial = frozenset(
        s for s in m.states if s in r.allowed and m.pi0[m.states.index(s)] > 0
    )

    def walk(prefix: tuple[str, ...], reachable: frozenset):
        if len(prefix) == depth:
            return
        for a in m.actions:
            nxt = frozenset().union(
                *(supports[(s, a)] for s in reachable if (s, a) in supports)
            ) if reachable else frozenset()
            if not nxt:
                continue
            seq = prefix + (a,)
            yield seq
            yield from walk(seq, nxt)

    yield from walk((), initial)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter that imports the package from this checkout."""
    src = str(Path(bo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, (done.returncode, done.stderr)
