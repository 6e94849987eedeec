"""Ground-truth harness: exact belief traces, opacity monitoring, and
sampling cross-checks for the abstraction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .abstraction import BAD_STATE
from .dynamics import AffineDecomposition, IntervalBox, belief_update, reduce_belief
from .model import Mdp, Nfa
from .partition import BAD, Partition, locate_cell
from .synthesis import EditAutomaton, EditEngine

__all__ = [
    "TraceRecord",
    "simulate",
    "simulate_edited",
    "random_actions",
    "opacity_monitor",
    "SoundnessViolation",
    "SoundnessReport",
    "soundness_check",
    "brute_reach_box",
    "trace_to_csv",
]


@dataclass(frozen=True)
class TraceRecord:
    step: int
    real_action: str | None
    output_action: str | None
    belief: np.ndarray
    secret_mass: float
    cell_id: int | None


def _record(m: Mdp, step: int, real, output, belief, cell: int | None) -> TraceRecord:
    return TraceRecord(
        step=step,
        real_action=real,
        output_action=output,
        belief=belief,
        secret_mass=m.secret_mass(belief),
        cell_id=cell,
    )


def _action_source(actions, steps: int):
    """``actions`` as a callable ``(step_index, belief) -> action``: a
    callable is returned as is, a sequence must name at least ``steps``
    actions."""
    if callable(actions):
        return actions
    actions = list(actions)
    if len(actions) < steps:
        raise ValueError(f"need {steps} actions, got {len(actions)}")
    return lambda t, _b: actions[t]


def simulate(m: Mdp, actions, steps: int, p: Partition | None = None) -> list[TraceRecord]:
    """Exact belief trajectory for ``steps`` observed actions.

    ``actions`` is either a sequence of at least ``steps`` action names or a
    callable ``(step_index, belief) -> action``.  The first record is the
    initial belief; cells are annotated when a partition is given.
    """
    source = _action_source(actions, steps)

    def cell(belief):
        return locate_cell(reduce_belief(belief), p) if p is not None else None

    belief = np.array(m.pi0, dtype=float)
    trace = [_record(m, 0, None, None, belief, cell(belief))]
    for t in range(steps):
        a = source(t, belief)
        belief = belief_update(belief, a, m)
        trace.append(_record(m, t + 1, a, a, belief, cell(belief)))
    return trace


def simulate_edited(
    m: Mdp,
    p: Partition,
    ea: EditAutomaton,
    actions,
    steps: int,
    strategy: str = "lex-first",
    seed: int = 0,
) -> list[TraceRecord]:
    """Belief trajectory as seen by the observer of an edited stream.

    Real actions come from ``actions`` (same contract as :func:`simulate`);
    each is rewritten by a fresh :class:`EditEngine` and the recorded belief
    is the one induced by the output actions; its cell is the engine's.
    """
    source = _action_source(actions, steps)
    engine = EditEngine(m, p, ea, strategy=strategy, seed=seed)
    trace = [_record(m, 0, None, None, engine.observer_belief, engine.current_cell)]
    for t in range(steps):
        real = source(t, engine.observer_belief)
        out = engine.step(real)
        trace.append(_record(m, t + 1, real, out, engine.observer_belief, engine.current_cell))
    return trace


def random_actions(m: Mdp, seed: int = 0):
    """Seeded uniform action source for :func:`simulate`."""
    rng = np.random.default_rng(seed)

    def source(_t, _belief):
        return m.actions[int(rng.integers(len(m.actions)))]

    return source


def opacity_monitor(trace, threshold: float) -> int | None:
    """First step whose secret mass exceeds the threshold, if any."""
    for rec in trace:
        if rec.secret_mass > threshold:
            return rec.step
    return None


@dataclass(frozen=True)
class SoundnessViolation:
    sequence: tuple[str, ...]
    step: int
    from_cell: int
    action: str
    to_state: object  # a cell id or the bad sink
    detail: str


@dataclass(frozen=True)
class SoundnessReport:
    sequences_checked: int
    violations: tuple[SoundnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def soundness_check(
    m: Mdp, p: Partition, raw_t: Nfa, depth: int, samples: int, seed: int = 0
) -> SoundnessReport:
    """Check that concrete cell trajectories are paths of the abstraction.

    Runs every action sequence of length ``depth`` when there are at most
    10**4 of them, otherwise ``samples`` random ones.  For each sequence the
    exact belief trajectory is located cell by cell; a concrete move the
    automaton lacks is reported.  Once the belief enters a bad cell the
    abstraction makes no further claims and the sequence stops.
    """
    n_actions = len(m.actions)
    if n_actions**depth <= 10_000:
        sequences = itertools.product(m.actions, repeat=depth)
        total = n_actions**depth
    else:
        rng = np.random.default_rng(seed)
        sequences = (
            tuple(m.actions[i] for i in rng.integers(n_actions, size=depth))
            for _ in range(samples)
        )
        total = samples

    violations = []
    initial_cell = locate_cell(reduce_belief(m.pi0), p)
    for seq in sequences:
        seq = tuple(seq)
        if initial_cell not in raw_t.initial:
            violations.append(
                SoundnessViolation(seq, 0, initial_cell, "", initial_cell,
                                   "initial cell is not an initial abstraction state")
            )
            break
        belief = np.array(m.pi0, dtype=float)
        cell = initial_cell
        for step, a in enumerate(seq, start=1):
            belief = belief_update(belief, a, m)
            next_cell = locate_cell(reduce_belief(belief), p)
            if p.status[p.row(next_cell)] == BAD:
                if BAD_STATE not in raw_t.successors(cell, a):
                    violations.append(
                        SoundnessViolation(
                            seq, step, cell, a, BAD_STATE,
                            f"belief entered bad cell {next_cell} but the automaton "
                            "has no bad edge",
                        )
                    )
                break
            if next_cell not in raw_t.successors(cell, a):
                violations.append(
                    SoundnessViolation(
                        seq, step, cell, a, next_cell,
                        "concrete cell move missing from the abstraction",
                    )
                )
                break
            cell = next_cell
    return SoundnessReport(sequences_checked=total, violations=tuple(violations))


def brute_reach_box(
    d: AffineDecomposition, box: IntervalBox, samples: int, seed: int = 0
) -> IntervalBox:
    """Sampled inner approximation of the one-step image of ``box``.

    Evaluates the exact reduced update on a seeded low-discrepancy sample of
    the box intersected with the belief domain, plus every box corner inside
    the domain, and returns the componentwise min/max envelope.  The result
    is always contained in the two-corner bound.
    """
    # SciPy takes most of the package's import time and only this needs it.
    from scipy.stats import qmc

    if samples < 1:
        raise ValueError("samples must be at least 1")
    corners = box.corners()
    if np.all(box.hi - box.lo == 0.0):
        points = box.lo[None, :]
    else:
        unit = qmc.Halton(d=box.dim, scramble=True, seed=seed).random(samples)
        points = box.lo + unit * (box.hi - box.lo)
        points = np.vstack([points, corners])
    keep = (points >= 0.0).all(axis=1) & (points.sum(axis=1) <= 1.0)
    points = points[keep]
    if points.shape[0] == 0:
        raise ValueError("box does not intersect the belief domain")
    images = points @ (d.a1 - d.a2).T + d.b
    return IntervalBox(lo=images.min(axis=0), hi=images.max(axis=0))


def trace_to_csv(trace, m: Mdp) -> str:
    """CSV rendering of a trace: step, actions, belief, secret mass, cell."""
    header = ["step", "real", "output"]
    header += [f"belief_{s}" for s in m.states]
    header += ["secret_mass", "cell"]
    lines = [",".join(header)]
    for rec in trace:
        row = [
            str(rec.step),
            rec.real_action or "",
            rec.output_action or "",
        ]
        row += [repr(float(v)) for v in rec.belief]
        row.append(repr(rec.secret_mass))
        row.append("" if rec.cell_id is None else str(rec.cell_id))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
