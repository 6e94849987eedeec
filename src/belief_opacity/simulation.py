"""Ground-truth harness: exact belief traces, opacity monitoring, and
sampling cross-checks for the abstraction."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .abstraction import BAD_STATE
from .dynamics import AffineDecomposition, IntervalBox, belief_update, reduce_belief
from .model import Mdp, Nfa
from .partition import _BAD, Partition, _locate, locate_cell
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


def _take(actions, steps: int) -> list[str]:
    """The first ``steps`` names of the iterable ``actions``."""
    names = list(itertools.islice(actions, steps))
    if len(names) < steps:
        raise ValueError(f"need {steps} actions, got {len(names)}")
    return names


def simulate(m: Mdp, actions, steps: int, p: Partition | None = None) -> list[TraceRecord]:
    """Exact belief trajectory for ``steps`` observed actions.

    ``actions`` is any iterable of action names, such as a list,
    ``itertools.cycle`` or :func:`random_actions`; its first ``steps`` names
    are used.  The first record is the initial belief; cells are annotated
    when a partition is given.
    """
    names = _take(actions, steps)
    if p is not None and p.dim != m.n - 1:
        raise ValueError(f"expected a partition of dimension {m.n - 1}, got {p.dim}")

    def cell(belief):
        return _locate(belief[:-1].tolist(), p) if p is not None else None

    belief = np.array(m.pi0, dtype=float)
    trace = [_record(m, 0, None, None, belief, cell(belief))]
    for t, a in enumerate(names, start=1):
        belief = belief_update(belief, a, m)
        trace.append(_record(m, t, a, a, belief, cell(belief)))
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
    names = _take(actions, steps)
    engine = EditEngine(m, p, ea, strategy=strategy, seed=seed)
    trace = [_record(m, 0, None, None, engine.observer_belief, engine.current_cell)]
    for t, real in enumerate(names, start=1):
        out = engine.step(real)
        trace.append(_record(m, t, real, out, engine.observer_belief, engine.current_cell))
    return trace


def random_actions(m: Mdp, seed: int = 0) -> Iterator[str]:
    """Endless seeded stream of uniformly drawn action names of ``m``.

    Names are drawn in blocks; NumPy's bounded integer draws give the same
    values in blocks as one at a time, so the stream is that of one
    ``rng.integers(len(m.actions))`` per name.  An invalid seed raises here,
    not at the first draw.
    """
    rng = np.random.default_rng(seed)
    names = m.actions

    def stream():
        while True:
            yield from map(names.__getitem__, rng.integers(len(names), size=1024).tolist())

    return stream()


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
    abstraction makes no further claims and the sequence stops.  An initial
    cell that is not initial in the automaton is reported before any run.
    """
    n_actions = len(m.actions)
    if n_actions**depth <= 10_000:
        sequences = itertools.product(m.actions, repeat=depth)
        total = n_actions**depth
    else:
        stream = random_actions(m, seed)
        sequences = (tuple(itertools.islice(stream, depth)) for _ in range(samples))
        total = samples

    initial_cell = locate_cell(reduce_belief(m.pi0), p)
    if initial_cell not in raw_t.initial:
        violation = SoundnessViolation((), 0, initial_cell, "", initial_cell,
                                       "initial cell is not an initial abstraction state")
        return SoundnessReport(sequences_checked=0, violations=(violation,))
    violations = []
    for seq in sequences:
        seq = tuple(seq)
        belief = np.array(m.pi0, dtype=float)
        cell = initial_cell
        for step, a in enumerate(seq, start=1):
            belief = belief_update(belief, a, m)
            next_cell = locate_cell(reduce_belief(belief), p)
            if p.codes[p.row(next_cell)] == _BAD:
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

    Evaluates the exact reduced update on ``samples`` seeded uniform points
    of the box, plus every box corner, keeps those inside the belief domain,
    and returns the componentwise min/max envelope of their images.  The
    result is always contained in the two-corner bound.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    corners = box.corners()
    if np.all(box.hi - box.lo == 0.0):
        points = box.lo[None, :]
    else:
        unit = np.random.default_rng(seed).random((samples, box.dim))
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
        row += [repr(v) for v in rec.belief.tolist()]
        row.append(repr(rec.secret_mass))
        row.append("" if rec.cell_id is None else str(rec.cell_id))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
