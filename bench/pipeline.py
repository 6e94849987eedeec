"""The benchmark's calls into the program, shared by the benchmark process
and its fresh-process child.

``call(name, fn, *args)`` is how every synthesis stage is invoked; the
untraced run passes :func:`direct`, the traced run a span recorder.  The program itself
is never patched.
"""

from __future__ import annotations

from dataclasses import dataclass


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def load(bo, path):
    """Load, validate and canonically reorder one model document."""
    m = bo.load_model(path)
    report = bo.validate_mdp(m)
    if not report.ok:
        raise ValueError(f"{path}: {report}")
    m, _ = bo.canonical_reorder(m)
    return m


@dataclass
class Synthesis:
    partition: object
    raw: object
    initial: int
    pruned: object
    events: tuple
    restricted: object
    policy: object
    edit: object


def synthesize(bo, m, width: float, target: str, call=direct) -> Synthesis:
    """From a loaded model to both controllers: the restricted MDP with its
    reachability policy, and the edit automaton."""
    p = call("partition.build_grid", bo.build_grid, width, m)
    x0 = bo.reduce_belief(m.pi0)
    if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
        p = call("partition.refine_initial", bo.refine_initial, p, x0, m)
    raw = call("abstraction.build_abstraction", bo.build_abstraction, m, p)
    initial = next(iter(raw.initial))
    pruned, events = call("abstraction.prune", bo.prune, raw, initial)
    restricted = call("synthesis.restrict_actions", bo.restrict_actions, m, pruned)
    restricted = call("synthesis.prune_blocking", bo.prune_blocking, restricted)
    policy = call("synthesis.synthesize_reach_policy", bo.synthesize_reach_policy,
                  restricted, [target])
    edit = call("synthesis.build_edit_automaton", bo.build_edit_automaton, pruned)
    return Synthesis(p, raw, initial, pruned, events, restricted, policy, edit)


def run_stream(bo, m, syn: Synthesis, actions, strategy: str = "match-if-safe"):
    """Rewrite one real-action stream through a fresh engine; returns the
    reported actions and the final observer belief."""
    engine = bo.EditEngine(m, syn.partition, syn.edit, strategy=strategy)
    step = engine.step
    outputs = [step(a) for a in actions]
    return outputs, engine.observer_belief
