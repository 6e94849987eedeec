#!/usr/bin/env python3
"""Self-test of the oracles: each check passes on the program's output and
fails on a deliberately corrupted copy of it.

Usage, from the root of a checkout:

    python3 bench/selftest.py

Prints one line per check and exits 1 if any check accepts a corruption or
rejects a genuine output.  The outputs come from the program's public
functions (the same exporters the CLI writes its artifacts with) on the
reference model at width 0.2 and on the rand-batch fault model; the opacity
check, which no reference-model word can trip, is shown on a toy model.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
import pipeline
import workloads as wl


def corrupt_csv_value(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import belief_opacity as bo

    spec = wl.reference_model("selftest", wl.REF_PI0, 0.2)
    om = oracle.OracleModel(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.yaml"
        path.write_text(spec.document(), encoding="utf-8")
        m = pipeline.load(bo, path)
    syn = pipeline.synthesize(bo, m, spec.width, om.target)
    cells = syn.partition.cells
    ids = np.array([c.id for c in cells])
    lo = np.array([c.box.lo for c in cells])
    hi = np.array([c.box.hi for c in cells])
    status = [c.status for c in cells]
    raw, pruned = syn.raw, syn.pruned
    allowed = syn.restricted.allowed
    policy = syn.policy
    rng = np.random.default_rng(0)
    actions = [m.actions[i] for i in rng.integers(len(m.actions), size=200)]
    engine = bo.EditEngine(m, syn.partition, syn.edit, strategy="match-if-safe")
    outputs, beliefs = [], []
    for a in actions:
        outputs.append(engine.step(a))
        beliefs.append(np.array(engine.observer_belief))
    # No word of the reference model can leak (after one step the secret
    # mass is at most 0.65 < 0.8), so the opacity check is shown on a model
    # whose action a1 moves all mass into the secret state.
    lom = oracle.OracleModel(wl.ModelSpec(
        name="leaky", states=("s1", "s2", "s3"), actions=("a1", "a2"),
        pi0=np.array([0.2, 0.3, 0.5]),
        trans={"a1": np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
               "a2": np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])},
        secret=(0,), threshold=0.5, width=0.1))
    trace = bo.simulate_edited(m, syn.partition, syn.edit, bo.random_actions(m, seed=3), 100,
                               strategy="uniform-random", seed=3)
    trace_csv = bo.trace_to_csv(trace, m)
    edges = set(pruned.sorted_edges())
    q0 = syn.initial
    some_safe = next(q for q in sorted(s for s in raw.states if s != oracle.BAD))
    bad_cell = status.index("bad")
    bad_edge = dict(pruned.delta)
    bad_edge[(q0, m.actions[0])] = pruned.delta[(q0, m.actions[0])] | {oracle.BAD}
    disabled = {k: v for k, v in pruned.delta.items() if k != (q0, m.actions[0])}
    digests = {"edges.csv": "a" * 64, "pruned.dot": "b" * 64}

    # the fault model: the program's pruning keeps actions whose successors
    # it deleted; the weak form of the pruned-automaton check (used on fault
    # models only) accepts that, the sound form rejects it
    fspec = wl.random_model(*wl.RAND_FAULT)
    fom = oracle.OracleModel(fspec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.yaml"
        path.write_text(fspec.document(), encoding="utf-8")
        fm = pipeline.load(bo, path)
    fsyn = pipeline.synthesize(bo, fm, fspec.width, fom.target)
    sound = oracle.safety_fixpoint(fsyn.raw.states, fsyn.raw.alphabet, fsyn.raw.delta)
    over_pruned = {k: v for k, v in fsyn.pruned.delta.items() if k[0] != next(iter(sound))}

    cases = [
        ("model", lambda: oracle.check_model(om, m.states, m.pi0, m.trans,
                                             [m.states[i] for i in m.secret]),
         "a transition entry changed",
         lambda: oracle.check_model(om, m.states, m.pi0,
                                    {**m.trans, "a1": m.trans["a1"] + 1e-3},
                                    [m.states[i] for i in m.secret])),
        ("cells", lambda: oracle.check_cells(om, lo, hi, status),
         "a bad cell relabelled safe",
         lambda: oracle.check_cells(om, lo, hi, status[:bad_cell] + ["safe"] + status[bad_cell + 1:])),
        ("images", lambda: oracle.check_images(om, ids, lo, hi, status, raw.delta, rng),
         "the successors of one safe cell dropped",
         lambda: oracle.check_images(om, ids, lo, hi, status,
                                     {k: v for k, v in raw.delta.items() if k[0] != some_safe}, rng)),
        ("pruned", lambda: oracle.check_pruned(raw.states, raw.alphabet, raw.delta,
                                               pruned.states, pruned.delta, q0),
         "a surviving action given a bad edge",
         lambda: oracle.check_pruned(raw.states, raw.alphabet, raw.delta, pruned.states,
                                     bad_edge, q0)),
        ("pruned (fault model, weak form)",
         lambda: oracle.check_pruned(fsyn.raw.states, fsyn.raw.alphabet, fsyn.raw.delta,
                                     fsyn.pruned.states, fsyn.pruned.delta, fsyn.initial,
                                     sound=False),
         "every action of a sound-fixpoint state disabled",
         lambda: oracle.check_pruned(fsyn.raw.states, fsyn.raw.alphabet, fsyn.raw.delta,
                                     fsyn.pruned.states, over_pruned, fsyn.initial,
                                     sound=False)),
        ("pruned (fault model, sound form)",
         lambda: oracle.check_pruned(fsyn.raw.states, fsyn.raw.alphabet, fsyn.raw.delta,
                                     fsyn.pruned.states, fsyn.pruned.delta, fsyn.initial,
                                     sound=False),
         "the program's pruning of the fault model, which keeps actions with deleted successors",
         lambda: oracle.check_pruned(fsyn.raw.states, fsyn.raw.alphabet, fsyn.raw.delta,
                                     fsyn.pruned.states, fsyn.pruned.delta, fsyn.initial)),
        ("allowed", lambda: oracle.check_allowed(om, pruned.delta, q0, allowed),
         "an allowed action disabled at the initial cell",
         lambda: oracle.check_allowed(om, disabled, q0, allowed)),
        ("policy", lambda: oracle.check_policy(om, allowed, policy.choice, policy.value, [om.target]),
         "one value off by 0.01",
         lambda: oracle.check_policy(om, allowed, policy.choice,
                                     {s: v - 0.01 for s, v in policy.value.items()}, [om.target])),
        ("edit stream", lambda: oracle.check_edit_stream(om, outputs, beliefs=beliefs),
         "one engine belief perturbed",
         lambda: oracle.check_edit_stream(om, outputs, beliefs=beliefs[:50] + [beliefs[50] + 1e-6]
                                          + beliefs[51:])),
        ("edit stream (opacity)", lambda: oracle.check_edit_stream(lom, ["a2", "a2", "a2"]),
         "a reported word that moves the secret mass above the threshold",
         lambda: oracle.check_edit_stream(lom, ["a2", "a1", "a2"])),
        ("edit stream (language)", lambda: oracle.check_edit_stream(om, outputs),
         "an action outside the model reported",
         lambda: oracle.check_edit_stream(om, outputs[:10] + ["a9"] + outputs[11:])),
        ("edges.csv", lambda: oracle.check_edges_csv(bo.edges_to_csv(pruned), edges),
         "one edge line dropped",
         lambda: oracle.check_edges_csv(
             "\n".join(bo.edges_to_csv(pruned).splitlines()[:-1]) + "\n", edges)),
        ("allowed.csv", lambda: oracle.check_allowed_csv(bo.allowed_to_csv(syn.restricted), allowed),
         "one state's actions emptied",
         lambda: oracle.check_allowed_csv(
             corrupt_csv_value(bo.allowed_to_csv(syn.restricted), 1, 1, ""), allowed)),
        ("policy.csv", lambda: oracle.check_policy_csv(om, bo.policy_to_csv(policy), allowed,
                                                       [om.target]),
         "one value replaced by 0.5",
         lambda: oracle.check_policy_csv(om, corrupt_csv_value(bo.policy_to_csv(policy), 1, 2, "0.5"),
                                         allowed, [om.target])),
        ("trace.csv", lambda: oracle.check_trace_csv(om, trace_csv, 100),
         "one belief entry changed",
         lambda: oracle.check_trace_csv(om, corrupt_csv_value(trace_csv, 40, 3, "0.123"), 100)),
        ("identical artifacts", lambda: oracle.check_identical(digests, dict(digests)),
         "one file's bytes changed",
         lambda: oracle.check_identical(digests, {**digests, "pruned.dot": "c" * 64})),
    ]
    bad = 0
    for name, genuine, corruption, corrupted in cases:
        try:
            genuine()
        except oracle.CheckFailed as exc:
            print(f"FAIL {name}: rejects the genuine output: {exc}")
            bad += 1
            continue
        try:
            corrupted()
        except oracle.CheckFailed as exc:
            print(f"ok   {name}: accepts the genuine output, rejects {corruption} ({exc})")
        else:
            print(f"FAIL {name}: accepts {corruption}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
