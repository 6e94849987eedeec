"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria C1-C3 pin the three-state reference model's partition, pruned
abstraction, and safe action sets exactly; C4-C8 are numeric and
property-based checks at their stated tolerances; C9 is the CLI determinism
contract.
"""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

import belief_opacity as bo
from belief_opacity.cli import main
from conftest import (
    THREE_STATE_DOC,
    evaluate_policy_reachability,
    playable_action_sequences,
    random_mdp,
    ref_cells,
)


def check(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c1_partition_reproduction(mdp3, partition3):
    counts = partition3.counts()
    usable = counts["safe"] + counts["bad"]
    safe_ids = sorted(c.id for c in partition3.safe_cells())
    initial = bo.locate_cell(bo.reduce_belief(mdp3.pi0), partition3)
    ok = (
        counts["safe"] == 6
        and counts["bad"] == 9
        and usable == 15
        and safe_ids.index(initial) == 3
    )
    check(
        "C1 partition reproduction",
        ok,
        f"{counts['safe']} safe / {counts['bad']} bad / {usable} usable; "
        f"initial belief in safe cell #{safe_ids.index(initial)}",
    )


def test_c2_pruned_abstraction_reproduction(partition3, abstraction3):
    q = ref_cells(partition3)
    expected = {
        (q["q0"], "a1"): {q["q0"], q["q1"]},
        (q["q1"], "a1"): {q["q0"], q["q1"]},
        (q["q2"], "a1"): {q["q0"], q["q1"]},
        (q["q3"], "a1"): {q["q0"], q["q1"]},
        (q["q4"], "a1"): {q["q1"], q["q2"]},
        (q["q5"], "a1"): {q["q0"], q["q1"]},
        (q["q1"], "a2"): {q["q3"], q["q4"]},
        (q["q5"], "a2"): {q["q3"], q["q4"]},
    }
    pruned = abstraction3.pruned
    edges_ok = dict(pruned.delta) == expected
    no_deletions = pruned.states == set(q.values())
    disabled_ok = all(pruned.enabled(q[l]) == ("a1",) for l in ("q0", "q2", "q3", "q4"))
    both_ok = all(pruned.enabled(q[l]) == ("a1", "a2") for l in ("q1", "q5"))
    check(
        "C2 pruned abstraction reproduction",
        edges_ok and no_deletions and disabled_ok and both_ok,
        f"{len(pruned.states)} states, {pruned.transition_count()} edges",
    )


def test_c3_safe_action_sets(mdp3, abstraction3):
    restricted = bo.prune_blocking(bo.restrict_actions(mdp3, abstraction3.pruned))
    ok = restricted.allowed == {"s1": ("a1",), "s2": ("a1",), "s3": ("a1",)}
    check("C3 safe action sets", ok, "every state keeps exactly the first action")


def test_c4_reach_box_spot_values(mdp3):
    box = bo.IntervalBox(lo=np.array([0.0, 0.4]), hi=np.array([0.2, 0.6]))
    expected = {
        "a1": ([0.02, 0.16], [0.10, 0.38]),
        "a2": ([0.32, 0.04], [0.65, 0.16]),
    }
    ok = True
    for action, (lo, hi) in expected.items():
        d = bo.decomposition(mdp3, action)
        r = bo.reach_box(d, box)
        ok &= bool(np.all(np.abs(r.lo - lo) <= 1e-12) and np.all(np.abs(r.hi - hi) <= 1e-12))
        inner = bo.brute_reach_box(d, box, samples=10_000)
        ok &= bool(np.all(inner.lo >= r.lo - 1e-12) and np.all(inner.hi <= r.hi + 1e-12))
    check("C4 reach-box spot values", ok, "two-corner boxes at 1e-12, sampled image contained")


def test_c5_mixed_monotone_laws():
    rng = np.random.default_rng(505)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(3, 5))
        m = random_mdp(rng, n)
        action = m.actions[int(rng.integers(len(m.actions)))]
        d = bo.decomposition(m, action)
        h = m.trans[action]
        dim = n - 1

        def domain_point():
            return rng.dirichlet(np.ones(n))[:dim]

        u, w = domain_point(), domain_point()
        # the diagonal reproduces the exact reduced update
        exact = (h @ np.append(u, 1.0 - u.sum()))[:dim]
        if np.any(np.abs(bo.decomp_eval(d, u, u) - exact) > 1e-12):
            failures += 1
            continue
        # monotone in the first argument, antitone in the second
        v = domain_point()
        x1, x2 = np.minimum(u, v), np.maximum(u, v)
        if np.any(bo.decomp_eval(d, x1, w) > bo.decomp_eval(d, x2, w) + 1e-12):
            failures += 1
            continue
        if np.any(bo.decomp_eval(d, w, x2) > bo.decomp_eval(d, w, x1) + 1e-12):
            failures += 1
            continue
        # the two-corner bound contains the image of any point of the box
        while x2.sum() > 1.0:
            u2, v2 = domain_point(), domain_point()
            x1, x2 = np.minimum(u2, v2), np.maximum(u2, v2)
        box = bo.IntervalBox(lo=x1, hi=x2)
        r = bo.reach_box(d, box)
        x = x1 + rng.uniform(size=dim) * (x2 - x1)
        fx = bo.decomp_eval(d, x, x)
        if np.any(fx < r.lo - 1e-12) or np.any(fx > r.hi + 1e-12):
            failures += 1
    check("C5 mixed-monotone law suite", failures == 0,
          f"{failures} failures in 1000 random triples at 1e-12")


def test_c6_soundness_suite(mdp3, partition3):
    raw = bo.build_abstraction(mdp3, partition3, overlap_mode="closed")
    report = bo.soundness_check(mdp3, partition3, raw, depth=6, samples=64)
    violations = len(report.violations)
    models = 0

    rng = np.random.default_rng(606)
    seed = 0
    while models < 100 and seed < 1000:
        seed += 1
        m = random_mdp(rng, 3)
        mass0 = m.secret_mass(m.pi0)
        m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.05, 0.6))))
        p = bo.build_grid(0.2, m)
        x0 = bo.reduce_belief(m.pi0)
        try:
            if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                p = bo.refine_initial(p, x0, m)
            raw = bo.build_abstraction(m, p, overlap_mode="closed")
        except (bo.BadInitialCellError, bo.RefinementFailedError):
            continue
        models += 1
        violations += len(bo.soundness_check(m, p, raw, depth=6, samples=64).violations)

    check("C6 soundness suite", models == 100 and violations == 0,
          f"{models} random models plus the reference model, {violations} violations")


def test_c7_opacity_enforcement_end_to_end(mdp3, partition3, abstraction3):
    # direct route: every playable action sequence keeps the true secret
    # mass under the threshold at every step
    restricted = bo.prune_blocking(bo.restrict_actions(mdp3, abstraction3.pruned))
    direct_violations = 0
    n_sequences = 0
    for seq in playable_action_sequences(restricted, 6):
        n_sequences += 1
        belief = mdp3.pi0.copy()
        for a in seq:
            belief = bo.belief_update(belief, a, mdp3)
            if mdp3.secret_mass(belief) > 0.8:
                direct_violations += 1
                break
    check("C7a direct enforcement", direct_violations == 0,
          f"{n_sequences} playable sequences to depth 6, {direct_violations} violations")

    # edit route: seeded random real-action streams through the engine keep
    # the observer mass bounded and the output words inside the support
    # language
    ea = bo.build_edit_automaton(abstraction3.pruned)
    support = bo.mdp_to_nfa(mdp3)
    rng = np.random.default_rng(707)
    edit_violations = 0
    streams, length = 10_000, 100
    for i in range(streams):
        strategy = bo.STRATEGIES[i % len(bo.STRATEGIES)]
        engine = bo.EditEngine(mdp3, partition3, ea, strategy=strategy, seed=(13, i))
        reals = rng.integers(len(mdp3.actions), size=length)
        current = set(support.initial)
        if mdp3.secret_mass(engine.observer_belief) > 0.8:
            edit_violations += 1
            continue
        for r_ in reals:
            out = engine.step(mdp3.actions[r_])
            current = set().union(*(support.successors(s2, out) for s2 in current))
            if not current or mdp3.secret_mass(engine.observer_belief) > 0.8:
                edit_violations += 1
                break
    check("C7b edit enforcement", edit_violations == 0,
          f"{streams} streams of {length} steps, {edit_violations} violations")


def test_c8_policy_value_preservation():
    rng = np.random.default_rng(808)
    preserved = 0
    models = 0
    while models < 50:
        n = int(rng.integers(3, 5))
        m = random_mdp(rng, n)
        mass0 = m.secret_mass(m.pi0)
        m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.1, 0.6))))
        size = int(rng.integers(1, n + 1))
        target = {m.states[i] for i in rng.choice(n, size=size, replace=False)}
        try:
            p = bo.build_grid(0.25, m)
            x0 = bo.reduce_belief(m.pi0)
            if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                p = bo.refine_initial(p, x0, m)
            res = bo.abstract(m, p)
            restricted = bo.prune_blocking(bo.restrict_actions(m, res.pruned))
        except (bo.BadInitialCellError, bo.RefinementFailedError,
                bo.InitialCellPrunedError, bo.InitialStatePrunedError):
            restricted = bo.RestrictedMdp(
                base=m, allowed={s: m.actions for s in m.states}, vacuous=frozenset()
            )
        models += 1
        policy = bo.synthesize_reach_policy(restricted, target, eps=1e-12)
        oracle = evaluate_policy_reachability(m, policy.choice, target)
        if all(abs(policy.value[s] - oracle[s]) <= 1e-9 for s in policy.value):
            preserved += 1
    check("C8 policy value preservation", preserved == 50,
          f"{preserved}/50 models agree with the exact evaluation within 1e-9")


def test_c9_cli_determinism(tmp_path, capsys):
    model = tmp_path / "model.yaml"
    model.write_text(THREE_STATE_DOC)
    commands = {
        "validate": ["validate", "--model", str(model)],
        "abstract": ["abstract", "--model", str(model), "--widths", "0.2"],
        "synthesize-direct": ["synthesize", "--model", str(model), "--widths", "0.2",
                              "--mode", "direct", "--target", "s3"],
        "synthesize-edit": ["synthesize", "--model", str(model), "--widths", "0.2",
                            "--mode", "edit"],
        "simulate": ["simulate", "--model", str(model), "--steps", "50",
                     "--actions", "random", "--seed", "0"],
        "simulate-edited": ["simulate", "--model", str(model), "--steps", "50",
                            "--actions", "random", "--edited", "--widths", "0.2",
                            "--strategy", "uniform-random", "--seed", "0"],
    }
    ok = True
    detail = []
    for name, argv in commands.items():
        outputs = []
        stdouts = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}-{run}"
            code = main(argv + ["--out", str(out)] if name != "validate" else argv)
            stdouts.append(capsys.readouterr().out)
            assert code == 0, (name, code)
            outputs.append(out)
        if name == "validate":
            same = stdouts[0] == stdouts[1]
        else:
            files = sorted(p.name for p in outputs[0].iterdir())
            match, mismatch, errors = filecmp.cmpfiles(
                outputs[0], outputs[1], files, shallow=False
            )
            same = sorted(match) == files and not mismatch and not errors and files
        ok &= bool(same)
        if not same:
            detail.append(name)
    check("C9 CLI determinism", ok,
          "byte-identical artifacts for every command" if ok else f"differs: {detail}")
