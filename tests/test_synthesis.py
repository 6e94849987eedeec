import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belief_opacity as bo
from conftest import (
    BLOCKED_INITIAL_DOC,
    evaluate_policy_reachability,
    playable_action_sequences,
    random_mdp,
    ref_cells,
    scan_locate,
)


@pytest.fixture(scope="module")
def restricted3(mdp3, abstraction3):
    return bo.prune_blocking(bo.restrict_actions(mdp3, abstraction3.pruned))


class TestProduct:
    def test_universal_single_state_is_identity(self, abstraction3):
        # the product keeps only pairs reachable from the initial ones, so
        # pairing with a universal automaton mirrors the reachable part
        t = abstraction3.pruned
        universal = bo.Nfa(
            states=frozenset({"u"}),
            alphabet=t.alphabet,
            delta={("u", a): {"u"} for a in t.alphabet},
            initial=frozenset({"u"}),
        )
        prod = bo.product(t, universal)
        reachable = t.reachable()
        mapped = {((q, "u"), a): {(t2, "u") for t2 in ts}
                  for (q, a), ts in t.delta.items() if q in reachable}
        assert dict(prod.delta) == mapped
        assert prod.states == {(q, "u") for q in reachable}

    def test_initial_states_pair_up(self, mdp3, abstraction3):
        prod = bo.product(bo.mdp_to_nfa(mdp3), abstraction3.pruned)
        assert prod.initial == {(s, abstraction3.initial_cell) for s in mdp3.states}

    def test_disjoint_enabled_actions_block_immediately(self):
        t1 = bo.Nfa(states=frozenset({"x"}), alphabet=("a", "b"),
                    delta={("x", "a"): {"x"}}, initial=frozenset({"x"}))
        t2 = bo.Nfa(states=frozenset({"y"}), alphabet=("a", "b"),
                    delta={("y", "b"): {"y"}}, initial=frozenset({"y"}))
        prod = bo.product(t1, t2)
        assert prod.states == {("x", "y")}
        assert not prod.delta

    def test_alphabet_mismatch(self):
        t1 = bo.Nfa(states=frozenset({"x"}), alphabet=("a",), delta={}, initial=frozenset({"x"}))
        t2 = bo.Nfa(states=frozenset({"y"}), alphabet=("b",), delta={}, initial=frozenset({"y"}))
        with pytest.raises(ValueError, match="alphabet"):
            bo.product(t1, t2)


class TestRestrictActions:
    def test_reference_model_keeps_only_the_first_action(self, mdp3, abstraction3):
        r = bo.restrict_actions(mdp3, abstraction3.pruned)
        assert r.allowed == {"s1": ("a1",), "s2": ("a1",), "s3": ("a1",)}
        assert not r.vacuous

    def test_all_pairs_reading_agrees_here(self, mdp3, abstraction3):
        # the literal intersection over every (s, q) pair, reachable or not
        t_m, t = bo.mdp_to_nfa(mdp3), abstraction3.pruned
        allowed = {
            s: tuple(a for a in mdp3.actions
                     if all(t_m.successors(s, a) and t.successors(q, a) for q in t.states))
            for s in mdp3.states
        }
        assert allowed == {"s1": ("a1",), "s2": ("a1",), "s3": ("a1",)}
        assert bo.restrict_actions(mdp3, abstraction3.pruned).allowed == allowed

    def test_permissive_abstraction_keeps_everything(self, mdp3, partition3):
        cells = [c.id for c in partition3.safe_cells()]
        full = bo.Nfa(
            states=frozenset(cells),
            alphabet=mdp3.actions,
            delta={(q, a): set(cells) for q in cells for a in mdp3.actions},
            initial=frozenset({cells[0]}),
        )
        r = bo.restrict_actions(mdp3, full)
        assert all(r.allowed[s] == mdp3.actions for s in mdp3.states)

    def test_intersection_is_an_upper_bound(self, mdp3, partition3):
        cells = [c.id for c in partition3.safe_cells()]
        only_first = bo.Nfa(
            states=frozenset(cells),
            alphabet=mdp3.actions,
            delta={(q, "a1"): set(cells) for q in cells},
            initial=frozenset({cells[0]}),
        )
        r = bo.restrict_actions(mdp3, only_first)
        assert all(set(r.allowed[s]) <= {"a1"} for s in mdp3.states)

    def test_unreached_states_are_vacuous(self):
        m = bo.Mdp(states=("sA", "sB"), pi0=np.array([1.0, 0.0]), actions=("a",),
                   trans={"a": np.eye(2)}, secret=frozenset({0}), threshold=1.0)
        t = bo.Nfa(states=frozenset({0}), alphabet=("a",),
                   delta={(0, "a"): {0}}, initial=frozenset({0}))
        r = bo.restrict_actions(m, t)
        assert r.vacuous == {"sB"}
        assert r.allowed["sB"] == ("a",)

    def test_removing_abstraction_edges_never_enlarges_allowed(self, mdp3, abstraction3):
        base = bo.restrict_actions(mdp3, abstraction3.pruned)
        pruned = abstraction3.pruned
        for (q, a), targets in sorted(pruned.delta.items()):
            for t in sorted(targets):
                delta = {k: set(v) for k, v in pruned.delta.items()}
                delta[(q, a)].discard(t)
                smaller = bo.Nfa(states=pruned.states, alphabet=pruned.alphabet,
                                 delta=delta, initial=pruned.initial)
                r = bo.restrict_actions(mdp3, smaller)
                for s in mdp3.states:
                    assert set(r.allowed[s]) <= set(base.allowed[s])


def product_restriction(m, t):
    """Reference for restrict_actions: the intersection of the enabled
    actions over every state of the explicit product."""
    prod = bo.product(bo.mdp_to_nfa(m), t)
    allowed, vacuous = {}, set()
    for s in m.states:
        sets = [set(prod.enabled(pair)) for pair in prod.states if pair[0] == s]
        if not sets:
            allowed[s] = m.actions
            vacuous.add(s)
        else:
            inter = set.intersection(*sets)
            allowed[s] = tuple(a for a in m.actions if a in inter)
    return allowed, vacuous


def loop_prune_blocking(r):
    """Reference for prune_blocking: whole rounds, every support tested
    against every state removed so far."""
    m = r.base
    allowed = {s: set(acts) for s, acts in r.allowed.items()}
    removed = set()
    while True:
        blocking = [s for s in m.states if s in allowed and not allowed[s]]
        if not blocking:
            break
        for s in blocking:
            del allowed[s]
            removed.add(s)
            if m.pi0[m.states.index(s)] > 0.0:
                return s
        for s in m.states:
            if s in allowed:
                j = m.states.index(s)
                for a in list(allowed[s]):
                    if {m.states[i] for i in np.nonzero(m.trans[a][:, j] > 0.0)[0]} & removed:
                        allowed[s].discard(a)
    return {s: tuple(a for a in m.actions if a in allowed[s]) for s in m.states if s in allowed}


def loop_reach_policy(r, target, eps=1e-9):
    """Reference for synthesize_reach_policy: one state at a time, the
    first strictly better allowed action wins."""
    m = r.base
    live = [s for s in m.states if s in r.allowed]
    idx = {s: m.states.index(s) for s in live}
    fixed = [idx[s] for s in live if s in target]
    v = np.zeros(m.n)
    v[fixed] = 1.0
    while True:
        q = {a: m.trans[a].T @ v for a in m.actions}
        new_v = np.zeros(m.n)
        for s in live:
            new_v[idx[s]] = max(q[a][idx[s]] for a in r.allowed[s])
        new_v[fixed] = 1.0
        done = np.max(np.abs(new_v - v)) < eps
        v = new_v
        if done:
            break
    q = {a: m.trans[a].T @ v for a in m.actions}
    choice = {}
    for s in live:
        best_a, best_q = None, -1.0
        for a in r.allowed[s]:
            if q[a][idx[s]] > best_q:
                best_a, best_q = a, q[a][idx[s]]
        choice[s] = best_a
    return choice, {s: float(v[idx[s]]) for s in live}


@st.composite
def restriction_cases(draw):
    """A 2-5-state model with sparse (possibly empty) column supports and a
    pi0 with zeros, where the last state may be entered by no transition
    and carry no initial mass, so that it is never reached; and a random
    automaton over the same actions with 1-3 initial states, unreachable
    states and disabled actions."""
    n = draw(st.integers(2, 5))
    actions = tuple(f"a{k + 1}" for k in range(draw(st.integers(1, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unreached = draw(st.booleans())

    def sparse(keep):
        # random weights on a drawn support, summing to one unless empty
        v = np.array([rng.uniform(0.1, 1.0) if draw(st.booleans()) else 0.0 for _ in range(n)])
        if unreached:
            v[-1] = 0.0
        if not v.any() and keep:
            v[int(rng.integers(n - 1 if unreached else n))] = 1.0
        return v / v.sum() if v.any() else v

    trans = {a: np.column_stack([sparse(draw(st.integers(0, 4)) > 0) for _ in range(n)])
             for a in actions}
    m = bo.Mdp(states=tuple(f"s{i + 1}" for i in range(n)), pi0=sparse(True),
               actions=actions, trans=trans, secret=frozenset({0}), threshold=1.0)
    nq = draw(st.integers(1, 6))
    qs = st.integers(0, nq - 1)
    delta = {(q, a): draw(st.sets(qs, max_size=3)) for q in range(nq) for a in actions}
    t = bo.Nfa(states=frozenset(range(nq)), alphabet=actions, delta=delta,
               initial=frozenset(draw(st.sets(qs, min_size=1, max_size=3))))
    return m, t


class TestRestrictMatchesProduct:
    @settings(max_examples=150, deadline=None)
    @given(restriction_cases())
    def test_same_as_the_explicit_product(self, case):
        m, t = case
        r = bo.restrict_actions(m, t)
        assert (r.allowed, set(r.vacuous)) == product_restriction(m, t)

    @settings(max_examples=100, deadline=None)
    @given(restriction_cases(), st.data())
    def test_blocking_and_policy_match_the_loops(self, case, data):
        m, t = case
        r = bo.restrict_actions(m, t)
        expected = loop_prune_blocking(r)
        if isinstance(expected, str):
            with pytest.raises(bo.InitialStatePrunedError, match=f"initial state {expected} "):
                bo.prune_blocking(r)
            return
        r = bo.prune_blocking(r)
        assert r.allowed == expected
        target = set(data.draw(st.sets(st.sampled_from(m.states))))
        policy = bo.synthesize_reach_policy(r, target)
        assert (policy.choice, policy.value) == loop_reach_policy(r, target)

    def test_alphabet_mismatch(self, mdp3):
        t = bo.Nfa(states=frozenset({0}), alphabet=("a1",), delta={}, initial=frozenset({0}))
        with pytest.raises(ValueError, match="alphabet"):
            bo.restrict_actions(mdp3, t)


class TestDirectRouteReplay:
    def test_observer_cell_stays_in_the_pruned_automaton(self):
        # the first 40 models of random_mdp(default_rng(77), 3), with
        # thresholds just above the initial secret mass, at width 0.1; ten
        # 100-step runs of the real chain per model that synthesizes
        rng = np.random.default_rng(77)
        chain = np.random.default_rng(0)
        models = narrowed = 0
        for _ in range(40):
            m = random_mdp(rng, 3)
            m = replace(m, threshold=min(1.0, m.secret_mass(m.pi0) + float(rng.uniform(0.05, 0.4))))
            p = bo.build_grid(0.1, m)
            x0 = bo.reduce_belief(m.pi0)
            try:
                if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                    p = bo.refine_initial(p, x0, m)
                res = bo.abstract(m, p)
                r = bo.prune_blocking(bo.restrict_actions(m, res.pruned))
            except (bo.InitialCellPrunedError, bo.RefinementFailedError,
                    bo.InitialStatePrunedError):
                continue
            models += 1
            narrowed += any(len(acts) < len(m.actions) for acts in r.allowed.values())
            for _ in range(10):
                state = int(chain.choice(m.n, p=m.pi0))
                belief = m.pi0.copy()
                for step in range(100):
                    acts = r.allowed[m.states[state]]
                    a = acts[int(chain.integers(len(acts)))]
                    state = int(chain.choice(m.n, p=m.trans[a][:, state]))
                    belief = bo.belief_update(belief, a, m)
                    cell = bo.locate_cell(bo.reduce_belief(belief), p)
                    assert cell in res.pruned.states, (models, step, a, cell)
        assert (models, narrowed) == (22, 9)

    def test_edit_engine_never_sticks_or_leaks(self):
        # the same models and thresholds; on each that synthesizes, 500
        # seeded real actions under every strategy
        rng = np.random.default_rng(77)
        real = np.random.default_rng(0)
        models = steps = rewrites = 0
        for _ in range(40):
            m = random_mdp(rng, 3)
            m = replace(m, threshold=min(1.0, m.secret_mass(m.pi0) + float(rng.uniform(0.05, 0.4))))
            p = bo.build_grid(0.1, m)
            x0 = bo.reduce_belief(m.pi0)
            try:
                if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                    p = bo.refine_initial(p, x0, m)
                ea = bo.build_edit_automaton(bo.abstract(m, p).pruned)
            except (bo.InitialCellPrunedError, bo.RefinementFailedError):
                continue
            models += 1
            for seed, strategy in enumerate(bo.STRATEGIES):
                engine = bo.EditEngine(m, p, ea, strategy=strategy, seed=seed)
                for k in real.integers(len(m.actions), size=500).tolist():
                    out = engine.step(m.actions[k])  # raises if the engine is stuck
                    assert m.secret_mass(engine.observer_belief) <= m.threshold
                    steps += 1
                    rewrites += out != m.actions[k]
        assert (models, steps, rewrites) == (22, 33000, 12616)


class TestPruneBlocking:
    def test_reference_model_unchanged(self, mdp3, restricted3):
        assert restricted3.allowed == {"s1": ("a1",), "s2": ("a1",), "s3": ("a1",)}

    def test_cascade(self):
        m = bo.Mdp(
            states=("sA", "sB", "sC"),
            pi0=np.array([1.0, 0.0, 0.0]),
            actions=("a", "b"),
            trans={
                # under a: sA -> sA, sB -> sC, sC -> sC; under b: everyone -> sA
                "a": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                "b": np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            },
            secret=frozenset({1}),
            threshold=1.0,
        )
        r = bo.RestrictedMdp(base=m, allowed={"sA": ("a",), "sB": ("a",), "sC": ()},
                             vacuous=frozenset())
        out = bo.prune_blocking(r)
        # sC goes first; sB's only action reached it, so sB follows
        assert out.allowed == {"sA": ("a",)}

    def test_initial_state_removal_raises(self):
        m = bo.parse_model(BLOCKED_INITIAL_DOC)
        m, _ = bo.canonical_reorder(m)
        p = bo.build_grid(0.2, m)
        res = bo.abstract(m, p)
        r = bo.restrict_actions(m, res.pruned)
        with pytest.raises(bo.InitialStatePrunedError):
            bo.prune_blocking(r)


class TestReachPolicy:
    def test_target_everything_gives_value_one(self, restricted3):
        policy = bo.synthesize_reach_policy(restricted3, set(restricted3.base.states))
        assert all(v == 1.0 for v in policy.value.values())
        assert all(policy.choice[s] in restricted3.allowed[s] for s in policy.choice)

    def test_empty_target_gives_value_zero(self, restricted3):
        policy = bo.synthesize_reach_policy(restricted3, set())
        assert all(v == 0.0 for v in policy.value.values())

    def test_reference_model_reaches_s3_almost_surely(self, restricted3):
        policy = bo.synthesize_reach_policy(restricted3, {"s3"}, eps=1e-12)
        for s in ("s1", "s2", "s3"):
            assert policy.value[s] >= 1.0 - 1e-9
            assert policy.choice[s] == "a1"

    def test_ties_break_to_the_first_action(self):
        m = bo.Mdp(
            states=("sA", "sB"),
            pi0=np.array([1.0, 0.0]),
            actions=("a1", "a2"),
            trans={"a1": np.array([[0.0, 0.0], [1.0, 1.0]]),
                   "a2": np.array([[0.0, 0.0], [1.0, 1.0]])},
            secret=frozenset({0}),
            threshold=1.0,
        )
        r = bo.RestrictedMdp(base=m, allowed={s: m.actions for s in m.states},
                             vacuous=frozenset())
        policy = bo.synthesize_reach_policy(r, {"sB"})
        assert policy.choice == {"sA": "a1", "sB": "a1"}

    def test_unknown_target_rejected(self, restricted3):
        with pytest.raises(ValueError, match="unknown target"):
            bo.synthesize_reach_policy(restricted3, {"zz"})

    def test_unpruned_empty_action_sets_rejected(self, mdp3):
        r = bo.RestrictedMdp(base=mdp3, allowed={"s1": (), "s2": ("a1",), "s3": ("a1",)},
                             vacuous=frozenset())
        with pytest.raises(ValueError, match="prune_blocking"):
            bo.synthesize_reach_policy(r, {"s3"})

    def test_value_matches_independent_evaluation(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = random_mdp(rng, int(rng.integers(2, 5)))
            r = bo.RestrictedMdp(base=m, allowed={s: m.actions for s in m.states},
                                 vacuous=frozenset())
            size = int(rng.integers(1, m.n + 1))
            target = {m.states[i] for i in rng.choice(m.n, size=size, replace=False)}
            policy = bo.synthesize_reach_policy(r, target, eps=1e-12)
            oracle = evaluate_policy_reachability(m, policy.choice, target)
            for s in policy.value:
                assert abs(policy.value[s] - oracle[s]) < 1e-9


@st.composite
def pruned_automata(draw):
    """Automata of 1-6 states (ints, sometimes one name) over 1-3 actions;
    empty target sets leave an action disabled, so some states have none."""
    n = draw(st.integers(1, 6))
    states = list(range(n - 1)) + [draw(st.sampled_from([n - 1, "x"]))]
    actions = tuple(f"a{k + 1}" for k in range(draw(st.integers(1, 3))))
    targets = st.sets(st.sampled_from(states), max_size=3)
    delta = {(q, a): draw(targets) for q in states for a in actions}
    initial = draw(st.sets(st.sampled_from(states), min_size=1, max_size=3))
    return bo.Nfa(states=frozenset(states), alphabet=actions, delta=delta,
                  initial=frozenset(initial))


def reference_edit_edges(t: bo.Nfa) -> set:
    """One (q, actual, output, q') rewrite per pruned edge and real action."""
    return {(q, actual, o, q2) for q in t.states for o in t.enabled(q)
            for q2 in t.successors(q, o) for actual in t.alphabet}


def reference_edit_dot(edges, t: bo.Nfa, initial) -> str:
    """The rendering of a stored rewrite table, sorted by (q, actual,
    output, q')."""
    key = bo.model._state_key
    order = {a: i for i, a in enumerate(t.alphabet)}
    lines = ["digraph Tf {", "  rankdir=LR;", "  node [shape=circle];"]
    lines += [f'  "{q}" [shape=circle];' for q in sorted(t.states, key=key)]
    lines += ["  __init [shape=point];", f'  __init -> "{initial}";']
    for q, actual, output, q2 in sorted(
        edges, key=lambda e: (key(e[0]), order[e[1]], order[e[2]], key(e[3]))
    ):
        style = ("solid", "dashed", "dotted", "bold")[order[output] % 4]
        lines.append(f'  "{q}" -> "{q2}" [label="{actual}/{output}", style={style}];')
    return "\n".join(lines + ["}"]) + "\n"


class TestEditAutomaton:
    @settings(max_examples=150, deadline=None)
    @given(pruned_automata())
    def test_view_matches_the_stored_rewrite_table(self, t):
        edges = reference_edit_edges(t)
        table: dict = {}
        for q, actual, output, _ in edges:
            table.setdefault((q, actual), set()).add(output)
        ea = bo.build_edit_automaton(t)
        assert ea.pruned is t
        assert ea.initial == min(t.initial, key=bo.model._state_key)
        assert (ea.states, ea.alphabet) == (t.states, t.alphabet)
        for q in [*t.states, -1, "y"]:
            for actual in (*t.alphabet, "zz"):
                expected = tuple(a for a in t.alphabet if a in table.get((q, actual), ()))
                assert ea.outputs(q, actual) == expected
        assert ea.edges == edges
        assert bo.edit_to_dot(ea) == reference_edit_dot(edges, t, ea.initial)

    def test_empty_automaton_rejected(self):
        t = bo.Nfa(states=frozenset(), alphabet=("a",), delta={}, initial=frozenset())
        with pytest.raises(ValueError, match="empty"):
            bo.build_edit_automaton(t)

    def test_pruned_cell_forces_the_surviving_output(self, partition3, abstraction3):
        q = ref_cells(partition3)
        ea = bo.build_edit_automaton(abstraction3.pruned)
        assert ea.outputs(q["q0"], "a1") == ("a1",)
        assert ea.outputs(q["q0"], "a2") == ("a1",)

    def test_unpruned_cell_offers_both_outputs(self, partition3, abstraction3):
        q = ref_cells(partition3)
        ea = bo.build_edit_automaton(abstraction3.pruned)
        assert ea.outputs(q["q1"], "a1") == ("a1", "a2")
        assert ea.outputs(q["q1"], "a2") == ("a1", "a2")

    def test_edges_follow_the_abstraction(self, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        for (q, actual, output, q2) in ea.edges:
            assert q2 in abstraction3.pruned.successors(q, output)
        per_output = {(q, o) for (q, _, o, _) in ea.edges}
        enabled = {(q, a) for q in abstraction3.pruned.states
                   for a in abstraction3.pruned.enabled(q)}
        assert per_output == enabled

    def test_single_action_alphabet_is_identity_relabeling(self):
        t = bo.Nfa(states=frozenset({0, 1}), alphabet=("a",),
                   delta={(0, "a"): {1}, (1, "a"): {0}}, initial=frozenset({0}))
        ea = bo.build_edit_automaton(t)
        assert ea.edges == {(0, "a", "a", 1), (1, "a", "a", 0)}


class TestEditEngine:
    def test_disabled_action_is_rewritten(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        engine = bo.EditEngine(mdp3, partition3, ea)
        assert engine.current_cell == abstraction3.initial_cell
        assert engine.step("a2") == "a1"

    def test_belief_follows_the_output_action(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        engine = bo.EditEngine(mdp3, partition3, ea)
        out = engine.step("a1")
        assert out == "a1"
        np.testing.assert_allclose(engine.observer_belief, [0.12, 0.27, 0.61], atol=1e-12)
        assert engine.current_cell == bo.locate_cell(
            bo.reduce_belief(engine.observer_belief), partition3
        )
        with pytest.raises(AttributeError):  # derived from the engine's row index
            engine.current_cell = abstraction3.initial_cell

    def test_move_outside_the_output_transition_raises(self, mdp3, partition3, abstraction3):
        # from the initial cell, a1 moves the belief into the first successor
        # cell; without that edge the engine must stop there, although the
        # cell is still a state of the automaton
        t = abstraction3.pruned
        q0 = abstraction3.initial_cell
        engine = bo.EditEngine(mdp3, partition3, bo.build_edit_automaton(t))
        assert engine.step("a1") == "a1"
        moved = engine.current_cell
        delta = dict(t.delta)
        delta[(q0, "a1")] = t.successors(q0, "a1") - {moved}
        assert delta[(q0, "a1")] and moved in t.states
        broken = bo.build_edit_automaton(
            bo.Nfa(states=t.states, alphabet=t.alphabet, delta=delta, initial=t.initial))
        engine = bo.EditEngine(mdp3, partition3, broken)
        with pytest.raises(bo.EditUndefinedError, match=f"cell {moved}, .*does not cover"):
            engine.step("a1")
        assert engine.current_cell == q0

    def test_move_to_a_cell_outside_the_automaton_raises(self, mdp3, partition3, abstraction3):
        # the same first move, with its target cell not a state at all
        t = abstraction3.pruned
        q0 = abstraction3.initial_cell
        engine = bo.EditEngine(mdp3, partition3, bo.build_edit_automaton(t))
        engine.step("a1")
        moved = engine.current_cell
        states = t.states - {moved}
        delta = {key: targets - {moved} for key, targets in t.delta.items() if key[0] != moved}
        broken = bo.build_edit_automaton(
            bo.Nfa(states=states, alphabet=t.alphabet, delta=delta, initial=t.initial))
        engine = bo.EditEngine(mdp3, partition3, broken)
        with pytest.raises(bo.EditUndefinedError, match=f"cell {moved}, .*does not cover"):
            engine.step("a1")
        assert engine.current_cell == q0

    def test_single_action_model_echoes_it(self):
        m = bo.Mdp(states=("x", "y"), pi0=np.array([0.5, 0.5]), actions=("a",),
                   trans={"a": np.array([[0.5, 0.5], [0.5, 0.5]])},
                   secret=frozenset({0}), threshold=1.0)
        p = bo.build_grid(1.0, m)
        res = bo.abstract(m, p)
        engine = bo.EditEngine(m, p, bo.build_edit_automaton(res.pruned))
        assert [engine.step("a") for _ in range(5)] == ["a"] * 5

    def test_match_if_safe_prefers_the_real_action(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        engine = bo.EditEngine(mdp3, partition3, ea, strategy="match-if-safe")
        first = engine.step("a1")  # moves into a cell where both are enabled
        assert first == "a1"
        assert engine.step("a2") == "a2"

    def test_uniform_random_is_seed_deterministic(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        rng = np.random.default_rng(5)
        reals = [mdp3.actions[i] for i in rng.integers(2, size=40)]
        runs = []
        for _ in range(2):
            engine = bo.EditEngine(mdp3, partition3, ea, strategy="uniform-random", seed=12)
            runs.append([engine.step(a) for a in reals])
        assert runs[0] == runs[1]

    def test_only_uniform_random_creates_a_generator(self, mdp3, partition3, abstraction3,
                                                     monkeypatch):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        seeds = []
        make = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        for strategy in ("lex-first", "match-if-safe"):
            engine = bo.EditEngine(mdp3, partition3, ea, strategy=strategy, seed=4)
            for a in ("a1", "a2", "a2", "a1"):
                engine.step(a)
        assert seeds == []
        bo.EditEngine(mdp3, partition3, ea, strategy="uniform-random", seed=4)
        assert seeds == [4]

    def test_unknown_strategy_rejected(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        with pytest.raises(ValueError, match="strategy"):
            bo.EditEngine(mdp3, partition3, ea, strategy="whatever")

    def test_output_words_stay_in_the_abstraction_language(
        self, mdp3, partition3, abstraction3
    ):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        rng = np.random.default_rng(8)
        for strategy in bo.STRATEGIES:
            for trial in range(10):
                engine = bo.EditEngine(mdp3, partition3, ea, strategy=strategy, seed=trial)
                for i in rng.integers(2, size=25):
                    before = engine.current_cell
                    out = engine.step(mdp3.actions[i])
                    assert engine.current_cell in abstraction3.pruned.successors(before, out)


def replay_engine(m, p, ea, strategy, seed, reals):
    """The engine's run rebuilt from public pieces: outputs by the strategy's
    rule over ``ea.outputs``, beliefs by :func:`belief_update` and cells by
    the scan; yields (output, cell, belief) per step."""
    rng = np.random.default_rng(seed)
    b = np.array(m.pi0, dtype=float)
    q = scan_locate(b[:-1], p)
    for actual in reals:
        outputs = ea.outputs(q, actual)
        if strategy == "lex-first":
            out = outputs[0]
        elif strategy == "match-if-safe":
            out = actual if actual in outputs else outputs[0]
        else:
            out = outputs[int(rng.integers(len(outputs)))]
        b = bo.belief_update(b, out, m)
        cell = scan_locate(b[:-1], p)
        assert cell in ea.pruned.successors(q, out)
        q = cell
        yield out, q, b


class TestEngineReplay:
    @pytest.mark.parametrize("case", ["refined reference", "random"])
    def test_engine_equals_the_replay(self, mdp3, case):
        # both initial cells are bad, so both partitions are refined
        if case == "random":
            m, width = random_mdp(np.random.default_rng(100), 4), 0.1
        else:
            m, width = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21])), 0.02
        p = bo.refine_initial(bo.build_grid(width, m), bo.reduce_belief(m.pi0), m)
        assert p.splits
        ea = bo.build_edit_automaton(bo.abstract(m, p).pruned)
        rng = np.random.default_rng(6)
        for seed, strategy in enumerate(bo.STRATEGIES):
            reals = [m.actions[k] for k in rng.integers(len(m.actions), size=300).tolist()]
            engine = bo.EditEngine(m, p, ea, strategy=strategy, seed=seed)
            assert engine.current_cell == scan_locate(bo.reduce_belief(m.pi0), p)
            for actual, (out, cell, b) in zip(reals, replay_engine(m, p, ea, strategy, seed, reals)):
                assert engine.step(actual) == out
                assert engine.current_cell == cell
                assert engine.observer_belief.tobytes() == b.tobytes()

    def test_engine_leaves_the_delta_view_unbuilt(self, mdp3, partition3):
        pruned = bo.abstract(mdp3, partition3).pruned
        ea = bo.build_edit_automaton(pruned)
        for strategy in bo.STRATEGIES:
            engine = bo.EditEngine(mdp3, partition3, ea, strategy=strategy)
            for actual in ("a1", "a2") * 20:
                engine.step(actual)
        bo.simulate_edited(mdp3, partition3, ea, ["a2"] * 10, 10)
        assert bo.verify_edit_requirements(ea, mdp3, partition3, depth=3).ok
        assert "delta" not in pruned.__dict__


class NaiveEngine:
    """The edit step from public pieces: the output by the strategy's rule
    over ``ea.outputs`` (uniform-random draws as the engine does, from the
    same seed), the belief by ``H @ b``, its cell by :func:`locate_cell`, and
    the move checked against ``pruned.successors``.  Failures raise the
    engine's messages; a move the automaton does not cover still advances
    the belief, as the engine's does."""

    def __init__(self, m, p, ea, strategy, seed):
        self.m, self.p, self.ea, self.strategy = m, p, ea, strategy
        self.rng = np.random.default_rng(seed)
        self.belief = np.array(m.pi0, dtype=float)
        self.cell = bo.locate_cell(bo.reduce_belief(self.belief), p)

    def step(self, actual):
        q = self.cell
        outputs = self.ea.outputs(q, actual)
        if not outputs:
            raise bo.EditUndefinedError(f"no output defined at cell {q} for action {actual!r}")
        if self.strategy == "lex-first":
            out = outputs[0]
        elif self.strategy == "match-if-safe":
            out = actual if actual in outputs else outputs[0]
        else:
            out = outputs[int(self.rng.integers(len(outputs)))]
        self.belief = self.m.trans[out] @ self.belief
        cell = bo.locate_cell(self.belief[:-1], self.p)
        if cell not in self.ea.pruned.successors(q, out):
            raise bo.EditUndefinedError(
                f"observer belief moved to cell {cell}, which the edit automaton does not "
                f"cover from cell {q} on {out!r}")
        self.cell = cell
        return out


def outcome(step, actual):
    try:
        return step(actual)
    except bo.EditUndefinedError as exc:
        return f"EditUndefinedError: {exc}"


def assert_steps_match(m, p, ea, reals, seed=0):
    """The engine and :class:`NaiveEngine` agree under every strategy, step
    by step: output or error message, belief bytes and current cell."""
    for strategy in bo.STRATEGIES:
        engine = bo.EditEngine(m, p, ea, strategy=strategy, seed=seed)
        naive = NaiveEngine(m, p, ea, strategy, seed)
        assert engine.current_cell == naive.cell
        for actual in reals:
            assert outcome(engine.step, actual) == outcome(naive.step, actual), strategy
            assert engine.observer_belief.tobytes() == naive.belief.tobytes()
            assert engine.current_cell == naive.cell


def random_stream(m, seed, length, foreign_at=()):
    """Seeded real actions of ``m``, with the name "zz", in no alphabet, at
    the given positions."""
    reals = [m.actions[k] for k in
             np.random.default_rng(seed).integers(len(m.actions), size=length).tolist()]
    for t in foreign_at:
        reals[t] = "zz"
    return reals


def edit_setup(m, width):
    """Grid (refined when the initial cell is bad) and edit automaton."""
    x0 = bo.reduce_belief(m.pi0)
    p = bo.build_grid(width, m)
    if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
        p = bo.refine_initial(p, x0, m)
    return p, bo.build_edit_automaton(bo.abstract(m, p).pruned)


class TestStepDifferential:
    @pytest.mark.parametrize("case", ["width 0.2", "width 0.015", "refined reference"])
    def test_reference_model(self, mdp3, case):
        m, width = mdp3, 0.2 if case == "width 0.2" else 0.015
        if case == "refined reference":
            m, width = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21])), 0.02
        p, ea = edit_setup(m, width)
        assert bool(p.splits) == (case == "refined reference")
        for seed in range(3):
            assert_steps_match(m, p, ea, random_stream(m, seed, 200, foreign_at=(50,)), seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
    def test_random_models(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_mdp(rng, n)
        m = replace(m, threshold=min(1.0, m.secret_mass(m.pi0) + float(rng.uniform(0.0, 0.6))))
        try:
            p, ea = edit_setup(m, {3: 0.05, 4: 0.1, 5: 0.2}[n])
        except (bo.InitialCellPrunedError, bo.RefinementFailedError):
            return
        assert_steps_match(m, p, ea, random_stream(m, seed, 100, foreign_at=(7,)), seed % 5)

    def test_action_outside_the_alphabet(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        engine = bo.EditEngine(mdp3, partition3, ea)
        with pytest.raises(bo.EditUndefinedError, match="no output defined at cell .* 'a3'"):
            engine.step("a3")
        assert engine.current_cell == abstraction3.initial_cell
        assert_steps_match(mdp3, partition3, ea, ["a3", "a1", "a3", "a2"])

    @pytest.mark.parametrize("broken", ["edge removed", "state removed"])
    def test_move_the_automaton_does_not_cover(self, mdp3, partition3, abstraction3, broken):
        # the set-ups of TestEditEngine's two "does not cover" tests
        t = abstraction3.pruned
        q0 = abstraction3.initial_cell
        moved = bo.EditEngine(mdp3, partition3, bo.build_edit_automaton(t))
        moved.step("a1")
        moved = moved.current_cell
        if broken == "edge removed":
            states = t.states
            delta = dict(t.delta)
            delta[(q0, "a1")] = t.successors(q0, "a1") - {moved}
        else:
            states = t.states - {moved}
            delta = {key: targets - {moved} for key, targets in t.delta.items()
                     if key[0] != moved}
        ea = bo.build_edit_automaton(
            bo.Nfa(states=states, alphabet=t.alphabet, delta=delta, initial=t.initial))
        engine = bo.EditEngine(mdp3, partition3, ea)
        with pytest.raises(bo.EditUndefinedError, match=f"cell {moved}, .*does not cover"):
            engine.step("a1")
        assert_steps_match(mdp3, partition3, ea, ["a1", "a2", "a1"])


class TestNoReferenceCycles:
    @pytest.mark.parametrize("case", ["grid", "refined reference"])
    def test_partition_and_automaton_die_with_their_last_reference(self, mdp3, case):
        # the tables and the locator closure cached on a partition or an
        # automaton must not refer back to it: a cycle would keep a model's
        # arrays alive until the next collection, under the next model's peak
        m, width = mdp3, 0.2
        if case == "refined reference":
            m, width = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21])), 0.02
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            p, ea = edit_setup(m, width)
            r = bo.prune_blocking(bo.restrict_actions(m, ea.pruned))
            bo.synthesize_reach_policy(r, {m.states[-1]})
            for strategy in bo.STRATEGIES:
                engine = bo.EditEngine(m, p, ea, strategy=strategy)
                for actual in ("a1", "a2", "a1", "a1"):
                    engine.step(actual)
            bo.locate_cell([1.0, 0.0], p)
            refs = [weakref.ref(p), weakref.ref(ea), weakref.ref(ea.pruned)]
            assert "_fast" in p.__dict__ and "_successors" in ea.__dict__
            del p, ea, r, engine
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestVerifyEditRequirements:
    def test_reference_model_passes(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        report = bo.verify_edit_requirements(ea, mdp3, partition3, depth=4)
        assert report.ok
        assert report.sequences_checked == 3 * 2**4

    def test_depth_one_passes(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        assert bo.verify_edit_requirements(ea, mdp3, partition3, depth=1).ok

    def test_restricted_support_raises_requirement_two(self, mdp3, partition3, abstraction3):
        # a support automaton that forbids the first action from every state
        # makes the rewriter's a1 outputs invalid words
        support = bo.mdp_to_nfa(mdp3)
        delta = {(q, a): set(t) for (q, a), t in support.delta.items() if a != "a1"}
        crippled = bo.Nfa(states=support.states, alphabet=support.alphabet,
                          delta=delta, initial=support.initial)
        ea = bo.build_edit_automaton(abstraction3.pruned)
        report = bo.verify_edit_requirements(ea, mdp3, partition3, depth=3,
                                             support=crippled)
        assert not report.ok
        assert report.counterexample.requirement == 2

    def test_support_without_the_action_fails_as_one_forbidding_it(self, mdp3, partition3,
                                                                   abstraction3):
        # an output outside the support's alphabet leaves its language too
        support = bo.mdp_to_nfa(mdp3)
        kept = {k: v for k, v in support.delta.items() if k[1] != "a1"}
        forbidding = bo.Nfa(states=support.states, alphabet=support.alphabet, delta=kept,
                            initial=support.initial)
        narrow = bo.Nfa(states=support.states, alphabet=("a2",), delta=kept,
                        initial=support.initial)
        ea = bo.build_edit_automaton(abstraction3.pruned)
        reports = [bo.verify_edit_requirements(ea, mdp3, partition3, depth=3, support=s)
                   for s in (forbidding, narrow)]
        assert reports[0].counterexample.requirement == 2
        assert reports[0] == reports[1]

    def test_missing_outputs_raise_requirement_one(self, mdp3, partition3, abstraction3):
        # strip every transition of the initial state: no output is defined
        # there, whatever really happens
        t = abstraction3.pruned
        q0 = abstraction3.initial_cell
        stripped = bo.Nfa(states=t.states, alphabet=t.alphabet,
                          delta={k: v for k, v in t.delta.items() if k[0] != q0},
                          initial=t.initial)
        broken = bo.build_edit_automaton(stripped)
        report = bo.verify_edit_requirements(broken, mdp3, partition3, depth=2)
        assert not report.ok
        assert report.counterexample.requirement == 1
        assert report.counterexample.step == 1

    def test_depth_validation(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        with pytest.raises(ValueError):
            bo.verify_edit_requirements(ea, mdp3, partition3, depth=0)


class TestEnforcementSafety:
    """Restricted actions keep the true secret mass below the threshold."""

    def test_reference_model_playable_sequences(self, mdp3, restricted3):
        sequences = list(playable_action_sequences(restricted3, 6))
        assert sequences == [("a1",) * k for k in range(1, 7)]
        for seq in sequences:
            belief = mdp3.pi0.copy()
            for a in seq:
                belief = bo.belief_update(belief, a, mdp3)
                assert mdp3.secret_mass(belief) <= mdp3.threshold + 1e-12

    def test_random_models_playable_sequences(self):
        from dataclasses import replace

        rng = np.random.default_rng(77)
        tried = 0
        for seed in range(200):
            if tried >= 20:
                break
            m = random_mdp(rng, 3)
            mass0 = m.secret_mass(m.pi0)
            m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.05, 0.4))))
            p = bo.build_grid(0.25, m)
            x0 = bo.reduce_belief(m.pi0)
            try:
                if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                    p = bo.refine_initial(p, x0, m)
                res = bo.abstract(m, p)
                r = bo.prune_blocking(bo.restrict_actions(m, res.pruned))
            except (bo.InitialCellPrunedError, bo.RefinementFailedError,
                    bo.InitialStatePrunedError):
                continue
            tried += 1
            for seq in playable_action_sequences(r, 4):
                belief = m.pi0.copy()
                violated = False
                for a in seq:
                    belief = bo.belief_update(belief, a, m)
                    if m.secret_mass(belief) > m.threshold + 1e-12:
                        violated = True
                assert not violated, (seq, m.threshold)
        assert tried >= 10


class TestExports:
    def test_allowed_csv(self, restricted3):
        text = bo.allowed_to_csv(restricted3)
        assert text.splitlines() == [
            "state,actions,vacuous",
            "s1,a1,false",
            "s2,a1,false",
            "s3,a1,false",
        ]

    def test_policy_csv(self, restricted3):
        policy = bo.synthesize_reach_policy(restricted3, {"s3"}, eps=1e-12)
        lines = bo.policy_to_csv(policy).splitlines()
        assert lines[0] == "state,action,value"
        assert lines[1].startswith("s1,a1,")

    def test_edit_dot_labels(self, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        dot = bo.edit_to_dot(ea)
        assert 'label="a2/a1"' in dot
        assert dot == bo.edit_to_dot(ea)
