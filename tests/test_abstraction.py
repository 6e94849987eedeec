from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import belief_opacity as bo
from conftest import random_mdp, ref_cells


def two_action_two_state_model():
    return bo.Mdp(
        states=("sA", "sB"),
        pi0=np.array([0.5, 0.5]),
        actions=("a1", "a2"),
        trans={
            "a1": np.array([[0.6, 0.4], [0.4, 0.6]]),
            "a2": np.array([[0.2, 0.7], [0.8, 0.3]]),
        },
        secret=frozenset({0}),
        threshold=1.0,
    )


class TestBuildAbstraction:
    def test_reference_cell_successors(self, abstraction3, partition3):
        q = ref_cells(partition3)
        nfa = abstraction3.nfa
        assert nfa.successors(q["q2"], "a1") == {q["q0"], q["q1"]}
        assert nfa.successors(q["q2"], "a2") == {q["q3"], q["q4"], bo.BAD_STATE}

    def test_full_first_action_relation(self, abstraction3, partition3):
        q = ref_cells(partition3)
        expected = {
            "q0": {"q0", "q1"},
            "q1": {"q0", "q1"},
            "q2": {"q0", "q1"},
            "q3": {"q0", "q1"},
            "q4": {"q1", "q2"},
            "q5": {"q0", "q1"},
        }
        for src, targets in expected.items():
            assert abstraction3.nfa.successors(q[src], "a1") == {q[t] for t in targets}

    def test_second_action_bad_membership(self, abstraction3, partition3):
        q = ref_cells(partition3)
        for label in ("q0", "q2", "q3", "q4"):
            assert bo.BAD_STATE in abstraction3.nfa.successors(q[label], "a2")
        for label in ("q1", "q5"):
            assert bo.BAD_STATE not in abstraction3.nfa.successors(q[label], "a2")
        for label in ("q0", "q1", "q2", "q3", "q4", "q5"):
            assert bo.BAD_STATE not in abstraction3.nfa.successors(q[label], "a1")

    def test_initial_state_is_the_belief_cell(self, mdp3, partition3, abstraction3):
        cid = bo.locate_cell(bo.reduce_belief(mdp3.pi0), partition3)
        assert abstraction3.nfa.initial == {cid}
        assert abstraction3.initial_cell == cid

    def test_single_cell_self_loops(self):
        m = two_action_two_state_model()
        p = bo.build_grid(1.0, m)
        nfa = bo.build_abstraction(m, p)
        (cell,) = [c.id for c in p.safe_cells()]
        for a in m.actions:
            assert nfa.successors(cell, a) == {cell}

    def test_bad_initial_cell_raises(self, mdp3, partition3):
        m = replace(mdp3, threshold=0.3)  # initial cell corner mass is 0.6
        p = bo.build_grid(0.2, m)
        with pytest.raises(bo.BadInitialCellError):
            bo.build_abstraction(m, p)

    def test_closed_mode_catches_the_boundary_contact(self, mdp3, partition3):
        # the second action's reach box from q5 touches a bad cell in one
        # point; only the closed overlap counts it
        q = ref_cells(partition3)
        strict = bo.build_abstraction(mdp3, partition3, overlap_mode="strict")
        closed = bo.build_abstraction(mdp3, partition3, overlap_mode="closed")
        assert bo.BAD_STATE not in strict.successors(q["q5"], "a2")
        assert bo.BAD_STATE in closed.successors(q["q5"], "a2")

    def test_unknown_overlap_mode(self, mdp3, partition3):
        with pytest.raises(ValueError, match="overlap"):
            bo.build_abstraction(mdp3, partition3, overlap_mode="open")

    def test_unknown_overlap_mode_is_reported_before_a_bad_initial_cell(self, mdp3):
        m = replace(mdp3, threshold=0.3)  # initial cell corner mass is 0.6
        with pytest.raises(ValueError, match="overlap"):
            bo.build_abstraction(m, bo.build_grid(0.2, m), overlap_mode="open")


def all_pairs_delta(m, p, overlap_mode):
    """Reference abstraction: one reach box per safe cell and action, tested
    against every non-excluded cell."""
    usable = [c for c in p.cells if c.status != bo.EXCLUDED]
    los = np.array([c.box.lo for c in usable])
    his = np.array([c.box.hi for c in usable])
    delta = {}
    for a in m.actions:
        d = bo.decomposition(m, a)
        for cell in p.safe_cells():
            r = bo.reach_box(d, cell.box)
            lo = np.maximum(r.lo, los)
            hi = np.minimum(r.hi, his)
            hit = np.all(lo < hi, axis=1) if overlap_mode == "strict" else np.all(lo <= hi, axis=1)
            targets = {bo.BAD_STATE if usable[i].status == bo.BAD else usable[i].id
                       for i in np.nonzero(hit)[0]}
            if targets:
                delta[(cell.id, a)] = targets
    return delta


@st.composite
def abstraction_cases(draw):
    """A random model with 2-4 states on a grid of widths that may not divide
    1, refined around its initial belief and up to two more beliefs when
    their cells are bad, plus an overlap mode.  Half the models
    have transition probabilities in quarters, so that reach-box corners
    fall exactly on grid edges."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_mdp(rng, n)
    if draw(st.booleans()):
        quarters = lambda: rng.multinomial(4, np.ones(n) / n) / 4
        m = replace(m, trans={a: np.column_stack([quarters() for _ in range(n)])
                              for a in m.actions})
    lam = min(1.0, m.secret_mass(m.pi0) + draw(st.floats(0.005, 0.6)))
    m = replace(m, threshold=lam)
    widths = [draw(st.sampled_from([0.5, 1 / 3, 0.3, 0.25, 0.2, 0.15])) for _ in range(n - 1)]
    p = bo.build_grid(widths, m)
    beliefs = [m.pi0] + [rng.dirichlet(np.ones(n)) for _ in range(draw(st.integers(0, 2)))]
    for b in beliefs:
        x = bo.reduce_belief(b)
        if m.secret_mass(b) <= lam - 0.001 and p.cell(bo.locate_cell(x, p)).status == bo.BAD:
            try:
                p = bo.refine_initial(p, x, m)
            except bo.RefinementFailedError:
                pass
    return m, p, draw(st.sampled_from(["strict", "closed"]))


class TestGridIndexedOverlap:
    @settings(max_examples=80, deadline=None)
    @given(abstraction_cases())
    def test_same_delta_as_all_pairs(self, case):
        m, p, overlap_mode = case
        try:
            nfa = bo.build_abstraction(m, p, overlap_mode=overlap_mode)
        except bo.BadInitialCellError:
            assume(False)
        assert {k: set(v) for k, v in nfa.delta.items()} == all_pairs_delta(m, p, overlap_mode)
        assert nfa.states == {c.id for c in p.safe_cells()} | {bo.BAD_STATE}

    @settings(max_examples=40, deadline=None)
    @given(abstraction_cases())
    def test_reach_boxes_rows_equal_reach_box(self, case):
        m, p, _ = case
        for a in m.actions:
            d = bo.decomposition(m, a)
            rlo, rhi = bo.reach_boxes(d, p.lo, p.hi)
            for row, cell in enumerate(p.cells):
                r = bo.reach_box(d, cell.box)
                assert rlo[row].tobytes() == r.lo.tobytes()
                assert rhi[row].tobytes() == r.hi.tobytes()
                # and equal to f evaluated one vector at a time
                f = bo.decomp_eval(d, cell.box.lo, cell.box.hi)
                assert rlo[row].tobytes() == f.tobytes()

    def test_refined_reference_with_sparse_ids(self, mdp3):
        # pi0 just under lambda: refine_initial splits the initial grid cell,
        # so the ids skip that cell's and run past the cell count
        m = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21]))
        p = bo.refine_initial(bo.build_grid(0.02, m), bo.reduce_belief(m.pi0), m)
        assert p.splits and max(p.ids) >= len(p.ids)
        for overlap_mode in ("strict", "closed"):
            nfa = bo.build_abstraction(m, p, overlap_mode=overlap_mode)
            assert {k: set(v) for k, v in nfa.delta.items()} == all_pairs_delta(m, p, overlap_mode)
            # actions in alphabet order, safe cells ascending
            assert list(nfa.delta) == sorted(nfa.delta, key=lambda k: (m.actions.index(k[1]), k[0]))


class TestOverlappingCells:
    @pytest.mark.parametrize("mode, less", [("strict", np.less), ("closed", np.less_equal)])
    def test_pairs_and_order_match_a_scan_of_every_cell(self, mdp3, mode, less):
        m = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21]))
        p = bo.refine_initial(bo.build_grid(0.1, m), bo.reduce_belief(m.pi0), m)
        assert p.splits
        rng = np.random.default_rng(5)
        # corners on grid edges or not, boxes of zero width and boxes
        # leaving the unit square; 300 boxes span more than two blocks
        lo = np.concatenate([rng.integers(-2, 12, (150, 2)) / 10, rng.uniform(-0.2, 1.1, (150, 2))])
        hi = lo + np.concatenate([rng.integers(0, 4, (150, 2)) / 10, rng.uniform(0, 0.3, (150, 2))])
        meets = lambda alo, ahi, blo, bhi: less(np.maximum(alo, blo), np.minimum(ahi, bhi))
        boxes, rows = bo.overlapping_cells(p, lo, hi, mode)
        grid = np.ravel_multi_index(
            [np.searchsorted(e, p.lo[:, k], "right") - 1 for k, e in enumerate(p.grid_edges)],
            [len(e) - 1 for e in p.grid_edges],
        )
        expected = []
        for b in range(len(lo)):
            hit = np.flatnonzero(np.all(meets(lo[b], hi[b], p.lo, p.hi), axis=1))
            expected += [(b, r) for r in sorted(hit, key=lambda r: (grid[r], r))]
        assert list(zip(boxes.tolist(), rows.tolist())) == expected
        halves = {p.row(cid) for cids in p.splits.values() for cid in cids}
        assert halves & set(rows.tolist())


def dict_build(m, p, overlap_mode):
    """The abstraction's transitions built as a dict of frozensets, the way
    they were stored before the edge arrays: keyed in alphabet order, then
    ascending cell."""
    status = np.array(p.status)
    target = np.where(status == bo.BAD, bo.BAD_STATE, np.array(p.ids, dtype=object))
    usable = status != bo.EXCLUDED
    safe = np.flatnonzero(status == bo.SAFE).tolist()
    delta = {}
    for a in m.actions:
        rlo, rhi = bo.reach_boxes(bo.decomposition(m, a), p.lo[safe], p.hi[safe])
        boxes, rows = bo.overlapping_cells(p, rlo, rhi, overlap_mode)
        keep = usable[rows]
        targets = target[rows[keep]].tolist()
        ends = np.cumsum(np.bincount(boxes[keep], minlength=len(safe))).tolist()
        for row, first, last in zip(safe, [0, *ends], ends):
            if first < last:
                delta[(p.ids[row], a)] = frozenset(targets[first:last])
    return delta


def dict_prune(states, alphabet, delta, initial):
    """Pruning over that dict, as it ran before the edge arrays: returns the
    surviving states, their transitions and the events, or raises
    InitialCellPrunedError carrying the events so far."""
    key = lambda q: (isinstance(q, str), q)
    live = sorted((q for q in states if q != bo.BAD_STATE), key=key)
    enabled = {q: tuple(a for a in alphabet if (q, a) in delta) for q in live}
    events, disabled = [], set()
    left = {q: len(acts) for q, acts in enabled.items()}

    def disable(q, a, reason):
        disabled.add((q, a))
        left[q] -= 1
        events.append(bo.PruneEvent("disable", q, a, reason))

    for q in live:
        for a in enabled[q]:
            if bo.BAD_STATE in delta[(q, a)]:
                disable(q, a, "reaches the bad region")
    queue = deque(q for q in live if not left[q])
    preds = {}
    for k, targets in delta.items():
        if k[0] in left:
            for t in targets:
                preds.setdefault(t, []).append(k)
    while queue:
        q = queue.popleft()
        events.append(bo.PruneEvent("delete", q, None, "no enabled actions left"))
        if q == initial:
            raise bo.InitialCellPrunedError("pruned", events=tuple(events))
        for p_, a in preds.get(q, ()):
            if (p_, a) not in disabled:
                disable(p_, a, f"leads to deleted state {q}")
                if not left[p_]:
                    queue.append(p_)
    kept = {(q, a): delta[(q, a)] for q in live for a in enabled[q] if (q, a) not in disabled}
    return {q for q in live if left[q]}, kept, tuple(events)


def dict_restrict(m, delta, initial):
    """The per-cell reachable-state fixpoint over that dict, as it ran before
    the edge arrays: (allowed, vacuous)."""
    sup = {a: [{i for i in range(m.n) if m.trans[a][i, j] > 0} for j in range(m.n)]
           for a in m.actions}
    reach = {q: {j for j in range(m.n) if m.pi0[j] > 0} for q in initial}
    work = list(reach)
    while work:
        q = work.pop()
        for (q1, a), targets in delta.items():
            if q1 != q:
                continue
            nxt = set().union(*(sup[a][j] for j in reach[q]))
            for q2 in targets:
                if not nxt <= reach.setdefault(q2, set()):
                    reach[q2] |= nxt
                    work.append(q2)
    inter = {}
    for q, states in reach.items():
        acts = {a for a in m.actions if (q, a) in delta}
        for j in states:
            inter[j] = inter.get(j, acts) & acts
    allowed = {s: tuple(a for a in m.actions if a in inter[j] and sup[a][j]) if j in inter
               else m.actions for j, s in enumerate(m.states)}
    return allowed, {s for j, s in enumerate(m.states) if j not in inter}


def dict_sorted_edges(delta, states, alphabet):
    key = lambda q: (isinstance(q, str), q)
    return [(q, a, t) for q in sorted(states, key=key) for a in alphabet
            for t in sorted(delta.get((q, a), ()), key=key)]


def check_against_the_dict_algorithms(m, p, overlap_mode):
    nfa = bo.build_abstraction(m, p, overlap_mode=overlap_mode)
    delta = dict_build(m, p, overlap_mode)
    assert list(nfa.delta.items()) == list(delta.items())
    assert nfa.sorted_edges() == dict_sorted_edges(delta, nfa.states, m.actions)
    initial = next(iter(nfa.initial))
    try:
        states, kept, events = dict_prune(nfa.states, m.actions, delta, initial)
    except bo.InitialCellPrunedError as exc:
        with pytest.raises(bo.InitialCellPrunedError) as got:
            bo.prune(nfa, initial)
        assert got.value.events == exc.events
        return "pruned"
    pruned, log = bo.prune(nfa, initial)
    assert log == events
    assert pruned.states == states and dict(pruned.delta) == kept
    assert list(pruned.delta) == sorted(kept, key=lambda k: (m.actions.index(k[1]), k[0]))
    assert pruned.sorted_edges() == dict_sorted_edges(kept, states, m.actions)
    r = bo.restrict_actions(m, pruned)
    assert (r.allowed, r.vacuous) == dict_restrict(m, kept, pruned.initial)
    return "deleted" if any(e.kind == "delete" for e in log) else "kept"


class TestEdgeArraysMatchTheDictAlgorithms:
    @settings(max_examples=120, deadline=None)
    @given(abstraction_cases())
    def test_build_prune_and_restrict(self, case):
        m, p, overlap_mode = case
        try:
            check_against_the_dict_algorithms(m, p, overlap_mode)
        except bo.BadInitialCellError:
            assume(False)

    @pytest.mark.parametrize("overlap_mode", ["strict", "closed"])
    def test_cascading_and_initial_pruning_models(self, mdp3, overlap_mode):
        cascading = random_mdp(np.random.default_rng(911), 4, 2)
        refined = replace(mdp3, pi0=np.array([0.5, 0.29, 0.21]))
        coarse = bo.refine_initial(bo.build_grid(0.5, mdp3), bo.reduce_belief(mdp3.pi0), mdp3)
        outcomes = [
            check_against_the_dict_algorithms(cascading, bo.build_grid(0.1, cascading),
                                              overlap_mode),
            check_against_the_dict_algorithms(
                refined, bo.refine_initial(bo.build_grid(0.02, refined),
                                           bo.reduce_belief(refined.pi0), refined),
                overlap_mode),
            check_against_the_dict_algorithms(mdp3, coarse, overlap_mode),
        ]
        assert outcomes == ["deleted", "kept", "pruned"]


class TestBoxesOverlap:
    def test_strict_needs_interior_contact(self):
        a = (np.array([0.0]), np.array([0.2]))
        b = (np.array([0.2]), np.array([0.4]))
        assert not bo.boxes_overlap(a[0], a[1], b[0], b[1], "strict")
        assert bo.boxes_overlap(a[0], a[1], b[0], b[1], "closed")

    def test_proper_overlap_counts_in_both_modes(self):
        a = (np.array([0.0, 0.0]), np.array([0.3, 0.3]))
        b = (np.array([0.2, 0.1]), np.array([0.5, 0.5]))
        assert bo.boxes_overlap(a[0], a[1], b[0], b[1], "strict")
        assert bo.boxes_overlap(a[0], a[1], b[0], b[1], "closed")


class TestPrune:
    def test_reference_pruning(self, abstraction3, partition3):
        q = ref_cells(partition3)
        pruned, log = abstraction3.pruned, abstraction3.log
        assert pruned.states == set(q.values())  # no state deleted
        disabled = [(e.state, e.action) for e in log if e.kind == "disable"]
        assert disabled == [(q[l], "a2") for l in ("q0", "q2", "q3", "q4")]
        assert not any(e.kind == "delete" for e in log)
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
        assert pruned.delta == expected

    def test_everything_blocking_prunes_the_initial_state(self):
        nfa = bo.Nfa(
            states=frozenset({0, 1, "bad"}),
            alphabet=("a", "b"),
            delta={(0, "a"): {"bad"}, (0, "b"): {1, "bad"},
                   (1, "a"): {"bad"}, (1, "b"): {"bad"}},
            initial=frozenset({0}),
        )
        with pytest.raises(bo.InitialCellPrunedError) as exc:
            bo.prune(nfa, 0)
        assert any(e.kind == "delete" for e in exc.value.events)

    def test_no_bad_edges_means_no_change(self):
        nfa = bo.Nfa(
            states=frozenset({0, 1, "bad"}),
            alphabet=("a",),
            delta={(0, "a"): {1}, (1, "a"): {0}},
            initial=frozenset({0}),
        )
        pruned, log = bo.prune(nfa, 0)
        assert log == ()
        assert pruned.delta == nfa.delta
        assert pruned.states == {0, 1}

    def test_deletion_cascade_disables_orphaned_actions(self):
        nfa = bo.Nfa(
            states=frozenset({0, 1, 2, "bad"}),
            alphabet=("a", "b"),
            delta={
                (0, "a"): {1},
                (1, "a"): {"bad"}, (1, "b"): {"bad"},
                (2, "a"): {2}, (2, "b"): {0, 2},
            },
            initial=frozenset({2}),
        )
        pruned, log = bo.prune(nfa, 2)
        kinds = [(e.kind, e.state, e.action) for e in log]
        assert ("delete", 1, None) in kinds
        assert ("disable", 0, "a") in kinds  # its successor 1 was deleted
        assert ("delete", 0, None) in kinds
        assert ("disable", 2, "b") in kinds  # may still move to the deleted 0
        assert pruned.states == {2}
        assert pruned.delta == {(2, "a"): {2}}

    def test_idempotent(self, abstraction3):
        again, log = bo.prune(abstraction3.pruned, abstraction3.initial_cell)
        assert log == ()
        assert again.delta == abstraction3.pruned.delta
        assert again.states == abstraction3.pruned.states

    def test_result_is_order_independent(self, abstraction3):
        # relabel so the ascending processing order reverses, then map back
        base = abstraction3.nfa
        relabel = lambda s: s if s == bo.BAD_STATE else 1000 - s
        iso = bo.Nfa(
            states=frozenset(relabel(s) for s in base.states),
            alphabet=base.alphabet,
            delta={(relabel(q), a): {relabel(t) for t in ts}
                   for (q, a), ts in base.delta.items()},
            initial=frozenset(relabel(s) for s in base.initial),
        )
        pruned_iso, _ = bo.prune(iso, relabel(abstraction3.initial_cell))
        back = {(relabel(q), a): {relabel(t) for t in ts}
                for (q, a), ts in pruned_iso.delta.items()}
        assert back == dict(abstraction3.pruned.delta)

    def test_pruned_successors_stay_inside_the_automaton(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_mdp(rng, 3)
            mass0 = m.secret_mass(m.pi0)
            m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.1, 0.5))))
            p = bo.build_grid(0.25, m)
            x0 = bo.reduce_belief(m.pi0)
            if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                continue
            try:
                res = bo.abstract(m, p)
            except bo.InitialCellPrunedError:
                continue
            for (_q, _a), targets in res.pruned.delta.items():
                assert targets <= res.pruned.states
            assert bo.BAD_STATE not in res.pruned.states
            for q in res.pruned.states:
                assert res.pruned.enabled(q)


    def test_fault_model_keeps_a_controlled_invariant_set(self):
        # The rand-batch fault model: pruning once kept actions whose
        # successors it deleted, and the edit stream below then left the
        # edit automaton at step 2.
        m = random_mdp(np.random.default_rng(911), 4, 2)
        p = bo.build_grid(0.1, m)
        res = bo.abstract(m, p)
        for (q, a) in res.pruned.delta:
            assert res.nfa.successors(q, a) <= res.pruned.states
        for q in res.pruned.states:
            assert res.pruned.enabled(q)
        assert "leads to deleted state" in bo.format_prune_log(res.log)
        engine = bo.EditEngine(m, p, bo.build_edit_automaton(res.pruned), strategy="lex-first")
        rng = np.random.default_rng(0)
        for i in rng.integers(len(m.actions), size=50):
            engine.step(m.actions[i])

    def test_result_passes_the_public_checks(self, abstraction3):
        # build_abstraction and prune build their results without
        # re-validation; the checked constructor accepts the same parts and
        # changes none of them
        m = random_mdp(np.random.default_rng(911), 4, 2)
        deleting = bo.abstract(m, bo.build_grid(0.1, m))
        for t in (abstraction3.nfa, abstraction3.pruned, deleting.nfa, deleting.pruned):
            assert bo.Nfa(states=t.states, alphabet=t.alphabet, delta=t.delta,
                          initial=t.initial) == t
            assert all(type(v) is frozenset and v for v in t.delta.values())
            assert (type(t.states), type(t.alphabet), type(t.initial)) == (frozenset, tuple, frozenset)


class TestExports:
    def test_dot_is_deterministic_and_styled(self, abstraction3):
        dot = bo.nfa_to_dot(abstraction3.nfa)
        assert dot == bo.nfa_to_dot(abstraction3.nfa)
        assert '"bad" [shape=doublecircle];' in dot
        assert "style=solid" in dot and "style=dashed" in dot
        pruned_dot = bo.nfa_to_dot(abstraction3.pruned)
        assert "doublecircle" not in pruned_dot

    def test_edge_csv(self, abstraction3, partition3):
        q = ref_cells(partition3)
        csv = bo.edges_to_csv(abstraction3.pruned)
        lines = csv.strip().split("\n")
        assert lines[0] == "src,action,dst"
        assert len(lines) == 1 + 16  # twelve solid edges plus four dashed
        assert f"{q['q1']},a2,{q['q3']}" in lines

    def test_prune_log_formatting(self, abstraction3):
        text = bo.format_prune_log(abstraction3.log)
        assert "disable action a2 at state" in text
        assert bo.format_prune_log(()) == ""
