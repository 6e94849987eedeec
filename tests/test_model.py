import numpy as np
import pytest

import belief_opacity as bo
from conftest import H1, H2, PI0, THREE_STATE_DOC, random_mdp


class TestParse:
    def test_three_state_document(self):
        m = bo.parse_model(THREE_STATE_DOC)
        assert m.states == ("s1", "s2", "s3")
        assert m.actions == ("a1", "a2")
        np.testing.assert_array_equal(m.pi0, PI0)
        np.testing.assert_array_equal(m.trans["a1"][0], [0.2, 0.0, 0.1])
        np.testing.assert_array_equal(m.trans["a1"], H1)
        np.testing.assert_array_equal(m.trans["a2"], H2)
        assert m.secret == {0, 1}
        assert m.threshold == 0.8

    def test_broken_column_parses_but_fails_validation(self):
        doc = THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.3, 0.7, 0.7]")
        m = bo.parse_model(doc)  # parsing succeeds
        report = bo.validate_mdp(m)
        assert not report.ok
        assert any("column 1" in i.message for i in report.issues)

    def test_empty_action_list_is_syntax_error(self):
        doc = THREE_STATE_DOC.replace("actions: [a1, a2]", "actions: []")
        with pytest.raises(bo.ModelFormatError, match="actions"):
            bo.parse_model(doc)

    def test_yaml_syntax_error_carries_position(self):
        with pytest.raises(bo.ModelFormatError) as exc:
            bo.parse_model("states: [s1, s2\nactions: [a]")
        assert exc.value.line is not None

    def test_dimension_mismatch(self):
        doc = THREE_STATE_DOC.replace("pi0: [0.3, 0.1, 0.6]", "pi0: [0.3, 0.7]")
        with pytest.raises(bo.ModelFormatError, match="pi0"):
            bo.parse_model(doc)

    def test_unknown_secret_state(self):
        doc = THREE_STATE_DOC.replace("secret: [s1, s2]", "secret: [s1, s9]")
        with pytest.raises(bo.ModelFormatError, match="s9"):
            bo.parse_model(doc)

    def test_missing_key(self):
        doc = THREE_STATE_DOC.replace("lambda: 0.8", "")
        with pytest.raises(bo.ModelFormatError, match="lambda"):
            bo.parse_model(doc)

    def test_round_trip_identity(self):
        m = bo.parse_model(THREE_STATE_DOC)
        assert bo.parse_model(bo.serialize_model(m)) == m

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_mdp(rng, int(rng.integers(2, 5)), n_actions=int(rng.integers(1, 4)))
            assert bo.parse_model(bo.serialize_model(m)) == m


class TestValidate:
    def test_three_state_ok(self):
        assert bo.validate_mdp(bo.parse_model(THREE_STATE_DOC)).ok

    def test_secret_all_states_rejected(self):
        m = bo.parse_model(THREE_STATE_DOC.replace("secret: [s1, s2]", "secret: [s1, s2, s3]"))
        report = bo.validate_mdp(m)
        assert not report.ok
        assert any("strict subset" in i.message for i in report.issues)

    def test_bad_pi0_reports_negativity_and_sum(self):
        m = bo.parse_model(THREE_STATE_DOC.replace("pi0: [0.3, 0.1, 0.6]", "pi0: [0.5, 0.6, -0.1]"))
        report = bo.validate_mdp(m)
        errors = [i for i in report.issues if i.severity == "error" and i.location == "pi0"]
        assert len(errors) == 2

    def test_empty_secret_is_only_a_warning(self):
        m = bo.parse_model(THREE_STATE_DOC.replace("secret: [s1, s2]", "secret: []"))
        report = bo.validate_mdp(m)
        assert report.ok
        assert any(i.severity == "warning" for i in report.issues)

    def test_threshold_out_of_range(self):
        m = bo.parse_model(THREE_STATE_DOC.replace("lambda: 0.8", "lambda: 1.4"))
        assert not bo.validate_mdp(m).ok

    @pytest.mark.parametrize("old, new, location", [
        ("pi0: [0.3, 0.1, 0.6]", "pi0: [0.3, .nan, 0.6]", "pi0"),
        ("- [0.4, 0.7, 0.7]", "- [0.4, .nan, 0.7]", "trans[a1]"),
        ("- [0.4, 0.35, 0.5]", "- [.inf, 0.35, 0.5]", "trans[a2]"),
    ])
    def test_non_finite_entries_rejected(self, old, new, location):
        # NaN fails every comparison: the range test must ask for entries inside
        report = bo.validate_mdp(bo.parse_model(THREE_STATE_DOC.replace(old, new)))
        assert not report.ok
        assert any(i.message == "entries must lie in [0, 1]" and i.location == location
                   for i in report.issues)

    def test_tolerance_is_configurable(self):
        doc = THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.4000001, 0.7, 0.7]")
        m = bo.parse_model(doc)
        assert not bo.validate_mdp(m).ok
        assert bo.validate_mdp(m, tol=1e-3).ok


class TestSupportNfa:
    def test_successors_read_from_positive_entries(self, mdp3):
        nfa = bo.mdp_to_nfa(mdp3)
        assert nfa.successors("s2", "a1") == {"s2", "s3"}
        assert nfa.initial == {"s1", "s2", "s3"}

    def test_identity_matrix_gives_self_loops(self):
        m = bo.Mdp(states=("x", "y"), pi0=np.array([1.0, 0.0]), actions=("a",),
                   trans={"a": np.eye(2)}, secret=frozenset({0}), threshold=1.0)
        nfa = bo.mdp_to_nfa(m)
        assert nfa.successors("x", "a") == {"x"}
        assert nfa.successors("y", "a") == {"y"}

    def test_transition_count_equals_positive_entries(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_mdp(rng, int(rng.integers(2, 5)))
            positives = sum(int((m.trans[a] > 0).sum()) for a in m.actions)
            assert bo.mdp_to_nfa(m).transition_count() == positives


class TestNfa:
    def make(self, initial=(0,)):
        delta = {(2, "b"): {0, "bad"}, (0, "a"): {1}, (1, "b"): set(), (0, "b"): {2, 0}}
        return bo.Nfa(states=frozenset({0, 1, 2, "bad"}), alphabet=("a", "b"), delta=delta,
                      initial=frozenset(initial))

    def test_stored_as_sorted_edge_arrays(self):
        nfa = self.make()
        assert nfa.order == (0, 1, 2, "bad")
        src, act, dst = nfa.edge_arrays()
        assert list(zip(src.tolist(), act.tolist(), dst.tolist())) == [
            (0, 0, 1), (0, 1, 0), (0, 1, 2), (2, 1, 0), (2, 1, 3)]
        assert nfa.offsets.tolist() == [0, 1, 3, 3, 3, 3, 5, 5, 5]
        assert nfa.sorted_edges() == [(0, "a", 1), (0, "b", 0), (0, "b", 2),
                                      (2, "b", 0), (2, "b", "bad")]
        assert nfa.transition_count() == 5

    def test_delta_is_a_read_only_view_in_alphabet_then_state_order(self):
        nfa = self.make()
        assert list(nfa.delta.items()) == [((0, "a"), {1}), ((0, "b"), {0, 2}),
                                           ((2, "b"), {0, "bad"})]
        assert all(type(v) is frozenset for v in nfa.delta.values())
        with pytest.raises(TypeError):
            nfa.delta[(1, "a")] = frozenset({0})
        with pytest.raises(AttributeError):
            nfa.dst = None
        assert not nfa.dst.flags.writeable and not nfa.offsets.flags.writeable

    def test_readers(self):
        nfa = self.make()
        assert nfa.successors(0, "b") == {0, 2}
        assert nfa.successors(1, "b") == frozenset()  # empty targets were dropped
        assert nfa.successors("nope", "a") == nfa.successors(0, "z") == frozenset()
        assert [nfa.enabled(q) for q in nfa.order] == [("a", "b"), (), ("b",), ()]
        assert nfa.enabled("nope") == ()
        assert nfa.reachable() == {0, 1, 2, "bad"}
        assert nfa.accepts(["b", "b", "b"]) and not nfa.accepts(["a", "a"])

    def test_equality_compares_the_parts(self):
        nfa = self.make()
        same = bo.Nfa(states=nfa.states, alphabet=nfa.alphabet, delta=nfa.delta,
                      initial=nfa.initial)
        assert same == nfa
        assert self.make(initial=(2,)) != nfa
        fewer = {k: v for k, v in nfa.delta.items() if k != (0, "a")}
        assert bo.Nfa(states=nfa.states, alphabet=nfa.alphabet, delta=fewer,
                      initial=nfa.initial) != nfa

    @pytest.mark.parametrize("delta, message", [
        ({(7, "a"): {0}}, "references unknown states"),
        ({(0, "a"): {0, 7}}, "references unknown states"),
        ({(0, "z"): {0}}, "symbol 'z' not in alphabet"),
    ])
    def test_rejects_unknown_states_and_symbols(self, delta, message):
        with pytest.raises(ValueError, match=message):
            bo.Nfa(states=frozenset({0, 1}), alphabet=("a",), delta=delta,
                   initial=frozenset({0}))

    def test_rejects_unknown_initial_states(self):
        with pytest.raises(ValueError, match="initial"):
            self.make(initial=(5,))

    def test_empty_automaton(self):
        nfa = bo.Nfa(states=frozenset(), alphabet=("a",), delta={}, initial=frozenset())
        assert not nfa.delta and nfa.sorted_edges() == [] and nfa.transition_count() == 0


class TestCanonicalReorder:
    def test_identity_when_last_state_non_secret(self):
        m = bo.parse_model(THREE_STATE_DOC)
        m2, perm = bo.canonical_reorder(m)
        assert perm == (0, 1, 2)
        assert m2 == m

    def test_moves_lowest_non_secret_last(self):
        m = bo.parse_model(THREE_STATE_DOC.replace("secret: [s1, s2]", "secret: [s3]"))
        m2, perm = bo.canonical_reorder(m)
        assert perm == (1, 2, 0)
        assert m2.states == ("s2", "s3", "s1")
        assert m2.secret == {1}

    def test_two_state_swap(self):
        m = bo.Mdp(states=("s1", "s2"), pi0=np.array([0.4, 0.6]), actions=("a",),
                   trans={"a": np.array([[0.5, 0.2], [0.5, 0.8]])},
                   secret=frozenset({1}), threshold=0.9)
        m2, perm = bo.canonical_reorder(m)
        assert perm == (1, 0)
        assert m2.states == ("s2", "s1")
        assert m2.secret == {0}

    def test_preserves_belief_dynamics(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            m = random_mdp(rng, int(rng.integers(2, 5)))
            m2, perm = bo.canonical_reorder(m)
            idx = np.array(perm)
            depth = int(rng.integers(1, 11))
            actions = [m.actions[i] for i in rng.integers(len(m.actions), size=depth)]
            b_old, b_new = m.pi0.copy(), m2.pi0.copy()
            np.testing.assert_allclose(b_new, b_old[idx], atol=1e-15)
            for a in actions:
                b_old = bo.belief_update(b_old, a, m)
                b_new = bo.belief_update(b_new, a, m2)
                np.testing.assert_allclose(b_new, b_old[idx], atol=1e-12)
