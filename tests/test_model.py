import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import belief_opacity as bo
from conftest import H1, H2, PI0, THREE_STATE_DOC, random_mdp, run_fresh

BAD_NAMES = ["", "x,y", "a;b", 'a"1', "a\\b", "a\nb", "a\tb", "a\x7fb", "a\x85b"]
BAD_NAME_IDS = ["empty", "comma", "semicolon", "quote", "backslash", "newline", "tab", "delete",
                "c1-control"]


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

    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    @pytest.mark.parametrize("kind", ["state", "action"])
    def test_names_that_break_the_artifacts_are_rejected(self, kind, name):
        doc = yaml.safe_load(THREE_STATE_DOC)
        if kind == "state":
            doc["states"][2] = name
        else:
            doc["actions"][1] = name
            doc["trans"][name] = doc["trans"].pop("a2")
        with pytest.raises(bo.ModelFormatError, match=f"invalid {kind} name"):
            bo.parse_model(yaml.safe_dump(doc))

    @pytest.mark.parametrize("name", BAD_NAMES, ids=BAD_NAME_IDS)
    @pytest.mark.parametrize("kind", ["state", "action"])
    @pytest.mark.parametrize("build", ["constructor", "replace"])
    def test_every_construction_path_applies_the_name_rule(self, build, kind, name):
        m = bo.parse_model(THREE_STATE_DOC)
        if kind == "state":
            fields = {"states": ("s1", "s2", name)}
        else:
            fields = {"actions": ("a1", name), "trans": {"a1": H1, name: H2}}
        message = (f"invalid {kind} name {name!r}: names must be non-empty and contain no "
                   "',', ';', '\"', '\\' or control character")
        with pytest.raises(bo.ModelFormatError, match=f"^{re.escape(message)}$"):
            if build == "replace":
                replace(m, **fields)
            else:
                bo.Mdp(**{"states": m.states, "pi0": m.pi0, "actions": m.actions,
                          "trans": m.trans, "secret": m.secret,
                          "threshold": m.threshold, **fields})

    @pytest.mark.parametrize("kind", ["state", "action"])
    @pytest.mark.parametrize("build", ["constructor", "replace"])
    def test_every_construction_path_rejects_duplicate_names(self, build, kind):
        m = bo.parse_model(THREE_STATE_DOC)
        if kind == "state":
            fields = {"states": ("s1", "s1", "s3")}
        else:
            fields = {"actions": ("a1", "a1"), "trans": {"a1": H1}}
        with pytest.raises(bo.ModelFormatError, match=f"^duplicate {kind} names$"):
            if build == "replace":
                replace(m, **fields)
            else:
                bo.Mdp(**{"states": m.states, "pi0": m.pi0, "actions": m.actions,
                          "trans": m.trans, "secret": m.secret,
                          "threshold": m.threshold, **fields})

    @pytest.mark.parametrize("old, new, kind", [
        ("states: [s1, s2, s3]", "states: [s1, s2, s2]", "state"),
        ("actions: [a1, a2]", "actions: [a1, a2, a1]", "action"),
    ])
    def test_documents_with_duplicate_names_are_rejected(self, old, new, kind):
        with pytest.raises(bo.ModelFormatError, match=f"^duplicate {kind} names$"):
            bo.parse_model(THREE_STATE_DOC.replace(old, new))

    def test_other_names_are_kept(self):
        m = replace(bo.parse_model(THREE_STATE_DOC), states=("s 1", "état", "s-3.x"))
        assert bo.parse_model(bo.serialize_model(m)) == m

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_mdp(rng, int(rng.integers(2, 5)), n_actions=int(rng.integers(1, 4)))
            assert bo.parse_model(bo.serialize_model(m)) == m


DEMO_MODEL = Path(__file__).resolve().parents[1] / "demos" / "models" / "three_state.yaml"
LIBYAML = bo.model._LibyamlLoader
needs_libyaml = pytest.mark.skipif(LIBYAML is None, reason="PyYAML is built without libyaml")
# nested documents of the scalar types a model document uses
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
# malformed documents: the message, line and column of the pure-Python parser
MALFORMED = {
    "unclosed-flow-list": ("states: [a, b", "expected ',' or ']', but got '<stream end>'", 1, 14),
    "nested-mapping": ("a: b: c", "mapping values are not allowed here", 1, 5),
    "leading-tab": ("\tstates: [a]", "found character '\\t' that cannot start any token", 1, 1),
    "bad-indentation": ("states:\n  - a\n - b",
                        "expected <block end>, but found '<block sequence start>'", 3, 2),
    "unclosed-list": ("[1, 2", "expected ',' or ']', but got '<stream end>'", 1, 6),
    "undefined-alias": ("states: *x", "found undefined alias 'x'", 1, 9),
    # libyaml accepts a tab between tokens
    "tab-separator": ("lambda:\t0.8", "found character '\\t' that cannot start any token", 1, 8),
    # libyaml accepts a comment right after a block scalar's indicator
    "block-scalar-comment": ("lambda: |#\n  0.8", "expected chomping or indentation indicators, "
                             "but found '#'", 1, 10),
    # libyaml reads "?" inside a flow collection as part of a plain scalar
    "flow-question-mark": ("states: [a?b]", "expected ',' or ']', but got '?'", 1, 11),
}


def same_object(a, b) -> bool:
    """Equal values of equal types, all the way down (``1 == 1.0 == True``)."""
    return type(a) is type(b) and repr(a) == repr(b)


def both_loaders(text: str):
    return [yaml.load(text, Loader=loader) for loader in (LIBYAML, yaml.SafeLoader)]


class TestLoaders:
    """Documents are read through libyaml when PyYAML has it; what the
    pure-Python parser returns or raises stays what parse_model reports."""

    @needs_libyaml
    def test_demo_model(self):
        text = DEMO_MODEL.read_text(encoding="utf-8")
        assert same_object(*both_loaders(text))
        assert same_object(bo.model._load_document(text), yaml.safe_load(text))

    @needs_libyaml
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 3))
    def test_serialized_random_models(self, seed, n, n_actions):
        m = random_mdp(np.random.default_rng(seed), n, n_actions=n_actions)
        text = bo.serialize_model(m)
        assert same_object(*both_loaders(text))
        assert bo.parse_model(text) == m

    @needs_libyaml
    @settings(max_examples=150, deadline=None)
    @given(DOCUMENTS, st.sampled_from([False, True, None]))
    def test_dumped_documents(self, doc, flow):
        text = yaml.safe_dump(doc, default_flow_style=flow)
        if bo.model._LIBYAML_TEXT.fullmatch(text):
            assert same_object(*both_loaders(text))
        assert same_object(bo.model._load_document(text), yaml.safe_load(text))

    @needs_libyaml
    def test_libyaml_reads_plain_documents(self, monkeypatch):
        made = []

        class Spy(LIBYAML):
            def __init__(self, stream):
                made.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(bo.model, "_LibyamlLoader", Spy)
        assert bo.parse_model(THREE_STATE_DOC) == bo.parse_model(DEMO_MODEL.read_text())
        assert made == [THREE_STATE_DOC, DEMO_MODEL.read_text()]
        made.clear()
        # outside its characters, where the two parsers were seen to
        # disagree among others, libyaml is not asked
        for mark in ("\t", "\ufeff", "!", "|", ">", "?", "&", "*", "%", "\\", "\r", "é"):
            bo.model._load_document(f"x: [1, 2] # {mark}")
        assert made == []

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
    @pytest.mark.parametrize("text, problem, line, column", MALFORMED.values(), ids=MALFORMED)
    def test_syntax_errors_keep_message_and_position(self, monkeypatch, libyaml, text, problem,
                                                     line, column):
        if not libyaml:
            monkeypatch.setattr(bo.model, "_LibyamlLoader", None)
        with pytest.raises(bo.ModelFormatError) as exc:
            bo.parse_model(text)
        assert str(exc.value) == f"invalid model syntax: {problem} (line {line}, column {column})"
        assert (exc.value.line, exc.value.column) == (line, column)
        assert isinstance(exc.value.__cause__, yaml.MarkedYAMLError)

    def test_outcomes_libyaml_alone_would_change(self):
        # a lone surrogate does not encode for libyaml; the pure-Python
        # reader rejects it with its own message and no mark
        with pytest.raises(bo.ModelFormatError) as exc:
            bo.parse_model("x: \ud800")
        assert str(exc.value) == ("invalid model syntax: unacceptable character #xd800: special "
                                  'characters are not allowed\n  in "<unicode string>", position 3')
        assert exc.value.line is None
        # libyaml rejects a YAML 1.3 directive, the pure-Python parser reads it
        with pytest.raises(bo.ModelFormatError, match="^model document must be a mapping$"):
            bo.parse_model("%YAML 1.3\n--- a")

    def test_deep_nesting_raises_recursion_error(self):
        # libyaml's own composer recurses on the C stack and kills the
        # interpreter here, so the check runs in a child process
        run_fresh("""if True:
            import belief_opacity as bo
            try:
                bo.parse_model("[" * 100_000 + "]" * 100_000)
            except RecursionError:
                pass
            else:
                raise AssertionError("a document nested 100 000 deep parsed")
        """)

    def test_parses_without_libyaml(self, monkeypatch):
        expected = bo.parse_model(THREE_STATE_DOC)
        monkeypatch.setattr(bo.model, "_LibyamlLoader", None)
        assert bo.parse_model(THREE_STATE_DOC) == expected
        assert bo.load_model(DEMO_MODEL) == expected


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

    def test_tolerance_is_1e_9(self):
        doc = THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.4000001, 0.7, 0.7]")
        assert not bo.validate_mdp(bo.parse_model(doc)).ok
        doc = THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.40000000001, 0.7, 0.7]")
        assert bo.validate_mdp(bo.parse_model(doc)).ok


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
