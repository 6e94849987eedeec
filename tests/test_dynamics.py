import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belief_opacity as bo
from conftest import H1, H2, PI0, random_mdp


def reduced_points(n=2):
    """Points of the reduced belief domain (nonnegative, sum <= 1)."""
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
    ).map(lambda xs: np.array(xs) / max(1.0, sum(xs)))


class TestBeliefUpdate:
    def test_three_state_step(self, mdp3):
        expected = H1 @ PI0  # independent literal-matrix oracle
        np.testing.assert_allclose(expected, [0.12, 0.27, 0.61], atol=1e-12)
        np.testing.assert_allclose(
            bo.belief_update(PI0, "a1", mdp3), [0.12, 0.27, 0.61], atol=1e-12
        )

    def test_identity_matrix_fixes_belief(self):
        m = bo.Mdp(states=("x", "y"), pi0=np.array([0.3, 0.7]), actions=("a",),
                   trans={"a": np.eye(2)}, secret=frozenset({0}), threshold=1.0)
        np.testing.assert_array_equal(bo.belief_update(m.pi0, "a", m), m.pi0)

    def test_unit_vector_extracts_column(self, mdp3):
        b = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(
            bo.belief_update(b, "a2", mdp3), [0.65, 0.0, 0.35], atol=1e-15
        )

    def test_unknown_action(self, mdp3):
        with pytest.raises(ValueError, match="unknown action"):
            bo.belief_update(PI0, "nope", mdp3)

    def test_output_is_a_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_mdp(rng, int(rng.integers(2, 6)))
            b = rng.dirichlet(np.ones(m.n))
            for a in m.actions:
                out = bo.belief_update(b, a, m)
                assert np.all(out >= 0)
                assert abs(out.sum() - 1.0) < 1e-12


    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dot_is_bitwise_equal_to_matmul(self, n):
        # the engine and belief_update advance beliefs with ndarray.dot; a
        # NumPy or BLAS build that rounds it differently from ``@`` would
        # silently change every trace
        rng = np.random.default_rng(20 + n)
        m = random_mdp(rng, n, n_actions=3)
        by_dot = by_matmul = m.pi0
        for k in rng.integers(len(m.actions), size=2000).tolist():
            h = m.trans[m.actions[k]]
            by_dot, by_matmul = h.dot(by_dot), h @ by_matmul
            assert by_dot.tobytes() == by_matmul.tobytes()


class TestReduceLift:
    def test_three_state_round_trip(self):
        x = bo.reduce_belief(PI0)
        np.testing.assert_array_equal(x, [0.3, 0.1])
        np.testing.assert_array_equal(bo.lift_belief(x), PI0)

    def test_origin_lifts_to_last_state(self):
        np.testing.assert_array_equal(bo.lift_belief(np.zeros(2)), [0.0, 0.0, 1.0])

    def test_boundary_lifts_to_zero_tail(self):
        np.testing.assert_array_equal(bo.lift_belief(np.array([0.5, 0.5])), [0.5, 0.5, 0.0])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(reduced_points())
    def test_reduce_after_lift(self, x):
        np.testing.assert_array_equal(bo.reduce_belief(bo.lift_belief(x)), x)


class TestDecomposition:
    def test_first_action_blocks(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        np.testing.assert_array_equal(d.a1, [[0.2, 0.0], [0.4, 0.3]])
        np.testing.assert_array_equal(d.a2, [[0.1, 0.1], [0.2, 0.2]])
        np.testing.assert_array_equal(d.b, [0.1, 0.2])

    def test_second_action_blocks(self, mdp3):
        d = bo.decomposition(mdp3, "a2")
        np.testing.assert_array_equal(d.a1, [[0.4, 0.65], [0.2, 0.0]])
        np.testing.assert_array_equal(d.a2, [[0.3, 0.3], [0.2, 0.2]])
        np.testing.assert_array_equal(d.b, [0.3, 0.2])

    def test_identity_matrix_decomposition(self):
        m = bo.Mdp(states=("x", "y", "z"), pi0=np.array([1.0, 0.0, 0.0]),
                   actions=("a",), trans={"a": np.eye(3)},
                   secret=frozenset({0}), threshold=1.0)
        d = bo.decomposition(m, "a")
        np.testing.assert_array_equal(d.a1, np.eye(2))
        np.testing.assert_array_equal(d.a2, np.zeros((2, 2)))
        np.testing.assert_array_equal(d.b, np.zeros(2))

    def test_nonnegative_entries(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_mdp(rng, int(rng.integers(2, 6)))
            for a in m.actions:
                d = bo.decomposition(m, a)
                assert np.all(d.a1 >= 0) and np.all(d.a2 >= 0) and np.all(d.b >= 0)
                assert np.all(d.a2 == d.b[:, None])


class TestDecompEval:
    def test_diagonal_matches_belief_update(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        x = np.array([0.3, 0.1])
        expected = bo.reduce_belief(bo.belief_update(bo.lift_belief(x), "a1", mdp3))
        np.testing.assert_allclose(bo.decomp_eval(d, x, x), expected, atol=1e-15)
        np.testing.assert_allclose(bo.decomp_eval(d, x, x), [0.12, 0.27], atol=1e-12)

    def test_lower_corner_pair(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        out = bo.decomp_eval(d, np.array([0.0, 0.4]), np.array([0.2, 0.6]))
        np.testing.assert_allclose(out, [0.02, 0.16], atol=1e-12)

    def test_upper_corner_pair(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        out = bo.decomp_eval(d, np.array([0.2, 0.6]), np.array([0.0, 0.4]))
        np.testing.assert_allclose(out, [0.10, 0.38], atol=1e-12)

    def test_dimension_mismatch(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        with pytest.raises(ValueError, match="length"):
            bo.decomp_eval(d, np.zeros(3), np.zeros(2))


class TestMixedMonotoneLaws:
    """The decomposition axioms, checked through hypothesis-driven points."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(reduced_points(), st.sampled_from(["a1", "a2"]))
    def test_diagonal_reproduces_the_map(self, x, action):
        h = {"a1": H1, "a2": H2}[action]
        m = bo.Mdp(states=("s1", "s2", "s3"), pi0=PI0, actions=("a1", "a2"),
                   trans={"a1": H1, "a2": H2}, secret=frozenset({0, 1}), threshold=0.8)
        d = bo.decomposition(m, action)
        full = h @ np.append(x, 1.0 - x.sum())
        np.testing.assert_allclose(bo.decomp_eval(d, x, x), full[:2], atol=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(reduced_points(), reduced_points(), reduced_points(),
           st.sampled_from(["a1", "a2"]))
    def test_monotone_in_first_antitone_in_second(self, p, q, y, action):
        m = bo.Mdp(states=("s1", "s2", "s3"), pi0=PI0, actions=("a1", "a2"),
                   trans={"a1": H1, "a2": H2}, secret=frozenset({0, 1}), threshold=0.8)
        d = bo.decomposition(m, action)
        x1, x2 = np.minimum(p, q), np.maximum(p, q)
        assert np.all(bo.decomp_eval(d, x1, y) <= bo.decomp_eval(d, x2, y) + 1e-12)
        assert np.all(bo.decomp_eval(d, y, x2) <= bo.decomp_eval(d, y, x1) + 1e-12)


class TestReachBox:
    def test_first_action_box(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        box = bo.IntervalBox(lo=np.array([0.0, 0.4]), hi=np.array([0.2, 0.6]))
        r = bo.reach_box(d, box)
        np.testing.assert_allclose(r.lo, [0.02, 0.16], atol=1e-12)
        np.testing.assert_allclose(r.hi, [0.10, 0.38], atol=1e-12)

    def test_second_action_box(self, mdp3):
        d = bo.decomposition(mdp3, "a2")
        box = bo.IntervalBox(lo=np.array([0.0, 0.4]), hi=np.array([0.2, 0.6]))
        r = bo.reach_box(d, box)
        np.testing.assert_allclose(r.lo, [0.32, 0.04], atol=1e-12)
        np.testing.assert_allclose(r.hi, [0.65, 0.16], atol=1e-12)

    def test_degenerate_box_is_the_exact_image(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        x = np.array([0.25, 0.3])
        r = bo.reach_box(d, bo.IntervalBox(lo=x, hi=x))
        np.testing.assert_array_equal(r.lo, r.hi)
        np.testing.assert_array_equal(r.lo, bo.decomp_eval(d, x, x))

    def test_containment_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_mdp(rng, int(rng.integers(3, 5)))
            a = m.actions[int(rng.integers(len(m.actions)))]
            d = bo.decomposition(m, a)
            dim = m.n - 1
            p1, p2 = rng.uniform(size=dim), rng.uniform(size=dim)
            box = bo.IntervalBox(lo=np.minimum(p1, p2), hi=np.maximum(p1, p2))
            r = bo.reach_box(d, box)
            x = box.lo + rng.uniform(size=dim) * (box.hi - box.lo)
            fx = bo.decomp_eval(d, x, x)
            assert np.all(r.lo - 1e-12 <= fx) and np.all(fx <= r.hi + 1e-12)
