import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belief_opacity as bo
from conftest import random_mdp


class TestSimulate:
    def test_single_step(self, mdp3):
        trace = bo.simulate(mdp3, ["a1"], 1)
        assert len(trace) == 2
        np.testing.assert_allclose(trace[1].belief, [0.12, 0.27, 0.61], atol=1e-12)
        assert abs(trace[1].secret_mass - 0.39) < 1e-12
        assert trace[1].real_action == trace[1].output_action == "a1"

    def test_zero_steps_records_the_initial_belief(self, mdp3):
        trace = bo.simulate(mdp3, [], 0)
        assert len(trace) == 1
        np.testing.assert_array_equal(trace[0].belief, [0.3, 0.1, 0.6])
        assert abs(trace[0].secret_mass - 0.4) < 1e-15
        assert trace[0].real_action is None

    def test_identity_model_is_constant(self):
        m = bo.Mdp(states=("x", "y"), pi0=np.array([0.25, 0.75]), actions=("a",),
                   trans={"a": np.eye(2)}, secret=frozenset({0}), threshold=1.0)
        trace = bo.simulate(m, ["a"] * 10, 10)
        for rec in trace:
            np.testing.assert_array_equal(rec.belief, m.pi0)

    def test_callable_source_and_cells(self, mdp3, partition3):
        trace = bo.simulate(mdp3, lambda t, b: "a1", 3, p=partition3)
        for rec in trace:
            assert rec.cell_id == bo.locate_cell(bo.reduce_belief(rec.belief), partition3)

    def test_short_action_list_rejected(self, mdp3):
        with pytest.raises(ValueError, match="actions"):
            bo.simulate(mdp3, ["a1"], 2)

    def test_beliefs_stay_distributions_over_long_runs(self):
        rng = np.random.default_rng(19)
        m = random_mdp(rng, 4)
        trace = bo.simulate(m, bo.random_actions(m, seed=3), 1000)
        for rec in trace:
            assert abs(rec.belief.sum() - 1.0) < 1e-9
            assert np.all(rec.belief >= 0)


class TestSimulateEdited:
    def test_outputs_and_observer_belief(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        trace = bo.simulate_edited(mdp3, partition3, ea, ["a2", "a2", "a2"], 3)
        assert [r.real_action for r in trace[1:]] == ["a2", "a2", "a2"]
        assert [r.output_action for r in trace[1:]] == ["a1", "a1", "a1"]
        np.testing.assert_allclose(trace[1].belief, [0.12, 0.27, 0.61], atol=1e-12)

    def test_cells_are_the_engine_cells(self, mdp3, partition3, abstraction3, monkeypatch):
        # the engine has located every belief already; the trace reuses its cell
        ea = bo.build_edit_automaton(abstraction3.pruned)
        trace = bo.simulate_edited(mdp3, partition3, ea, bo.random_actions(mdp3, seed=2), 40)
        for rec in trace:
            assert rec.cell_id == bo.locate_cell(bo.reduce_belief(rec.belief), partition3)

        def located_again(*args):
            raise AssertionError("belief located a second time")

        monkeypatch.setattr(bo.simulation, "locate_cell", located_again)
        again = bo.simulate_edited(mdp3, partition3, ea, bo.random_actions(mdp3, seed=2), 40)
        assert [r.cell_id for r in again] == [r.cell_id for r in trace]

    def test_never_violates_the_threshold(self, mdp3, partition3, abstraction3):
        ea = bo.build_edit_automaton(abstraction3.pruned)
        trace = bo.simulate_edited(
            mdp3, partition3, ea, bo.random_actions(mdp3, seed=4), 200,
            strategy="uniform-random", seed=4,
        )
        assert bo.opacity_monitor(trace, mdp3.threshold) is None


class TestOpacityMonitor:
    def test_first_action_only_never_violates(self, mdp3):
        trace = bo.simulate(mdp3, ["a1"] * 100, 100)
        assert bo.opacity_monitor(trace, 0.8) is None

    def test_tight_threshold_flags_the_initial_belief(self, mdp3):
        trace = bo.simulate(mdp3, ["a1"], 1)
        assert bo.opacity_monitor(trace, 0.39) == 0

    def test_threshold_one_never_fires(self):
        rng = np.random.default_rng(21)
        m = random_mdp(rng, 3)
        trace = bo.simulate(m, bo.random_actions(m, seed=1), 50)
        assert bo.opacity_monitor(trace, 1.0) is None


class TestSoundnessCheck:
    def test_reference_model_exhaustive(self, mdp3, partition3):
        raw = bo.build_abstraction(mdp3, partition3, overlap_mode="closed")
        report = bo.soundness_check(mdp3, partition3, raw, depth=6, samples=100)
        assert report.ok
        assert report.sequences_checked == 64

    def test_fault_injection_is_detected(self, mdp3, partition3):
        raw = bo.build_abstraction(mdp3, partition3, overlap_mode="closed")
        initial = bo.locate_cell(bo.reduce_belief(mdp3.pi0), partition3)
        first_move = bo.locate_cell(
            bo.reduce_belief(bo.belief_update(mdp3.pi0, "a1", mdp3)), partition3
        )
        delta = {k: set(v) for k, v in raw.delta.items()}
        delta[(initial, "a1")].discard(first_move)
        broken = bo.Nfa(states=raw.states, alphabet=raw.alphabet,
                        delta=delta, initial=raw.initial)
        report = bo.soundness_check(mdp3, partition3, broken, depth=3, samples=10)
        assert not report.ok
        v = report.violations[0]
        assert (v.from_cell, v.action, v.to_state) == (initial, "a1", first_move)

    def test_depth_zero_is_trivially_sound(self, mdp3, partition3):
        raw = bo.build_abstraction(mdp3, partition3, overlap_mode="closed")
        assert bo.soundness_check(mdp3, partition3, raw, depth=0, samples=1).ok

    def test_random_models_closed_mode(self):
        from dataclasses import replace

        rng = np.random.default_rng(57)
        checked = 0
        for seed in range(120):
            if checked >= 25:
                break
            m = random_mdp(rng, int(rng.integers(3, 5)))
            mass0 = m.secret_mass(m.pi0)
            m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.1, 0.6))))
            p = bo.build_grid(0.25, m)
            x0 = bo.reduce_belief(m.pi0)
            try:
                if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                    p = bo.refine_initial(p, x0, m)
                raw = bo.build_abstraction(m, p, overlap_mode="closed")
            except (bo.BadInitialCellError, bo.RefinementFailedError):
                continue
            checked += 1
            assert bo.soundness_check(m, p, raw, depth=4, samples=50).ok
        assert checked >= 15

    def test_random_models_strict_mode(self):
        # strict overlap is sound as long as no trajectory point lands
        # exactly on a cell boundary; generic random matrices never do
        from dataclasses import replace

        rng = np.random.default_rng(59)
        checked = 0
        for seed in range(80):
            if checked >= 15:
                break
            m = random_mdp(rng, 3)
            mass0 = m.secret_mass(m.pi0)
            m = replace(m, threshold=min(1.0, mass0 + float(rng.uniform(0.1, 0.6))))
            p = bo.build_grid(0.2, m)
            x0 = bo.reduce_belief(m.pi0)
            try:
                if p.cell(bo.locate_cell(x0, p)).status == bo.BAD:
                    p = bo.refine_initial(p, x0, m)
                raw = bo.build_abstraction(m, p, overlap_mode="strict")
            except (bo.BadInitialCellError, bo.RefinementFailedError):
                continue
            checked += 1
            assert bo.soundness_check(m, p, raw, depth=4, samples=50).ok
        assert checked >= 10


class TestBruteReachBox:
    def test_contained_in_the_two_corner_bound(self, mdp3):
        box = bo.IntervalBox(lo=np.array([0.0, 0.4]), hi=np.array([0.2, 0.6]))
        for action in ("a1", "a2"):
            d = bo.decomposition(mdp3, action)
            outer = bo.reach_box(d, box)
            inner = bo.brute_reach_box(d, box, samples=10_000)
            assert np.all(inner.lo >= outer.lo - 1e-12)
            assert np.all(inner.hi <= outer.hi + 1e-12)

    def test_degenerate_box_is_the_exact_point(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        x = np.array([0.3, 0.1])
        inner = bo.brute_reach_box(d, bo.IntervalBox(lo=x, hi=x), samples=10)
        outer = bo.reach_box(d, bo.IntervalBox(lo=x, hi=x))
        np.testing.assert_array_equal(inner.lo, inner.hi)
        np.testing.assert_allclose(inner.lo, outer.lo, atol=1e-15)

    def test_sampling_is_seed_deterministic(self, mdp3):
        d = bo.decomposition(mdp3, "a2")
        box = bo.IntervalBox(lo=np.array([0.0, 0.0]), hi=np.array([0.4, 0.4]))
        b1 = bo.brute_reach_box(d, box, samples=500, seed=9)
        b2 = bo.brute_reach_box(d, box, samples=500, seed=9)
        assert b1 == b2

    def test_rejects_boxes_outside_the_domain(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        box = bo.IntervalBox(lo=np.array([0.9, 0.9]), hi=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="domain"):
            bo.brute_reach_box(d, box, samples=100)

    def test_sample_count_validation(self, mdp3):
        d = bo.decomposition(mdp3, "a1")
        box = bo.IntervalBox(lo=np.zeros(2), hi=np.ones(2) * 0.1)
        with pytest.raises(ValueError):
            bo.brute_reach_box(d, box, samples=0)

    def test_containment_on_random_models(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            m = random_mdp(rng, int(rng.integers(3, 5)))
            a = m.actions[int(rng.integers(len(m.actions)))]
            d = bo.decomposition(m, a)
            dim = m.n - 1
            p1 = rng.dirichlet(np.ones(m.n))[:dim]  # inside the domain
            p2 = p1 + rng.uniform(0, 0.3, size=dim)
            box = bo.IntervalBox(lo=p1, hi=np.minimum(p2, 1.0))
            outer = bo.reach_box(d, box)
            inner = bo.brute_reach_box(d, box, samples=300, seed=int(rng.integers(1000)))
            assert np.all(inner.lo >= outer.lo - 1e-12)
            assert np.all(inner.hi <= outer.hi + 1e-12)


class TestTraceCsv:
    def test_layout(self, mdp3, partition3):
        trace = bo.simulate(mdp3, ["a1"], 1, p=partition3)
        lines = bo.trace_to_csv(trace, mdp3).splitlines()
        assert lines[0] == "step,real,output,belief_s1,belief_s2,belief_s3,secret_mass,cell"
        assert lines[1].startswith("0,,,0.3,0.1,0.6,")
        assert lines[2].startswith("1,a1,a1,")


def test_import_leaves_scipy_unloaded():
    # SciPy is loaded on first use by brute_reach_box, not at package import
    src = str(Path(bo.__file__).resolve().parents[1])
    code = "import sys, belief_opacity; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
