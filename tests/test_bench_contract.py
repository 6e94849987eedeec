"""The program names and attributes the benchmark reads.

``bench/run.py`` calls the program through ``bench/pipeline.py`` and reads
the results' fields directly; a name it reads that the program no longer
has would end a benchmark run with a traceback.  These tests load
``bench/workloads.py`` and ``bench/pipeline.py`` by file path, leave them as
they are, and touch every name the benchmark reads on every workload model.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import belief_opacity as bo

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


wl = load_bench("workloads")
pipeline = load_bench("pipeline")
WORKLOADS = wl.workloads()
MODELS = [(w, spec) for w in WORKLOADS.values() for spec in w.models]


def test_every_package_name_the_benchmark_reads_exists():
    names = {name for path in BENCH.glob("*.py")
             for name in re.findall(r"\bbo\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8"))}
    assert {"EditUndefinedError", "locate_cell", "verify_edit_requirements"} <= names
    assert sorted(n for n in names if not hasattr(bo, n)) == []


@pytest.mark.parametrize("w, spec", MODELS, ids=[spec.name for _, spec in MODELS])
def test_pipeline_and_fields_the_benchmark_reads(tmp_path, w, spec):
    m = pipeline.load(bo, wl.write_models(wl.Workload(models=(spec,), cli_models=()),
                                          tmp_path)[spec.name])
    target = m.states[-1]
    syn = pipeline.synthesize(bo, m, spec.width, target)

    p = syn.partition
    cells = p.cells
    assert [c.id for c in cells] == list(p.ids)
    assert all(c.box.lo.shape == c.box.hi.shape == (p.dim,) for c in cells)
    assert {c.status for c in cells} <= {bo.SAFE, bo.BAD, bo.EXCLUDED}
    assert p.cell(cells[0].id) == cells[0]
    assert p.counts()[bo.SAFE] == len(p.safe_cells())

    raw, pruned = syn.raw, syn.pruned
    assert syn.initial in raw.initial
    assert raw.transition_count() == sum(len(dst) for dst in raw.delta.values())
    assert set(raw.states) >= set(pruned.states) and raw.alphabet
    edges = pruned.sorted_edges()
    assert {(q, a) for q, a, _ in edges} == set(pruned.delta)
    assert all(set(pruned.enabled(q)) for q in pruned.states)
    assert {e.kind for e in syn.events} <= {"disable", "delete"}
    assert set(syn.restricted.allowed) and isinstance(syn.policy.choice, dict)
    assert all(0.0 <= v <= 1.0 for v in syn.policy.value.values())
    assert len(syn.edit.edges)

    prod = bo.product(bo.mdp_to_nfa(m), pruned)
    assert len(prod.states)
    box = bo.reach_box(bo.decomposition(m, m.actions[0]), p.safe_cells()[0].box)
    assert box.lo.shape == (p.dim,)
    if spec.name in w.fault_models:
        rng = np.random.default_rng(wl.FAULT_STREAM_SEED)
        actions = [m.actions[i] for i in rng.integers(len(m.actions), size=wl.FAULT_STREAM_LEN)]
        try:
            pipeline.run_stream(bo, m, syn, actions, strategy=wl.FAULT_STRATEGY)
        except bo.EditUndefinedError as exc:
            assert "does not cover" in str(exc)
        return
    rng = np.random.default_rng(0)
    outputs, final = pipeline.run_stream(bo, m, syn, [m.actions[i] for i in
                                                      rng.integers(len(m.actions), size=100)])
    assert len(outputs) == 100 and final.shape == (m.n,)
    assert bo.verify_edit_requirements(syn.edit, m, p, 2).sequences_checked > 0
    trace = bo.simulate_edited(m, p, syn.edit, bo.random_actions(m, seed=1), 10,
                               strategy="uniform-random", seed=1)
    assert len(bo.trace_to_csv(trace, m).splitlines()) == len(trace) + 1
