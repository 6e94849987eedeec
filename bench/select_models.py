"""Pick the generator seeds of rand-batch (run once; the benchmark never
calls this).

Usage, from the repository root:

    python3 bench/select_models.py

For each size in SEARCH it walks that size's generator seeds and prints
the models whose initial cell survives the sound pruning (the safety-game
fixpoint of ``oracle.safety_fixpoint``), marking whether the program's
pruning equals that fixpoint, how many states it deletes, and, for models
where it does not, whether the fixed fault stream of ``workloads.py`` is
stopped by ``EditUndefinedError``.  The chosen seeds are copied into
``workloads.RAND_BATCH`` and ``workloads.RAND_FAULT`` by hand.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import belief_opacity as bo  # noqa: E402

import oracle  # noqa: E402
import pipeline  # noqa: E402
import workloads as wl  # noqa: E402

# (states, actions, width, generator seeds walked); the seeds of
# workloads.RAND_BATCH and workloads.RAND_FAULT are among them
SEARCH = (
    (4, 2, 0.1, range(96, 108)),
    (4, 3, 0.1, range(12)),
    (5, 2, 0.1, range(24, 36)),
    (5, 3, 0.125, range(12)),
    (6, 2, 0.2, range(12)),
    (4, 2, 0.1, range(904, 916)),
)


def examine(spec, tmp: Path):
    path = tmp / "m.yaml"
    path.write_text(spec.document(), encoding="utf-8")
    om = oracle.OracleModel(spec)
    m = pipeline.load(bo, path)
    try:
        syn = pipeline.synthesize(bo, m, spec.width, om.target)
    except (bo.BadInitialCellError, bo.InitialCellPrunedError, bo.InitialStatePrunedError):
        return None
    sound = oracle.safety_fixpoint(syn.raw.states, syn.raw.alphabet, syn.raw.delta)
    if syn.initial not in sound:
        return None
    same = set(sound) == set(syn.pruned.states) and all(
        set(acts) == set(syn.pruned.enabled(q)) for q, acts in sound.items())
    deletes = sum(e.kind == "delete" for e in syn.events)
    fault = None
    if not same:
        rng = np.random.default_rng(wl.FAULT_STREAM_SEED)
        actions = [m.actions[i] for i in rng.integers(len(m.actions), size=wl.FAULT_STREAM_LEN)]
        try:
            pipeline.run_stream(bo, m, syn, actions, strategy=wl.FAULT_STRATEGY)
            fault = "stream passes"
        except bo.EditUndefinedError as exc:
            fault = f"stream stops: {exc}"
    cells = syn.partition.counts()
    return same, deletes, cells, fault


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for n, n_actions, width, seeds in SEARCH:
            for gen_seed in seeds:
                spec = wl.random_model(gen_seed, n, n_actions, width)
                res = examine(spec, Path(tmp))
                if res is None:
                    continue
                same, deletes, cells, fault = res
                print(f"n={n} a={n_actions} w={width} seed={gen_seed}: "
                      f"{'sound' if same else 'FAULT'} deletes={deletes} cells={cells}"
                      + (f" {fault}" if fault else ""), flush=True)


if __name__ == "__main__":
    main()
