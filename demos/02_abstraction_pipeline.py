#!/usr/bin/env python3
"""From belief dynamics to a finite automaton.

Dropping the last belief coordinate makes the per-action update affine with
nonnegative coefficient blocks, so it is mixed monotone: evaluating the
decomposition f(x, y) = A1 x - A2 y + B at the two corners of a box bounds
the image of the whole box.  Gridding the reduced simplex and connecting
cells whose reach boxes overlap gives a finite automaton over-approximating
every belief trajectory; pruning removes whatever can reach the region where
the secret mass exceeds the threshold.

Artifacts (cell table, automaton graphs, partition plot) land in
demos/output/.
"""

from pathlib import Path

import numpy as np

import belief_opacity as bo

here = Path(__file__).parent
out = here / "output"
out.mkdir(exist_ok=True)

m = bo.load_model(here / "models" / "three_state.yaml")
m, _ = bo.canonical_reorder(m)

# the two-corner reach bound, on one cell
p = bo.build_grid(0.2, m)
counts = p.counts()
print(f"grid 0.2: {counts['safe']} safe, {counts['bad']} bad, "
      f"{counts['excluded']} outside the simplex")

cell = p.safe_cells()[2]
for action in m.actions:
    d = bo.decomposition(m, action)
    r = bo.reach_box(d, cell.box)
    inner = bo.brute_reach_box(d, cell.box, samples=4096)
    print(f"cell {cell.id} under {action}:")
    print(f"  two-corner bound   [{r.lo[0]:.3f}, {r.hi[0]:.3f}] x "
          f"[{r.lo[1]:.3f}, {r.hi[1]:.3f}]")
    print(f"  sampled true image [{inner.lo[0]:.3f}, {inner.hi[0]:.3f}] x "
          f"[{inner.lo[1]:.3f}, {inner.hi[1]:.3f}]")

# abstraction and pruning
result = bo.abstract(m, p, overlap_mode="strict")
print(f"\ninitial belief cell: {result.initial_cell}")
print("pruning log:")
print(bo.format_prune_log(result.log).rstrip() or "  nothing pruned")
print("surviving automaton:")
for q in result.pruned.order:
    for a in m.actions:
        succ = sorted(result.pruned.successors(q, a))
        if succ:
            print(f"  {q} --{a}--> {succ}")

# the abstraction simulates every concrete trajectory (closed overlap mode)
raw_closed = bo.build_abstraction(m, p, overlap_mode="closed")
report = bo.soundness_check(m, p, raw_closed, depth=6, samples=64)
print(f"\nsoundness over {report.sequences_checked} action sequences: "
      f"{'ok' if report.ok else report.violations}")

(out / "cells.csv").write_text(bo.partition_to_csv(p))
(out / "abstraction.dot").write_text(bo.nfa_to_dot(result.nfa))
(out / "pruned.dot").write_text(bo.nfa_to_dot(result.pruned))
(out / "partition.svg").write_text(
    bo.partition_to_svg(p, m, initial=bo.reduce_belief(m.pi0))
)
print(f"\nwrote cells.csv, abstraction.dot, pruned.dot, partition.svg to {out}")
