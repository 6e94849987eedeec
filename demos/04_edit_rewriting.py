#!/usr/bin/env python3
"""Edit-function synthesis: rewrite what the observer sees.

Instead of constraining the system, an edit automaton intercepts each real
action and reports some action enabled at the current abstract belief cell.
The observer's belief then evolves under the reported action, so it can
never enter the forbidden region, while the system itself stays free to act
as it pleases.  The reported stream is always a word the model itself could
have produced.
"""

from pathlib import Path

import numpy as np

import belief_opacity as bo

here = Path(__file__).parent
m = bo.load_model(here / "models" / "three_state.yaml")
m, _ = bo.canonical_reorder(m)

p = bo.build_grid(0.2, m)
result = bo.abstract(m, p)
ea = bo.build_edit_automaton(result.pruned)
print(f"edit automaton: {len(ea.states)} states, {len(ea.edges)} edges, "
      f"initial cell {ea.initial}")
for actual in m.actions:
    print(f"  at cell {ea.initial}, real {actual} may be reported as "
          f"{list(ea.outputs(ea.initial, actual))}")

# one adversarial stream, three rewriting strategies
rng = np.random.default_rng(3)
reals = [m.actions[i] for i in rng.integers(len(m.actions), size=12)]
print(f"\nreal stream: {' '.join(reals)}")
for strategy in bo.STRATEGIES:
    engine = bo.EditEngine(m, p, ea, strategy=strategy, seed=1)
    outputs = [engine.step(a) for a in reals]
    mass = m.secret_mass(engine.observer_belief)
    print(f"  {strategy:15} reports {' '.join(outputs)}  "
          f"(final observer secret mass {mass:.3f})")

# bounded-exhaustive verification of the three requirements: outputs always
# defined, reported words stay in the model's language, opacity holds
report = bo.verify_edit_requirements(ea, m, p, depth=6)
print(f"\nrequirement check: {report}")

# a long randomized run never violates the threshold
# (the engine draws from a stream of seed 7 independent of the actions')
trace = bo.simulate_edited(m, p, ea, bo.random_actions(m, seed=7), 500,
                           strategy="uniform-random", seed=(7, 1))
worst = max(rec.secret_mass for rec in trace)
print(f"500 edited steps: max observer secret mass {worst:.4f} "
      f"(threshold {m.threshold}), violations: "
      f"{bo.opacity_monitor(trace, m.threshold)}")

out = here / "output"
out.mkdir(exist_ok=True)
(out / "edit.dot").write_text(bo.edit_to_dot(ea))
print(f"wrote edit.dot to {out}")
