"""Workload definitions: the models each workload runs, written as model
documents, plus the numbers the oracles need about them.

Nothing here imports the program.  Random models are drawn exactly as the
test suite's ``random_mdp`` helper draws them (Dirichlet columns, Dirichlet
initial belief, a random strict secret set, threshold 1), from generator
seeds fixed below; they were picked once by ``select_models.py`` and never
change at run time, so every commit runs the same models.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_STATES = ("s1", "s2", "s3")
REF_ACTIONS = ("a1", "a2")
REF_TRANS = {
    "a1": np.array([[0.2, 0.0, 0.1], [0.4, 0.3, 0.2], [0.4, 0.7, 0.7]]),
    "a2": np.array([[0.4, 0.65, 0.3], [0.2, 0.0, 0.2], [0.4, 0.35, 0.5]]),
}
REF_SECRET = (0, 1)
REF_LAMBDA = 0.8
REF_PI0 = (0.3, 0.1, 0.6)
# Just under the threshold (secret mass 0.79), so the initial cell is bad at
# every grid width tried and refine_initial has to split it.
REFINED_PI0 = (0.5, 0.29, 0.21)


@dataclass(frozen=True)
class ModelSpec:
    """One model of a workload, in the state order of its document.

    ``canonical`` is the permutation (new index -> old index) that puts a
    non-secret state last, computed here the way the documented canonical
    reordering does; the oracles work in that order.
    """

    name: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    pi0: np.ndarray
    trans: dict[str, np.ndarray]
    secret: tuple[int, ...]
    threshold: float
    width: float

    @property
    def canonical(self) -> tuple[int, ...]:
        n = len(self.states)
        if (n - 1) not in self.secret:
            return tuple(range(n))
        moved = min(i for i in range(n) if i not in self.secret)
        return tuple([i for i in range(n) if i != moved] + [moved])

    def document(self) -> str:
        def num(v: float) -> str:
            text = repr(float(v))
            # YAML 1.1 reads "1e-05" as a string; a dot makes it a float
            if "e" in text and "." not in text:
                text = text.replace("e", ".0e")
            return text

        def row(values) -> str:
            return "[" + ", ".join(num(v) for v in values) + "]"

        lines = [
            "states: [" + ", ".join(self.states) + "]",
            "actions: [" + ", ".join(self.actions) + "]",
            "pi0: " + row(self.pi0),
            "trans:",
        ]
        for a in self.actions:
            lines.append(f"  {a}:")
            lines.extend("    - " + row(r) for r in self.trans[a])
        lines.append("secret: [" + ", ".join(self.states[i] for i in self.secret) + "]")
        lines.append(f"lambda: {num(self.threshold)}")
        return "\n".join(lines) + "\n"


def reference_model(name: str, pi0, width: float) -> ModelSpec:
    return ModelSpec(
        name=name, states=REF_STATES, actions=REF_ACTIONS, pi0=np.array(pi0, dtype=float),
        trans=REF_TRANS, secret=REF_SECRET, threshold=REF_LAMBDA, width=width,
    )


def random_model(gen_seed: int, n: int, n_actions: int, width: float) -> ModelSpec:
    """The model ``random_mdp(default_rng(gen_seed), n, n_actions)`` of the
    test suite, before canonical reordering."""
    rng = np.random.default_rng(gen_seed)
    actions = tuple(f"a{k + 1}" for k in range(n_actions))
    trans = {a: np.column_stack([rng.dirichlet(np.ones(n)) for _ in range(n)]) for a in actions}
    pi0 = rng.dirichlet(np.ones(n))
    size = int(rng.integers(1, n))
    secret = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
    return ModelSpec(
        name=f"rand-n{n}-a{n_actions}-g{gen_seed}", states=tuple(f"s{i + 1}" for i in range(n)),
        actions=actions, pi0=pi0, trans=trans, secret=secret, threshold=1.0, width=width,
    )


@dataclass(frozen=True)
class Workload:
    """Models plus per-workload sizes.

    ``fault_models`` names models on which the prune fault stops edit
    streams; they get one fixed stream per round instead of seeded ones.
    ``cli_models`` are the models the CLI invocations run on.
    """

    models: tuple[ModelSpec, ...]
    cli_models: tuple[str, ...]
    fault_models: tuple[str, ...] = ()
    stream_len: int = 2000
    streams_per_batch: int = 1
    synth_per_slot: int = 1
    cli_steps: int = 2000
    verify_depth: int = 6


# Seeds and sizes of rand-batch.  Every model's initial cell survives the
# sound (safety-game) pruning; on all but the fault model the program's
# pruning equals that sound pruning, so no seeded edit stream can fail.
RAND_BATCH = (
    # (generator seed, states, actions, width)
    (100, 4, 2, 0.1),
    (6, 4, 3, 0.1),
    (28, 5, 2, 0.1),
    (5, 5, 3, 0.125),
    (8, 6, 2, 0.2),
)
# On this model the program's pruning keeps actions whose successors it
# deleted; every edit stream's belief enters a deleted cell at step 2.
RAND_FAULT = (911, 4, 2, 0.1)
# The stream run on RAND_FAULT, independent of --seed.
FAULT_STREAM_SEED = 0
FAULT_STREAM_LEN = 50
FAULT_STRATEGY = "lex-first"


def workloads() -> dict[str, Workload]:
    rand = tuple(random_model(*spec) for spec in RAND_BATCH)
    fault = random_model(*RAND_FAULT)
    return {
        "ref-fine": Workload(
            models=(reference_model("ref-fine", REF_PI0, 0.015),),
            cli_models=("ref-fine",),
            stream_len=10000,
            streams_per_batch=4,
            cli_steps=5000,
            verify_depth=8,
        ),
        "ref-refined": Workload(
            models=(reference_model("ref-refined", REFINED_PI0, 0.02),),
            cli_models=("ref-refined",),
            stream_len=3000,
            synth_per_slot=2,
            cli_steps=1000,
            verify_depth=6,
        ),
        "rand-batch": Workload(
            models=rand + (fault,),
            cli_models=(rand[0].name,),
            fault_models=(fault.name,),
            stream_len=2000,
            cli_steps=2000,
            verify_depth=4,
        ),
    }


def write_models(w: Workload, out: Path) -> dict[str, Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec in w.models:
        path = out / f"{spec.name}.yaml"
        path.write_text(spec.document(), encoding="utf-8")
        paths[spec.name] = path
    return paths
