"""Belief-space opacity enforcement for MDPs observed through their actions.

An eavesdropper that sees every action (but no state) of an MDP maintains a
belief over the states.  This package bounds the probability such an
observer can ever assign to a designated secret set: it abstracts the belief
dynamics, which are mixed monotone, into a finite automaton over a grid of
the belief simplex, prunes away everything that can reach the forbidden
region, and then enforces the bound either by restricting the MDP's actions
or by rewriting the observable action stream at runtime.

The package namespace is lazy (PEP 562): ``import belief_opacity`` loads no
submodule, NumPy or PyYAML.  The first access to an exported name, or to a
submodule such as ``belief_opacity.partition``, imports the module that owns
it and keeps the name here, so loading a model imports only ``model`` and
later accesses are plain attribute reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module's exported names, as in its __all__
_EXPORTS = {
    "abstraction": (
        "BAD_STATE",
        "AbstractionResult",
        "BadInitialCellError",
        "InitialCellPrunedError",
        "PruneEvent",
        "abstract",
        "build_abstraction",
        "edges_to_csv",
        "format_prune_log",
        "nfa_to_dot",
        "prune",
    ),
    "dynamics": (
        "AffineDecomposition",
        "IntervalBox",
        "belief_update",
        "decomp_eval",
        "decomposition",
        "lift_belief",
        "reach_box",
        "reach_boxes",
        "reduce_belief",
    ),
    "model": (
        "Issue",
        "Mdp",
        "ModelFormatError",
        "Nfa",
        "ValidationReport",
        "canonical_reorder",
        "load_model",
        "mdp_to_nfa",
        "parse_model",
        "serialize_model",
        "validate_mdp",
    ),
    "partition": (
        "BAD",
        "EXCLUDED",
        "SAFE",
        "Partition",
        "PartitionCell",
        "RefinementFailedError",
        "build_grid",
        "locate_cell",
        "overlapping_cells",
        "partition_to_csv",
        "partition_to_svg",
        "refine_initial",
    ),
    "simulation": (
        "SoundnessReport",
        "SoundnessViolation",
        "TraceRecord",
        "brute_reach_box",
        "opacity_monitor",
        "random_actions",
        "simulate",
        "simulate_edited",
        "soundness_check",
        "trace_to_csv",
    ),
    "synthesis": (
        "STRATEGIES",
        "EditAutomaton",
        "EditCounterexample",
        "EditEngine",
        "EditUndefinedError",
        "EditVerifyReport",
        "InitialStatePrunedError",
        "Policy",
        "RestrictedMdp",
        "allowed_to_csv",
        "build_edit_automaton",
        "edit_to_dot",
        "policy_to_csv",
        "product",
        "prune_blocking",
        "restrict_actions",
        "synthesize_reach_policy",
        "verify_edit_requirements",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
