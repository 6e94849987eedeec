"""Belief-space opacity enforcement for MDPs observed through their actions.

An eavesdropper that sees every action (but no state) of an MDP maintains a
belief over the states.  This package bounds the probability such an
observer can ever assign to a designated secret set: it abstracts the belief
dynamics, which are mixed monotone, into a finite automaton over a grid of
the belief simplex, prunes away everything that can reach the forbidden
region, and then enforces the bound either by restricting the MDP's actions
or by rewriting the observable action stream at runtime.
"""

from .abstraction import (
    BAD_STATE,
    AbstractionResult,
    BadInitialCellError,
    InitialCellPrunedError,
    PruneEvent,
    abstract,
    build_abstraction,
    edges_to_csv,
    format_prune_log,
    nfa_to_dot,
    prune,
)
from .dynamics import (
    AffineDecomposition,
    IntervalBox,
    belief_update,
    decomp_eval,
    decomposition,
    lift_belief,
    reach_box,
    reach_boxes,
    reduce_belief,
)
from .model import (
    Issue,
    Mdp,
    ModelFormatError,
    Nfa,
    ValidationReport,
    canonical_reorder,
    load_model,
    mdp_to_nfa,
    parse_model,
    serialize_model,
    validate_mdp,
)
from .partition import (
    BAD,
    EXCLUDED,
    SAFE,
    Partition,
    PartitionCell,
    RefinementFailedError,
    build_grid,
    locate_cell,
    overlapping_cells,
    partition_to_csv,
    partition_to_svg,
    refine_initial,
)
from .simulation import (
    SoundnessReport,
    SoundnessViolation,
    TraceRecord,
    brute_reach_box,
    opacity_monitor,
    random_actions,
    simulate,
    simulate_edited,
    soundness_check,
    trace_to_csv,
)
from .synthesis import (
    STRATEGIES,
    EditAutomaton,
    EditCounterexample,
    EditEngine,
    EditUndefinedError,
    EditVerifyReport,
    InitialStatePrunedError,
    Policy,
    RestrictedMdp,
    allowed_to_csv,
    build_edit_automaton,
    edit_to_dot,
    policy_to_csv,
    product,
    prune_blocking,
    restrict_actions,
    synthesize_reach_policy,
    verify_edit_requirements,
)

__version__ = "0.1.0"
