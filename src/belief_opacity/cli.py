"""Command-line pipeline: validate, abstract, synthesize, simulate.

All data artifacts go to files under ``--out`` with fixed names; stdout and
stderr carry logs only (except ``validate``, whose report is the output).
Identical arguments and seed produce byte-identical artifacts.

Exit codes: 0 success, 1 model validation failure, 2 I/O or syntax error
(including a one-state model where a belief abstraction is needed, a
negative ``--steps`` or ``--seed``, and widths giving a grid too large to
allocate), 3 the initial abstraction state was pruned (or could not be
refined), 4 restriction left an initial MDP state without actions, 5 the
simulated trace violated the opacity threshold, 6 the edit engine had no
output for the edited stream (its belief left the edit automaton).
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from .abstraction import (
    BadInitialCellError,
    InitialCellPrunedError,
    abstract,
    build_abstraction,
    edges_to_csv,
    format_prune_log,
    nfa_to_dot,
    prune,
)
from .dynamics import reduce_belief
from .model import ModelFormatError, canonical_reorder, load_model, validate_mdp
from .partition import (
    RefinementFailedError,
    build_grid,
    partition_to_csv,
    partition_to_svg,
    refine_initial,
)
from .simulation import opacity_monitor, random_actions, simulate, simulate_edited, trace_to_csv
from .synthesis import (
    EditUndefinedError,
    InitialStatePrunedError,
    STRATEGIES,
    allowed_to_csv,
    build_edit_automaton,
    edit_to_dot,
    policy_to_csv,
    prune_blocking,
    restrict_actions,
    synthesize_reach_policy,
)

log = logging.getLogger("belief_opacity")


class _ValidationFailed(Exception):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def _parse_widths(text: str, dim: int) -> list[float]:
    """One positive, finite grid width per reduced dimension, or one value
    to broadcast."""
    try:
        widths = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ModelFormatError(f"invalid widths {text!r}") from None
    if not widths or not all(math.isfinite(w) and w > 0 for w in widths):
        raise ModelFormatError(f"widths must be positive finite numbers, got {text!r}")
    if len(widths) not in (1, dim):
        raise ModelFormatError(f"expected {dim} grid widths (or one), got {len(widths)}")
    return widths


def _load_validated(args):
    m = load_model(args.model)
    report = validate_mdp(m)
    if not report.ok:
        raise _ValidationFailed(report)
    if getattr(args, "lambda_override", None) is not None:
        lam = args.lambda_override
        if not 0.0 <= lam <= 1.0:
            raise ModelFormatError(f"--lambda must lie in [0, 1], got {lam}")
        m = replace(m, threshold=lam)
    m, _ = canonical_reorder(m)
    return m


def _prepare_partition(args, m):
    if m.n < 2:
        raise ModelFormatError("belief abstraction needs at least two states")
    widths = _parse_widths(args.widths, m.n - 1)
    try:
        p = build_grid(widths[0] if len(widths) == 1 else widths, m)
    except ValueError as exc:  # a grid too large to allocate
        raise ModelFormatError(str(exc)) from None
    refined = refine_initial(p, reduce_belief(m.pi0), m)
    if refined is not p:
        log.info("initial belief in a bad cell; refining the partition")
    return refined


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    log.info("wrote %s", path)


def cmd_validate(args) -> int:
    try:
        m = load_model(args.model)
    except (ModelFormatError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    report = validate_mdp(m)
    print(report)
    return 0 if report.ok else 1


def cmd_abstract(args) -> int:
    m = _load_validated(args)
    p = _prepare_partition(args, m)
    out = _outdir(args)
    nfa = build_abstraction(m, p, overlap_mode=args.overlap)
    _write(out / "cells.csv", partition_to_csv(p))
    _write(out / "abstraction.dot", nfa_to_dot(nfa))
    if p.dim == 2:
        _write(out / "partition.svg", partition_to_svg(p, m, initial=reduce_belief(m.pi0)))
    initial_cell = next(iter(nfa.initial))
    try:
        pruned, events = prune(nfa, initial_cell)
    except InitialCellPrunedError as exc:
        _write(out / "log.txt", format_prune_log(exc.events) + f"failed: {exc}\n")
        log.error("%s", exc)
        return 3
    _write(out / "pruned.dot", nfa_to_dot(pruned))
    _write(out / "edges.csv", edges_to_csv(pruned))
    _write(out / "log.txt", format_prune_log(events))
    log.info(
        "abstraction: %d safe cells, initial cell %d, %d pruning events",
        len(nfa.states) - 1, initial_cell, len(events),
    )
    return 0


def cmd_synthesize(args) -> int:
    m = _load_validated(args)
    targets = [t for t in (args.target or "").split(",") if t]
    unknown = [t for t in targets if t not in m.states]
    if unknown:
        raise ModelFormatError(f"unknown target states {unknown}")
    p = _prepare_partition(args, m)
    out = _outdir(args)
    result = abstract(m, p, overlap_mode=args.overlap)
    if args.mode == "direct":
        restricted = prune_blocking(restrict_actions(m, result.pruned))
        _write(out / "allowed.csv", allowed_to_csv(restricted))
        if args.target:
            policy = synthesize_reach_policy(restricted, targets)
            _write(out / "policy.csv", policy_to_csv(policy))
    else:
        ea = build_edit_automaton(result.pruned)
        _write(out / "edit.dot", edit_to_dot(ea))
    return 0


def cmd_simulate(args) -> int:
    m = _load_validated(args)
    if args.steps < 0:
        raise ModelFormatError(f"--steps must be non-negative, got {args.steps}")
    if args.seed < 0:
        raise ModelFormatError(f"--seed must be non-negative, got {args.seed}")
    out = _outdir(args)
    if args.actions == "random":
        source = random_actions(m, seed=args.seed)
    else:
        names = [a for a in args.actions.split(",") if a]
        unknown = [a for a in names if a not in m.actions]
        if unknown:
            raise ModelFormatError(f"unknown actions {unknown}")
        if not names:
            raise ModelFormatError("--actions must name at least one action")
        source = itertools.cycle(names)

    if args.edited:
        if args.widths is None:
            raise ModelFormatError("--edited requires --widths")
        p = _prepare_partition(args, m)
        result = abstract(m, p, overlap_mode=args.overlap)
        ea = build_edit_automaton(result.pruned)
        # the engine's draws are a stream of --seed independent of the
        # random actions' own
        trace = simulate_edited(
            m, p, ea, source, args.steps, strategy=args.strategy, seed=(args.seed, 1)
        )
    else:
        trace = simulate(m, source, args.steps)

    _write(out / "trace.csv", trace_to_csv(trace, m))
    step = opacity_monitor(trace, m.threshold)
    if step is not None:
        log.error("opacity violated at step %d (threshold %s)", step, m.threshold)
        return 5
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belief-opacity",
        description="Privacy-preserving controller synthesis for action-observed MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, widths_required=True):
        sp.add_argument("--model", required=True, help="model document path")
        sp.add_argument("--lambda", dest="lambda_override", type=float, default=None,
                        help="override the model's opacity threshold")
        sp.add_argument("--widths", required=widths_required, default=None,
                        help="comma-separated grid widths (one value is broadcast)")
        sp.add_argument("--overlap", choices=("strict", "closed"), default="strict",
                        help="box-overlap rule: strict (the default) is the paper's reading "
                             "and can miss moves of beliefs on cell faces; closed does not")
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("validate", help="parse and validate a model document")
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("abstract", help="partition, abstract, and prune")
    common(sp)
    sp.set_defaults(func=cmd_abstract)

    sp = sub.add_parser("synthesize", help="direct action restriction or edit automaton")
    common(sp)
    sp.add_argument("--mode", choices=("direct", "edit"), required=True)
    sp.add_argument("--target", default=None,
                    help="comma-separated target states (direct mode policy)")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("simulate", help="run the belief trace and monitor opacity")
    common(sp, widths_required=False)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the random actions and of the uniform-random strategy")
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--actions", default="random",
                    help="comma-separated actions (cycled) or 'random'")
    sp.add_argument("--edited", action="store_true",
                    help="route actions through the edit engine")
    sp.add_argument("--strategy", choices=STRATEGIES, default="lex-first")
    sp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.INFO)
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _ValidationFailed as exc:
        print(exc.report)
        return 1
    except (ModelFormatError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except (BadInitialCellError, RefinementFailedError, InitialCellPrunedError) as exc:
        log.error("%s", exc)
        return 3
    except InitialStatePrunedError as exc:
        log.error("%s", exc)
        return 4
    except EditUndefinedError as exc:
        log.error("%s", exc)
        return 6


if __name__ == "__main__":
    sys.exit(main())
