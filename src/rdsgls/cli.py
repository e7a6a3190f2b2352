"""Command-line front end.

Subcommands: gen-graph, simulate, estimate, diagnose, experiment, figure1.
Exit codes: 0 success, 1 usage error, 2 runtime error.  The notes of a
run (sampler restarts, reweighting fallbacks, estimators that gave no
diagnostic point) print to standard error as ``warning: <note>`` lines,
one each, after the output file is written.  They come from the values
the library returns; no command changes the warnings filters.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fileio
from .errors import InvalidParametersError, RdsglsError
from .estimators import ESTIMATORS, FGLS_FALLBACK_NOTE, REWEIGHTINGS, Recipe, run_recipe
from .experiment import emit_diagnostics, figure1_ratio, run_rmse_experiment
from .sampler import WalkConfig, rds_without_replacement
from .seeding import DEFAULT_SEED

# the table's estimators by the name their reports carry: sbm_y and sbm_z
# share the blockmodel estimator "sbm", which runs on the sample's blocks here
PLAIN_ESTIMATORS = {recipe.estimate.name: recipe.estimate for recipe in ESTIMATORS.values()}


def _resolve_seed(value) -> int:
    env = os.environ.get("RDSGLS_SEED")
    if value is not None or env is None:
        return DEFAULT_SEED if value is None else int(value)
    try:
        return int(env)
    except ValueError:
        raise InvalidParametersError(f"RDSGLS_SEED = {env!r} is not an integer") from None


def _parse_levels(text: str):
    """'5..15' or a comma/space list of level counts."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.replace(",", " ").split()]


def _print_notes(notes):
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rdsgls",
        description="Referral sampling simulator and GLS estimator toolkit",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="sample a blockmodel network", exit_on_error=False)
    g.add_argument("--config", required=True, help="config with [network]/[outcomes]")
    g.add_argument("--out-edges", required=True)
    g.add_argument("--out-attributes", required=True)
    g.add_argument("--seed", type=int, default=None)

    s = sub.add_parser("simulate", help="draw one referral sample", exit_on_error=False)
    s.add_argument("--edges", required=True)
    s.add_argument("--attributes", default=None)
    s.add_argument("--outcome", default=None, help="attribute column to record as y")
    s.add_argument("--target", type=int, required=True)
    s.add_argument("--offspring", default="survey")
    s.add_argument("--seed-rule", default="degree_proportional")
    s.add_argument("--max-restarts", type=int, default=1000)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)

    e = sub.add_parser("estimate", help="estimate from a sample CSV", exit_on_error=False)
    e.add_argument("--sample", required=True)
    e.add_argument(
        "--estimator",
        required=True,
        choices=list(PLAIN_ESTIMATORS),
    )
    e.add_argument(
        "--reweight",
        choices=REWEIGHTINGS,
        default="none",
        help="divide outcomes by estimated sampling weights first",
    )
    e.add_argument("--out", required=True)

    d = sub.add_parser("diagnose", help="diagnostic dataset from a sample", exit_on_error=False)
    d.add_argument("--sample", required=True)
    d.add_argument("--out", required=True)

    x = sub.add_parser("experiment", help="replicated RMSE comparison", exit_on_error=False)
    x.add_argument("--config", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--jobs", type=int, default=None)
    x.add_argument("--seed", type=int, default=None)

    f = sub.add_parser("figure1", help="exact variance-ratio table", exit_on_error=False)
    f.add_argument("--p", required=True, help="comma list of staying probabilities")
    f.add_argument("--levels", required=True, help="'5..15' or a list")
    f.add_argument("--out", required=True)

    return parser


def _cmd_gen_graph(args) -> int:
    from .netmodel import dcsbm_sample
    from .seeding import STREAM_OUTCOME, as_rng

    cfg = fileio.load_experiment_config(args.config, seed_override=args.seed)
    if cfg.dcsbm is None:
        raise RdsglsError("gen-graph needs a dcsbm network section")
    graph = dcsbm_sample(cfg.dcsbm, cfg.base_seed)
    rng = as_rng(cfg.base_seed, STREAM_OUTCOME)
    outcomes = {
        name: spec.realize(cfg.dcsbm.z, rng) for name, spec in cfg.outcomes.items()
    }
    fileio.write_edge_list(graph, args.out_edges)
    fileio.write_attributes(args.out_attributes, blocks=cfg.dcsbm.z, outcomes=outcomes)
    return 0


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    graph = fileio.read_edge_list(args.edges, allow_isolated=True)
    graph, kept = graph.largest_component()
    blocks = None
    y = None
    if args.attributes:
        blocks, _, outcomes = fileio.read_attributes(args.attributes)
        if blocks is not None:
            blocks = blocks[kept]
        if args.outcome:
            if args.outcome not in outcomes:
                raise RdsglsError(f"attribute column {args.outcome!r} not found")
            y = outcomes[args.outcome][kept]
    cfg = WalkConfig(
        offspring_pmf=fileio.parse_pmf(args.offspring),
        target_n=args.target,
        seed_rule=fileio.parse_seed_rule(args.seed_rule),
        max_restarts=args.max_restarts,
    )
    sample, restarts = rds_without_replacement(graph, cfg, seed, y=y, blocks=blocks)
    fileio.write_sample(sample, args.out)
    if restarts:
        _print_notes([f"sampling restarted {restarts} times"])
    return 0


def _cmd_estimate(args) -> int:
    recipe = Recipe(args.reweight, PLAIN_ESTIMATORS[args.estimator])
    (report,) = run_recipe(recipe, fileio.read_sample(args.sample))
    fileio.write_report(report, args.out)
    _print_notes(note for note in report.warnings if note == FGLS_FALLBACK_NOTE)
    return 0


def _cmd_diagnose(args) -> int:
    sample = fileio.read_sample(args.sample)
    dataset = emit_diagnostics(sample)
    fileio.write_diagnostics(dataset, args.out)
    _print_notes(dataset.warnings)
    return 0


def _cmd_experiment(args) -> int:
    cfg = fileio.load_experiment_config(
        args.config, seed_override=args.seed, jobs_override=args.jobs
    )
    table = run_rmse_experiment(cfg)
    fileio.write_rmse_table(table, args.out)
    return 0


def _cmd_figure1(args) -> int:
    p_values = [float(v) for v in args.p.split(",")]
    rows = figure1_ratio(p_values, _parse_levels(args.levels))
    fileio.write_figure1(rows, args.out)
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "diagnose": _cmd_diagnose,
    "experiment": _cmd_experiment,
    "figure1": _cmd_figure1,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help, or argparse-internal exits
        code = exc.code or 0
        return 0 if code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (RdsglsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
