"""Command line front end.

Exit codes: 0 success, 2 bad input or configuration, 3 a correction
failed to converge.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from contextlib import contextmanager

from . import experiments
from .estimators import ConvergenceError, EstimationReport, bfs_correct, mhrw_correct, rw_correct
from .graph import GraphFormatError, largest_component_nodes, load_edge_list, stats_row
from .samplers import SampleTrace
from .experiments import ConfigError, GraphSource, trace_from_csv, trace_to_csv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: correction did not converge after {exc.iterations} iterations "
              f"(residual {exc.residual:.3g})", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream reader went away (e.g. piping into head); not an error,
        # but stdout must be detached so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crawlbias",
        description="Measure, predict, and undo the degree bias of graph crawls.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output file, '-' for stdout (default)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--rng-seed", type=int, default=0, help="master seed (default 0)")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--rng-seed", type=int, default=None,
                            help="master seed (default: the config's seed)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common],
                       help="size, moments, and assortativity of an edge list")
    p.add_argument("edgelist", help="whitespace separated edge list file")
    p.add_argument("--raw", action="store_true",
                   help="keep self loops, duplicate edges, and small components")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("generate", parents=[seeded],
                       help="write a random graph with a prescribed degree distribution")
    p.add_argument("--pk", required=True, help=PK_HELP)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--assortativity", type=float, default=None,
                   help="rewire toward this degree correlation after generating")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", parents=[seeded],
                       help="run one crawl and write its trace as CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--edgelist", help="crawl this edge list file")
    src.add_argument("--pk", help=PK_HELP + " (generates a graph first; needs --nodes)")
    p.add_argument("--nodes", type=int, default=None, help="nodes to generate, --pk only")
    p.add_argument("--technique", required=True, choices=experiments.TECHNIQUES)
    p.add_argument("--budget", type=int, required=True,
                   help="nodes to collect (steps, for walks)")
    p.add_argument("--seed-node", type=int, default=None,
                   help="start node, by its id in the edge list "
                        "(default: a uniform draw from the largest component)")
    for name, flag in _PARAM_FLAGS.items():
        param = experiments.TECHNIQUES[name].param
        p.add_argument(flag, dest=name, metavar=param.short.upper(), type=type(param.default),
                       help=f"{param.what}; {name} only (default {param.default})")
    p.add_argument("--raw", action="store_true",
                   help="keep self loops, duplicate edges, and small components; "
                        "--edgelist only")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("curves", parents=[configured],
                       help="run a replicated experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("correct", parents=[common],
                       help="recover unbiased statistics from a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--f", type=float, default=None,
                   help="fraction of the graph covered, --method bfs only "
                        "(default: the trace's f)")
    p.add_argument("--method", choices=list(_METHODS), default=None,
                   help="default: the one for the trace's technique, else bfs")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("compare", parents=[configured],
                       help="RMSE of neighborhood estimators vs corrected traversal")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


#: sample's flag for each technique parameter, --NAME-SHORT: --ff-p, --sbs-n
_PARAM_FLAGS = {name: f"--{name}-{tech.param.short}"
               for name, tech in experiments.TECHNIQUES.items() if tech.param is not None}

PK_HELP = ("degree distribution: 'regular:K', 'bimodal:K1:K2:W1', "
           "'powerlaw:GAMMA:KMIN:KMAX', or a JSON object of fractions")


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def cmd_stats(args: argparse.Namespace) -> int:
    g = load_edge_list(args.edgelist, args.raw)
    row = stats_row(g)
    cols = ["nodes", "edges", "mean_degree", "k2_over_k", "assortativity"]
    with _open_out(args.out) as out:
        experiments.write_rows_csv([row], cols, out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    source = GraphSource("generate", pk=args.pk, nodes=args.nodes,
                         target_assortativity=args.assortativity)
    g, achieved = source.build(random.Random(args.rng_seed))
    header = f"# pk {args.pk} nodes {args.nodes} rng_seed {args.rng_seed}"
    if achieved is not None:
        header += f" target_r {args.assortativity:.12g} achieved_r {achieved:.12g}"
    with _open_out(args.out) as out:
        out.write(header + "\n")
        for u, v in g.edges():
            out.write(f"{u} {v}\n")
    return 0


def _check_flags(*rules: tuple[str, bool, str, str]) -> None:
    """(flag, given, owner, chosen): a flag given with another choice than its
    owner would be ignored, so it fails and names itself."""
    for flag, given, owner, chosen in rules:
        if given and owner != chosen:
            raise ConfigError(f"{flag} applies to {owner} only, not {chosen}")


def cmd_sample(args: argparse.Namespace) -> int:
    technique = f"--technique {args.technique}"
    source = "--pk" if args.edgelist is None else "--edgelist"
    _check_flags(*((flag, getattr(args, name) is not None, f"--technique {name}", technique)
                   for name, flag in _PARAM_FLAGS.items()),
                 ("--nodes", args.nodes is not None, "--pk", source),
                 ("--raw", args.raw, "--edgelist", source))
    rng = random.Random(args.rng_seed)
    if args.edgelist is not None:
        g = load_edge_list(args.edgelist, args.raw)
    else:
        g = GraphSource("generate", pk=args.pk, nodes=args.nodes or 0).build(rng)[0]
    param = experiments.TECHNIQUES[args.technique].param
    value = getattr(args, args.technique, None)  # only the technique's own flag is left set
    tech = experiments.TechniqueSpec(args.technique,
                                     param.default if param and value is None else value)
    if args.seed_node is not None:
        try:
            component = [g.labels.index(args.seed_node)]
        except ValueError:
            raise ConfigError(f"unknown node {args.seed_node}: no such id in the graph") from None
    else:
        component = sorted(largest_component_nodes(g))
    trace = experiments.run_technique(g, component, tech, args.budget, rng)
    with _open_out(args.out) as out:
        trace_to_csv(trace, out, labels=g.labels, rng_seed=args.rng_seed)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """curves and compare: run a config under the subcommand its mode names."""
    cfg = experiments.load_config(args.config)
    mode = experiments.MODES[cfg.mode]
    if mode.command != args.command:
        raise ConfigError(f"mode {cfg.mode!r} runs under the {mode.command} subcommand, "
                          f"not {args.command}")
    if args.rng_seed is not None:
        if "seed" not in mode.reads:
            raise ConfigError(f"--rng-seed: mode {cfg.mode!r} reads no seed")
        cfg.seed = args.rng_seed
    rows = mode.run(cfg)
    with _open_out(args.out) as out:
        experiments.write_rows_csv(rows, mode.columns, out, metadata=[cfg.metadata_line()])
    return 0


def _bfs_method(trace: SampleTrace, f: float | None) -> EstimationReport:
    f_real = f if f is not None else trace.coverage
    if math.isnan(f_real):  # the trace carries no f= metadata
        raise ConfigError("bfs correction needs --f or a trace with coverage metadata")
    return bfs_correct(trace, f_real)


#: correct's methods, and the one a trace of each technique takes by its law
_METHODS = {"bfs": _bfs_method, "rw": lambda trace, _: rw_correct(trace),
           "mhrw": lambda trace, _: mhrw_correct(trace)}
_TECHNIQUE_METHODS = {name: {"walk": "rw", "uniform walk": "mhrw"}.get(tech.law, "bfs")
                      for name, tech in experiments.TECHNIQUES.items()}


def cmd_correct(args: argparse.Namespace) -> int:
    trace = trace_from_csv(args.trace)
    method = args.method or _TECHNIQUE_METHODS.get(trace.technique, "bfs")
    _check_flags(("--f", args.f is not None, "--method bfs", f"--method {method}"))
    report = _METHODS[method](trace, args.f)
    with _open_out(args.out) as out:
        cols = ["method", "sampled_mean", "corrected_mean", "iterations", "t_value", "residual"]
        row = {
            "method": report.technique,
            "sampled_mean": mhrw_correct(trace).mean,  # the plain mean of what is corrected
            "corrected_mean": report.mean,
            "iterations": report.iterations,
            "t_value": report.t_value,
            "residual": report.residual,
        }
        experiments.write_rows_csv([row], cols, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
