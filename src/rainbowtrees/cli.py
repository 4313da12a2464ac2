"""Command line front end for the rainbow tree toolkit.

Subcommands: gen (random or dense-seed graphs as edge-list text), colour
(uniform edge colouring), one Monte Carlo subcommand per harness.KINDS
row with a command name, and lemma-stats (violation frequencies for the
supporting inequalities).  Every run reproduces from --seed; trial i
draws from stream (seed, i).  Trial records go to CSV rows
`trial,seed,outcome,stage,metric_json,ms`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from typing import Dict, Optional, Sequence

from .errors import ParameterError, RainbowTreesError
from .graphs import (SEED_KINDS, gen_gnp, gen_seed_graph, perturb,
                     uniform_colouring)
from .harness import (KINDS, LEMMA_KINDS, TREE_SOURCES, TrialConfig,
                      estimate, lemma_stats, run_trials, write_records)
from .io import format_edge_list, parse_edge_list, read_text, write_text
from .rng import RandomSource


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return read_text(path)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _check_out(path: Optional[str]) -> None:
    """Reject an --out in a missing directory before any trial runs."""
    folder = os.path.dirname(path or "")
    if folder and not os.path.isdir(folder):
        raise ParameterError("--out directory %r does not exist" % folder)


def _parse_knobs(raw: Optional[str]):
    if not raw:
        return None
    try:
        knobs = json.loads(raw)
    except ValueError as exc:
        raise ParameterError("--knobs must be a JSON object: %s" % exc)
    if not isinstance(knobs, dict):
        raise ParameterError("--knobs must be a JSON object, got %r" % raw)
    return knobs


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    src = RandomSource(args.seed)
    if args.kind == "gnp":
        n = args.n
        p = args.p if args.p is not None \
            else min(1.0, 10.0 * math.log(max(2, n)) / n)
        graph = gen_gnp(n, p, src.substream("graph"))
    else:
        graph = gen_seed_graph(args.n, args.delta, args.kind,
                               src.substream("graph"))
        if args.p:
            graph = perturb(graph, args.p, src.substream("perturb"))
    _emit_text(format_edge_list(graph), args.out)
    return 0


def _cmd_colour(args) -> int:
    graph = parse_edge_list(_read_input(args.infile))
    palette = args.palette if args.palette is not None else graph.n
    coloured = uniform_colouring(graph, palette,
                                 RandomSource(args.seed).substream("colour"))
    _emit_text(format_edge_list(coloured), args.out)
    return 0


# the flag of each TrialConfig field but kind, which the subcommand
# sets, and lemma_kind, which is lemma-stats' --kind
FIELD_FLAGS: Dict[str, tuple] = {
    "n": ("--n", dict(type=int, help="host vertex count")),
    "p": ("--p", dict(type=float, help="edge probability")),
    "palette_size": ("--palette", dict(type=int, help="palette size")),
    "eps": ("--eps", dict(type=float, help="leftover or trim fraction")),
    "delta": ("--delta", dict(type=float, help="seed min-degree fraction")),
    "alpha": ("--alpha", dict(type=float, help="colour surplus fraction")),
    "d": ("--d", dict(type=int, help="tree degree bound")),
    "tree_source": ("--tree-source", dict(choices=TREE_SOURCES)),
    "seed_kind": ("--seed-kind", dict(choices=SEED_KINDS)),
    "trials": ("--trials", dict(type=int, help="trial count")),
    "base_seed": ("--seed", dict(type=int, help="base random seed")),
    "tree_frac": ("--tree-frac", dict(type=float, help="tree order / n")),
    "gamma": ("--gamma", dict(type=float, help="colour shortfall fraction")),
    "beta": ("--beta", dict(type=float, help="random graph order / n")),
    "samples": ("--samples", dict(type=int, help="pools sampled per trial")),
    "knobs": ("--knobs", dict(help="JSON object of tuning knobs")),
}

_REQUIRED = {f.name for f in dataclasses.fields(TrialConfig)
             if f.default is dataclasses.MISSING}


def _given_fields(args) -> Dict[str, object]:
    """The TrialConfig fields whose flags were given, knobs parsed."""
    args.knobs = _parse_knobs(args.knobs)
    return {name: getattr(args, name) for name in FIELD_FLAGS
            if getattr(args, name) is not None}


def _cmd_trials(args) -> int:
    _check_out(args.out)
    config = TrialConfig(kind=args.kind, **_given_fields(args))
    records = run_trials(config, workers=args.workers)
    if args.out:
        write_records(args.out, records)
    if not records:
        print("trials=0 (nothing run)")
        return 0
    est = estimate(records)
    print("successes=%d trials=%d rate=%.4f wilson95=[%.4f,%.4f]"
          % (est.successes, est.trials, est.point, est.lower, est.upper))
    fails = Counter(rec.stage for rec in records if rec.outcome == "fail")
    if fails:
        print("failures by stage: "
              + ", ".join("%s=%d" % kv for kv in sorted(fails.items())))
    if args.out:
        print("wrote %s (%d rows)" % (args.out, len(records)))
    return 0


def _cmd_lemma_stats(args) -> int:
    _check_out(args.out)
    params = _given_fields(args)
    run = {key: params.pop(key) for key in ("trials", "base_seed")
           if key in params}
    summary = lemma_stats(args.kind, params, workers=args.workers, **run)
    bound = "-" if summary.bound is None else "%.6g" % summary.bound
    print("kind=%s trials=%d violations=%d aborted=%d frequency=%.4f bound=%s"
          % (summary.kind, summary.trials, summary.violations,
             summary.aborted, summary.frequency, bound))
    if args.out:
        write_records(args.out, summary.records)
        print("wrote %s (%d rows)" % (args.out, len(summary.records)))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_run_flags(sp, required: bool) -> None:
    """The FIELD_FLAGS flags, unset by default (with `required`, those of
    fields without a TrialConfig default are mandatory), then the rest."""
    for name, (flag, kwargs) in FIELD_FLAGS.items():
        sp.add_argument(flag, dest=name,
                        required=required and name in _REQUIRED, **kwargs)
    sp.add_argument("--workers", type=int, default=1, help="worker processes")
    sp.add_argument("--out", default=None, help="write CSV records here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowtrees",
        description="Rainbow tree embeddings in randomly perturbed graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a graph as edge-list text")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, default=None,
                    help="edge probability (default 10 ln(n)/n for gnp, "
                         "0 for seed kinds)")
    sp.add_argument("--kind", choices=("gnp",) + SEED_KINDS, default="gnp")
    sp.add_argument("--delta", type=float, default=0.4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None,
                    help="edge-list file; - or no --out writes to stdout")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("colour", help="colour an edge list uniformly")
    sp.add_argument("--in", dest="infile", required=True,
                    help="edge-list file, or - for stdin")
    sp.add_argument("--palette", type=int, default=None,
                    help="palette size (default: vertex count)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None,
                    help="edge-list file; - or no --out writes to stdout")
    sp.set_defaults(func=_cmd_colour)

    for kind, entry in KINDS.items():
        if entry.command is not None:
            sp = sub.add_parser(entry.command, help=entry.help)
            _add_run_flags(sp, required=True)
            sp.set_defaults(func=_cmd_trials, kind=kind, trials=20)

    sp = sub.add_parser("lemma-stats",
                        help="violation frequencies for supporting bounds")
    sp.add_argument("--kind", required=True, choices=LEMMA_KINDS)
    _add_run_flags(sp, required=False)
    sp.set_defaults(func=_cmd_lemma_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RainbowTreesError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
