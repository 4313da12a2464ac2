"""Command line front end for the rainbow tree toolkit.

Subcommands: gen (random or dense-seed graphs as edge-list text), colour
(uniform edge colouring), embed-almost / embed-spanning / rainbow-st
(Monte Carlo trials over one pipeline each), and lemma-stats (violation
frequencies for the supporting inequalities).  Every run reproduces from
--seed; trial i draws from stream (seed, i).  Trial records go to CSV
rows `trial,seed,outcome,stage,metric_json,ms`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from typing import Optional, Sequence

from .errors import ParameterError, RainbowTreesError
from .graphs import (SEED_KINDS, gen_gnp, gen_seed_graph, perturb,
                     uniform_colouring)
from .harness import (LEMMA_KINDS, TREE_SOURCES, TrialConfig, estimate,
                      lemma_stats, run_trials, write_records)
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


def _cmd_trials(args) -> int:
    config = TrialConfig(kind=args.kind, n=args.n, p=args.p,
                         palette_size=args.palette, eps=args.eps,
                         delta=args.delta, alpha=args.alpha, d=args.d,
                         tree_source=args.tree_source,
                         seed_kind=args.seed_kind, trials=args.trials,
                         base_seed=args.seed, tree_frac=args.tree_frac,
                         knobs=_parse_knobs(args.knobs))
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
    params = {}
    for name in ("n", "p", "alpha", "gamma", "beta", "delta", "eps", "d",
                 "samples"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.seed_kind is not None:
        params["seed_kind"] = args.seed_kind
    knobs = _parse_knobs(args.knobs)
    if knobs is not None:
        params["knobs"] = knobs
    summary = lemma_stats(args.kind, params, args.trials,
                          base_seed=args.seed, workers=args.workers)
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


def _add_common(sp, *, trials_default: int = 20) -> None:
    sp.add_argument("--n", type=int, required=True, help="host vertex count")
    sp.add_argument("--p", type=float, default=None,
                    help="edge probability (kind-appropriate default)")
    sp.add_argument("--palette", type=int, default=None,
                    help="palette size (kind-appropriate default)")
    sp.add_argument("--eps", type=float, default=0.25,
                    help="leftover fraction; the trim override for "
                         "spanning runs")
    sp.add_argument("--delta", type=float, default=0.4,
                    help="seed graph minimum-degree fraction")
    sp.add_argument("--alpha", type=float, default=0.0,
                    help="palette surplus fraction for spanning runs")
    sp.add_argument("--d", type=int, default=3, help="tree degree bound")
    sp.add_argument("--trials", type=int, default=trials_default)
    sp.add_argument("--seed", type=int, default=0, help="base random seed")
    sp.add_argument("--out", default=None, help="write CSV records here")


def _add_trial_extras(sp) -> None:
    sp.add_argument("--tree-source", dest="tree_source",
                    choices=TREE_SOURCES, default="random")
    sp.add_argument("--tree-frac", dest="tree_frac", type=float, default=None,
                    help="tree order as a fraction of n "
                         "(default: the largest the run allows)")
    sp.add_argument("--seed-kind", dest="seed_kind", choices=SEED_KINDS,
                    default="clique-union")
    sp.add_argument("--knobs", default=None,
                    help="JSON object of tuning knobs, e.g. "
                         "'{\"m_mode\": \"balanced\"}'")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes for trials")


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

    for name, kind, blurb in (
            ("embed-almost", "almost-spanning",
             "embed bounded-degree trees on up to (1-eps)n nodes"),
            ("embed-spanning", "spanning",
             "embed spanning trees via trim, embed, absorb"),
            ("rainbow-st", "rainbow-st",
             "search perturbed coloured hosts for rainbow spanning trees")):
        sp = sub.add_parser(name, help=blurb)
        _add_common(sp)
        _add_trial_extras(sp)
        sp.set_defaults(func=_cmd_trials, kind=kind)

    sp = sub.add_parser("lemma-stats",
                        help="violation frequencies for supporting bounds")
    sp.add_argument("--kind", required=True, choices=LEMMA_KINDS)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None,
                    help="pool triples sampled per trial (large-Buv)")
    sp.add_argument("--seed-kind", dest="seed_kind", choices=SEED_KINDS,
                    default=None)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--knobs", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_lemma_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RainbowTreesError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
