"""Plain-text serialization for graphs.

Edge-list format: a header line `n k` (k = 0 means uncoloured), then one
line per edge, `u v` or `u v c`, in sorted canonical order.  Output is
deterministic, so write-read-write round trips are byte-identical.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import ColouredGraph, canonical_edge


def format_edge_list(graph: ColouredGraph) -> str:
    lines = ["%d %d" % (graph.n, graph.palette_size)]
    rows = graph.edge_array().tolist()
    if graph.is_coloured:
        lines.extend("%d %d %d" % (u, v, c) for (u, v), c
                     in zip(rows, graph.colour_array().tolist()))
    else:
        lines.extend("%d %d" % (u, v) for u, v in rows)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> ColouredGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing header line", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("header must be 'n k', got %r" % lines[0], line=1)
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("header fields must be integers, got %r" % lines[0],
                          line=1)
    if n < 0 or k < 0:
        raise FormatError("header fields must be nonnegative", line=1)
    edges = []
    colouring = {} if k > 0 else None
    seen = set()
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        toks = raw.split()
        want = 3 if k > 0 else 2
        if len(toks) != want:
            raise FormatError("expected %d fields, got %d (%r)"
                              % (want, len(toks), raw), line=no)
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise FormatError("non-integer field in %r" % raw, line=no)
        u, v = vals[0], vals[1]
        if u == v:
            raise FormatError("self-loop at vertex %d" % u, line=no)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError("vertex outside [0, %d) in %r" % (n, raw), line=no)
        e = canonical_edge(u, v)
        if e in seen:
            raise FormatError("duplicate edge (%d, %d)" % e, line=no)
        seen.add(e)
        edges.append(e)
        if k > 0:
            c = vals[2]
            if not 0 <= c < k:
                raise FormatError("colour %d outside palette [0, %d)" % (c, k),
                                  line=no)
            colouring[e] = c
    return ColouredGraph(n, edges, colouring, k)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()
