"""Edge-list text round trips, with line-attributed errors."""

import pytest

from rainbowtrees import FormatError, RandomSource, gen_gnp, uniform_colouring
from rainbowtrees.graphs import ColouredGraph
from rainbowtrees.io import format_edge_list, parse_edge_list


def test_edge_list_round_trip_uncoloured():
    g = gen_gnp(20, 0.3, RandomSource(1))
    text = format_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == g.n and h.edges == g.edges and h.colouring is None
    assert format_edge_list(h) == text


def test_edge_list_round_trip_coloured():
    g = uniform_colouring(gen_gnp(15, 0.4, RandomSource(2)), 9, RandomSource(3))
    text = format_edge_list(g)
    h = parse_edge_list(text)
    assert h.colouring == g.colouring and h.palette_size == 9
    assert format_edge_list(h) == text


def test_edge_list_empty_graph():
    g = ColouredGraph(4, [])
    assert parse_edge_list(format_edge_list(g)).order == 4


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(FormatError, match="line 1"):
        parse_edge_list("5\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("5 0\n1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_edge_list("5 0\n0 1\n1 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("5 0\n0 9\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_edge_list("5 0\n0 1\n1 0\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("5 3\n0 1 7\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("5 0\n0 1 2\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_edge_list("5 2\n0 1\n")
