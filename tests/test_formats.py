"""Rules the four text formats share: comments, whole-word kinds, one header."""

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    InstanceParseError,
    TreepackError,
    parse_hypergraph,
    parse_instance,
    parse_packing,
    parse_vector,
)

PARSERS = {
    "instance": parse_instance,
    "hypergraph": parse_hypergraph,
    "packing": parse_packing,
    "vector": parse_vector,
}

# (format, text, line number of the error, fragment of its message)
MALFORMED = [
    ("instance", "graphs 2 1\nt 0\nt 1\ne 0 0 1\n", 1, "unknown line kind 'graphs'"),
    ("instance", "graph 2 1\nt 0\nt 1\ne 0 0 1\ngraph 2 1\n", 5, "duplicate graph header"),
    ("instance", "# no header\nt 0\nt 1\ne 0 0 1\n", 0, "missing graph header"),
    ("instance", "graph 2 1\nv 1\nt 0\nt 1\ne 0 0 1\n", 4, "vertex 1 declared twice"),
    ("instance", "graph 2 1\nt 0\nt 1\n# again\nt 0\ne 0 0 1\n", 5,
     "vertex 0 declared twice"),
    ("instance", "graph 2 1\nt 1\nv 1\nt 0\ne 0 0 1\n", 3, "vertex 1 declared twice"),
    ("hypergraph", "hypergraphX 2 0\nv 0\nv 1\n", 1, "unknown line kind 'hypergraphX'"),
    ("hypergraph", "hypergraph 2 0\n\nhypergraph 2 0\n", 3, "duplicate hypergraph header"),
    ("hypergraph", "v 0\nv 1\nh 0 0 1\n", 0, "missing hypergraph header"),
    ("hypergraph", "hypergraph 2 1\nv 0\nv 1\nv 0\nh 0 0 1\n", 4,
     "vertex 0 declared twice"),
    ("packing", "packingX steiner 1\npart 1: 2\n", 1, "unknown line kind 'packingX'"),
    ("packing", "packing steiner 1\npartY 1: 2\n", 2, "unknown line kind 'partY'"),
    ("packing", "packing steiner 1\npart 1: 2\npacking steiner 1\n", 3,
     "duplicate packing header"),
    ("packing", "# only a comment\n\n", 0, "missing packing header"),
    ("packing", "part 1: 2\npacking steiner 1\n", 1, "part line before packing header"),
    ("packing", "packing steiner 1\npart 1: 3 3\n", 2, "part 1 lists an edge id twice"),
    ("packing", "packing steiner 2\npart 1: 0\n# x\npart 2: 3 3 4\n", 4,
     "part 2 lists an edge id twice"),
    ("packing", "packing steiner 2\npart 1: 0 5\n# x\npart 2: 3 5\n", 4,
     "part 2 repeats edge 5 of an earlier part"),
    ("vector", "x 0 1/2\nxx 1 1/2\n", 2, "expected 'x <element-id>"),
]


@pytest.mark.parametrize("fmt, text, line, message", MALFORMED)
def test_malformed_input_names_its_line(fmt, text, line, message):
    with pytest.raises(InstanceParseError) as err:
        PARSERS[fmt](text)
    assert err.value.line_number == line
    assert message in str(err.value)


def test_edges_still_declare_their_ends():
    # Only a second 'v' or 't' line is a repeat: an edge or hyperedge may
    # name a vertex before or after its one declaration.
    g, terminals = parse_instance("graph 3 1\ne 0 1 2\nt 1\nv 2\nt 0\n")
    assert (sorted(g.vertices), terminals) == ([0, 1, 2], frozenset({0, 1}))
    h = parse_hypergraph("hypergraph 3 1\nh 0 0 1 2\nv 1\n")
    assert sorted(h.vertices) == [0, 1, 2]


# Per format: a well-formed first line, and the kinds its lines may start with.
HEADERS = {"instance": "graph 2 1", "hypergraph": "hypergraph 3 1",
           "packing": "packing steiner 2", "vector": "x 0 1/2"}
KINDS = {"instance": ["graph", "v", "t", "e"], "hypergraph": ["hypergraph", "v", "h"],
         "packing": ["packing", "part"], "vector": ["x"]}
FIELD = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "1:", "2:"]),
    st.sampled_from(["steiner", "connector", "bogus", "#", ":", "1/2", "-3/4", "1/0", "/",
                     "1_0", "+3", "\u0663"]))


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), sep=st.sampled_from([" ", "\t", "  "]))
def test_parsers_raise_only_package_errors(fmt, data, sep):
    kinds = KINDS[fmt] + ["graphs", "partY", "#"]
    line = st.one_of(st.just(HEADERS[fmt].split()),
                     st.builds(lambda kind, fields: [kind, *fields],
                               st.sampled_from(kinds), st.lists(FIELD, max_size=4)))
    lines = data.draw(st.lists(line, max_size=6))
    if data.draw(st.booleans()):
        lines.insert(0, HEADERS[fmt].split())
    text = "\n".join(sep.join(words) for words in lines)
    try:
        PARSERS[fmt](text)
    except TreepackError:
        pass
