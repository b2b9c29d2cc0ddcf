import pytest

from seplat.errors import CycleError, DuplicateEdge, SelfLoop, UnknownVertex
from seplat.graph import (
    ANCESTORS,
    ANCESTORS_INCLUSIVE,
    COLLATERALS,
    DESCENDANTS,
    PARENTS,
    build_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    relatives,
    simple_paths,
    topological_order,
)
from seplat.lattice import DIAMOND, Window
from seplat.lattice import build_graph as build_lattice_graph


def test_build_chain():
    g = build_graph({"a", "b", "c"}, [("a", "b"), ("b", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.directed == (("a", "b"), ("b", "c"))
    assert g.bidirected == ()


def test_build_two_cycle_rejected():
    with pytest.raises(CycleError):
        build_graph({"a", "b"}, [("a", "b"), ("b", "a")])


def test_build_single_spouse_pair():
    g = build_graph({"a", "b"}, [], [("b", "a")])
    assert g.bidirected == (("a", "b"),)
    assert g.spouses_of("a") == ("b",)
    assert g.has_bidirected("b", "a") and g.is_adjacent("a", "b") and not g.has_directed("a", "b")
    # an unknown label is adjacent to nothing
    assert not any(f(x, y) for f in (g.has_directed, g.has_bidirected, g.is_adjacent)
                   for x, y in (("a", "zz"), ("zz", "a"), ("zz", "zz")))


def test_build_rejects_bad_edges():
    with pytest.raises(SelfLoop):
        build_graph({"a"}, [("a", "a")])
    with pytest.raises(DuplicateEdge):
        build_graph({"a", "b"}, [("a", "b"), ("a", "b")])
    with pytest.raises(DuplicateEdge):
        build_graph({"a", "b"}, [], [("a", "b"), ("b", "a")])
    with pytest.raises(UnknownVertex):
        build_graph({"a"}, [("a", "zz")])
    with pytest.raises(UnknownVertex):
        build_graph({"a", ""})
    with pytest.raises(UnknownVertex):
        build_graph({"a"}, [], [("a", "zz")])
    with pytest.raises(SelfLoop):
        build_graph({"a"}, [], [("a", "a")])


def test_relatives_chain_and_collider():
    chain = build_graph({"a", "b", "c"}, [("a", "b"), ("b", "c")])
    assert relatives(chain, {"c"}, ANCESTORS) == {"a", "b"}
    assert relatives(chain, {"c"}, ANCESTORS_INCLUSIVE) == {"a", "b", "c"}
    assert relatives(chain, {"a"}, DESCENDANTS) == {"b", "c"}
    assert relatives(chain, {"b", "c"}, PARENTS) == {"a", "b"}
    collider = build_graph({"a", "b", "c"}, [("a", "c"), ("b", "c")])
    assert relatives(collider, {"a"}, COLLATERALS) == {"b"}
    with pytest.raises(UnknownVertex):
        relatives(chain, {"zz"}, ANCESTORS)
    with pytest.raises(ValueError, match="unknown relation kind"):
        relatives(chain, {"c"}, "cousins")


def test_diamond_ancestors_match_geometric_formula():
    # transitive closure on the 4x4 lattice vs the closed form i'<=i, j'<=j
    g = build_lattice_graph(DIAMOND, Window(0, 3, 0, 3))
    got = relatives(g, {"d(2,2)"}, ANCESTORS)
    expected = {f"d({i},{j})" for i in range(3) for j in range(3)} - {"d(2,2)"}
    assert got == expected
    assert len(got) == 8


def test_topological_order():
    chain = build_graph({"a", "b", "c"}, [("a", "b"), ("b", "c")])
    assert topological_order(chain) == ("a", "b", "c")
    edgeless = build_graph({"b", "a"})
    assert topological_order(edgeless) == ("a", "b")
    g = build_lattice_graph(DIAMOND, Window(0, 2, 0, 2))
    order = topological_order(g)
    assert sorted(order) == list(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in g.directed)


def test_ancestor_descendant_duality():
    g = build_lattice_graph(DIAMOND, Window(0, 2, 0, 2))
    for v in g.vertices:
        for w in g.vertices:
            assert (v in relatives(g, {w}, ANCESTORS)) == (
                w in relatives(g, {v}, DESCENDANTS))


def test_simple_paths_collider_and_triangle():
    collider = build_graph({"a", "b", "c"}, [("a", "c"), ("b", "c")])
    paths = list(simple_paths(collider, "a", "b", 2))
    assert len(paths) == 1
    assert paths[0].vertices == ("a", "c", "b")
    assert paths[0].edges == ("dir-forward", "dir-backward")

    triangle = build_graph({"a", "b", "c"}, [("a", "b"), ("a", "c"), ("b", "c")])
    got = {p.vertices for p in simple_paths(triangle, "a", "c", 3)}
    assert got == {("a", "c"), ("a", "b", "c")}
    with pytest.raises(ValueError, match="endpoints must differ"):
        list(simple_paths(triangle, "a", "a", 3))


def _count_paths_brute(adjacency, a, b, max_len):
    # independent recursive count over undirected adjacency with multiplicity
    def rec(v, seen, depth):
        if depth > max_len:
            return 0
        total = 0
        for w, mult in adjacency[v].items():
            if w in seen:
                continue
            if w == b:
                total += mult
            else:
                total += mult * rec(w, seen | {w}, depth + 1)
        return total

    return rec(a, {a}, 1)


def test_simple_paths_count_matches_recursive_oracle():
    g = build_lattice_graph(DIAMOND, Window(0, 2, 0, 2))
    adjacency = {v: {} for v in g.vertices}
    for u, v in g.directed:
        adjacency[u][v] = adjacency[u].get(v, 0) + 1
        adjacency[v][u] = adjacency[v].get(u, 0) + 1
    expected = _count_paths_brute(adjacency, "d(0,0)", "d(2,2)", 4)
    got = list(simple_paths(g, "d(0,0)", "d(2,2)", 4))
    assert len(got) == expected
    assert len(set((p.vertices, p.edges) for p in got)) == len(got)
    for p in got:
        assert p.vertices[0] == "d(0,0)" and p.vertices[-1] == "d(2,2)"
        assert len(set(p.vertices)) == len(p.vertices)
        assert len(p.edges) <= 4


def test_simple_paths_deterministic():
    g = build_lattice_graph(DIAMOND, Window(0, 2, 0, 2))
    first = [(p.vertices, p.edges) for p in simple_paths(g, "d(0,0)", "d(2,2)", 4)]
    second = [(p.vertices, p.edges) for p in simple_paths(g, "d(0,0)", "d(2,2)", 4)]
    assert first == second


def test_json_dict_round_trip():
    g = build_graph({"a", "b", "c"}, [("a", "b")], [("b", "c")])
    doc = graph_to_json_dict(g, "abstract")
    g2, kind, window = graph_from_json_dict(doc)
    assert g2 == g and kind == "abstract" and window is None
    assert graph_to_json_dict(g2, kind) == doc
