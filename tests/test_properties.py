"""Property-based checks over random mixed acyclic graphs."""

import random
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from seplat import separation
from seplat.errors import UnknownVertex
from seplat.graph import (
    ANCESTORS,
    ANCESTORS_INCLUSIVE,
    BIDIR,
    DESCENDANTS,
    DIR_FORWARD,
    PARENTS,
    build_graph,
    relatives,
    simple_paths,
    topological_order,
)
from seplat.markov import latent_expansion
from seplat.random_graphs import random_dag, random_mixed_graph
from seplat.separation import (
    SeparationQuery,
    SeparationVerdict,
    is_separated,
    is_separated_each,
    is_separated_oracle,
    minimal_separator,
    path_is_connecting,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def mixed_graphs(draw, max_n=6, bidirected=True):
    n = draw(st.integers(2, max_n))
    labels = [f"v{i}" for i in range(n)]
    order = draw(st.permutations(labels))
    directed, bidir = [], []
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(("none", "none", "dir", "dir", "bi")
                                        if bidirected else ("none", "none", "dir")))
            if kind == "dir":
                directed.append((order[i], order[j]))
            elif kind == "bi":
                bidir.append((order[i], order[j]))
    return build_graph(labels, directed, bidir)


@st.composite
def graph_and_query(draw, max_n=6, max_cond=2, bidirected=True):
    g = draw(mixed_graphs(max_n=max_n, bidirected=bidirected))
    a, b = draw(st.sampled_from([(x, y) for x in g.vertices for y in g.vertices
                                 if x != y]))
    rest = sorted(set(g.vertices) - {a, b})
    cond = draw(st.sets(st.sampled_from(rest), max_size=min(max_cond, len(rest)))
                if rest else st.just(set()))
    return g, SeparationQuery(a, b, frozenset(cond))


@SETTINGS
@given(mixed_graphs())
def test_ancestor_descendant_duality(g):
    for v in g.vertices:
        anc = relatives(g, {v}, ANCESTORS)
        for w in anc:
            assert v in relatives(g, {w}, DESCENDANTS)


@SETTINGS
@given(mixed_graphs())
def test_ancestor_masks_match_relatives(g):
    for i, v in enumerate(g.vertices):
        assert g.index[v] == i
        mask = g.ancestor_masks[i]
        members = {w for j, w in enumerate(g.vertices) if mask >> j & 1}
        assert members == relatives(g, {v}, ANCESTORS_INCLUSIVE)


@SETTINGS
@given(mixed_graphs())
def test_parents_within_ancestors(g):
    for v in g.vertices:
        assert relatives(g, {v}, PARENTS) <= relatives(g, {v}, ANCESTORS)


@SETTINGS
@given(mixed_graphs())
def test_topological_order_respects_edges(g):
    order = topological_order(g)
    assert sorted(order) == list(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    for u, v in g.directed:
        assert pos[u] < pos[v]


@SETTINGS
@given(mixed_graphs(max_n=5))
def test_simple_paths_are_simple(g):
    verts = g.vertices
    for a, b in combinations(verts, 2):
        for p in simple_paths(g, a, b, len(verts) - 1):
            assert p.vertices[0] == a and p.vertices[-1] == b
            assert len(set(p.vertices)) == len(p.vertices)


@st.composite
def graph_and_ancestral_query(draw, max_n=7):
    """A query whose conditioning set lies within An({a, b}), where
    minimal_separator draws every set it tests."""
    g = draw(mixed_graphs(max_n=max_n))
    a, b = draw(st.sampled_from([(x, y) for x in g.vertices for y in g.vertices
                                 if x != y]))
    ancestors = sorted(relatives(g, {a, b}, ANCESTORS_INCLUSIVE) - {a, b})
    cond = draw(st.sets(st.sampled_from(ancestors)) if ancestors else st.just(set()))
    return g, SeparationQuery(a, b, frozenset(cond))


@SETTINGS
@given(graph_and_ancestral_query())
def test_cut_matches_oracle_and_search(gq):
    # a conditioning set within An({a, b}) cuts a from b exactly when the
    # oracle says so and the search finds no witness
    g, q = gq
    cond_mask = sum(1 << g.index[v] for v in q.cond)
    witness = separation._search(g, q, g.index[q.a], g.index[q.b], cond_mask)
    separated = is_separated_oracle(g, q).separated
    assert separated == (witness is None)
    assert is_separated(g, q) == SeparationVerdict(separated, witness)


@SETTINGS
@given(graph_and_ancestral_query())
def test_cut_is_monotone_in_the_conditioning_set(gq):
    # the theorem behind minimal_separator's one pass: within An({a, b}),
    # adding a vertex to a separating set keeps it separating
    g, q = gq
    if not is_separated(g, q).separated:
        return
    ancestors = relatives(g, {q.a, q.b}, ANCESTORS_INCLUSIVE) - {q.a, q.b}
    for v in ancestors - q.cond:
        assert is_separated(g, SeparationQuery(q.a, q.b, q.cond | {v})).separated


@st.composite
def pair_and_conds(draw):
    """A random_mixed_graph, an ordered vertex pair and a list of 1 to 130
    conditioning sets, a length on either side of a byte or a word of
    candidates.  One set is empty; the others are random sets of the other
    vertices, so many leave An({a, b})."""
    g = random_mixed_graph(draw(st.integers(2, 12)), draw(st.sampled_from((0.2, 0.35, 0.5))),
                           draw(st.integers(0, 10_000)))
    a, b = draw(st.sampled_from([(x, y) for x in g.vertices for y in g.vertices
                                 if x != y]))
    rest = sorted(set(g.vertices) - {a, b})
    rng = random.Random(draw(st.integers(0, 10_000)))
    conds = [frozenset(rng.sample(rest, rng.randint(0, len(rest))))
             for _ in range(draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 130))))]
    conds[rng.randrange(len(conds))] = frozenset()
    return g, a, b, conds


def _outcome(call):
    try:
        return call()
    except (UnknownVertex, ValueError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(pair_and_conds())
def test_batch_route_matches_each_query(pac):
    g, a, b, conds = pac
    want = [is_separated(g, SeparationQuery(a, b, c)) for c in conds]
    assert is_separated_each(g, a, b, conds) == want
    # a bad set anywhere in the list raises as the query of its own row does
    rng = random.Random(len(conds))
    for bad in ("nowhere", a, b):
        spoilt = conds[:]
        spoilt.insert(rng.randrange(len(conds) + 1), conds[0] | {bad})
        each = _outcome(lambda: [is_separated(g, SeparationQuery(a, b, c)) for c in spoilt])
        assert isinstance(each, tuple)
        assert _outcome(lambda: is_separated_each(g, a, b, spoilt)) == each


@SETTINGS
@given(graph_and_query())
def test_separation_is_symmetric(gq):
    g, q = gq
    flipped = SeparationQuery(q.b, q.a, q.cond)
    assert is_separated(g, q).separated == is_separated(g, flipped).separated


@SETTINGS
@given(graph_and_query())
def test_fast_route_matches_oracle(gq):
    g, q = gq
    assert is_separated(g, q).separated == is_separated_oracle(g, q).separated


@SETTINGS
@given(graph_and_query())
def test_witnesses_are_connecting_paths(gq):
    g, q = gq
    for verdict in (is_separated(g, q), is_separated_oracle(g, q)):
        if not verdict.separated:
            assert path_is_connecting(g, verdict.witness, q.cond)


@SETTINGS
@given(graph_and_query(bidirected=False))
def test_m_separation_reduces_to_d_separation_on_dags(gq):
    # with no bidirected edges both criteria run the same rule; the oracle
    # cross-check pins the reduction
    g, q = gq
    assert not g.bidirected
    assert is_separated(g, q).separated == is_separated_oracle(g, q).separated


@SETTINGS
@given(graph_and_query(max_n=5))
def test_latent_expansion_preserves_separation(gq):
    g, q = gq
    dag = latent_expansion(g)
    assert is_separated(g, q).separated == is_separated(dag, q).separated


@SETTINGS
@given(mixed_graphs(max_n=6))
def test_minimal_separator_contract(g):
    anc_pairs = [(a, b) for a, b in combinations(g.vertices, 2)
                 if not g.is_adjacent(a, b)]
    for a, b in anc_pairs:
        sep = minimal_separator(g, a, b)
        s0 = relatives(g, {a, b}, ANCESTORS_INCLUSIVE) - {a, b}
        if sep is None:
            # conditioning on an inclusive-ancestor set can open bidirected
            # colliders inside it; None is the documented outcome then
            assert not is_separated(g, SeparationQuery(a, b, s0)).separated
            continue
        assert sep <= s0
        assert is_separated(g, SeparationQuery(a, b, sep)).separated
        for v in sep:
            assert not is_separated(g, SeparationQuery(a, b, sep - {v})).separated


@SETTINGS
@given(mixed_graphs(max_n=7, bidirected=False))
def test_minimal_separator_always_exists_on_dags(g):
    for a, b in combinations(g.vertices, 2):
        if g.is_adjacent(a, b):
            continue
        assert minimal_separator(g, a, b) is not None


def _with_environment(g):
    """G+E: g plus a root E with an edge into every vertex of g that has no
    parent; g's spouse edges stay."""
    roots = [v for v in g.vertices if not g.parents_of(v)]
    return build_graph(list(g.vertices) + ["E"], list(g.directed) + [("E", r) for r in roots],
                       g.bidirected)


def test_environment_separation_matches_pair_separation_under_l1_and_l3q():
    # On a DAG with E a parent of every root, for a and b where neither is
    # an ancestor of the other and C within An(a) - {a} and outside An(b)
    # (the graph forms of L1 and L3Q): a _|_ b | C iff a _|_ E | C in G+E.
    rows = 0
    for seed in range(300):
        g = random_dag(6 + seed % 7, 0.3, seed)
        ge = _with_environment(g)
        anc = {v: relatives(g, (v,), ANCESTORS_INCLUSIVE) for v in g.vertices}
        for a in g.vertices:
            for b in g.vertices:
                if a == b or a in anc[b] or b in anc[a]:
                    continue
                pool = sorted(anc[a] - {a} - anc[b])
                conds = [c for k in range(len(pool) + 1) for c in combinations(pool, k)]
                pair = is_separated_each(ge, a, b, conds)
                env = is_separated_each(ge, a, "E", conds)
                for c, p, e in zip(conds, pair, env):
                    assert p.separated == e.separated, (seed, a, b, c)
                rows += len(conds)
    assert rows == 49_720


def test_environment_separation_needs_l3q():
    # v0 and v2 are ancestors of b, so C breaks L3Q, but C holds the
    # common past: An(a) & An(b) lies in An(v2), the graph form of L3C.
    # a and b are separated, yet a's root ancestor v5 is outside C and
    # opens v4 <- v5 <- E
    g = random_dag(8, 0.35, 3)
    ge = _with_environment(g)
    cond = {"v0", "v2"}
    past_a, past_b = (relatives(g, (v,), ANCESTORS_INCLUSIVE) for v in ("v4", "v3"))
    assert cond <= past_a and cond <= past_b
    assert past_a & past_b <= relatives(g, ("v2",), ANCESTORS_INCLUSIVE)
    assert is_separated(g, SeparationQuery("v4", "v3", cond)).separated
    assert is_separated(ge, SeparationQuery("v4", "v3", cond)).separated
    env = is_separated(ge, SeparationQuery("v4", "E", cond))
    assert not env.separated and env.witness.vertices == ("v4", "v5", "E")


def test_environment_separation_needs_a_dag():
    # C = {v10} meets the graph forms of L1 and L3Q, and a is separated from
    # E, yet a and b are m-connected through a spouse edge: v8 is a root, so
    # E -> v8 <-> v0 makes v8 a collider that blocks the walk to E, while
    # v0 <-> v8 -> v3 passes v8 as a non-collider
    g = random_mixed_graph(11, 0.3, 5)
    ge = _with_environment(g)
    a, b, cond = "v0", "v3", {"v10"}
    past_a, past_b = (relatives(g, (v,), ANCESTORS_INCLUSIVE) for v in (a, b))
    assert cond <= past_a - {a} and not cond & past_b
    assert a not in past_b and b not in past_a and not g.is_adjacent(a, b)
    assert not g.parents_of("v8") and g.has_bidirected(a, "v8")
    assert is_separated(ge, SeparationQuery(a, "E", cond)).separated
    pair = is_separated(g, SeparationQuery(a, b, cond))
    assert not pair.separated and pair.witness.vertices == ("v0", "v8", "v3")
    assert pair.witness.edges == (BIDIR, DIR_FORWARD)
