import random
from itertools import combinations, permutations

import pytest

from conftest import LOW_SET, PAR_A
from seplat import separation
from seplat.errors import AdjacentVertices, InvalidPath
from seplat.graph import MixedGraph, Path, build_graph, format_path, simple_paths
from seplat.lattice import BOX, DIAMOND, L3C, Cell, Window, prop1_sweep
from seplat.lattice import build_graph as build_lattice_graph
from seplat.markov import latent_expansion
from seplat.random_graphs import random_mixed_graph
from seplat.separation import (
    SeparationQuery,
    SeparationVerdict,
    is_separated,
    is_separated_oracle,
    minimal_separator,
    path_is_connecting,
)

A, B = "d(1,4)", "d(4,1)"


def test_query_invariants():
    with pytest.raises(ValueError):
        SeparationQuery("a", "a")
    with pytest.raises(ValueError):
        SeparationQuery("a", "b", frozenset({"a"}))


def test_path_is_connecting_collider(collider_graph):
    p = Path(("a", "c", "b"), ("dir-forward", "dir-backward"))
    # conditioning on the common effect connects its causes
    assert path_is_connecting(collider_graph, p, {"c"})
    assert not path_is_connecting(collider_graph, p, set())


def test_path_is_connecting_chain_blocks():
    chain = build_graph({"a", "b", "c"}, [("a", "c"), ("c", "b")])
    p = Path(("a", "c", "b"), ("dir-forward", "dir-forward"))
    assert not path_is_connecting(chain, p, {"c"})
    assert path_is_connecting(chain, p, set())


def test_path_is_connecting_validates():
    g = build_graph({"a", "b", "c"}, [("a", "c"), ("b", "c")])
    with pytest.raises(InvalidPath):
        path_is_connecting(g, Path(("a", "b"), ("dir-forward",)), set())
    with pytest.raises(InvalidPath):
        p = Path(("a", "c", "b"), ("dir-forward", "dir-backward"))
        path_is_connecting(g, p, {"a"})
    # malformed paths fail at construction
    for verts, edges in ((("a",), ()), (("a", "b"), ()),
                         (("a", "c", "a"), ("dir-forward", "dir-backward")),
                         (("a", "c"), ("sideways",))):
        with pytest.raises(InvalidPath):
            Path(verts, edges)


def test_descendant_of_collider_opens():
    g = build_graph({"a", "b", "c", "d"}, [("a", "c"), ("b", "c"), ("c", "d")])
    p = Path(("a", "c", "b"), ("dir-forward", "dir-backward"))
    assert path_is_connecting(g, p, {"d"})


def test_common_cause_oracle(common_cause_graph):
    q_blocked = SeparationQuery("a", "b", frozenset({"e"}))
    q_open = SeparationQuery("a", "b")
    assert is_separated_oracle(common_cause_graph, q_blocked).separated
    verdict = is_separated_oracle(common_cause_graph, q_open)
    assert not verdict.separated
    assert verdict.witness.vertices == ("a", "e", "b")


def test_parents_separate_on_fixture(diamond6):
    q = SeparationQuery(A, B, PAR_A)
    assert is_separated_oracle(diamond6, q).separated
    assert is_separated(diamond6, q).separated


def test_adjacent_spouses_always_connected():
    g = build_lattice_graph(BOX, Window(0, 3, 0, 3))
    for cond in (frozenset(), frozenset({"b(2,0)"}), frozenset({"b(2,0)", "b(2,2)"})):
        q = SeparationQuery("b(3,0)", "b(3,1)", cond)
        assert not is_separated(g, q).separated


def test_chain_of_two_connected():
    g = build_graph({"a", "m", "b"}, [("a", "m"), ("m", "b")])
    verdict = is_separated(g, SeparationQuery("a", "b"))
    assert not verdict.separated
    assert verdict.witness.vertices == ("a", "m", "b")


def test_fast_equals_oracle_on_seeded_graph():
    g = random_mixed_graph(8, 0.3, seed=7)
    labels = g.vertices
    for a, b in combinations(labels, 2):
        rest = [v for v in labels if v not in (a, b)]
        for k in range(4):
            for cond in combinations(rest, k):
                q = SeparationQuery(a, b, frozenset(cond))
                assert is_separated(g, q).separated == is_separated_oracle(g, q).separated


def test_networkx_agrees_on_random_mixed_graphs():
    # networkx shares no code with seplat: it decides d-separation on the
    # latent expansion, where m-separation of the mixed graph becomes
    # d-separation (Richardson 2003)
    nx = pytest.importorskip("networkx")
    for seed in range(30):
        g = random_mixed_graph(8, 0.3, seed)
        dag = latent_expansion(g)
        ndag = nx.DiGraph(dag.directed)
        ndag.add_nodes_from(dag.vertices)
        for a, b in combinations(g.vertices, 2):
            rest = [v for v in g.vertices if v not in (a, b)]
            for k in range(3):
                for cond in combinations(rest, k):
                    q = SeparationQuery(a, b, frozenset(cond))
                    assert is_separated(g, q).separated == nx.is_d_separator(
                        ndag, {a}, {b}, set(cond)), (seed, q)
            if g.is_adjacent(a, b):
                continue
            sep = minimal_separator(g, a, b)
            if sep is not None:
                assert nx.is_minimal_d_separator(ndag, {a}, {b}, set(sep)), (seed, a, b)


def test_witness_is_a_shortest_active_simple_path():
    # the reachability witness closes a shortest active walk, and such a
    # walk repeats no vertex; the shortest active simple path comes from
    # simple-path enumeration, which shares no code with the search
    connected = 0
    for seed in range(120):
        n = 4 + seed % 6
        g = random_mixed_graph(n, 0.25 + 0.1 * (seed % 4), seed, (seed % 3) / 4)
        for a, b in combinations(g.vertices, 2):
            paths = sorted(simple_paths(g, a, b, n - 1), key=lambda p: len(p.edges))
            rest = [v for v in g.vertices if v not in (a, b)]
            for k in range(3):
                for cond in combinations(rest, k):
                    verdict = is_separated(g, SeparationQuery(a, b, frozenset(cond)))
                    if verdict.separated:
                        continue
                    connected += 1
                    walk = verdict.witness.vertices
                    assert len(set(walk)) == len(walk)
                    shortest = next(p for p in paths if path_is_connecting(g, p, cond))
                    assert len(walk) == len(shortest.vertices), (seed, a, b, cond)
    assert connected > 10_000


def test_separation_symmetry(diamond6):
    for cond in (frozenset(), PAR_A, LOW_SET):
        fwd = is_separated(diamond6, SeparationQuery(A, B, cond)).separated
        rev = is_separated(diamond6, SeparationQuery(B, A, cond)).separated
        assert fwd == rev


def test_witness_is_connecting(diamond6):
    q = SeparationQuery(A, B, LOW_SET)
    verdict = is_separated(diamond6, q)
    assert not verdict.separated
    assert path_is_connecting(diamond6, verdict.witness, LOW_SET)
    assert format_path(verdict.witness) == (
        "d(1,4)<-d(1,3)<-d(1,2)<-d(1,1)->d(2,1)->d(3,1)->d(4,1)")


def test_minimal_separator_common_cause(common_cause_graph):
    assert minimal_separator(common_cause_graph, "a", "b") == {"e"}


def test_minimal_separator_rejects_adjacent():
    g = build_graph({"a", "b", "c"}, [], [("a", "b")])
    with pytest.raises(AdjacentVertices):
        minimal_separator(g, "a", "b")
    with pytest.raises(ValueError, match="endpoints must differ"):
        minimal_separator(g, "c", "c")


def test_minimal_separator_fixture(diamond6, box69):
    # Greedy shrink in label order lands on these separators; the
    # single-removal sweep certifies inclusion-minimality.
    for g, a, b, expected in ((diamond6, A, B, {"d(3,0)", "d(3,1)"}),
                              (box69, "b(4,2)", "b(4,6)",
                               {"b(3,5)", "b(3,6)", "b(3,7)"})):
        sep = minimal_separator(g, a, b)
        assert sep == expected
        assert is_separated(g, SeparationQuery(a, b, sep)).separated
        for v in sep:
            assert not is_separated(g, SeparationQuery(a, b, sep - {v})).separated


def test_minimal_separator_makes_one_pass(diamond6, box69, monkeypatch):
    # one call for the start set S0, then one per element of S0
    counted = []

    def counting(g, q):
        counted.append(q)
        return is_separated(g, q)

    monkeypatch.setattr(separation, "is_separated", counting)
    for g, a, b, calls in ((diamond6, A, B, 15), (box69, "b(4,2)", "b(4,6)", 34)):
        counted.clear()
        minimal_separator(g, a, b)
        assert len(counted) == calls == len(counted[0].cond) + 1


def test_batch_decides_the_sweep_and_each_query_runs_one_search(diamond6, monkeypatch):
    # criterion 13's sweep: one witness_words call decides every row, and a
    # rows read decodes them from the sweep's codes, with no is_separated
    # call and no search
    import seplat.lattice

    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    spy(seplat.lattice, "witness_words")
    spy(separation, "_search")
    spy(seplat.lattice, "is_separated")
    rep = prop1_sweep(DIAMOND, Window(0, 5, 0, 5), Cell(DIAMOND, 2, 5),
                      Cell(DIAMOND, 5, 2), L3C, max_cells=5, lattice_graph=diamond6)
    rows = rep.rows
    monkeypatch.undo()
    assert (rep.total, sum(not r.separated for r in rows)) == (9401, 8775)
    assert calls == ["witness_words"]
    # the graph holds no sweep state: every slot equals a fresh build's
    fresh = build_lattice_graph(DIAMOND, Window(0, 5, 0, 5))
    assert all(getattr(diamond6, s) == getattr(fresh, s) for s in MixedGraph.__slots__)

    # a plain query of each row runs exactly one search, which returns the
    # row's verdict and witness
    search, searched = separation._search, []

    def search_spy(g, q, a, b, cond_mask):
        searched.append(q.cond)
        return search(g, q, a, b, cond_mask)

    monkeypatch.setattr(separation, "_search", search_spy)
    for r in rep.rows:
        q = SeparationQuery("d(2,5)", "d(5,2)", frozenset(r.region))
        assert is_separated(diamond6, q) == SeparationVerdict(r.separated, r.witness)
    assert searched == [frozenset(r.region) for r in rep.rows]


def test_batch_takes_any_iterable_per_set(diamond6):
    from seplat.errors import UnknownVertex

    low, par = sorted(LOW_SET), sorted(PAR_A)
    conds = [iter(low), par, set(par), tuple(low + par), low + low[:1],
             (v for v in par), frozenset(), ()]
    want = [is_separated(diamond6, SeparationQuery(A, B, frozenset(c)))
            for c in (low, par, par, low + par, low, par, (), ())]
    assert separation.is_separated_each(diamond6, A, B, conds) == want
    # the first bad set decides, and within a set an endpoint comes first,
    # also when it follows an unknown label
    for bad, error in (([par, [A], ["nowhere"]], ValueError),
                       ([par, ["nowhere"], (v for v in [B])], UnknownVertex),
                       ([(v for v in ["nowhere", *low, B])], ValueError),
                       ([["nowhere", "elsewhere"], [A]], UnknownVertex)):
        with pytest.raises(error):
            separation.is_separated_each(diamond6, A, B, bad)
    # of several unknown labels, the one named is the one is_separated
    # names, in either order of the set
    unknown = ["aa2", "mm5", "zz1"]
    for c in (low + unknown, unknown[::-1] + low):
        with pytest.raises(UnknownVertex) as single:
            is_separated(diamond6, SeparationQuery(A, B, c))
        with pytest.raises(UnknownVertex) as each:
            separation.is_separated_each(diamond6, A, B, [par, iter(c)])
        assert str(each.value) == str(single.value)


def _spread_verdicts(found, n):
    """witness_words' answer as a list of n verdicts, one per set."""
    verdicts = [SeparationVerdict(True, None)] * n
    for word, verdict in found:
        for r in range(n):
            if word >> r & 1:
                verdicts[r] = verdict
    return verdicts


def test_words_entry_takes_membership_words(diamond6, collider_graph):
    # bit r of words[v] marks vertex index v as a member of set r; a vertex
    # without a word, or with a zero word, is in no set; a key that is no
    # vertex index names no vertex, also where Python indexing would wrap
    from seplat.errors import UnknownVertex

    conds = [sorted(LOW_SET), sorted(PAR_A), [], sorted(LOW_SET | PAR_A)]
    words = {}
    for r, c in enumerate(conds):
        for v in c:
            words[diamond6.index[v]] = words.get(diamond6.index[v], 0) | 1 << r
    want = [is_separated(diamond6, SeparationQuery(A, B, c)) for c in conds]
    assert separation.is_separated_each(diamond6, A, B, conds) == want
    found = separation.witness_words(diamond6, A, B, len(conds), words)
    assert _spread_verdicts(found, len(conds)) == want
    words[diamond6.index[A]] = 0
    assert separation.witness_words(diamond6, A, B, len(conds), words) == found
    assert separation.witness_words(diamond6, A, B, 0, {}) == []
    assert separation.is_separated_each(diamond6, A, B, []) == []
    # each bad word, and the set of labels that spells it
    for g, a, b, bad, label, error in (
            (diamond6, A, B, diamond6.index[B], B, ValueError),
            (diamond6, A, A, None, None, ValueError),
            (diamond6, A, "nowhere", None, None, UnknownVertex),
            (collider_graph, "a", "b", -1, "nowhere", UnknownVertex),
            (collider_graph, "a", "b", 7, "nowhere", UnknownVertex)):
        with pytest.raises(error):
            separation.witness_words(g, a, b, 1, {} if bad is None else {bad: 1})
        with pytest.raises(error):
            separation.is_separated_each(g, a, b, [[] if label is None else [label]])


@pytest.mark.parametrize("n", [0, 1])
def test_words_entry_checks_its_input_for_no_sets_too(collider_graph, n):
    # an empty sweep still names its endpoints and its words' vertices, so
    # n = 0 is checked as n = 1 is, before the empty answer
    from seplat.errors import UnknownVertex

    g = collider_graph
    # each bad input, and the labels that spell its words; with no sets,
    # is_separated_each has no labels to check, only the pair
    for a, b, words, labels, error in (("a", "a", {}, [], ValueError),
                                       ("a", "nowhere", {}, [], UnknownVertex),
                                       ("nowhere", "b", {}, [], UnknownVertex),
                                       ("a", "b", {g.index["a"]: 1}, ["a"], ValueError),
                                       ("a", "b", {7: 1}, ["nowhere"], UnknownVertex),
                                       ("a", "b", {-1: 1}, ["nowhere"], UnknownVertex)):
        with pytest.raises(error):
            separation.witness_words(g, a, b, n, words)
        if n or not labels:
            with pytest.raises(error):
                separation.is_separated_each(g, a, b, [labels] * n)
    assert separation.witness_words(g, "a", "b", 0, {g.index["c"]: 0}) == []
    assert separation.is_separated_each(g, "a", "b", [[]] * n) == \
        [SeparationVerdict(True, None)] * n


def test_oracle_witness_is_the_first_connecting_simple_path():
    # the oracle's walk prunes only blocked prefixes, so its witness is the
    # first path of the unpruned enumeration that is connecting, or None
    rng = random.Random(35)
    verdicts = []
    for seed in range(70):
        n = 2 + seed % 7
        g = random_mixed_graph(n, 0.45, seed=5000 + seed)
        for a, b in rng.sample(list(permutations(g.vertices, 2)), min(4, n * (n - 1))):
            rest = sorted(set(g.vertices) - {a, b})
            cond = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
            first = next((p for p in simple_paths(g, a, b, n - 1)
                          if path_is_connecting(g, p, cond)), None)
            verdict = is_separated_oracle(g, SeparationQuery(a, b, cond))
            assert verdict == SeparationVerdict(first is None, first)
            verdicts.append(verdict.separated)
    # both verdicts occur: 85 of the 260 queries are separated
    assert (len(verdicts), sum(verdicts)) == (260, 85)


def test_no_proper_subset_of_a_minimal_separator_separates():
    # inclusion-minimality checked over every proper subset with the
    # simple-path oracle, which shares no code with the greedy pass
    checked = 0
    for seed in range(200):
        g = random_mixed_graph(3 + seed % 6, 0.2 + 0.1 * (seed % 5), seed)
        for a, b in combinations(g.vertices, 2):
            if g.is_adjacent(a, b):
                continue
            sep = minimal_separator(g, a, b)
            if sep is None:
                continue
            checked += 1
            for k in range(len(sep)):
                for sub in combinations(sorted(sep), k):
                    q = SeparationQuery(a, b, frozenset(sub))
                    assert not is_separated_oracle(g, q).separated, (seed, a, b, sub)
    assert checked > 1500


def test_parents_separate_but_not_minimal_here(diamond6):
    # Par(A) separates, yet at this window size d(0,4) is a blind alley
    # (its other neighbors leave the window), so Par(A) is not
    # inclusion-minimal: only the other two removals reconnect.
    assert is_separated(diamond6, SeparationQuery(A, B, PAR_A)).separated
    for v in ("d(0,3)", "d(1,3)"):
        assert not is_separated(diamond6, SeparationQuery(A, B, PAR_A - {v})).separated
    assert is_separated(diamond6, SeparationQuery(A, B, PAR_A - {"d(0,4)"})).separated


def test_verify_theorem_single_candidates(diamond6):
    assert is_separated(diamond6, SeparationQuery(A, B, PAR_A)).separated
    assert not is_separated(diamond6, SeparationQuery(A, B)).separated


def test_verify_theorem_full_sweep(diamond6):
    # every subset of the two lowest rows in the past of A: the fast route
    # agrees with the oracle, and each witness is a connecting path
    pool = sorted(f"d({i},{j})" for i in range(2) for j in range(5)
                  if (i, j) != (1, 4))
    total = separated = 0
    for size in range(len(pool) + 1):
        for cand in combinations(pool, size):
            total += 1
            q = SeparationQuery(A, B, frozenset(cand))
            verdict = is_separated(diamond6, q)
            assert verdict.separated == is_separated_oracle(diamond6, q).separated
            if verdict.separated:
                separated += 1
            else:
                assert path_is_connecting(diamond6, verdict.witness, cand)
    assert (total, separated) == (512, 332)
