import numpy as np
import pytest

from seplat.errors import (
    BudgetExceeded,
    DisjointnessViolation,
    SeparatedInput,
    UnknownVertex,
)
from seplat.graph import build_graph
from seplat.lattice import BOX, DIAMOND, Window
from seplat.lattice import build_graph as build_lattice_graph
from seplat.markov import (
    CptSet,
    Distribution,
    EventRef,
    VertexCpt,
    ancestral_margin,
    check_cmc,
    ci_violation,
    find_dependence_witness,
    is_locally_causal,
    joint,
    latent_expansion,
    random_cpts,
)


def cpts_of(**tables):
    out = {}
    for v, (parents, p1) in tables.items():
        out[v] = VertexCpt(tuple(parents), np.asarray(p1, dtype=float))
    return CptSet(out)


def test_latent_expansion_single_edge():
    g = build_graph({"a", "b"}, [], [("a", "b")])
    dag, latent = latent_expansion(g)
    assert latent == {"lat(a,b)"}
    assert ("lat(a,b)", "a") in dag.directed and ("lat(a,b)", "b") in dag.directed
    assert not dag.bidirected


def test_latent_expansion_identity_on_dags():
    g = build_graph({"a", "b"}, [("a", "b")])
    dag, latent = latent_expansion(g)
    assert dag is g and latent == frozenset()


def test_latent_expansion_box_counts(box3):
    dag, latent = latent_expansion(box3)
    assert len(latent) == 6
    assert len(dag.directed) == len(box3.directed) + 12
    assert not dag.bidirected


def test_random_cpts_deterministic_and_bounded(diamond3):
    one = random_cpts(diamond3, 7)
    two = random_cpts(diamond3, 7)
    for v in diamond3.vertices:
        assert np.array_equal(one.tables[v].p1, two.tables[v].p1)
        assert np.all(one.tables[v].p1 >= 0.05) and np.all(one.tables[v].p1 <= 0.95)
    assert not np.array_equal(random_cpts(diamond3, 8).tables["d(1,1)"].p1,
                              one.tables["d(1,1)"].p1)


def test_random_cpts_require_dag(box3):
    with pytest.raises(ValueError):
        random_cpts(box3, 0)


def test_joint_single_vertex():
    g = build_graph({"a"})
    d = joint(g, cpts_of(a=((), 0.3)))
    assert d.prob({"a": 1}) == pytest.approx(0.3)
    assert d.prob({"a": 0}) == pytest.approx(0.7)


def test_joint_deterministic_edge():
    g = build_graph({"a", "b"}, [("a", "b")])
    d = joint(g, cpts_of(a=((), 0.5), b=(("a",), [0.0, 1.0])))
    assert d.prob({"a": 1, "b": 1}) == pytest.approx(0.5)
    assert d.prob({"a": 1, "b": 0}) == 0.0


def test_joint_strictly_positive_on_chain():
    g = build_graph([f"v{i}" for i in range(5)],
                    [(f"v{i}", f"v{i+1}") for i in range(4)])
    d = joint(g, random_cpts(g, 3))
    assert float(d.table.min()) > 0.0


def test_collider_margin_factorizes(collider_graph):
    d = joint(collider_graph, random_cpts(collider_graph, 7))
    m = d.marginal(("a", "b"))
    pa = m.table.sum(axis=1)[1]
    pb = m.table.sum(axis=0)[1]
    assert m.table[1, 1] == pytest.approx(pa * pb, abs=1e-12)
    assert ci_violation(d, EventRef.single("a"), EventRef.single("b"), ()) < 1e-12


def test_joint_budget():
    g = build_graph([f"v{i}" for i in range(23)])
    with pytest.raises(BudgetExceeded):
        joint(g, random_cpts(g, 0))


def test_missing_cpt_raises_unknown_vertex():
    g = build_graph({"a", "b"}, [("a", "b")])
    cpts = cpts_of(a=((), 0.5))
    with pytest.raises(UnknownVertex):
        joint(g, cpts)
    with pytest.raises(UnknownVertex):
        ancestral_margin(g, cpts, ("b",))


def test_joint_marginalizes_latents(box3):
    dag, latent = latent_expansion(box3)
    d = joint(dag, random_cpts(dag, 11), latent)
    assert set(d.vars) == set(box3.vertices)
    assert abs(float(d.table.sum()) - 1.0) <= 1e-12


def test_cond_indep_common_cause_copies():
    g = build_graph({"a", "b", "e"}, [("e", "a"), ("e", "b")])
    cpts = cpts_of(e=((), 0.5), a=(("e",), [0.05, 0.95]), b=(("e",), [0.05, 0.95]))
    d = joint(g, cpts)
    ea, eb = EventRef.single("a"), EventRef.single("b")
    assert ci_violation(d, ea, eb, ("e",)) <= 1e-9
    assert ci_violation(d, ea, eb, ()) > 1e-9
    # symmetry of the check
    assert ci_violation(d, ea, eb, ()) == pytest.approx(
        ci_violation(d, eb, ea, ()), abs=1e-15)


def test_cond_indep_rejects_overlap():
    g = build_graph({"a", "b"}, [("a", "b")])
    d = joint(g, random_cpts(g, 0))
    with pytest.raises(DisjointnessViolation):
        ci_violation(d, EventRef.single("a"), EventRef.single("a"), ())
    with pytest.raises(DisjointnessViolation):
        ci_violation(d, EventRef.single("a"), EventRef.single("b"), ("b",))


def test_event_ref_validation():
    with pytest.raises(ValueError):
        EventRef(("a",), (2,))
    with pytest.raises(ValueError):
        EventRef(("a", "b"), (1,))


def test_distribution_validation():
    for table in ([0.6, 0.6], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            Distribution(("a",), np.array(table))
    with pytest.raises(ValueError):
        Distribution(("a", "a"), np.full((2, 2), 0.25))
    with pytest.raises(UnknownVertex):
        Distribution(("a",), np.array([0.5, 0.5])).marginal(("zz",))


def test_marginal_comes_back_in_sorted_order():
    m = Distribution(("b", "a"), [[0.0, 0.5], [0.0, 0.5]]).marginal(("a", "b"))
    assert m.vars == ("a", "b")
    assert np.array_equal(m.table, [[0.0, 0.0], [0.5, 0.5]])
    # the same joint stored in two variable orders gives the same CI gap
    rng = np.random.default_rng(5)
    table = rng.uniform(0.05, 1.0, size=(2, 2, 2))
    table /= table.sum()
    abc = Distribution(("a", "b", "c"), table)
    cab = Distribution(("c", "a", "b"), np.transpose(table, (2, 0, 1)))
    ea, eb = EventRef.single("a"), EventRef.single("b")
    assert ci_violation(cab, ea, eb, ("c",)) == pytest.approx(
        ci_violation(abc, ea, eb, ("c",)), abs=1e-15)
    assert np.array_equal(cab.marginal(("b", "c")).table, abc.marginal(("b", "c")).table)


def test_check_cmc_lattice_joint(diamond3):
    d = joint(diamond3, random_cpts(diamond3, 5))
    rep = check_cmc(d, diamond3)
    assert rep.ok and rep.checked > 0


def test_check_cmc_detects_non_markov_distribution():
    # c has no parents in the graph yet copies b in the distribution
    dag = build_graph({"a", "b", "c"}, [("a", "b")])
    table = np.zeros((2, 2, 2))
    for a in (0, 1):
        pa = 0.5
        for bb in (0, 1):
            pb = 0.8 if bb == a else 0.2
            for c in (0, 1):
                pc = 0.9 if c == bb else 0.1
                table[a, bb, c] = pa * pb * pc
    d = Distribution(("a", "b", "c"), table)
    rep = check_cmc(d, dag)
    assert not rep.ok
    assert any({x, y} == {"b", "c"} for x, y, _ in rep.violations)


def test_check_cmc_single_vertex():
    g = build_graph({"a"})
    rep = check_cmc(joint(g, cpts_of(a=((), 0.4))), g)
    assert rep.ok and rep.checked == 0


def test_ancestral_margin_matches_full_joint(diamond3):
    cpts = random_cpts(diamond3, 9)
    full = joint(diamond3, cpts)
    margin = ancestral_margin(diamond3, cpts, ("d(1,1)", "d(0,2)"))
    sub = full.marginal(margin.vars)
    assert np.allclose(sub.table, margin.table, atol=1e-12)


def test_find_witness_explaining_away(collider_graph):
    cpts = find_dependence_witness(collider_graph, "a", "b", {"c"},
                                   attempts=20, threshold=0.05, seed=3)
    assert cpts is not None
    d = joint(collider_graph, cpts)
    assert ci_violation(d, EventRef.single("a"), EventRef.single("b"), ("c",)) > 0.05
    again = find_dependence_witness(collider_graph, "a", "b", {"c"},
                                    attempts=20, threshold=0.05, seed=3)
    assert again.to_json_dict() == cpts.to_json_dict()


def test_find_witness_refuses_separating_set(common_cause_graph):
    with pytest.raises(SeparatedInput):
        find_dependence_witness(common_cause_graph, "a", "b", {"e"},
                                attempts=5, threshold=0.01, seed=0)


def test_cpt_json_round_trip(diamond3):
    cpts = random_cpts(diamond3, 4)
    doc = cpts.to_json_dict()
    back = CptSet.from_json_dict(doc)
    for v in diamond3.vertices:
        assert back.tables[v].parents == cpts.tables[v].parents
        assert np.allclose(back.tables[v].p1, cpts.tables[v].p1)


def test_is_locally_causal_small_windows():
    # smallest windows whose canonical probes admit a shielder-off region
    for kind, window in ((DIAMOND, Window(0, 3, 0, 3)), (BOX, Window(0, 2, 0, 8))):
        g = build_lattice_graph(kind, window)
        dag, _latent = latent_expansion(g)
        rep = is_locally_causal(kind, window, random_cpts(dag, 2), "l3c")
        assert rep.locally_causal
        assert rep.probes[0].regions_checked > 0
        assert rep.probes[0].atoms_checked > 0


@pytest.mark.parametrize("p1", [
    {"1": 0.7},                               # missing row
    {"0": 0.2, "1": 0.7, "10": 0.5},          # extra key
    {"00": 0.2, "01": 0.7},                   # keys of the wrong length
    {"0": 0.2, "x": 0.7},                     # not a bit string
    {"0": "0.2", "1": 0.7},                   # not a number
    {"0": True, "1": 0.7},
    {"0": float("nan"), "1": 0.7},
    {"0": 0.2, "1": 1.5},
])
def test_cpt_json_rejects_malformed_rows(p1):
    doc = {"a": {"parents": [], "p1": {"": 0.5}}, "b": {"parents": ["a"], "p1": p1}}
    with pytest.raises(ValueError):
        CptSet.from_json_dict(doc)


def test_vertex_cpt_validation():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            VertexCpt(("a",), np.array([0.5, bad]))
    # p1 axes follow sorted parent labels; ("b", "a") would silently swap them
    for parents in (("b", "a"), ("a", "a")):
        with pytest.raises(ValueError):
            VertexCpt(parents, np.full((2, 2), 0.5))
