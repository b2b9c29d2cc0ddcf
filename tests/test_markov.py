import re

import numpy as np
import pytest

from seplat.errors import (
    BudgetExceeded,
    DisjointnessViolation,
    SeparatedInput,
    UnknownVertex,
)
from seplat.graph import build_graph, format_path
from seplat.lattice import BOX, DIAMOND, L3C, L3Q, Window, canonical_probe_pair, prop1_sweep
from seplat.lattice import build_graph as build_lattice_graph
from seplat.markov import (
    CptSet,
    Distribution,
    EventRef,
    VertexCpt,
    ancestral_margin,
    check_cmc,
    ci_details,
    ci_violation,
    find_dependence_witness,
    is_locally_causal,
    joint,
    latent_expansion,
    random_cpts,
    target_marginal,
)
from seplat.separation import SeparationQuery, is_separated


def cpts_of(**tables):
    out = {}
    for v, (parents, p1) in tables.items():
        out[v] = VertexCpt(tuple(parents), np.asarray(p1, dtype=float))
    return CptSet(out)


def test_latent_expansion_single_edge():
    g = build_graph({"a", "b"}, [], [("a", "b")])
    dag = latent_expansion(g)
    assert set(dag.vertices) - set(g.vertices) == {"lat(a,b)"}
    assert ("lat(a,b)", "a") in dag.directed and ("lat(a,b)", "b") in dag.directed
    assert not dag.bidirected
    # a vertex already named lat(a,b) pushes the latent to a fresh label
    taken = build_graph({"a", "b", "lat(a,b)"}, [], [("a", "b")])
    dag = latent_expansion(taken)
    assert set(dag.vertices) - set(taken.vertices) == {"lat(a,b)'"}
    assert ("lat(a,b)'", "a") in dag.directed and ("lat(a,b)", "a") not in dag.directed


def test_latent_expansion_identity_on_dags():
    g = build_graph({"a", "b"}, [("a", "b")])
    dag = latent_expansion(g)
    assert dag is g and set(dag.vertices) - set(g.vertices) == set()


def test_latent_expansion_box_counts(box3):
    dag = latent_expansion(box3)
    assert len(set(dag.vertices) - set(box3.vertices)) == 6
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
    assert d.table[1] == pytest.approx(0.3)
    assert d.table[0] == pytest.approx(0.7)


def test_joint_deterministic_edge():
    g = build_graph({"a", "b"}, [("a", "b")])
    d = joint(g, cpts_of(a=((), 0.5), b=(("a",), [0.0, 1.0])))
    assert d.vars == ("a", "b")
    assert d.table[1, 1] == pytest.approx(0.5)
    assert d.table[1, 0] == 0.0


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


def test_exact_margins_need_a_dag():
    # on a <-> b the product of the root CPTs would hide the latent dependence
    g = build_graph({"a", "b"}, [], [("a", "b")])
    cpts = cpts_of(a=((), 0.3), b=((), 0.6))
    for margin in (lambda: joint(g, cpts),
                   lambda: ancestral_margin(g, cpts, ("a", "b")),
                   lambda: target_marginal(g, cpts, ("a", "b"))):
        with pytest.raises(ValueError, match="expand bidirected edges first"):
            margin()


def test_cpt_parents_must_match_the_graph():
    # c is isolated in the graph, but its CPT conditions on b
    g = build_graph({"a", "b", "c"}, [("a", "b")])
    cpts = cpts_of(a=((), 0.3), b=(("a",), [0.2, 0.9]), c=(("b",), [0.1, 0.8]))
    with pytest.raises(ValueError, match="parents"):
        joint(g, cpts)
    with pytest.raises(ValueError, match="parents"):
        ancestral_margin(g, cpts, ("c",))


def test_joint_marginalizes_latents(box3):
    dag = latent_expansion(box3)
    d = joint(dag, random_cpts(dag, 11)).marginal(box3.vertices)
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
    # 0/1 only as integers: a bool or float used to reach ci_violation and
    # fail there with a numpy IndexError
    for value in (True, False, 1.0, 0.0, np.float64(1.0), np.bool_(True)):
        with pytest.raises(ValueError, match="integers 0 or 1"):
            EventRef(("a",), (value,))
    assert EventRef(("a", "b"), (np.int64(1), 0)).values == (1, 0)


def test_event_ref_rejects_a_repeated_vertex():
    # once constructed, such an event would fail in ci_violation's transpose
    with pytest.raises(ValueError, match="'a'"):
        EventRef(("a", "a"), (1, 0))


def test_distribution_validation():
    for table in ([0.6, 0.6], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            Distribution(("a",), np.array(table))
    with pytest.raises(ValueError):
        Distribution(("a", "a"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="shape"):
        Distribution(("a", "b"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="negative"):
        Distribution(("a",), np.array([-0.5, 1.5]))
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


def test_kernel_built_tables_pass_the_public_checks():
    # margins and marginals skip the validating constructor; each must
    # still be a distribution the public constructor accepts
    g = build_lattice_graph(BOX, Window(0, 2, 0, 3))
    dag = latent_expansion(g)
    closure = ancestral_margin(dag, random_cpts(dag, 3), ("b(2,0)", "b(2,3)"))
    margin = closure.marginal(v for v in closure.vars if v in g)
    for built in (closure, margin, margin.marginal(margin.vars[1:4])):
        assert isinstance(built.vars, tuple) and built.table.dtype == float
        checked = Distribution(built.vars, built.table)
        assert checked.vars == built.vars and np.array_equal(checked.table, built.table)


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


def test_check_cmc_validation():
    d = Distribution(("a", "b"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="needs a DAG"):
        check_cmc(d, build_graph({"a", "b"}, [], [("a", "b")]))
    with pytest.raises(UnknownVertex, match="'c'"):
        check_cmc(d, build_graph({"a", "b", "c"}, [("a", "b")]))


def test_ancestral_margin_matches_full_joint(diamond3):
    cpts = random_cpts(diamond3, 9)
    full = joint(diamond3, cpts)
    margin = ancestral_margin(diamond3, cpts, ("d(1,1)", "d(0,2)"))
    sub = full.marginal(margin.vars)
    assert np.allclose(sub.table, margin.table, atol=1e-12)


def test_find_witness_explaining_away(collider_graph):
    cpts, gap = find_dependence_witness(collider_graph, "a", "b", {"c"},
                                        attempts=20, threshold=0.05, seed=3)
    d = joint(collider_graph, cpts)
    violation = ci_violation(d, EventRef.single("a"), EventRef.single("b"), ("c",))
    assert violation > 0.05
    assert gap == pytest.approx(violation, abs=1e-12)
    again, again_gap = find_dependence_witness(collider_graph, "a", "b", {"c"},
                                               attempts=20, threshold=0.05, seed=3)
    assert again.to_json_dict() == cpts.to_json_dict() and again_gap == gap


def test_find_witness_copies_down_to_a_conditioned_descendant():
    # a->c<-b with c->d->e: conditioning on e opens the collider c only if
    # the plan copies c down the chain to e
    g = build_graph("abcde", [("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")])
    cpts, gap = find_dependence_witness(g, "a", "b", {"e"}, attempts=1, threshold=0.1,
                                        seed=0)
    violation = ci_violation(joint(g, cpts), EventRef.single("a"), EventRef.single("b"),
                             ("e",))
    assert violation == pytest.approx(0.18225)
    assert gap == pytest.approx(violation, abs=1e-12)


def test_find_witness_through_a_spouse_edge():
    g = build_lattice_graph(BOX, Window(0, 2, 0, 3))
    a, b, cond = "b(2,0)", "b(2,3)", {"b(1,1)", "b(1,2)"}
    witness = is_separated(g, SeparationQuery(a, b, frozenset(cond))).witness
    assert "b(0,1)<->b(0,2)" in format_path(witness)
    # the first attempt is the path-aligned plan, routed through the latent
    assert find_dependence_witness(g, a, b, cond, attempts=1, threshold=0.1,
                                   seed=0) is not None


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
        dag = latent_expansion(g)
        rep = is_locally_causal(kind, window, random_cpts(dag, 2), "l3c")
        assert rep.locally_causal
        assert rep.regions_checked > 0
        assert rep.atoms_checked > 0
    # a CPT missing from a probe's ancestral closure is named by ancestral_margin
    cpts = random_cpts(dag, 2)
    probe = rep.a
    without = CptSet({v: t for v, t in cpts.tables.items() if v != probe})
    with pytest.raises(UnknownVertex, match=re.escape(probe)):
        is_locally_causal(BOX, Window(0, 2, 0, 8), without, "l3c")
    # an unknown L3 variant is an error, even when no candidate is enumerated
    with pytest.raises(ValueError, match="unknown L3 variant"):
        is_locally_causal(BOX, Window(0, 2, 0, 8), cpts, "bogus", max_cells=0)


@pytest.mark.parametrize("variant", [L3C, L3Q])
@pytest.mark.parametrize("kind, window", [(DIAMOND, Window(0, 5, 0, 5)),
                                          (BOX, Window(0, 2, 0, 8))])
def test_is_locally_causal_checks_the_sweeps_shielder_off_regions(kind, window, variant):
    g = build_lattice_graph(kind, window)
    dag = latent_expansion(g)
    rep = is_locally_causal(kind, window, random_cpts(dag, 3), variant)
    cell_a, cell_b = canonical_probe_pair(kind, window)
    sweep = prop1_sweep(kind, window, cell_a, cell_b, variant, lattice_graph=g)
    expected = [r.region for r in sweep.rows if r.shielder_off]
    assert expected  # 84 and 5 on the diamond, 1 and 1 on the box
    assert [c.region for c in rep.checks] == expected


@pytest.mark.parametrize("kind, window", [(DIAMOND, Window(0, 5, 0, 5)),
                                          (BOX, Window(0, 2, 0, 8))])
def test_is_locally_causal_checks_match_the_closure_joint(kind, window):
    # a second margin route: the whole joint of the closure of {a, b} and the
    # region, latents included, marginalized inside ci_details
    dag = latent_expansion(build_lattice_graph(kind, window))
    cpts = random_cpts(dag, 3)
    rep = is_locally_causal(kind, window, cpts, L3C)
    assert rep.regions_checked == {DIAMOND: 84, BOX: 1}[kind]
    ev_a, ev_b = EventRef.single(rep.a), EventRef.single(rep.b)
    for check in rep.checks:
        margin = ancestral_margin(dag, cpts, {rep.a, rep.b, *check.region})
        violation, atoms = ci_details(margin, ev_a, ev_b, check.region)
        assert atoms == check.atoms
        assert violation == pytest.approx(check.violation, abs=1e-12)


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
    with pytest.raises(ValueError, match="shape"):
        VertexCpt(("a",), np.full((2, 2), 0.5))
