"""The joint kernel of seplat.markov against the dense product it replaced:
np.ones((2,)*n) multiplied by each broadcast CPT factor in sorted-vertex
order.  The one fold, markov._joint_groups, must give the same bits on every
atom.  As a single group (the joint of ancestral_margin and joint) its peak
memory on a topological label order must stay near the old table plus the
new one, and on box latents, which sort after their children, the in-place
step must keep it there too.  The streamed marginal, target_marginal, must give
the bits of the marginal kernel over that dense product without ever
holding it, and on closures of at most 12 vertices the bits of an in-order
sum that shares no code with the kernel (conftest.inorder_marginal)."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import inorder_marginal
from seplat import markov
from seplat.cli import main
from seplat.graph import build_graph
from seplat.lattice import BOX, DIAMOND, Window, canonical_probe_pair
from seplat.lattice import build_graph as build_lattice_graph
from seplat.random_graphs import random_dag, random_mixed_graph


def dense_joint(verts, cpts):
    """The dense product, one full-size temporary per factor."""
    table = np.ones((2,) * len(verts))
    for v in verts:
        cpt = cpts.tables[v]
        fvars = sorted((v,) + cpt.parents)
        factor = np.stack([1.0 - cpt.p1, cpt.p1], axis=fvars.index(v))
        shape = tuple(2 if name in fvars else 1 for name in verts)
        table = table * factor.reshape(shape)
    return table


def assert_same_bits(dag, cpts):
    verts = tuple(sorted(dag.vertices))
    got = markov.joint(dag, cpts)
    want = dense_joint(verts, cpts)
    assert got.vars == verts and got.table.shape == want.shape
    assert got.table.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1))
def test_fold_matches_dense_on_random_dags(n, edge_prob, seed):
    # random_dag draws a random topological order, and v10 sorts before v9,
    # so the sorted label order is seldom topological
    dag = random_dag(n, edge_prob, seed)
    assert_same_bits(dag, markov.random_cpts(dag, seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.floats(0.1, 0.6), st.integers(0, 2 ** 32 - 1))
def test_fold_matches_dense_on_latent_expansions(n, edge_prob, seed):
    g = random_mixed_graph(n, edge_prob, seed)
    dag = markov.latent_expansion(g)
    assume(len(dag.vertices) <= 18)
    cpts = markov.random_cpts(dag, seed)
    assert_same_bits(dag, cpts)
    verts = tuple(sorted(dag.vertices))
    # latents lat(...) sort before v..., so the last axis is kept and the
    # one-pass marginal has numpy's bits
    drop = tuple(i for i, v in enumerate(verts) if v not in g)
    d = markov.joint(dag, cpts).marginal(g.vertices)
    assert d.table.tobytes() == dense_joint(verts, cpts).sum(axis=drop).tobytes()


def test_fold_broadcasts_when_a_parent_sorts_later(monkeypatch):
    # sorted order v10, v8, v9, w.  "v10" sorts before its parent "v9", so
    # its factor is a broadcast product, and so is v8's (the scope already
    # holds v9's axis); v9's factor then multiplies in place, and only w is
    # a new last axis with its parent in the scope
    dag = build_graph(["v8", "v9", "v10", "w"],
                      [("v8", "v9"), ("v9", "v10"), ("v10", "w")])
    folded = []
    original = markov._fold_new_last_axis

    def record(table, axis, *rest):
        folded.append(axis)
        return original(table, axis, *rest)

    monkeypatch.setattr(markov, "_fold_new_last_axis", record)
    assert_same_bits(dag, markov.random_cpts(dag, 5))
    assert folded == [3]


def test_box_latents_multiply_in_place():
    # box latents lat(...) sort after their b(...) children, so each child's
    # step brings a latent axis in by broadcast and the latent's own factor
    # then multiplies the full-scope table in place: no second table
    window = Window(0, 2, 0, 8)
    g = build_lattice_graph(BOX, window)
    dag = markov.latent_expansion(g)
    a, b = canonical_probe_pair(BOX, window)
    verts = tuple(sorted(markov.ancestral_closure(dag, (a.label, b.label))))
    assert len(verts) == 20 and verts[-1] not in g
    cpts = markov.random_cpts(dag, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = next(markov._joint_groups(verts, cpts, 0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert table.tobytes() == dense_joint(verts, cpts).tobytes()
    # a fresh product per latent step needs 2x
    assert peak < 1.6 * table.nbytes


@pytest.fixture(scope="module")
def soundness_closures(tmp_path_factory):
    """The 6x6 diamond DAG, the closure of each trial of `mc soundness
    --trials 40 --seed 0 --max-cond 6` (None over budget; the trial number is
    its CPT seed), the targets of each closure, and (trial, targets) of the
    one margin the command builds."""
    graph = tmp_path_factory.mktemp("joint") / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5", "--out", str(graph)]) == 0
    dags, closures, queries, margins = [], [], [], []
    mp = pytest.MonkeyPatch()
    closure_of, margin_of = markov.ancestral_closure, markov.target_marginal

    def closure(dag, targets, budget=markov.DEFAULT_JOINT_BUDGET):
        dags.append(dag)
        queries.append(frozenset(targets))
        try:
            found = closure_of(dag, targets, budget)
        except markov.BudgetExceeded:
            closures.append(None)
            raise
        closures.append(found)
        return found

    def margin(dag, cpts, targets, *args):
        margins.append((len(closures) - 1, frozenset(targets)))
        return margin_of(dag, cpts, targets, *args)

    mp.setattr(markov, "ancestral_closure", closure)
    mp.setattr(markov, "target_marginal", margin)
    try:
        assert main(["mc", "soundness", "--graph", str(graph), "--trials", "40",
                     "--seed", "0", "--max-cond", "6"]) == 0
    finally:
        mp.undo()
    return dags[0], closures, queries, margins


@pytest.mark.parametrize("n_vars", [21, 22])
def test_fold_matches_dense_on_soundness_margins(soundness_closures, n_vars):
    dag, closures, _, _ = soundness_closures
    trial = next(t for t, c in enumerate(closures) if c is not None and len(c) == n_vars)
    verts = tuple(sorted(closures[trial]))
    cpts = markov.random_cpts(dag, trial)
    want = dense_joint(verts, cpts).tobytes()
    assert next(markov._joint_groups(verts, cpts, 0)).tobytes() == want
    # a margin that keeps the whole closure is folded as one group
    margin = markov.ancestral_margin(dag, cpts, closures[trial])
    assert margin.vars == verts and margin.table.tobytes() == want


def test_soundness_margin_peak_memory(soundness_closures):
    dag, closures, _, [(trial, targets)] = soundness_closures
    assert len(closures[trial]) == 21
    cpts = markov.random_cpts(dag, trial)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        margin = markov.ancestral_margin(dag, cpts, targets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the old table plus the new one is 1.5x; the dense product needs 2x
    assert peak < 1.6 * margin.table.nbytes


def marginal_reference(dag, cpts, targets):
    """The marginal kernel over the dense product of the targets' closure,
    which on at most 12 vertices must have the bits of the in-order sum."""
    verts = tuple(sorted(markov.ancestral_closure(dag, targets)))
    dense = dense_joint(verts, cpts)
    want = markov._marginal_table(dense, markov._axis_weights(verts, sorted(targets)))
    if len(verts) <= 12:
        inorder = inorder_marginal(dense.reshape(-1).tolist(), verts, targets)
        assert np.array(inorder).tobytes() == want.tobytes()
    return want


def assert_streamed_bits(dag, cpts, targets, head_axes, group_axes):
    want = marginal_reference(dag, cpts, targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov, "_HEAD_AXES", head_axes)
        mp.setattr(markov, "_BLOCK_AXES", group_axes)
        got = markov.target_marginal(dag, cpts, targets)
    assert got.vars == tuple(sorted(targets))
    assert got.table.reshape(-1).tobytes() == want.tobytes()
    return got


def head_and_group_axes(n_vertices):
    """Small head and group sizes run many groups on small graphs (up to 12
    vertices, to keep the number of groups down); 16 and 16 are the
    module's own sizes, which stream a closure of at most 16 vertices as
    one group."""
    small = st.sampled_from([(4, 2), (0, 1), (3, 3), (6, 4)])
    return st.one_of(small, st.just((16, 16))) if n_vertices <= 12 else st.just((16, 16))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 18), st.floats(0.0, 0.6), st.integers(0, 2 ** 32 - 1), st.data())
def test_streamed_marginal_matches_dense_on_random_dags(n, edge_prob, seed, data):
    # labels v0..v17: v10 sorts before v9, so parents often sort later
    dag = random_dag(n, edge_prob, seed)
    targets = data.draw(st.sets(st.sampled_from(sorted(dag.vertices)), min_size=1))
    cpts = markov.random_cpts(dag, seed)
    got = assert_streamed_bits(dag, cpts, targets, *data.draw(head_and_group_axes(n)))
    # latent-free, so the old route gives the same bits
    want = markov.ancestral_margin(dag, cpts, targets).marginal(targets)
    assert got.table.tobytes() == want.table.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.floats(0.1, 0.6), st.integers(0, 2 ** 32 - 1), st.data())
def test_streamed_marginal_matches_dense_on_latent_expansions(n, edge_prob, seed, data):
    # latents lat(...) sort before the v... vertices
    g = random_mixed_graph(n, edge_prob, seed)
    dag = markov.latent_expansion(g)
    assume(len(dag.vertices) <= 18)
    targets = data.draw(st.sets(st.sampled_from(sorted(g.vertices)), min_size=1))
    axes = data.draw(head_and_group_axes(len(dag.vertices)))
    assert_streamed_bits(dag, markov.random_cpts(dag, seed), targets, *axes)


def test_streamed_head_and_groups_broadcast_when_a_parent_sorts_later():
    # sorted order v10, v8, v9, w, and v10's parent v9 sorts after it.  A
    # 2-axis head folds v10 alone, a broadcast step that brings in v9's axis;
    # with 1-axis groups v8 and v9 are then fixed leading vertices, and v9's
    # axis is already in the head's scope.  With no head, v10's factor is a
    # broadcast over v9's free axis in every group.
    dag = build_graph(["v8", "v9", "v10", "w"],
                      [("v8", "v9"), ("v9", "v10"), ("v10", "w")])
    cpts = markov.random_cpts(dag, 5)
    for axes in ((2, 1), (0, 2), (1, 3)):
        for targets in ({"w"}, {"v8", "w"}, {"v10", "v9"}):
            assert_streamed_bits(dag, cpts, targets, *axes)


@pytest.mark.parametrize("n_vars", [21, 22])
def test_streamed_marginal_on_soundness_closures(soundness_closures, n_vars):
    dag, closures, queries, _ = soundness_closures
    trial = next(t for t, c in enumerate(closures) if c is not None and len(c) == n_vars)
    cpts = markov.random_cpts(dag, trial)
    assert_streamed_bits(dag, cpts, queries[trial], markov._HEAD_AXES, markov._BLOCK_AXES)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        markov.target_marginal(dag, cpts, queries[trial])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the dense joint alone is 16 MB on 21 vertices and 32 MB on 22
    assert peak < 2 * 2 ** 20


def test_closure_margins_take_one_route_each(monkeypatch):
    # the probe closure of the 6x6 diamond has 16 vertices, one block: a
    # margin that drops a vertex streams it as one group and chains it, one
    # that keeps every vertex is that one group, and neither calls bincount
    dag = build_lattice_graph(DIAMOND, Window(0, 5, 0, 5))
    cpts = markov.random_cpts(dag, 1)
    targets = ("d(1,4)", "d(4,1)")
    verts = tuple(sorted(markov.ancestral_closure(dag, targets)))
    assert len(verts) == 16 and verts[-1] in targets
    want = dense_joint(verts, cpts)
    calls, leads = [], []

    def spy(name, original):
        def record(*args, **kwargs):
            calls.append(name)
            if name == "_joint_groups":
                leads.append(args[2])
            return original(*args, **kwargs)
        return record

    for name in ("_joint_groups", "_chain_blocks"):
        monkeypatch.setattr(markov, name, spy(name, getattr(markov, name)))
    monkeypatch.setattr(np, "bincount", spy("bincount", np.bincount))
    margin = markov.target_marginal(dag, cpts, targets)
    assert calls == ["_joint_groups", "_chain_blocks"] and leads == [0]
    # the last vertex is kept, so numpy's sum has the same bits
    drop = tuple(i for i, v in enumerate(verts) if v not in targets)
    assert margin.table.tobytes() == want.sum(axis=drop).tobytes()
    calls.clear()
    margin = markov.ancestral_margin(dag, cpts, targets)
    assert calls == ["_joint_groups"] and leads == [0, 0]
    assert margin.table.tobytes() == want.tobytes()


def test_single_group_is_not_copied():
    # the 16-vertex probe closure of the 6x6 diamond streams as one group,
    # the head folded on in place, at a peak of 2.65 times the 512 KB
    # table; a copy of the head puts it at 3.0 times
    dag = build_lattice_graph(DIAMOND, Window(0, 5, 0, 5))
    cpts = markov.random_cpts(dag, 1)
    targets = ("d(1,4)", "d(4,1)")
    table_bytes = markov.ancestral_margin(dag, cpts, targets).table.nbytes
    assert table_bytes == 2 ** 16 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        markov.target_marginal(dag, cpts, targets)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.85 * table_bytes


def test_single_group_holds_no_head_beside_its_last_step():
    # an 18-vertex joint in topological label order: the last step holds the
    # 1 MB old table and the 2 MB new one, and a 512 KB head of 16 axes held
    # beside them would put the peak at 1.79 times the table
    verts = [f"v{i:02d}" for i in range(18)]
    dag = build_graph(verts, list(zip(verts, verts[1:])) + list(zip(verts, verts[2:])))
    cpts = markov.random_cpts(dag, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = markov.joint(dag, cpts).table
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert table.tobytes() == dense_joint(tuple(verts), cpts).tobytes()
    assert peak < 1.6 * table.nbytes


def test_each_margin_checks_its_closure_once(monkeypatch):
    dag = markov.latent_expansion(random_mixed_graph(6, 0.4, 3))
    cpts = markov.random_cpts(dag, 3)
    calls = []
    original = markov.ancestral_closure

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(markov, "ancestral_closure", counting)
    for margin in (lambda: markov.ancestral_margin(dag, cpts, ("v0", "v1")),
                   lambda: markov.target_marginal(dag, cpts, ("v0", "v1")),
                   lambda: markov.joint(dag, cpts)):
        calls.clear()
        margin()
        assert len(calls) == 1


def test_box_audit_sums_latents_inside_the_stream():
    # the probe closure of the 3x9 box has 20 vertices, 12 of them latent:
    # the audit's margin over its 8 observed vertices is streamed, and the
    # closure's 8 MB table is never held
    window = Window(0, 2, 0, 8)
    cpts = markov.random_cpts(markov.latent_expansion(build_lattice_graph(BOX, window)), 2)
    tracemalloc.start()
    try:
        report = markov.is_locally_causal(BOX, window, cpts, "l3c")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.locally_causal and report.regions_checked > 0
    assert peak < 2 * 2 ** 20
