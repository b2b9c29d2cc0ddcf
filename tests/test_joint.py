"""The joint kernel of seplat.markov against the dense product it replaced:
np.ones((2,)*n) multiplied by each broadcast CPT factor in sorted-vertex
order.  The fold must give the same bits on every atom, and on a topological
label order its peak memory must stay near the old table plus the new one,
and on box latents, which sort after their children, the in-place step
must keep it there too."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from seplat import markov
from seplat.cli import main
from seplat.graph import build_graph
from seplat.lattice import BOX, Window, canonical_probe_pair
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
    got = markov._tensor_joint(verts, cpts)
    want = dense_joint(verts, cpts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    dag, latent = markov.latent_expansion(random_mixed_graph(n, edge_prob, seed))
    assume(len(dag.vertices) <= 18)
    cpts = markov.random_cpts(dag, seed)
    assert_same_bits(dag, cpts)
    verts = tuple(sorted(dag.vertices))
    drop = tuple(i for i, v in enumerate(verts) if v in latent)
    d = markov.joint(dag, cpts, latent)
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
    dag, latent = markov.latent_expansion(build_lattice_graph(BOX, window))
    a, b = canonical_probe_pair(BOX, window)
    verts = tuple(sorted(markov.ancestral_closure(dag, (a.label, b.label))))
    assert len(verts) == 20 and verts[-1] in latent
    cpts = markov.random_cpts(dag, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = markov._tensor_joint(verts, cpts)
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
    its CPT seed), and (trial, targets) of the one margin the command builds."""
    graph = tmp_path_factory.mktemp("joint") / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5", "--out", str(graph)]) == 0
    dags, closures, margins = [], [], []
    mp = pytest.MonkeyPatch()
    closure_of, margin_of = markov.ancestral_closure, markov.ancestral_margin

    def closure(dag, targets, budget=markov.DEFAULT_JOINT_BUDGET):
        dags.append(dag)
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
    mp.setattr(markov, "ancestral_margin", margin)
    try:
        assert main(["mc", "soundness", "--graph", str(graph), "--trials", "40",
                     "--seed", "0", "--max-cond", "6"]) == 0
    finally:
        mp.undo()
    return dags[0], closures, margins


@pytest.mark.parametrize("n_vars", [21, 22])
def test_fold_matches_dense_on_soundness_margins(soundness_closures, n_vars):
    dag, closures, _ = soundness_closures
    trial = next(t for t, c in enumerate(closures) if c is not None and len(c) == n_vars)
    verts = tuple(sorted(closures[trial]))
    cpts = markov.random_cpts(dag, trial)
    got = markov._tensor_joint(verts, cpts)
    assert got.tobytes() == dense_joint(verts, cpts).tobytes()


def test_soundness_margin_peak_memory(soundness_closures):
    dag, closures, [(trial, targets)] = soundness_closures
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
