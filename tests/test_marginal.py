"""The marginal kernel of seplat.markov against three references: an
exactly rounded sum (math.fsum per output atom); an in-order sum in plain
Python floats (conftest.inorder_marginal), which it matches bit for bit on
tables of at most 2^12 atoms, whatever they keep; and numpy's multi-axis
sum, which it matches bit for bit whenever the table's last variable is
kept.  Every table that drops a variable is chained a block at a time with
np.add.at, a table of at most one block's atoms as one block."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import inorder_marginal
from seplat import markov
from seplat.cli import main
from seplat.markov import Distribution


@st.composite
def marginal_cases(draw, sizes=st.one_of(st.integers(1, 16), st.integers(17, 18))):
    # 17 and 18 variables chain 2^16-atom blocks (above 2^16 atoms)
    n = draw(sizes)
    order = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    # the fourth power spreads the entries over several orders of magnitude
    table = np.random.default_rng(seed).random((2,) * n) ** 4
    return Distribution(order, table / table.sum()), [v for v, k in zip(order, kept) if k]


def fsum_marginal(d, keep):
    """Keep-first transpose, then math.fsum per output atom."""
    kept = sorted(keep)
    axes = ([d.vars.index(v) for v in kept]
            + [i for i, v in enumerate(d.vars) if v not in keep])
    rows = np.transpose(d.table, axes).reshape(2 ** len(kept), -1)
    return np.array([math.fsum(row.tolist()) for row in rows]).reshape((2,) * len(kept))


def numpy_marginal(d, keep):
    """table.sum over the dropped axes, with the kept axes put in sorted order."""
    summed = d.table.sum(axis=tuple(i for i, v in enumerate(d.vars) if v not in keep))
    kept = [v for v in d.vars if v in keep]
    return np.transpose(summed, [kept.index(v) for v in sorted(keep)])


def assert_inorder_bits(d, keep, m):
    want = inorder_marginal(d.table.reshape(-1).tolist(), d.vars, keep)
    assert m.table.tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(marginal_cases())
def test_marginal_kernel_matches_references(case):
    d, keep = case
    m = d.marginal(keep)
    assert m.vars == tuple(sorted(keep))
    assert np.allclose(m.table, fsum_marginal(d, keep), rtol=1e-10, atol=0.0)
    if d.table.size <= 2 ** 12:
        assert_inorder_bits(d, keep, m)
    if d.vars[-1] in keep:
        assert m.table.tobytes() == numpy_marginal(d, keep).tobytes()


@settings(max_examples=60, deadline=None)
@given(marginal_cases(st.integers(2, 12)), st.integers(0, 3))
def test_marginal_chains_many_small_read_only_blocks(case, block_axes):
    # up to 2^12 blocks of 2^block_axes atoms; a write into a block of the
    # read-only table would raise
    d, keep = case
    d.table.flags.writeable = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov, "_BLOCK_AXES", block_axes)
        m = d.marginal(keep)
    assert np.allclose(m.table, fsum_marginal(d, keep), rtol=1e-10, atol=0.0)
    assert_inorder_bits(d, keep, m)
    if d.vars[-1] in keep:
        assert m.table.tobytes() == numpy_marginal(d, keep).tobytes()


def intp_bins(weights):
    """The output bin of every atom in np.intp, added one axis at a time."""
    bins = np.zeros(1, dtype=np.intp)
    for w in weights:
        bins = np.add.outer(bins, np.array([0, w], dtype=np.intp)).ravel()
    return bins


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 22).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.booleans(), min_size=n, max_size=n))),
    st.booleans())
@example(([], []), False)
@example((list(range(22)), [False] * 22), False)
@example((list(range(22)), [True] * 22), False)
def test_atom_bins_match_intp_bins(case, in_order):
    # the weights of a marginal kept on the marked axes: in order, the
    # highest output weight is on the lowest axis
    order, kept = case
    names = sorted(order) if in_order else order
    weights = markov._axis_weights(names, sorted(n for n, k in zip(names, kept) if k))
    bins = markov._atom_bins(weights)
    assert bins.dtype == np.intp and np.array_equal(bins, intp_bins(weights))


def test_marginal_bits_on_the_soundness_cli_margin(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5", "--out", str(graph)]) == 0
    seen = []
    original = markov.target_marginal

    def capture(dag, cpts, targets, *args):
        seen.append((dag, cpts, sorted(targets)))
        return original(dag, cpts, targets, *args)

    monkeypatch.setattr(markov, "target_marginal", capture)
    assert main(["mc", "soundness", "--graph", str(graph), "--trials", "40",
                 "--seed", "0", "--max-cond", "6"]) == 0
    [(dag, cpts, keep)] = seen
    margin = markov.ancestral_margin(dag, cpts, keep)
    assert len(margin.vars) == 21 and margin.vars[-1] in keep
    want = numpy_marginal(margin, keep).tobytes()
    assert margin.marginal(keep).table.tobytes() == want
    assert original(dag, cpts, keep).table.tobytes() == want
