"""The marginal kernel of seplat.markov against two references: an exactly
rounded sum (math.fsum per output atom), and numpy's multi-axis sum, which it
matches bit for bit whenever the table's last variable is kept."""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from seplat import markov
from seplat.cli import main
from seplat.markov import Distribution


@st.composite
def marginal_cases(draw):
    # 17 and 18 variables run the carried-block path (above 2^16 atoms)
    n = draw(st.one_of(st.integers(1, 16), st.integers(17, 18)))
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


@settings(max_examples=60, deadline=None)
@given(marginal_cases())
def test_marginal_kernel_matches_references(case):
    d, keep = case
    m = d.marginal(keep)
    assert m.vars == tuple(sorted(keep))
    assert np.allclose(m.table, fsum_marginal(d, keep), rtol=1e-10, atol=0.0)
    if d.vars[-1] in keep:
        assert m.table.tobytes() == numpy_marginal(d, keep).tobytes()


def test_marginal_bits_on_the_soundness_cli_margin(tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5", "--out", str(graph)]) == 0
    seen = []
    original = markov.ci_details

    def capture(d, a, b, cond):
        seen.append((d, a.vertices + b.vertices + tuple(cond)))
        return original(d, a, b, cond)

    monkeypatch.setattr(markov, "ci_details", capture)
    assert main(["mc", "soundness", "--graph", str(graph), "--trials", "40",
                 "--seed", "0", "--max-cond", "6"]) == 0
    [(margin, keep)] = seen
    assert len(margin.vars) == 21 and margin.vars[-1] in keep
    assert margin.marginal(keep).table.tobytes() == numpy_marginal(margin, keep).tobytes()
