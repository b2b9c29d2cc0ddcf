import pytest

from seplat.graph import build_graph
from seplat.lattice import BOX, DIAMOND, Cell, Window
from seplat.lattice import build_graph as build_lattice_graph

# Canonical probe geometry: two spacelike "peaks" over a 6x6 diamond window
# and a 6x9 box window.
DIAMOND_WINDOW = Window(0, 5, 0, 5)
BOX_WINDOW = Window(0, 5, 0, 8)
D_A = Cell(DIAMOND, 1, 4)
D_B = Cell(DIAMOND, 4, 1)
B_A = Cell(BOX, 4, 2)
B_B = Cell(BOX, 4, 6)

PAR_A = frozenset({"d(0,3)", "d(0,4)", "d(1,3)"})
STAIRCASE = frozenset({"d(0,2)", "d(0,3)", "d(0,4)", "d(1,2)"})
LOW_SET = frozenset({"d(0,0)", "d(0,1)", "d(1,0)"})


@pytest.fixture(scope="session")
def diamond6():
    return build_lattice_graph(DIAMOND, DIAMOND_WINDOW)


@pytest.fixture(scope="session")
def box69():
    return build_lattice_graph(BOX, BOX_WINDOW)


@pytest.fixture(scope="session")
def diamond3():
    return build_lattice_graph(DIAMOND, Window(0, 2, 0, 2))


@pytest.fixture(scope="session")
def box3():
    return build_lattice_graph(BOX, Window(0, 2, 0, 2))


@pytest.fixture()
def collider_graph():
    return build_graph(["a", "b", "c"], [("a", "c"), ("b", "c")])


@pytest.fixture()
def common_cause_graph():
    return build_graph(["a", "b", "e"], [("e", "a"), ("e", "b")])


def inorder_marginal(atoms, vars, keep):
    """Reference marginal in plain Python floats, sharing no code with
    seplat.markov: the table over vars is given as its flat atoms in C
    order, and each atom is added into its bin over the sorted names keep
    in that order, every bin starting from 0.0."""
    keep = sorted(keep)
    n = len(vars)
    shifts = [(n - 1 - vars.index(v), len(keep) - 1 - rank) for rank, v in enumerate(keep)]
    out = [0.0] * 2 ** len(keep)
    for index, atom in enumerate(atoms):
        out[sum((index >> src & 1) << dst for src, dst in shifts)] += atom
    return out
