"""The value types are tuple records: immutable, equal by value with equal
hashes, checked when made, and cheap to build in a sweep."""

import numpy as np
import pytest

from seplat.errors import InvalidPath, KindMismatch
from seplat.graph import BIDIR, DIR_BACKWARD, DIR_FORWARD, Path
from seplat.lattice import BOX, DIAMOND, L3C, Cell, Region, ShieldVerdict, Window
from seplat.markov import EventRef, ScreeningCheck, VertexCpt
from seplat.separation import DecidedQuery, SeparationQuery, SeparationVerdict

WITNESS = ("a", "c", "b"), (DIR_FORWARD, DIR_BACKWARD)

# each maker builds a fresh value from the same fields on every call
MAKERS = {
    "Path": lambda: Path(*WITNESS),
    "Cell": lambda: Cell(DIAMOND, 1, 2),
    "Window": lambda: Window(0, 3, 1, 4),
    "Region": lambda: Region.of([Cell(BOX, 1, 2), Cell(BOX, 1, 3)]),
    "ShieldVerdict": lambda: ShieldVerdict(True, False, True, L3C),
    "SeparationQuery": lambda: SeparationQuery("a", "b", ["c", "d"]),
    "SeparationVerdict": lambda: SeparationVerdict(False, Path(*WITNESS)),
    "DecidedQuery": lambda: DecidedQuery("a", "b", ("c", "d"), SeparationVerdict(True)),
    "EventRef": lambda: EventRef(("a", "b"), (1, 0)),
    "ScreeningCheck": lambda: ScreeningCheck(("a", "b"), ("c",), 4, 0.0, True),
    "VertexCpt": lambda: VertexCpt(("a",), np.array([0.25, 0.5])),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_records_are_immutable_tuples(name):
    value = MAKERS[name]()
    assert isinstance(value, tuple) and type(value).__name__ == name
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("name", sorted(set(MAKERS) - {"VertexCpt"}))  # p1 is an array
def test_equal_fields_give_equal_values_and_hashes(name):
    x, y = MAKERS[name](), MAKERS[name]()
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("make, error, message", [
    (lambda: Window(0, -1, 0, 0), ValueError, "window bounds are empty"),
    (lambda: Window(0, 0, 2, 1), ValueError, "window bounds are empty"),
    (lambda: Region(DIAMOND, frozenset()), ValueError, "regions are nonempty"),
    (lambda: Region.of([]), KindMismatch, "region mixes kinds"),
    (lambda: Region(DIAMOND, frozenset({Cell(BOX, 0, 0)})), KindMismatch,
     r"cell b\(0,0\) in a diamond region"),
    (lambda: Region.of([Cell(BOX, 0, 0), Cell(DIAMOND, 0, 0)]), KindMismatch,
     "region mixes kinds"),
    (lambda: Path(("a",), ()), InvalidPath, "path needs >= 1 edge"),
    (lambda: Path(("a", "b"), (BIDIR, BIDIR)), InvalidPath, "path needs >= 1 edge"),
    (lambda: Path(("a", "b", "a"), (BIDIR, BIDIR)), InvalidPath, "path repeats a vertex"),
    (lambda: Path(("a", "b"), ("sideways",)), InvalidPath, "unknown edge kind 'sideways'"),
    (lambda: SeparationQuery("a", "a"), ValueError, "query endpoints must differ"),
    (lambda: SeparationQuery("a", "b", {"b"}), ValueError,
     "query endpoints may not be conditioned on"),
    (lambda: EventRef(("a",), (2,)), ValueError, "values must be the integers 0 or 1"),
    (lambda: EventRef(("a",), (True,)), ValueError, "values must be the integers 0 or 1"),
    (lambda: EventRef(("a", "b"), (1,)), ValueError, "vertex/value length mismatch"),
    (lambda: EventRef(("a", "a"), (1, 0)), ValueError, "vertex 'a' appears more than once"),
    (lambda: VertexCpt(("b", "a"), np.full((2, 2), 0.5)), ValueError,
     "are not distinct and sorted"),
    (lambda: VertexCpt(("a",), np.array([0.5, np.nan])), ValueError,
     "must be finite and lie in"),
])
def test_records_keep_their_validation(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_query_cond_is_a_frozenset():
    for cond in (["c", "c"], ("c",), {"c"}, iter(["c"]), frozenset({"c"})):
        q = SeparationQuery("a", "b", cond)
        assert type(q.cond) is frozenset and q.cond == frozenset({"c"})
    assert SeparationQuery("a", "b").cond == frozenset()
    assert SeparationQuery(a="a", b="b", cond=["c"]) == SeparationQuery("a", "b", {"c"})
    decided = MAKERS["DecidedQuery"]()
    assert type(decided.cond) is frozenset and decided.cond == frozenset({"c", "d"})


def test_cells_sort_by_kind_then_coordinates():
    cells = [Cell(kind, a, b) for kind in (DIAMOND, BOX) for a in (1, -1, 0)
             for b in (2, 0, -3)]
    assert [(c.kind, c.a, c.b) for c in sorted(cells)] == sorted(
        (c.kind, c.a, c.b) for c in cells)
    assert Cell(BOX, 9, 9) < Cell(DIAMOND, 0, 0) and Cell(DIAMOND, 0, 5) < Cell(DIAMOND, 1, 0)


def test_cell_label_and_cone_are_cached():
    c = Cell(BOX, 4, 2)
    assert (c.label, c.cone) == ("b(4,2)", (3, 8, 10))
    assert c.label is c.label and c.cone is c.cone
    with pytest.raises(AttributeError):
        c.label = "b(0,0)"
    assert c.label == "b(4,2)"
