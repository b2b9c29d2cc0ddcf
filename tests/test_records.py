"""The value types and result containers are tuple records: immutable,
equal by value, checked when made, and cheap to build in a sweep.  Those
without a list, dict or array field hash by value; the others cannot be
hashed."""

from array import array

import numpy as np
import pytest

from seplat.errors import InvalidPath, KindMismatch
from seplat.graph import (
    ANCESTORS_INCLUSIVE,
    BIDIR,
    DIR_BACKWARD,
    DIR_FORWARD,
    Path,
    build_graph,
    relatives,
)
from seplat.lattice import (
    BOX,
    DIAMOND,
    L3C,
    Cell,
    Prop1Report,
    Region,
    ShieldVerdict,
    Window,
    build_graph as build_lattice_graph,
    prop1_sweep,
    window_from_dict,
)
from seplat.markov import (
    CmcReport,
    CptSet,
    EventRef,
    LocalCausalityReport,
    ScreeningCheck,
    VertexCpt,
    check_cmc,
    ci_details,
    is_locally_causal,
    joint,
    latent_expansion,
    random_cpts,
)
from seplat.random_graphs import random_dag
from seplat.separation import (
    DecidedQuery,
    SeparationQuery,
    SeparationVerdict,
    is_separated_each,
)

WITNESS = ("a", "c", "b"), (DIR_FORWARD, DIR_BACKWARD)
GRAPH = build_graph(["a", "b", "c"], [("a", "c"), ("b", "c")])

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
    "Prop1Report": lambda: Prop1Report(GRAPH, "a", "b", ("c",), 1, b"\4", array("B", [1]),
                                       (SeparationVerdict(True), SeparationVerdict(
                                           False, Path(*WITNESS)))),
    "CptSet": lambda: CptSet({"a": VertexCpt((), np.array(0.5)),
                              "b": VertexCpt(("a",), np.array([0.25, 0.5]))}),
    "CmcReport": lambda: CmcReport(3, [("a", "b", 0.25)]),
    "LocalCausalityReport": lambda: LocalCausalityReport(
        "a", "b", True, 0.25, [ScreeningCheck(("a", "b"), ("c",), 4, 0.0, True)]),
}
# a list, dict or array field makes a record unhashable
UNHASHABLE = {"VertexCpt", "Prop1Report", "CptSet", "CmcReport", "LocalCausalityReport"}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_records_are_immutable_tuples(name):
    value = MAKERS[name]()
    assert isinstance(value, tuple) and type(value).__name__ == name
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("name", sorted(set(MAKERS) - UNHASHABLE))
def test_equal_fields_give_equal_values_and_hashes(name):
    x, y = MAKERS[name](), MAKERS[name]()
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_unhashable_records_compare_by_value(name):
    x, y = MAKERS[name](), MAKERS[name]()
    assert x is not y and x == y and not x != y
    with pytest.raises(TypeError, match="unhashable type"):
        hash(x)


def test_cpts_compare_their_tables():
    a = np.array([0.25, 0.5])
    cpt = VertexCpt(("x",), a)
    assert cpt == VertexCpt(("x",), a.copy()) and not cpt != VertexCpt(("x",), a.copy())
    assert cpt != VertexCpt(("x",), np.array([0.25, 0.75]))
    assert cpt != VertexCpt(("y",), a)
    assert cpt != VertexCpt((), np.array(0.25))
    # a plain tuple of the same fields is no CPT, and comparing does not raise
    assert cpt != (("x",), a) and not (("x",), a) == cpt
    one = MAKERS["CptSet"]()
    two = CptSet(dict(one.tables, b=VertexCpt(("a",), np.array([0.25, 0.75]))))
    assert one != two and not one == two


def test_producers_return_records():
    window = Window(0, 3, 0, 3)
    a, b = Cell(DIAMOND, 1, 3), Cell(DIAMOND, 3, 1)
    sweep = prop1_sweep(DIAMOND, window, a, b, L3C)
    dag = latent_expansion(build_lattice_graph(DIAMOND, window))
    cpts = random_cpts(dag, 3)
    reports = (sweep, cpts, check_cmc(joint(dag, cpts), dag),
               is_locally_causal(DIAMOND, window, cpts, L3C))
    assert [type(r) for r in reports] == [Prop1Report, CptSet, CmcReport, LocalCausalityReport]
    assert [type(f) for r in reports for f in r if isinstance(f, (list, dict, array))] == \
        [array, dict, list, list]
    assert sweep.total == 127 and reports[2].ok and reports[3].regions_checked == 4


@pytest.mark.parametrize("seed", [0, 7])
def test_cpt_set_json_round_trip_is_equal(seed):
    cpts = random_cpts(random_dag(7, 0.4, seed), seed)
    assert CptSet.from_json_dict(cpts.to_json_dict()) == cpts
    assert random_cpts(random_dag(7, 0.4, seed), seed + 1) != cpts


@pytest.mark.parametrize("bounds, name", [
    ((0, 2.5, 0, 2), "a_max"),
    ((0.0, 2, 0, 2), "a_min"),
    ((0, 2, "0", 2), "b_min"),
    ((0, 2, 0, True), "b_max"),
    ((False, 2, 0, 2), "a_min"),
    ((0, 2, 0, np.float64(2)), "b_max"),
])
def test_window_bounds_must_be_integers(bounds, name):
    with pytest.raises(ValueError, match=f"window bound {name} must be an integer"):
        Window(*bounds)


def test_window_takes_numpy_integers_as_ints():
    w = Window(np.int64(0), np.int32(2), np.uint8(1), 3)
    assert w == Window(0, 2, 1, 3) and all(type(x) is int for x in w)


def test_window_from_dict_does_not_truncate():
    with pytest.raises(ValueError, match="window bound a_max must be an integer, not 2.9"):
        window_from_dict(DIAMOND, {"imin": 0, "imax": 2.9, "jmin": 0, "jmax": 2})
    assert window_from_dict(DIAMOND, {"imin": 0, "imax": 2, "jmin": 0, "jmax": 2}) == \
        Window(0, 2, 0, 2)


def test_a_str_is_no_set_of_labels():
    with pytest.raises(ValueError, match="'cd' is a str"):
        SeparationQuery("a", "b", "cd")
    g = build_graph(["a", "b", "c", "d"], [("c", "a"), ("c", "b"), ("d", "a")])
    with pytest.raises(ValueError, match="'cd' is a str"):
        is_separated_each(g, "a", "b", [["c"], "cd"])
    assert [v.separated for v in is_separated_each(g, "a", "b", [["c"], ["c", "d"]])] == \
        [True, True]
    with pytest.raises(ValueError, match="not a str"):
        EventRef("ab", (1, 0))
    with pytest.raises(ValueError, match="not a str"):
        EventRef(("a",), "1")


# each takes a set of labels; a bare str would read as one label per character
LABEL_CALLS = {
    "Distribution.marginal": lambda d, g, labels: d.marginal(labels),
    "relatives": lambda d, g, labels: relatives(g, labels, ANCESTORS_INCLUSIVE),
    "ci_details": lambda d, g, labels: ci_details(d, EventRef.single("a"),
                                                  EventRef.single("b"), labels),
    "build_graph": lambda d, g, labels: build_graph(labels, []),
}


@pytest.mark.parametrize("name", sorted(LABEL_CALLS))
def test_label_set_apis_refuse_a_str(name):
    g = build_graph(["a", "b", "c", "d", "cd"], [("c", "a"), ("d", "b"), ("cd", "a")])
    d = joint(g, random_cpts(g, 0))
    call = LABEL_CALLS[name]
    call(d, g, ["cd"])  # the one label "cd"
    with pytest.raises(ValueError, match="'cd' is a str"):
        call(d, g, "cd")


def test_event_sequences_become_tuples():
    event = EventRef(["a", "b"], [1, 0])
    assert event == EventRef(("a", "b"), (1, 0))
    assert type(event.vertices) is tuple and type(event.values) is tuple
    assert hash(event) == hash(EventRef(("a", "b"), (1, 0)))


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


def test_cell_label_and_cone_are_plain_properties():
    # a cell is a bare tuple: no instance dict holds its label or cone
    c = Cell(BOX, 4, 2)
    assert not hasattr(c, "__dict__")
    assert (c.label, c.cone) == ("b(4,2)", (3, 8, 10))
    assert (Cell(DIAMOND, 1, 3).label, Cell(DIAMOND, 1, 3).cone) == ("d(1,3)", (2, 4, 6))
    for name in ("label", "cone", "kind"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    assert (c.label, c.cone) == ("b(4,2)", (3, 8, 10))
