from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import BOX_WINDOW, DIAMOND_WINDOW, LOW_SET, PAR_A, STAIRCASE
from seplat import lattice
from seplat.errors import (
    BudgetExceeded,
    KindMismatch,
    NotSpacelike,
    UnknownCell,
)
from seplat.graph import ANCESTORS, relatives
from seplat.lattice import (
    BOX,
    DIAMOND,
    FUTURE_OF_B,
    L3C,
    L3Q,
    PAST_OF_B,
    SPACELIKE,
    Cell,
    Region,
    Window,
    build_graph,
    canonical_probe_pair,
    causal_relation,
    direct_parents,
    geo_ancestors,
    is_boundary_cell,
    l1_past,
    l2_shields,
    l3_region,
    mutual_past_contact,
    parse_cell,
    parse_region,
    prop1_sweep,
    region_to_vertexset,
    shielder_off,
    shielding_sweep,
    spouses,
    strictly_spacelike,
)
from seplat.separation import SeparationVerdict


def d(i, j):
    return Cell(DIAMOND, i, j)


def b(k, m):
    return Cell(BOX, k, m)


def region(*cells):
    return Region.of(cells)


def test_cell_labels_round_trip():
    assert d(0, 3).label == "d(0,3)"
    assert parse_cell("b(2,-1)") == b(2, -1)
    with pytest.raises(UnknownCell):
        parse_cell("q(1,2)")


@pytest.mark.parametrize("label", ["d(04,1)", "d(00,3)", "d(-0,1)", "b(2,007)",
                                   "b(+2,1)", "d(1, 4)", "d(1,4)\n", "d(\u0661,4)"])
def test_parse_cell_rejects_non_canonical_labels(label):
    with pytest.raises(UnknownCell, match="bad cell label"):
        parse_cell(label)
    with pytest.raises(UnknownCell, match="bad cell label"):
        parse_region(f"d(0,4)+{label}")


@pytest.mark.parametrize("literal", ["d(0,3)++d(0,4)", "+d(0,3)", "d(0,3)+",
                                     "d(0,3)+d(0,4)+d(0,3)"])
def test_parse_region_rejects_empty_and_repeated_labels(literal):
    with pytest.raises(ValueError, match="empty label|repeated"):
        parse_region(literal)


def test_causal_relation_diamond():
    assert causal_relation(d(0, 1), d(1, 0)) == SPACELIKE
    assert causal_relation(d(0, 1), d(1, 1)) == PAST_OF_B  # null corner contact
    assert causal_relation(d(1, 1), d(0, 1)) == FUTURE_OF_B
    with pytest.raises(KindMismatch):
        causal_relation(d(0, 0), b(0, 0))
    with pytest.raises(ValueError, match="distinct cells"):
        causal_relation(d(1, 1), d(1, 1))


def test_causal_relation_box():
    assert causal_relation(b(2, 0), b(3, 4)) == SPACELIKE  # |dx| < dt + 2 fails
    assert causal_relation(b(2, 0), b(3, 2)) == PAST_OF_B
    assert causal_relation(b(3, 2), b(2, 0)) == FUTURE_OF_B
    assert causal_relation(b(3, 2), b(3, 3)) == SPACELIKE
    assert mutual_past_contact(b(3, 2), b(3, 3))
    assert not mutual_past_contact(b(3, 2), b(3, 4))
    assert not mutual_past_contact(d(1, 1), d(1, 2))


def test_causal_relation_exhaustive_antisymmetric():
    window = Window(0, 2, 0, 2)
    for kind in (DIAMOND, BOX):
        cells = window.cells(kind)
        for x in cells:
            for y in cells:
                if x == y:
                    continue
                r_xy = causal_relation(x, y)
                r_yx = causal_relation(y, x)
                assert r_xy in (PAST_OF_B, FUTURE_OF_B, SPACELIKE)
                if r_xy == PAST_OF_B:
                    assert r_yx == FUTURE_OF_B
                elif r_xy == FUTURE_OF_B:
                    assert r_yx == PAST_OF_B
                else:
                    assert r_yx == SPACELIKE


def test_direct_parents():
    assert direct_parents(d(2, 2)) == {d(1, 2), d(2, 1), d(1, 1)}
    assert direct_parents(b(3, 0)) == {b(2, -1), b(2, 0), b(2, 1)}
    window = Window(0, 5, 0, 5)
    assert is_boundary_cell(d(0, 0), window)
    assert not is_boundary_cell(d(1, 4), window)
    in_window = {p for p in direct_parents(d(0, 0)) if window.contains(p)}
    assert in_window == set()


def test_spouses():
    assert spouses(b(3, 2)) == {b(3, 1), b(3, 3)}
    assert spouses(d(1, 1)) == frozenset()


def test_build_graph_counts(diamond3, box3):
    assert (len(diamond3.vertices), len(diamond3.directed),
            len(diamond3.bidirected)) == (9, 16, 0)
    assert (len(box3.vertices), len(box3.directed),
            len(box3.bidirected)) == (9, 14, 6)
    g1 = build_graph(DIAMOND, Window(0, 0, 0, 0))
    assert (len(g1.vertices), len(g1.directed), len(g1.bidirected)) == (1, 0, 0)
    with pytest.raises(ValueError, match="unknown lattice kind"):
        build_graph("hexagon", Window(0, 0, 0, 0))


def test_geo_ancestors_diamond():
    got = geo_ancestors(d(1, 4), DIAMOND_WINDOW)
    assert got == {d(i, j) for i in range(2) for j in range(5)} - {d(1, 4)}
    assert len(got) == 9
    assert geo_ancestors(d(0, 0), DIAMOND_WINDOW) == frozenset()


def test_geo_ancestors_box_reaches_beyond_parents():
    window = Window(0, 5, 0, 8)
    got = geo_ancestors(b(3, 0), window)
    assert b(2, 2) in got  # geometric ancestor with no directed path
    assert b(2, 3) not in got


def test_graph_ancestors_contained_in_geo_ancestors(diamond6, box69):
    # diamonds: equality whenever the geometric cone stays in the window;
    # boxes: strict containment with b(2,2) vs b(3,0) as witness
    geo = {c.label for c in geo_ancestors(d(1, 4), DIAMOND_WINDOW)}
    assert relatives(diamond6, {"d(1,4)"}, ANCESTORS) == geo

    graph_anc = relatives(box69, {"b(3,0)"}, ANCESTORS)
    geo_b = {c.label for c in geo_ancestors(b(3, 0), BOX_WINDOW)}
    assert graph_anc < geo_b
    assert "b(2,2)" in geo_b - graph_anc


def test_l1_past():
    assert l1_past(region(d(0, 3), d(0, 4), d(1, 3)), d(1, 4))
    assert not l1_past(region(d(2, 3)), d(1, 4))
    assert not l1_past(region(b(2, 2)), b(3, 0))
    assert l1_past(region(b(2, 1)), b(3, 0))
    # a cell is not inside its own past, for either kind
    assert not l1_past(region(d(0, 3), d(1, 4)), d(1, 4))
    assert not l1_past(region(b(3, 0)), b(3, 0))
    with pytest.raises(KindMismatch):
        l1_past(region(d(0, 0)), b(1, 1))


def test_l2_shields():
    assert l2_shields(region(*(parse_cell(v) for v in PAR_A)), d(1, 4), DIAMOND_WINDOW)
    assert l2_shields(region(d(0, 4), d(0, 3), d(0, 2), d(1, 2)), d(1, 4),
                      DIAMOND_WINDOW)
    # escape via d(0,4): its parents leave the window
    assert not l2_shields(region(d(1, 3)), d(1, 4), DIAMOND_WINDOW)
    assert not l2_shields(region(*(parse_cell(v) for v in LOW_SET)), d(1, 4),
                          DIAMOND_WINDOW)
    with pytest.raises(KindMismatch):
        l2_shields(region(b(0, 3)), d(1, 4), DIAMOND_WINDOW)


def _l2_cell_walk(region, cell_a, window):
    """Reference L2: depth-first walk over Cell objects, backward from cell_a
    through in-window parents outside the region; fails at a boundary cell."""
    seen = {cell_a}
    stack = [cell_a]
    while stack:
        c = stack.pop()
        if is_boundary_cell(c, window):
            return False
        for p in direct_parents(c):
            if window.contains(p) and p not in region.cells and p not in seen:
                seen.add(p)
                stack.append(p)
    return True


@st.composite
def l2_cases(draw):
    kind = draw(st.sampled_from((DIAMOND, BOX)))
    a_min, b_min = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    window = Window(a_min, a_min + draw(st.integers(0, 6)),
                    b_min, b_min + draw(st.integers(0, 6)))
    # the probe may sit on or just outside the window edge
    coord = lambda lo, hi: st.integers(lo - 1, hi + 1)  # noqa: E731
    cell_a = Cell(kind, draw(coord(window.a_min, window.a_max)),
                  draw(coord(window.b_min, window.b_max)))
    # cells near the probe's past, where regions can shield, plus strays
    near = sorted(direct_parents(cell_a) | {g for p in direct_parents(cell_a)
                                            for g in direct_parents(p)})
    cells = {c for c in near if draw(st.integers(0, 2))}
    cells |= draw(st.sets(st.builds(Cell, st.just(kind), coord(window.a_min, window.a_max),
                                    coord(window.b_min, window.b_max)),
                          min_size=0 if cells else 1, max_size=4))
    return Region(kind, frozenset(cells)), cell_a, window


@settings(max_examples=300, deadline=None)
@given(l2_cases())
def test_l2_bitmask_matches_cell_walk(case):
    region, cell_a, window = case
    assert l2_shields(region, cell_a, window) == _l2_cell_walk(region, cell_a, window)


@settings(max_examples=300, deadline=None)
@given(l2_cases())
def test_pool_holds_in_window_parents(case):
    """The closure the bit index relies on: every in-window direct parent of
    the probe, and of each of its geometric ancestors, is one of them."""
    _region, cell_a, window = case
    pool = geo_ancestors(cell_a, window)
    for c in pool | {cell_a}:
        assert {p for p in direct_parents(c) if window.contains(p)} <= pool


def test_parents_always_shield():
    for kind, window in ((DIAMOND, Window(0, 3, 0, 3)), (BOX, Window(0, 3, 0, 3))):
        for cell in window.cells(kind):
            if is_boundary_cell(cell, window):
                continue
            pars = Region.of(direct_parents(cell))
            assert l2_shields(pars, cell, window)


def test_l3_region_diamond():
    assert l3_region(region(d(1, 3)), d(1, 4), d(4, 1), L3C)
    assert not l3_region(region(d(0, 0), d(0, 1), d(1, 0)), d(1, 4), d(4, 1), L3C)
    assert l3_region(region(d(1, 3)), d(1, 4), d(4, 1), L3Q)
    assert not l3_region(region(d(1, 0)), d(1, 4), d(4, 1), L3Q)
    with pytest.raises(NotSpacelike):
        l3_region(region(d(0, 0)), d(1, 1), d(2, 2), L3C)
    with pytest.raises(KindMismatch):
        l3_region(region(b(0, 3)), d(1, 4), d(4, 1), L3Q)
    with pytest.raises(KindMismatch):
        l3_region(region(d(0, 3)), d(1, 4), b(4, 1), L3C)


def test_l3_region_box():
    # a single cone flanking the common past suffices
    assert l3_region(region(b(3, 3)), b(4, 2), b(4, 6), L3C)
    # the row-2 cones all stop below the apex of the common past
    assert not l3_region(region(b(2, 0), b(2, 1), b(2, 2), b(2, 3), b(2, 4)),
                         b(4, 2), b(4, 6), L3C)
    # b(3,4) alone covers the common past; b(3,2) alone misses its apex
    assert l3_region(region(b(3, 2), b(3, 4)), b(4, 2), b(4, 6), L3C)
    assert l3_region(region(b(3, 4)), b(4, 2), b(4, 6), L3C)
    assert not l3_region(region(b(3, 2)), b(4, 2), b(4, 6), L3C)
    assert l3_region(region(b(3, 1)), b(4, 2), b(4, 6), L3Q)
    assert not l3_region(region(b(3, 5)), b(4, 2), b(4, 6), L3Q)  # past of B


def _in_past(cell, t, x):
    # PC(k,m) = {(t,x): t < k+1, m-(k+1-t) < x < m+1+(k+1-t)}
    k, m = cell.a, cell.b
    return t < k + 1 and m - (k + 1 - t) < x < m + 1 + (k + 1 - t)


def _in_past_closure(cell, t, x):
    k, m = cell.a, cell.b
    return t <= k + 1 and m - (k + 1 - t) <= x <= m + 1 + (k + 1 - t)


# One step from an arrangement vertex into each of the (at most six) angular
# sectors that the lines t = n, x - t = n, x + t = n cut around it.  Every
# vertex has integer x - t and x + t and t a multiple of 1/2, so these steps
# cross no further line and land on none.
_FACE_STEPS = tuple((Fraction(dt, 8), Fraction(dx, 8))
                    for dt, dx in ((1, 2), (1, 0), (1, -2), (-1, -2), (-1, 0), (-1, 2)))


def _exact_box_l3c(cells, a, b, depth=8):
    """Does the union of the cells' past cones contain the common past of a
    and b?  Exact rationals, one interior point of every face of the line
    arrangement inside the common past, down to `depth` rows below the
    lowest cell."""
    t_lo = min(c.a for c in (*cells, a, b)) - depth
    top = min(a.a, b.a) + 1
    left = max(c.b - c.a - 1 for c in (a, b))
    right = min(c.b + c.a + 2 for c in (a, b))
    # every line of the arrangement that meets the closed common past above t_lo
    hs = range(t_lo, top + 1)
    ds = range(left, right - 2 * t_lo + 1)
    es = range(left + 2 * t_lo, right + 1)
    vertices = {(Fraction(n), Fraction(n + p)) for n in hs for p in ds}
    vertices |= {(Fraction(n), Fraction(q - n)) for n in hs for q in es}
    vertices |= {(Fraction(q - p, 2), Fraction(p + q, 2)) for p in ds for q in es}
    for t, x in vertices:
        if t < t_lo or not (_in_past_closure(a, t, x) and _in_past_closure(b, t, x)):
            continue
        for dt, dx in _FACE_STEPS:
            ts, xs = t + dt, x + dx
            if (_in_past(a, ts, xs) and _in_past(b, ts, xs)
                    and not any(_in_past(c, ts, xs) for c in cells)):
                return False
    return True


@st.composite
def box_l3c_cases(draw):
    ka, kb = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ma = draw(st.integers(0, 4))
    mb = ma + draw(st.integers(abs(ka - kb) + 2, abs(ka - kb) + 8))  # spacelike
    cell_a, cell_b = b(ka, ma), b(kb, mb)
    if draw(st.booleans()):
        cell_a, cell_b = cell_b, cell_a
    # cells from three rows below the common past's apex to above both
    # probes, placed so their cone edges fall near the apex
    left = max(c.b - c.a - 1 for c in (cell_a, cell_b))
    right = min(c.b + c.a + 2 for c in (cell_a, cell_b))
    apex = min(min(ka, kb) + 1, (right - left) // 2)
    cells = set()
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(apex - 3, max(ka, kb) + 1))
        lo = right - k - 4
        cells.add(b(k, draw(st.integers(lo, max(lo, left + k + 3)))))
    return cells, cell_a, cell_b


@settings(max_examples=100, deadline=None)
@given(box_l3c_cases())
# a common past whose apex lies more than two rows below the region
@example(({b(3, 10)}, b(4, 0), b(2, 8)))
# a one-point top face that the cone of b(4,2) misses
@example(({b(4, 2)}, b(5, 3), b(6, 7)))
# two cones whose edges meet at the one-point top face
@example(({b(3, 3), b(3, 5)}, b(4, 2), b(4, 6)))
def test_box_l3c_matches_exact_containment(case):
    cells, cell_a, cell_b = case
    assert l3_region(region(*cells), cell_a, cell_b, L3C) == _exact_box_l3c(
        cells, cell_a, cell_b)


def _in_quadrant(cell, u, v):
    # the causal past of d(i,j) is {(u,v): u < i+1, v < j+1}
    return u < cell.a + 1 and v < cell.b + 1


def _exact_diamond_l3c(cells, a, b, depth=2):
    """Does the union of the cells' past quadrants contain the common past of
    a and b?  Every quadrant edge is an integer line, so each unit square of
    the common past lies wholly inside or outside each quadrant, and its
    centre decides.  Rows at or below the lowest cell row look alike (every
    quadrant admits them), and so do such columns, so the squares from
    `depth` rows and columns below that down to the apex decide."""
    i_top, j_top = min(a.a, b.a), min(a.b, b.b)
    half = Fraction(1, 2)
    return all(any(_in_quadrant(c, i + half, j + half) for c in cells)
               for i in range(min(i_top, *(c.a for c in cells)) - depth, i_top + 1)
               for j in range(min(j_top, *(c.b for c in cells)) - depth, j_top + 1))


@st.composite
def diamond_l3c_cases(draw):
    ia, ja = draw(st.integers(0, 5)), draw(st.integers(2, 7))
    cell_a = d(ia, ja)
    cell_b = d(ia + draw(st.integers(1, 5)), ja - draw(st.integers(1, 5)))  # spacelike
    if draw(st.booleans()):
        cell_a, cell_b = cell_b, cell_a
    # cells from three steps below the common past's apex to above both probes
    i_top, j_top = min(cell_a.a, cell_b.a), min(cell_a.b, cell_b.b)
    i_hi, j_hi = max(cell_a.a, cell_b.a) + 1, max(cell_a.b, cell_b.b) + 1
    cells = draw(st.sets(st.builds(d, st.integers(i_top - 3, i_hi),
                                   st.integers(j_top - 3, j_hi)),
                         min_size=1, max_size=5))
    return cells, cell_a, cell_b


@settings(max_examples=200, deadline=None)
@given(diamond_l3c_cases())
# two quadrants that each reach past one edge of the common past but leave
# the square below its apex uncovered
@example(({d(0, 3), d(3, 0)}, d(1, 4), d(4, 1)))
# a quadrant that overhangs the common past in i but falls short in j
@example(({d(5, 0)}, d(1, 4), d(4, 1)))
def test_diamond_l3c_matches_exact_containment(case):
    cells, cell_a, cell_b = case
    assert l3_region(region(*cells), cell_a, cell_b, L3C) == _exact_diamond_l3c(
        cells, cell_a, cell_b)


@st.composite
def l1_cases(draw):
    kind = draw(st.sampled_from((DIAMOND, BOX)))
    cell_a = Cell(kind, draw(st.integers(-2, 4)), draw(st.integers(-2, 4)))
    near = st.builds(Cell, st.just(kind), st.integers(cell_a.a - 4, cell_a.a + 1),
                     st.integers(cell_a.b - 5, cell_a.b + 5))
    return Region(kind, frozenset(draw(st.sets(near, min_size=1, max_size=4)))), cell_a


def _square_in_past(x, cell_a):
    """Does the closed unit square of cell x lie in the closure of the causal
    past of cell_a?  Both are convex, so its four corners decide."""
    corners = [(x.a + da, x.b + db) for da in (0, 1) for db in (0, 1)]
    if x.kind == DIAMOND:
        return all(u <= cell_a.a + 1 and v <= cell_a.b + 1 for u, v in corners)
    return all(_in_past_closure(cell_a, t, xx) for t, xx in corners)


@settings(max_examples=300, deadline=None)
@given(l1_cases())
def test_l1_past_matches_first_principles(case):
    reg, cell_a = case
    expected = all(c != cell_a and _square_in_past(c, cell_a) for c in reg.cells)
    assert l1_past(reg, cell_a) == expected


def _meets_past(x, c):
    """Does the unit square of cell x meet the causal past of cell c?"""
    if c.kind == DIAMOND:
        return x.a <= c.a and x.b <= c.b
    # the cone widens going down, so the square's two lower corners decide
    t = x.a + Fraction(1, 8)
    return any(_in_past(c, t, x.b + dx) for dx in (Fraction(1, 8), Fraction(7, 8)))


@st.composite
def geo_cases(draw):
    kind = draw(st.sampled_from((DIAMOND, BOX)))
    a_min, b_min = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    window = Window(a_min, a_min + draw(st.integers(0, 6)),
                    b_min, b_min + draw(st.integers(0, 6)))
    # the cell may sit inside, on or up to two cells outside the window edge
    c = Cell(kind, draw(st.integers(window.a_min - 2, window.a_max + 2)),
             draw(st.integers(window.b_min - 2, window.b_max + 2)))
    return c, window


@settings(max_examples=300, deadline=None)
@given(geo_cases())
def test_geo_ancestors_match_past_cone(case):
    c, window = case
    expected = {x for x in window.cells(c.kind) if x != c and _meets_past(x, c)}
    assert geo_ancestors(c, window) == expected


def test_shielder_off_fixture_regions():
    par = region(*(parse_cell(v) for v in PAR_A))
    verdict = shielder_off(par, d(1, 4), d(4, 1), L3C, DIAMOND_WINDOW)
    assert (verdict.l1, verdict.l2, verdict.l3) == (True, True, True)
    assert verdict.shielder_off

    stair = region(*(parse_cell(v) for v in STAIRCASE))
    assert shielder_off(stair, d(1, 4), d(4, 1), L3C, DIAMOND_WINDOW).shielder_off

    low = region(*(parse_cell(v) for v in LOW_SET))
    verdict = shielder_off(low, d(1, 4), d(4, 1), L3C, DIAMOND_WINDOW)
    assert not verdict.l2 and not verdict.l3 and not verdict.shielder_off


def test_shielder_off_validations():
    par = region(*(parse_cell(v) for v in PAR_A))
    with pytest.raises(NotSpacelike):
        shielder_off(par, d(1, 4), d(2, 4), L3C, DIAMOND_WINDOW)
    with pytest.raises(ValueError):
        shielder_off(region(d(1, 4), d(0, 1)), d(1, 4), d(4, 1), L3C, DIAMOND_WINDOW)
    with pytest.raises(UnknownCell):
        shielder_off(region(d(-3, 0)), d(1, 4), d(4, 1), L3C, DIAMOND_WINDOW)


def test_shielding_sweep_counts():
    results = list(shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW, L3C, 9))
    assert len(results) == 511
    so = {labels for labels, l1, l2, l3 in results if l1 and l2 and l3}
    assert tuple(sorted(PAR_A)) in so
    assert tuple(sorted(STAIRCASE)) in so
    assert len(so) >= 2
    assert list(shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW, L3C, 0)) == []
    with pytest.raises(ValueError):
        list(shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW, L3C, -1))
    with pytest.raises(BudgetExceeded):
        list(shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW, L3C, 9, budget=100))


def test_l3q_implies_l3c_on_fixture_sweep():
    for labels, l1, l2, l3 in shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW,
                                              L3Q, 9):
        if l1 and l2 and l3:
            assert l3_region(parse_region("+".join(labels)), d(1, 4), d(4, 1), L3C)


def test_region_literals_and_vertexsets(diamond6, box3):
    reg = parse_region("d(0,3)+d(0,4)+d(1,3)")
    assert reg.cells == {d(0, 3), d(0, 4), d(1, 3)}
    assert region_to_vertexset(reg, diamond6) == PAR_A
    assert region_to_vertexset(parse_region("d(0,3)"), diamond6) == {"d(0,3)"}
    assert region_to_vertexset(parse_region("b(2,0)+b(2,1)"), box3) == {
        "b(2,0)", "b(2,1)"}
    with pytest.raises(UnknownCell):
        region_to_vertexset(parse_region("d(9,9)"), diamond6)
    with pytest.raises(KindMismatch):
        parse_region("d(0,0)+b(0,0)")
    for literal in ("", "+"):
        with pytest.raises(UnknownCell, match="empty region literal"):
            parse_region(literal)
    with pytest.raises(ValueError, match="nonempty"):
        Region(DIAMOND, frozenset())
    with pytest.raises(KindMismatch):
        Region(DIAMOND, frozenset({d(0, 0), b(0, 1)}))


def test_canonical_probe_pairs():
    assert canonical_probe_pair(DIAMOND, DIAMOND_WINDOW) == (d(1, 4), d(4, 1))
    assert canonical_probe_pair(BOX, BOX_WINDOW) == (b(4, 2), b(4, 6))
    for kind, window in ((DIAMOND, Window(0, 0, 0, 0)), (BOX, Window(0, 3, 0, 1))):
        with pytest.raises(ValueError, match="too small"):
            canonical_probe_pair(kind, window)


def test_prop1_sweep_diamond_report(diamond6):
    rep = prop1_sweep(DIAMOND, DIAMOND_WINDOW, d(1, 4), d(4, 1), L3C, 2,
                      lattice_graph=diamond6)
    assert rep.total == 9 + 36  # sizes 1 and 2
    assert rep.shielder_off_count == 0  # no 2-cell region shields here
    assert not rep.counterexamples



def test_each_sweep_row_asks_is_separated_once(diamond6, monkeypatch):
    # what perfbench's tracer counts and its self-test flips: one
    # lattice.is_separated call per row, whose query reads as the row's
    # region, and whose returned verdict is the one the row reports
    original, asked = lattice.is_separated, []
    flip = frozenset({"d(0,3)"})

    def flipped(g, q):
        asked.append((q.a, q.b, q.cond))
        verdict = original(g, q)
        if q.cond == flip:
            return SeparationVerdict(not verdict.separated, verdict.witness)
        return verdict

    def sweep():
        return prop1_sweep(DIAMOND, DIAMOND_WINDOW, d(1, 4), d(4, 1), L3C, 3,
                           lattice_graph=diamond6)

    plain = sweep()
    monkeypatch.setattr(lattice, "is_separated", flipped)
    rep = sweep()
    monkeypatch.undo()
    assert asked == [("d(1,4)", "d(4,1)", frozenset(r.region)) for r in plain.rows]
    changed = [r.region for r, s in zip(rep.rows, plain.rows) if r != s]
    assert changed == [("d(0,3)",)] and rep.total == plain.total == 129


def test_prop1_rows_are_immutable(diamond6):
    rep = prop1_sweep(DIAMOND, DIAMOND_WINDOW, d(1, 4), d(4, 1), L3C, 1,
                      lattice_graph=diamond6)
    row = rep.rows[0]
    assert type(row)._fields == ("region", "l1", "l2", "l3", "shielder_off",
                                 "separated", "witness")
    for field in type(row)._fields:
        with pytest.raises(AttributeError):
            setattr(row, field, getattr(row, field))

@st.composite
def sweep_cases(draw):
    kind = draw(st.sampled_from((DIAMOND, BOX)))
    a_min, b_min = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    window = Window(a_min, a_min + draw(st.integers(1, 4)),
                    b_min, b_min + draw(st.integers(1, 5)))
    cells = window.cells(kind)
    pairs = [(x, y) for x in cells for y in cells if x != y and strictly_spacelike(x, y)]
    assume(pairs)
    cell_a, cell_b = draw(st.sampled_from(pairs))
    return (kind, window, cell_a, cell_b, draw(st.sampled_from((L3C, L3Q))),
            draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_mask_sweep_matches_region_predicates(case):
    """Every sweep row against a Region built for its candidate: the public
    predicates, and first-principles references that share no per-cell rule
    with the sweep."""
    kind, window, cell_a, cell_b, variant, max_cells = case
    rep = prop1_sweep(kind, window, cell_a, cell_b, variant, max_cells)
    pool = sorted(geo_ancestors(cell_a, window))
    combos = [combo for k in range(1, max_cells + 1) for combo in combinations(pool, k)]
    assert len(rep.rows) == len(combos)
    for row, combo in zip(rep.rows, combos):
        reg = Region(kind, frozenset(combo))
        v = shielder_off(reg, cell_a, cell_b, variant, window)
        verdict = (row.l1, row.l2, row.l3, row.shielder_off)
        assert {type(x) for x in verdict} == {bool}
        assert row.region == tuple(c.label for c in sorted(reg.cells))
        assert verdict == (v.l1, v.l2, v.l3, v.shielder_off)
        assert row.l1 == all(c != cell_a and _square_in_past(c, cell_a) for c in combo)
        assert row.l2 == _l2_cell_walk(reg, cell_a, window)
        if variant == L3Q:
            assert row.l3 == all(causal_relation(c, cell_b) == SPACELIKE
                                 and not mutual_past_contact(c, cell_b) for c in combo)
        elif kind == DIAMOND:
            assert row.l3 == _exact_diamond_l3c(combo, cell_a, cell_b)


@pytest.mark.parametrize("n", range(13))
def test_members_match_brute_force_membership(n):
    """Bit r of member[p] is set iff candidate r, the r-th subset in (size,
    lexicographic) order, holds pool position p."""
    bits = [1 << p for p in range(n)]
    for max_cells in range(n + 2):
        masks = [m for k in range(1, max_cells + 1) for m in map(sum, combinations(bits, k))]
        want = [sum(1 << r for r, m in enumerate(masks) if m >> p & 1) for p in range(n)]
        assert lattice._members(n, max_cells) == want


@pytest.mark.parametrize("kind, window", [(BOX, Window(0, 3, 0, 6)),
                                          (DIAMOND, Window(0, 4, 0, 4))])
def test_word_l2_matches_l2_shields(kind, window):
    """The sweep's L2 column, decided by one pass over membership words,
    against l2_shields on a Region and against _l2_cell_walk, which shares
    no code with that pass, for every candidate of every strictly spacelike
    probe pair, at up to 3 cells.  L2 depends on the probe a only, so each
    (a, candidate) is decided once by each reference."""
    cells = window.cells(kind)
    pairs = 0
    for cell_a in cells:
        want = {}
        for cell_b in cells:
            if cell_b == cell_a or not strictly_spacelike(cell_a, cell_b):
                continue
            pairs += 1
            for labels, _l1, l2, _l3 in shielding_sweep(cell_a, cell_b, window, L3C, 3):
                if labels not in want:
                    reg = Region(kind, frozenset(map(parse_cell, labels)))
                    want[labels] = l2_shields(reg, cell_a, window)
                    assert want[labels] == _l2_cell_walk(reg, cell_a, window), \
                        (cell_a, labels)
                assert l2 == want[labels], (cell_a, cell_b, labels)
    assert pairs > 100


@pytest.mark.parametrize("cell_a, cell_b, window, rows", [
    (d(0, 1), d(1, 0), Window(0, 1, 0, 1),
     {L3C: [(("d(0,0)",), True, False, True, False, True, None)],
      L3Q: [(("d(0,0)",), True, False, False, False, True, None)]}),
    (b(0, 0), b(0, 2), Window(0, 0, 0, 3),
     {L3C: [(("b(0,1)",), False, False, True, False, False, "b(0,0)<->b(0,1)<->b(0,2)")],
      L3Q: [(("b(0,1)",), False, False, False, False, False, "b(0,0)<->b(0,1)<->b(0,2)")]}),
])
def test_empty_and_one_cell_sweeps(cell_a, cell_b, window, rows):
    """A one-cell pool gives one row, and max_cells=0 none; the checks
    still raise before the first row."""
    for variant, want in rows.items():
        rep = prop1_sweep(cell_a.kind, window, cell_a, cell_b, variant)
        got = [(*r[:6], r.witness and str(r.witness)) for r in rep.rows]
        assert got == want
        assert list(shielding_sweep(cell_a, cell_b, window, variant)) == [r[:4] for r in want]
        assert list(shielding_sweep(cell_a, cell_b, window, variant, 0)) == []
        assert prop1_sweep(cell_a.kind, window, cell_a, cell_b, variant, 0).rows == []
        for kwargs, error in (({"budget": 0}, BudgetExceeded), ({"max_cells": -1}, ValueError)):
            with pytest.raises(error):
                next(shielding_sweep(cell_a, cell_b, window, variant, **kwargs))
            with pytest.raises(error):
                prop1_sweep(cell_a.kind, window, cell_a, cell_b, variant, **kwargs)


def test_unknown_variant_rejected_up_front():
    with pytest.raises(ValueError, match="unknown L3 variant"):
        next(shielding_sweep(d(1, 4), d(4, 1), DIAMOND_WINDOW, "bogus", 0))
    with pytest.raises(ValueError, match="unknown L3 variant"):
        prop1_sweep(DIAMOND, DIAMOND_WINDOW, d(1, 4), d(4, 1), "bogus", 0)
