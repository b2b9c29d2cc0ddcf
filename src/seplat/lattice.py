"""1+1 Minkowski lattice geometry and the shielder-off predicates.

Two partitions of the plane into half-open unit cells are supported:

* diamond cells d(i,j): the square [i,i+1) x [j,j+1) in light-cone
  coordinates (u,v) = (t-x, t+x).  Causal order is componentwise <= on
  (i,j); corner-touching diamonds are direct-parent connected, giving a
  DAG with the three-arrow pattern (up, left-up, right-up).
* box cells b(k,m): the square [k,k+1) x [m,m+1) in (t,x).  The causal
  past of b(k,m) is the open cone
      PC(k,m) = {(t,x): t < k+1,  m-(k+1-t) < x < m+1+(k+1-t)},
  so spacelike same-row neighbors have mutual past contact and become
  spouses (bidirected edges) in the induced mixed graph.

A region C is shielder-off for a probe cell A relative to B when
  L1: every cell of C lies inside the causal past of A,
  L2: the causal shadow of C contains A (discrete domain of dependence:
      every backward parent path from A inside the window meets C before
      reaching a cell with an out-of-window parent), and
  L3: either every cell of C is spacelike from B (variant "l3q") or the
      causal past of C contains the common past of A and B ("l3c").

L1 and L3C are decided exactly in integer light-cone coordinates.  The
causal past of a cell is the cone {u < U, v < V, u + v < S}, with (U, V, S)
= (i+1, j+1, i+j+2) for d(i,j) and (k+1-m, k+m+2, 2k+2) for b(k,m).  L1:
every other cell's U and V are at most A's.  L3C: the common past of
spacelike A and B is the quadrant {u < U*, v < V*} of the minima, whose top
face is its apex; a cone covers the points just below the apex iff U >= U*,
V >= V* and S >= U* + V*, and then it contains the whole quadrant.

L1 and L3 are thus per-cell rules: L1 and L3Q hold when every cell passes,
L3C when some cell does.  Each probe A has one cached bit index: A is bit 0
and its pool of in-window geometric ancestors takes bits 1..n (the causal
past is transitive, so a backward walk from A stays in the pool).

A sweep decides every candidate at once from membership words: bit r of
member[p] is set iff candidate r holds pool cell p.  L1 and L3 are ORs of
the words of the cells that fail (for L3C, that pass).  L2 is one pass over
the pool, children before parents, carrying reach[p], the candidates whose
walk from A gets to p, and a candidate fails when its walk gets to a
boundary cell.  Mapped to graph vertices, the same words are the sets of
the sweep's separation batch (separation.is_separated_words).  The public
predicates decide one Region: the per-cell rules over its cells, and L2 as
that pass on a sweep of one candidate.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from . import graph as graph_mod
from .errors import BudgetExceeded, KindMismatch, NotSpacelike, UnknownCell
from .graph import MixedGraph
from .separation import DecidedQuery, is_separated, is_separated_words

DIAMOND = "diamond"
BOX = "box"

PAST_OF_B = "past_of_b"
FUTURE_OF_B = "future_of_b"
SPACELIKE = "spacelike"

L3C = "l3c"
L3Q = "l3q"

DEFAULT_ENUM_BUDGET = 1_000_000
# Most variables in an exact joint's ancestral closure; seplat.markov's
# default, kept here so the CLI parser can read it without loading numpy.
DEFAULT_JOINT_BUDGET = 22

_LABEL_RE = re.compile(r"^([db])\((-?\d+),(-?\d+)\)$")
_PREFIX = {DIAMOND: "d", BOX: "b"}
_KIND_OF_PREFIX = {"d": DIAMOND, "b": BOX}


class Cell(NamedTuple("Cell", [("kind", str), ("a", int), ("b", int)])):
    """One lattice cell; (a, b) is (i, j) for diamonds and (k, m) for boxes.
    A tuple, so cells sort by (kind, a, b); it keeps an instance dict only
    for its cached label and cone."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: cells are immutable")

    @cached_property
    def label(self) -> str:
        return f"{_PREFIX[self.kind]}({self.a},{self.b})"

    @cached_property
    def cone(self) -> tuple[int, int, int]:
        """(U, V, S): the causal past is {u < U, v < V, u + v < S} in
        light-cone coordinates (u, v) = (t - x, t + x)."""
        if self.kind == DIAMOND:
            return self.a + 1, self.b + 1, self.a + self.b + 2
        return self.a + 1 - self.b, self.a + self.b + 2, 2 * self.a + 2


def parse_cell(label: str) -> Cell:
    """The cell of a canonical label such as "d(1,4)".  Any other spelling
    of it ("d(01,4)", "d(-0,4)") is an UnknownCell, so that every command
    reads a label as the one graph vertex of that name."""
    m = _LABEL_RE.match(label)
    cell = Cell(_KIND_OF_PREFIX[m.group(1)], int(m.group(2)), int(m.group(3))) if m else None
    if cell is None or cell.label != label:
        raise UnknownCell(f"bad cell label {label!r}")
    return cell


class Window(NamedTuple("Window", [("a_min", int), ("a_max", int),
                                   ("b_min", int), ("b_max", int)])):
    """Inclusive integer bounds on both cell coordinates.  A bound may be a
    Python or numpy integer (stored as an int), but no bool, float or str."""

    __slots__ = ()

    def __new__(cls, a_min: int, a_max: int, b_min: int, b_max: int) -> "Window":
        bounds = []
        for name, x in zip(cls._fields, (a_min, a_max, b_min, b_max)):
            if isinstance(x, bool) or not hasattr(type(x), "__index__"):
                raise ValueError(f"window bound {name} must be an integer, not {x!r}")
            bounds.append(operator.index(x))
        a_min, a_max, b_min, b_max = bounds
        if a_max < a_min or b_max < b_min:
            raise ValueError("window bounds are empty")
        return tuple.__new__(cls, (a_min, a_max, b_min, b_max))

    def contains(self, c: Cell) -> bool:
        return self.a_min <= c.a <= self.a_max and self.b_min <= c.b <= self.b_max

    def cells(self, kind: str) -> tuple[Cell, ...]:
        return tuple(Cell(kind, x, y)
                     for x in range(self.a_min, self.a_max + 1)
                     for y in range(self.b_min, self.b_max + 1))


_WINDOW_KEYS = {DIAMOND: ("imin", "imax", "jmin", "jmax"),
                BOX: ("kmin", "kmax", "mmin", "mmax")}


def window_to_dict(kind: str, w: Window) -> dict:
    keys = _WINDOW_KEYS[kind]
    return dict(zip(keys, (w.a_min, w.a_max, w.b_min, w.b_max)))


def window_from_dict(kind: str, d: dict) -> Window:
    """The window of exactly the kind's four bounds; a missing or stray key
    is a ValueError naming it."""
    keys = _WINDOW_KEYS[kind]
    if set(d) != set(keys):
        wrong = [f"missing {k}" for k in keys if k not in d] + \
                [f"stray {k}" for k in sorted(d) if k not in keys]
        raise ValueError(f"a {kind} window takes exactly {', '.join(keys)} "
                         f"({', '.join(wrong)})")
    return Window(*(d[k] for k in keys))


class Region(NamedTuple("Region", [("kind", str), ("cells", frozenset[Cell])])):
    """A finite nonempty union of cells of one kind."""

    __slots__ = ()

    def __new__(cls, kind: str, cells: frozenset[Cell]) -> "Region":
        if not cells:
            raise ValueError("regions are nonempty")
        for c in cells:
            if c.kind != kind:
                raise KindMismatch(f"cell {c.label} in a {kind} region")
        return tuple.__new__(cls, (kind, cells))

    @classmethod
    def of(cls, cells: Iterable[Cell]) -> "Region":
        cells = frozenset(cells)
        kinds = {c.kind for c in cells}
        if len(kinds) != 1:
            raise KindMismatch(f"region mixes kinds {sorted(kinds)}")
        return cls(next(iter(kinds)), cells)


def parse_region(literal: str) -> Region:
    """Parse a '+'-joined region literal such as "d(0,3)+d(0,4)+d(1,3)".
    A literal of no label is an UnknownCell; one with an empty or repeated
    label among others is a ValueError (graph.split_labels)."""
    if not literal.strip("+"):
        raise UnknownCell("empty region literal")
    return Region.of(parse_cell(p) for p in graph_mod.split_labels(literal))


class ShieldVerdict(NamedTuple):
    l1: bool
    l2: bool
    l3: bool
    variant: str

    @property
    def shielder_off(self) -> bool:
        return self.l1 and self.l2 and self.l3


def _require_same_kind(x: Cell | Region, y: Cell | Region) -> str:
    """The common kind of two cells or regions (a region has one kind)."""
    if x.kind != y.kind:
        raise KindMismatch(f"mixed cell kinds {sorted((x.kind, y.kind))}")
    return x.kind


def causal_relation(a: Cell, b: Cell) -> str:
    """Exactly one of past_of_b / future_of_b / spacelike for an ordered pair.

    Box cells in the same row with |dm| = 1 intersect each other's past
    cones; they are reported spacelike here and flagged separately by
    mutual_past_contact() for spouse detection.
    """
    kind = _require_same_kind(a, b)
    if a == b:
        raise ValueError("causal_relation needs distinct cells")
    if kind == DIAMOND:
        if a.a <= b.a and a.b <= b.b:
            return PAST_OF_B
        if a.a >= b.a and a.b >= b.b:
            return FUTURE_OF_B
        return SPACELIKE
    # box: a intersects PC(b) iff |m_a - m_b| <= (k_b - k_a) + 1 and k_a < k_b
    if a.a < b.a and abs(a.b - b.b) <= (b.a - a.a) + 1:
        return PAST_OF_B
    if a.a > b.a and abs(a.b - b.b) <= (a.a - b.a) + 1:
        return FUTURE_OF_B
    return SPACELIKE


def mutual_past_contact(a: Cell, b: Cell) -> bool:
    """True for spacelike box neighbors whose past cones reach each other."""
    kind = _require_same_kind(a, b)
    return kind == BOX and a.a == b.a and abs(a.b - b.b) == 1


def strictly_spacelike(a: Cell, b: Cell) -> bool:
    return causal_relation(a, b) == SPACELIKE and not mutual_past_contact(a, b)


def direct_parents(c: Cell) -> frozenset[Cell]:
    """Cells with a causal curve into c that enters no third region."""
    if c.kind == DIAMOND:
        return frozenset((Cell(DIAMOND, c.a - 1, c.b),
                          Cell(DIAMOND, c.a, c.b - 1),
                          Cell(DIAMOND, c.a - 1, c.b - 1)))
    return frozenset((Cell(BOX, c.a - 1, c.b - 1),
                      Cell(BOX, c.a - 1, c.b),
                      Cell(BOX, c.a - 1, c.b + 1)))


def spouses(c: Cell) -> frozenset[Cell]:
    """Spacelike neighbors with mutual past contact (box rows only)."""
    if c.kind == BOX:
        return frozenset((Cell(BOX, c.a, c.b - 1), Cell(BOX, c.a, c.b + 1)))
    return frozenset()


def is_boundary_cell(c: Cell, window: Window) -> bool:
    """True when at least one geometric parent falls outside the window."""
    return any(not window.contains(p) for p in direct_parents(c))


def build_graph(kind: str, window: Window) -> MixedGraph:
    """One vertex per in-window cell; parent arrows, spouse bidirected edges."""
    if kind not in (DIAMOND, BOX):
        raise ValueError(f"unknown lattice kind {kind!r}")
    cells = window.cells(kind)
    vertices = [c.label for c in cells]
    directed = []
    bidirected = []
    for c in cells:
        for p in sorted(direct_parents(c)):
            if window.contains(p):
                directed.append((p.label, c.label))
        for s in spouses(c):
            if s.b > c.b and window.contains(s):
                bidirected.append((c.label, s.label))
    return graph_mod.build_graph(vertices, directed, bidirected)


def geo_ancestors(c: Cell, window: Window) -> frozenset[Cell]:
    """In-window cells whose region intersects the causal past of c."""
    return frozenset(x for x in window.cells(c.kind)
                     if x != c and (causal_relation(x, c) == PAST_OF_B
                                    or mutual_past_contact(x, c)))


def _l1_rule(cell_a: Cell) -> Callable[[Cell], bool]:
    """Per-cell L1: the cell lies inside the causal past of cell_a, that is
    its cone is nested in cell_a's (U and V at most cell_a's) and it is not
    cell_a itself."""
    ua, va, _ = cell_a.cone

    def inside(c: Cell) -> bool:
        return c != cell_a and c.cone[0] <= ua and c.cone[1] <= va
    return inside


def l1_past(region: Region, cell_a: Cell) -> bool:
    """Every cell of the region lies inside the causal past of cell_a."""
    _require_same_kind(region, cell_a)
    return all(map(_l1_rule(cell_a), region.cells))


@lru_cache(maxsize=64)
def _pool_index(cell_a: Cell, window: Window
                ) -> tuple[tuple[Cell, ...], tuple[int, ...], int]:
    """(pool, in-window parent mask per bit, boundary mask): cell_a is bit
    0, its sorted geometric ancestors bits 1..n.  The causal past is
    transitive, so every in-window parent of these cells is in the pool;
    bit[p] raises KeyError if one were not."""
    pool = tuple(sorted(geo_ancestors(cell_a, window)))
    cells = (cell_a,) + pool
    bit = {c: 1 << i for i, c in enumerate(cells)}
    parent_masks = tuple(sum(bit[p] for p in direct_parents(c) if window.contains(p))
                         for c in cells)
    boundary = sum(bit[c] for c in cells if is_boundary_cell(c, window))
    return pool, parent_masks, boundary


def l2_shields(region: Region, cell_a: Cell, window: Window) -> bool:
    """Discrete domain-of-dependence test.

    Walk backward from cell_a through in-window parents, never entering the
    region; the region shields iff no reachable cell has a parent outside
    the window (window exit counts as failure).  The walk is the sweep's L2
    pass (_l2_fails) on the one candidate whose membership words are the
    region's pool cells; a region cell outside the pool is never reached,
    so it blocks nothing.
    """
    _require_same_kind(region, cell_a)
    pool, parent_masks, boundary = _pool_index(cell_a, window)
    return not _l2_fails([int(c in region.cells) for c in pool], parent_masks, boundary, 1)


def _require_spacelike_pair(cell_a: Cell, cell_b: Cell) -> None:
    if not strictly_spacelike(cell_a, cell_b):
        raise NotSpacelike(f"{cell_a.label} and {cell_b.label} are causally connectable")


def _l3_rule(cell_a: Cell, cell_b: Cell, variant: str
             ) -> tuple[Callable[[Cell], bool], bool]:
    """(per-cell L3 test, whether every region cell must pass it).

    L3Q: every cell is strictly spacelike from cell_b.  L3C: some cell's
    past contains the common past of cell_a and cell_b, the quadrant
    {u < U*, v < V*} of the probes' minimal cone sides (S* >= U* + V* for
    spacelike probes: diamonds have S = U + V, boxes |dm| >= |dk| + 2).  Its
    top face is the apex, and a cone covers the points just below it iff
    U >= U*, V >= V*, S >= U* + V*, which makes it contain the whole
    quadrant.  ValueError for any other variant.
    """
    if variant == L3Q:
        return (lambda c: strictly_spacelike(c, cell_b)), True
    if variant != L3C:
        raise ValueError(f"unknown L3 variant {variant!r}")
    u_top = min(cell_a.cone[0], cell_b.cone[0])
    v_top = min(cell_a.cone[1], cell_b.cone[1])

    def covers(c: Cell) -> bool:
        u, v, s = c.cone
        return u >= u_top and v >= v_top and s >= u_top + v_top
    return covers, False


def l3_region(region: Region, cell_a: Cell, cell_b: Cell, variant: str) -> bool:
    """L3Q: region spacelike from cell_b.  L3C: past of region contains the
    common past of cell_a and cell_b (see _l3_rule)."""
    _require_same_kind(region, cell_a)
    _require_spacelike_pair(cell_a, cell_b)
    passes, every = _l3_rule(cell_a, cell_b, variant)
    return (all if every else any)(map(passes, region.cells))


def shielder_off(region: Region, cell_a: Cell, cell_b: Cell, variant: str,
                 window: Window) -> ShieldVerdict:
    """Evaluate L1, L2 and the chosen L3 variant for one candidate region."""
    _require_spacelike_pair(cell_a, cell_b)
    if cell_a in region.cells or cell_b in region.cells:
        raise ValueError("region may not contain a probe cell")
    for c in region.cells:
        if not window.contains(c):
            raise UnknownCell(f"region cell {c.label} outside the window")
    return ShieldVerdict(
        l1=l1_past(region, cell_a),
        l2=l2_shields(region, cell_a, window),
        l3=l3_region(region, cell_a, cell_b, variant),
        variant=variant,
    )


def candidate_count(n_cells: int, max_cells: int) -> int:
    return sum(comb(n_cells, k) for k in range(1, min(max_cells, n_cells) + 1))


def _members(n: int, max_cells: int) -> list[int]:
    """member[p] over the nonempty subsets of range(n) of at most max_cells
    elements, in (size, lexicographic) order: bit r is set iff subset r
    holds p.

    words[k][p] and count[k] describe the size-k subsets of s..n-1, for s
    from n - 1 down to 0.  Those holding s come first, then those without
    it; so the new words of size k are the old ones of size k - 1, for the
    subsets holding s, then the old ones of size k shifted past them."""
    words = [[0] * n for _ in range(max_cells + 1)]
    count = [1] + [0] * max_cells
    for s in range(n - 1, -1, -1):
        for k in range(min(max_cells, n - s), 0, -1):
            shift = count[k - 1]
            below, here = words[k - 1], words[k]
            for p in range(s + 1, n):
                here[p] = below[p] | here[p] << shift
            here[s] = (1 << shift) - 1
            count[k] += shift
    member = [0] * n
    offset = 0
    for k in range(1, max_cells + 1):
        for p, word in enumerate(words[k]):
            member[p] |= word << offset
        offset += count[k]
    return member


def _union(member: list[int], cells: Iterable[bool]) -> int:
    """The candidates holding some pool cell flagged in cells."""
    word = 0
    for m, flagged in zip(member, cells):
        if flagged:
            word |= m
    return word


def _l2_fails(member: list[int], parent_masks: tuple[int, ...], boundary: int,
              every: int) -> int:
    """The candidates whose backward walk from bit 0 reaches a boundary cell
    without entering the candidate: l2_shields for all of them at once.

    reach[i] holds the candidates whose walk gets to bit i.  A cell's parents
    sort before it (a parent has a smaller first coordinate, or the same and
    a smaller second), so the pool's bits are in topological order and the
    pass visits bit 0, then bits n..1: each bit's children before it."""
    n = len(member)
    reach = [0] * (n + 1)
    reach[0] = every
    fails = 0
    for i in (0, *range(n, 0, -1)):
        word = reach[i] & ~member[i - 1] if i else reach[i]
        if not word:
            continue
        if boundary >> i & 1:
            fails |= word
        parents = parent_masks[i]
        while parents:
            low = parents & -parents
            reach[low.bit_length() - 1] |= word
            parents ^= low
    return fails


_PASS = {"0": True, "1": False}


def _passes(fails: int, count: int) -> Iterator[bool]:
    """The verdicts of candidates 0..count-1, given the word of those failing."""
    return map(_PASS.__getitem__, format(fails | 1 << count, "b")[:0:-1])


def _decide_sweep(cell_a: Cell, cell_b: Cell, window: Window, variant: str,
                  max_cells: int | None, budget: int
                  ) -> tuple[tuple[str, ...], int, list[int],
                             Iterator[tuple[tuple[str, ...], bool, bool, bool]]]:
    """The sweep kernel (module docstring), with shielding_sweep's checks:
    (the pool's labels, the candidate count, each pool cell's membership
    word, and shielding_sweep's stream of (labels, l1, l2, l3))."""
    _require_spacelike_pair(cell_a, cell_b)
    pool, parent_masks, boundary = _pool_index(cell_a, window)
    if max_cells is None:
        max_cells = len(pool)
    elif max_cells < 0:
        raise ValueError(f"max_cells must be non-negative, got {max_cells}")
    in_l3, l3_every = _l3_rule(cell_a, cell_b, variant)
    count = candidate_count(len(pool), max_cells)
    if count > budget:
        raise BudgetExceeded(f"{count} candidates exceed budget {budget}")
    sizes = range(1, min(max_cells, len(pool)) + 1)
    member = _members(len(pool), len(sizes))
    every = (1 << count) - 1
    in_l1 = _l1_rule(cell_a)
    l1_fails = _union(member, (not in_l1(c) for c in pool))
    if l3_every:
        l3_fails = _union(member, (not in_l3(c) for c in pool))
    else:
        l3_fails = every & ~_union(member, map(in_l3, pool))
    l2_fails = _l2_fails(member, parent_masks, boundary, every)
    labels = tuple(c.label for c in pool)
    regions = chain.from_iterable(combinations(labels, k) for k in sizes)
    verdicts = (_passes(fails, count) for fails in (l1_fails, l2_fails, l3_fails))
    return labels, count, member, zip(regions, *verdicts)


def shielding_sweep(cell_a: Cell, cell_b: Cell, window: Window, variant: str,
                    max_cells: int | None = None, budget: int = DEFAULT_ENUM_BUDGET,
                    ) -> Iterator[tuple[tuple[str, ...], bool, bool, bool]]:
    """Stream (labels, l1, l2, l3) over all nonempty subsets of cell_a's pool
    up to max_cells cells (None: the whole pool), in (size, lexicographic)
    order, each labels tuple sorted.  The verdicts come from the membership
    words of the sweep kernel (module docstring).

    Raises ValueError for a negative max_cells or an unknown variant and
    BudgetExceeded when the candidate count exceeds budget, all before
    yielding anything.
    """
    *_, items = _decide_sweep(cell_a, cell_b, window, variant, max_cells, budget)
    yield from items


def region_to_vertexset(region: Region, g: MixedGraph) -> frozenset[str]:
    """Vertex labels of the region's cells; UnknownCell if any label is not a
    vertex of the graph."""
    labels = set()
    for c in region.cells:
        if c.label not in g:
            raise UnknownCell(f"cell {c.label} is not a vertex of the graph")
        labels.add(c.label)
    return frozenset(labels)


def canonical_probe_pair(kind: str, window: Window) -> tuple[Cell, Cell]:
    """Default spacelike probe pair for a window (the two "peaks")."""
    if kind == DIAMOND:
        a = Cell(DIAMOND, window.a_min + 1, window.b_max - 1)
        b = Cell(DIAMOND, window.a_max - 1, window.b_min + 1)
    else:
        row = window.a_max - 1
        a = Cell(BOX, row, window.b_min + 2)
        b = Cell(BOX, row, window.b_max - 2)
    if not (window.contains(a) and window.contains(b)):
        raise ValueError("window too small for a canonical probe pair")
    _require_spacelike_pair(a, b)
    return a, b


class Prop1Row(NamedTuple):
    """One sweep row: a tuple, so a large sweep builds its rows cheaply."""

    region: tuple[str, ...]
    l1: bool
    l2: bool
    l3: bool
    shielder_off: bool
    separated: bool
    witness: graph_mod.Path | None


class Prop1Report(NamedTuple):
    """A sweep's rows, in the order shielding_sweep yields the candidates."""

    variant: str
    rows: list[Prop1Row]

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def shielder_off_count(self) -> int:
        return sum(r.shielder_off for r in self.rows)

    @property
    def counterexamples(self) -> list[Prop1Row]:
        return [r for r in self.rows if r.shielder_off and not r.separated]


def prop1_sweep(kind: str, window: Window, cell_a: Cell, cell_b: Cell,
                variant: str, max_cells: int | None = None,
                budget: int = DEFAULT_ENUM_BUDGET,
                lattice_graph: MixedGraph | None = None) -> Prop1Report:
    """Full candidate sweep joining geometric verdicts with separation.

    The sweep kernel decides the geometry (module docstring), and its
    membership words, mapped to graph vertices, are the sets of one
    is_separated_words call that decides every candidate and builds the
    witness of each connected one.  Each row still asks is_separated, with
    a DecidedQuery tuple (a, b, region, the row's verdict from that call's
    list).  b is strictly spacelike from a, so neither is in a's pool and
    each row's query is made without rechecking.
    A counterexample row is shielder-off yet connected.  The canonical 6x6
    diamond probes have none, but d(2,5)/d(5,2) have two, d-connected
    through a conditioned parent of a; the 6x9 box has three, m-connected
    through a region cell that is a collider on a spouse edge.
    """
    g = lattice_graph if lattice_graph is not None else build_graph(kind, window)
    a, b = cell_a.label, cell_b.label
    g.require((a, b))
    labels, count, member, items = _decide_sweep(cell_a, cell_b, window, variant,
                                                 max_cells, budget)
    # every pool cell is in some set, unless the sweep is empty
    vertices = labels if count else ()
    g.require(vertices)
    words = {g.index[v]: word for v, word in zip(vertices, member)}
    verdicts = is_separated_words(g, a, b, count, words)
    rows = []
    for (region, l1, l2, l3), verdict in zip(items, verdicts, strict=True):
        sep = is_separated(g, tuple.__new__(DecidedQuery, (a, b, region, verdict)))
        rows.append(tuple.__new__(Prop1Row, (region, l1, l2, l3, l1 and l2 and l3,
                                             sep.separated, sep.witness)))
    return Prop1Report(variant, rows)
