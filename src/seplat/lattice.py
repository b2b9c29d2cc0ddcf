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

Each kind is one record of _KINDS: its label prefix and window keys, its
cone, its parent and spouse offsets, its canonical probes, and one rule,
"the region of cell x meets the causal past of cell c" (x == c included):
x.a <= c.a and x.b <= c.b for diamonds, x.a <= c.a and
|x.b - c.b| <= c.a - x.a + 1 for boxes.  Every causal relation of two
distinct cells follows from it: x is in the past of c when x meets c's
past and c does not meet x's, they have mutual past contact when each
meets the other's, and they are strictly spacelike when neither does.
The geometric ancestors of c are the other cells that meet its past.

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
the sweep's separation batch (separation.witness_words).  A Prop1Report
holds the answers as codes, one per candidate, and decodes rows from them
only when read; only the report writer asks is_separated, once per line.
The public predicates decide one Region: the per-cell rules over its
cells, and L2 as that pass on a sweep of one candidate.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, islice
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from . import graph as graph_mod
from .errors import BudgetExceeded, KindMismatch, NotSpacelike, UnknownCell
from .graph import MixedGraph
# is_separated is unused here: the sweep report writer
# (cli.write_sweep_report) asks this binding for each line's verdict,
# because perfbench's tracer and its flipped-verdict self-test patch it here
from .separation import SeparationVerdict, is_separated, witness_words  # noqa: F401

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


class Cell(NamedTuple("Cell", [("kind", str), ("a", int), ("b", int)])):
    """One lattice cell; (a, b) is (i, j) for diamonds and (k, m) for boxes.
    A tuple, so cells sort by (kind, a, b)."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"{_geometry(self.kind).prefix}({self.a},{self.b})"

    @property
    def cone(self) -> tuple[int, int, int]:
        """(U, V, S): the causal past is {u < U, v < V, u + v < S} in
        light-cone coordinates (u, v) = (t - x, t + x)."""
        return _geometry(self.kind).cone(self.a, self.b)


def parse_cell(label: str) -> Cell:
    """The cell of a canonical label such as "d(1,4)".  Any other spelling
    of it ("d(01,4)", "d(-0,4)") is an UnknownCell, so that every command
    reads a label as the one graph vertex of that name."""
    m = _LABEL_RE.match(label)
    cell = Cell(next(k for k, g in _KINDS.items() if g.prefix == m[1]),
                int(m[2]), int(m[3])) if m else None
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


class _Geometry(NamedTuple):
    """All that tells one partition from the other (module docstring)."""

    prefix: str
    window_keys: tuple[str, str, str, str]
    cone: Callable[[int, int], tuple[int, int, int]]
    # does the region of cell x meet the causal past of cell c?  True for x == c
    meets_past: Callable[[Cell, Cell], bool]
    parents: tuple[tuple[int, int], ...]
    spouses: tuple[tuple[int, int], ...]
    probes: Callable[[Window], tuple[tuple[int, int], tuple[int, int]]]


_KINDS = {
    DIAMOND: _Geometry(
        prefix="d", window_keys=("imin", "imax", "jmin", "jmax"),
        cone=lambda i, j: (i + 1, j + 1, i + j + 2),
        meets_past=lambda x, c: x.a <= c.a and x.b <= c.b,
        parents=((-1, 0), (0, -1), (-1, -1)), spouses=(),
        probes=lambda w: ((w.a_min + 1, w.b_max - 1), (w.a_max - 1, w.b_min + 1))),
    BOX: _Geometry(
        prefix="b", window_keys=("kmin", "kmax", "mmin", "mmax"),
        cone=lambda k, m: (k + 1 - m, k + m + 2, 2 * k + 2),
        meets_past=lambda x, c: x.a <= c.a and abs(x.b - c.b) <= c.a - x.a + 1,
        parents=((-1, -1), (-1, 0), (-1, 1)), spouses=((0, -1), (0, 1)),
        probes=lambda w: ((w.a_max - 1, w.b_min + 2), (w.a_max - 1, w.b_max - 2))),
}
_LABEL_RE = re.compile(r"^(%s)\((-?\d+),(-?\d+)\)$" % "|".join(g.prefix for g in _KINDS.values()))


def _geometry(kind: str) -> _Geometry:
    """The kind's record; any other kind is a ValueError."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown lattice kind {kind!r}") from None


def window_to_dict(kind: str, w: Window) -> dict:
    keys = _geometry(kind).window_keys
    return dict(zip(keys, (w.a_min, w.a_max, w.b_min, w.b_max)))


def window_from_dict(kind: str, d: dict) -> Window:
    """The window of exactly the kind's four bounds; a missing or stray key
    is a ValueError naming it."""
    keys = _geometry(kind).window_keys
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


def _past_contact(a: Cell, b: Cell) -> tuple[bool, bool]:
    """(a meets the causal past of b, b meets that of a) for distinct cells."""
    kind = _require_same_kind(a, b)
    if a == b:
        raise ValueError("causal_relation needs distinct cells")
    meets = _geometry(kind).meets_past
    return meets(a, b), meets(b, a)


def causal_relation(a: Cell, b: Cell) -> str:
    """Exactly one of past_of_b / future_of_b / spacelike for an ordered pair:
    past_of_b when a meets the causal past of b and b does not meet a's.

    Box cells in the same row with |dm| = 1 meet each other's past; they
    are reported spacelike here and flagged separately by
    mutual_past_contact() for spouse detection.
    """
    into, back = _past_contact(a, b)
    return SPACELIKE if into == back else PAST_OF_B if into else FUTURE_OF_B


def mutual_past_contact(a: Cell, b: Cell) -> bool:
    """True for distinct cells that each meet the other's causal past."""
    return a != b and all(_past_contact(a, b))


def strictly_spacelike(a: Cell, b: Cell) -> bool:
    return not any(_past_contact(a, b))


def direct_parents(c: Cell) -> frozenset[Cell]:
    """Cells with a causal curve into c that enters no third region."""
    return frozenset([Cell(c.kind, c.a + da, c.b + db) for da, db in _geometry(c.kind).parents])


def spouses(c: Cell) -> frozenset[Cell]:
    """Spacelike neighbors with mutual past contact (box rows only)."""
    return frozenset([Cell(c.kind, c.a + da, c.b + db) for da, db in _geometry(c.kind).spouses])


def is_boundary_cell(c: Cell, window: Window) -> bool:
    """True when at least one geometric parent falls outside the window."""
    return any(not window.contains(p) for p in direct_parents(c))


def build_graph(kind: str, window: Window) -> MixedGraph:
    """One vertex per in-window cell; parent arrows, spouse bidirected edges."""
    _geometry(kind)
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
    """The other in-window cells whose region meets the causal past of c."""
    meets = _geometry(c.kind).meets_past
    return frozenset(x for x in window.cells(c.kind) if x != c and meets(x, c))


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
    return reduce(operator.or_, compress(member, cells), 0)


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


_BITS = bytes.maketrans(b"01", b"\0\1")
_UNITS = {"B": "latin-1", "H": f"utf-16-{sys.byteorder[0]}e", "I": f"utf-32-{sys.byteorder[0]}e"}


def _spread(word: int, count: int, typecode: str = "B") -> int:
    """The int whose native-order bytes are an array(typecode) with bit r of
    word as item r, r < count: bits as text, one item-wide code unit each."""
    text = format(word | 1 << count, "b")[:0:-1].encode(_UNITS[typecode])
    return int.from_bytes(text.translate(_BITS), sys.byteorder)


def _candidates(labels: tuple[str, ...], count: int) -> Iterator[tuple[str, ...]]:
    """The sweep's first count candidates, in (size, lexicographic) order."""
    sizes = range(1, len(labels) + 1)
    return islice(chain.from_iterable(combinations(labels, k) for k in sizes), count)


# a geometry code's (l1, l2, l3): bit 0, 1 or 2 is set when L1, L2 or L3 fails
_GEOMETRY = tuple((not c & 1, not c & 2, not c & 4) for c in range(8))


def _decide_sweep(cell_a: Cell, cell_b: Cell, window: Window, variant: str,
                  max_cells: int | None, budget: int
                  ) -> tuple[tuple[str, ...], int, list[int], bytes]:
    """The sweep kernel (module docstring), with shielding_sweep's checks:
    (the pool's labels, the candidate count, each pool cell's membership
    word, and each candidate's geometry code)."""
    _require_spacelike_pair(cell_a, cell_b)
    pool, parent_masks, boundary = _pool_index(cell_a, window)
    if max_cells is None:
        max_cells = len(pool)
    elif max_cells < 0:
        raise ValueError(f"max_cells must be non-negative, got {max_cells}")
    in_l3, l3_every = _l3_rule(cell_a, cell_b, variant)
    sizes = range(1, min(max_cells, len(pool)) + 1)
    count = sum(comb(len(pool), k) for k in sizes)
    if count > budget:
        raise BudgetExceeded(f"{count} candidates exceed budget {budget}")
    member = _members(len(pool), len(sizes))
    every = (1 << count) - 1
    in_l1 = _l1_rule(cell_a)
    l1_fails = _union(member, (not in_l1(c) for c in pool))
    if l3_every:
        l3_fails = _union(member, (not in_l3(c) for c in pool))
    else:
        l3_fails = every & ~_union(member, map(in_l3, pool))
    fails = (l1_fails, _l2_fails(member, parent_masks, boundary, every), l3_fails)
    codes = sum(_spread(word, count) << i for i, word in enumerate(fails))
    return tuple(c.label for c in pool), count, member, codes.to_bytes(count, sys.byteorder)


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
    labels, count, _member, geometry = _decide_sweep(cell_a, cell_b, window, variant,
                                                     max_cells, budget)
    yield from ((c, *_GEOMETRY[code]) for c, code in zip(_candidates(labels, count), geometry))


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
    a, b = (Cell(kind, *p) for p in _geometry(kind).probes(window))
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
    """A sweep as codes, one per candidate in shielding_sweep's order: bit 0,
    1 or 2 of geometry[r] is set when it fails L1, L2 or L3; verdicts[r]
    indexes table, the separated verdict and then one per distinct witness."""

    graph: MixedGraph
    a: str
    b: str
    labels: tuple[str, ...]
    total: int
    geometry: bytes
    verdicts: array
    table: tuple[SeparationVerdict, ...]

    def candidates(self) -> Iterator[tuple[str, ...]]:
        return _candidates(self.labels, self.total)

    @property
    def shielder_off_count(self) -> int:
        return self.geometry.count(0)

    @property
    def rows(self) -> list[Prop1Row]:
        """Every row, decoded from its codes when read."""
        table = self.table
        return [tuple.__new__(Prop1Row, (region, *_GEOMETRY[code], not code, *table[v]))
                for region, code, v in zip(self.candidates(), self.geometry, self.verdicts)]

    @property
    def counterexamples(self) -> list[Prop1Row]:
        """The shielder-off rows that are connected, from the codes alone."""
        found, r = bytearray(self.total), self.geometry.find(0)
        while r >= 0:
            found[r] = self.verdicts[r] != 0
            r = self.geometry.find(0, r + 1)
        return [Prop1Row(region, True, True, True, True, *self.table[v]) for region, v
                in zip(compress(self.candidates(), found), compress(self.verdicts, found))]


def prop1_sweep(kind: str, window: Window, cell_a: Cell, cell_b: Cell,
                variant: str, max_cells: int | None = None,
                budget: int = DEFAULT_ENUM_BUDGET,
                lattice_graph: MixedGraph | None = None) -> Prop1Report:
    """Full candidate sweep joining geometric verdicts with separation.

    The sweep kernel decides the geometry (module docstring), and its
    membership words, mapped to graph vertices, are the sets of one
    witness_words call that decides every candidate.  The report keeps both
    as codes made from the words with no step per candidate (_spread): one
    byte each, or more for the verdict index past 255 witnesses.  b is
    strictly spacelike from a, so neither is in a's pool, and the report
    writer makes each line's query without rechecking.
    A counterexample row is shielder-off yet connected.  The canonical 6x6
    diamond probes have none, but d(2,5)/d(5,2) have two, d-connected
    through a conditioned parent of a; the 6x9 box has three, m-connected
    through a region cell that is a collider on a spouse edge.
    """
    g = lattice_graph if lattice_graph is not None else build_graph(kind, window)
    a, b = cell_a.label, cell_b.label
    g.require((a, b))
    labels, count, member, geometry = _decide_sweep(cell_a, cell_b, window, variant,
                                                    max_cells, budget)
    # every pool cell is in some set, unless the sweep is empty
    vertices = labels if count else ()
    g.require(vertices)
    found = witness_words(g, a, b, count, {g.index[v]: w for v, w in zip(vertices, member)})
    typecode = next(t for t in "BHI" if len(found) < 1 << 8 * array(t).itemsize)
    index = sum(_spread(word, count, typecode) * i for i, (word, _) in enumerate(found, 1))
    verdicts = array(typecode, index.to_bytes(count * array(typecode).itemsize, sys.byteorder))
    return Prop1Report(g, a, b, labels, count, geometry, verdicts,
                       (SeparationVerdict(True, None), *(verdict for _, verdict in found)))
