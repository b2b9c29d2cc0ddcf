"""Mixed acyclic graphs: construction, ancestry, path enumeration.

A MixedGraph carries directed edges (u -> v) and bidirected edges
(u <-> v).  The directed part must be acyclic.  Graphs are immutable
after construction and every derived ordering is label-lexicographic,
so exports and test fixtures are byte-stable.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    CycleError,
    DuplicateEdge,
    InvalidPath,
    SelfLoop,
    UnknownVertex,
)

# Edge kinds as seen while walking a path from its first to its last vertex.
DIR_FORWARD = "dir-forward"
DIR_BACKWARD = "dir-backward"
BIDIR = "bidir"

_KIND_RANK = {DIR_FORWARD: 0, DIR_BACKWARD: 1, BIDIR: 2}

# Relation selectors for relatives().
PARENTS = "parents"
ANCESTORS = "ancestors"
ANCESTORS_INCLUSIVE = "ancestors_inclusive"
DESCENDANTS = "descendants"
COLLATERALS = "collaterals"


class Path(NamedTuple("Path", [("vertices", tuple[str, ...]), ("edges", tuple[str, ...])])):
    """A simple path: n vertices joined by n-1 edges of known kind, as the
    tuple (vertices, edges), checked when made.  Its hash is the tuple's,
    not cached; a sweep shares one Path per distinct witness."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], edges: tuple[str, ...]) -> "Path":
        if len(vertices) < 2 or len(edges) != len(vertices) - 1:
            raise InvalidPath("path needs >= 1 edge and matching edge list")
        if len(set(vertices)) != len(vertices):
            raise InvalidPath("path repeats a vertex")
        for kind in edges:
            if kind not in _KIND_RANK:
                raise InvalidPath(f"unknown edge kind {kind!r}")
        return tuple.__new__(cls, (vertices, edges))

    def __str__(self) -> str:
        return format_path(self)


def format_path(p: Path) -> str:
    glyph = {DIR_FORWARD: "->", DIR_BACKWARD: "<-", BIDIR: "<->"}
    out = [p.vertices[0]]
    for kind, v in zip(p.edges, p.vertices[1:]):
        out.append(glyph[kind])
        out.append(v)
    return "".join(out)


class MixedGraph:
    """Immutable mixed acyclic graph over string vertex labels.

    Do not call directly; use build_graph(), which validates the
    invariants (no self loops, no duplicate edges, acyclic directed part).
    """

    __slots__ = ("vertices", "directed", "bidirected", "_parents", "_children",
                 "_spouses", "_order", "_incident", "index", "adjacency",
                 "ancestor_masks")

    def __init__(self, vertices, directed, bidirected, parents, children,
                 spouses, order):
        self.vertices: tuple[str, ...] = vertices
        self.directed: tuple[tuple[str, str], ...] = directed
        self.bidirected: tuple[tuple[str, str], ...] = bidirected
        self._parents: dict[str, tuple[str, ...]] = parents
        self._children: dict[str, tuple[str, ...]] = children
        self._spouses: dict[str, tuple[str, ...]] = spouses
        self._order: tuple[str, ...] = order
        # Per-vertex traversal table: (neighbor, mark here, mark there, path kind),
        # sorted so every walk over the graph is deterministic.
        incident: dict[str, list[tuple[str, str, str, str]]] = {v: [] for v in vertices}
        for u, v in directed:
            incident[u].append((v, "t", "h", DIR_FORWARD))
            incident[v].append((u, "h", "t", DIR_BACKWARD))
        for u, v in bidirected:
            incident[u].append((v, "h", "h", BIDIR))
            incident[v].append((u, "h", "h", BIDIR))
        self._incident = {
            v: tuple(sorted(items, key=lambda e: (e[0], _KIND_RANK[e[3]])))
            for v, items in incident.items()
        }
        # Integer core for the hot paths.  Vertex i is vertices[i], and state
        # 2*j + h is vertex j entered through an arrowhead (h = 1) or a tail
        # (h = 0).  adjacency[i] lists the moves out of vertex i in incident()
        # order as (next state, neighbor index, path kind): all of them, those
        # whose edge has a head at i, and those whose edge has a tail at i.
        # ancestor_masks[i] has bit j set iff vertices[j] is an inclusive
        # ancestor of vertices[i].
        index = {v: i for i, v in enumerate(vertices)}
        adjacency = []
        for v in vertices:
            every, head_here, tail_here = [], [], []
            for (w, mv, mw, kind) in self._incident[v]:
                move = (2 * index[w] + (mw == "h"), index[w], kind)
                every.append(move)
                (head_here if mv == "h" else tail_here).append(move)
            adjacency.append((tuple(every), tuple(head_here), tuple(tail_here)))
        masks = [0] * len(vertices)
        for v in order:
            i = index[v]
            mask = 1 << i
            for p in parents[v]:
                mask |= masks[index[p]]
            masks[i] = mask
        self.index: dict[str, int] = index
        self.adjacency: tuple[tuple[tuple[tuple[int, int, str], ...], ...], ...] = \
            tuple(adjacency)
        self.ancestor_masks: tuple[int, ...] = tuple(masks)

    def __contains__(self, label: str) -> bool:
        return label in self._parents

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.directed == other.directed
                and self.bidirected == other.bidirected)

    def __hash__(self) -> int:
        return hash((self.vertices, self.directed, self.bidirected))

    def __repr__(self) -> str:
        return (f"MixedGraph({len(self.vertices)} vertices, "
                f"{len(self.directed)} directed, {len(self.bidirected)} bidirected)")

    def parents_of(self, v: str) -> tuple[str, ...]:
        return self._parents[v]

    def children_of(self, v: str) -> tuple[str, ...]:
        return self._children[v]

    def spouses_of(self, v: str) -> tuple[str, ...]:
        return self._spouses[v]

    def incident(self, v: str) -> tuple[tuple[str, str, str, str], ...]:
        return self._incident[v]

    def require(self, labels: Iterable[str]) -> None:
        for v in labels:
            if v not in self._parents:
                raise UnknownVertex(f"unknown vertex {v!r}")

    def is_adjacent(self, a: str, b: str) -> bool:
        return self.has_directed(a, b) or self.has_directed(b, a) or self.has_bidirected(a, b)

    def has_directed(self, u: str, v: str) -> bool:
        return u in self._parents.get(v, ())

    def has_bidirected(self, u: str, v: str) -> bool:
        return u in self._spouses.get(v, ())


def build_graph(vertices: Iterable[str],
                directed: Iterable[tuple[str, str]] = (),
                bidirected: Iterable[tuple[str, str]] = ()) -> MixedGraph:
    """Validate and build a mixed acyclic graph.

    Raises UnknownVertex, SelfLoop, DuplicateEdge or CycleError when the
    inputs violate the graph invariants.
    """
    vset = set()
    for v in label_iterable(vertices, "vertex list"):
        if not isinstance(v, str) or not v:
            raise UnknownVertex(f"vertex labels must be nonempty strings, got {v!r}")
        vset.add(v)
    vtuple = tuple(sorted(vset))

    dir_edges: list[tuple[str, str]] = []
    seen_dir: set[tuple[str, str]] = set()
    for u, v in directed:
        if u not in vset or v not in vset:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) uses an unlisted vertex")
        if u == v:
            raise SelfLoop(f"self loop at {u!r}")
        if (u, v) in seen_dir:
            raise DuplicateEdge(f"directed edge ({u!r}, {v!r}) given twice")
        seen_dir.add((u, v))
        dir_edges.append((u, v))

    bi_edges: list[tuple[str, str]] = []
    seen_bi: set[tuple[str, str]] = set()
    for u, v in bidirected:
        if u not in vset or v not in vset:
            raise UnknownVertex(f"edge {{{u!r}, {v!r}}} uses an unlisted vertex")
        if u == v:
            raise SelfLoop(f"self loop at {u!r}")
        pair = (u, v) if u <= v else (v, u)
        if pair in seen_bi:
            raise DuplicateEdge(f"bidirected edge {{{u!r}, {v!r}}} given twice")
        seen_bi.add(pair)
        bi_edges.append(pair)

    dir_tuple = tuple(sorted(dir_edges))
    bi_tuple = tuple(sorted(bi_edges))

    parents: dict[str, list[str]] = {v: [] for v in vtuple}
    children: dict[str, list[str]] = {v: [] for v in vtuple}
    spouses: dict[str, list[str]] = {v: [] for v in vtuple}
    for u, v in dir_tuple:
        parents[v].append(u)
        children[u].append(v)
    for u, v in bi_tuple:
        spouses[u].append(v)
        spouses[v].append(u)

    order = _kahn_order(vtuple, parents, children)

    return MixedGraph(
        vtuple, dir_tuple, bi_tuple,
        {v: tuple(sorted(ps)) for v, ps in parents.items()},
        {v: tuple(sorted(cs)) for v, cs in children.items()},
        {v: tuple(sorted(ss)) for v, ss in spouses.items()},
        order,
    )


def _kahn_order(vertices, parents, children) -> tuple[str, ...]:
    indegree = {v: len(parents[v]) for v in vertices}
    ready = [v for v in vertices if indegree[v] == 0]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != len(vertices):
        stuck = sorted(v for v in vertices if indegree[v] > 0)
        raise CycleError(f"directed part has a cycle through {stuck}")
    return tuple(out)


def topological_order(g: MixedGraph) -> tuple[str, ...]:
    """Vertices with every directed edge pointing forward; label ties broken
    lexicographically."""
    return g._order


def relatives(g: MixedGraph, s: Iterable[str], kind: str) -> frozenset[str]:
    """Parents / ancestors / descendants / collaterals of a vertex set.

    Ancestry follows directed edges only.  "ancestors" excludes the seed
    set itself; "ancestors_inclusive" is ancestors united with the seed.
    Collaterals of s are the vertices that are neither ancestors nor
    descendants of s and not in s.
    """
    seed = frozenset(label_iterable(s, "vertex set"))
    g.require(seed)
    if kind == PARENTS:
        out: set[str] = set()
        for v in seed:
            out.update(g.parents_of(v))
        return frozenset(out)
    if kind in (ANCESTORS, ANCESTORS_INCLUSIVE):
        closure = _closure(g, seed, g.parents_of)
        if kind == ANCESTORS:
            return frozenset(closure - seed)
        return frozenset(closure | seed)
    if kind == DESCENDANTS:
        return frozenset(_closure(g, seed, g.children_of) - seed)
    if kind == COLLATERALS:
        anc = _closure(g, seed, g.parents_of)
        des = _closure(g, seed, g.children_of)
        return frozenset(set(g.vertices) - anc - des - seed)
    raise ValueError(f"unknown relation kind {kind!r}")


def _closure(g: MixedGraph, seed: frozenset[str], step) -> set[str]:
    out: set[str] = set()
    stack = list(seed)
    while stack:
        v = stack.pop()
        for w in step(v):
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def simple_paths(g: MixedGraph, a: str, b: str, max_len: int) -> Iterator[Path]:
    """Yield every simple path from a to b with at most max_len edges.

    Edges are traversable in either direction regardless of kind.  The
    order is deterministic: depth-first, neighbors by (label, edge kind).
    """
    g.require((a, b))
    if a == b:
        raise ValueError("path endpoints must differ")
    yield from _paths(g, a, b, max_len, lambda v, in_head, out_head: True)


def _paths(g: MixedGraph, a: str, b: str, max_len: int,
           passes: Callable[[str, bool, bool], bool]) -> Iterator[Path]:
    """simple_paths' depth-first walk, extending a prefix past an interior
    vertex v only when passes(v, in_head, out_head): whether the edges
    before and after v have an arrowhead at v."""
    verts = [a]
    kinds: list[str] = []
    on_path = {a}

    def walk(v: str, in_head: bool) -> Iterator[Path]:
        if len(kinds) >= max_len:
            return
        for (w, mv, mw, kind) in g.incident(v):
            if w in on_path or kinds and not passes(v, in_head, mv == "h"):
                continue
            verts.append(w)
            kinds.append(kind)
            if w == b:
                yield Path(tuple(verts), tuple(kinds))
            else:
                on_path.add(w)
                yield from walk(w, mw == "h")
                on_path.discard(w)
            verts.pop()
            kinds.pop()

    return walk(a, False)


def label_iterable(labels: Iterable[str], what: str) -> Iterable[str]:
    """labels, unless it is a str, which would read as a set of characters."""
    if isinstance(labels, str):
        raise ValueError(f"{what} {labels!r} is a str, not a set of labels")
    return labels


def split_labels(literal: str) -> tuple[str, ...]:
    """The labels of a '+'-joined list such as "a+b+c", in order; the empty
    string is the empty list.  ValueError for an empty or repeated label."""
    if not literal:
        return ()
    labels = tuple(literal.split("+"))
    if "" in labels:
        raise ValueError(f"empty label in {literal!r}")
    if len(set(labels)) < len(labels):
        raise ValueError(f"repeated label in {literal!r}")
    return labels


def graph_to_json_dict(g: MixedGraph, kind: str = "abstract",
                       window: dict | None = None) -> dict:
    """Canonical JSON document for a graph (arrays sorted lexicographically)."""
    doc: dict = {
        "kind": kind,
        "vertices": list(g.vertices),
        "directed": [list(e) for e in g.directed],
        "bidirected": [list(e) for e in g.bidirected],
    }
    if window is not None:
        doc["window"] = dict(window)
    return doc


def graph_from_json_dict(doc: dict) -> tuple[MixedGraph, str, dict | None]:
    """Rebuild (graph, kind, window dict or None) from a JSON document,
    read by read_graph_document."""
    vertices, directed, bidirected, kind, window = read_graph_document(doc)
    return build_graph(vertices, directed, bidirected), kind, window


def read_graph_document(doc: dict) -> tuple[list[str], list[tuple[str, str]],
                                            list[tuple[str, str]], str, dict | None]:
    """(vertices, directed, bidirected, kind, window dict or None) of a JSON
    graph document, as listed there; no graph is built.

    Raises InvalidPath unless vertices is a list of strings, every edge a
    two-element list of strings and every window bound an integer.
    """
    if not isinstance(doc, dict):
        raise InvalidPath("malformed graph document: not a JSON object")
    vertices = _document_field(doc, "vertices")
    if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
        raise InvalidPath("malformed graph document: vertices must be a list of strings")
    directed, bidirected = (_edge_list(doc, key) for key in ("directed", "bidirected"))
    kind = doc.get("kind", "abstract")
    if kind not in ("abstract", "diamond", "box"):
        raise InvalidPath(f"unknown graph kind {kind!r}")
    window = doc.get("window")
    if window is not None and not (isinstance(window, dict) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in window.values())):
        raise InvalidPath("malformed graph document: window bounds must be integers")
    return vertices, directed, bidirected, kind, dict(window) if window is not None else None


def _document_field(doc: dict, key: str):
    if key not in doc:
        raise InvalidPath(f"malformed graph document: missing {key!r}")
    return doc[key]


def _edge_list(doc: dict, key: str) -> list[tuple[str, str]]:
    edges = _document_field(doc, key)
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            for e in edges)):
        raise InvalidPath(f"malformed graph document: {key} must be a list of "
                          "[u, v] string pairs")
    return [tuple(e) for e in edges]
