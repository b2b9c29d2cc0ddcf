"""d-separation and m-separation queries on mixed acyclic graphs.

Two decision routes share no code:

* is_separated_oracle -- the ground truth.  It tests every simple path
  against the blocking criterion (a non-collider in the conditioning set
  blocks; a collider blocks unless it is in the conditioning set's
  inclusive ancestor closure, i.e. it or one of its descendants is
  conditioned on).
* is_separated -- the fast route.  A vertex cut decides every query whose
  conditioning set lies within An({a, b}), the inclusive ancestors of the
  endpoints.  A breadth-first search builds the witness of a connected
  query, and decides the queries the cut does not cover.

The cut.  Z m-separates a and b iff Z separates them in the augmented
graph of An({a, b} | Z) (Richardson 2003; on DAGs the moral graph of
Lauritzen et al. 1990).  It is the undirected graph on that ancestral set
in which two vertices are adjacent iff a collider path joins them, that
is iff both lie in one district (bidirected component) or among its
parents.  One half in brief: every vertex of an active path is an
ancestor of an endpoint or of Z, and the endpoints and non-colliders of
the path, none of them in Z, follow one another through runs of
colliders, which are augmented edges.  Ancestry is transitive, so for Z
within An({a, b}), An({a, b} | Z) = An({a, b}): every such Z is tested on
one fixed graph (graph.augmented_masks), by a flood fill from a that never
enters Z (graph.flood).  Undirected separation is monotone: adding
vertices of An({a, b}) to a separating Z keeps it separating.

The search.  Breadth-first reachability over integer states 2*v + head
(vertex index, arrowhead on entry) on the graph's integer core (the
reachability view of Bayes-Ball, Shachter 1998; Geiger, Verma & Pearl
1990).  The conditioning set becomes a vertex mask and the open colliders
the OR of its ancestor masks.  It agrees with the oracle because a shortest
active walk repeats no vertex.  Cut the loop between two visits of v: the
shorter walk stays active.  A conditioned v passed twice as a collider and
still is one; an ancestor of cond passes in any role.  Otherwise both
visits were non-colliders, and v blocks only if the walk entered it
through an arrowhead and left through one.  Then the loop leaves v along
v -> x and returns along v -> y, so it holds a collider below v; that
collider is open, so v is an ancestor of cond.  The FIFO reaches b first
along a shortest active walk, so its witness is a simple path.

A collider is an interior path vertex receiving arrowheads from both
neighbors; bidirected edge ends count as arrowheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import AdjacentVertices, InvalidPath, UnknownVertex
from .graph import (
    ANCESTORS_INCLUSIVE,
    BIDIR,
    DIR_BACKWARD,
    DIR_FORWARD,
    MixedGraph,
    Path,
    augmented_masks,
    flood,
    relatives,
)

@dataclass(frozen=True)
class SeparationQuery:
    """One separation decision: are a and b separated given cond?"""

    a: str
    b: str
    cond: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cond", frozenset(self.cond))
        if self.a == self.b:
            raise ValueError("query endpoints must differ")
        if self.a in self.cond or self.b in self.cond:
            raise ValueError("query endpoints may not be conditioned on")


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    witness: Path | None = None


def path_is_connecting(g: MixedGraph, p: Path, cond: Iterable[str]) -> bool:
    """True iff the path is active given cond.

    Active: every interior non-collider is outside cond and every interior
    collider is in cond or has a descendant in cond.
    """
    cond = frozenset(cond)
    g.require(p.vertices)
    g.require(cond)
    _validate_path_edges(g, p)
    if p.vertices[0] in cond or p.vertices[-1] in cond:
        raise InvalidPath("path endpoints may not be in the conditioning set")
    open_colliders = relatives(g, cond, ANCESTORS_INCLUSIVE)
    return _connecting(p.vertices, p.edges, cond, open_colliders)


def _validate_path_edges(g: MixedGraph, p: Path) -> None:
    for u, kind, v in zip(p.vertices, p.edges, p.vertices[1:]):
        ok = (kind == DIR_FORWARD and g.has_directed(u, v)) or \
             (kind == DIR_BACKWARD and g.has_directed(v, u)) or \
             (kind == BIDIR and g.has_bidirected(u, v))
        if not ok:
            raise InvalidPath(f"no {kind} edge between {u!r} and {v!r}")


def _connecting(verts, kinds, cond: frozenset[str], open_colliders: frozenset[str]) -> bool:
    # Mark at interior vertex i: head on the incoming side iff the previous
    # edge points at it; head on the outgoing side iff the next edge points
    # back at it.
    for i in range(1, len(verts) - 1):
        v = verts[i]
        in_head = kinds[i - 1] in (DIR_FORWARD, BIDIR)
        out_head = kinds[i] in (DIR_BACKWARD, BIDIR)
        if in_head and out_head:
            if v not in open_colliders:
                return False
        elif v in cond:
            return False
    return True


def is_separated_oracle(g: MixedGraph, q: SeparationQuery) -> SeparationVerdict:
    """Exhaustive simple-path test (max length |V| - 1 edges).

    Independent of the reachability route; kept as the ground-truth oracle.
    The witness is the first connecting path in deterministic enumeration
    order.  The search abandons a prefix the moment an interior vertex's
    role is decided and blocked, which prunes nothing but blocked paths, so
    the verdict and witness match the unpruned enumeration exactly.
    """
    g.require((q.a, q.b))
    g.require(q.cond)
    cond = q.cond
    open_colliders = relatives(g, cond, ANCESTORS_INCLUSIVE)

    verts = [q.a]
    kinds: list[str] = []
    on_path = {q.a}
    max_len = len(g.vertices) - 1

    def walk(v: str, in_head: bool) -> Path | None:
        if len(kinds) >= max_len:
            return None
        for (w, mv, mw, kind) in g.incident(v):
            if w in on_path:
                continue
            if kinds:  # v is interior once we extend past it
                if in_head and mv == "h":
                    if v not in open_colliders:
                        continue
                elif v in cond:
                    continue
            verts.append(w)
            kinds.append(kind)
            if w == q.b:
                found = Path(tuple(verts), tuple(kinds))
                verts.pop()
                kinds.pop()
                return found
            on_path.add(w)
            found = walk(w, mw == "h")
            on_path.discard(w)
            verts.pop()
            kinds.pop()
            if found is not None:
                return found
        return None

    witness = walk(q.a, False)
    return SeparationVerdict(witness is None, witness)


def is_separated(g: MixedGraph, q: SeparationQuery) -> SeparationVerdict:
    """Decide separation by a vertex cut; search only to build witnesses.

    When cond lies within An({a, b}), a is separated from b iff the flood
    fill from a over the augmented graph of An({a, b}), never entering cond,
    misses b (module docstring).  A connected query, and any query with a
    conditioned vertex outside An({a, b}), goes to the breadth-first search,
    whose first active walk to b is the witness.  Agrees with
    is_separated_oracle on every input; the witness is deterministic.
    """
    index, anc = g.index, g.ancestor_masks
    try:
        a, b = index[q.a], index[q.b]
        cond_mask = 0
        for v in q.cond:
            cond_mask |= 1 << index[v]
    except KeyError as exc:
        raise UnknownVertex(f"unknown vertex {exc.args[0]!r}") from None
    keep = anc[a] | anc[b]
    by_cut = not cond_mask & ~keep
    if by_cut and not flood(1 << a, augmented_masks(g, keep), cond_mask, 1 << b) >> b & 1:
        return SeparationVerdict(True, None)
    witness = _search(g, q, a, b, cond_mask)
    if witness is None and by_cut:
        raise RuntimeError("internal invariant violation: the vertex cut "
                           "connects a and b but no active walk does")
    return SeparationVerdict(witness is None, witness)


def _search(g: MixedGraph, q: SeparationQuery, a: int, b: int,
            cond_mask: int) -> Path | None:
    """Breadth-first reachability over int states: the first active walk
    from a to b as a Path, or None when there is none.

    State 2*v + head records vertex index v and whether the walk entered it
    through an arrowhead.  The FIFO starts from the state of a entered
    through a tail, from which every move is allowed.  Passage through v is
    allowed when v acts as a non-collider outside cond, or as a collider in
    the open-collider mask (the OR of the inclusive ancestor masks of cond).
    Moves are tried in incident() order, so the walk found is deterministic,
    and it is simple: a shortest active walk repeats no vertex (module
    docstring).  Runs in O(|V| + |E|).
    """
    index, adjacency, anc = g.index, g.adjacency, g.ancestor_masks
    open_mask = 0
    for v in q.cond:
        open_mask |= anc[index[v]]

    # prev[state] = (previous state, edge kind); the start state 2*a enters a
    # through a tail, so every move out of a is allowed, and it is never
    # re-entered (a tail re-entry could reach no new state)
    start = 2 * a
    prev: list[tuple[int, str | None] | None] = [None] * (2 * len(adjacency))
    prev[start] = (-1, None)
    queue = [start]  # FIFO: the loop below reads what it appends
    goal = -1
    for state in queue:
        v = state >> 1
        bit = 1 << v
        if state & 1:
            # entered through a head: leaving through a head makes v a
            # collider, passable only when open; a conditioned v passes
            # only as a collider
            if cond_mask & bit:
                moves = adjacency[v][1]
            elif open_mask & bit:
                moves = adjacency[v][0]
            else:
                moves = adjacency[v][2]
        elif cond_mask & bit:
            continue
        else:
            moves = adjacency[v][0]
        for (nxt, w, kind) in moves:
            if prev[nxt] is None:
                prev[nxt] = (state, kind)
                if w == b:
                    goal = nxt
                    break
                queue.append(nxt)
        if goal >= 0:
            break
    if goal < 0:
        return None

    labels = g.vertices
    verts: list[str] = []
    kinds: list[str] = []
    state = goal
    while state != start:
        verts.append(labels[state >> 1])
        state, kind = prev[state]
        kinds.append(kind)
    verts.append(q.a)
    verts.reverse()
    kinds.reverse()
    # a repeat would disprove the shortest-walk lemma; check it before
    # Path() so a failure is an internal error, not an InvalidPath
    open_on_path = frozenset(v for v in verts if open_mask >> index[v] & 1)
    if len(set(verts)) < len(verts) or not _connecting(verts, kinds, q.cond, open_on_path):
        raise RuntimeError("internal invariant violation: witness walk is not "
                           "a connecting simple path")
    return Path(tuple(verts), tuple(kinds))


def _sep(g: MixedGraph, a: str, b: str, cond: Iterable[str]) -> bool:
    return is_separated(g, SeparationQuery(a, b, frozenset(cond))).separated


def minimal_separator(g: MixedGraph, a: str, b: str) -> frozenset[str] | None:
    """Greedy minimal separator contained in ancestors_inclusive({a, b}).

    Starts from the inclusive ancestor set S0 minus the endpoints and, in
    one pass in label order, removes each element whose removal preserves
    separation: |S0| + 1 separation calls.  None is returned if S0 itself
    fails to separate.

    One pass is inclusion-minimal (Tian, Paz & Pearl 1998).  Every set it
    tests lies within An({a, b}), where separation is a vertex cut of one
    fixed graph and so monotone in the set (module docstring).  Each
    survivor failed to be removed from a superset of the result, so
    removing it from the result fails too.
    """
    g.require((a, b))
    if a == b:
        raise ValueError("query endpoints must differ")
    if g.is_adjacent(a, b):
        raise AdjacentVertices(f"{a!r} and {b!r} are adjacent")
    s0 = relatives(g, frozenset((a, b)), ANCESTORS_INCLUSIVE) - {a, b}
    if not _sep(g, a, b, s0):
        return None
    keep = set(s0)
    for v in sorted(s0):
        keep.discard(v)
        if not _sep(g, a, b, keep):
            keep.add(v)
    return frozenset(keep)
