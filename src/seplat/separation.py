"""d-separation and m-separation queries on mixed acyclic graphs.

Three decision routes:

* is_separated_oracle -- the ground truth.  It walks the simple paths
  depth-first, in graph.simple_paths' order, past the interior vertices
  the blocking criterion lets through (a non-collider in the conditioning
  set blocks; a collider blocks unless it is in the conditioning set's
  inclusive ancestor closure, i.e. it or one of its descendants is
  conditioned on), and takes the first path that reaches b.  It shares no
  code with the other two.
* is_separated -- the fast route for one query: a breadth-first search
  that decides the query and, when it is connected, returns the first
  active walk to b as the witness.
* is_separated_each -- the route for many conditioning sets of one pair,
  as a sweep asks.  One bit-parallel search decides them all and returns
  what is_separated returns for each, witness included.  It checks each
  set as SeparationQuery and is_separated do, then hands the sets to
  witness_words as membership words, one per vertex, the form a lattice
  sweep already holds.  A sweep calls witness_words once and keeps its
  answer as codes; only its report writer still asks is_separated, once
  per line, where perfbench's tracer counts the calls and its self-test
  flips a verdict.  Each line's query is a DecidedQuery, a plain tuple (a,
  b, region labels, the verdict from that call): no line runs a search or
  a check of its own, and its cond frozenset is made only when read.

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

The witness.  Order walks from a by (length, then lexicographically by the
position of each move in incident() order).  The search's witness is the
first active walk to b in that order.  By induction on the level: each
state's prev chain is the first shortest walk to it, and the FIFO dequeues
a level in the order of these walks, since it appends a state when the
first state of the level before that has a move to it, at that move's
position.  So the goal's chain extends the first walk of the last level
with a move to b by its first such move.

The batch.  witness_words runs that search for every conditioning set at
once: bit c of every word stands for the c-th set.  The input words say
which sets hold each vertex, and the words of a state record which sets
reach it at which level.  A forward pass finds, per set, the level at
which b is first reached; a backward pass keeps the states that lie on a
shortest active walk to b; a forward decode takes, at each state, the
first allowed move onto a kept state.  That is the first walk in the order
above, so the batch finds the search's witness bit for bit, building each
distinct one once; is_separated_each spreads them over a list.  Its cost
is paid per state and move, not per set: on a few sets, is_separated is
the faster route.

A collider is an interior path vertex receiving arrowheads from both
neighbors; bidirected edge ends count as arrowheads.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Iterable, NamedTuple

from .errors import AdjacentVertices, InvalidPath, UnknownVertex
from .graph import (
    ANCESTORS_INCLUSIVE,
    BIDIR,
    DIR_BACKWARD,
    DIR_FORWARD,
    MixedGraph,
    Path,
    _paths,
    label_iterable,
    relatives,
    topological_order,
)


class SeparationQuery(NamedTuple("SeparationQuery",
                                 [("a", str), ("b", str), ("cond", frozenset[str])])):
    """One separation decision: are a and b separated given cond?  cond is
    any iterable of labels but a str, which would be a set of characters."""

    __slots__ = ()

    def __new__(cls, a: str, b: str, cond: Iterable[str] = frozenset()) -> "SeparationQuery":
        if type(cond) is not frozenset:
            cond = frozenset(label_iterable(cond, "conditioning set"))
        if a == b:
            raise ValueError("query endpoints must differ")
        if a in cond or b in cond:
            raise ValueError("query endpoints may not be conditioned on")
        return tuple.__new__(cls, (a, b, cond))


class SeparationVerdict(NamedTuple):
    separated: bool
    witness: Path | None = None


class DecidedQuery(NamedTuple):
    """A sweep report line's query: the pair, the line's region labels, and
    the verdict that the sweep's witness_words call gave it, which
    is_separated returns.  Its cond is made only when read."""

    a: str
    b: str
    region: tuple[str, ...]
    verdict: SeparationVerdict

    @property
    def cond(self) -> frozenset[str]:
        return frozenset(self.region)


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
    The witness is the first connecting path in simple_paths' order.  The
    walk abandons a prefix the moment an interior vertex's role is decided
    and blocked, which prunes nothing but blocked paths, so the verdict and
    witness match the unpruned enumeration exactly.
    """
    g.require((q.a, q.b))
    g.require(q.cond)
    cond = q.cond
    open_colliders = relatives(g, cond, ANCESTORS_INCLUSIVE)

    def passes(v: str, in_head: bool, out_head: bool) -> bool:
        return v in open_colliders if in_head and out_head else v not in cond

    witness = next(_paths(g, q.a, q.b, len(g.vertices) - 1, passes), None)
    return SeparationVerdict(witness is None, witness)


def is_separated(g: MixedGraph, q: SeparationQuery | DecidedQuery) -> SeparationVerdict:
    """Decide separation by the breadth-first search; a connected query's
    witness is its first active walk to b (module docstring).

    Agrees with is_separated_oracle on every input; the witness is
    deterministic.  A DecidedQuery returns the verdict it carries, unchecked.
    """
    if type(q) is DecidedQuery:
        return q.verdict
    index = g.index
    try:
        a, b = index[q.a], index[q.b]
        cond_mask = 0
        for v in q.cond:
            cond_mask |= 1 << index[v]
    except KeyError as exc:
        raise UnknownVertex(f"unknown vertex {exc.args[0]!r}") from None
    witness = _search(g, q, a, b, cond_mask)
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


def is_separated_each(g: MixedGraph, a: str, b: str,
                      conds: Iterable[Iterable[str]]) -> list[SeparationVerdict]:
    """[is_separated(g, SeparationQuery(a, b, c)) for c in conds] by one
    bit-parallel search (module docstring): the same verdicts, witnesses
    and exceptions.  Each set is checked as that query is, in set order,
    so the first bad set raises.  Each set may be any iterable of labels
    but a str, read once.

    The label front end of witness_words: bit r of words[v] is set iff
    vertex index v is in conds[r].
    """
    conds = list(conds)
    index = g.index
    words: defaultdict[int, bytearray] = defaultdict(partial(bytearray, (len(conds) + 7) >> 3))
    for r, c in enumerate(conds):
        q = SeparationQuery(a, b, c)
        # the pair once, before the first set's labels, as that query checks it
        g.require(q.cond if r else (a, b, *q.cond))
        byte, bit = r >> 3, 1 << (r & 7)
        for v in q.cond:
            words[index[v]][byte] |= bit
    verdicts = [SeparationVerdict(True, None)] * len(conds)
    for word, verdict in witness_words(g, a, b, len(conds), {
            v: int.from_bytes(buf, "little") for v, buf in words.items()}):
        bits = format(word, "b")[::-1]
        r = bits.find("1")
        while r >= 0:
            verdicts[r] = verdict
            r = bits.find("1", r + 1)
    return verdicts


def witness_words(g: MixedGraph, a: str, b: str, n: int,
                  words: dict[int, int]) -> list[tuple[int, SeparationVerdict]]:
    """Each distinct connected verdict of n conditioning sets, made once,
    with the word of the sets that take it, by one bit-parallel search
    (module docstring).  Bit r of words[v] is set iff vertex index v is in
    set r.  The returned words are disjoint; the other sets are separated.

    ValueError when a == b or an endpoint is in a set; UnknownVertex for an
    unknown endpoint or a word key that is no vertex index, for n = 0 too.

    Bit r of every word of the search stands for set r: in_cond[v] holds
    the sets with v in them and in_anc[v] those with v in their inclusive
    ancestor closure.  The search's rule becomes one word per move: a move
    out of v is allowed for the sets without v, except that after entry
    through a head, a move whose edge also has a head at v, making v a
    collider, is allowed for in_anc[v].
    """
    index, adjacency = g.index, g.adjacency
    if a == b:
        raise ValueError("query endpoints must differ")
    g.require((a, b))
    start, goal = 2 * index[a], index[b]
    if words.get(start >> 1) or words.get(goal):
        raise ValueError("query endpoints may not be conditioned on")
    in_cond = [0] * len(adjacency)
    for v, word in words.items():
        if not 0 <= v < len(in_cond):
            raise UnknownVertex(f"unknown vertex index {v!r}")
        in_cond[v] = word
    if not n:
        return []

    every = (1 << n) - 1
    # open colliders: a vertex is open for cond iff it or a descendant is in it
    in_anc = in_cond[:]
    for label in reversed(topological_order(g)):
        v = index[label]
        for (_nxt, w, _kind) in adjacency[v][2]:  # the edges v -> w
            in_anc[v] |= in_anc[w]
    # moves[state]: (next state, neighbour, edge kind, the sets that may take
    # the move), in incident() order
    moves = []
    for v, (out, _head_here, _tail_here) in enumerate(adjacency):
        passes = every ^ in_cond[v]
        moves.append(tuple((nxt, w, kind, passes) for (nxt, w, kind) in out))
        moves.append(tuple((nxt, w, kind, passes if kind == DIR_FORWARD else in_anc[v])
                           for (nxt, w, kind) in out))

    # forward: levels[k][state] = the sets that first reach state by a walk
    # of length k; hits[k] = those whose first walk to b has length k
    seen = [0] * len(moves)
    seen[start] = every
    levels = [{start: every}]
    hits = [0]
    pending = every
    while levels[-1]:
        reached: dict[int, int] = {}
        for state, word in levels[-1].items():
            for (nxt, _w, _kind, allowed) in moves[state]:
                x = word & allowed & ~seen[nxt]
                if x:
                    reached[nxt] = reached.get(nxt, 0) | x
        for nxt, x in reached.items():
            seen[nxt] |= x
        hit = reached.pop(2 * goal, 0) | reached.pop(2 * goal + 1, 0)
        hits.append(hit)
        pending ^= hit
        levels.append({s: x & pending for s, x in reached.items() if x & pending})

    # backward: levels[k][state] becomes the sets for which the state lies on
    # a shortest active walk to b
    for k in range(len(levels) - 2, -1, -1):
        marked, hit = levels[k + 1], hits[k + 1]
        for state, word in levels[k].items():
            on = 0
            for (nxt, w, _kind, allowed) in moves[state]:
                on |= allowed & (hit if w == goal else marked.get(nxt, 0))
            levels[k][state] = word & on

    # decode: follow each set's first allowed move onto a marked state
    found = []
    labels = g.vertices
    frontier = [(start, every ^ pending, (start >> 1,), ())]
    for k in range(len(levels) - 1):
        marked, hit = levels[k + 1], hits[k + 1]
        step = []
        for state, word, verts, kinds in frontier:
            for (nxt, w, kind, allowed) in moves[state]:
                x = word & allowed & (hit if w == goal else marked.get(nxt, 0))
                if not x:
                    continue
                word ^= x
                if w == goal:
                    path = _checked_witness(labels, verts + (w,), kinds + (kind,),
                                            x, in_cond, in_anc)
                    found.append((x, SeparationVerdict(False, path)))
                else:
                    step.append((nxt, x, verts + (w,), kinds + (kind,)))
        frontier = step
    return found


def _checked_witness(labels, verts, kinds, word, in_cond, in_anc) -> Path:
    """The Path of a decoded walk, checked by _connecting's rule for every
    set in word: each interior non-collider outside the set, each interior
    collider in its inclusive ancestor closure."""
    for i in range(1, len(verts) - 1):
        collider = kinds[i - 1] != DIR_BACKWARD and kinds[i] != DIR_FORWARD
        if word & (~in_anc[verts[i]] if collider else in_cond[verts[i]]):
            break
    else:
        if len(set(verts)) == len(verts):
            return Path(tuple(labels[v] for v in verts), kinds)
    raise RuntimeError("internal invariant violation: witness walk is not "
                       "a connecting simple path")


def minimal_separator(g: MixedGraph, a: str, b: str) -> frozenset[str] | None:
    """Greedy minimal separator contained in ancestors_inclusive({a, b}).

    Starts from the inclusive ancestor set S0 minus the endpoints and, in
    one pass in label order, removes each element whose removal preserves
    separation: |S0| + 1 separation calls.  None is returned if S0 itself
    fails to separate.

    One pass is inclusion-minimal.  Every set it tests lies within
    An({a, b}), and there separation is monotone: adding a vertex of
    An({a, b}) to a separating set keeps it separating (a theorem of
    separation itself: Richardson 2003; Tian, Paz & Pearl 1998).  Each
    survivor failed to be removed from a superset of the result, so
    removing it from the result fails too.
    """
    g.require((a, b))
    if a == b:
        raise ValueError("query endpoints must differ")
    if g.is_adjacent(a, b):
        raise AdjacentVertices(f"{a!r} and {b!r} are adjacent")
    s0 = relatives(g, frozenset((a, b)), ANCESTORS_INCLUSIVE) - {a, b}
    if not is_separated(g, SeparationQuery(a, b, s0)).separated:
        return None
    keep = set(s0)
    for v in sorted(s0):
        keep.discard(v)
        if not is_separated(g, SeparationQuery(a, b, keep)).separated:
            keep.add(v)
    return frozenset(keep)
