"""Exact finite probabilistic semantics over mixed graphs.

Binary variables, one per vertex.  Bidirected edges get a canonical latent
model: one fresh binary parent per edge.  Joints are exact tensor products
of conditional probability tables (no sampling), so separation soundness
checks can assert violations at 1e-9.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple

import numpy as np

from . import graph as graph_mod
from . import lattice as lattice_mod
from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    SeparatedInput,
    UnknownVertex,
)
from .graph import ANCESTORS_INCLUSIVE, BIDIR, DESCENDANTS, MixedGraph, label_iterable, relatives
from .lattice import DEFAULT_JOINT_BUDGET
from .separation import SeparationQuery, is_separated


# ---------------------------------------------------------------------------
# CPTs and distributions


class VertexCpt(NamedTuple("VertexCpt", [("parents", tuple[str, ...]), ("p1", np.ndarray)])):
    """P(v = 1 | parents); p1 has one axis per parent in sorted label order."""

    __slots__ = ()

    def __new__(cls, parents: tuple[str, ...], p1: np.ndarray) -> "VertexCpt":
        if list(parents) != sorted(set(parents)):
            raise ValueError(f"parents {parents} are not distinct and sorted")
        expected = (2,) * len(parents)
        if tuple(p1.shape) != expected:
            raise ValueError(f"p1 shape {p1.shape} != {expected}")
        # written so that NaN, which fails every comparison, is rejected too
        if not np.all((p1 >= 0.0) & (p1 <= 1.0)):
            raise ValueError("CPT entries must be finite and lie in [0, 1]")
        return tuple.__new__(cls, (parents, p1))

    # by value: a tuple comparison would ask an array for its truth value
    def __eq__(self, other) -> bool:
        return (isinstance(other, VertexCpt) and self.parents == other.parents
                and np.array_equal(self.p1, other.p1))

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = None  # p1 is a mutable array


def _bit_keys(k: int) -> list[str]:
    """The 2^k bit strings of length k, in the C order of a k-axis table."""
    return [format(idx, f"0{k}b") if k else "" for idx in range(2 ** k)]


class CptSet(NamedTuple):
    """Conditional probability tables for every vertex of a DAG."""

    tables: dict[str, VertexCpt]

    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.tables))

    def to_json_dict(self) -> dict:
        out: dict = {}
        for v in self.vertices():
            cpt = self.tables[v]
            p1 = cpt.p1.astype(float).ravel().tolist()
            out[v] = {"parents": list(cpt.parents),
                      "p1": dict(zip(_bit_keys(len(cpt.parents)), p1))}
        return out

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CptSet":
        """Inverse of to_json_dict.  Each p1 must have exactly the 2^k bit
        strings of length k as keys (k parents) and numbers as values."""
        tables = {}
        for v, entry in doc.items():
            parents = tuple(entry["parents"])
            keys = _bit_keys(len(parents))
            if sorted(entry["p1"]) != keys:
                raise ValueError(f"p1 of {v!r} needs exactly the {len(keys)} keys "
                                 f"of {len(parents)} bits")
            values = [entry["p1"][bits] for bits in keys]
            if not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                       for p in values):
                raise ValueError(f"p1 of {v!r} has a non-numeric entry")
            arr = np.array(values, dtype=float).reshape((2,) * len(parents))
            tables[v] = VertexCpt(parents, arr)
        return cls(tables)


# Marginal kernel.  An atom is one entry of a table, numbered in C order.
# Each axis adds a weight to the output bin of the atoms where its bit is 1,
# so the bins of all atoms are outer sums of lookup tables over <= 8 axes.
_LUT_AXES = 8
# Built from Python ints: the first run of numpy's shift and bitwise-and,
# which nothing else in seplat calls, adds about 0.25 MB to the resident set.
_LUT_BITS = np.array([[row >> (_LUT_AXES - 1 - col) & 1 for col in range(_LUT_AXES)]
                      for row in range(2 ** _LUT_AXES)], dtype=np.uint8)
# Atoms per chained block, both of a table's rows (_marginal_table) and of
# the groups that target_marginal streams, each continued from one shared
# head of at most 2^16 atoms.  The streamed peak is then the head, a
# group's last fold step (2^15 + 2^16 atoms) and the block's bins: 1.75 MB.
# 2^17-atom groups ran 10-15% faster on 21-22 vertices but peaked at 2.6 MB.
_BLOCK_AXES = 16
_HEAD_AXES = 16


def _atom_bins(weights: list[int]) -> np.ndarray:
    """Output bin of every atom of a table whose axis i adds weights[i].

    The bins are summed in the narrowest unsigned type that holds the
    largest, sum(weights), so no partial sum wraps.  They come back as
    np.intp, which np.add.at takes without a cast on every block."""
    dtype = np.min_scalar_type(sum(weights))
    bins = np.zeros(1, dtype=dtype)
    for start in range(0, len(weights), _LUT_AXES):
        chunk = np.array(weights[start:start + _LUT_AXES], dtype=dtype)
        lut = _LUT_BITS[:2 ** len(chunk), _LUT_AXES - len(chunk):] @ chunk
        bins = np.add.outer(bins, lut).ravel()
    return bins.astype(np.intp)


def _axis_weights(vars: Iterable[str], keep: list[str]) -> list[int]:
    """Output-index weight of each variable for the marginal over the sorted
    names keep: 2^(len(keep) - 1 - rank) when kept, 0 when dropped."""
    rank = {v: r for r, v in enumerate(keep)}
    return [2 ** (len(keep) - 1 - rank[v]) if v in rank else 0 for v in vars]


def _marginal_table(table: np.ndarray, weights: list[int]) -> np.ndarray:
    """Flat marginal of table: weights[i] is the output-index weight of axis
    i, a distinct power of two for a kept axis and 0 for a dropped one.

    Its rows of 2^_BLOCK_AXES atoms are chained by _chain_blocks, which
    gives the bits; a table of at most that many atoms is one block.
    Weights that keep every axis in order give the table itself, flat.
    """
    flat = table.reshape(-1)
    if weights == [2 ** i for i in reversed(range(len(weights)))]:
        return flat
    return _chain_blocks(flat.reshape(2 ** max(0, len(weights) - _BLOCK_AXES), -1),
                         weights)


def _chain_blocks(blocks: Iterable[np.ndarray], weights: list[int]) -> np.ndarray:
    """_marginal_table of a table given as its blocks: the flat atoms of
    each assignment of all but the last _BLOCK_AXES axes, in C order (one
    block, the whole table, when there are no more axes than that).

    Every output atom adds its input atoms left to right in C order,
    starting from 0.0, which is what table.sum(axis=dropped) does whenever
    the last axis is kept, so the two agree bit for bit there.  np.add.at
    adds each atom of a block into its bin in atom order, continuing the
    sums of the blocks before it, and never writes into a block.  Scratch
    memory is the bins of one block.
    """
    low = max(0, len(weights) - _BLOCK_AXES)
    bins = _atom_bins(weights[low:])
    out = np.zeros(2 ** sum(1 for w in weights if w))
    blocks = iter(blocks)
    for offset in _atom_bins(weights[:low]):
        block = next(blocks)
        np.add.at(out[offset:], bins, block)
        del block  # so that it is freed before the next block is made
    return out


class Distribution:
    """Exact joint over binary variables, stored as a dense tensor with one
    axis per variable, in the order given (any order).

    Marginals come back with their variables in sorted order; each one
    that drops a variable has the bits and scratch bound of _chain_blocks.
    """

    __slots__ = ("vars", "table")

    def __init__(self, vars: Iterable[str], table: np.ndarray):
        self.vars: tuple[str, ...] = tuple(vars)
        self.table = np.asarray(table, dtype=float)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"variables {self.vars} are not distinct")
        if tuple(self.table.shape) != (2,) * len(self.vars):
            raise ValueError("table shape does not match the variable list")
        total = float(self.table.sum())
        # a NaN or infinite entry makes the sum non-finite
        if not math.isfinite(total):
            raise ValueError("distribution has a non-finite entry")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"distribution sums to {total}, not 1")
        if float(self.table.min()) < -1e-12:
            raise ValueError("negative probability entry")

    @classmethod
    def _built(cls, vars: Iterable[str], table: np.ndarray) -> "Distribution":
        """A distribution over a table that this module's kernels built from
        validated CPTs or a validated distribution, made without the
        constructor's checking passes over every atom."""
        d = object.__new__(cls)
        d.vars = tuple(vars)
        d.table = table
        return d

    def marginal(self, names: Iterable[str]) -> "Distribution":
        keep = sorted(set(label_iterable(names, "variable set")))
        missing = [n for n in keep if n not in self.vars]
        if missing:
            raise UnknownVertex(f"variables {missing} not in the distribution")
        table = _marginal_table(self.table, _axis_weights(self.vars, keep))
        return Distribution._built(keep, table.reshape((2,) * len(keep)))


class EventRef(NamedTuple("EventRef",
                          [("vertices", tuple[str, ...]), ("values", tuple[int, ...])])):
    """A cylinder event: fixed values on a vertex set.  The vertices and
    values may be any sequences but a str; they are stored as tuples."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], values: tuple[int, ...]) -> "EventRef":
        if isinstance(vertices, str) or isinstance(values, str):
            raise ValueError("event vertices and values are sequences, not a str")
        vertices, values = tuple(vertices), tuple(values)
        if len(vertices) != len(values):
            raise ValueError("vertex/value length mismatch")
        # bool is an int subclass, so True and False are named here
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               or v not in (0, 1) for v in values):
            raise ValueError("values must be the integers 0 or 1")
        for v in vertices:
            if vertices.count(v) > 1:
                raise ValueError(f"vertex {v!r} appears more than once in the event")
        return tuple.__new__(cls, (vertices, values))

    @classmethod
    def single(cls, vertex: str, value: int = 1) -> "EventRef":
        return cls((vertex,), (value,))


# ---------------------------------------------------------------------------
# Model construction


def latent_names(g: MixedGraph) -> dict[tuple[str, str], str]:
    """Deterministic fresh label per bidirected edge (apostrophes avoid
    collisions with existing vertex labels)."""
    taken = set(g.vertices)
    names = {}
    for u, v in g.bidirected:
        name = f"lat({u},{v})"
        while name in taken:
            name += "'"
        taken.add(name)
        names[(u, v)] = name
    return names


def latent_expansion(g: MixedGraph) -> MixedGraph:
    """Replace each bidirected edge {u, v} with a fresh latent parent w -> u,
    w -> v.  DAG inputs come back unchanged.  The latents are the vertices
    of the result that are not in g; a margin sums them out like any other
    vertex it does not keep."""
    if not g.bidirected:
        return g
    names = latent_names(g)
    vertices = list(g.vertices) + list(names.values())
    directed = list(g.directed)
    for (u, v), name in names.items():
        directed.append((name, u))
        directed.append((name, v))
    return graph_mod.build_graph(vertices, directed, ())


def random_cpts(g: MixedGraph, seed: int) -> CptSet:
    """Uniform CPT entries in [0.05, 0.95], deterministic per seed.

    Bounding entries away from 0 and 1 keeps the induced joint strictly
    positive (the finite stand-in for a faithful state).
    """
    if g.bidirected:
        raise ValueError("expand bidirected edges with latent_expansion first")
    rng = np.random.default_rng(seed)
    tables = {}
    for v in g.vertices:
        parents = g.parents_of(v)
        tables[v] = VertexCpt(parents, rng.uniform(0.05, 0.95, size=(2,) * len(parents)))
    return CptSet(tables)


# Joint kernel.  A product that brings in a new last axis expands its factor
# over the last (up to) this many axes of the old table, so the inner loop of
# np.multiply runs over blocks of up to 2^9 atoms instead of 2-element rows.
_FOLD_BLOCK_AXES = 9


def _plan(shape: tuple[int, ...], steps: Iterable[tuple]) -> list[tuple]:
    """The factors of each step in turn for a table of the given shape, made
    before any is multiplied in by _apply: a (kind, shape after the step,
    factors) per step.  A table axis of size 1 is one no factor has reached.

    A step is (axis, parents, halves): the vertex's table axis, its
    parents' axes in ascending order, and its factor for each of its values,
    one array axis per parent.  A vertex fixed at one value has axis None,
    and halves holds only the factor of that value.  A vertex that is new,
    follows every axis of the scope and has its parents in it (every step
    of a topological order, such as diamond labels with coordinates below
    10) "append"s a new last axis, written as its two halves, one
    np.multiply per value, each reading the old table and a factor block
    expanded over its last 9 axes, so the inner loop runs over 2^9 atoms.
    Any other step (a parent outside the scope, which an order that is not
    topological allows: box latents sort after their children) is a
    "broadcast" product, done "in_place" when the scope does not grow.
    """
    plan = []
    for axis, parents, halves in steps:
        scope = [i for i, size in enumerate(shape) if size == 2]
        if axis is None:
            factor, axes = halves[0], parents
        elif set(parents) <= set(scope) and axis > max(scope, default=-1):
            start = max(0, len(scope) - _FOLD_BLOCK_AXES)
            fshape = [2 if a in parents else 1 for a in scope]
            block = fshape[:start] + [2] * (len(scope) - start)
            shape = shape[:axis] + (2,) + shape[axis + 1:]
            plan.append(("append", shape, [np.broadcast_to(half.reshape(fshape), block).copy()
                                           for half in halves]))
            continue
        else:
            factor = np.stack(halves, axis=sum(p < axis for p in parents))
            axes = sorted([axis, *parents])
        factor = factor.reshape([2 if i in axes else 1 for i in range(len(shape))])
        kind = "in_place" if set(axes) <= set(scope) else "broadcast"
        shape = np.broadcast_shapes(shape, factor.shape)
        plan.append((kind, shape, factor))
    return plan


def _apply(table: np.ndarray, plan: list[tuple]) -> np.ndarray:
    """table times the factors of each step of plan, a _plan for its shape."""
    for kind, shape, factors in plan:
        if kind == "append":
            k = factors[0].ndim
            new = np.empty(shape)
            old, out = table.reshape((2,) * k), new.reshape((2,) * (k + 1))
            for value, factor in enumerate(factors):
                np.multiply(old, factor, out=out[..., value])
            table = new
        elif kind == "in_place":
            np.multiply(table, factors, out=table)
        else:
            table = table * factors
    return table


def _tail_plan(steps: list[tuple], fixed: list[int], shape: tuple[int, ...]) -> list[tuple]:
    """_plan of the steps that continue the fold of the group whose leading
    axes take the values fixed from its row of the head, of the given
    shape: each CPT sliced at the group's values of its leading parents, a
    leading vertex's factor taken at its value."""
    lead, tail = len(fixed), []
    for axis, parents, halves in steps:
        at = tuple(fixed[p] if p < lead else slice(None) for p in parents)
        halves = tuple(half[at] for half in halves)
        free = [p - lead for p in parents if p >= lead]
        tail.append((None, free, (halves[fixed[axis]],)) if axis < lead
                    else (axis - lead, free, halves))
    return _plan(shape, tail)


def _cpt_steps(verts: tuple[str, ...], cpts: CptSet) -> list[tuple]:
    """The fold step of each vertex of verts, in that order."""
    pos = {v: i for i, v in enumerate(verts)}
    return [(pos[v], [pos[p] for p in cpts.tables[v].parents],
             (1.0 - cpts.tables[v].p1, cpts.tables[v].p1)) for v in verts]


def _joint_groups(verts: tuple[str, ...], cpts: CptSet,
                  lead: int) -> Iterable[np.ndarray]:
    """The joint over verts, which must be sorted, in C order, one flat
    group at a time: a group is the table over the trailing axes for one
    assignment of the leading lead axes.  With lead 0 the single group is
    the whole joint.

    Every atom is 1.0 * f_1 * f_2 * ... * f_n, multiplied left to right with
    the CPT factors in sorted-vertex order: the bits of np.ones((2,)*n)
    multiplied by each broadcast factor in turn.  The factors are folded
    into a table whose scope grows; a vertex no factor has reached yet is a
    size-1 axis, so step k costs 2^|scope_k| atoms, not 2^n.  The longest
    prefix of the steps whose scope stays within _HEAD_AXES axes is folded
    once into the head, each step planned (_plan) just before it is
    applied; with lead 0 every step is, and the head is the group, so no
    head is held beside the group's last step.  Each group continues the
    fold from a copy of its row of the head (the head at the group's
    values) by a _tail_plan, which depends on the group only through the
    leading axes the tail reads: it is made once per assignment of those
    axes and reused by every group with it, once in all for a tail that
    reads none.  Peak memory is a step's old table plus its new one (1.5
    times the group on a topological order), the head and the factors.
    """
    steps = _cpt_steps(verts, cpts)
    scope: set[int] = set()
    for h, (axis, parents, _halves) in enumerate(steps):
        scope |= {axis, *parents}
        if lead and len(scope) > _HEAD_AXES:
            break
    else:
        h = len(steps)
    head = np.ones((1,) * len(verts))
    for step in steps[:h]:
        head = _apply(head, _plan(head.shape, [step]))
    tail = steps[h:]
    reads = sorted({p for axis, parents, _ in tail for p in (axis, *parents) if p < lead})
    plans: dict[tuple[int, ...], list[tuple]] = {}
    for group in range(2 ** lead):
        fixed = [group >> (lead - 1 - i) & 1 for i in range(lead)]
        key = tuple(fixed[i] for i in reads)
        if key not in plans:
            plans[key] = _tail_plan(tail, fixed, head.shape[lead:])
        # a plan may multiply its table in place, and a later group reads the head
        row = head[tuple(x if size == 2 else 0 for x, size in zip(fixed, head.shape))]
        yield _apply(row.copy() if lead else row, plans[key]).reshape(-1)


def ancestral_closure(dag: MixedGraph, targets: Iterable[str],
                      budget: int = DEFAULT_JOINT_BUDGET) -> frozenset[str]:
    """Inclusive ancestral closure of the targets, the scope of their exact
    margin; BudgetExceeded when it has more than budget vertices."""
    targets = frozenset(targets)
    dag.require(targets)
    closure = relatives(dag, targets, ANCESTORS_INCLUSIVE)
    if len(closure) > budget:
        raise BudgetExceeded(
            f"ancestral closure of {len(closure)} vertices exceeds budget {budget}")
    return closure


def _checked_closure(dag: MixedGraph, cpts: CptSet, targets: Iterable[str],
                     budget: int) -> tuple[str, ...]:
    """The sorted ancestral closure of the targets in a DAG (ValueError on
    bidirected edges; BudgetExceeded above budget vertices), each vertex
    with a CPT (UnknownVertex) that lists exactly its parents in the graph
    (ValueError).  Every exact margin passes this one gate."""
    if dag.bidirected:
        raise ValueError("exact margins need a DAG; expand bidirected edges first")
    verts = tuple(sorted(ancestral_closure(dag, targets, budget)))
    missing = [v for v in verts if v not in cpts.tables]
    if missing:
        raise UnknownVertex(f"no CPT for vertices {missing}")
    for v in verts:
        if cpts.tables[v].parents != dag.parents_of(v):
            raise ValueError(f"CPT of {v!r} lists parents {list(cpts.tables[v].parents)}, "
                             f"the graph gives {list(dag.parents_of(v))}")
    return verts


def _closure_marginal(verts: tuple[str, ...], cpts: CptSet,
                      keep: Iterable[str]) -> Distribution:
    """Exact marginal over keep of the joint of verts, a closure from
    _checked_closure, folded by _joint_groups.  When keep is all of verts
    the joint is the answer, folded as one group (streaming it would be 4-5
    times slower above 16 vertices).  Otherwise the joint comes in groups,
    one when there are at most _BLOCK_AXES vertices, each chained into the
    output by _chain_blocks as one block: every other vertex, latent or
    not, is summed out in that one pass, and scratch memory is a few
    2^16-atom arrays whatever the budget."""
    keep = sorted(keep)
    if len(keep) == len(verts):
        table = next(_joint_groups(verts, cpts, 0))
    else:
        lead = max(0, len(verts) - _BLOCK_AXES)
        table = _chain_blocks(_joint_groups(verts, cpts, lead), _axis_weights(verts, keep))
    return Distribution._built(keep, table.reshape((2,) * len(keep)))


def joint(dag: MixedGraph, cpts: CptSet) -> Distribution:
    """Exact joint of a CPT-parameterized DAG, one axis per vertex.  Sum the
    latents of an expansion out with .marginal(observed vertices)."""
    return ancestral_margin(dag, cpts, dag.vertices)


def ancestral_margin(dag: MixedGraph, cpts: CptSet, targets: Iterable[str],
                     budget: int = DEFAULT_JOINT_BUDGET) -> Distribution:
    """Exact joint of the ancestral closure of the targets, latents
    included.  Vertices outside the closure are barren and never
    enumerated, which keeps large lattice graphs within the budget.  The
    table is the single group of _joint_groups: on a topological order its
    peak memory is 1.5 times the table."""
    verts = _checked_closure(dag, cpts, targets, budget)
    return _closure_marginal(verts, cpts, verts)


def target_marginal(dag: MixedGraph, cpts: CptSet, targets: Iterable[str],
                    budget: int = DEFAULT_JOINT_BUDGET) -> Distribution:
    """Exact marginal over the targets, with the closure checks of
    ancestral_margin and the bits of ancestral_margin(...).marginal(targets).
    Unless the targets are the whole closure, the joint streams: above
    _BLOCK_AXES vertices it never holds the closure's table."""
    targets = frozenset(targets)
    return _closure_marginal(_checked_closure(dag, cpts, targets, budget), cpts, targets)


# ---------------------------------------------------------------------------
# Conditional independence


def ci_details(d: Distribution, a: EventRef, b: EventRef,
               cond: Iterable[str]) -> tuple[float, int]:
    """Max over positive-probability atoms of |p(AB|c) - p(A|c) p(B|c)|,
    plus the number of atoms checked."""
    cond = sorted(set(label_iterable(cond, "conditioning set")))
    a_set, b_set, c_set = set(a.vertices), set(b.vertices), set(cond)
    if a_set & b_set or a_set & c_set or b_set & c_set:
        raise DisjointnessViolation("event and conditioning sets overlap")
    m = d.marginal(a_set | b_set | c_set)
    names = m.vars
    perm = ([names.index(v) for v in a.vertices]
            + [names.index(v) for v in b.vertices]
            + [names.index(v) for v in cond])
    t = np.transpose(m.table, perm)
    na, nb = len(a.vertices), len(b.vertices)
    p_abc = t[a.values][b.values]
    p_ac = t[a.values].sum(axis=tuple(range(nb)))
    t_no_a = t.sum(axis=tuple(range(na)))
    p_bc = t_no_a[b.values]
    p_c = t_no_a.sum(axis=tuple(range(nb)))
    p_abc, p_ac, p_bc, p_c = (np.atleast_1d(x) for x in (p_abc, p_ac, p_bc, p_c))
    mask = p_c > 0.0
    diff = np.abs(p_abc[mask] / p_c[mask] - (p_ac[mask] / p_c[mask]) * (p_bc[mask] / p_c[mask]))
    return float(diff.max()), int(mask.sum())


def ci_violation(d: Distribution, a: EventRef, b: EventRef,
                 cond: Iterable[str]) -> float:
    """The max violation of ci_details, without the atom count."""
    return ci_details(d, a, b, cond)[0]


# ---------------------------------------------------------------------------
# Causal Markov Condition


class CmcReport(NamedTuple):
    checked: int
    violations: list[tuple[str, str, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_cmc(d: Distribution, dag: MixedGraph, tol: float = 1e-9) -> CmcReport:
    """Verify that every vertex is independent of each non-descendant given
    its parents.  Parents themselves are skipped: conditioning already fixes
    them, so the identity is vacuous there."""
    if dag.bidirected:
        raise ValueError("check_cmc needs a DAG; expand bidirected edges first")
    missing = [v for v in dag.vertices if v not in d.vars]
    if missing:
        raise UnknownVertex(f"distribution lacks variables {missing}")
    checked, violations = 0, []
    for a in dag.vertices:
        pars = frozenset(dag.parents_of(a))
        des = relatives(dag, (a,), DESCENDANTS)
        for b in dag.vertices:
            if b == a or b in des or b in pars:
                continue
            viol = ci_violation(d, EventRef.single(a), EventRef.single(b), pars)
            checked += 1
            if viol > tol:
                violations.append((a, b, viol))
    return CmcReport(checked, violations)


# ---------------------------------------------------------------------------
# Local causality (screening-off over shielder-off regions)


class ScreeningCheck(NamedTuple):
    pair: tuple[str, str]
    region: tuple[str, ...]
    atoms: int
    violation: float
    passed: bool


class LocalCausalityReport(NamedTuple):
    """Screening-off audit of one probe pair: the pair's unconditioned
    correlation gap and one check per shielder-off region."""

    a: str
    b: str
    correlated: bool
    correlation_gap: float
    checks: list[ScreeningCheck]

    @property
    def regions_checked(self) -> int:
        return len(self.checks)

    @property
    def atoms_checked(self) -> int:
        return sum(c.atoms for c in self.checks)

    @property
    def max_violation(self) -> float:
        return max((c.violation for c in self.checks), default=0.0)

    @property
    def failures(self) -> list[ScreeningCheck]:
        return [c for c in self.checks if not c.passed]

    @property
    def locally_causal(self) -> bool:
        return not self.failures


def is_locally_causal(kind: str, window: lattice_mod.Window, cpts: CptSet,
                      variant: str, tol: float = 1e-9,
                      max_cells: int | None = None) -> LocalCausalityReport:
    """Screening-off audit of the canonical spacelike probe pair: for every
    enumerated shielder-off region and every positive-probability atom of
    it, check that conditioning factorizes the pair.  The margin is over
    the observed vertices of the pair's ancestral closure, latents summed
    out as it streams (see _closure_marginal)."""
    g = lattice_mod.build_graph(kind, window)
    dag = latent_expansion(g)
    cell_a, cell_b = lattice_mod.canonical_probe_pair(kind, window)
    a, b = cell_a.label, cell_b.label
    verts = _checked_closure(dag, cpts, (a, b), DEFAULT_JOINT_BUDGET)
    margin = _closure_marginal(verts, cpts, [v for v in verts if v in g])
    ev_a, ev_b = EventRef.single(a), EventRef.single(b)
    gap = ci_violation(margin, ev_a, ev_b, ())
    checks = []
    for labels, l1, l2, l3 in lattice_mod.shielding_sweep(
            cell_a, cell_b, window, variant, max_cells):
        if not (l1 and l2 and l3):
            continue
        # L1 cells lie in A's causal past, so in the window they are graph
        # ancestors of a, all in the margin; else ci_details raises UnknownVertex
        viol, atoms = ci_details(margin, ev_a, ev_b, labels)
        checks.append(ScreeningCheck((a, b), labels, atoms, viol, viol <= tol))
    return LocalCausalityReport(a, b, gap > tol, gap, checks)


# ---------------------------------------------------------------------------
# Dependence witness search


def _expanded_witness_walk(g: MixedGraph, path) -> list[str]:
    """Map a mixed-graph witness path to the latent-expanded vertex sequence."""
    names = latent_names(g)
    verts = [path.vertices[0]]
    for u, kind, v in zip(path.vertices, path.edges, path.vertices[1:]):
        if kind == BIDIR:
            pair = (u, v) if u <= v else (v, u)
            verts.append(names[pair])
        verts.append(v)
    return verts


def _channel_tables(dag: MixedGraph, assignment: dict) -> dict[str, np.ndarray]:
    """Base CPT arrays realizing copy / xor channels at strength 0.95."""
    tables = {}
    for v in dag.vertices:
        parents = dag.parents_of(v)
        shape = (2,) * len(parents)
        plan = assignment.get(v)
        if plan is None:
            tables[v] = np.full(shape, 0.5)
            continue
        grids = np.indices(shape) if parents else None
        if plan[0] == "copy":
            bit = grids[parents.index(plan[1])]
            tables[v] = np.where(bit == 1, 0.95, 0.05)
        else:  # xor of two path parents: maximal explaining-away at a collider
            b1 = grids[parents.index(plan[1])]
            b2 = grids[parents.index(plan[2])]
            tables[v] = np.where(b1 != b2, 0.95, 0.05)
    return tables


def _aligned_assignment(g: MixedGraph, dag: MixedGraph, cond: frozenset[str],
                        path) -> dict:
    """Channel plan that routes strong dependence along the witness path.

    Chain vertices copy their path parent, colliders xor their two path
    parents, forks stay free; colliders activated through a descendant get
    a copy chain down to the conditioning set.
    """
    walk = _expanded_witness_walk(g, path)
    path_parents: dict[str, list[str]] = {v: [] for v in walk}
    for x, y in zip(walk, walk[1:]):
        if dag.has_directed(x, y):
            path_parents[y].append(x)
        else:
            path_parents[x].append(y)

    assignment: dict = {}
    colliders = []
    for v in walk:
        pps = path_parents[v]
        if len(pps) == 2:
            assignment[v] = ("xor", pps[0], pps[1])
            colliders.append(v)
        elif len(pps) == 1:
            assignment[v] = ("copy", pps[0])

    for v in colliders:
        if v in cond:
            continue
        # shortest child chain from the collider into the conditioning set
        prev: dict[str, str | None] = {v: None}
        queue = deque([v])
        hit = None
        while queue and hit is None:
            x = queue.popleft()
            for ch in dag.children_of(x):
                if ch in prev:
                    continue
                prev[ch] = x
                if ch in cond:
                    hit = ch
                    break
                queue.append(ch)
        chain = []
        while hit is not None:
            chain.append(hit)
            hit = prev[hit]
        for child, parent in zip(chain, chain[1:]):
            assignment.setdefault(child, ("copy", parent))
    return assignment


def find_dependence_witness(g: MixedGraph, a: str, b: str, cond: Iterable[str],
                            attempts: int, threshold: float,
                            seed: int) -> tuple[CptSet, float] | None:
    """Search for CPTs whose joint violates screening-off by more than
    threshold on some atom of cond; return them with that violation (the
    ci_violation of their margin on {a, b} | cond), or None.

    Refuses separating conditioning sets (soundness makes success
    impossible).  The restarts alternate between the path-aligned channel
    plan (with growing jitter) and uniform redraws, so the first success is
    deterministic in (seed, attempts).
    """
    cond = frozenset(cond)
    verdict = is_separated(g, SeparationQuery(a, b, cond))
    if verdict.separated:
        raise SeparatedInput(f"{a!r} and {b!r} are separated by the given set")

    dag = latent_expansion(g)
    base = _channel_tables(dag, _aligned_assignment(g, dag, cond, verdict.witness))
    ev_a, ev_b = EventRef.single(a), EventRef.single(b)

    for k in range(attempts):
        rng = np.random.default_rng([seed, k])
        tables = {}
        for v in dag.vertices:
            shape = (2,) * len(dag.parents_of(v))
            if k % 4 == 3:
                arr = rng.uniform(0.05, 0.95, size=shape)
            else:
                amp = 0.0 if k == 0 else 0.1 + 0.2 * ((k % 4) / 3.0)
                arr = np.clip(base[v] + rng.uniform(-amp, amp, size=shape), 0.05, 0.95)
            tables[v] = VertexCpt(dag.parents_of(v), arr)
        cpts = CptSet(tables)
        margin = target_marginal(dag, cpts, {a, b} | cond)
        gap = ci_violation(margin, ev_a, ev_b, sorted(cond))
        if gap > threshold:
            return cpts, gap
    return None
