"""Exact finite probabilistic semantics over mixed graphs.

Binary variables, one per vertex.  Bidirected edges get a canonical latent
model: one fresh binary parent per edge.  Joints are exact tensor products
of conditional probability tables (no sampling), so separation soundness
checks can assert violations at 1e-9.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import graph as graph_mod
from . import lattice as lattice_mod
from .errors import (
    BudgetExceeded,
    DisjointnessViolation,
    SeparatedInput,
    UnknownVertex,
)
from .graph import ANCESTORS_INCLUSIVE, BIDIR, DESCENDANTS, MixedGraph, relatives
from .separation import SeparationQuery, is_separated

DEFAULT_JOINT_BUDGET = 22


# ---------------------------------------------------------------------------
# CPTs and distributions


@dataclass(frozen=True)
class VertexCpt:
    """P(v = 1 | parents); p1 has one axis per parent in sorted label order."""

    parents: tuple[str, ...]
    p1: np.ndarray

    def __post_init__(self) -> None:
        if list(self.parents) != sorted(set(self.parents)):
            raise ValueError(f"parents {self.parents} are not distinct and sorted")
        expected = (2,) * len(self.parents)
        if tuple(self.p1.shape) != expected:
            raise ValueError(f"p1 shape {self.p1.shape} != {expected}")
        # written so that NaN, which fails every comparison, is rejected too
        if not np.all((self.p1 >= 0.0) & (self.p1 <= 1.0)):
            raise ValueError("CPT entries must be finite and lie in [0, 1]")


def _bit_keys(k: int) -> list[str]:
    """The 2^k bit strings of length k, in the C order of a k-axis table."""
    return [format(idx, f"0{k}b") if k else "" for idx in range(2 ** k)]


@dataclass
class CptSet:
    """Conditional probability tables for every vertex of a DAG."""

    tables: dict[str, VertexCpt] = field(default_factory=dict)

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
                      for row in range(2 ** _LUT_AXES)], dtype=np.intp)
_BLOCK_AXES = 16


def _atom_bins(weights: list[int]) -> np.ndarray:
    """Output bin of every atom of a table whose axis i adds weights[i]."""
    bins = np.zeros(1, dtype=np.intp)
    for start in range(0, len(weights), _LUT_AXES):
        chunk = np.array(weights[start:start + _LUT_AXES], dtype=np.intp)
        lut = _LUT_BITS[:2 ** len(chunk), _LUT_AXES - len(chunk):] @ chunk
        bins = np.add.outer(bins, lut).ravel()
    return bins


def _marginal_table(table: np.ndarray, weights: list[int]) -> np.ndarray:
    """Flat marginal of table: weights[i] is the output-index weight of axis
    i, a distinct power of two for a kept axis and 0 for a dropped one.

    Every output atom adds its input atoms left to right in C order,
    starting from 0.0, which is what table.sum(axis=dropped) does whenever
    the last axis is kept, so the two agree bit for bit there.  One
    np.bincount does the additions.  Tables above 2^16 atoms go block by
    block: the bins of a block's output atoms are prefixed with their
    partial sums, and since 0.0 + s == s each addition chain continues
    exactly.  Scratch memory is a few 2^16-entry arrays whatever the size.
    """
    flat = table.reshape(-1)
    size = 2 ** sum(1 for w in weights if w)
    low = len(weights) - _BLOCK_AXES
    if low <= 0:
        return np.bincount(_atom_bins(weights), flat, minlength=size)
    # A block fixes the leading axes; its output atoms are offset + out_bins.
    kept = sorted((w for w in weights[low:] if w), reverse=True)
    local = {w: 2 ** (len(kept) - 1 - r) for r, w in enumerate(kept)}
    n_local = 2 ** len(kept)
    bins = np.concatenate([np.arange(n_local),
                           _atom_bins([local.get(w, 0) for w in weights[low:]])])
    out_bins = _atom_bins(kept)
    out = np.zeros(size)
    scratch = np.empty(len(bins))
    offsets = _atom_bins(weights[:low])
    for offset, block in zip(offsets, flat.reshape(len(offsets), -1)):
        idx = out_bins + offset
        np.take(out, idx, out=scratch[:n_local])
        scratch[n_local:] = block
        out[idx] = np.bincount(bins, scratch, minlength=n_local)
    return out


class Distribution:
    """Exact joint over binary variables, stored as a dense tensor with one
    axis per variable, in the order given (any order).

    Marginals come back with their variables in sorted order.  Each output
    atom adds its input atoms left to right in the table's C order, and the
    scratch memory of a marginal is bounded at 2^16 atoms per block (see
    _marginal_table).
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

    def prob(self, assignment: Mapping[str, int]) -> float:
        idx = tuple(int(assignment[v]) for v in self.vars)
        return float(self.table[idx])

    def marginal(self, names: Iterable[str]) -> "Distribution":
        keep = sorted(set(names))
        missing = [n for n in keep if n not in self.vars]
        if missing:
            raise UnknownVertex(f"variables {missing} not in the distribution")
        if tuple(keep) == self.vars:
            return self
        rank = {v: r for r, v in enumerate(keep)}
        weights = [2 ** (len(keep) - 1 - rank[v]) if v in rank else 0 for v in self.vars]
        table = _marginal_table(self.table, weights)
        return Distribution(keep, table.reshape((2,) * len(keep)))


@dataclass(frozen=True)
class EventRef:
    """A cylinder event: fixed values on a vertex set."""

    vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.values):
            raise ValueError("vertex/value length mismatch")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be 0 or 1")

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


def latent_expansion(g: MixedGraph) -> tuple[MixedGraph, frozenset[str]]:
    """Replace each bidirected edge {u, v} with a fresh latent parent w -> u,
    w -> v.  DAG inputs come back unchanged."""
    if not g.bidirected:
        return g, frozenset()
    names = latent_names(g)
    vertices = list(g.vertices) + list(names.values())
    directed = list(g.directed)
    for (u, v), name in names.items():
        directed.append((name, u))
        directed.append((name, v))
    dag = graph_mod.build_graph(vertices, directed, ())
    return dag, frozenset(names.values())


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


def _tensor_joint(verts: tuple[str, ...], cpts: CptSet) -> np.ndarray:
    missing = [v for v in verts if v not in cpts.tables]
    if missing:
        raise UnknownVertex(f"no CPT for vertices {missing}")
    pos = {v: i for i, v in enumerate(verts)}
    table = np.ones((2,) * len(verts))
    for v in verts:
        cpt = cpts.tables[v]
        for p in cpt.parents:
            if p not in pos:
                raise UnknownVertex(f"CPT parent {p!r} outside the joint scope")
        fvars = sorted((v,) + cpt.parents)
        stack_axis = fvars.index(v)
        factor = np.stack([1.0 - cpt.p1, cpt.p1], axis=stack_axis)
        shape = tuple(2 if name in fvars else 1 for name in verts)
        table = table * factor.reshape(shape)
    return table


def joint(dag: MixedGraph, cpts: CptSet, latent: Iterable[str] = ()) -> Distribution:
    """Exact joint of a CPT-parameterized DAG; latent vertices are summed out
    of the returned distribution."""
    if dag.bidirected:
        raise ValueError("joint needs a DAG; expand bidirected edges first")
    return ancestral_margin(dag, cpts, dag.vertices, latent)


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


def ancestral_margin(dag: MixedGraph, cpts: CptSet, targets: Iterable[str],
                     latent: Iterable[str] = (),
                     budget: int = DEFAULT_JOINT_BUDGET) -> Distribution:
    """Exact marginal over the observed part of the ancestral closure of the
    targets.  Vertices outside the closure are barren and never enumerated,
    which keeps large lattice graphs within the budget."""
    closure = ancestral_closure(dag, targets, budget)
    verts = tuple(sorted(closure))
    table = _tensor_joint(verts, cpts)
    latent = frozenset(latent) & closure
    if latent:
        drop = tuple(i for i, v in enumerate(verts) if v in latent)
        table = table.sum(axis=drop)
    observed = tuple(v for v in verts if v not in latent)
    return Distribution(observed, table)


# ---------------------------------------------------------------------------
# Conditional independence


def _ci(d: Distribution, a: EventRef, b: EventRef,
        cond: Iterable[str]) -> tuple[float, int]:
    """Max over positive-probability atoms of |p(AB|c) - p(A|c) p(B|c)|,
    plus the number of atoms checked."""
    cond = sorted(set(cond))
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
    if not np.any(mask):
        return 0.0, 0
    diff = np.abs(p_abc[mask] / p_c[mask] - (p_ac[mask] / p_c[mask]) * (p_bc[mask] / p_c[mask]))
    return float(diff.max()), int(mask.sum())


def ci_violation(d: Distribution, a: EventRef, b: EventRef,
                 cond: Iterable[str]) -> float:
    return _ci(d, a, b, cond)[0]


def ci_details(d: Distribution, a: EventRef, b: EventRef,
               cond: Iterable[str]) -> tuple[float, int]:
    """(max violation, number of positive-probability atoms checked)."""
    return _ci(d, a, b, cond)


# ---------------------------------------------------------------------------
# Causal Markov Condition


@dataclass
class CmcReport:
    checked: int = 0
    violations: list[tuple[str, str, float]] = field(default_factory=list)

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
    report = CmcReport()
    for a in dag.vertices:
        pars = frozenset(dag.parents_of(a))
        des = relatives(dag, (a,), DESCENDANTS)
        for b in dag.vertices:
            if b == a or b in des or b in pars:
                continue
            viol = ci_violation(d, EventRef.single(a), EventRef.single(b), pars)
            report.checked += 1
            if viol > tol:
                report.violations.append((a, b, viol))
    return report


# ---------------------------------------------------------------------------
# Local causality (screening-off over shielder-off regions)


@dataclass(frozen=True)
class ScreeningCheck:
    pair: tuple[str, str]
    region: tuple[str, ...]
    atoms: int
    violation: float
    passed: bool


@dataclass
class ProbeReport:
    a: str
    b: str
    correlated: bool
    correlation_gap: float
    checks: list[ScreeningCheck] = field(default_factory=list)

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


@dataclass
class LocalCausalityReport:
    variant: str
    probes: list[ProbeReport] = field(default_factory=list)

    @property
    def failures(self) -> list[ScreeningCheck]:
        return [f for p in self.probes for f in p.failures]

    @property
    def locally_causal(self) -> bool:
        return not self.failures


def is_locally_causal(kind: str, window: lattice_mod.Window, cpts: CptSet,
                      variant: str, tol: float = 1e-9,
                      probes: Iterable[tuple[lattice_mod.Cell, lattice_mod.Cell]] | None = None,
                      max_cells: int | None = None) -> LocalCausalityReport:
    """Screening-off audit: for each spacelike probe pair, every enumerated
    shielder-off region and every positive-probability atom of it, check
    that conditioning factorizes the pair."""
    g = lattice_mod.build_graph(kind, window)
    dag, latent = latent_expansion(g)
    missing = [v for v in dag.vertices if v not in cpts.tables]
    if missing:
        raise UnknownVertex(f"no CPT for vertices {missing}")
    if probes is None:
        probes = [lattice_mod.canonical_probe_pair(kind, window)]

    report = LocalCausalityReport(variant)
    for cell_a, cell_b in probes:
        a, b = cell_a.label, cell_b.label
        dag.require((a, b))
        margin = ancestral_margin(dag, cpts, (a, b), latent)
        ev_a, ev_b = EventRef.single(a), EventRef.single(b)
        gap = ci_violation(margin, ev_a, ev_b, ())
        probe = ProbeReport(a, b, correlated=gap > tol, correlation_gap=gap)
        for region, verdict in lattice_mod.enumerate_shielder_off(
                cell_a, cell_b, window, variant, max_cells):
            if not verdict.shielder_off:
                continue
            labels = region.labels()
            if all(v in margin.vars for v in labels):
                dist = margin
            else:
                dist = ancestral_margin(dag, cpts, (a, b) + labels, latent)
            viol, atoms = _ci(dist, ev_a, ev_b, labels)
            probe.checks.append(ScreeningCheck((a, b), labels, atoms, viol,
                                               viol <= tol))
        report.probes.append(probe)
    return report


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
                            attempts: int, threshold: float, seed: int) -> CptSet | None:
    """Search for CPTs whose joint violates screening-off by more than
    threshold on some atom of cond.

    Refuses separating conditioning sets (soundness makes success
    impossible).  The restarts alternate between the path-aligned channel
    plan (with growing jitter) and uniform redraws, so the first success is
    deterministic in (seed, attempts).
    """
    cond = frozenset(cond)
    verdict = is_separated(g, SeparationQuery(a, b, cond))
    if verdict.separated:
        raise SeparatedInput(f"{a!r} and {b!r} are separated by the given set")

    dag, latent = latent_expansion(g)
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
        margin = ancestral_margin(dag, cpts, {a, b} | cond, latent)
        if ci_violation(margin, ev_a, ev_b, sorted(cond)) > threshold:
            return cpts
    return None
