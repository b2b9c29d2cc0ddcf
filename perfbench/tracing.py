"""Span recorder and per-layer report for traced benchmark runs.

Tracing is installed from outside the program: each traced function is
replaced, in every ``seplat`` module namespace that holds it, by a wrapper
that records a span (name, start, end, parent span) and updates counters at
the same boundary.  ``Installation.undo`` puts the original functions back,
and an untraced run installs nothing, so it executes the program as shipped.

Span names carry their layer as a prefix (``lattice.``, ``separation.``,
``markov.``, ``graph.``, ``cli.``).  A span's self time is its duration minus
the durations of its child spans; since spans nest, the self times of one
repetition add up to the time covered by its root spans.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("lattice", "separation", "markov", "graph", "cli")


class Tracer:
    """In-memory span list plus counters, grouped by repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.reps: list[int] = []
        self._stack = [-1]
        self.rep = -1
        self._rep_first = 0
        self.rep_bounds: dict[int, tuple[int, int]] = {}
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.maxima: dict[int, Counter] = defaultdict(Counter)
        # id of a live margin -> index of the margin; read by the CI hooks
        self.margins: dict[int, int] = {}
        self.used_margins: set[int] = set()

    def begin_rep(self, rep: int) -> None:
        self.rep = rep
        self._rep_first = len(self.names)

    def end_rep(self) -> None:
        self.rep_bounds[self.rep] = (self._rep_first, len(self.names))
        self.rep = -1

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.reps.append(self.rep)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.rep][key] += n

    def maximum(self, key: str, value: float) -> None:
        box = self.maxima[self.rep]
        box[key] = max(box[key], value)

    def write(self, path) -> None:
        """Write every span as CSV (gzip), one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,rep,name,start,end,parent\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{self.reps[sid]},{name},{self.starts[sid]:.9f},"
                         f"{self.ends[sid]:.9f},{self.parents[sid]}\n")

    def rep_summary(self, rep: int) -> tuple[dict, dict, float]:
        """(inclusive seconds by span name, self seconds by span name,
        root-span seconds) for one repetition."""
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        roots = 0.0
        child = defaultdict(float)
        first, stop = self.rep_bounds[rep]
        ids = range(first, stop)
        for sid in ids:
            dur = self.ends[sid] - self.starts[sid]
            parent = self.parents[sid]
            if parent >= first:
                child[parent] += dur
            else:
                roots += dur
        for sid in ids:
            dur = self.ends[sid] - self.starts[sid]
            name = self.names[sid]
            incl[name] += dur
            self_s[name] += dur - child[sid]
        return incl, self_s, roots


def _wrap(tracer: Tracer, name: str, fn, after=None, on_error=None):
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid)
            if on_error is not None:
                on_error(exc)
            raise
        tracer.close(sid)
        if after is not None:
            after(sid, result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, on_item):
    """Time each next() of a generator as its own span."""

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(sid)
                return
            except BaseException:
                tracer.close(sid)
                raise
            tracer.close(sid)
            on_item(item)
            yield item

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Installation:
    """Wrappers installed into seplat's module namespaces; undo() restores."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, module_name: str, attr: str, make, everywhere: bool = True) -> None:
        """Replace module_name.attr by make(original) in that module and,
        when everywhere, in every loaded seplat module bound to the same
        function object.  Missing attributes are skipped."""
        home = sys.modules.get(module_name)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            return
        wrapped = make(original)
        targets = [home]
        if everywhere:
            targets = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "seplat" or n.startswith("seplat."))]
        for mod in targets:
            if getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def undo(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the public calls of every layer the workloads reach."""
    from seplat.errors import BudgetExceeded
    from seplat.graph import ANCESTORS_INCLUSIVE, relatives

    inst = Installation()
    w = lambda name, after=None, on_error=None: (  # noqa: E731
        lambda fn: _wrap(tracer, name, fn, after, on_error))

    # lattice
    def verdict_hook(key):
        return lambda sid, result, a, k: tracer.count(key, bool(result))

    def on_candidate(item):
        _region, verdict = item
        tracer.count("lattice.candidates")
        tracer.count("lattice.shielder_off", bool(verdict.shielder_off))

    inst.patch("seplat.lattice", "prop1_sweep", w("lattice.prop1_sweep"))
    inst.patch("seplat.lattice", "enumerate_shielder_off",
               lambda fn: _wrap_generator(tracer, "lattice.enumerate", fn, on_candidate))
    inst.patch("seplat.lattice", "l1_past", w("lattice.l1_past", verdict_hook("lattice.l1_pass")))
    inst.patch("seplat.lattice", "l2_shields",
               w("lattice.l2_shields", verdict_hook("lattice.l2_pass")))
    inst.patch("seplat.lattice", "l3_region",
               w("lattice.l3_region", verdict_hook("lattice.l3_pass")))

    # separation: the verdict decides which bucket the span's time goes to
    def separation_hook(sid, verdict, a, k):
        tracer.count("separation.calls")
        if verdict.separated:
            tracer.names[sid] = "separation.separated"
            tracer.count("separation.separated_calls")
        else:
            tracer.names[sid] = "separation.connected"
            tracer.count("separation.connected_calls")
            if verdict.witness is not None:
                tracer.count("separation.witness_edges", len(verdict.witness.edges))

    inst.patch("seplat.separation", "is_separated", w("separation.is_separated", separation_hook))
    # only the separation module's own binding: closure work on the query path
    inst.patch("seplat.separation", "relatives", w("separation.closure"), everywhere=False)

    # markov
    def margin_hook(sid, margin, args, kwargs):
        dag = args[0] if args else kwargs["dag"]
        targets = args[2] if len(args) > 2 else kwargs["targets"]
        n_vars = len(relatives(dag, frozenset(targets), ANCESTORS_INCLUSIVE))
        tracer.count("markov.margin_calls")
        tracer.count("markov.margins_built")
        tracer.count("markov.margin_bytes_computed", 8 * 2 ** n_vars)
        tracer.maximum("markov.margin_vars_max", n_vars)
        tracer.margins[id(margin)] = sid

    def margin_error(exc):
        tracer.count("markov.margin_calls")
        if isinstance(exc, BudgetExceeded):
            tracer.count("markov.budget_skips")

    def ci_hook(sid, result, args, kwargs):
        tracer.count("markov.ci_calls")
        margin_sid = tracer.margins.get(id(args[0] if args else kwargs["d"]))
        if margin_sid is not None and margin_sid not in tracer.used_margins:
            tracer.used_margins.add(margin_sid)
            tracer.count("markov.margins_used")

    inst.patch("seplat.markov", "random_cpts", w("markov.random_cpts"))
    inst.patch("seplat.markov", "latent_expansion", w("markov.latent_expansion"))
    inst.patch("seplat.markov", "ancestral_margin",
               w("markov.ancestral_margin", margin_hook, margin_error))
    inst.patch("seplat.markov", "ci_violation", w("markov.ci", ci_hook))
    inst.patch("seplat.markov", "ci_details", w("markov.ci", ci_hook))

    # graph
    def build_hook(sid, g, a, k):
        tracer.maximum("graph.vertices", len(g.vertices))
        tracer.maximum("graph.edges", len(g.directed) + len(g.bidirected))

    inst.patch("seplat.graph", "build_graph", w("graph.build_graph", build_hook))
    inst.patch("seplat.graph", "graph_from_json_dict", w("graph.from_json"))

    # cli: the document loader is private; it is traced when it exists
    inst.patch("seplat.cli", "_load_graph", w("cli.load"))
    inst.patch("seplat.cli", "main", w("cli.main"))
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_metrics(tracer: Tracer, rep: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition that took `wall` seconds."""
    incl, self_s, roots = tracer.rep_summary(rep)
    c = tracer.counts[rep]
    mx = tracer.maxima[rep]
    layer_self = {layer: sum(v for n, v in self_s.items() if n.startswith(layer + "."))
                  for layer in LAYERS}
    out = {
        "lattice.l1_s": incl["lattice.l1_past"],
        "lattice.l2_s": incl["lattice.l2_shields"],
        "lattice.l3_s": incl["lattice.l3_region"],
        "lattice.enum_self_s": self_s["lattice.enumerate"],
        "lattice.sweep_self_s": self_s["lattice.prop1_sweep"],
        "lattice.candidates": c["lattice.candidates"],
        "lattice.l1_pass": c["lattice.l1_pass"],
        "lattice.l2_pass": c["lattice.l2_pass"],
        "lattice.l3_pass": c["lattice.l3_pass"],
        "lattice.shielder_off": c["lattice.shielder_off"],
        "lattice.l1_pass_ratio": _ratio(c["lattice.l1_pass"], c["lattice.candidates"]),
        "separation.calls": c["separation.calls"],
        "separation.connected_calls": c["separation.connected_calls"],
        "separation.separated_calls": c["separation.separated_calls"],
        "separation.connected_s": self_s["separation.connected"],
        "separation.separated_s": self_s["separation.separated"],
        "separation.closure_s": incl["separation.closure"],
        "separation.witness_edges_mean": _ratio(c["separation.witness_edges"],
                                                c["separation.connected_calls"]),
        "markov.ci_s": incl["markov.ci"],
        "markov.ci_calls": c["markov.ci_calls"],
        "markov.ci_us_per_call": 1e6 * _ratio(incl["markov.ci"], c["markov.ci_calls"]),
        "markov.margin_s": incl["markov.ancestral_margin"],
        "markov.margin_calls": c["markov.margin_calls"],
        "markov.margin_vars_max": mx["markov.margin_vars_max"],
        "markov.margin_bytes_computed": c["markov.margin_bytes_computed"],
        "markov.budget_skips": c["markov.budget_skips"],
        "markov.margin_useful_ratio": _ratio(c["markov.margins_used"],
                                             c["markov.margins_built"]),
        "markov.cpts_s": incl["markov.random_cpts"],
        "graph.build_s": incl["graph.build_graph"],
        "graph.vertices": mx["graph.vertices"],
        "graph.edges": mx["graph.edges"],
        "cli.load_s": incl["cli.load"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.coverage"] = _ratio(roots, wall)
    out["trace.wall_s"] = wall
    return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
