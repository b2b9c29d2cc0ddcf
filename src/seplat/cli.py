"""seplat command line: lattice generation, separation queries, shielder-off
checks, sweep verification, Monte-Carlo experiments, DOT/JSON export.

Exit codes: 0 = verdict true / success, 1 = verdict false, 2 = usage error,
3 = internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from . import lattice as lat
from .errors import BudgetExceeded, SeparatedInput, SeplatError
from .graph import (
    MixedGraph,
    build_graph,
    format_path,
    graph_to_json_dict,
    read_graph_document,
    split_labels,
)
from .separation import (
    DecidedQuery,
    SeparationQuery,
    is_separated,
    is_separated_oracle,
    minimal_separator,
)

if TYPE_CHECKING:  # seplat.markov, and numpy, load in the mc handlers only
    from .markov import ScreeningCheck

CSV_HEADER = ["candidate_set", "l1", "l2", "l3", "shielder_off", "separated", "witness"]
MC_CSV_HEADER = ["query", "atoms_checked", "max_violation", "verdict"]
_BOOL_TEXT = ("false", "true")  # a report's boolean column, indexed by the bool
# window bounds of `lattice gen`: diamond imin..jmax, box kmin..mmax
_BOUND_NAMES = sum((g.window_keys for g in lat._KINDS.values()), ())


def write_report(path, header: list[str], rows) -> None:
    """Write a ';'-separated CSV report: one header line, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(header)
        writer.writerows(rows)


class _Echo:
    """A file for csv.writer whose write returns the text, so writerow
    returns the encoded line."""

    def write(self, text: str) -> str:
        return text


def write_sweep_report(path, report: lat.Prop1Report) -> None:
    """Write a sweep report: CSV_HEADER, then one line per candidate, 4,096
    lines per write: its "+"-joined labels and its verdict tail (l1 to
    witness), with the verdict lat.is_separated returns for its
    DecidedQuery, each distinct tail encoded once by csv.writer.  csv leaves
    a "+"-join of lattice labels as it is; a pool label that it would quote
    is a ValueError, raised before the file is opened.
    """
    encode = csv.writer(_Echo(), delimiter=";").writerow
    for label in report.labels:
        if encode([label, ""]) != label + ";\r\n":
            raise ValueError(f"sweep label {label!r} would need quoting in a report")
    g, a, b, table = report.graph, report.a, report.b, report.table
    separated = lat.is_separated
    witness_text = cache(lambda witness: "-" if witness is None else format_path(witness))
    tails: dict[tuple, str] = {}
    rows = zip(report.candidates(), report.geometry, report.verdicts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(encode(CSV_HEADER))
        for _ in range(0, report.total, 4096):
            lines = []
            for region, code, v in islice(rows, 4096):
                verdict = separated(g, tuple.__new__(DecidedQuery, (a, b, region, table[v])))
                tail = tails.get((code, verdict))
                if tail is None:
                    tail = tails[code, verdict] = encode(
                        ["", *(_BOOL_TEXT[not code & m] for m in (1, 2, 4, 7)),
                         _BOOL_TEXT[verdict.separated], witness_text(verdict.witness)])
                lines.append("+".join(region) + tail)
            fh.writelines(lines)


def mc_query(a: str, b: str, cond: Sequence[str]) -> str:
    """The query column of an MC report: a_|_b|c1+c2+..."""
    return f"{a}_|_{b}|{'+'.join(cond)}"


def mc_csv_row(c: ScreeningCheck) -> list:
    """One CI-checked MC report line, in MC_CSV_HEADER order."""
    return [mc_query(*c.pair, c.region), c.atoms, f"{c.violation:.3e}",
            "ci" if c.passed else "violation"]


def _emit(payload: dict, file=None) -> None:
    print(json.dumps(payload, sort_keys=True), file=file)


def _write_out(out: str | None, text: str) -> None:
    """Write the text to the --out file if one is given, else to stdout,
    where it must be all of the output: a summary then goes to stderr."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def document_text(doc: dict) -> str:
    """The text of a JSON document file: sorted keys, indent 2, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_document_text(g: MixedGraph, kind: str = "abstract",
                        window: dict | None = None) -> str:
    return document_text(graph_to_json_dict(g, kind, window))


def _dot_id(label: str) -> str:
    """A DOT quoted ID: backslash and double quote escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_text(g: MixedGraph) -> str:
    lines = ["digraph G {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for u, v in g.directed:
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)};")
    for u, v in g.bidirected:
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_graph(path: str) -> tuple[MixedGraph, str, lat.Window | None]:
    """The document's graph, kind and window.  A lattice document is checked
    against the graph of its window, which is the one graph built."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    vertices, directed, bidirected, kind, wdict = read_graph_document(doc)
    if not wdict or kind == "abstract":
        return build_graph(vertices, directed, bidirected), kind, None
    window = lat.window_from_dict(kind, wdict)
    g = lat.build_graph(kind, window)
    if (sorted(vertices) != list(g.vertices) or sorted(directed) != list(g.directed)
            or sorted(tuple(sorted(e)) for e in bidirected) != list(g.bidirected)):
        raise ValueError(f"graph does not match the {kind} lattice of its window")
    return g, kind, window


def _require_lattice(kind: str, window: lat.Window | None) -> lat.Window:
    if kind == "abstract" or window is None:
        raise ValueError("this command needs a lattice graph with a window")
    return window


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_lattice_gen(args) -> int:
    given = {k: v for k in _BOUND_NAMES if (v := getattr(args, k)) is not None}
    window = lat.window_from_dict(args.kind, given)
    g = lat.build_graph(args.kind, window)
    _write_out(args.out, graph_document_text(g, args.kind,
                                             lat.window_to_dict(args.kind, window)))
    _emit({"vertices": len(g.vertices), "directed": len(g.directed),
           "bidirected": len(g.bidirected), "out": args.out},
          file=None if args.out else sys.stderr)
    return 0


def _cmd_sep_check(args) -> int:
    g, _kind, _window = _load_graph(args.graph)
    q = SeparationQuery(args.a, args.b, frozenset(split_labels(args.c)))
    verdict = is_separated_oracle(g, q) if args.oracle else is_separated(g, q)
    payload = {"separated": verdict.separated,
               "witness": format_path(verdict.witness) if verdict.witness else None}
    if args.format == "csv":
        csv.writer(sys.stdout, delimiter=";", lineterminator="\n").writerow(
            [args.a, args.b, verdict.separated, payload["witness"] or "-"])
    else:
        _emit(payload)
    return 0 if verdict.separated else 1


def _cmd_sep_minimal(args) -> int:
    g, _kind, _window = _load_graph(args.graph)
    sep = minimal_separator(g, args.a, args.b)
    if sep is None:
        _emit({"separator": None})
        return 1
    def _ok(cond):
        return is_separated(g, SeparationQuery(args.a, args.b, cond)).separated
    certificate = {
        "separates": _ok(sep),
        "single_removal_breaks": all(not _ok(sep - {v}) for v in sep),
    }
    _emit({"separator": sorted(sep), "certificate": certificate})
    return 0


def _cmd_shield_check(args) -> int:
    g, kind, window = _load_graph(args.graph)
    window = _require_lattice(kind, window)
    cell_a, cell_b = lat.parse_cell(args.a), lat.parse_cell(args.b)
    region = lat.parse_region(args.region)
    verdict = lat.shielder_off(region, cell_a, cell_b, args.variant, window)
    sep = is_separated(g, SeparationQuery(
        args.a, args.b, lat.region_to_vertexset(region, g)))
    _emit({"l1": verdict.l1, "l2": verdict.l2, "l3": verdict.l3,
           "variant": verdict.variant, "shielder_off": verdict.shielder_off,
           "separated": sep.separated,
           "witness": format_path(sep.witness) if sep.witness else None})
    return 0 if verdict.shielder_off else 1


def _cmd_prop1_verify(args) -> int:
    g, kind, window = _load_graph(args.graph)
    window = _require_lattice(kind, window)
    cell_a, cell_b = lat.parse_cell(args.a), lat.parse_cell(args.b)
    report = lat.prop1_sweep(kind, window, cell_a, cell_b, args.variant,
                             args.max_cells, args.budget, lattice_graph=g)
    if args.report:
        write_sweep_report(args.report, report)
    counterexamples = report.counterexamples
    _emit({"candidates": report.total,
           "shielder_off": report.shielder_off_count,
           "counterexamples": [list(r.region) for r in counterexamples],
           "report": args.report})
    return 0 if not counterexamples else 1


def _cmd_mc_soundness(args) -> int:
    import random

    from . import markov as mk

    g, _kind, _window = _load_graph(args.graph)
    observed = sorted(g.vertices)
    if len(observed) < 2:
        raise ValueError("mc soundness needs a graph with at least two vertices, "
                         f"got {len(observed)}")
    dag = mk.latent_expansion(g)
    checks = []
    rows = []
    for trial in range(args.trials):
        seed = args.seed * 1_000_003 + trial
        rng = random.Random(seed)
        a, b = rng.sample(observed, 2)
        rest = [v for v in observed if v not in (a, b)]
        cond = frozenset(rng.sample(rest, min(rng.randint(0, args.max_cond), len(rest))))
        query = mc_query(a, b, sorted(cond))
        # Cheap tests first: the margin is built only for trials it checks.
        try:
            mk.ancestral_closure(dag, {a, b} | cond, args.budget)
        except BudgetExceeded:
            rows.append([query, 0, "", "skipped:budget"])
            continue
        if not is_separated(g, SeparationQuery(a, b, cond)).separated:
            rows.append([query, 0, "", "skipped:connected"])
            continue
        margin = mk.target_marginal(dag, mk.random_cpts(dag, seed),
                                    {a, b} | cond, args.budget)
        viol, atoms = mk.ci_details(margin, mk.EventRef.single(a),
                                    mk.EventRef.single(b), sorted(cond))
        checks.append(mk.ScreeningCheck((a, b), tuple(sorted(cond)), atoms, viol,
                                        viol <= args.tol))
        rows.append(mc_csv_row(checks[-1]))
    if args.report:
        write_report(args.report, MC_CSV_HEADER, rows)
    violations = [{"a": c.pair[0], "b": c.pair[1], "cond": list(c.region),
                   "violation": c.violation} for c in checks if not c.passed]
    _emit({"trials": args.trials, "checked": len(checks),
           "skipped": args.trials - len(checks),
           "max_violation": max((c.violation for c in checks), default=0.0),
           "violations": violations, "report": args.report})
    return 0 if not violations else 1


def _cmd_mc_witness(args) -> int:
    from . import markov as mk

    g, _kind, _window = _load_graph(args.graph)
    found = mk.find_dependence_witness(g, args.a, args.b, frozenset(split_labels(args.c)),
                                       args.attempts, args.threshold, args.seed)
    if found is None:
        _emit({"found": False})
        return 1
    cpts, gap = found
    if args.out:
        _write_out(args.out, document_text(cpts.to_json_dict()))
    _emit({"found": True, "violation": gap, "out": args.out})
    return 0


def _cmd_mc_local_causality(args) -> int:
    from . import markov as mk

    g, kind, window = _load_graph(args.graph)
    window = _require_lattice(kind, window)
    cpts = mk.random_cpts(mk.latent_expansion(g), args.seed)
    report = mk.is_locally_causal(kind, window, cpts, args.variant,
                                  tol=args.tol, max_cells=args.max_cells)
    if args.report:
        write_report(args.report, MC_CSV_HEADER, map(mc_csv_row, report.checks))
    _emit({
        "locally_causal": report.locally_causal,
        "screening_failures": len(report.failures),
        "probes": [{"a": report.a, "b": report.b, "correlated": report.correlated,
                    "regions_checked": report.regions_checked,
                    "atoms_checked": report.atoms_checked,
                    "max_violation": report.max_violation}],
        "report": args.report,
    })
    return 0 if report.locally_causal else 1


def _cmd_export_dot(args) -> int:
    g, _kind, _window = _load_graph(args.graph)
    _write_out(args.out, dot_text(g))
    _emit({"directed": len(g.directed), "bidirected": len(g.bidirected), "out": args.out},
          file=None if args.out else sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def _non_negative_int(text: str) -> int:
    """argparse type for counts and budgets."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for tolerances and thresholds: finite and at least 0."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option; a subcommand lists its options as
    parents, in help order, so a shared option is declared once."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@cache  # built once; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    graph = _option("--graph", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--a", required=True)
    pair.add_argument("--b", required=True)
    cond = _option("--c", default="")
    variant = _option("--variant", choices=(lat.L3C, lat.L3Q), default=lat.L3C)
    seed = _option("--seed", type=_non_negative_int, default=0)
    tol = _option("--tol", type=_tolerance, default=1e-9)
    max_cells = _option("--max-cells", type=int)
    report = _option("--report")
    out = _option("--out")

    parser = argparse.ArgumentParser(prog="seplat")
    top = parser.add_subparsers(dest="group", required=True)
    lattice, sep, shield, prop1, mc, export = (
        top.add_parser(name).add_subparsers(dest="cmd", required=True)
        for name in ("lattice", "sep", "shield", "prop1", "mc", "export"))

    def command(group, name: str, func, *options: argparse.ArgumentParser) -> None:
        group.add_parser(name, parents=options).set_defaults(func=func)

    command(lattice, "gen", _cmd_lattice_gen,
            _option("--kind", choices=tuple(lat._KINDS), required=True),
            *(_option(f"--{name}", type=int) for name in _BOUND_NAMES), out)
    command(sep, "check", _cmd_sep_check, graph, pair, cond,
            _option("--oracle", action="store_true"),
            _option("--format", choices=("json", "csv"), default="json"))
    command(sep, "minimal", _cmd_sep_minimal, graph, pair)
    command(shield, "check", _cmd_shield_check, graph, pair,
            _option("--region", required=True), variant)
    command(prop1, "verify", _cmd_prop1_verify, graph, pair, variant, max_cells,
            _option("--budget", type=_non_negative_int, default=lat.DEFAULT_ENUM_BUDGET),
            report)
    command(mc, "soundness", _cmd_mc_soundness, graph,
            _option("--trials", type=_non_negative_int, default=100), seed, tol,
            _option("--max-cond", type=_non_negative_int, default=3),
            _option("--budget", type=_non_negative_int, default=lat.DEFAULT_JOINT_BUDGET),
            report)
    command(mc, "witness", _cmd_mc_witness, graph, pair, cond,
            _option("--attempts", type=_non_negative_int, default=500),
            _option("--threshold", type=_tolerance, default=0.01), seed, out)
    command(mc, "local-causality", _cmd_mc_local_causality, graph, variant, seed, tol,
            max_cells, report)
    command(export, "dot", _cmd_export_dot, graph, out)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SeparatedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SeplatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
