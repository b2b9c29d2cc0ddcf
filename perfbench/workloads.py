"""The benchmark workloads: inputs, one repetition of each job, and the
checks of its output.

Every repetition is one complete verification job, from graph document to
verdict, run in-process from a single thread; the next one starts when the
previous one returns (closed loop, one client).  Outputs are compared with
references pinned from the seed commit in ``reference.json``; a separate
cross-check, run outside the timed region, re-decides verdicts through the
simple-path oracle ``is_separated_oracle`` instead of the reachability
search the jobs use.

The sweeps are deterministic: the seed only picks the cross-check sample.
``soundness_cli`` is deterministic too (its CLI seed is fixed and every
trial that built a margin is cross-checked).  ``screening_batch`` draws its
random separating sets and CPT models from the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
REFERENCE = BENCH_DIR / "reference.json"
# Scratch space for CLI reports, relative to the checkout root (the cwd).
WORK_DIR = Path(".perfbench")

CROSS_CHECK_ROWS = 200
SIZES = ("full", "tiny")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    # Looked up at call time so a traced run sees the wrapped entry point.
    import seplat.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = seplat.cli.main(argv)
    return code, out.getvalue()


def sets_digest(sets) -> str:
    """SHA-256 of a collection of vertex sets, independent of order."""
    return hashlib.sha256(
        "\n".join(sorted("+".join(sorted(s)) for s in sets)).encode()).hexdigest()


def _compare(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, pinned {want!r}")


def parse_witness(text: str):
    """Rebuild a Path from format_path output, e.g. "a<-b<->c->d"."""
    from seplat.graph import BIDIR, DIR_BACKWARD, DIR_FORWARD, Path as GPath

    kinds = {"->": DIR_FORWARD, "<-": DIR_BACKWARD, "<->": BIDIR}
    parts = re.split(r"(<->|<-|->)", text)
    return GPath(tuple(parts[0::2]), tuple(kinds[g] for g in parts[1::2]))


class Workload:
    """One workload: its inputs, one job, and the checks of the job's output."""

    name = ""
    item = ""           # what one counted operation is
    doc = ""            # graph document under data/
    cold_imports = "seplat"

    def __init__(self, size: str, seed: int, reference: dict) -> None:
        self.size = size
        self.seed = seed
        self.pins = reference[self.name][size]
        self.doc_path = DATA_DIR / self.doc

    def items(self) -> int:
        """Operations one repetition attempts."""
        raise NotImplementedError

    def rep(self, index: int):
        """Run one repetition; the caller times this call only."""
        raise NotImplementedError

    def check(self, outcome) -> list[str]:
        """Mismatches between one repetition's output and the pins."""
        raise NotImplementedError

    def cross_check(self, outcome) -> tuple[int, list[str]]:
        """(verdicts re-decided, disagreements) for one repetition."""
        raise NotImplementedError

    def cold_start_code(self, src: Path) -> str:
        """Source of a fresh interpreter that imports seplat, loads the graph
        document and reports ready before the first item."""
        return (
            "import json, sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            f"import {self.cold_imports}\n"
            "from seplat.graph import graph_from_json_dict\n"
            f"with open({str(self.doc_path)!r}, encoding='utf-8') as fh:\n"
            "    graph_from_json_dict(json.load(fh))\n"
            "sys.stdout.write('ready\\n')\n"
            "sys.stdout.flush()\n"
        )


# ---------------------------------------------------------------------------
# jobs run through the CLI


class CliJob(Workload):
    """A job that is one ``seplat.cli.main`` call writing a CSV report."""

    cold_imports = "seplat, seplat.cli"

    def __init__(self, size, seed, reference):
        super().__init__(size, seed, reference)
        self.report = WORK_DIR / f"{self.name}.csv"
        self.argv = self.cli_args() + ["--graph", str(self.doc_path),
                                       "--report", str(self.report)]

    def cli_args(self) -> list[str]:
        raise NotImplementedError

    def _rows(self) -> list[dict]:
        with self.report.open(encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh, delimiter=";"))

    def rep(self, index):
        return _run_cli(self.argv)

    def check(self, outcome) -> list[str]:
        """Exit code, the JSON payload and the report's SHA-256."""
        code, stdout = outcome
        problems: list[str] = []
        _compare(problems, "exit code", code, self.pins["exit_code"])
        try:
            payload = json.loads(stdout)
        except ValueError:
            return problems + [f"stdout is not one JSON payload: {stdout[:200]!r}"]
        _compare(problems, "payload", payload,
                 dict(self.pins["payload"], report=str(self.report)))
        if not self.report.exists():
            return problems + ["CSV report missing"]
        _compare(problems, "CSV report sha256", _sha256(self.report), self.pins["csv_sha256"])
        return problems


class Sweep(CliJob):
    item = "candidates"
    probes = ("", "")
    max_cells = {"full": 5, "tiny": 2}

    def cli_args(self) -> list[str]:
        a, b = self.probes
        return ["prop1", "verify", "--a", a, "--b", b, "--variant", "l3c",
                "--max-cells", str(self.max_cells[self.size])]

    def items(self) -> int:
        return self.pins["payload"]["candidates"]

    def check(self, outcome) -> list[str]:
        problems = super().check(outcome)
        if self.report.exists():
            witnesses = {row["candidate_set"]: row["witness"] for row in self._rows()
                         if row["candidate_set"] in self.pins["witnesses"]}
            _compare(problems, "counterexample witnesses", witnesses, self.pins["witnesses"])
        return problems

    def cross_check(self, outcome) -> tuple[int, list[str]]:
        """Re-decide sampled rows with shielder_off and the simple-path
        oracle, and confirm every sampled witness is a connecting path."""
        from seplat import graph as sgraph
        from seplat import lattice, separation

        with self.doc_path.open(encoding="utf-8") as fh:
            g, kind, wdict = sgraph.graph_from_json_dict(json.load(fh))
        window = lattice.window_from_dict(kind, wdict)
        a, b = self.probes
        cell_a, cell_b = lattice.parse_cell(a), lattice.parse_cell(b)
        rows = self._rows()
        rng = random.Random(self.seed)
        sample = rng.sample(rows, min(CROSS_CHECK_ROWS, len(rows)))
        sample += [r for r in rows if r["candidate_set"] in self.pins["witnesses"]]
        problems = []
        for row in sample:
            region = lattice.parse_region(row["candidate_set"])
            v = lattice.shielder_off(region, cell_a, cell_b, lattice.L3C, window)
            cond = frozenset(row["candidate_set"].split("+"))
            oracle = separation.is_separated_oracle(g, separation.SeparationQuery(a, b, cond))
            got = [row[k] for k in ("l1", "l2", "l3", "shielder_off", "separated")]
            want = [str(x).lower() for x in (v.l1, v.l2, v.l3, v.shielder_off, oracle.separated)]
            if got != want:
                problems.append(f"{row['candidate_set']}: report {got}, re-decided {want}")
            elif row["witness"] != "-" and not separation.path_is_connecting(
                    g, parse_witness(row["witness"]), cond):
                problems.append(f"{row['candidate_set']}: witness {row['witness']} is blocked")
        return len(sample), problems


class SweepBox(Sweep):
    name = "sweep_box"
    doc = "box_k2-5_m0-8.json"
    probes = ("b(4,2)", "b(4,6)")


class SweepDiamond(Sweep):
    name = "sweep_diamond"
    doc = "diamond_i0-7_j2-7.json"
    probes = ("d(2,5)", "d(5,2)")
    max_cells = {"full": 11, "tiny": 2}  # 11 is the whole pool


# ---------------------------------------------------------------------------
# criterion-5 style screening batch through the library API


class ScreeningBatch(Workload):
    name = "screening_batch"
    item = "CI checks"
    doc = "diamond_i0-5_j0-5.json"
    probes = ("d(1,4)", "d(4,1)")
    models = {"full": 6, "tiny": 1}
    random_sets = 50
    tol = 1e-9

    def items(self) -> int:
        return self.models[self.size] * self.pins["queries"]

    def rep(self, index):
        from seplat import graph as sgraph
        from seplat import lattice, markov, separation

        with self.doc_path.open(encoding="utf-8") as fh:
            g, kind, wdict = sgraph.graph_from_json_dict(json.load(fh))
        window = lattice.window_from_dict(kind, wdict)
        a, b = self.probes
        sweep = lattice.prop1_sweep(kind, window, lattice.parse_cell(a),
                                    lattice.parse_cell(b), lattice.L3C, 9, lattice_graph=g)
        shielded = [frozenset(r.region) for r in sweep.rows if r.shielder_off]

        stream = self.seed * 1_000_003 + index
        rng = random.Random(stream)
        pool = sorted(sgraph.relatives(g, {a, b}, sgraph.ANCESTORS_INCLUSIVE) - {a, b})
        separating: list[frozenset[str]] = []
        while len(separating) < self.random_sets:
            cand = frozenset(rng.sample(pool, rng.randint(1, 6)))
            if cand not in separating and separation.is_separated(
                    g, separation.SeparationQuery(a, b, cand)).separated:
                separating.append(cand)
        queries = shielded + separating

        ev_a, ev_b = markov.EventRef.single(a), markov.EventRef.single(b)
        worst, checks = 0.0, 0
        n_models = self.models[self.size]
        for m in range(n_models):
            margin = markov.ancestral_margin(
                g, markov.random_cpts(g, stream * n_models + m), (a, b))
            for cond in queries:
                worst = max(worst, markov.ci_violation(margin, ev_a, ev_b, sorted(cond)))
                checks += 1
        return g, shielded, queries, checks, worst

    def check(self, outcome) -> list[str]:
        _g, shielded, queries, checks, worst = outcome
        problems: list[str] = []
        _compare(problems, "shielder-off sets", len(shielded), self.pins["shielder_off_sets"])
        _compare(problems, "shielder-off sets sha256", sets_digest(shielded),
                 self.pins["shielder_off_sha256"])
        _compare(problems, "separating sets", len(queries), self.pins["queries"])
        _compare(problems, "CI checks", checks, self.items())
        if not worst <= self.tol:
            problems.append(f"max CI violation {worst:.3e} exceeds {self.tol:g}")
        return problems

    def cross_check(self, outcome) -> tuple[int, list[str]]:
        """Every sampled separating set must also separate by the oracle."""
        from seplat import separation

        g, _shielded, queries, _checks, _worst = outcome
        a, b = self.probes
        sample = random.Random(self.seed).sample(queries, min(40, len(queries)))
        problems = [f"{'+'.join(sorted(c))} does not separate by the oracle" for c in sample
                    if not separation.is_separated_oracle(
                        g, separation.SeparationQuery(a, b, c)).separated]
        return len(sample), problems


# ---------------------------------------------------------------------------
# Monte-Carlo soundness through the CLI


class SoundnessCli(CliJob):
    name = "soundness_cli"
    item = "trials"
    doc = "diamond_i0-5_j0-5.json"
    trials = {"full": 40, "tiny": 5}

    def cli_args(self) -> list[str]:
        return ["mc", "soundness", "--trials", str(self.trials[self.size]), "--seed", "0",
                "--max-cond", "6"]

    def items(self) -> int:
        return self.trials[self.size]

    def cross_check(self, outcome) -> tuple[int, list[str]]:
        """Re-decide the separation verdict of every trial that built a
        margin with the simple-path oracle."""
        from seplat import graph as sgraph
        from seplat import separation

        with self.doc_path.open(encoding="utf-8") as fh:
            g, _kind, _w = sgraph.graph_from_json_dict(json.load(fh))
        rows = [r for r in self._rows() if r["verdict"] != "skipped:budget"]
        problems = []
        for row in rows:
            pair, cond = row["query"].rsplit("|", 1)
            a, b = pair.split("_|_")
            cond = frozenset(c for c in cond.split("+") if c)
            oracle = separation.is_separated_oracle(g, separation.SeparationQuery(a, b, cond))
            if oracle.separated != (row["verdict"] != "skipped:connected"):
                problems.append(f"{row['query']}: verdict {row['verdict']}, "
                                f"oracle separated={oracle.separated}")
        return len(rows), problems


WORKLOADS = {w.name: w for w in (SweepBox, SweepDiamond, ScreeningBatch, SoundnessCli)}


def load_reference() -> dict:
    with REFERENCE.open(encoding="utf-8") as fh:
        return json.load(fh)
