import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seplat.cli import main

A, B = "d(1,4)", "d(4,1)"
ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the canonical sweep reports written by `seplat prop1 verify
# --report` for the canonical probes: the 6x6 diamond under both L3 variants
# with --max-cells 9, and the 6x9 box under L3C with --max-cells 2.
CANONICAL_CSV_SHA256 = {
    "diamond_l3c": "9e97ee7166dd8939b4b419fd16d1ec93033b2ebd98c4030b251b261abe6ffe04",
    "diamond_l3q": "0a8bbef5c06de195e4ccbc8b5ea147b8dedd3cc23f2d07ed59714c9c3d69d630",
    "box_l3c": "7d3db423858d47a02ef5eee96679f03e88b704d13e9c5719719c7fdab5af93b4",
}


# `mc soundness --trials 40 --seed 0 --max-cond 6` on the 6x6 diamond: its one
# checked trial prints an exact max_violation, so any change to the bits of
# the CI arithmetic shows here.
MC_SOUNDNESS_SHA256 = "64a11f7edea71207a0bd824d3a023bd54ff917bd296369e958a32971d0e98f1d"

# `mc local-causality --seed 3 --report` on the 4x4 diamond and the 3x9 box:
# the report CSVs, and the payloads without their `report` path.
MC_LOCAL_CAUSALITY = {
    "diamond4": (
        ["--kind", "diamond", "--imin", "0", "--imax", "3", "--jmin", "0", "--jmax", "3"],
        "97011a2aa6b4995e045a4ccf83d6b9d1fbb2d1da431e0aefbc4d62fdb59931ba",
        {"locally_causal": True, "screening_failures": 0,
         "probes": [{"a": "d(1,2)", "b": "d(2,1)", "correlated": True,
                     "regions_checked": 4, "atoms_checked": 72,
                     "max_violation": 1.1102230246251565e-16}]}),
    "box3x9": (
        ["--kind", "box", "--kmin", "0", "--kmax", "2", "--mmin", "0", "--mmax", "8"],
        "d9708ff650f9fd5286bcc4406c571d8bae573f47d3b13de3851eae6a67459934",
        {"locally_causal": True, "screening_failures": 0,
         "probes": [{"a": "b(1,2)", "b": "b(1,6)", "correlated": False,
                     "regions_checked": 1, "atoms_checked": 8,
                     "max_violation": 1.1102230246251565e-16}]}),
}

# The CPT file of `mc witness --seed 7 --out` on the 6x6 diamond, A/B given
# d(0,0)+d(0,1)+d(1,0); its payload prints violation 0.1328602500000048.
MC_WITNESS_SHA256 = "0f0ca046ff6a11dcf1e6af1b26a5e315d6dc6a90100650740d3ac941f35fc1f0"

# `export dot` of the 3x3 box lattice written by the box_file fixture.
BOX_DOT_SHA256 = "25f178a22bc924c1c60a853f79d6d8867e6fed262c5590eaec470e0b3164d2d0"


@pytest.fixture()
def diamond_file(tmp_path):
    path = tmp_path / "g.json"
    code = main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture()
def box_file(tmp_path):
    path = tmp_path / "gb.json"
    code = main(["lattice", "gen", "--kind", "box", "--kmin", "0", "--kmax", "2",
                 "--mmin", "0", "--mmax", "2", "--out", str(path)])
    assert code == 0
    return path


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_lattice_gen_counts(diamond_file, capsys):
    doc = json.loads(diamond_file.read_text())
    assert doc["kind"] == "diamond"
    assert len(doc["vertices"]) == 36
    assert doc["window"] == {"imin": 0, "imax": 5, "jmin": 0, "jmax": 5}


def test_lattice_gen_to_stdout(diamond_file, capsys):
    # stdout is the document alone, so that `> g.json` gives a readable graph
    capsys.readouterr()
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "5",
                 "--jmin", "0", "--jmax", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == diamond_file.read_text()
    assert json.loads(captured.err) == {"vertices": 36, "directed": 85, "bidirected": 0,
                                        "out": None}


def test_lattice_gen_box_counts(tmp_path, capsys):
    path = tmp_path / "g.json"
    code = main(["lattice", "gen", "--kind", "box", "--kmin", "0", "--kmax", "5",
                 "--mmin", "0", "--mmax", "8", "--out", str(path)])
    assert code == 0
    out = _last_json(capsys)
    assert out["vertices"] == 54 and out["bidirected"] > 0


def test_lattice_gen_bad_bounds():
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0",
                 "--imax", "-1", "--jmin", "0", "--jmax", "5"]) == 2
    assert main(["lattice", "gen", "--kind", "box", "--kmin", "0",
                 "--kmax", "2"]) == 2


def test_lattice_gen_rejects_other_kinds_bounds(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "2",
                 "--jmin", "0", "--jmax", "2", "--kmin", "5", "--out", str(path)]) == 2
    assert "stray kmin" in capsys.readouterr().err
    assert not path.exists()


def test_sep_check_verdicts(diamond_file, capsys):
    code = main(["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,3)+d(0,4)+d(1,3)"])
    assert code == 0
    assert _last_json(capsys) == {"separated": True, "witness": None}

    code = main(["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,0)+d(0,1)+d(1,0)"])
    assert code == 1
    out = _last_json(capsys)
    assert not out["separated"] and out["witness"].startswith("d(1,4)")

    assert main(["sep", "check", "--graph", str(diamond_file),
                 "--a", "d(9,9)", "--b", B]) == 2


def test_python_m_seplat_runs_the_cli(diamond_file):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "seplat", "sep", "check",
                           "--graph", str(diamond_file), "--a", A, "--b", B,
                           "--c", "d(0,0)+d(0,1)+d(1,0)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert not out["separated"] and out["witness"].startswith("d(1,4)")


def test_sep_check_oracle_flag(diamond_file, capsys):
    code = main(["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,3)+d(0,4)+d(1,3)", "--oracle"])
    assert code == 0


def test_sep_check_csv_format_and_strict(diamond_file, capsys):
    code = main(["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,3)+d(0,4)+d(1,3)", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.strip() == f"{A};{B};True;-"
    # there is one collider rule; the strict alternative is an unknown argument
    code = main(["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,0)+d(0,1)+d(1,0)", "--convention", "strict"])
    assert code == 2


@pytest.mark.parametrize("label", ["a;1", 'a"1'])
def test_sep_check_csv_quotes_labels(tmp_path, capsys, label):
    from seplat.cli import graph_document_text
    from seplat.graph import build_graph

    path = tmp_path / "g.json"
    path.write_text(graph_document_text(build_graph([label, "b"])))
    assert main(["sep", "check", "--graph", str(path), "--a", label, "--b", "b",
                 "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out), delimiter=";"))
    assert rows == [[label, "b", "True", "-"]]


def test_sep_minimal(diamond_file, capsys):
    code = main(["sep", "minimal", "--graph", str(diamond_file), "--a", A, "--b", B])
    assert code == 0
    out = _last_json(capsys)
    assert out["separator"] == ["d(3,0)", "d(3,1)"]
    assert out["certificate"] == {"separates": True, "single_removal_breaks": True}


def test_sep_minimal_none_when_ancestors_cannot_separate(tmp_path, capsys):
    from seplat.cli import graph_document_text
    from seplat.graph import build_graph

    # the ancestral start set {c, d} holds c, an open collider on a<->c<->b
    g = build_graph("abcd", [("c", "d"), ("d", "a")], [("a", "c"), ("c", "b")])
    path = tmp_path / "g.json"
    path.write_text(graph_document_text(g))
    assert main(["sep", "minimal", "--graph", str(path), "--a", "a", "--b", "b"]) == 1
    assert _last_json(capsys) == {"separator": None}


def test_sep_minimal_toy_and_adjacent(tmp_path, capsys):
    from seplat.cli import graph_document_text
    from seplat.graph import build_graph

    g = build_graph({"a", "b", "e"}, [("e", "a"), ("e", "b")])
    path = tmp_path / "toy.json"
    path.write_text(graph_document_text(g))
    assert main(["sep", "minimal", "--graph", str(path), "--a", "a", "--b", "b"]) == 0
    assert _last_json(capsys)["separator"] == ["e"]
    assert main(["sep", "minimal", "--graph", str(path), "--a", "e", "--b", "a"]) == 2


def test_shield_check(diamond_file, capsys):
    code = main(["shield", "check", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--region", "d(0,3)+d(0,4)+d(1,3)", "--variant", "l3c"])
    assert code == 0
    out = _last_json(capsys)
    assert out["shielder_off"] and out["separated"]

    code = main(["shield", "check", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--region", "d(0,0)+d(0,1)+d(1,0)"])
    assert code == 1
    assert not _last_json(capsys)["l3"]

    assert main(["shield", "check", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--region", "d(1,4)+d(0,3)"]) == 2


@pytest.mark.parametrize("argv", [
    ["prop1", "verify", "--a", A, "--b", "d(04,1)", "--max-cells", "2"],
    ["prop1", "verify", "--a", "d(1,04)", "--b", B, "--max-cells", "2"],
    ["shield", "check", "--a", A, "--b", B, "--region", "d(00,3)+d(0,4)+d(1,3)"],
    ["shield", "check", "--a", A, "--b", B, "--region", "d(-0,3)+d(0,4)+d(1,3)"],
    ["shield", "check", "--a", "d(01,4)", "--b", B, "--region", "d(0,3)+d(0,4)+d(1,3)"],
], ids=["prop1_b", "prop1_a", "shield_region", "shield_region_minus_zero", "shield_a"])
def test_non_canonical_cell_labels_exit_2(diamond_file, capsys, argv):
    assert main(argv[:2] + ["--graph", str(diamond_file)] + argv[2:]) == 2
    assert "bad cell label" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sep", "check", "--a", A, "--b", B, "--c", "d(0,2)++d(0,3)"],
    ["sep", "check", "--a", A, "--b", B, "--c", "d(0,3)+d(0,4)+d(0,3)"],
    ["mc", "witness", "--a", A, "--b", B, "--c", "+d(0,0)+d(0,1)+d(1,0)"],
    ["shield", "check", "--a", A, "--b", B, "--region", "d(0,2)+d(0,3)+d(1,2)+"],
    ["shield", "check", "--a", A, "--b", B, "--region", "d(0,3)+d(0,3)"],
], ids=["sep_empty", "sep_repeated", "mc_leading", "shield_trailing", "shield_repeated"])
def test_malformed_label_lists_exit_2(diamond_file, capsys, argv):
    assert main(argv[:2] + ["--graph", str(diamond_file)] + argv[2:]) == 2
    err = capsys.readouterr().err
    assert "empty label" in err or "repeated" in err


def test_empty_cond_literal_is_the_empty_set(diamond_file, capsys):
    argv = ["sep", "check", "--graph", str(diamond_file), "--a", A, "--b", B]
    assert main(argv + ["--c", ""]) == main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]


def test_main_calls_share_no_options(diamond_file, capsys):
    # d(1,1) covers the common past (L3C) but lies in the past of B (not L3Q)
    argv = ["shield", "check", "--graph", str(diamond_file), "--a", A, "--b", B,
            "--region", "d(1,1)"]
    main(argv + ["--variant", "l3q"])
    assert not _last_json(capsys)["l3"]
    main(argv)
    assert _last_json(capsys)["l3"]


def test_lattice_document_must_match_window(diamond_file, tmp_path, capsys):
    doc = json.loads(diamond_file.read_text())
    doc["directed"].remove(["d(1,3)", "d(1,4)"])
    doc["window"]["imax"] = 9
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["shield", "check", "--graph", str(tampered), "--a", A, "--b", B,
                 "--region", "d(0,3)+d(0,4)+d(1,3)"]) == 2
    assert main(["prop1", "verify", "--graph", str(tampered), "--a", A, "--b", B,
                 "--max-cells", "2"]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["directed"].append(doc["directed"][0]),
    lambda doc: doc["vertices"].append(doc["vertices"][0]),
    lambda doc: doc["vertices"].remove("d(0,0)"),
    lambda doc: doc["directed"].append(["d(2,2)", "d(2,2)"]),
    lambda doc: doc["directed"].append(["d(0,0)", "d(9,9)"]),
    lambda doc: doc["bidirected"].append(["d(0,0)", "d(0,1)"]),
], ids=["repeated_edge", "repeated_vertex", "missing_vertex", "self_loop",
        "unknown_vertex", "extra_spouse"])
def test_lattice_document_repeats_and_strays_do_not_match(diamond_file, tmp_path, capsys,
                                                          tamper):
    doc = json.loads(diamond_file.read_text())
    tamper(doc)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["prop1", "verify", "--graph", str(tampered), "--a", A, "--b", B,
                 "--max-cells", "1"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_lattice_document_lists_may_come_in_any_order(tmp_path, capsys):
    box = tmp_path / "box.json"
    assert main(["lattice", "gen", "--kind", "box", "--kmin", "0", "--kmax", "2",
                 "--mmin", "0", "--mmax", "8", "--out", str(box)]) == 0
    doc = json.loads(box.read_text())
    assert doc["bidirected"]
    for key in ("vertices", "directed", "bidirected"):
        doc[key].reverse()
    doc["bidirected"] = [[v, u] for u, v in doc["bidirected"]]
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(doc))
    argv = ["sep", "check", "--a", "b(2,2)", "--b", "b(2,6)", "--c", "b(1,3)+b(1,4)+b(1,5)"]
    capsys.readouterr()
    assert main(argv + ["--graph", str(box)]) == main(argv + ["--graph", str(shuffled)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1] and "<->" in out[0]


def test_lattice_prop1_verify_builds_one_graph(diamond_file, monkeypatch, capsys):
    import seplat.graph

    build, built = seplat.graph.build_graph, []

    def counting(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(seplat.graph, "build_graph", counting)
    assert main(["prop1", "verify", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--max-cells", "2"]) == 0
    assert len(built) == 1 and _last_json(capsys)["candidates"] == 45


def test_shield_check_rejects_abstract(tmp_path):
    from seplat.cli import graph_document_text
    from seplat.graph import build_graph

    path = tmp_path / "abs.json"
    path.write_text(graph_document_text(build_graph({"a", "b"}, [("a", "b")])))
    assert main(["shield", "check", "--graph", str(path), "--a", "a", "--b", "b",
                 "--region", "a"]) == 2


def test_prop1_verify(diamond_file, tmp_path, capsys):
    report = tmp_path / "rows.csv"
    code = main(["prop1", "verify", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--variant", "l3c", "--max-cells", "9",
                 "--report", str(report)])
    assert code == 0
    out = _last_json(capsys)
    assert out["candidates"] == 511 and out["counterexamples"] == []
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "candidate_set;l1;l2;l3;shielder_off;separated;witness"
    assert len(lines) == 512
    assert main(["prop1", "verify", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--budget", "100"]) == 2


def test_canonical_sweep_reports_pinned(diamond_file, tmp_path):
    box_file = tmp_path / "box.json"
    assert main(["lattice", "gen", "--kind", "box", "--kmin", "0", "--kmax", "5",
                 "--mmin", "0", "--mmax", "8", "--out", str(box_file)]) == 0
    sweeps = {"diamond_l3c": (diamond_file, A, B, "l3c", "9"),
              "diamond_l3q": (diamond_file, A, B, "l3q", "9"),
              "box_l3c": (box_file, "b(4,2)", "b(4,6)", "l3c", "2")}
    for name, (graph, a, b, variant, max_cells) in sweeps.items():
        report = tmp_path / f"{name}.csv"
        assert main(["prop1", "verify", "--graph", str(graph), "--a", a, "--b", b,
                     "--variant", variant, "--max-cells", max_cells,
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == CANONICAL_CSV_SHA256[name]


def _sweep_fields(r):
    """A sweep report line's fields, in CSV_HEADER order, built one by one."""
    from seplat.graph import format_path

    return ["+".join(r.region), *(str(x).lower() for x in r[1:6]),
            format_path(r.witness) if r.witness is not None else "-"]


def _csv_writer_bytes(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=";").writerows(lines)
    return path.read_bytes()


def test_sweep_report_formats_each_witness_once(tmp_path, monkeypatch):
    # the benchmark's box sweep: 2,379 rows, 2,339 of them connected, share
    # 36 witness Paths, and the report formats each of them once
    import seplat.cli
    from seplat.cli import CSV_HEADER, write_sweep_report
    from seplat.lattice import BOX, L3C, Cell, Window, prop1_sweep

    graph, report = tmp_path / "box.json", tmp_path / "box.csv"
    assert main(["lattice", "gen", "--kind", "box", "--kmin", "2", "--kmax", "5",
                 "--mmin", "0", "--mmax", "8", "--out", str(graph)]) == 0
    formatted = []
    format_path = seplat.cli.format_path

    def counting(p):
        formatted.append(p)
        return format_path(p)

    monkeypatch.setattr(seplat.cli, "format_path", counting)
    assert main(["prop1", "verify", "--graph", str(graph), "--a", "b(4,2)",
                 "--b", "b(4,6)", "--max-cells", "5", "--report", str(report)]) == 1
    monkeypatch.undo()
    rep = prop1_sweep(BOX, Window(2, 5, 0, 8), Cell(BOX, 4, 2), Cell(BOX, 4, 6), L3C, 5)
    witnesses = {r.witness for r in rep.rows if r.witness is not None}
    assert (rep.total, sum(not r.separated for r in rep.rows)) == (2379, 2339)
    assert len(formatted) == len(set(formatted)) == len(witnesses) == 36
    written = tmp_path / "written.csv"
    write_sweep_report(written, rep.rows)
    assert report.read_bytes() == written.read_bytes()
    with report.open(encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh, delimiter=";"))
    assert lines == [CSV_HEADER] + [_sweep_fields(r) for r in rep.rows]


def test_sweep_report_is_what_csv_writer_writes(tmp_path):
    # labels and witnesses that csv must quote, mixed with plain ones, and
    # each region and verdict tail seen more than once
    import random

    from seplat.cli import CSV_HEADER, write_sweep_report
    from seplat.graph import BIDIR, DIR_BACKWARD, DIR_FORWARD, Path as GPath
    from seplat.lattice import Prop1Row

    regions = [(), ("",), ("", ""), ("b(0,1)",), ("b(0,1)", "b(0,2)"), ("a;b",),
               ('q"x', "b(0,1)"), ("b(0,1)", "n\nl"), ("c\rr",), ("p+q", "s p"),
               ("b(0,2)", "a;b", 'q"x'), ("\r\n",)]
    witnesses = [None, GPath(("b(0,1)", "b(0,2)"), (DIR_FORWARD,)),
                 GPath(('w"1', "y;z", "n\nm", "r\r"), (BIDIR, DIR_BACKWARD, DIR_FORWARD))]
    rng = random.Random(7)
    rows = [Prop1Row(rng.choice(regions), *(rng.random() < 0.5 for _ in range(5)),
                     rng.choice(witnesses)) for _ in range(300)]
    lines = [CSV_HEADER] + [_sweep_fields(r) for r in rows]
    written = tmp_path / "written.csv"
    write_sweep_report(written, rows)
    assert written.read_bytes() == _csv_writer_bytes(tmp_path / "csv.csv", lines)
    with written.open(encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh, delimiter=";")) == lines


def test_prop1_verify_max_cells_zero(diamond_file, tmp_path, capsys):
    from seplat.cli import CSV_HEADER

    report = tmp_path / "r.csv"
    code = main(["prop1", "verify", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--max-cells", "0", "--report", str(report)])
    assert code == 0
    assert _last_json(capsys)["candidates"] == 0
    assert report.read_bytes() == _csv_writer_bytes(tmp_path / "csv.csv", [CSV_HEADER])


@pytest.mark.parametrize("max_cells", ["0", "1"])
@pytest.mark.parametrize("doc, a, b", [
    ("diamond_file", "d(1,4)", "d(7,1)"),  # d(7,1) lies outside the window
    ("diamond_file", "b(4,2)", "b(4,6)"),  # box cells on a diamond document
    ("box_file", "b(4,2)", "b(4,6)"),      # both probes above the 3x3 window
])
def test_prop1_verify_probes_must_be_vertices(request, doc, a, b, max_cells):
    path = request.getfixturevalue(doc)
    assert main(["prop1", "verify", "--graph", str(path), "--a", a, "--b", b,
                 "--max-cells", max_cells]) == 2


@pytest.mark.parametrize("argv", [
    ["prop1", "verify", "--a", A, "--b", B, "--max-cells", "-2"],
    ["prop1", "verify", "--a", A, "--b", B, "--budget", "-1"],
    ["mc", "local-causality", "--max-cells", "-1"],
    ["mc", "soundness", "--trials", "-3"],
    ["mc", "soundness", "--budget", "-1"],
    ["mc", "soundness", "--max-cond", "-1"],
    ["mc", "witness", "--a", A, "--b", B, "--c", "d(0,0)+d(0,1)+d(1,0)",
     "--attempts", "-1"],
    # seeds are counts too; tolerances and thresholds are finite and >= 0
    ["mc", "soundness", "--trials", "40", "--seed", "0", "--max-cond", "6", "--tol", "nan"],
    ["mc", "soundness", "--trials", "40", "--max-cond", "6", "--seed", "-1"],
    ["mc", "soundness", "--trials", "40", "--max-cond", "6", "--tol", "-1"],
    ["mc", "local-causality", "--tol", "nan"],
    ["mc", "local-causality", "--tol", "inf"],
    ["mc", "witness", "--a", A, "--b", B, "--c", "d(0,0)+d(0,1)+d(1,0)",
     "--threshold", "nan"],
    ["mc", "witness", "--a", A, "--b", B, "--c", "d(0,0)+d(0,1)+d(1,0)",
     "--attempts", "4", "--threshold", "inf"],
], ids=lambda argv: "_".join(argv[:2] + argv[-2:]))
def test_negative_counts_exit_2(diamond_file, argv):
    assert main(argv[:2] + ["--graph", str(diamond_file)] + argv[2:]) == 2


def test_mc_soundness(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "2",
                 "--jmin", "0", "--jmax", "2", "--out", str(path)]) == 0
    report = tmp_path / "mc.csv"
    code = main(["mc", "soundness", "--graph", str(path), "--trials", "80",
                 "--seed", "7", "--tol", "1e-9", "--report", str(report)])
    assert code == 0
    out = _last_json(capsys)
    assert out["violations"] == [] and out["checked"] > 0
    assert out["max_violation"] <= 1e-9
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "query;atoms_checked;max_violation;verdict"
    assert len(lines) == 81
    assert any(";ci" in ln for ln in lines[1:])


@pytest.mark.parametrize("vertices", [[], ["a"]])
def test_mc_soundness_needs_two_vertices(tmp_path, capsys, vertices):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "abstract", "vertices": vertices,
                                "directed": [], "bidirected": []}))
    for trials in ("0", "3"):
        assert main(["mc", "soundness", "--graph", str(path), "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert f"at least two vertices, got {len(vertices)}" in err, err


def test_mc_soundness_pinned(diamond_file, tmp_path, capsys):
    report = tmp_path / "mc.csv"
    assert main(["mc", "soundness", "--graph", str(diamond_file), "--trials", "40",
                 "--seed", "0", "--max-cond", "6", "--report", str(report)]) == 0
    assert _last_json(capsys) == {"trials": 40, "checked": 1, "skipped": 39,
                                  "max_violation": 1.7763568394002505e-15,
                                  "violations": [], "report": str(report)}
    assert hashlib.sha256(report.read_bytes()).hexdigest() == MC_SOUNDNESS_SHA256


def test_mc_soundness_builds_margins_only_for_checked_trials(tmp_path, capsys, monkeypatch):
    import seplat.markov

    path = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "3",
                 "--jmin", "0", "--jmax", "3", "--out", str(path)]) == 0
    calls = []
    original = seplat.markov.target_marginal

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(seplat.markov, "target_marginal", counting)
    report = tmp_path / "mc.csv"
    code = main(["mc", "soundness", "--graph", str(path), "--trials", "40", "--seed", "3",
                 "--max-cond", "4", "--budget", "9", "--report", str(report)])
    assert code == 0
    out = _last_json(capsys)
    verdicts = [ln.rsplit(";", 1)[1] for ln in report.read_text().strip().splitlines()[1:]]
    assert "skipped:budget" in verdicts and "skipped:connected" in verdicts
    assert out["checked"] == verdicts.count("ci") + verdicts.count("violation") > 0
    assert len(calls) == out["checked"]


def test_mc_witness(diamond_file, tmp_path, capsys):
    cpt_file = tmp_path / "w.json"
    code = main(["mc", "witness", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,0)+d(0,1)+d(1,0)", "--attempts", "500",
                 "--threshold", "0.01", "--seed", "7", "--out", str(cpt_file)])
    assert code == 0
    out = _last_json(capsys)
    assert out["found"] and out["violation"] > 0.01
    doc = json.loads(cpt_file.read_text())
    assert doc["d(1,4)"]["parents"] == ["d(0,3)", "d(0,4)", "d(1,3)"]

    assert main(["mc", "witness", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,3)+d(0,4)+d(1,3)"]) == 1


def test_mc_witness_pinned(diamond_file, tmp_path, capsys):
    cpt_file = tmp_path / "w.json"
    assert main(["mc", "witness", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,0)+d(0,1)+d(1,0)", "--seed", "7",
                 "--out", str(cpt_file)]) == 0
    assert _last_json(capsys) == {"found": True, "violation": 0.1328602500000048,
                                  "out": str(cpt_file)}
    assert hashlib.sha256(cpt_file.read_bytes()).hexdigest() == MC_WITNESS_SHA256


def test_mc_witness_not_found(diamond_file, capsys):
    # no violation exceeds 1.0; the fourth attempt is a uniform redraw
    code = main(["mc", "witness", "--graph", str(diamond_file), "--a", A, "--b", B,
                 "--c", "d(0,0)+d(0,1)+d(1,0)", "--attempts", "4",
                 "--threshold", "1.0", "--seed", "7"])
    assert code == 1
    assert _last_json(capsys) == {"found": False}


def test_mc_local_causality(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "3",
                 "--jmin", "0", "--jmax", "3", "--out", str(path)]) == 0
    report = tmp_path / "lc.csv"
    code = main(["mc", "local-causality", "--graph", str(path), "--seed", "3",
                 "--report", str(report)])
    assert code == 0
    out = _last_json(capsys)
    assert out["locally_causal"] and out["screening_failures"] == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "query;atoms_checked;max_violation;verdict"
    assert len(lines) > 1 and all(ln.endswith(";ci") for ln in lines[1:])


@pytest.mark.parametrize("name", sorted(MC_LOCAL_CAUSALITY))
def test_mc_local_causality_pinned(name, tmp_path, capsys):
    bounds, csv_sha256, payload = MC_LOCAL_CAUSALITY[name]
    path, report = tmp_path / "g.json", tmp_path / "lc.csv"
    assert main(["lattice", "gen", *bounds, "--out", str(path)]) == 0
    assert main(["mc", "local-causality", "--graph", str(path), "--seed", "3",
                 "--report", str(report)]) == 0
    assert _last_json(capsys) == dict(payload, report=str(report))
    assert hashlib.sha256(report.read_bytes()).hexdigest() == csv_sha256


def test_export_dot_counts(tmp_path, box_file, capsys):
    out_path = tmp_path / "g.dot"
    code = main(["export", "dot", "--graph", str(box_file), "--out", str(out_path)])
    assert code == 0
    out = _last_json(capsys)
    assert out == {"directed": 14, "bidirected": 6, "out": str(out_path)}
    text = out_path.read_text()
    assert text.startswith("digraph G {") and text.endswith("}\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == BOX_DOT_SHA256
    assert main(["export", "dot", "--graph", str(tmp_path / "missing.json")]) == 2


def test_export_dot_labels_with_dot_syntax(tmp_path, capsys):
    from seplat.cli import graph_document_text
    from seplat.graph import build_graph

    path = tmp_path / "g.json"
    path.write_text(graph_document_text(build_graph(["x->y", "z"])))
    assert main(["export", "dot", "--graph", str(path)]) == 0
    assert json.loads(capsys.readouterr().err)["directed"] == 0

    # stdout is the DOT text alone; the summary goes to stderr
    g = build_graph(['a"b', "c\\d", "e"], [('a"b', "e")], [("c\\d", "e")])
    path.write_text(graph_document_text(g))
    assert main(["export", "dot", "--graph", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join([
        "digraph G {", '  "a\\"b";', '  "c\\\\d";', '  "e";',
        '  "a\\"b" -> "e";', '  "c\\\\d" -> "e" [dir=both];', "}", ""])
    assert json.loads(captured.err) == {"directed": 1, "bidirected": 1, "out": None}


def test_export_dot_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["export", "dot", "--graph", str(bad)]) == 2


def test_malformed_graph_documents_exit_2(tmp_path, diamond_file):
    diamond = json.loads(diamond_file.read_text())
    bad_docs = {
        "vertex_string": {"vertices": "abc", "directed": ["ab", "bc"], "bidirected": []},
        "edge_strings": {"vertices": ["a", "b", "c"], "directed": ["ab", "bc"],
                         "bidirected": []},
        "edge_triple": {"vertices": ["a", "b", "c"], "directed": [["a", "b", "c"]],
                        "bidirected": []},
        "vertex_number": {"vertices": ["a", 1], "directed": [], "bidirected": []},
        "edge_number": {"vertices": ["a", "b"], "directed": [["a", 2]], "bidirected": []},
        "not_object": ["a", "b"],
        "float_bound": dict(diamond, window=dict(diamond["window"], imax=5.0)),
        "bool_bound": dict(diamond, window=dict(diamond["window"], imin=False)),
        "string_bound": dict(diamond, window=dict(diamond["window"], jmax="5")),
        "stray_box_bound": dict(diamond, window=dict(diamond["window"], kmin=7)),
        "unknown_kind": dict(diamond, kind="hexagon"),
        "no_vertices": {"directed": [], "bidirected": []},
    }
    for name, doc in bad_docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["sep", "check", "--graph", str(path), "--a", "a", "--b", "c"]) == 2, name
        assert main(["export", "dot", "--graph", str(path)]) == 2, name


def test_json_round_trip_byte_stable(diamond_file):
    from seplat.cli import graph_document_text
    from seplat.graph import graph_from_json_dict

    text = diamond_file.read_text()
    g, kind, wdict = graph_from_json_dict(json.loads(text))
    assert graph_document_text(g, kind, wdict) == text
