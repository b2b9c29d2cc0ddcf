import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seplat.cli import main

A, B = "d(1,4)", "d(4,1)"
ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the canonical sweep reports written by scripts/prop1_sweeps.py
# (box sweep with --box-max-cells 2); the diamond reports are also what
# `seplat prop1 verify --max-cells 9` writes for the canonical probes.
CANONICAL_CSV_SHA256 = {
    "diamond_l3c": "9e97ee7166dd8939b4b419fd16d1ec93033b2ebd98c4030b251b261abe6ffe04",
    "diamond_l3q": "0a8bbef5c06de195e4ccbc8b5ea147b8dedd3cc23f2d07ed59714c9c3d69d630",
    "box_l3c": "7d3db423858d47a02ef5eee96679f03e88b704d13e9c5719719c7fdab5af93b4",
}


# `mc soundness --trials 40 --seed 0 --max-cond 6` on the 6x6 diamond: its one
# checked trial prints an exact max_violation, so any change to the bits of
# the CI arithmetic shows here.
MC_SOUNDNESS_SHA256 = "64a11f7edea71207a0bd824d3a023bd54ff917bd296369e958a32971d0e98f1d"

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "prop1_sweeps.py"),
                    "--box-max-cells", "2", "--out-dir", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    for name, digest in CANONICAL_CSV_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest
    for name, variant in (("diamond_l3c", "l3c"), ("diamond_l3q", "l3q")):
        report = tmp_path / f"cli_{name}.csv"
        assert main(["prop1", "verify", "--graph", str(diamond_file), "--a", A, "--b", B,
                     "--variant", variant, "--max-cells", "9", "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == CANONICAL_CSV_SHA256[name]


def test_prop1_verify_max_cells_zero(diamond_file, capsys):
    code = main(["prop1", "verify", "--graph", str(diamond_file), "--a", A,
                 "--b", B, "--max-cells", "0"])
    assert code == 0
    assert _last_json(capsys)["candidates"] == 0


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
    assert _last_json(capsys)["directed"] == 0

    g = build_graph(['a"b', "c\\d", "e"], [('a"b', "e")], [("c\\d", "e")])
    path.write_text(graph_document_text(g))
    assert main(["export", "dot", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == ["digraph G {", '  "a\\"b";', '  "c\\\\d";', '  "e";',
                          '  "a\\"b" -> "e";', '  "c\\\\d" -> "e" [dir=both];', "}"]
    assert json.loads(lines[-1]) == {"directed": 1, "bidirected": 1, "out": None}


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
