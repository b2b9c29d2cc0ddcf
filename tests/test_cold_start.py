"""Graph-side work loads neither numpy nor seplat.markov.

`import seplat` and every graph command of the CLI stay on the graph side
(graph, lattice, separation); the Markov names of the package and the `mc`
commands load seplat.markov, and numpy with it, on first use. No seplat
process imports dataclasses, whose import brings in inspect, ast, dis and
tokenize; graph commands load no inspect at all (numpy loads it for `mc`).
Each case runs in a fresh interpreter, because this test process has long
loaded all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Written by `seplat lattice gen --kind diamond --imin 0 --imax 3 --jmin 0 --jmax 3`.
DOC = ROOT / "tests" / "data" / "diamond_i0-3_j0-3.json"
A, B = "d(1,3)", "d(3,1)"
PAR_A = "d(0,2)+d(0,3)+d(1,2)"
HEAVY = ("numpy", "seplat.markov")
RECORD_IMPORTS = ("dataclasses", "inspect")

# argv of seplat.cli.main, with {tmp} for the case's scratch directory
GRAPH_COMMANDS = {
    "lattice_gen": ["lattice", "gen", "--kind", "diamond", "--imin", "0", "--imax", "3",
                    "--jmin", "0", "--jmax", "3", "--out", "{tmp}/g.json"],
    "sep_check": ["sep", "check", "--graph", str(DOC), "--a", A, "--b", B, "--c", PAR_A],
    "sep_minimal": ["sep", "minimal", "--graph", str(DOC), "--a", A, "--b", B],
    "shield_check": ["shield", "check", "--graph", str(DOC), "--a", A, "--b", B,
                     "--region", PAR_A],
    "prop1_verify": ["prop1", "verify", "--graph", str(DOC), "--a", A, "--b", B,
                     "--max-cells", "3", "--report", "{tmp}/rows.csv"],
    "export_dot": ["export", "dot", "--graph", str(DOC), "--out", "{tmp}/g.dot"],
}


def _fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter with src/ on the path; return the
    JSON object it prints on its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_main(argv: list[str] | None, watched: tuple[str, ...] = HEAVY) -> dict:
    """Import seplat and seplat.cli, run main(argv) unless argv is None, and
    report the exit code and which of the watched modules got loaded."""
    return _fresh(
        "import json, sys\n"
        "import seplat, seplat.cli\n"
        f"code = None if {argv!r} is None else seplat.cli.main({argv!r})\n"
        f"print(json.dumps({{'code': code, 'loaded': [m for m in {watched!r} "
        "if m in sys.modules]}))\n")


def test_committed_document_is_lattice_gen_output():
    from seplat.cli import graph_document_text
    from seplat.lattice import DIAMOND, Window, build_graph, window_to_dict

    window = Window(0, 3, 0, 3)
    text = graph_document_text(build_graph(DIAMOND, window), DIAMOND,
                               window_to_dict(DIAMOND, window))
    assert DOC.read_text(encoding="utf-8") == text


def test_import_loads_no_numpy():
    assert _run_main(None) == {"code": None, "loaded": []}


@pytest.mark.parametrize("name", sorted(GRAPH_COMMANDS))
def test_graph_commands_load_no_numpy(name, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in GRAPH_COMMANDS[name]]
    assert _run_main(argv) == {"code": 0, "loaded": []}


@pytest.mark.parametrize("name", ["import"] + sorted(GRAPH_COMMANDS))
def test_graph_side_loads_no_dataclasses_or_inspect(name, tmp_path):
    if name == "import":
        assert _run_main(None, RECORD_IMPORTS) == {"code": None, "loaded": []}
        return
    argv = [a.replace("{tmp}", str(tmp_path)) for a in GRAPH_COMMANDS[name]]
    assert _run_main(argv, RECORD_IMPORTS) == {"code": 0, "loaded": []}


def test_mc_soundness_loads_no_dataclasses():
    argv = ["mc", "soundness", "--graph", str(DOC), "--trials", "2"]
    assert _run_main(argv, HEAVY + ("dataclasses",)) == {"code": 0, "loaded": list(HEAVY)}


def test_mc_commands_load_markov():
    """The guard can see a load: an mc command brings in both modules."""
    argv = ["mc", "soundness", "--graph", str(DOC), "--trials", "2"]
    assert _run_main(argv) == {"code": 0, "loaded": list(HEAVY)}


def test_markov_names_resolve_on_first_use():
    out = _fresh(
        "import json, sys\n"
        "import seplat\n"
        "try:\n"
        "    seplat.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "before = 'seplat.markov' in sys.modules\n"
        "from seplat import random_cpts, ancestral_margin, ci_violation, EventRef\n"
        "import seplat.markov as mk\n"
        "tour = [random_cpts is mk.random_cpts, ancestral_margin is mk.ancestral_margin,\n"
        "        ci_violation is mk.ci_violation, EventRef is mk.EventRef]\n"
        "table = {n: getattr(seplat, n) is getattr(mk, n) for n in seplat._MARKOV_NAMES}\n"
        "print(json.dumps({'unknown': unknown, 'before': before, 'tour': tour,\n"
        "                  'table': table}))\n")
    assert out["unknown"] == "module 'seplat' has no attribute 'no_such_name'"
    assert out["before"] is False  # an unknown name loads nothing
    assert out["tour"] == [True] * 4
    assert len(out["table"]) == 12 and all(out["table"].values())
