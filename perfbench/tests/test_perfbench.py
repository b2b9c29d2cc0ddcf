"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Runs every workload at its tiny size, traced and untraced, and checks that a
tampered reference or a flipped verdict is reported as a failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

run.import_seplat()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, root: Path = ROOT) -> tuple[int, dict, str]:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--seconds", "0.1", "--size", "tiny", *args],
                          cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout


@pytest.fixture(autouse=True)
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    workloads.WORK_DIR.mkdir(exist_ok=True)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_and_reports_every_metric(name, trace):
    code, result, out = bench("--workload", name, "--seed", "5", "--trace", trace)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert isinstance(value["value"], (int, float)) and value["unit"] == m["unit"]
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_tampered_reference_fails_the_run():
    # a copy of the checkout inside the benchmark's own scratch directory
    copy = ROOT / workloads.WORK_DIR / "tampered_checkout"
    shutil.rmtree(copy, ignore_errors=True)
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    reference = workloads.load_reference()
    reference["sweep_box"]["tiny"]["csv_sha256"] = "0" * 64
    (copy / "perfbench" / "reference.json").write_text(json.dumps(reference),
                                                       encoding="utf-8")
    try:
        code, result, out = bench("--workload", "sweep_box", "--seed", "5", "--trace", "0",
                                  root=copy)
    finally:
        shutil.rmtree(copy)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "MISMATCH CSV report sha256" in out


def test_flipped_separation_verdict_is_caught(monkeypatch):
    import seplat.lattice
    from seplat.separation import SeparationVerdict

    wl = workloads.SweepDiamond("tiny", 5, workloads.load_reference())
    original = seplat.lattice.is_separated

    def flipped(g, q):
        verdict = original(g, q)
        if q.cond == frozenset({"d(0,2)"}):
            return SeparationVerdict(not verdict.separated, None)
        return verdict

    monkeypatch.setattr(seplat.lattice, "is_separated", flipped)
    outcome = wl.rep(0)
    monkeypatch.undo()
    assert any("sha256" in p for p in wl.check(outcome))
    checked, problems = wl.cross_check(outcome)
    assert checked == wl.items() and any(p.startswith("d(0,2):") for p in problems)


def test_ci_violation_above_tolerance_is_caught(monkeypatch):
    import seplat.markov

    wl = workloads.ScreeningBatch("tiny", 5, workloads.load_reference())
    monkeypatch.setattr(seplat.markov, "ci_violation", lambda *a, **k: 0.25)
    assert any("max CI violation" in p for p in wl.check(wl.rep(0)))


def test_changed_soundness_payload_is_caught():
    reference = workloads.load_reference()
    reference["soundness_cli"]["tiny"]["payload"]["skipped"] -= 1
    wl = workloads.SoundnessCli("tiny", 5, reference)
    assert any(p.startswith("payload") for p in wl.check(wl.rep(0)))


def test_probe_scales_a_job_by_the_probes_around_it():
    import probe

    # the second job ran while the machine was twice as slow
    walls = [0.3, 0.6]
    probes = [probe.REFERENCE_S, probe.REFERENCE_S, 3 * probe.REFERENCE_S]
    assert probe.at_reference_speed(walls, probes) == pytest.approx([0.3, 0.3])
    with pytest.raises(ValueError):
        probe.at_reference_speed(walls, probes[:2])
