#!/usr/bin/env python3
"""seplat benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep_box --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; seplat is imported from ``src/``.
Load shape: closed loop, one client, one process and one thread; numpy and
BLAS thread pools are pinned to one thread.  Repetitions of the workload's
job run back to back for ``--seconds``; timings are medians over them.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json: wall time of
one job, items per second, cold set-up time (median of fresh interpreters
that import seplat and load the graph document) and peak resident memory.
Times are given at reference machine speed: a fixed speed probe (probe.py)
runs before and after every timed job and cold start, and each timing is
scaled by the probes around it, so that the host's drifting speed cancels.
The raw times are printed too.
``--trace 1`` alternates untraced jobs with jobs that run with spans
installed around each layer's public calls, and prints every per-layer
metric, self-time coverage and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output matched its pinned reference and every cross-checked
verdict agreed, 1 otherwise.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COLD_STARTS = 13
MIN_REPS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def import_seplat() -> None:
    """Import seplat from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import seplat
    except ImportError as exc:
        raise SystemExit(f"error: cannot import seplat from {SRC}: {exc}")
    if not Path(seplat.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: seplat was imported from {seplat.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain",
                                         "--untracked-files=no"], cwd=ROOT, text=True,
                                        capture_output=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def cold_starts(wl: workloads.Workload, n: int, speed: probe.Probe) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    seplat and loaded the graph; the first spawn is a discarded warm-up.
    The probe runs before each counted spawn and after the last."""
    code = wl.cold_start_code(SRC)
    samples = []
    for i in range(n + 1):
        if i:
            speed()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _out, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"cold start failed ({proc.returncode}): {err.strip()[-500:]}")
        if i:
            samples.append(elapsed)
    speed()
    return samples


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        if problems:
            self.failed += attempted if failed is None else failed
            self.problems.extend(p for p in problems[:5] if p not in self.problems)


def run_reps(wl, seconds: float, tally: Tally, tracer=None, speed=None):
    """Repeat the workload's job for `seconds`.  Without a tracer every job
    runs untraced; with one, jobs alternate untraced and traced so that slow
    drift of the machine hits both alike.  Each kind runs at least MIN_REPS
    times.  Job 0 is a warm-up (lazy imports, first-touch allocations): its
    output is checked but it is not timed, and `seconds` starts after it.
    A speed probe, when given, runs before each timed job and after the
    last.  Returns (untraced walls, {traced job index: wall}, last outcome)."""
    plain: list[float] = []
    traced: dict[int, float] = {}
    outcome = None
    deadline = None
    index = 0
    while deadline is None or perf_counter() < deadline or len(plain) < MIN_REPS or (
            tracer is not None and len(traced) < MIN_REPS):
        inst = None
        if tracer is not None and index % 2:
            inst = tracing.install(tracer)
            tracer.begin_rep(index)
        if speed is not None and index:
            speed()
        t0 = perf_counter()
        try:
            outcome = wl.rep(index)
        except Exception as exc:  # a failed job is counted, not fatal
            tally.add(wl.items(), [f"rep {index}: {type(exc).__name__}: {exc}"])
            return plain, traced, None
        finally:
            if inst is not None:
                tracer.end_rep()
                inst.undo()
        wall = perf_counter() - t0
        if not index:
            deadline = perf_counter() + seconds
        elif inst is None:
            plain.append(wall)
        else:
            traced[index] = wall
        tally.add(wl.items(), wl.check(outcome))
        index += 1
    if speed is not None:
        speed()
    return plain, traced, outcome


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples above it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def describe(samples: list[float], unit: str, what: str) -> str:
    t = tail(samples)
    tail_text = f"p{t[0]} {t[1]:.6g} {unit}" if t else "no percentile has 10 samples above it"
    return f"median of {len(samples)} {what}; {tail_text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs a cut-down job for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_seplat()
    workloads.WORK_DIR.mkdir(exist_ok=True)
    env = environment()
    wl = workloads.WORKLOADS[args.workload](args.size, args.seed,
                                            workloads.load_reference())
    tally = Tally()
    details: dict[str, str] = {}

    if args.trace == 0:
        speed = probe.Probe()
        setup_raw = cold_starts(wl, COLD_STARTS, speed)
        setup = probe.at_reference_speed(setup_raw, speed.samples)
        first_job_probe = len(speed.samples)
        walls_raw, _traced, outcome = run_reps(wl, args.seconds, tally, speed=speed)
        walls = probe.at_reference_speed(walls_raw, speed.samples[first_job_probe:])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        if walls:
            values["norm_wall_s"] = statistics.median(walls)
            values["norm_items_per_s"] = wl.items() / values["norm_wall_s"]
        samples = {"norm_wall_s": walls, "wall_s": walls_raw, "setup_s": setup,
                   "setup_raw_s": setup_raw, "probe_s": speed.samples}
        details = {
            "norm_wall_s": describe(walls, "s", "jobs") if walls else "no job completed",
            "norm_items_per_s": f"{wl.items()} {wl.item} per job / norm_wall_s",
            "setup_s": describe(setup, "s", "cold starts"),
            "peak_rss_mb": "ru_maxrss of the benchmark process after the timed jobs",
        }
        raw_lines = {
            "wall_s (raw)": (walls_raw, "jobs"),
            "setup_s (raw)": (setup_raw, "cold starts"),
            "probe_s (raw)": (speed.samples, "probes"),
        }
        wanted = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        plain, traced, outcome = run_reps(wl, args.seconds, tally, tracer)
        per_rep = [tracing.rep_metrics(tracer, index, wall) for index, wall in traced.items()]
        values = tracing.median_metrics(per_rep) if per_rep else {}
        if plain and traced:
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)
        spans = workloads.WORK_DIR / f"spans_{wl.name}_seed{args.seed}.csv.gz"
        tracer.write(spans)
        samples = {"untraced_wall_s": plain, "traced_wall_s": list(traced.values())}
        details = {"trace.wall_s": f"{describe(samples['traced_wall_s'], 's', 'traced jobs')}"
                                   f"; {describe(plain, 's', 'untraced jobs')}; spans in {spans}"}
        raw_lines = {}
        wanted = spec["per_layer"]

    if outcome is not None:
        checked, problems = wl.cross_check(outcome)
        tally.add(checked, problems, failed=len(problems))

    # a metric the run could not measure (no repetition finished) is null
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    correct = tally.failed == 0 and tally.attempted > 0 and outcome is not None
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    print(f"# workload {wl.name} ({args.size}): {why}")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}; closed loop, one "
          f"client, one process and thread; items are {wl.item}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        note = f"  ({details[name]})" if name in details else ""
        shown = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:32s} {shown} {m['unit']}{note}")
    for name, (raw, what) in raw_lines.items():
        shown = f"{statistics.median(raw):.6g} s  ({describe(raw, 's', what)})" if raw else "-"
        print(f"{name:32s} {shown}")
    print(f"{'error_rate':32s} {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.6g}")
    for problem in tally.problems:
        print(f"MISMATCH {problem}")
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = dict(result, workload=wl.name, size=args.size, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env, problems=tally.problems,
                  samples=samples)
    (workloads.WORK_DIR / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
