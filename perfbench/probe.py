"""Machine-speed probe: a fixed piece of work, timed between jobs.

The benchmark runs on a few cores of a shared host.  How fast those cores run
drifts with the host's other load: the same job takes anywhere from 1x to
1.8x its quiet time, in phases that last seconds, and the guest sees no steal
time (thread CPU time inflates with wall time).  Medians over a 20 s run do
not ride that out, because a run can fall mostly into slow or mostly into
fast phases.

The probe measures the machine's present speed with work that the program
under test does not share: a pure-Python depth-first search over a fixed
dict-of-lists graph (the interpreter-bound kind of work of the lattice and
separation layers) and a few numpy passes over an 8 MB array (the streaming
kind of work of the markov layer).  A job timed between two probes is
expressed at reference speed as

    wall / mean(probe before, probe after) * REFERENCE_S

so a job that ran while the host was slow is scaled back by the same factor
as the probes around it.  REFERENCE_S is a constant, about the probe's
median on the 2-vCPU x86-64 VM the benchmark was tuned on.  It only fixes the
unit; any constant would do, as long as it never changes between the runs
that are compared.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.05
GRAPH_NODES = 20_000
ARRAY_LEN = 1 << 20     # float64: 8 MB, larger than the last-level cache share
ARRAY_PASSES = 8


class Probe:
    """Callable that runs the probe once and returns its wall time."""

    def __init__(self) -> None:
        n = GRAPH_NODES
        self.graph = {i: [(i * 7 + 1) % n, (i * 13 + 3) % n, (i * 29 + 5) % n]
                      for i in range(n)}
        self.array = np.random.default_rng(0).random(ARRAY_LEN)
        self.samples: list[float] = []
        self()  # warm-up: first-touch page faults and lazy numpy set-up
        self.samples.clear()

    def _search(self) -> int:
        seen = {0}
        stack = [0]
        graph = self.graph
        while stack:
            for w in graph[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    def _stream(self) -> float:
        total = 0.0
        for _ in range(ARRAY_PASSES):
            total += float((self.array * 1.0001 + 0.5).sum())
        return total

    def __call__(self) -> float:
        t0 = perf_counter()
        if self._search() != GRAPH_NODES or not self._stream() > 0:
            raise RuntimeError("speed probe computed a wrong result")
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def at_reference_speed(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall time scaled by the probes taken just before and after it.

    ``probes[i]`` ran just before ``walls[i]`` and ``probes[i + 1]`` just
    after it, so ``probes`` has at least one more entry than ``walls``."""
    if len(probes) <= len(walls):
        raise ValueError(f"{len(walls)} timings need {len(walls) + 1} probes, "
                         f"got {len(probes)}")
    return [w / ((probes[i] + probes[i + 1]) / 2) * REFERENCE_S
            for i, w in enumerate(walls)]
