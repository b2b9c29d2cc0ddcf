#!/usr/bin/env python3
"""Run the canonical shielding-vs-separation sweeps and write CSV reports.

Sweeps the 6x6 diamond window (both L3 variants) and the 6x9 box window,
joining the geometric shielder-off verdict of every candidate region with
the separation verdict of its vertex set.  The box sweep is the interesting
one: it finds shielder-off regions that are m-connected through conditioned
spouse colliders, and it reports them rather than hiding them.
"""

import argparse
import pathlib
import time

from seplat.cli import CSV_HEADER, sweep_csv_row, write_report
from seplat.graph import format_path
from seplat.lattice import (
    BOX,
    DIAMOND,
    L3C,
    L3Q,
    Window,
    canonical_probe_pair,
    prop1_sweep,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="sweep_reports")
    parser.add_argument("--box-max-cells", type=int, default=5)
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("diamond_l3c", DIAMOND, Window(0, 5, 0, 5), L3C, 9),
        ("diamond_l3q", DIAMOND, Window(0, 5, 0, 5), L3Q, 9),
        ("box_l3c", BOX, Window(0, 5, 0, 8), L3C, args.box_max_cells),
    ]
    for name, kind, window, variant, max_cells in jobs:
        cell_a, cell_b = canonical_probe_pair(kind, window)
        t0 = time.perf_counter()
        rep = prop1_sweep(kind, window, cell_a, cell_b, variant, max_cells)
        elapsed = time.perf_counter() - t0
        path = out_dir / f"{name}.csv"
        write_report(path, CSV_HEADER, map(sweep_csv_row, rep.rows))
        print(f"{name}: {rep.total} candidates, {rep.shielder_off_count} "
              f"shielder-off, {len(rep.counterexamples)} counterexamples "
              f"({elapsed:.1f}s) -> {path}")
        for row in rep.counterexamples:
            print(f"  counterexample {'+'.join(row.region)}")
            print(f"    witness {format_path(row.witness)}")


if __name__ == "__main__":
    main()
