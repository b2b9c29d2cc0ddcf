#!/usr/bin/env python3
"""Record the benchmark's reference outputs in perfbench/reference.json.

    python3 perfbench/pin.py

The references were recorded on the commit that introduced the benchmark,
and every later commit must reproduce them.  Re-recording them on a later
commit would hide any change of output, so do that only when a change of
output is the point of a change, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def pin_sweep(wl: workloads.Sweep) -> dict:
    code, stdout = wl.rep(0)
    payload = json.loads(stdout)
    payload.pop("report")
    counterexamples = {"+".join(region) for region in payload["counterexamples"]}
    return {
        "exit_code": code,
        "payload": payload,
        "csv_sha256": workloads._sha256(wl.report),
        "witnesses": {row["candidate_set"]: row["witness"] for row in wl._rows()
                      if row["candidate_set"] in counterexamples},
    }


def pin_screening(wl: workloads.ScreeningBatch) -> dict:
    _g, shielded, queries, _checks, worst = wl.rep(0)
    if worst > wl.tol:
        raise SystemExit(f"screening batch violates CI by {worst:.3e}; refusing to pin")
    return {"shielder_off_sets": len(shielded), "shielder_off_sha256": workloads.sets_digest(shielded),
            "queries": len(queries)}


def pin_soundness(wl: workloads.SoundnessCli) -> dict:
    code, stdout = wl.rep(0)
    payload = json.loads(stdout)
    payload.pop("report")
    return {"exit_code": code, "payload": payload,
            "csv_sha256": workloads._sha256(wl.report)}


PINNERS = {"sweep_box": pin_sweep, "sweep_diamond": pin_sweep,
           "screening_batch": pin_screening, "soundness_cli": pin_soundness}


def main() -> None:
    os.chdir(run.ROOT)
    run.import_seplat()
    workloads.WORK_DIR.mkdir(exist_ok=True)
    reference: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for size in workloads.SIZES:
            # a workload object needs its own entry to exist; fill it after
            reference[name][size] = {}
            wl = cls(size, 0, reference)
            reference[name][size] = PINNERS[name](wl)
            print(f"{name} {size}: {reference[name][size]}"[:300], file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")


if __name__ == "__main__":
    main()
