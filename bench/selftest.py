"""Self-test of the benchmark: every workload once, at a tiny size.

    python3 bench/selftest.py

Asserts that BENCHMARK.json names exactly the metrics the benchmark emits,
that each workload emits every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``) with its unit and no failed operation, and
that the filter-vs-oracle z gate trips when the oracle reference is offset
by 1.0.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys

import run as bench


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def main() -> int:
    import_s = bench.import_genfilter()
    import workloads as wl

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(declared["end_to_end"] == wl.E2E_METRICS, "end_to_end differs from E2E_METRICS")
    check(declared["per_layer"] == wl.LAYER_METRICS, "per_layer differs from LAYER_METRICS")
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workload list differs")

    workdir = bench.ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    try:
        for workload in bench.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                args = argparse.Namespace(workload=workload, seed=bench.DEFAULT_SEEDS[workload],
                                          seconds=0.0, trace=trace)
                run = wl.Run(workload, args.seed, wl.TINY, workdir / f"{workload}-{trace}")
                metrics, _ = bench.measure(run, args, import_s)
                where = f"{workload} --trace {trace}"
                check(run.failed == 0, f"{where}: {run.errors}")
                for name, unit in declared[kind].items():
                    check(name in metrics and metrics[name]["unit"] == unit
                          and metrics[name]["value"] is not None, f"{where}: metric {name}")
                check(set(metrics) == set(declared[kind]), f"{where}: extra metrics")
                print(f"ok  {where}: {len(metrics)} metrics, {run.attempted} operations")

        sizes = dataclasses.replace(wl.TINY, min_iterations=10)
        run = wl.Run("sir100-crosscheck", 101, sizes, workdir / "gate")
        run.setup()
        run.iterate("plain", 0.0)
        z, bound, ok = wl.z_gate(run.estimates, run.reference)
        check(ok, f"z gate fails on the true oracle value: z={z:.3g}, bound={bound:.3g}")
        run.reference += 1.0
        detail = run.gate()
        check(run.failed == 1 and run.errors[-1].startswith("filter_vs_oracle"),
              f"z gate did not trip on an offset reference: {detail}")
        print(f"ok  z gate: {z:.2f} on the oracle, {detail['z']:.1f} with it offset by 1.0 "
              f"(bound {bound:.2f})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
