"""Seeded benchmark of genfilter: four likelihood workloads, end to end and by layer.

    python3 bench/run.py --workload sir100-crosscheck --seed 101 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory and nowhere else.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
measures half the time untraced and half traced, then runs the layer
probes, and reports the per-layer metrics plus the tracing overhead.
Details, provenance and (with ``--trace 1``) the spans go to
``.bench_out/`` at the root of the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One thread for every numeric library: the benchmark runs in one process
# with no extra threads.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sir100-crosscheck", "sir1000-long", "sir100-varying", "cli-chain")
DEFAULT_SEEDS = {"sir100-crosscheck": 101, "sir1000-long": 5,
                 "sir100-varying": 101, "cli-chain": 101}


def import_genfilter() -> float:
    """Import genfilter from the checkout's ``src/``; the seconds it took."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import genfilter
    except ImportError as exc:
        raise SystemExit(f"error: cannot import genfilter from {src}: {exc}") from None
    elapsed = time.perf_counter() - start
    if not Path(genfilter.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: genfilter came from {genfilter.__file__}, not {src}")
    return elapsed


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "genfilter").glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "src_genfilter_lines": src_lines}


def measure(run, args, import_s: float) -> tuple[dict, dict]:
    """Metrics of one run, and the details behind them."""
    import workloads as wl
    setups = []
    for _ in range(wl.SETUP_REPEATS):
        start = time.perf_counter()
        run.setup()
        setups.append(time.perf_counter() - start)
    details = {"import_s": import_s, "setup_repeats_s": setups}
    if args.trace == 0:
        plain = run.iterate("plain", args.seconds)
        details["gate"] = run.gate()
        filter_phase = "cli.filter" if args.workload == "cli-chain" else "filter"
        unscaled = {"setup_s": import_s + statistics.median(setups),
                    "iteration_s": statistics.median(plain),
                    "filter_s": run.tracer.median(filter_phase)}
        scale = run.calibration.scale()
        values = {name: value * scale for name, value in unscaled.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = wl.E2E_METRICS
        details["iterations_s"] = plain
        details["unscaled_s"] = unscaled
    else:
        plain = run.iterate("plain", args.seconds / 2)
        run.tracer.calls = True
        traced = run.iterate("traced", args.seconds / 2)
        details["gate"] = run.gate()
        try:
            values = wl.probes(run)
        except wl.Aborted:
            values = {}
        values["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = wl.LAYER_METRICS
        details["iterations_s"] = {"plain": plain, "traced": traced}
        tags = {("traced", i) for i in range(len(traced))}
        details["layer_self_s_per_traced_iteration"] = {
            k: v / len(traced) for k, v in run.tracer.layer_self_times(tags).items()}
    details["calibration"] = {"scale": run.calibration.scale(),
                              "samples_s": run.calibration.samples}
    measured = {("plain", i) for i in range(len(plain))}
    details["phases_s"] = {name: run.tracer.durations(name, measured)
                           for name in sorted({s["name"] for s in run.tracer.spans
                                               if s["iteration"] in measured})}
    metrics = {name: {"value": _number(values[name]), "unit": unit}
               for name, unit in units.items() if name in values}
    return metrics, details


def _number(value):
    if isinstance(value, int):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed of the ROADMAP fixture)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time; at least two iterations always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]

    import_s = import_genfilter()
    import workloads as wl

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out / f"{stem}-{os.getpid()}"
    run = wl.Run(args.workload, args.seed, wl.SIZES[args.workload], workdir)
    try:
        metrics, details = measure(run, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"provenance": provenance(args), "result": result,
              "errors": run.errors, **details}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        run.tracer.write(out / f"{stem}.spans.jsonl")
    for err in run.errors:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
