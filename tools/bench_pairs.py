"""Alternating parent/change runs of the benchmark, summarised as a ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload sir100-varying [--seed 9001] --pairs 10 [--seconds 25] --out BENCH_34.json

Runs ``python3 bench/run.py --trace 0`` from each checkout in turn, one
process at a time, the parent first in odd pairs and the change first in
even ones.  Each run's result line, with its calibration scale and unscaled
iteration time from the checkout's ``.bench_out/``, goes into ``runs``; an
existing ``--out`` file keeps its runs and every other key, and the pairs go
on from its last one.  ``summary`` is then recomputed over all runs: per
workload and seed, each side's values, median and quartiles
(``numpy.percentile`` 25 and 75) of every end-to-end metric, and the pairs in
which the change's value is lower; ``src_genfilter_lines`` holds
``tools/src_lines.py``'s counts for both trees.  Nothing under ``bench/``
changes; each run leaves its details in its checkout's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from src_lines import count

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its result plus the details it saved."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--trace", "0"] + ([] if seed is None else ["--seed", str(seed)])
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    *_, prov_line, result_line = done.stdout.splitlines()
    prov, result = json.loads(prov_line)["provenance"], json.loads(result_line)
    details = json.loads((tree / ".bench_out" / f"{workload}-seed{prov['seed']}-trace0.json")
                         .read_text())
    scale = details["calibration"]["scale"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "import_s": details["import_s"], "calibration_scale": scale,
            "unscaled_iteration_s": details["unscaled_s"]["iteration_s"],
            "gate": details.get("gate", {})}


def _stats(values: list[float]) -> tuple[float, list[float]]:
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return round(float(q50), 4), [round(float(q25), 4), round(float(q75), 4)]


def summary(runs: list[dict]) -> dict:
    """Per ``"<workload>, seed <seed>"``: each side's values, median and quartiles of every
    metric of the runs and of the unscaled iteration time and calibration scale, and the
    pairs in which the change's value is lower.  A pair counts once both its runs are in."""
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        key = f"{run['workload']}, seed {run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for key, pairs in sorted(groups.items()):
        done = [pairs[p] for p in sorted(pairs) if set(pairs[p]) == set(SIDES)]
        row = out[key] = {"pairs": len(done)}
        if not done:
            continue
        row["correct"] = {side: all(pair[side]["correct"] for pair in done) for side in SIDES}
        for field in ("attempted", "failed"):
            row[field] = {side: sum(pair[side][field] for pair in done) for side in SIDES}
        for name in [*done[0]["parent"]["metrics"], "unscaled_iteration_s", "calibration_scale"]:
            values = {side: [{**pair[side], **pair[side]["metrics"]}[name] for pair in done]
                      for side in SIDES}
            if None in values["parent"] + values["change"]:  # a value that was not finite
                continue
            entry = row[name] = {side: [round(v, 4) for v in values[side]] for side in SIDES}
            for side in SIDES:
                entry[f"{side}_median"], entry[f"{side}_quartiles"] = _stats(values[side])
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            entry["change_lower_in_pairs"] = f"{wins}/{len(done)}"
            parent, change = (float(np.median(values[side])) for side in SIDES)
            entry["median_change"] = f"{(change / parent - 1.0) * 100.0:+.1f}%"
    return out


def src_lines(tree: Path) -> dict:
    counts = [count(p) for p in sorted((tree / "src" / "genfilter").glob("*.py"))]
    return {"total": sum(t for t, _ in counts), "code_only": sum(c for _, c in counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = record.setdefault("runs", [])
    seed = "default" if args.seed is None else args.seed
    first = 1 + max((r["pair"] for r in runs
                     if (r["workload"], r["seed"]) == (args.workload, seed)), default=0)
    for pair in range(first, first + args.pairs):
        for side in (SIDES if pair % 2 else SIDES[::-1]):
            run = run_once(trees[side], args.workload, args.seed, args.seconds)
            runs.append({"side": side, "workload": args.workload, "seed": seed,
                         "pair": pair, "trace": 0, **run})
            print(f"pair {pair} {side}: {json.dumps(run['metrics'])}", flush=True)
            record["summary"] = summary(runs)
            record["src_genfilter_lines"] = {side: src_lines(tree)
                                             for side, tree in trees.items()}
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
