"""Where the loop memo's saving sits: Figure 4 at 4 KiB, per pipeline.

    PYTHONPATH=src python benchmarks/memo_bench.py \\
        [--pairs PAIRS.jsonl] [--out BENCH_memo.json]

Runs each Figure 4 pipeline -- every cipher's ROT kernel at 4096 B on
alpha-21264, base-4W and DF-base, the ``fig4-4k`` workload's seed-0
inputs -- with the loop memo on and off, checks that both give identical
``SimStats``, and records the loop iterations, how many the memo
replayed, and the pipeline seconds of each side.

``--pairs`` names the JSON lines that alternating ``perfbench/run.py
--workload fig4-4k --trace 0`` runs printed, one object per run with its
``pair``, ``seed``, ``side`` (``parent`` or ``change``) and the runner's
``result``; the output carries them, with medians, quartiles and wins,
next to the per-pipeline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.analysis.throughput import THROUGHPUT_CONFIGS, default_options
from repro.runner import Runner
from repro.runner.cache import ResultCache
from repro.sim.timing.generic import GenericPipeline

SESSION_BYTES = 4096


def _time_pipeline(run, config, memo: bool):
    trace = run.trace
    start = time.perf_counter()
    pipeline = GenericPipeline(config, trace.static, trace.program,
                               warm_ranges=run.warm_ranges, _memo=memo)
    for chunk in trace.chunks(4096):
        pipeline.feed(chunk)
    stats = pipeline.finish()
    return stats, pipeline.memo_counts, time.perf_counter() - start


def pipelines() -> list[dict]:
    runner = Runner(cache=ResultCache.disabled())
    rows = []
    for options in default_options(SESSION_BYTES):
        run = runner.functional(options)
        for config in THROUGHPUT_CONFIGS:
            plain, _, plain_s = _time_pipeline(run, config, memo=False)
            memo, (iterations, replayed), memo_s = _time_pipeline(
                run, config, memo=True)
            if memo != plain:
                raise AssertionError(f"{options.cipher}/{config.name}: "
                                     "memo and plain SimStats differ")
            rows.append({
                "cipher": options.cipher,
                "config": config.name,
                "instructions": plain.instructions,
                "iterations": iterations,
                "replayed": replayed,
                "plain_s": round(plain_s, 3),
                "memo_s": round(memo_s, 3),
            })
            print(f"{options.cipher:<9} {config.name:<12} "
                  f"{replayed:>4}/{iterations:<4} "
                  f"{plain_s:6.3f} s -> {memo_s:6.3f} s", flush=True)
    return rows


def _summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 3),
            "q1": round(quartiles[0], 3), "q3": round(quartiles[2], 3)}


def end_to_end(path: str) -> dict:
    runs = [json.loads(line) for line in open(path) if line.strip()]
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = []
    for number, sides in sorted(by_pair.items()):
        entry = {"pair": number, "seed": sides["parent"]["seed"]}
        for side in ("parent", "change"):
            result = sides[side]["result"]
            entry[side] = {name: round(metric["value"], 3)
                           for name, metric in result["metrics"].items()}
            entry[side]["failed"] = result["failed"]
            entry[side]["attempted"] = result["attempted"]
        pairs.append(entry)
    summary = {}
    for metric in ("wall_s", "setup_s", "peak_rss_mb"):
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        summary[metric] = {
            "parent": _summary(parent),
            "change": _summary(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return {"workload": "fig4-4k", "seconds_per_run": 30,
            "pairs": pairs, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", help="perfbench runs, one JSON per line")
    parser.add_argument("--out", default="BENCH_memo.json")
    args = parser.parse_args(argv)
    rows = pipelines()
    memoized = [row for row in rows if row["iterations"]]
    document = {
        "benchmark": "loop memo, Figure 4 at 4096 B",
        "environment": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "pipelines": rows,
        "totals": {
            "plain_s": round(sum(row["plain_s"] for row in rows), 3),
            "memo_s": round(sum(row["memo_s"] for row in rows), 3),
            "iterations": sum(row["iterations"] for row in memoized),
            "replayed": sum(row["replayed"] for row in memoized),
        },
    }
    if args.pairs:
        document["end_to_end"] = end_to_end(args.pairs)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
