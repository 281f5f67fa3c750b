"""One measured unit of a benchmark workload, in a fresh process.

``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH`` and ``REPRO_CACHE_DIR`` naming the unit's cache.  The
worker imports what the report CLI imports, prints ``ready`` (the parent
times process start plus imports up to that line as set-up), runs the
unit once on the shipped defaults and prints one JSON result line.  A
``probe`` spec stops after ``ready``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import uuid

#: Session of the report workloads.  The full report at 1 KiB takes about
#: 45 s cold on a 2-core VM, longer than one run may measure; at 64 B it
#: still produces every table and figure and takes about 5 s cold.
REPORT_SESSION_BYTES = 64

#: Figure 4 at the paper's session length.
FIG4_SESSION_BYTES = 4096


def shipped_runner():
    """The runner the CLIs build when given no flags."""
    import argparse

    from repro.tools.cli import add_runner_arguments, runner_from_args

    parser = argparse.ArgumentParser()
    add_runner_arguments(parser)
    return runner_from_args(parser.parse_args([]))


def fig4_options(seed: int):
    """Figure 4's sweep; seeds other than 0 draw key and plaintext."""
    from repro.ciphers.suite import SUITE_BY_NAME
    from repro.isa import Features
    from repro.kernels import KERNEL_NAMES
    from repro.runner import ExperimentOptions

    rng = random.Random(seed)
    options = []
    for cipher in KERNEL_NAMES:
        extra = {}
        if seed:
            extra = {
                "key": rng.randbytes(SUITE_BY_NAME[cipher].key_bytes),
                "plaintext": rng.randbytes(FIG4_SESSION_BYTES),
            }
        options.append(ExperimentOptions(
            cipher=cipher, features=Features.ROT,
            session_bytes=FIG4_SESSION_BYTES, **extra,
        ))
    return options


def run_unit(workload: str, seed: int, runner) -> str:
    """Run one unit of ``workload``; returns its figure text."""
    if workload == "fig4-4k":
        from repro.analysis import throughput

        return throughput.render_figure4(
            throughput.run(fig4_options(seed), runner=runner)
        )
    import io

    from repro.analysis.report import full_report

    out = io.StringIO()
    full_report(REPORT_SESSION_BYTES, out, runner=runner)
    return out.getvalue()


def _quantile(values: list, index: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[index]


def layer_metrics(rec, runner, wall: float, reports_before) -> dict:
    """The per-layer metrics of one traced unit."""
    from repro.sim.backends.compiled import compile_reports
    from repro.sim.timing.specialized import specialization_reports

    compiled = compile_reports()[reports_before[0]:]
    specialized = specialization_reports()[reports_before[1]:]
    backends_codegen = sum(r.compile_seconds for r in compiled)
    timing_exec = rec.self_s["timing.exec"]
    keys = [run.experiment_key(exp) for run, exp in rec.uncached_results]
    cache = runner.cache
    written = sum(os.path.getsize(path) for path in rec.written_paths
                  if os.path.exists(path))
    return {
        "timing.exec_s": timing_exec,
        "timing.instructions": rec.instructions,
        "timing.ns_per_inst": (timing_exec / rec.instructions * 1e9
                               if rec.instructions else 0.0),
        "timing.run_ms.p50": _quantile(rec.run_ms, 4),
        "timing.run_ms.p90": _quantile(rec.run_ms, 8),
        "timing.codegen_s": rec.self_s["timing.codegen"],
        "timing.pipelines": rec.pipelines,
        "timing.codegen_lines": sum(r.source_lines for r in specialized),
        "backends.exec_s": rec.self_s["backends"] - backends_codegen,
        "backends.trace_entries": rec.trace_entries,
        "backends.codegen_s": backends_codegen,
        "backends.codegen_lines": sum(r.source_lines for r in compiled),
        "kernels.build_s": rec.self_s["kernels"],
        "kernels.build_calls": rec.calls["kernels"],
        "runner.self_s": rec.self_s["runner"],
        "runner.functional_runs": runner.stats.functional_runs,
        "runner.timing_runs": runner.stats.timing_runs,
        "runner.useful_ratio": len(set(keys)) / len(keys) if keys else 1.0,
        "cache.read_s": rec.self_s["cache.read"],
        "cache.write_s": rec.self_s["cache.write"],
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.errors": cache.errors,
        "cache.write_mb": written / 1e6,
        "analysis.self_s": rec.self_s["analysis"],
        "unaccounted_s": rec.self_s["bench"],
        "traced_wall_s": wall,
    }


def measure(workload: str, seed: int, traced: bool) -> dict:
    """Run one unit; untraced, or under the layer wrappers."""
    runner = shipped_runner()
    if not traced:
        start = time.perf_counter()
        text = run_unit(workload, seed, runner)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "text": text,
                "instructions": runner.stats.instructions_simulated}

    from layers import Recorder, install
    from repro.sim.backends.compiled import compile_reports
    from repro.sim.timing.specialized import specialization_reports

    before = (len(compile_reports()), len(specialization_reports()))
    rec = Recorder(run_id=uuid.uuid4().hex[:12])
    installed = install(rec)
    try:
        rec.enter("bench")
        try:
            text = run_unit(workload, seed, runner)
        finally:
            wall = rec.exit()
    finally:
        installed.restore()
    return {
        "wall_s": wall, "text": text,
        "instructions": runner.stats.instructions_simulated,
        "layers": layer_metrics(rec, runner, wall, before),
        "calls": rec.calls,
        "self_s": rec.self_s,
        "spans": rec.spans,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    import repro.analysis.report  # noqa: F401  (the report CLI's imports)
    import repro.tools.cli  # noqa: F401

    print("ready", flush=True)
    if spec["mode"] == "probe":
        return 0
    try:
        result = measure(spec["workload"], spec["seed"], spec["traced"])
    except Exception:  # reported to the parent as a failed unit
        result = {"error": traceback.format_exc()}
    result["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
