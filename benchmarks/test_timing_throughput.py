"""Acceptance benchmark: the specialized timing engine beats generic >= 5x.

The tentpole claim for the timing-engine split is that specializing the
cycle-accurate pipeline per (program, config) buys a large factor of
timing-path throughput with *bit-identical* SimStats.  This benchmark
runs the repository's canonical timing run -- one RC4 session across the
standard machine grid {4W, 8W+, DF} -- through both engines on the full
trace, asserts bit-identical SimStats on every leg, measures timing-path
instructions/second per leg, and records the numbers to
``BENCH_timing.json`` plus (with ``REPRO_BENCH_HISTORY`` set) the
benchmark history for trend tracking.

Session length defaults to 64 KiB so CI finishes in seconds; the
committed artifact was generated with ``REPRO_TIMING_BENCH_BYTES=1048576``
(the paper-scale 1 MiB session), where the >= 5x acceptance bar applies.
Specialized wall time *includes* code generation: the code cache is
cleared first, so the reported speedup is what a cold run actually sees.
"""

import json
import os
import time
from pathlib import Path

from repro.kernels import make_kernel
from repro.sim.config import DATAFLOW, EIGHTW_PLUS, FOURW
from repro.sim.timing import make_pipeline, specialized as specialized_mod

BENCH_BYTES = int(os.environ.get("REPRO_TIMING_BENCH_BYTES", "65536"))
BENCH_OUT = Path(os.environ.get("REPRO_TIMING_BENCH_OUT",
                                "BENCH_timing.json"))
#: The paper-scale acceptance bar.  Short CI sessions amortize the
#: one-time code generation over fewer instructions, so the floor scales
#: down (mirroring ``test_backend_throughput``).
SPEEDUP_FLOOR = 5.0 if BENCH_BYTES >= 1 << 20 else 2.5

CONFIGS = (FOURW, EIGHTW_PLUS, DATAFLOW)


def _feed(kernel_run, config, engine):
    """Time one pipeline over the whole trace; returns ``(stats, seconds)``."""
    trace = kernel_run.trace
    pipe = make_pipeline(config, trace.static, trace.program,
                         warm_ranges=kernel_run.warm_ranges, engine=engine)
    start = time.perf_counter()
    for chunk in trace.chunks(4096):
        pipe.feed(chunk)
    stats = pipe.finish()
    return stats, time.perf_counter() - start


def test_specialized_timing_speedup(show):
    specialized_mod.cache_clear()  # charge codegen to the specialized runs
    kernel_run = make_kernel("RC4").encrypt(bytes(BENCH_BYTES))
    total_instructions = len(kernel_run.trace)

    legs = {}
    stats_by_leg = {}
    for config in CONFIGS:
        for engine in ("generic", "specialized"):
            stats, elapsed = _feed(kernel_run, config, engine)
            legs[f"{config.name}/{engine}"] = {
                "seconds": round(elapsed, 3),
                "instructions_per_second": round(
                    total_instructions / elapsed),
            }
            stats_by_leg[(config.name, engine)] = stats

    for config in CONFIGS:
        assert stats_by_leg[(config.name, "specialized")] == \
            stats_by_leg[(config.name, "generic")], config.name

    def total_seconds(engine):
        return sum(legs[f"{config.name}/{engine}"]["seconds"]
                   for config in CONFIGS)

    generic_seconds = total_seconds("generic")
    specialized_seconds = total_seconds("specialized")
    speedup = generic_seconds / specialized_seconds

    report = {
        "session_bytes": BENCH_BYTES,
        "cipher": "RC4",
        "configs": [config.name for config in CONFIGS],
        "instructions": total_instructions,
        "generic_seconds": round(generic_seconds, 3),
        "specialized_seconds": round(specialized_seconds, 3),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "legs": legs,
    }
    BENCH_OUT.write_text(json.dumps(report, indent=2) + "\n")
    _record_history(legs, total_instructions, speedup)
    show(
        f"RC4 {BENCH_BYTES}B timing grid {{4W, 8W+, DF}}: generic "
        f"{generic_seconds:.2f}s, specialized "
        f"{specialized_seconds:.2f}s -> {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x) -> {BENCH_OUT}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"specialized timing engine only {speedup:.2f}x over generic "
        f"(generic {generic_seconds:.3f}s, "
        f"specialized {specialized_seconds:.3f}s)"
    )


def _record_history(legs, total_instructions, speedup):
    if not os.environ.get("REPRO_BENCH_HISTORY"):
        return
    from repro.obs.bench import BenchHistory, BenchRecord, \
        environment_fingerprint

    history = BenchHistory.from_env()
    for name, leg in legs.items():
        config_name, _, engine = name.partition("/")
        # Each record names the engine that produced it, so regression
        # baselines never mix engines (``_same_environment`` matches on
        # ``timing_engine``).
        history.append(BenchRecord(
            suite="timing_throughput",
            benchmark=f"rc4_{config_name}_{engine}",
            wall_seconds=leg["seconds"],
            throughput=leg["instructions_per_second"],
            throughput_unit="instructions/s",
            extra={
                "session_bytes": BENCH_BYTES,
                "config": config_name,
                "instructions": total_instructions,
                "speedup": round(speedup, 2),
            },
            env=dict(environment_fingerprint(), timing_engine=engine),
        ))
