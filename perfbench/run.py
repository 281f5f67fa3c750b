"""End-to-end benchmark of the paper's evaluation on the shipped defaults.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each unit of work runs in a fresh
worker process (``perfbench/worker.py``) with no CLI flags -- the default
backend and timing engine, ``jobs=1`` -- in a closed loop with one
caller: the next unit starts when the previous one has finished, until
``--seconds`` are used up.  Every unit's figure text is checked against
its reference; a unit that raises or differs counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over the units).
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones (see ``perfbench/README.md``); its
spans are written to ``.perfbench/spans-<workload>-seed<N>.json``.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Workload name -> how its cache starts and whether the seed reaches
#: the program.  The report workloads have no input hook: the seed is
#: only recorded.
WORKLOADS = {
    "report-cold": {"cache": "empty", "seeded": False},
    "report-warm": {"cache": "filled", "seeded": False},
    "fig4-4k": {"cache": "empty", "seeded": True},
}

#: Metric names and units, as ``BENCHMARK.json`` lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Largest unaccounted share of a traced unit's wall (the roadmap's bound).
MAX_UNACCOUNTED = 0.05
#: Start-up probes per run, so ``setup_s`` is a median of several.
SETUP_PROBES = 3
UNIT_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no program, a worker died)."""


def reference_text(workload: str, seed: int) -> str | None:
    """The text a unit must print, or None when only the kernels'
    built-in reference-cipher validation applies (fig4-4k, seed != 0)."""
    if workload == "fig4-4k":
        if seed:
            return None
        archive = ROOT / "results" / "full_report_session4096.txt"
        return "\n".join(archive.read_text().splitlines()[23:33])
    return (HERE / "golden" / "report-64.txt").read_text()


def figure_text(text: str) -> str:
    """Drop the report's timing footer, which differs on every run."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("[report generated")).rstrip("\n")


def check(workload: str, seed: int, result: dict) -> str | None:
    """Why a unit failed, or None when its output is right."""
    if "error" in result:
        return result["error"].strip().splitlines()[-1]
    expected = reference_text(workload, seed)
    if expected is not None and \
            figure_text(result["text"]) != figure_text(expected):
        return "figure text differs from its reference"
    return None


def spawn(spec: dict, cache_dir: Path) -> tuple[float, dict | None]:
    """Run one worker; returns (start-up seconds, result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    start = time.perf_counter()
    try:
        with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                first = proc.stdout.readline()
                setup = time.perf_counter() - start
                rest, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {UNIT_TIMEOUT_S}s") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(
            f"worker failed to start (exit {proc.returncode})"
        )
    if spec["mode"] == "probe":
        return setup, None
    try:
        return setup, json.loads(rest.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError("worker printed no result") from None


class Run:
    """One benchmark run of one workload: set-up, closed loop, checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.setups: list[float] = []
        self.fill_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.units: list[dict] = []
        self._caches = 0

    def _cache_dir(self) -> Path:
        self._caches += 1
        path = self.workdir / f"cache-{self._caches}"
        path.mkdir(parents=True)
        return path

    def _unit(self, traced: bool, cache_dir: Path) -> dict:
        spec = {"mode": "unit", "workload": self.workload,
                "seed": self.seed, "traced": traced}
        setup, result = spawn(spec, cache_dir)
        self.setups.append(setup)
        self.attempted += 1
        failure = check(self.workload, self.seed, result)
        if failure is None and traced:
            layers = result["layers"]
            share = layers["unaccounted_s"] / layers["traced_wall_s"]
            if share > MAX_UNACCOUNTED:
                failure = f"unaccounted {share:.1%} of traced wall"
        if failure is not None:
            self.failures.append(failure)
        result["traced"] = traced
        result["failed"] = failure is not None
        return result

    def execute(self) -> None:
        for _ in range(SETUP_PROBES):
            self.setups.append(spawn({"mode": "probe"}, self.workdir)[0])
        warm_cache = None
        if WORKLOADS[self.workload]["cache"] == "filled":
            warm_cache = self._cache_dir()
            fill = self._unit(False, warm_cache)
            self.fill_s = fill.get("wall_s", 0.0)
        start = time.perf_counter()
        spent: list[float] = []
        while True:
            traced = self.trace and len(self.units) % 2 == 1
            cache_dir = warm_cache or self._cache_dir()
            t0 = time.perf_counter()
            self.units.append(self._unit(traced, cache_dir))
            spent.append(time.perf_counter() - t0)
            if cache_dir is not warm_cache:
                shutil.rmtree(cache_dir, ignore_errors=True)
            kinds = {unit["traced"] for unit in self.units}
            needed = {False, True} if self.trace else {False}
            elapsed = time.perf_counter() - start
            if kinds >= needed and \
                    elapsed + statistics.fmean(spent) > self.seconds:
                break

    def good_units(self, traced: bool) -> list[dict]:
        return [unit for unit in self.units
                if unit["traced"] == traced and not unit["failed"]]

    def metrics(self) -> dict:
        untraced = self.good_units(False)
        if self.trace:
            traced = self.good_units(True)
            values = {
                name: statistics.median(unit["layers"][name]
                                        for unit in traced)
                for name in traced[0]["layers"]
            } if traced else {}
            if traced and untraced:
                base = statistics.median(u["wall_s"] for u in untraced)
                values["trace_overhead_pct"] = 100.0 * (
                    values["traced_wall_s"] / base - 1.0
                )
            return {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()
                    if name in values}
        if not untraced:
            return {}
        values = {
            "wall_s": statistics.median(u["wall_s"] for u in untraced),
            "setup_s": statistics.median(self.setups) + self.fill_s,
            "peak_rss_mb": statistics.median(u["rss_mb"] for u in untraced),
        }
        return {name: {"value": values[name], "unit": END_TO_END[name]}
                for name in END_TO_END}

    def spans(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "fields": ["name", "start", "end", "parent", "run_id"],
            "units": [unit["spans"] for unit in self.units
                      if unit["traced"] and "spans" in unit],
        }

    def layer_table(self) -> list[str]:
        traced = self.good_units(True)
        if not traced:
            return []
        unit = traced[len(traced) // 2]
        wall = unit["layers"]["traced_wall_s"]
        lines = [f"layer account, one traced unit ({wall:.3f} s):",
                 f"  {'layer':<15} {'self s':>9} {'share':>7} {'calls':>7}"]
        for layer, seconds in unit["self_s"].items():
            name = "unaccounted" if layer == "bench" else layer
            lines.append(f"  {name:<15} {seconds:>9.4f} "
                         f"{seconds / wall:>7.1%} {unit['calls'][layer]:>7}")
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              workdir)
    try:
        run.execute()
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = run.metrics()
    if run.trace:
        spans_path = (ROOT / ".perfbench"
                      / f"spans-{args.workload}-seed{args.seed}.json")
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(run.spans()))
        for line in run.layer_table():
            print(line)
    seeded = "consumed" if WORKLOADS[args.workload]["seeded"] else "recorded only"
    print(f"workload {args.workload}, seed {args.seed} ({seeded}), "
          f"{run.attempted} units, {len(run.failures)} failed, error_rate "
          f"{len(run.failures) / run.attempted:.3f}")
    for failure in run.failures:
        print(f"  failed: {failure}")
    print("  unit walls (s): " + " ".join(
        f"{unit['wall_s']:.3f}" for unit in run.units if "wall_s" in unit))
    rates = [unit["instructions"] / unit["wall_s"] / 1e6
             for unit in run.good_units(False) if unit["instructions"]]
    if rates:
        print(f"  timing-simulated Minst per host second: "
              f"{statistics.median(rates):.4f}")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:>14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
