"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer of the
simulator stack (listed in :func:`entry_points`) so that every call
records a span: its name (the layer), start, end, parent span and run
id.  Spans are kept in memory.  A layer's self time is its spans'
durations minus the part covered by child spans, so the self times of
all layers plus the root span's own time add up to the root's wall time
exactly.

:meth:`Installed.restore` puts every original attribute back.  Nothing
here edits the program's source, and untraced units never install the
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass, field

#: Layers in the order the layer table prints them.  ``bench`` is the
#: root span: its self time is the run's unaccounted remainder.
LAYERS = (
    "timing.exec",
    "timing.codegen",
    "backends",
    "kernels",
    "runner",
    "cache.read",
    "cache.write",
    "analysis",
    "bench",
)

#: Kernel-layer methods (program build, memory image, reference check),
#: wrapped on each class whose own ``__dict__`` defines them.
KERNEL_METHODS = (
    "__init__", "program_for", "prepare", "build_program",
    "build_decrypt_program", "write_tables", "reference_encrypt",
    "reference_decrypt", "stage_inputs", "expected_regions",
)

#: Runner entry points besides ``run``, whose wrapper also collects the
#: results it simulated (for ``runner.useful_ratio``).
RUNNER_METHODS = (
    "functional", "simulate_trace", "simulate_stream", "cached_value",
)


@dataclass
class Recorder:
    """In-memory span store plus per-layer self-time and call counters."""

    run_id: str = ""
    spans: list = field(default_factory=list)
    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    #: Per-pipeline timing samples: ``id(pipeline) -> seconds``.
    pipeline_s: dict = field(default_factory=dict)
    run_ms: list = field(default_factory=list)
    instructions: int = 0
    trace_entries: int = 0
    pipelines: int = 0
    written_paths: list = field(default_factory=list)
    uncached_results: list = field(default_factory=list)
    # Open spans: [layer, start, child_seconds, span_index, parent_index].
    _stack: list = field(default_factory=list)

    def enter(self, layer: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if not self._stack or self._stack[-1][0] != layer:
            self.calls[layer] += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([layer, time.perf_counter(), 0.0, index, parent])

    def exit(self) -> float:
        end = time.perf_counter()
        layer, start, child, index, parent = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (layer, start, end, parent, self.run_id)
        return duration


def _wrap_call(rec: Recorder, layer: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.enter(layer)
        try:
            return func(*args, **kwargs)
        finally:
            rec.exit()
    return wrapper


class _TimedIterator:
    """Times each ``next()`` of a backend's chunk iterator as a span."""

    def __init__(self, rec: Recorder, layer: str, inner):
        self._rec = rec
        self._layer = layer
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        rec.enter(self._layer)
        try:
            chunk = next(self._inner)
        finally:
            rec.exit()
        rec.trace_entries += len(chunk)
        return chunk


def _wrap_execute(rec: Recorder, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.enter("backends")
        try:
            inner = iter(func(*args, **kwargs))
        finally:
            rec.exit()
        return _TimedIterator(rec, "backends", inner)
    return wrapper


def _wrap_feed(rec: Recorder, func):
    @functools.wraps(func)
    def wrapper(pipeline, *args, **kwargs):
        rec.enter("timing.exec")
        try:
            return func(pipeline, *args, **kwargs)
        finally:
            key = id(pipeline)
            rec.pipeline_s[key] = rec.pipeline_s.get(key, 0.0) + rec.exit()
    return wrapper


def _wrap_finish(rec: Recorder, func):
    @functools.wraps(func)
    def wrapper(pipeline, *args, **kwargs):
        rec.enter("timing.exec")
        try:
            stats = func(pipeline, *args, **kwargs)
        finally:
            seconds = rec.pipeline_s.pop(id(pipeline), 0.0) + rec.exit()
        rec.run_ms.append(seconds * 1e3)
        rec.instructions += stats.instructions
        return stats
    return wrapper


def _wrap_make_pipeline(rec: Recorder, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.enter("timing.codegen")
        try:
            return func(*args, **kwargs)
        finally:
            rec.exit()
            rec.pipelines += 1
    return wrapper


def _wrap_put(rec: Recorder, func, path_of: str):
    @functools.wraps(func)
    def wrapper(cache, key, *args, **kwargs):
        rec.enter("cache.write")
        try:
            return func(cache, key, *args, **kwargs)
        finally:
            rec.exit()
            rec.written_paths.append(getattr(cache, path_of)(key))
    return wrapper


def _wrap_run(rec: Recorder, func):
    @functools.wraps(func)
    def wrapper(runner, *args, **kwargs):
        rec.enter("runner")
        try:
            results = func(runner, *args, **kwargs)
        finally:
            rec.exit()
        rec.uncached_results.extend(
            (runner, result.experiment)
            for result in results if not result.cached
        )
        return results
    return wrapper


def entry_points(rec: Recorder) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every layer boundary."""
    from repro import analysis
    from repro.kernels.registry import KERNELS
    from repro.kernels.runtime import CipherKernel
    from repro.kernels.setup_base import SetupKernel
    from repro.kernels.setup_registry import SETUP_KERNELS
    from repro.runner import ResultCache, Runner
    from repro.sim.backends import backend_names, get_backend
    from repro.sim.timing import PipelineBase, engine_names, get_engine

    points = [
        (PipelineBase, "feed", _wrap_feed(rec, PipelineBase.feed)),
        (PipelineBase, "finish", _wrap_finish(rec, PipelineBase.finish)),
    ]
    for cls in {type(get_engine(name)) for name in engine_names()}:
        points.append((cls, "make_pipeline",
                       _wrap_make_pipeline(rec, cls.make_pipeline)))
    for cls in {type(get_backend(name)) for name in backend_names()}:
        points.append((cls, "execute", _wrap_execute(rec, cls.execute)))

    kernel_classes = {CipherKernel, SetupKernel, *KERNELS.values(),
                      *SETUP_KERNELS.values()}
    for cls in kernel_classes:
        for name in KERNEL_METHODS:
            func = cls.__dict__.get(name)
            if func is None or getattr(func, "__isabstractmethod__", False):
                continue
            points.append((cls, name, _wrap_call(rec, "kernels", func)))

    points.append((Runner, "run", _wrap_run(rec, Runner.run)))
    for name in RUNNER_METHODS:
        points.append((Runner, name,
                       _wrap_call(rec, "runner", getattr(Runner, name))))

    for name in ("get", "get_blob", "has_blob"):
        points.append((ResultCache, name, _wrap_call(
            rec, "cache.read", getattr(ResultCache, name))))
    points.append((ResultCache, "put",
                   _wrap_put(rec, ResultCache.put, "path_for")))
    points.append((ResultCache, "put_blob",
                   _wrap_put(rec, ResultCache.put_blob, "blob_path_for")))

    for module in _analysis_modules(analysis):
        for name, func in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(func)
                    and func.__module__ == module.__name__):
                points.append((module, name,
                               _wrap_call(rec, "analysis", func)))
    return points


def _analysis_modules(package) -> list:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Installed:
    """The wrappers in place; :meth:`restore` puts the originals back."""

    def __init__(self, points):
        self._saved = []
        for owner, name, wrapper in points:
            had_own = name in vars(owner)
            self._saved.append((owner, name, had_own, vars(owner).get(name)))
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved = []


def install(rec: Recorder) -> Installed:
    return Installed(entry_points(rec))


def snapshot() -> dict:
    """Identity of every attribute :func:`install` replaces (for tests)."""
    points = entry_points(Recorder())
    return {(id(owner), name): vars(owner).get(name)
            for owner, name, _ in points}
