"""Content-hashed on-disk result cache for the experiment runner.

Every cached record is keyed by a SHA-256 over a canonical JSON rendering
of *what produced it*: the functional inputs (key, IV, plaintext), the
machine configuration, :data:`RUNNER_VERSION`, and
:func:`semantics_digest` -- a digest of the source of every package that
determines a simulated result (``repro.isa``, ``repro.sim``,
``repro.kernels``, ``repro.ciphers``, ``repro.util``).  Editing any of
those files -- a latency constant, a kernel's code, a table generator --
changes every key, so stale results are never returned; they are simply
orphaned on disk.  Editing ``repro.obs``, ``repro.analysis`` or
``repro.runner`` changes none.  Because the key is computed from sources,
not from built programs, a cache hit constructs no kernel.

The cache is a plain directory of JSON files (``<root>/<k[:2]>/<k>.json``),
safe to delete at any time.  Reads that hit a corrupted, truncated or
schema-mismatched file are treated as misses (the bad file is removed
best-effort) and the result is recomputed; writes are atomic
(temp file + ``os.replace``) so concurrent runners never observe partial
records.

Alongside the JSON records the cache stores *blobs* -- pickled records
(``<root>/<k[:2]>/<k>.bin``) used for functional traces, whose
``array``-backed columns serialize as raw machine words rather than JSON
number lists.  Blobs follow the same key discipline, atomicity and
corruption-is-a-miss rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
import tempfile
from functools import cache
from pathlib import Path

#: The record-schema version: bump it when the layout of a cached record
#: changes.  Semantic changes need no bump -- :func:`semantics_digest`
#: sees them.
RUNNER_VERSION = 3  # v3: array-backed traces + streaming pipeline

#: The ``repro`` packages whose sources determine simulated results.
SEMANTIC_PACKAGES = ("isa", "sim", "kernels", "ciphers", "util")


@cache
def semantics_digest() -> str:
    """SHA-256 over the sources that determine results, once per process.

    Hashes the ``repro``-relative path and bytes of every ``.py`` file
    under :data:`SEMANTIC_PACKAGES`, plus the interpreter's name and
    major.minor version.  Runtime monkeypatching is invisible to it.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    paths = sorted(path for package in SEMANTIC_PACKAGES
                   for path in (root / package).rglob("*.py"))
    for path in paths:
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    version = sys.version_info
    digest.update(f"{sys.implementation.name}-{version[0]}.{version[1]}"
                  .encode())
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro-runner``, else ``~/.cache/repro-runner``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-runner"


def _canonical(value):
    """Reduce ``value`` to JSON-stable primitives; bytes become digests."""
    if isinstance(value, bytes):
        return {"__bytes_sha256__": hashlib.sha256(value).hexdigest()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, int):           # covers IntEnum (Features)
        return int(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def content_key(parts) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``parts``."""
    blob = json.dumps(_canonical(parts), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed JSON store addressed by content key.

    ``enabled=False`` turns every operation into a no-op (the ``--no-cache``
    path); the runner logic stays identical either way.
    """

    def __init__(self, root: Path | str | None = None, enabled: bool = True):
        self.enabled = enabled
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.errors = 0
        #: Optional :class:`repro.obs.EventBus`: every hit/miss/write is
        #: published to the run ledger as ``source="cache"`` (the
        #: Observability session attaches this via ``--events-out``).
        self.bus = None

    def _publish(self, type: str, kind: str, key: str) -> None:
        if self.bus is not None:
            self.bus.publish("cache", type, {"kind": kind, "key": key[:12]})

    @classmethod
    def from_env(cls) -> "ResultCache":
        """Default cache: honors ``REPRO_NO_CACHE`` and ``REPRO_CACHE_DIR``."""
        return cls(enabled=not os.environ.get("REPRO_NO_CACHE"))

    @classmethod
    def disabled(cls) -> "ResultCache":
        return cls(enabled=False)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Fetch a record; any corruption is a miss, never an exception."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            self._publish("miss", "record", key)
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard(path)
            self.misses += 1
            self._publish("miss", "record", key)
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            self._discard(path)
            self.misses += 1
            self._publish("miss", "record", key)
            return None
        self.hits += 1
        self._publish("hit", "record", key)
        return record

    def put(self, key: str, record: dict) -> None:
        """Atomically persist ``record`` under ``key`` (best effort)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(dict(record, key=key), handle)
                os.replace(tmp, path)
                self._publish("write", "record", key)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, TypeError, ValueError):
            # A full disk or unserializable record must never fail a run.
            self.errors += 1

    # -- pickled blobs (functional traces) --------------------------------

    def blob_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def has_blob(self, key: str) -> bool:
        """Cheap existence probe (no deserialization)."""
        return self.enabled and self.blob_path_for(key).is_file()

    def get_blob(self, key: str) -> dict | None:
        """Fetch a pickled record; any corruption is a miss."""
        if not self.enabled:
            return None
        path = self.blob_path_for(key)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            self._publish("miss", "blob", key)
            return None
        except (OSError, EOFError, AttributeError, ImportError, IndexError,
                ValueError, pickle.UnpicklingError):
            self._discard(path)
            self.misses += 1
            self._publish("miss", "blob", key)
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            self._discard(path)
            self.misses += 1
            self._publish("miss", "blob", key)
            return None
        self.hits += 1
        self._publish("hit", "blob", key)
        return record

    def put_blob(self, key: str, record: dict) -> None:
        """Atomically persist a pickled record under ``key`` (best effort)."""
        if not self.enabled:
            return
        path = self.blob_path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(dict(record, key=key), handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
                self._publish("write", "blob", key)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, TypeError, ValueError, pickle.PicklingError):
            self.errors += 1

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _discard(self, path: Path) -> None:
        self.errors += 1
        try:
            os.unlink(path)
        except OSError:
            pass
