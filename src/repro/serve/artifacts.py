"""Layer 1 of ``repro.serve``: the persistent compiled-artifact cache.

Nothing used to survive between Python processes: every run re-elaborated
the FIRRTL, re-partitioned (refined FM costs ~85 s on gemmini-32), and
re-lowered before simulating a single cycle.  GSIM's lesson is that the
win for large designs lives in compiling once and amortising across many
runs, so this module gives every expensive frontend product a
content-addressed home on disk:

* ``graph``     -- optimised :class:`~repro.graph.dfg.DataflowGraph`
  (elaboration + optimisation), keyed by the source text digest;
* ``bundle``    -- lowered :class:`~repro.oim.builder.OimBundle`, keyed
  by the source digest or the graph fingerprint;
* ``partition`` -- :class:`~repro.repcut.partition.PartitionResult`
  (including refined-FM results), keyed by graph fingerprint x
  (P, strategy, max_replication, ...);
* ``rum``       -- the derived :class:`RegisterUpdateMap`;
* ``sucodegen`` -- the SU codegen kernel's generated statement list;
* ``program``   -- the shared lowered :class:`~repro.lower.program.
  OimProgram` every kernel executes (walk layers, consumer transpose,
  leaf/commit tables; supersedes the pre-refactor ``oimwalk``/
  ``fiberwalk``/``limbplan`` kinds);
* ``cbin``      -- the compiled C batch backend's shared-object bytes,
  keyed by the program fingerprint plus host triple and compile flags
  (a warm start loads it without invoking a compiler);
* ``pgraph``    -- partition graphs the shard coordinator names to its
  workers by key instead of sending the graph document (each worker
  reads its *own* cache; nothing pickled ever crosses a channel).

Entries are pickled with a versioned schema envelope, written atomically
(temp file + ``os.replace``), loaded corruption-tolerantly (a damaged or
mismatched entry is dropped and recomputed, never crashes), and bounded
by an LRU byte cap (eviction by access time).  Mutating operations
(store + eviction, clear) serialise across *processes* on an advisory
file lock (``.lock`` in the cache root), so fleet members and CI jobs
can share one ``REPRO_CACHE_DIR`` without racing each other's writes
and evictions; reads stay lock-free (atomic replace keeps every visible
entry internally consistent).

The cache is **off by default**.  It activates when the
``REPRO_CACHE_DIR`` environment variable names a directory, or when
:func:`configure_cache` is called explicitly; :func:`cache_through` is
the one helper call sites use, and it degrades to plain computation when
no cache is active.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: single-writer semantics, no locking
    fcntl = None

#: Bump when the envelope layout or any cached type changes shape in a
#: way old payloads cannot satisfy; old-schema entries read as misses.
SCHEMA_VERSION = 1

#: Default LRU size cap (bytes); override per cache or with
#: ``REPRO_CACHE_BYTES``.
DEFAULT_MAX_BYTES = 1 << 30

#: Artifact kinds this schema knows; unknown kinds still round-trip, the
#: tuple exists for ``ls`` grouping and docs.
KINDS = ("graph", "bundle", "partition", "rum", "sucodegen", "program",
         "cbin", "pgraph")

#: Name of the advisory lock file serialising mutating operations.
LOCK_NAME = ".lock"


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance (this process)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Entries dropped because they failed to load (corruption, schema
    #: or digest mismatch) -- each one fell back to recompute.
    corrupt_drops: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt_drops": self.corrupt_drops,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk artifact, as listed by :meth:`ArtifactCache.entries`."""

    kind: str
    digest: str
    path: Path
    size_bytes: int
    mtime: float


class ArtifactCache:
    """A content-addressed, LRU-capped, corruption-tolerant pickle store.

    Filenames are ``<kind>-<digest>.pkl`` directly under ``root``; the
    digest is a SHA-256 over the design fingerprint plus every parameter
    that shapes the artifact, so a key collision *is* a content match.
    All failure modes of the storage layer (unreadable file, truncated
    pickle, foreign schema, permission trouble) surface as cache misses,
    never as exceptions: the sim stack must work identically with a
    broken cache and with no cache.
    """

    def __init__(
        self, root, max_bytes: Optional[int] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is None:
            max_bytes = int(os.environ.get("REPRO_CACHE_BYTES", DEFAULT_MAX_BYTES))
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_of(self, kind: str, digest: str) -> Path:
        return self.root / f"{kind}-{digest}.pkl"

    @contextlib.contextmanager
    def _locked(self):
        """Hold the cache's advisory file lock for a mutating operation.

        Blocks until the lock is free, so concurrent writers (fleet
        members, parallel CI jobs) serialise their store+evict sequences
        instead of racing.  Degrades to a no-op wherever locking cannot
        work (no ``fcntl``, unwritable root, exotic filesystems): the
        cache must keep functioning -- merely without cross-process
        exclusion -- per the broken-cache contract above.  Not
        re-entrant: callers holding the lock use the ``*_locked``
        internals rather than the public wrappers.
        """
        handle = None
        if fcntl is not None:
            try:
                handle = open(self.root / LOCK_NAME, "a+b")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                if handle is not None:
                    handle.close()
                    handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
                handle.close()

    def get(self, kind: str, digest: str):
        """The cached payload, or ``None`` on any kind of miss."""
        path = self.path_of(kind, digest)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated write, foreign pickle, unreadable file: drop the
            # entry and recompute rather than crash.
            self._drop_corrupt(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SCHEMA_VERSION
            or envelope.get("kind") != kind
            or envelope.get("digest") != digest
            or "payload" not in envelope
        ):
            self._drop_corrupt(path)
            return None
        self.stats.hits += 1
        self._touch(path)
        return envelope["payload"]

    def put(self, kind: str, digest: str, payload) -> Optional[Path]:
        """Store ``payload`` atomically; returns its path, or ``None`` if
        the payload could not be pickled or written.  The write and the
        follow-on eviction happen under the cache lock, so two processes
        storing into one directory cannot interleave a replace with the
        other's GC sweep."""
        envelope = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "digest": digest,
            "payload": payload,
        }
        path = self.path_of(kind, digest)
        try:
            blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        with self._locked():
            try:
                fd, tmp_name = tempfile.mkstemp(
                    prefix=f".{kind}-", suffix=".tmp", dir=self.root
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(tmp_name, path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
            except Exception:
                return None
            self.stats.puts += 1
            self._gc_locked()
        return path

    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """Every live artifact, oldest-accessed first."""
        found: List[CacheEntry] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return found
        for name in names:
            if not name.endswith(".pkl") or "-" not in name:
                continue
            kind, _, digest = name[:-4].partition("-")
            path = self.root / name
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(
                CacheEntry(kind, digest, path, stat.st_size, stat.st_mtime)
            )
        found.sort(key=lambda entry: entry.mtime)
        return found

    @property
    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until under the byte cap;
        returns the number evicted.  Takes the cache lock; callers that
        already hold it (``put``) use :meth:`_gc_locked`."""
        with self._locked():
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes: Optional[int] = None) -> int:
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None or cap <= 0:
            return 0
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted = 0
        for entry in entries:
            if total <= cap:
                break
            try:
                entry.path.unlink()
            except OSError:
                continue
            total -= entry.size_bytes
            evicted += 1
            self.stats.evictions += 1
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        with self._locked():
            removed = 0
            for entry in self.entries():
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:
                    pass
            return removed

    # ------------------------------------------------------------------
    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _drop_corrupt(self, path: Path) -> None:
        self.stats.misses += 1
        self.stats.corrupt_drops += 1
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        return (
            f"ArtifactCache({str(self.root)!r}, "
            f"entries={len(self.entries())}, stats={self.stats.as_dict()})"
        )


# ----------------------------------------------------------------------
# The process-wide active cache
# ----------------------------------------------------------------------
_active: Optional[ArtifactCache] = None
_resolved_env = False


def get_cache() -> Optional[ArtifactCache]:
    """The active cache, or ``None``.

    Resolution order: an explicit :func:`configure_cache` wins; otherwise
    ``REPRO_CACHE_DIR`` (checked once per process) activates a cache at
    that directory.  A directory that cannot be created deactivates the
    cache rather than failing the simulation.
    """
    global _active, _resolved_env
    if _active is None and not _resolved_env:
        _resolved_env = True
        root = os.environ.get("REPRO_CACHE_DIR")
        if root:
            try:
                _active = ArtifactCache(root)
            except OSError:
                _active = None
    return _active


def configure_cache(
    root, max_bytes: Optional[int] = None
) -> ArtifactCache:
    """Activate (and return) a cache rooted at ``root`` for this process."""
    global _active, _resolved_env
    _active = ArtifactCache(root, max_bytes=max_bytes)
    _resolved_env = True
    return _active


def disable_cache() -> None:
    """Deactivate caching for this process (tests; explicit cold runs)."""
    global _active, _resolved_env
    _active = None
    _resolved_env = True


def cache_through(kind: str, digest: str, compute: Callable[[], object]):
    """``get`` or ``compute``-and-``put``: the one helper call sites use.

    With no active cache this is exactly ``compute()``; with one, a hit
    skips the computation and a miss stores its result for the next
    process.
    """
    cache = get_cache()
    if cache is None:
        return compute()
    cached = cache.get(kind, digest)
    if cached is not None:
        return cached
    result = compute()
    cache.put(kind, digest, result)
    return result


# ----------------------------------------------------------------------
# Deterministic fingerprints
# ----------------------------------------------------------------------
def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def _finish(hasher, parts: Tuple = ()) -> str:
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def source_digest(source: str, **params) -> str:
    """Digest of FIRRTL source text plus compile parameters."""
    hasher = _hasher()
    hasher.update(source.encode())
    return _finish(hasher, tuple(sorted(params.items())))


def design_fingerprint(graph, **params) -> str:
    """Canonical hash of an elaborated :class:`DataflowGraph`.

    Covers everything that determines simulation behaviour -- node
    structure (op, operands, width, const value, signal name), inputs,
    outputs, register bookkeeping (init/reset/clock), and the observable
    signal map -- and nothing that does not (interning tables).  Node ids
    are construction-ordered and construction is deterministic from
    source, so the fingerprint is stable across processes and hosts.

    The graph-structure digest is memoised on the graph instance (graphs
    are immutable once compiled): a warm sharded build fingerprints the
    same graphs repeatedly (partition key, per-partition bundle keys,
    worker graph keys), and the node sweep dominates that path.
    """
    base = getattr(graph, "_repro_fingerprint_base", None)
    if base is None:
        hasher = _hasher()
        hasher.update(graph.name.encode())
        hasher.update(b"\x00")
        # One repr of the whole structure list runs at C speed; the
        # per-node loop it replaces dominated warm-start construction.
        hasher.update(repr([
            (node.op, node.operands, node.width, node.value, node.name)
            for node in graph.nodes
        ]).encode())
        hasher.update(b"\x00")
        hasher.update(repr(sorted(graph.inputs.items())).encode())
        hasher.update(b"\x01")
        hasher.update(repr(sorted(graph.outputs.items())).encode())
        hasher.update(b"\x02")
        hasher.update(repr([
            (name, reg.width, reg.state_nid, reg.next_nid,
             reg.init_value, reg.reset_input, reg.clock)
            for name, reg in sorted(graph.registers.items())
        ]).encode())
        hasher.update(b"\x03")
        hasher.update(repr(sorted(graph.signal_map.items())).encode())
        base = hasher.hexdigest()
        try:
            graph._repro_fingerprint_base = base
        except AttributeError:  # slotted/frozen graphs: recompute per call
            pass
    hasher = _hasher()
    hasher.update(base.encode())
    return _finish(hasher, tuple(sorted(params.items())))


def bundle_fingerprint(bundle, **params) -> str:
    """Canonical hash of a lowered :class:`OimBundle` (SU-codegen key).

    Covers the op-table vocabulary, the layered op records, slot widths,
    and constant preloads -- exactly the inputs of statement generation.
    """
    base = getattr(bundle, "_repro_fingerprint_base", None)
    if base is None:
        hasher = _hasher()
        hasher.update(bundle.design_name.encode())
        hasher.update(b"\x00")
        hasher.update(
            repr(tuple(entry.name for entry in bundle.op_table)).encode()
        )
        hasher.update(b"\x01")
        hasher.update(repr([
            [(record.s, record.n, record.operands) for record in layer]
            for layer in bundle.layers
        ]).encode())
        hasher.update(b"\x02")
        hasher.update(repr(tuple(bundle.slot_width)).encode())
        hasher.update(b"\x03")
        hasher.update(repr(tuple(bundle.const_slots)).encode())
        base = hasher.hexdigest()
        try:
            bundle._repro_fingerprint_base = base
        except AttributeError:
            pass
    hasher = _hasher()
    hasher.update(base.encode())
    return _finish(hasher, tuple(sorted(params.items())))
