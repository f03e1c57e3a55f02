"""Shared-memory lane planes: the same-host data path for export rows.

Each partition owns one ``(export_rows, B)`` uint64 plane in a
``multiprocessing.shared_memory`` segment; row *j* is export name *j*.
A worker publishes its export rows after a step as one vectorised
gather and adopts replica rows straight from the writers' planes, so the
command channel carries row *names* only.  :class:`LanePlanes` is the
coordinator's side (it creates and unlinks the segments and detects
changed rows), :class:`WorkerPlanes` a worker's view of them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..batch.backend import HAS_NUMPY, U64_MAX_WIDTH

#: One partition's exported register rows: ``{register: [lane values]}``.
ExportRows = Dict[str, List[int]]


def shm_eligibility(partitions, backend: str) -> Tuple[bool, str]:
    """Whether shared-memory lane planes can carry the exchange.

    Returns ``(eligible, reason)``: the planes are uint64 rows, so every
    partition must resolve onto the single-row u64 backend -- NumPy
    present, no explicit limb/python request, and no slot wider
    than :data:`~repro.batch.backend.U64_MAX_WIDTH` bits anywhere.
    """
    if not HAS_NUMPY:
        return False, "NumPy is unavailable"
    if backend not in ("auto", "u64"):
        return False, f"backend {backend!r} does not use u64 planes"
    for index, partition in enumerate(partitions):
        widest = max(
            (node.width for node in partition.graph.nodes), default=0
        )
        if widest > U64_MAX_WIDTH:
            return False, (
                f"partition {index} has {widest}-bit slots (> "
                f"{U64_MAX_WIDTH}); the u64 plane cannot hold them"
            )
    return True, ""


def _plane_view(buffer, rows: int, lanes: int):
    import numpy as np

    return np.ndarray((rows, lanes), dtype=np.uint64, buffer=buffer)


class LanePlanes:
    """Coordinator side: one plane per partition, plus a private copy of
    each for the vectorised change mask (rows equal to the previous step
    never materialise as Python lists)."""

    def __init__(self, lanes: int, exports: Sequence[Sequence[str]],
                 routes) -> None:
        from multiprocessing import shared_memory

        self._segs = []
        self._views = []
        self._prev = []
        self._names = [list(names) for names in exports]
        try:
            for names in self._names:
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, len(names) * lanes * 8)
                )
                self._segs.append(seg)
                view = _plane_view(seg.buf, len(names), lanes)
                self._views.append(view)
                self._prev.append(view.copy())
        except Exception:
            self.release()
            raise
        row_of = [{n: j for j, n in enumerate(names)} for names in self._names]
        #: Per reader: ``{replica input: [writer, row]}``.
        self.imports: List[Dict[str, List[int]]] = [{} for _ in exports]
        for name, writer, readers in routes:
            for reader in readers:
                self.imports[reader][name] = [writer, row_of[writer][name]]

    def spec(self, index: int) -> dict:
        """What partition ``index``'s worker needs to attach."""
        return {
            "segments": [[seg.name, len(names)]
                         for seg, names in zip(self._segs, self._names)],
            "index": index,
            "imports": self.imports[index],
        }

    def report(self, full: bool) -> List[ExportRows]:
        """Per partition, the export rows that changed since the last
        report -- or all of them, when lane state jumped without a
        publish.  The coordinator counts rows absent from a report as
        suppressed, so the differential-exchange semantics and counters
        are unchanged."""
        reports = []
        for names, view, prev in zip(self._names, self._views, self._prev):
            changed = ((view != prev).any(axis=1) | full).nonzero()[0]
            if len(changed):
                prev[:] = view
            reports.append(dict(zip(
                [names[j] for j in changed.tolist()], view[changed].tolist()
            )))
        return reports

    def release(self) -> None:
        self._views = []
        self._prev = []
        for seg in self._segs:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._segs = []


def _attach_shm(name: str):
    """Attach an existing shared-memory segment without registering it
    with the resource tracker -- the creating parent owns the segment's
    lifetime; a tracked attach would double-unlink it at worker exit."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= needs Python 3.13
        # Older interpreters: suppress the tracker registration during
        # attach.  (Un)registering after the fact is wrong under fork --
        # the worker shares the parent's tracker process, so an
        # unregister here would drop the *parent's* entry for the
        # segment and make its own unlink complain at exit.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class WorkerPlanes:
    """One worker partition's view of the planes (lazy attach), built
    from :meth:`LanePlanes.spec`."""

    def __init__(self, spec: dict, lanes: int, sim, exports) -> None:
        import numpy as np

        self.lanes = lanes
        self._segments = [(str(name), int(rows))
                          for name, rows in spec["segments"]]
        self._index = int(spec["index"])
        self._imports = {
            str(name): (int(writer), int(row))
            for name, (writer, row) in spec["imports"].items()
        }
        self._slots = np.array(
            [sim.bundle.signal_slots[name] for name in exports],
            dtype=np.intp,
        )
        self._segs = {}
        self._views = {}

    def _view(self, index: int):
        if index not in self._views:
            name, rows = self._segments[index]
            seg = _attach_shm(name)
            if seg.size < rows * self.lanes * 8:
                seg.close()
                raise ValueError(f"shm segment {name} is too small")
            self._segs[index] = seg
            self._views[index] = _plane_view(seg.buf, rows, self.lanes)
        return self._views[index]

    def publish(self, sim) -> None:
        """Write this partition's export rows into its own plane."""
        self._view(self._index)[:] = sim.values[self._slots]

    def adopt(self, sim, names) -> None:
        """Refresh replica inputs straight from the writers' planes."""
        for name in names:
            writer, row = self._imports[name]
            sim.adopt_row(name, self._view(writer)[row])

    def close(self) -> None:
        self._views.clear()
        for seg in self._segs.values():
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        self._segs.clear()
