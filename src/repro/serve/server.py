"""Simulation-as-a-service: asyncio server + sync client for a fleet.

The wire protocol is deliberately tiny: each frame is one
:mod:`repro.wire` frame (length-prefixed JSON, shared with the shard
workers) holding a JSON object.  Requests carry an ``op`` plus operands;
responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"kind": <exception class>}``.

Ops
---
``info``
    Fleet shape (:meth:`~repro.serve.fleet.LaneFleet.describe`).
``open`` / ``close``
    Check a lane out of / back into the fleet.  A connection's sessions
    are closed automatically when it drops, so a dead client never
    wedges the coalescing barrier for its siblings.
``poke`` / ``peek``
    Lane-targeted stimulus and observation.
``step``
    Blocking coalesced step: the call returns once the session's lane
    has advanced the requested cycles, which happens when every sibling
    session on the same member has stepped too (requests from
    concurrently-stepping clients coalesce into one batched kernel
    sweep).  Runs in a worker thread so the event loop keeps serving
    other clients meanwhile; a server-side timeout bounds the wait.
``checkpoint`` / ``restore``
    Portable lane state out/in (preemption across connections or
    servers).
``migrate``
    Move the session to another fleet member mid-run.

:func:`serve_in_thread` runs the server on a background event loop --
the in-process deployment used by the tests and the example; the CLI
(`python -m repro.experiments serve`) runs it in the foreground.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from .. import wire
from .fleet import FleetFullError, LaneFleet, LaneState, Session

__all__ = [
    "FleetClient",
    "FleetServer",
    "RemoteSession",
    "ServerHandle",
    "connect_session",
    "serve_in_thread",
]


def connect_session(host: str, port: int,
                    timeout: Optional[float] = 60.0) -> "RemoteSession":
    """Open a dedicated connection holding exactly one session -- the
    right shape for clients that block in :meth:`RemoteSession.step`
    (sessions sharing one connection cannot coalesce their steps)."""
    client = FleetClient(host, port, timeout=timeout)
    session = client.open_session()
    session.owns_client = True
    return session


# ----------------------------------------------------------------------
# Lane-state <-> JSON (the checkpoint/restore payload)
# ----------------------------------------------------------------------
def state_to_json(state: LaneState) -> Dict[str, Any]:
    payload = state.payload
    if isinstance(payload, list):
        body: Dict[str, Any] = {"kind": "batch", "values": list(payload)}
    else:  # ShardLaneState (duck-typed to avoid importing repro.shard here)
        body = {
            "kind": "shard",
            "partitions": [list(v) for v in payload.partition_values],
            "cut": [list(c) for c in payload.cut],
            "poked": dict(payload.poked),
        }
    return {
        "engine": state.engine,
        "cycle": state.cycle,
        "payload": body,
        "poked": dict(state.poked),
    }


def state_from_json(doc: Dict[str, Any]) -> LaneState:
    body = doc["payload"]
    if body["kind"] == "batch":
        payload: Any = [int(v) for v in body["values"]]
    else:
        from ..shard.simulator import ShardLaneState

        payload = ShardLaneState(
            partition_values=[[int(v) for v in vals]
                              for vals in body["partitions"]],
            cut=tuple(tuple(c) for c in body["cut"]),
            poked={k: int(v) for k, v in body["poked"].items()},
        )
    return LaneState(
        engine=doc["engine"],
        cycle=int(doc["cycle"]),
        payload=payload,
        poked={k: int(v) for k, v in doc.get("poked", {}).items()},
    )


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class FleetServer:
    """Serve a :class:`LaneFleet` over TCP (length-prefixed JSON)."""

    def __init__(
        self,
        fleet: LaneFleet,
        host: str = "127.0.0.1",
        port: int = 0,
        step_timeout: float = 30.0,
    ) -> None:
        self.fleet = fleet
        self.host = host
        self.port = port
        self.step_timeout = step_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        # Every open session may block in a coalescing step at once; the
        # default loop executor (~cpu+4 threads) starves under that --
        # a blocked step's siblings queue behind it and the barrier
        # deadlocks until timeout.  Size the pool to fleet capacity.
        self._pool = ThreadPoolExecutor(
            max_workers=fleet.capacity + 1,
            thread_name_prefix="repro-serve-step",
        )

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)
        if self._stopped is not None:
            self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Start (if needed) and serve until :meth:`stop` is called."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        sessions: Dict[int, Session] = {}
        try:
            while True:
                try:
                    request = await wire.read_frame(reader)
                except wire.FrameError:
                    break  # not speaking frames: end this connection only
                if request is None:
                    break
                response = await self._dispatch(request, sessions)
                writer.write(wire.encode(response))
                await writer.drain()
        finally:
            # A vanished client must not gate its siblings' barrier.
            for session in sessions.values():
                try:
                    session.close()
                except Exception:
                    pass
            sessions.clear()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _session_of(self, request: Dict[str, Any],
                    sessions: Dict[int, Session]) -> Session:
        session_id = request.get("session")
        session = sessions.get(session_id)
        if session is None:
            raise KeyError(
                f"unknown session {session_id!r} on this connection"
            )
        return session

    async def _dispatch(self, request: Dict[str, Any],
                        sessions: Dict[int, Session]) -> Dict[str, Any]:
        try:
            op = request.get("op")
            if op == "info":
                return {"ok": True, **self.fleet.describe()}
            if op == "open":
                session = self.fleet.open_session()
                sessions[session.session_id] = session
                return {
                    "ok": True,
                    "session": session.session_id,
                    "member": session.member,
                    "lane": session.lane,
                }
            if op == "close":
                session = self._session_of(request, sessions)
                del sessions[session.session_id]
                session.close()
                return {"ok": True}
            if op == "poke":
                session = self._session_of(request, sessions)
                session.poke(request["name"], int(request["value"]))
                return {"ok": True}
            if op == "peek":
                session = self._session_of(request, sessions)
                return {"ok": True,
                        "value": session.peek(request["name"])}
            if op == "step":
                session = self._session_of(request, sessions)
                cycles = int(request.get("cycles", 1))
                wait = bool(request.get("wait", True))
                timeout = float(
                    request.get("timeout", self.step_timeout)
                )
                if wait:
                    # One request is in flight per connection, so a
                    # blocking step must not be issued for two sessions
                    # of the same connection (they could never coalesce
                    # with each other) -- use one connection per session,
                    # or wait=false offers.
                    loop = asyncio.get_running_loop()
                    advanced = await loop.run_in_executor(
                        self._pool,
                        lambda: session.step(
                            cycles, wait=True, timeout=timeout
                        ),
                    )
                else:
                    advanced = session.step(cycles, wait=False)
                return {"ok": True, "advanced": advanced,
                        "cycle": session.cycle,
                        "pending": session.pending}
            if op == "checkpoint":
                session = self._session_of(request, sessions)
                return {"ok": True,
                        "state": state_to_json(session.checkpoint())}
            if op == "restore":
                session = self._session_of(request, sessions)
                session.restore(state_from_json(request["state"]))
                return {"ok": True, "cycle": session.cycle}
            if op == "migrate":
                session = self._session_of(request, sessions)
                member = self.fleet.migrate(session)
                return {"ok": True, "member": member,
                        "lane": session.lane}
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # -> structured error frame
            return {
                "ok": False,
                "error": str(exc),
                "kind": type(exc).__name__,
            }


# ----------------------------------------------------------------------
# Background-thread deployment
# ----------------------------------------------------------------------
class ServerHandle:
    """A running :class:`FleetServer` on a background event loop."""

    def __init__(self, server: FleetServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop,
                 address: Tuple[str, int]) -> None:
        self.server = server
        self.thread = thread
        self.loop = loop
        self.address = address

    def close(self) -> None:
        if self.thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop
            ).result(timeout=10)
            self.thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_in_thread(
    fleet: LaneFleet,
    host: str = "127.0.0.1",
    port: int = 0,
    step_timeout: float = 30.0,
) -> ServerHandle:
    """Run a :class:`FleetServer` on a daemon thread; returns a handle
    with the bound ``address`` and a ``close()``."""
    server = FleetServer(fleet, host, port, step_timeout)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def main() -> None:
            try:
                box["address"] = await server.start()
            except Exception as exc:
                box["error"] = exc
                started.set()
                return
            started.set()
            await server.run_until_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("fleet server did not start within 30s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(server, thread, box["loop"], box["address"])


# ----------------------------------------------------------------------
# Sync client
# ----------------------------------------------------------------------
class FleetClient:
    """Blocking stdlib-socket client for :class:`FleetServer`."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def call(self, **request: Any) -> Dict[str, Any]:
        """One request/response round trip; raises on ``ok: false``."""
        wire.send_frame(self._sock, request)
        response = wire.recv_frame(self._sock)
        if not response.get("ok"):
            kind = response.get("kind", "RuntimeError")
            error = response.get("error", "fleet server error")
            exc_type = {
                "KeyError": KeyError,
                "IndexError": IndexError,
                "ValueError": ValueError,
                "TimeoutError": TimeoutError,
                "FleetFullError": FleetFullError,
            }.get(kind, RuntimeError)
            raise exc_type(error)
        return response

    # -- surface -------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        return self.call(op="info")

    def open_session(self) -> "RemoteSession":
        response = self.call(op="open")
        return RemoteSession(self, response["session"],
                             response["member"], response["lane"])

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemoteSession:
    """Client-side mirror of a fleet :class:`Session` -- the same
    scalar-compatible poke/peek/step surface, over the wire."""

    def __init__(self, client: FleetClient, session_id: int,
                 member: int, lane: int) -> None:
        self.client = client
        self.session_id = session_id
        self.member = member
        self.lane = lane
        self.cycle = 0
        self.pending = 0
        #: Set by :func:`connect_session`: closing the session also
        #: closes its dedicated connection.
        self.owns_client = False

    def poke(self, name: str, value: int) -> None:
        self.client.call(op="poke", session=self.session_id,
                         name=name, value=int(value))

    def peek(self, name: str) -> int:
        return self.client.call(
            op="peek", session=self.session_id, name=name
        )["value"]

    def step(self, cycles: int = 1, wait: bool = True,
             timeout: Optional[float] = None) -> int:
        """Blocking by default.  NB: the protocol allows one in-flight
        request per connection, so blocking steps for *several* sessions
        of one :class:`FleetClient` would serialize and never coalesce
        -- give each session its own client connection (see
        :func:`connect_session`), or drive them with ``wait=False``
        offers round-robin, as a local single-threaded driver would."""
        request: Dict[str, Any] = {
            "op": "step", "session": self.session_id, "cycles": cycles,
            "wait": wait,
        }
        if timeout is not None:
            request["timeout"] = timeout
        response = self.client.call(**request)
        self.cycle = response["cycle"]
        self.pending = response.get("pending", 0)
        return response["advanced"]

    def checkpoint(self) -> Dict[str, Any]:
        return self.client.call(
            op="checkpoint", session=self.session_id
        )["state"]

    def restore(self, state: Dict[str, Any]) -> None:
        response = self.client.call(
            op="restore", session=self.session_id, state=state
        )
        self.cycle = response["cycle"]

    def migrate(self) -> int:
        response = self.client.call(op="migrate", session=self.session_id)
        self.member = response["member"]
        self.lane = response["lane"]
        return self.member

    def close(self) -> None:
        try:
            self.client.call(op="close", session=self.session_id)
        finally:
            if self.owns_client:
                self.client.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except (ConnectionError, RuntimeError):
            pass
