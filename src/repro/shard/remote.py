"""The TCP channel of the shard worker protocol: partitions on hosts.

A *shard worker* is a TCP server (``repro.experiments shard-worker`` or
:func:`serve_shard_worker`) running the one worker loop
(:func:`repro.shard.worker.serve`) for one coordinator session at a
time; :class:`SocketChannel` is either end of such a connection, which
``executor="socket"`` opens once per host.  The frames are the
:mod:`repro.wire` frames the process executor puts on its pipes; a
malformed one ends that session while the worker keeps accepting.
"""

from __future__ import annotations

import socket
import sys
import traceback
from typing import List, Optional, Sequence, Tuple

from .. import wire
from .worker import WorkerCore, mp_context, serve

#: Default TCP port for `shard-worker` when none is given.
DEFAULT_PORT = 9555


def _parse_host(spec) -> Tuple[str, int]:
    if isinstance(spec, (tuple, list)):
        host, port = spec
        return str(host), int(port)
    text = str(spec)
    if ":" in text:
        host, _, port = text.rpartition(":")
        return host, int(port)
    return text, DEFAULT_PORT


class SocketChannel:
    """A connected TCP stream carrying frames, either end."""

    connect_timeout = 10.0
    #: Per-frame receive timeout during normal operation: generous (a
    #: heavy partition step is slow), but bounded so a wedged worker
    #: surfaces as a diagnostic error instead of a hang.
    op_timeout = 600.0

    def __init__(self, sock: socket.socket, label: str = "") -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.label = label

    @classmethod
    def connect(cls, host, members: Sequence[int]) -> "SocketChannel":
        """Connect to the worker at ``host`` (``"host[:port]"`` or a
        ``(host, port)`` pair) that will hold partitions ``members``."""
        address = _parse_host(host)
        sock = socket.create_connection(address, timeout=cls.connect_timeout)
        sock.settimeout(cls.op_timeout)
        return cls(
            sock, f"{address[0]}:{address[1]} (partitions {list(members)})"
        )

    def send(self, message) -> None:
        wire.send_frame(self._sock, message)

    def recv(self, timeout: Optional[float] = None):
        if timeout is not None:
            self._sock.settimeout(timeout)
        return wire.recv_frame(self._sock)

    def close(self) -> None:
        self._sock.close()


def serve_shard_worker(server: socket.socket,
                       max_sessions: Optional[int] = None) -> None:
    """Host shard partitions for coordinators on a listening socket
    (``socket.create_server``), one session at a time.

    Each session is one executor's lifetime, and a fresh executor can
    reconnect to the same worker after the previous one closed, died or
    sent garbage.  ``max_sessions`` bounds the loop (an auto-spawned
    loopback worker serves exactly one).  Closes ``server`` on return.
    """
    served = 0
    with server:
        while max_sessions is None or served < max_sessions:
            conn, _peer = server.accept()
            served += 1
            try:
                serve(SocketChannel(conn), WorkerCore())
            except Exception:  # a session must never take the worker down
                traceback.print_exc(file=sys.stderr)
            finally:
                conn.close()


def spawn_local_workers(count: int, sessions: Optional[int] = None):
    """Spawn ``count`` loopback worker processes; returns (hosts, procs).

    The coordinator-side convenience behind ``executor="socket"`` with
    no ``hosts=``: each worker inherits a socket already listening on an
    ephemeral 127.0.0.1 port, so it is connectable at once.  With
    ``sessions`` a worker exits by itself after serving that many.
    """
    ctx = mp_context()
    hosts: List[str] = []
    procs = []
    try:
        for _ in range(count):
            with socket.create_server(("127.0.0.1", 0)) as server:
                proc = ctx.Process(
                    target=serve_shard_worker, args=(server, sessions),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
                hosts.append("127.0.0.1:%d" % server.getsockname()[1])
    except Exception:
        for proc in procs:
            proc.terminate()
        raise
    return hosts, procs


def worker_cli(argv: Optional[Sequence[str]] = None) -> int:
    """``repro.experiments shard-worker``: host partitions on this box."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.experiments shard-worker",
        description="Serve shard partitions to socket coordinators "
        "(length-prefixed JSON frames; nothing received is executed, "
        "unpickled or used as a path).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}; 0 picks "
                        "a free port and prints it)")
    parser.add_argument("--cache-dir", default=None,
                        help="this worker's artifact cache: the only place "
                        "pgraph keys sent by a coordinator are looked up")
    parser.add_argument("--sessions", type=int, default=None,
                        help="exit after serving this many coordinator "
                        "sessions (default: serve forever)")
    args = parser.parse_args(argv)
    if args.cache_dir:
        from ..serve.artifacts import configure_cache

        configure_cache(args.cache_dir)

    server = socket.create_server((args.host, args.port))
    print(f"shard-worker listening on {args.host}:{server.getsockname()[1]}",
          flush=True)
    try:
        serve_shard_worker(server, max_sessions=args.sessions)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0
