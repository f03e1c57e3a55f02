"""The one wire codec: a 4-byte length prefix and a JSON body.

Every frame :mod:`repro.serve` and :mod:`repro.shard` put on a socket or
a pipe is ``>I`` big-endian body length followed by a compact UTF-8 JSON
document.  Python's ``json`` round-trips arbitrary-precision ints, so
lane rows and wide signal values need no special casing, and decoding a
frame never executes anything: a hostile or corrupt peer can at worst
make :func:`decode` raise :class:`FrameError`.
"""

from __future__ import annotations

import json
import struct

_LEN = struct.Struct(">I")
HEADER_SIZE = _LEN.size
#: Refuse frames above this size -- a corrupt length prefix must not make
#: a peer try to allocate gigabytes.  A whole-plane shard snapshot of a
#: large design at B=64 is tens of megabytes.
MAX_FRAME = 256 << 20

_dumps = json.JSONEncoder(separators=(",", ":")).encode


class FrameError(ValueError):
    """The byte stream is not a sequence of well-formed frames."""


def encode(message) -> bytes:
    """One whole frame (prefix + body) for a JSON-able ``message``."""
    body = _dumps(message).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def body_length(header: bytes) -> int:
    """The body length a frame header announces, bounds-checked."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(
            f"frame length {length} exceeds MAX_FRAME -- corrupt stream?"
        )
    return length


def decode(body: bytes):
    """The message in a frame body."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as exc:  # includes UnicodeDecodeError
        raise FrameError(f"frame body is not JSON ({exc})") from None


def decode_frame(frame: bytes):
    """The message in one whole frame, as :func:`encode` produced it
    (message-oriented transports such as pipes deliver frames intact)."""
    if len(frame) < HEADER_SIZE:
        raise FrameError(f"frame of {len(frame)} bytes has no length prefix")
    if body_length(frame[:HEADER_SIZE]) != len(frame) - HEADER_SIZE:
        raise FrameError("frame length prefix does not match its body")
    return decode(frame[HEADER_SIZE:])


# ----------------------------------------------------------------------
# Stream transports
# ----------------------------------------------------------------------
def _recv_exactly(sock, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("socket closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, message) -> None:
    sock.sendall(encode(message))


def recv_frame(sock):
    """The next message off a blocking socket.  ``ConnectionError`` when
    the peer is gone, :class:`FrameError` when it is not speaking frames."""
    length = body_length(_recv_exactly(sock, HEADER_SIZE))
    return decode(_recv_exactly(sock, length))


async def read_frame(reader):
    """The next message off an ``asyncio.StreamReader``, or ``None`` once
    the peer has closed (cleanly or mid-frame)."""
    try:
        header = await reader.readexactly(HEADER_SIZE)
        body = await reader.readexactly(body_length(header))
    except (EOFError, ConnectionError):  # IncompleteReadError is an EOFError
        return None
    return decode(body)
