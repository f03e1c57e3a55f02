"""The one wire codec (repro.wire), shared by repro.serve and the shard
channels: framing, malformed input, lane rows at every width class, the
partition-graph document, and the no-pickle rule."""

import ast
import json
import random
import socket
import struct
from pathlib import Path

import pytest

from repro import wire
from repro.designs.registry import compiled_graph, standard_designs
from repro.graph.dfg import graph_from_doc, graph_to_doc
from repro.serve.artifacts import design_fingerprint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        payload = {"rows": [[1, 2**63], [0, 1]], "name": "x"}
        wire.send_frame(left, payload)
        assert wire.recv_frame(right) == payload

    def test_oversized_length_prefix_rejected(self, pair):
        left, right = pair
        left.sendall((wire.MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(wire.FrameError, match="MAX_FRAME"):
            wire.recv_frame(right)

    def test_eof_mid_frame(self, pair):
        left, right = pair
        left.sendall((64).to_bytes(4, "big") + b"short")
        left.close()
        with pytest.raises(ConnectionError, match="closed mid-frame"):
            wire.recv_frame(right)

    def test_truncated_length_prefix(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(ConnectionError):
            wire.recv_frame(right)

    @pytest.mark.parametrize("body", [
        b"\x80\x04\x95\x05\x00\x00\x00\x00\x00\x00\x00K\x01.",  # a pickle
        b"{not json", b"\xff\xfe", b"",
    ])
    def test_non_json_body_rejected(self, pair, body):
        left, right = pair
        left.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(wire.FrameError, match="not JSON"):
            wire.recv_frame(right)

    def test_decode_frame_checks_the_prefix(self):
        frame = wire.encode(["step", None])
        assert wire.decode_frame(frame) == ["step", None]
        with pytest.raises(wire.FrameError):
            wire.decode_frame(frame[:-1])
        with pytest.raises(wire.FrameError):
            wire.decode_frame(frame[:3])

    def test_encode_refuses_oversized_and_unencodable(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME", 16)
        with pytest.raises(ValueError, match="MAX_FRAME"):
            wire.encode(list(range(100)))
        with pytest.raises(TypeError):
            wire.encode({"graph": object()})

    def test_serve_frames_are_byte_identical_to_the_old_encoder(self):
        """repro.serve's framing moved here; Fleet client/server bytes on
        the wire must not have changed."""
        def old_encode(message):
            body = json.dumps(message, separators=(",", ":")).encode("utf-8")
            return struct.pack(">I", len(body)) + body

        for message in (
            {"op": "info"},
            {"op": "poke", "session": 3, "name": "io_in", "value": 2**130 + 5},
            {"op": "step", "session": 0, "cycles": 4, "wait": True,
             "timeout": 1.5},
            {"ok": False, "error": "unknown session None", "kind": "KeyError"},
            {"ok": True, "state": {"engine": "batch", "cycle": 7,
                                   "payload": {"kind": "batch",
                                               "values": [0, 1, 2**64]},
                                   "poked": {"café": 1}}},
        ):
            assert wire.encode(message) == old_encode(message)


class TestLaneRows:
    @pytest.mark.parametrize("lanes", (1, 64))
    @pytest.mark.parametrize("width", (1, 63, 64, 65, 128))
    def test_rows_roundtrip(self, pair, width, lanes):
        rng = random.Random(width * 1000 + lanes)
        top = (1 << width) - 1
        rows = {
            "edges": [0, top, 1 << (width - 1)][:lanes] or [top],
            "random": [rng.randint(0, top) for _ in range(lanes)],
        }
        left, right = pair
        wire.send_frame(left, ["sync", [[0, rows, []]]])
        op, ((local, got, adopt),) = wire.recv_frame(right)
        assert (op, local, adopt) == ("sync", 0, [])
        assert got == rows
        assert all(type(v) is int for row in got.values() for v in row)


class TestGraphDocument:
    @pytest.mark.parametrize("design", standard_designs())
    def test_roundtrip_preserves_fingerprint(self, design):
        graph = compiled_graph(design)
        frame = wire.encode(graph_to_doc(graph))
        clone = graph_from_doc(wire.decode_frame(frame))
        assert design_fingerprint(clone) == design_fingerprint(graph)
        assert clone._intern == graph._intern

    def test_malformed_documents_raise(self, mixed_graph):
        good = graph_to_doc(mixed_graph)
        for breakage in (
            lambda d: d.pop("nodes"),
            lambda d: d["nodes"].append(["add", [10**6, 0], 8, 0, None]),
            lambda d: d["nodes"].append(["add", [0], 8]),
            lambda d: d["inputs"].update(ghost=10**6),
            lambda d: d["registers"].update(r=[8, 10**6, 0, 0, None, "clock"]),
            lambda d: d["nodes"].__setitem__(0, ["input", [], 1, 0, 7]),
        ):
            doc = json.loads(json.dumps(good))
            breakage(doc)
            with pytest.raises((KeyError, TypeError, ValueError)):
                graph_from_doc(doc)


def _imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_pickle_on_the_wire_modules():
    """Nothing that reads a socket or a pipe may be able to unpickle."""
    files = sorted((SRC / "shard").glob("*.py")) + [SRC / "wire.py"]
    assert len(files) > 3
    for path in files:
        banned = [m for m in _imports(path)
                  if m.split(".")[0] in ("pickle", "cPickle", "marshal",
                                         "shelve", "dill")]
        assert not banned, f"{path} imports {banned}"
