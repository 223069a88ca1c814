"""Unit coverage for the frame protocol and wire codecs.

The frame layer and the rowset/result/error codecs are pure functions over
sockets and JSON — everything here runs against ``socketpair`` ends or
plain values, no server involved.  Also pins the ephemeral-port contract:
every listener in the codebase (DMX server, telemetry endpoint) must
accept ``port=0`` and report the real bound port back, and the server's
byte accounting: a reply is counted before the client can see it.
"""

import datetime
import socket
import struct

import pytest

import repro
from repro.client import connect as net_connect
from repro.errors import (
    BindError,
    Error,
    ParseError,
    ProtocolError,
    ServerBusyError,
)
from repro.server import protocol
from repro.server.server import DmxServer
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    yield left, right
    left.close()
    right.close()


# -- frames -------------------------------------------------------------------

def test_frame_roundtrip(pair):
    left, right = pair
    message = {"op": "execute", "statement": "SELECT 1", "n": 42,
               "nested": {"a": [1, 2, None]}}
    sent = protocol.send_frame(left, message)
    received, nbytes = protocol.recv_frame(right)
    assert received == message
    assert nbytes == sent


def test_clean_eof_returns_none(pair):
    left, right = pair
    left.close()
    assert protocol.recv_frame(right) == (None, 0)


def test_torn_header_raises(pair):
    left, right = pair
    left.sendall(b"\x00\x00")  # half a length prefix
    left.close()
    with pytest.raises(ProtocolError, match="torn frame"):
        protocol.recv_frame(right)


def test_torn_payload_raises(pair):
    left, right = pair
    left.sendall(struct.pack(">I", 100) + b"only a little")
    left.close()
    with pytest.raises(ProtocolError, match="torn frame"):
        protocol.recv_frame(right)


def test_oversize_length_prefix_raises(pair):
    left, right = pair
    left.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
    with pytest.raises(ProtocolError, match="oversize frame"):
        protocol.recv_frame(right)


def test_invalid_json_raises(pair):
    left, right = pair
    payload = b"this is not json {"
    left.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="undecodable"):
        protocol.recv_frame(right)


def test_non_object_json_raises(pair):
    left, right = pair
    payload = b"[1, 2, 3]"
    left.sendall(struct.pack(">I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="JSON object"):
        protocol.recv_frame(right)


def test_send_refuses_oversize_frame(pair):
    left, _ = pair
    monster = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.send_frame(left, monster)


# -- rowset codec -------------------------------------------------------------

def _sample_rowset():
    nested = Rowset([RowsetColumn("k", LONG), RowsetColumn("v", TEXT)],
                    [(1, "a"), (2, None)])
    columns = [
        RowsetColumn("id", LONG),
        RowsetColumn("score", DOUBLE),
        RowsetColumn("label", TEXT),
        RowsetColumn("when", TEXT),
        RowsetColumn("detail", nested_columns=list(nested.columns)),
    ]
    rows = [
        (1, 0.5, "yes", datetime.datetime(2021, 3, 4, 5, 6, 7), nested),
        (2, None, None, datetime.date(2020, 1, 2), None),
    ]
    return Rowset(columns, rows)


def test_rowset_roundtrip_preserves_everything():
    original = _sample_rowset()
    decoded = protocol.rowset_from_wire(protocol.rowset_to_wire(original))
    assert [c.name for c in decoded.columns] == \
        [c.name for c in original.columns]
    assert [c.type.name for c in decoded.columns] == \
        [c.type.name for c in original.columns]
    assert decoded.rows[1][:4] == original.rows[1][:4]
    assert isinstance(decoded.rows[0][0], int)
    assert isinstance(decoded.rows[0][3], datetime.datetime)
    assert isinstance(decoded.rows[1][3], datetime.date)
    inner = decoded.rows[0][4]
    assert isinstance(inner, Rowset)
    assert inner.rows == [(1, "a"), (2, None)]


def test_rowset_dump_is_stable_under_roundtrip():
    original = _sample_rowset()
    decoded = protocol.rowset_from_wire(protocol.rowset_to_wire(original))
    assert protocol.rowset_dump(decoded) == protocol.rowset_dump(original)


def test_rowset_dump_distinguishes_types():
    left = Rowset([RowsetColumn("x", LONG)], [(1,)])
    right = Rowset([RowsetColumn("x", TEXT)], [("1",)])
    assert protocol.rowset_dump(left) != protocol.rowset_dump(right)


# -- result and error codecs --------------------------------------------------

@pytest.mark.parametrize("value", [0, 7, "tracing is ON", None])
def test_scalar_result_roundtrip(value):
    assert protocol.result_from_wire(protocol.result_to_wire(value)) == value


def test_rowset_result_roundtrip():
    wire = protocol.result_to_wire(_sample_rowset())
    assert wire["type"] == "rowset"
    decoded = protocol.result_from_wire(wire)
    assert protocol.rowset_dump(decoded) == \
        protocol.rowset_dump(_sample_rowset())


def test_unknown_result_type_raises():
    with pytest.raises(ProtocolError):
        protocol.result_from_wire({"type": "martian"})


@pytest.mark.parametrize("exc", [
    BindError("no table named 'x'"),
    Error("plain"),
    ServerBusyError("full up"),
])
def test_error_roundtrip_preserves_class_and_message(exc):
    rebuilt = protocol.error_from_wire(protocol.error_to_wire(exc))
    assert type(rebuilt) is type(exc)
    assert str(rebuilt) == str(exc)


def test_parse_error_roundtrip_keeps_position_once():
    original = ParseError("unexpected token", line=3, column=9)
    rebuilt = protocol.error_from_wire(protocol.error_to_wire(original))
    assert type(rebuilt) is ParseError
    assert (rebuilt.line, rebuilt.column) == (3, 9)
    assert str(rebuilt) == str(original)
    assert str(rebuilt).count("(line 3, column 9)") == 1


def test_unknown_error_type_degrades_to_base_error():
    rebuilt = protocol.error_from_wire({"type": "FancyNewError",
                                        "message": "hm"})
    assert type(rebuilt) is Error
    assert str(rebuilt) == "hm"


def test_malicious_error_type_cannot_escape_the_hierarchy():
    # A type name resolving to a non-Error attribute must not be raised.
    rebuilt = protocol.error_from_wire({"type": "__builtins__",
                                        "message": "nope"})
    assert type(rebuilt) is Error


# -- ephemeral ports ----------------------------------------------------------

def test_dmx_server_reports_bound_ephemeral_port():
    conn = repro.connect()
    server = DmxServer(conn.provider, port=0)
    try:
        assert server.port != 0
        probe = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5.0)
        probe.close()
    finally:
        server.close()
        conn.close()


def test_telemetry_server_reports_bound_ephemeral_port():
    conn = repro.connect()
    try:
        server = conn.provider.serve_metrics(port=0)
        assert server.port != 0
        assert str(server.port) in server.url
    finally:
        conn.close()


def test_two_ephemeral_servers_coexist():
    conn = repro.connect()
    first = DmxServer(conn.provider, port=0)
    other = repro.connect()
    second = DmxServer(other.provider, port=0)
    try:
        assert first.port != second.port
    finally:
        second.close()
        first.close()
        other.close()
        conn.close()


# -- byte accounting ----------------------------------------------------------

def test_bytes_out_counts_a_reply_before_the_client_sees_it():
    """A client that reads ``server.bytes_out`` (or ``DM_SESSIONS``) right
    after a reply must find that reply counted: the server counts a frame
    before it sends it, not after."""
    conn = repro.connect()
    server = DmxServer(conn.provider, port=0)
    pong = len(protocol.encode_frame({"ok": True, "pong": True}))
    try:
        with net_connect("127.0.0.1", server.port) as client:
            client.ping()
            session = server.sessions()[0]
            start = session.bytes_out
            counted = server.metrics.value("server.bytes_out")
            for sent in range(1, 201):
                client.ping()
                assert session.bytes_out - start == sent * pong
                assert server.metrics.value("server.bytes_out") - counted \
                    == sent * pong
    finally:
        server.close()
        conn.close()
