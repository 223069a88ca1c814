"""Wire latency: every DMX socket runs with Nagle's algorithm off.

``execute_stream`` writes its columns, batch and end frames back to back.
With Nagle on, each small write after the first waits for the peer's
delayed ACK (40 ms or more on Linux), so a multi-batch stream over
loopback would cost tens of milliseconds for microseconds of work.  These
tests pin ``TCP_NODELAY`` on both ends of a session and on the CANCEL
control connection, and pin the end-to-end effect with a timing bound a
delayed-ACK stall cannot meet.
"""

import socket
import time

import pytest

import repro
from repro.client import connect as net_connect
from repro.errors import Error
from repro.server import DmxServer, protocol

STREAM_ROWS = 500
STREAM_BATCH = 64
#: A delayed-ACK stall alone is >= 40 ms on Linux; a stall-free 500-row
#: stream over loopback takes a few milliseconds.
STREAM_BOUND_MS = 25.0


def _nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


@pytest.fixture
def served():
    conn = repro.connect()
    conn.execute("CREATE TABLE Wide (id INT, name TEXT, score DOUBLE)")
    conn.execute("INSERT INTO Wide VALUES " + ", ".join(
        f"({i}, 'name-{i}', {i * 0.25})" for i in range(STREAM_ROWS)))
    server = DmxServer(conn.provider, port=0)
    yield server
    server.close()
    conn.close()
    assert server.thread_errors == []


def test_client_session_socket_sets_nodelay(served):
    with net_connect("127.0.0.1", served.port) as client:
        assert _nodelay(client._sock)


def test_server_session_socket_sets_nodelay(served):
    with net_connect("127.0.0.1", served.port) as client:
        assert client.ping()
        sessions = served.sessions()
        assert len(sessions) == 1
        assert _nodelay(sessions[0].sock)


def test_cancel_control_connection_sets_nodelay_on_both_ends(served,
                                                             monkeypatch):
    with net_connect("127.0.0.1", served.port) as client:
        seen = []
        original = protocol.set_nodelay

        def spy(sock):
            original(sock)
            seen.append(_nodelay(sock))

        monkeypatch.setattr(protocol, "set_nodelay", spy)
        with pytest.raises(Error):
            client.cancel(999_999)  # no such statement: refused, not lost
        # The server handles the control connection on its own thread;
        # its set-up call lands before it replies, so it is already seen.
        assert seen == [True, True]


def test_multi_batch_stream_has_no_delayed_ack_stall(served):
    with net_connect("127.0.0.1", served.port) as client:
        timings = []
        for _ in range(5):
            started = time.perf_counter()
            stream = client.execute_stream(
                "SELECT id, name, score FROM Wide", STREAM_BATCH)
            batches = list(stream.batches())
            timings.append((time.perf_counter() - started) * 1000.0)
            assert sum(len(batch) for batch in batches) == STREAM_ROWS
            assert len(batches) >= 8
    assert min(timings) < STREAM_BOUND_MS, timings
