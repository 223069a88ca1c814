"""A streamed statement served over the wire lives until its last batch.

The server pulls the provider's stream batch by batch and frames each one
onto the socket.  The statement's record must stay live across those
pulls: its row and batch counters, its ``DM_STATEMENT_RESOURCES`` row and
its duration all cover the whole stream, not the typing head that is read
before the columns frame goes out.
"""

import time

import pytest

import repro
from repro.client import connect as net_connect
from repro.server import DmxServer, protocol

STREAM_ROWS = 3000
STREAM_BATCH = 64
STREAM_BATCHES = 47  # ceil(3000 / 64)
STREAM_SQL = "SELECT a FROM S WHERE a >= 0"
#: Server-side delay per encoded batch frame; the statement's duration
#: must include it for every one of the 47 batches.
FRAME_DELAY_S = 0.002


@pytest.fixture
def served():
    conn = repro.connect()
    conn.execute("CREATE TABLE S (a LONG)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i})" for i in range(STREAM_ROWS)))
    server = DmxServer(conn.provider, port=0)
    yield server
    server.close()
    conn.close()
    assert server.thread_errors == []


def _stream_record(client):
    """(STATEMENT_ID, (STATUS, DURATION_MS, ROWS_SCANNED, ROWS_OUT))."""
    rows = [row for row in client.execute(
        "SELECT STATEMENT_ID, STATEMENT, STATUS, DURATION_MS, ROWS_SCANNED, "
        "ROWS_OUT FROM $SYSTEM.DM_QUERY_LOG").rows if row[1] == STREAM_SQL]
    assert len(rows) == 1, rows
    return rows[0][0], rows[0][2:]


def test_fully_read_wire_stream_is_accounted_to_its_last_row(
        served, monkeypatch):
    original = protocol.encode_rows

    def slow_encode(rows):
        time.sleep(FRAME_DELAY_S)
        return original(rows)

    monkeypatch.setattr(protocol, "encode_rows", slow_encode)
    with net_connect("127.0.0.1", served.port) as client:
        stream = client.execute_stream(STREAM_SQL, batch_size=STREAM_BATCH)
        assert sum(len(batch) for batch in stream.batches()) == STREAM_ROWS

        statement_id, (status, duration_ms, scanned, out) = \
            _stream_record(client)
        assert status == "ok"
        assert (scanned, out) == (STREAM_ROWS, STREAM_ROWS)
        # Every batch frame was encoded while the statement was live.
        assert duration_ms >= STREAM_BATCHES * FRAME_DELAY_S * 1000.0

        counters = client.execute(
            "SELECT COUNTERS FROM $SYSTEM.DM_TRACE_EVENTS WHERE "
            f"STATEMENT_ID = {statement_id} AND DEPTH = 0").rows[0][0]
        assert f"batches={STREAM_BATCHES}" in counters.split(", ")

        processed = client.execute(
            "SELECT ROWS_PROCESSED FROM $SYSTEM.DM_STATEMENT_RESOURCES "
            f"WHERE STATEMENT_ID = {statement_id}").rows
        assert processed == [(STREAM_ROWS,)]
