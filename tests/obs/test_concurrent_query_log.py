"""Concurrent statement execution vs the query-log ring.

The ring is a bounded deque shared by every executing thread; eviction
under pressure must never produce a snapshot with duplicated, reordered,
or torn records.  These tests hammer one provider from many threads while
a reader snapshots continuously.
"""

import gc
import sys
import threading

import pytest

THREADS = 6
STATEMENTS_PER_THREAD = 40


@pytest.fixture
def loaded(conn):
    conn.execute("CREATE TABLE T (x INT)")
    conn.execute("INSERT INTO T VALUES (1), (2), (3)")
    return conn


def _hammer(conn, errors):
    try:
        for _ in range(STATEMENTS_PER_THREAD):
            conn.execute("SELECT * FROM T")
    except Exception as exc:  # pragma: no cover - the assertion payload
        errors.append(exc)


class TestConcurrentRing:
    def test_snapshots_stay_consistent_under_eviction(self, loaded):
        loaded.provider.tracer.resize_ring(16)
        errors: list = []
        stop = threading.Event()
        snapshots: list = []

        def reader():
            while not stop.is_set():
                snapshots.append(loaded.provider.tracer.statements())

        workers = [threading.Thread(target=_hammer, args=(loaded, errors))
                   for _ in range(THREADS)]
        observer = threading.Thread(target=reader)
        observer.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        observer.join()

        assert not errors
        assert snapshots
        for snapshot in snapshots:
            ids = [record.statement_id for record in snapshot]
            # No duplicates and never more than the ring holds.  The ring
            # is completion-ordered, so ids need not be sorted — a long
            # statement lands after later-started short ones — but no id
            # may appear twice and no snapshot may tear mid-eviction.
            assert len(ids) == len(set(ids))
            assert len(ids) <= 16
            assert all(record.status == "ok" for record in snapshot)

    def test_statement_ids_are_unique_across_threads(self, loaded):
        loaded.provider.tracer.resize_ring(
            THREADS * STATEMENTS_PER_THREAD + 10)
        errors: list = []
        workers = [threading.Thread(target=_hammer, args=(loaded, errors))
                   for _ in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        records = [r for r in loaded.provider.tracer.statements()
                   if "FROM T" in r.text]
        assert len(records) == THREADS * STATEMENTS_PER_THREAD
        ids = [record.statement_id for record in records]
        assert len(set(ids)) == len(ids)

    def test_thread_names_are_recorded(self, loaded):
        loaded.provider.tracer.resize_ring(64)
        done = threading.Event()

        def run():
            loaded.execute("SELECT * FROM T")
            done.set()

        thread = threading.Thread(target=run, name="worker-obs-test")
        thread.start()
        thread.join()
        assert done.is_set()
        threads = {record.thread
                   for record in loaded.provider.tracer.statements()}
        assert "worker-obs-test" in threads
        rowset = loaded.execute(
            "SELECT THREAD FROM $SYSTEM.DM_QUERY_LOG "
            "WHERE THREAD = 'worker-obs-test'")
        assert len(rowset) == 1


WIDE_ROWS = 40
#: Each text is streamed with 4-row batches; column typing reads 20 rows
#: before the stream is returned, so an abandoned one has processed 20.
STREAMS = {"SELECT * FROM Wide": WIDE_ROWS,          # read to the end
           "SELECT x FROM Wide": 20,                 # dropped unread
           "SELECT x AS y FROM Wide": 20}            # dropped half read


def _stream_churn(conn, errors):
    try:
        for _ in range(STATEMENTS_PER_THREAD // 4):
            full, unread, half = STREAMS
            assert sum(len(b) for b in conn.execute_stream(
                full, batch_size=4).batches()) == WIDE_ROWS
            conn.execute_stream(unread, batch_size=4)
            batches = conn.execute_stream(half, batch_size=4).batches()
            next(batches)
            del batches
            conn.execute("SELECT * FROM T")
    except Exception as exc:  # pragma: no cover - the assertion payload
        errors.append(exc)


class TestConcurrentStreams:
    def test_every_stream_retires_exactly_once(self, loaded):
        """Streams read, abandoned and interleaved from more threads than
        cores: every statement is retired into the ring exactly once, with
        its own rows, and none is left in the active set."""
        loaded.execute("CREATE TABLE Wide (x INT)")
        loaded.execute("INSERT INTO Wide VALUES " + ", ".join(
            f"({i})" for i in range(WIDE_ROWS)))
        provider = loaded.provider
        provider.tracer.resize_ring(10_000)
        first = provider.tracer.last().statement_id + 1
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=_stream_churn,
                                        args=(loaded, errors))
                       for _ in range(THREADS)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        gc.collect()
        # One more dispatch retires any stream abandoned at the very end.
        loaded.execute("SELECT * FROM T")
        assert provider.workload.active() == []

        records = [record for record in provider.tracer.statements()
                   if record.statement_id >= first]
        ids = sorted(record.statement_id for record in records)
        assert ids == list(range(first, ids[-1] + 1))
        assert len(ids) == THREADS * (STATEMENTS_PER_THREAD // 4) * 4 + 1
        assert {record.status for record in records} == {"ok"}
        for record in records:
            if record.text in STREAMS:
                assert record.rows_processed == STREAMS[record.text]
