"""Live workload introspection: registry, resources, lock waits, exports.

Companion to ``tests/exec/test_cancellation.py`` (which drives the CANCEL
verb end to end).  Here the focus is the accounting itself: the registry
and token primitives, the ``$SYSTEM`` rowsets fed by them, per-statement
CPU/lock-wait reconciliation, the Chrome-trace exporter, the ``/active``
HTTP route, and the telemetry-server lifecycle.
"""

import gc
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.errors import CancelledError, Error
from repro.obs import workload as obs_workload
from repro.obs.export import chrome_trace_events
from repro.obs.trace import StatementRecord, Tracer
from repro.obs.workload import CancelToken, WorkloadRegistry


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


# -- primitives ----------------------------------------------------------------

class TestCancelToken:
    def test_starts_clear_and_latches(self):
        token = CancelToken(7)
        assert not token.cancelled
        token.check()  # no-op while clear
        token.cancel("operator said so")
        assert token.cancelled
        assert token.reason == "operator said so"

    def test_check_raises_with_the_reason(self):
        token = CancelToken(7)
        token.cancel("test reason")
        with pytest.raises(CancelledError, match="test reason"):
            token.check()

    def test_module_helpers_are_noops_without_a_statement(self):
        # The instrumented layers call these unconditionally; with no
        # active statement they must cost nothing and raise nothing.
        assert obs_workload.current() is None
        obs_workload.check()
        obs_workload.checkpoint(rows=10)
        obs_workload.set_phase("train")
        obs_workload.note_cache(hit=True)
        obs_workload.set_partitions(4)
        obs_workload.partition_done()


class TestWorkloadRegistry:
    def test_retired_record_moves_from_active_to_the_ring(self):
        tracer = Tracer()
        registry = WorkloadRegistry()
        tracer.on_statement = registry.observe
        record = registry.register(tracer.begin("SELECT 1", kind="SELECT"))
        assert registry.active() == [record]
        assert registry.resource_records(tracer) == [record]
        assert record.status == "running"
        tracer.retire(record)
        assert registry.active() == []
        assert registry.resource_records(tracer) == [record]
        assert record.status == "ok"
        assert record.duration_ms >= 0.0

    def test_resources_list_only_records_the_registry_admitted(self):
        tracer = Tracer()
        registry = WorkloadRegistry()
        tracer.on_statement = registry.observe
        admitted = registry.register(tracer.begin("SELECT 1"))
        unadmitted = tracer.begin("SELECT 2")
        for record in (admitted, unadmitted):
            tracer.retire(record)
        assert registry.resource_records(tracer) == [admitted]

    def test_a_record_retiring_mid_read_is_listed_once_as_live(self):
        tracer = Tracer()
        registry = WorkloadRegistry()
        record = registry.register(tracer.begin("SELECT 1"))
        tracer.retire(record)  # in the ring, not yet observed
        assert registry.resource_records(tracer) == [record]

    def test_disabled_registry_registers_nothing(self):
        registry = WorkloadRegistry()
        registry.enabled = False
        assert registry.register(StatementRecord(1, "SELECT 1")) is None
        assert registry.active() == []

    def test_cancel_unknown_id_names_the_active_set(self):
        registry = WorkloadRegistry()
        registry.register(StatementRecord(3, "SELECT 1"))
        with pytest.raises(Error, match="no active statement with id 9"):
            registry.cancel(9)

    def test_cancel_latches_the_statements_token(self):
        registry = WorkloadRegistry()
        statement = registry.register(StatementRecord(4, "SELECT 1"))
        registry.cancel(4)
        assert statement.token.cancelled
        with pytest.raises(CancelledError):
            statement.token.check()

    def test_advance_tracks_rows_batches_and_peak(self):
        statement = StatementRecord(1, "scan")
        statement.advance(10)
        statement.advance(30)
        statement.advance(20)
        assert statement.rows_processed == 60
        assert statement.batches == 3
        assert statement.peak_batch_rows == 30

    def test_advance_is_a_cancellation_checkpoint(self):
        statement = StatementRecord(1, "scan")
        statement.token.cancel()
        with pytest.raises(CancelledError):
            statement.advance(10)


# -- the $SYSTEM rowsets -------------------------------------------------------

@pytest.fixture
def trained(conn):
    conn.execute("CREATE TABLE T (Id LONG, G TEXT, Buys TEXT)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', '{'yes' if i % 3 else 'no'}')"
        for i in range(1, 201)))
    conn.execute("CREATE MINING MODEL NB (Id LONG KEY, G TEXT DISCRETE, "
                 "Buys TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes")
    conn.execute("INSERT INTO NB (Id, G, Buys) SELECT Id, G, Buys FROM T")
    return conn


class TestStatementResourcesRowset:
    def test_train_reports_nonzero_cpu_and_rows(self, trained):
        rows = trained.execute(
            "SELECT STATUS, CPU_MS, ROWS_PROCESSED, BATCHES FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'TRAIN'").rows
        assert len(rows) == 1
        status, cpu_ms, rows_processed, batches = rows[0]
        assert status == "ok"
        assert cpu_ms > 0.0
        assert rows_processed >= 200
        assert batches >= 1

    def test_resources_reconcile_with_the_query_log(self, trained):
        # Read the log first: the resources view also lists the statement
        # executing it (live, duration still None), which the earlier log
        # snapshot by definition does not contain.
        log = trained.execute("SELECT STATEMENT_ID, DURATION_MS FROM "
                              "$SYSTEM.DM_QUERY_LOG").rows
        resources = {row[0]: row for row in trained.execute(
            "SELECT STATEMENT_ID, DURATION_MS, CPU_MS, LOCK_WAIT_MS FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES").rows}
        assert log and resources
        for statement_id, duration_ms in log:
            assert statement_id in resources
            _, res_duration, _cpu, lock_wait = resources[statement_id]
            # Same statement, same clock: the two views agree, and a
            # statement cannot wait on locks longer than it existed.
            assert res_duration == pytest.approx(duration_ms, abs=1.0)
            assert 0.0 <= lock_wait <= duration_ms + 1.0

    def test_cache_counters_surface(self, trained):
        # Retraining the same model from the same source hits the caseset
        # cache (the key spans model, source, and data version).
        trained.execute("INSERT INTO NB (Id, G, Buys) "
                        "SELECT Id, G, Buys FROM T")
        rows = trained.execute(
            "SELECT CACHE_HITS, CACHE_MISSES FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'TRAIN'").rows
        assert len(rows) == 2
        assert rows[0][1] >= 1  # first train misses
        assert rows[1][0] >= 1  # second train hits

    def test_sink_record_carries_the_same_resources(self, tmp_path):
        conn = repro.connect(telemetry_path=str(tmp_path / "slow.jsonl"),
                             slow_query_ms=0.0)
        try:
            conn.execute("CREATE TABLE T (Id LONG)")
            conn.execute("INSERT INTO T VALUES (1), (2), (3)")
            conn.execute("SELECT * FROM T")
            records = conn.provider.slow_sink.records()
            assert records
            select = [r for r in records if r["kind"] == "SELECT"][-1]
            assert "resources" in select
            rowset = {row[0]: row for row in conn.execute(
                "SELECT STATEMENT_ID, CPU_MS, ROWS_PROCESSED FROM "
                "$SYSTEM.DM_STATEMENT_RESOURCES").rows}
            pinned = rowset[select["statement_id"]]
            assert select["resources"]["cpu_ms"] == pinned[1]
            assert select["resources"]["rows_processed"] == pinned[2]
        finally:
            conn.close()


class TestLockWaits:
    def test_blocked_reader_is_profiled(self, trained):
        model = trained.model("NB")
        finished = threading.Event()

        def blocked_predict():
            trained.execute(
                "SELECT t.Id, NB.Buys FROM NB NATURAL PREDICTION JOIN "
                "(SELECT Id, G FROM T) AS t")
            finished.set()

        with model.lock.write():
            thread = threading.Thread(target=blocked_predict)
            thread.start()
            # Let the reader reach (and block on) the model read lock.
            time.sleep(0.08)
            assert not finished.is_set()
        thread.join(5.0)
        assert finished.is_set()

        waits = trained.execute(
            "SELECT LOCK, MODE, WAITS, TOTAL_WAIT_MS, MAX_WAIT_MS FROM "
            "$SYSTEM.DM_LOCK_WAITS").rows
        by_key = {(lock, mode): (count, total, peak)
                  for lock, mode, count, total, peak in waits}
        assert ("model:NB", "read") in by_key
        count, total, peak = by_key[("model:NB", "read")]
        assert count >= 1
        assert total >= 50.0  # we held the write lock ~80ms
        assert peak <= total + 1e-6

        resources = trained.execute(
            "SELECT LOCK_WAIT_MS, LOCK_WAITS FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'PREDICT'").rows
        assert resources[-1][0] >= 50.0
        assert resources[-1][1] >= 1

        metrics = {metric: value for metric, value in trained.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
            "WHERE METRIC LIKE 'lock.%'").rows}
        assert metrics["lock.waits"] >= 1
        assert metrics["lock.waits.read"] >= 1

    def test_uncontended_statements_report_no_waits(self, trained):
        assert trained.execute(
            "SELECT * FROM $SYSTEM.DM_LOCK_WAITS").rows == []


class TestActiveStatementsRowset:
    def test_idle_provider_shows_only_the_observer(self, trained):
        # The SELECT over DM_ACTIVE_STATEMENTS is itself a live statement,
        # so the rowset always reflects at least its own execution.
        rows = trained.execute(
            "SELECT KIND, PHASE, CANCEL_REQUESTED FROM "
            "$SYSTEM.DM_ACTIVE_STATEMENTS").rows
        assert len(rows) == 1
        kind, phase, cancel_requested = rows[0]
        assert kind == "SELECT"
        assert phase == "scan"
        assert cancel_requested is False


# -- streamed statements live until their stream ends -------------------------

STREAM_ROWS = 3000
STREAM_BATCH = 64
STREAM_BATCHES = 47  # ceil(3000 / 64)
STREAM_SQL = "SELECT a FROM S WHERE a >= 0"


def _load_stream_tables(conn):
    conn.execute("CREATE TABLE S (a LONG)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i})" for i in range(STREAM_ROWS)))
    conn.execute("CREATE TABLE Small (a LONG)")
    conn.execute("INSERT INTO Small VALUES (1), (2), (3), (4), (5)")
    return conn


@pytest.fixture
def streamed(conn):
    return _load_stream_tables(conn)


def _active_id(conn, text):
    rows = conn.execute("SELECT STATEMENT_ID, STATEMENT FROM "
                        "$SYSTEM.DM_ACTIVE_STATEMENTS").rows
    ids = [statement_id for statement_id, statement in rows
           if statement == text]
    assert ids, f"{text!r} is not in DM_ACTIVE_STATEMENTS: {rows}"
    return ids[0]


def _logged(conn, statement_id):
    """(STATUS, DURATION_MS, ROWS_SCANNED, ROWS_OUT, root counters) of one
    statement, read back through the $SYSTEM views."""
    rows = conn.execute(
        "SELECT STATUS, DURATION_MS, ROWS_SCANNED, ROWS_OUT FROM "
        f"$SYSTEM.DM_QUERY_LOG WHERE STATEMENT_ID = {statement_id}").rows
    assert len(rows) == 1, rows
    counters = conn.execute(
        "SELECT COUNTERS FROM $SYSTEM.DM_TRACE_EVENTS WHERE "
        f"STATEMENT_ID = {statement_id} AND DEPTH = 0").rows[0][0]
    parsed = dict(pair.split("=") for pair in counters.split(", "))
    return rows[0] + ({name: float(value)
                       for name, value in parsed.items()},)


def _rows_processed(conn, statement_id):
    rows = conn.execute(
        "SELECT ROWS_PROCESSED FROM $SYSTEM.DM_STATEMENT_RESOURCES "
        f"WHERE STATEMENT_ID = {statement_id}").rows
    assert len(rows) == 1, rows
    return rows[0][0]


class TestStreamLifetime:
    def test_cancel_lands_between_batches(self, streamed):
        batches = streamed.execute_stream(STREAM_SQL,
                                          batch_size=STREAM_BATCH).batches()
        assert len(next(batches)) == STREAM_BATCH
        statement_id = _active_id(streamed, STREAM_SQL)
        assert "cancel requested" in streamed.execute(
            f"CANCEL {statement_id}")
        with pytest.raises(CancelledError):
            next(batches)
        status = _logged(streamed, statement_id)[0]
        assert status == "cancelled"
        assert statement_id not in [
            row[0] for row in streamed.execute(
                "SELECT STATEMENT_ID FROM $SYSTEM.DM_ACTIVE_STATEMENTS").rows]

    def test_fully_read_stream_is_accounted_to_its_last_row(self, streamed):
        stream = streamed.execute_stream(STREAM_SQL, batch_size=STREAM_BATCH)
        statement_id = _active_id(streamed, STREAM_SQL)
        batches = stream.batches()
        read = len(next(batches))
        time.sleep(0.1)  # the consumer is slow; the statement is still live
        read += sum(len(batch) for batch in batches)
        assert read == STREAM_ROWS
        status, duration_ms, scanned, out, counters = _logged(
            streamed, statement_id)
        assert status == "ok"
        assert (scanned, out) == (STREAM_ROWS, STREAM_ROWS)
        assert counters["batches"] == STREAM_BATCHES
        assert duration_ms >= 100.0
        assert _rows_processed(streamed, statement_id) == STREAM_ROWS

    def test_dropped_unread_stream_leaves_the_active_set(self, streamed):
        stream = streamed.execute_stream(STREAM_SQL, batch_size=STREAM_BATCH)
        statement_id = _active_id(streamed, STREAM_SQL)
        del stream
        gc.collect()
        active = [row[0] for row in streamed.execute(
            "SELECT STATEMENT_ID FROM $SYSTEM.DM_ACTIVE_STATEMENTS").rows]
        assert statement_id not in active
        assert _logged(streamed, statement_id)[0] == "ok"

    def test_statement_between_pulls_keeps_its_own_counters(self, streamed):
        stream = streamed.execute_stream(STREAM_SQL, batch_size=STREAM_BATCH)
        statement_id = _active_id(streamed, STREAM_SQL)
        batches = stream.batches()
        next(batches)
        next(batches)
        assert len(streamed.execute("SELECT a FROM Small")) == 5
        between = streamed.provider.tracer.last().statement_id
        assert sum(len(batch) for batch in batches) == \
            STREAM_ROWS - 2 * STREAM_BATCH
        _, _, scanned, out, counters = _logged(streamed, between)
        assert (scanned, out) == (5, 5)
        assert counters["batches"] == 1
        assert _rows_processed(streamed, between) == 5
        _, _, scanned, out, counters = _logged(streamed, statement_id)
        assert (scanned, out) == (STREAM_ROWS, STREAM_ROWS)
        assert counters["batches"] == STREAM_BATCHES
        assert _rows_processed(streamed, statement_id) == STREAM_ROWS


class TestOneRecord:
    """DM_STATEMENT_RESOURCES, DM_QUERY_LOG, the sink and ``/queries`` all
    read the same record, whatever way the statement ended."""

    RESOURCE_KEYS = {
        "statement_id", "phase", "status", "cpu_ms", "pool_cpu_ms",
        "lock_wait_ms", "lock_waits", "rows_processed", "peak_batch_rows",
        "batches", "partitions_done", "partitions_total", "pool_tasks",
        "cache_hits", "cache_misses"}

    def test_mixed_script_agrees_across_every_view(self, tmp_path):
        from repro.client import connect as net_connect
        from repro.server import DmxServer

        conn = repro.connect(telemetry_path=str(tmp_path / "slow.jsonl"),
                             slow_query_ms=0.0)
        server = DmxServer(conn.provider, port=0)
        http = conn.provider.serve_metrics(port=0)
        try:
            _load_stream_tables(conn)
            conn.execute("CREATE MINING MODEL NB (a LONG KEY, b TEXT "
                         "DISCRETE PREDICT) USING Repro_Naive_Bayes")
            conn.execute("INSERT INTO NB (a, b) SELECT a, 'x' FROM Small")
            with pytest.raises(Error):
                conn.execute("SELECT nope FROM Small")
            # A stream cancelled between batches.
            cancelled = conn.execute_stream(STREAM_SQL,
                                            batch_size=STREAM_BATCH)
            batches = cancelled.batches()
            next(batches)
            conn.execute(f"CANCEL {_active_id(conn, STREAM_SQL)}")
            with pytest.raises(CancelledError):
                next(batches)
            # A stream read to the end, with a wire session interleaved.
            batches = conn.execute_stream(STREAM_SQL,
                                          batch_size=STREAM_BATCH).batches()
            next(batches)
            with net_connect("127.0.0.1", server.port) as client:
                assert len(client.execute("SELECT a FROM Small")) == 5
                assert sum(len(batch) for batch in client.execute_stream(
                    "SELECT a FROM S", batch_size=STREAM_BATCH)) > 0
            assert sum(len(batch) for batch in batches) == \
                STREAM_ROWS - STREAM_BATCH

            resources = conn.execute(
                "SELECT STATEMENT_ID, STATUS, DURATION_MS FROM "
                "$SYSTEM.DM_STATEMENT_RESOURCES").rows
            log = {row[0]: row[1:] for row in conn.execute(
                "SELECT STATEMENT_ID, STATUS, DURATION_MS, KIND FROM "
                "$SYSTEM.DM_QUERY_LOG").rows}
            finished = {row[0]: row[1:] for row in resources
                        if row[1] != "running"}
            reader = [row[0] for row in resources if row[1] == "running"]
            assert set(log) == set(finished) | set(reader)
            for statement_id, (status, duration_ms) in finished.items():
                assert log[statement_id][:2] == (status, duration_ms)
            assert {"ok", "error", "cancelled"} <= \
                {status for status, _, _ in log.values()}
            assert "TRAIN" in {kind for _, _, kind in log.values()}

            sink = conn.provider.slow_sink.records()
            queries = json.loads(_get(http.url + "/queries?limit=500")[1])
            for records in (sink, queries):
                assert {r["statement_id"] for r in records} >= set(finished)
                for record in records:
                    assert set(record["resources"]) == self.RESOURCE_KEYS
                    if record["statement_id"] in finished:
                        status, duration_ms = finished[record["statement_id"]]
                        assert record["status"] == status
                        assert record["duration_ms"] == duration_ms
        finally:
            http.close()
            server.close()
            conn.close()


# -- exports -------------------------------------------------------------------

class TestChromeTraceExport:
    def test_export_writes_loadable_trace_json(self, trained, tmp_path):
        path = tmp_path / "trace.json"
        count = trained.provider.export_trace(str(path))
        assert count >= 4  # create table/insert/create model/train
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"X", "M"}
        roots = [event for event in events
                 if event["ph"] == "X" and "statement" in event["args"]]
        assert any(event["args"]["kind"] == "TRAIN" for event in roots)
        for event in roots:
            assert event["dur"] > 0
            assert event["args"]["resources"]["cpu_ms"] >= 0.0

    def test_span_offsets_stay_inside_the_statement(self, trained):
        events = chrome_trace_events(trained.provider)
        roots = {}
        for event in events:
            if event["ph"] == "X" and "statement" in event["args"]:
                roots[event["name"]] = event
        assert roots
        for event in events:
            if event["ph"] != "X" or "statement" in event["args"]:
                continue
            parents = [root for root in roots.values()
                       if root["ts"] - 1.0 <= event["ts"] and
                       event["ts"] + event["dur"] <=
                       root["ts"] + root["dur"] + 1000.0]
            assert parents, f"span event {event['name']} outside any root"


class TestActiveRoute:
    def test_active_route_serves_the_live_view(self, conn):
        server = conn.provider.serve_metrics(port=0)
        try:
            status, body = _get(server.url + "/active")
            assert status == 200
            assert json.loads(body) == []

            release = threading.Event()
            started = threading.Event()

            def hold():
                statement = conn.provider.workload.register(
                    StatementRecord(12345, "SELECT sleep", kind="SELECT"))
                statement.phase = "scan"
                started.set()
                release.wait(5.0)
                conn.provider.workload.observe(statement)

            thread = threading.Thread(target=hold)
            thread.start()
            try:
                assert started.wait(5.0)
                payload = json.loads(_get(server.url + "/active")[1])
                assert [entry["statement_id"] for entry in payload] == \
                    [12345]
                assert payload[0]["phase"] == "scan"
                assert payload[0]["cancel_requested"] is False
            finally:
                release.set()
                thread.join(5.0)
            assert json.loads(_get(server.url + "/active")[1]) == []
        finally:
            server.close()


class TestTelemetryServerLifecycle:
    def test_repeated_cycles_leak_neither_threads_nor_ports(self, conn):
        baseline = threading.active_count()
        last_port = None
        for _ in range(3):
            server = conn.provider.serve_metrics(port=last_port or 0)
            assert _get(server.url + "/healthz")[0] == 200
            last_port = server.port
            server.close()
            assert server.closed
            server.close()  # idempotent
        # The port was released each cycle (rebound above) and no serving
        # threads are left behind.
        assert threading.active_count() <= baseline + 1
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{last_port}/healthz", timeout=1)

    def test_provider_close_closes_the_attached_server(self):
        conn = repro.connect()
        server = conn.provider.serve_metrics(port=0)
        conn.close()
        assert server.closed
