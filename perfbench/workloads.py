"""The four workloads: inputs, set-up, statement streams and oracles.

A workload makes all of its inputs from its seed before anything is
timed.  ``setup`` builds the program's state (tables, indexes, the
initial model, the wire server) and is what ``setup_s`` times.  ``ops``
yields the statements of the timed phase, one :class:`Op` at a time, in
an order fixed by the seed; each op carries the oracle that checks its
result against the benchmark's own record of the data.

All workloads run one client in a closed loop: the next statement is sent
only after the previous result has been received and checked.
"""

import math
import os
import random
import shutil
from typing import Dict, List

import repro
from repro.server import rowset_dump

from data import (CUSTOMERS_DDL, INDEX_DDL, SALES_DDL, ZipfKeys,
                  make_customers, random_purchase, values_clause)

READ, WRITE, TRAIN, DELETE = "read", "write", "train", "delete"

AGE_MODEL_DDL = """
CREATE MINING MODEL [Age Model] (
    [Customer ID] LONG KEY,
    [Gender]      TEXT DISCRETE,
    [Age]         DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT,
    [Product Purchases] TABLE([Product Name] TEXT KEY)
) USING Repro_Naive_Bayes
"""
AGE_MODEL_TRAIN = """
INSERT INTO [Age Model] ([Customer ID], [Gender], [Age],
    [Product Purchases]([Product Name]))
SHAPE {SELECT [Customer ID], Gender, Age FROM Customers
       ORDER BY [Customer ID]}
APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
        RELATE [Customer ID] TO CustID) AS [Product Purchases]
"""
AGE_MODEL_SCORE = """
SELECT t.[Customer ID], [Age Model].[Age] AS predicted
FROM [Age Model] NATURAL PREDICTION JOIN
    (SHAPE {SELECT [Customer ID], Gender FROM Customers
            ORDER BY [Customer ID]}
     APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
             RELATE [Customer ID] TO CustID) AS [Product Purchases]) AS t
"""


class Op:
    """One statement of the timed phase and the oracle for its result.

    ``kind`` is read / write / train / delete; ``label`` names the
    statement type.  ``boundary`` marks the last op of a round: the timed
    phase only stops after one.
    """

    __slots__ = ("label", "kind", "text", "stream", "check", "boundary")

    def __init__(self, label, kind, text, check, stream=False,
                 boundary=True):
        self.label = label
        self.kind = kind
        self.text = text
        self.check = check
        self.stream = stream
        self.boundary = boundary


def _rows(result) -> List[tuple]:
    return [tuple(row) for row in result.rows]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class Workload:
    """Shared shape of a workload; subclasses fill in the parts."""

    name = ""
    warmup_ops = 0
    trace_ops = 1000  # traced prefix whose counts must repeat exactly
    trace_block = 200  # ops per block when measuring tracing overhead

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.conn = None        # embedded connection (owns the provider)
        self.session = None     # what the ops run on

    @property
    def provider(self):
        return self.conn.provider

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")

    def _load(self) -> None:
        """Create, fill and index the tables through ``self.conn``."""
        self.conn.execute(CUSTOMERS_DDL)
        self.conn.execute(SALES_DDL)
        tables = self.conn.database
        tables.table("Customers").insert_many(self.warehouse.customers)
        tables.table("Sales").insert_many(self.warehouse.sales)
        for ddl in INDEX_DDL:
            self.conn.execute(ddl)

    def close(self) -> None:
        if self.session is not None and self.session is not self.conn:
            self.session.close()
        if self.conn is not None:
            self.conn.close()
        self.conn = self.session = None

    def run(self, op):
        """Execute one op on the session; streams are drained."""
        if op.stream:
            return self.session.execute_stream(op.text).materialize()
        return self.session.execute(op.text)

    def final_checks(self) -> Dict[str, bool]:
        """Oracles run once after the timed phase (not timed)."""
        return {}

    def extra_metrics(self, samples) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit, n)."""
        return {}


class _CustomerOracle:
    """Expected Customers/Sales contents, updated as inserts succeed."""

    def __init__(self, warehouse):
        self.customers = {row[0]: row for row in warehouse.customers}
        self.sales: Dict[int, List[tuple]] = {}
        for row in warehouse.sales:
            self.sales.setdefault(row[0], []).append(row)
        self.sales_count = len(warehouse.sales)

    def point(self, key):
        return lambda result: _rows(result) == [self.customers[key]]

    def purchases(self, key):
        return lambda result: (sorted(_rows(result)) ==
                               sorted(self.sales.get(key, [])))

    def per_customer_group(self, key):
        def check(result):
            rows = self.sales.get(key, [])
            got = _rows(result)
            if not rows:
                return got == []
            return (len(got) == 1 and got[0][0] == key and
                    got[0][1] == len(rows) and
                    _close(got[0][2], sum(r[2] for r in rows)))
        return check

    def read(self, label, key):
        """(statement text, oracle) of a keyed read."""
        if label == "point_read":
            return POINT_READ.format(key), self.point(key)
        if label == "purchases":
            return PURCHASES.format(key), self.purchases(key)
        return CUSTOMER_GROUP.format(key), self.per_customer_group(key)

    def customer_range(self, low, high):
        expected = [self.customers[k] for k in range(low, high + 1)]
        return lambda result: sorted(_rows(result)) == expected

    def inserted(self, row):
        def check(result):
            if result != 1:
                return False
            self.sales.setdefault(row[0], []).append(row)
            self.sales_count += 1
            return True
        return check


POINT_READ = "SELECT * FROM Customers WHERE [Customer ID] = {}"
PURCHASES = ("SELECT CustID, [Product Name], Quantity, [Product Type] "
             "FROM Sales WHERE CustID = {}")
CUSTOMER_GROUP = ("SELECT CustID, COUNT(*) AS n, SUM(Quantity) AS total "
                  "FROM Sales WHERE CustID = {} GROUP BY CustID")

# Statement mixes, as the labels of one round of 20 statements; each round
# runs them in a seeded order, so every round has exactly this mix.
MIX_RW = (["point_read"] * 7 + ["purchases"] * 5 + ["customer_group"] * 3
          + ["insert_purchase"] * 5)
MIX_WIRE = ["point_read"] * 12 + ["purchases"] * 7 + ["range_stream"]


def _shuffled_round(rng, mix):
    labels = list(mix)
    rng.shuffle(labels)
    return labels


class ShortReadWrite(Workload):
    """Short statements with varying literals, 25% of them INSERTs."""

    name = "short_rw"
    customers = 20_000
    warmup_ops = 300

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.warehouse = make_customers(self.rng("data"), 1, self.customers)
        self.oracle = _CustomerOracle(self.warehouse)

    def setup(self):
        self.conn = self.session = repro.connect()
        self._load()

    def ops(self):
        rng = self.rng("ops")
        oracle = self.oracle
        while True:
            for position, label in enumerate(_shuffled_round(rng, MIX_RW)):
                key = rng.randint(1, self.customers)
                boundary = position == len(MIX_RW) - 1
                if label == "insert_purchase":
                    row = random_purchase(rng, key)
                    yield Op(label, WRITE,
                             "INSERT INTO Sales VALUES " + values_clause([row]),
                             oracle.inserted(row), boundary=boundary)
                else:
                    text, check = oracle.read(label, key)
                    yield Op(label, READ, text, check, boundary=boundary)

    def final_checks(self):
        count = self.conn.execute("SELECT COUNT(*) FROM Sales").rows[0][0]
        return {"sales_count": count == self.oracle.sales_count}


class WireHot(Workload):
    """Skewed read-only traffic through the DMX wire server and client."""

    name = "wire_hot"
    customers = 20_000
    warmup_ops = 300
    stream_rows = 500
    compare_sample = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.warehouse = make_customers(self.rng("data"), 1, self.customers)
        self.oracle = _CustomerOracle(self.warehouse)

    def setup(self):
        from repro.client import connect as wire_connect
        from repro.server import serve
        self.conn = repro.connect()
        self._load()
        server = serve(self.conn.provider)
        self.session = wire_connect("127.0.0.1", server.port)

    def _op(self, label, key, boundary=True):
        if label != "range_stream":
            text, check = self.oracle.read(label, key)
            return Op(label, READ, text, check, boundary=boundary)
        low = min(key, self.customers - self.stream_rows + 1)
        high = low + self.stream_rows - 1
        return Op(label, READ,
                  f"SELECT * FROM Customers WHERE [Customer ID] "
                  f"BETWEEN {low} AND {high}",
                  self.oracle.customer_range(low, high), stream=True,
                  boundary=boundary)

    def _ops(self, purpose):
        rng = self.rng(purpose)
        keys = ZipfKeys(self.rng(purpose + "-keys"), self.customers)
        while True:
            for position, label in enumerate(_shuffled_round(rng, MIX_WIRE)):
                yield self._op(label, keys.draw(),
                               boundary=position == len(MIX_WIRE) - 1)

    def ops(self):
        return self._ops("ops")

    def final_checks(self):
        """A sample of statements must dump identically over both paths."""
        ops = self._ops("compare")
        same = True
        for _ in range(self.compare_sample):
            op = next(ops)
            wire = self.run(op)
            if op.stream:
                embedded = self.conn.execute_stream(op.text).materialize()
            else:
                embedded = self.conn.execute(op.text)
            same = same and rowset_dump(wire) == rowset_dump(embedded)
        return {"wire_equals_embedded": same}

    def extra_metrics(self, samples):
        seconds = sum(s.latency for s in samples)
        rows = sum(s.rows for s in samples)
        return {"wire_rows_per_s": (rows / seconds, "rows/s", len(samples))}


class ScanPaged(Workload):
    """Read-only scans, aggregates, joins and ranges on the paged store."""

    name = "scan_paged"
    customers = 1_500
    buffer_pages = 16
    range_rows = 50
    trace_ops = trace_block = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.warehouse = make_customers(self.rng("data"), 1, self.customers)
        self.oracle = _CustomerOracle(self.warehouse)
        sales = self.warehouse.sales
        self.filtered = sorted(
            (cust, product, qty) for cust, product, qty, ptype in sales
            if qty > 3 and ptype == "Food")
        self.groups: Dict[str, list] = {}
        for _, product, qty, _ in sales:
            entry = self.groups.setdefault(product, [0, 0.0])
            entry[0] += 1
            entry[1] += qty
        self._store_dirs = 0

    def setup(self):
        self._store_dirs += 1
        path = os.path.join(self.workdir, f"store{self._store_dirs}")
        shutil.rmtree(path, ignore_errors=True)
        self.conn = self.session = repro.connect(
            storage_path=path, buffer_pages=self.buffer_pages)
        self._load()

    def close(self):
        super().close()
        shutil.rmtree(os.path.join(self.workdir, f"store{self._store_dirs}"),
                      ignore_errors=True)

    def _check_filter(self, result):
        return sorted(_rows(result)) == self.filtered

    def _check_groups(self, result):
        got = {row[0]: (row[1], row[2]) for row in _rows(result)}
        return (len(got) == len(self.groups) and
                all(name in got and got[name][0] == count and
                    _close(got[name][1], total)
                    for name, (count, total) in self.groups.items()))

    def _join(self, key):
        customer = self.oracle.customers[key]
        expected = sorted((key, product, qty, customer[1], customer[3])
                          for _, product, qty, _ in
                          self.oracle.sales.get(key, []))
        return lambda result: sorted(_rows(result)) == expected

    def ops(self):
        rng = self.rng("ops")
        while True:
            yield Op("scan_filter", READ,
                     "SELECT CustID, [Product Name], Quantity FROM Sales "
                     "WHERE Quantity > 3 AND [Product Type] = 'Food'",
                     self._check_filter, boundary=False)
            yield Op("group_by", READ,
                     "SELECT [Product Name], COUNT(*) AS n, "
                     "SUM(Quantity) AS total FROM Sales "
                     "GROUP BY [Product Name]",
                     self._check_groups, boundary=False)
            key = rng.randint(1, self.customers)
            yield Op("keyed_join", READ,
                     "SELECT s.CustID, s.[Product Name], s.Quantity, "
                     "c.Gender, c.Age FROM Sales AS s JOIN Customers AS c "
                     f"ON s.CustID = c.[Customer ID] WHERE s.CustID = {key}",
                     self._join(key), boundary=False)
            low = rng.randint(1, self.customers - self.range_rows + 1)
            high = low + self.range_rows
            yield Op("range_fetch", READ,
                     "SELECT * FROM Customers WHERE "
                     f"[Customer ID] >= {low} AND [Customer ID] < {high}",
                     self.oracle.customer_range(low, high - 1))

    def extra_metrics(self, samples):
        scans = [s for s in samples if s.label in ("scan_filter", "group_by")]
        seconds = sum(s.latency for s in scans)
        rows = len(self.warehouse.sales) * len(scans)
        return {"scan_rows_per_s": (rows / seconds, "rows/s", len(scans))}


class MineRefresh(Workload):
    """Refresh, retrain and re-score the naive-Bayes age model each round.

    Each round appends a batch of new customers and drops the batch the
    round before appended, so every round trains on and scores the same
    number of customers however many rounds a run gets through."""

    name = "mine_refresh"
    customers = 700
    batch_customers = 20
    trace_ops = trace_block = 7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.warehouse = make_customers(self.rng("data"), 1, self.customers)
        self.ages = {row[0]: row[3] for row in self.warehouse.customers}
        self.batch_rng = self.rng("batches")
        self.next_id = self.customers + 1

    def setup(self):
        self.conn = self.session = repro.connect()
        self._load()
        self.conn.execute(AGE_MODEL_DDL)
        self.conn.execute(AGE_MODEL_TRAIN)

    def _appended(self, batch):
        def check(result):
            if result != len(batch.customers):
                return False
            for row in batch.customers:
                self.ages[row[0]] = row[3]
            return True
        return check

    def _dropped(self, batch):
        def check(result):
            if batch is None:
                return result == 0
            if result != len(batch.customers):
                return False
            for row in batch.customers:
                del self.ages[row[0]]
            return True
        return check

    def _trained(self, result):
        return result == len(self.ages)

    def _scored(self, result):
        rows = _rows(result)
        if sorted(row[0] for row in rows) != sorted(self.ages):
            return False
        target = self.conn.model("Age Model").space.for_column("Age")
        disc = target.discretizer
        truth = {key: disc.label(disc.bucket_of(age))
                 for key, age in self.ages.items()}
        if not {predicted for _, predicted in rows} <= set(truth.values()):
            return False
        counts: Dict[str, int] = {}
        for label in truth.values():
            counts[label] = counts.get(label, 0) + 1
        majority = max(counts.values()) / len(truth)
        hits = sum(1 for key, predicted in rows if truth[key] == predicted)
        return hits / len(rows) > majority

    def ops(self):
        previous = None
        while True:
            first = self.next_id
            batch = make_customers(self.batch_rng, first,
                                   self.batch_customers)
            self.next_id += self.batch_customers
            yield Op("append_customers", WRITE,
                     "INSERT INTO Customers VALUES "
                     + values_clause(batch.customers),
                     self._appended(batch), boundary=False)
            yield Op("append_sales", WRITE,
                     "INSERT INTO Sales VALUES " + values_clause(batch.sales),
                     lambda result, n=len(batch.sales): result == n,
                     boundary=False)
            low = first if previous is None else previous.customers[0][0]
            yield Op("drop_customers", DELETE,
                     f"DELETE FROM Customers WHERE [Customer ID] >= {low} "
                     f"AND [Customer ID] < {first}",
                     self._dropped(previous), boundary=False)
            yield Op("drop_sales", DELETE,
                     f"DELETE FROM Sales WHERE CustID >= {low} "
                     f"AND CustID < {first}",
                     lambda result, old=previous: result == (
                         0 if old is None else len(old.sales)),
                     boundary=False)
            yield Op("reset_model", DELETE, "DELETE FROM [Age Model]",
                     lambda result: result == 0, boundary=False)
            yield Op("train", TRAIN, AGE_MODEL_TRAIN, self._trained,
                     boundary=False)
            yield Op("predict", READ, AGE_MODEL_SCORE, self._scored)
            previous = batch

    def extra_metrics(self, samples):
        out = {}
        for label, name in (("train", "train_cases_per_s"),
                            ("predict", "predict_cases_per_s")):
            runs = [s for s in samples if s.label == label]
            seconds = sum(s.latency for s in runs)
            out[name] = (sum(s.rows for s in runs) / seconds, "cases/s",
                         len(runs))
        return out


WORKLOADS = {cls.name: cls for cls in
             (ShortReadWrite, ScanPaged, MineRefresh, WireHot)}
