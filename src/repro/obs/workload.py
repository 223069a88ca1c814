"""Live workload introspection: active statements, cancellation, resources.

``$SYSTEM.DM_QUERY_LOG`` answers "what ran"; this module answers "what is
running *right now*, how far along is it, what is it costing, and how do I
stop it".  Three cooperating pieces:

* :class:`WorkloadRegistry` — one per provider.  Every executing statement
  registers its :class:`~repro.obs.trace.StatementRecord` (the one record
  a statement has) keyed by its query-log statement id, so
  ``$SYSTEM.DM_ACTIVE_STATEMENTS`` and ``CANCEL <id>`` share the id space
  operators already see in ``DM_QUERY_LOG``.  Retired statements are read
  back from the tracer's query-log ring, which therefore also backs
  ``$SYSTEM.DM_STATEMENT_RESOURCES``.
* :class:`CancelToken` — cooperative cancellation.  ``CANCEL <id>`` (or
  :meth:`Connection.cancel`) sets the token; the executing statement
  observes it at its next progress checkpoint — a batch boundary in the
  engine, a partition boundary in partitioned training, a training
  iteration in iterative algorithms — and unwinds with
  :class:`~repro.errors.CancelledError`.  Nothing is interrupted
  mid-mutation: the mutation either completes or is rolled back by its
  owner, and a cancelled statement is never journaled.
* Per-statement resource accounting — CPU-ms (``time.thread_time`` deltas
  on the statement thread plus per-task deltas shipped back from pool
  workers), lock-wait-ms reported by :class:`repro.exec.locks.RWLock`,
  rows/batches processed, partition progress, and pool tasks in flight.
  Lock waits also aggregate per (lock, mode) into the contention table
  behind ``$SYSTEM.DM_LOCK_WAITS``.

Instrumented modules never hold a registry; like :mod:`repro.obs.trace`
they call the module-level functions (:func:`checkpoint`, :func:`set_phase`,
:func:`note_lock_wait`, ...), which write to the record made live on this
thread by :meth:`Tracer.live <repro.obs.trace.Tracer.live>` (for a stream,
while each batch is pulled).  With no live statement every call is a
near-free no-op, so the engine and algorithm layers stay usable standalone.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import CancelledError

_local = threading.local()

#: The execution phases a statement moves through, for DM_ACTIVE_STATEMENTS.
PHASES = ("queued", "parse", "bind", "train", "predict", "scan")


class CancelToken:
    """A one-way latch checked cooperatively at batch/partition boundaries."""

    __slots__ = ("_cancelled", "reason", "statement_id")

    def __init__(self, statement_id: int = 0):
        self.statement_id = statement_id
        self._cancelled = False
        self.reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled by operator") -> None:
        # Write order matters for lock-free readers: reason first, then the
        # flag that makes check() raise.
        self.reason = reason
        self._cancelled = True

    def check(self) -> None:
        """Raise :class:`CancelledError` if cancellation was requested."""
        if self._cancelled:
            raise CancelledError(
                f"statement {self.statement_id} was cancelled "
                f"({self.reason})")


class _LockContention:
    """Aggregated waits for one (lock, mode) pair — a DM_LOCK_WAITS row."""

    __slots__ = ("lock", "mode", "waits", "total_wait_ms", "max_wait_ms",
                 "last_wait_at")

    def __init__(self, lock: str, mode: str):
        self.lock = lock
        self.mode = mode
        self.waits = 0
        self.total_wait_ms = 0.0
        self.max_wait_ms = 0.0
        self.last_wait_at: Optional[float] = None


class WorkloadRegistry:
    """Per-provider catalog of executing statements and contention stats.

    ``enabled = False`` turns the whole layer off (used by the accounting
    overhead benchmark to measure its own cost): nothing registers, so every
    module-level call short-circuits on the empty thread-local slot.
    """

    def __init__(self, metrics=None):
        self.enabled = True
        self.metrics = metrics
        self._lock = threading.Lock()
        self._active: Dict[int, object] = {}
        self._contention: Dict[tuple, _LockContention] = {}

    # -- statement lifecycle ---------------------------------------------------

    def register(self, record):
        """Admit one dispatched statement record; None when the layer is off."""
        if not self.enabled or not record.statement_id:
            return None
        record.registry = self
        with self._lock:
            self._active[record.statement_id] = record
        return record

    def observe(self, record) -> None:
        """Retire a statement from the active set.

        Called from the tracer's ``on_statement`` callback once the
        statement's work has ended; the record itself moves on into the
        tracer's ring, which the resources view reads.
        """
        if record.registry is self:
            with self._lock:
                self._active.pop(record.statement_id, None)

    def cancel(self, statement_id: int,
               reason: str = "cancelled by operator",
               session: Optional[int] = None):
        """Request cancellation of an active statement; raises on unknown id.

        ``session`` scopes the request: a network session may cancel only
        statements it owns (the server and the CANCEL verb pass the
        caller's session id), while an embedded caller (``session=None``)
        acts as the operator and may cancel anything.
        """
        from repro.errors import Error
        with self._lock:
            statement = self._active.get(statement_id)
            active_ids = sorted(self._active)
        if statement is None:
            raise Error(
                f"no active statement with id {statement_id} "
                f"(active: {', '.join(map(str, active_ids)) or 'none'}); "
                f"see SELECT * FROM $SYSTEM.DM_ACTIVE_STATEMENTS")
        if session is not None and statement.session != session:
            owner = (f"session {statement.session}"
                     if statement.session is not None
                     else "the embedded connection")
            raise Error(
                f"statement {statement_id} is owned by {owner}; a session "
                f"may only cancel its own statements")
        statement.token.cancel(reason)
        if self.metrics is not None:
            self.metrics.counter("resource.cancel_requests").inc()
        return statement

    # -- snapshots -------------------------------------------------------------

    def active(self) -> list:
        """Live statements, oldest first."""
        with self._lock:
            return sorted(self._active.values(),
                          key=lambda s: s.statement_id)

    def resource_records(self, tracer) -> list:
        """Live statements, then the retired ones in ``tracer``'s ring that
        this registry admitted.

        Live is read first: a record reaches the ring before it leaves the
        active set, so one retiring in between is in both reads and is
        listed once, as live.
        """
        live = self.active()
        ids = {record.statement_id for record in live}
        return live + [record for record in tracer.statements()
                       if record.registry is self
                       and record.statement_id not in ids]

    def contention(self) -> List[_LockContention]:
        """DM_LOCK_WAITS rows, sorted by (lock, mode)."""
        with self._lock:
            return [self._contention[key]
                    for key in sorted(self._contention)]

    # -- lock-wait profiling ---------------------------------------------------

    def record_lock_wait(self, lock: str, mode: str, wait_ms: float) -> None:
        with self._lock:
            entry = self._contention.get((lock, mode))
            if entry is None:
                entry = self._contention[(lock, mode)] = \
                    _LockContention(lock, mode)
            entry.waits += 1
            entry.total_wait_ms += wait_ms
            if wait_ms > entry.max_wait_ms:
                entry.max_wait_ms = wait_ms
            entry.last_wait_at = time.time()
        if self.metrics is not None:
            self.metrics.counter("lock.waits").inc()
            self.metrics.counter(f"lock.waits.{mode}").inc()
            self.metrics.counter("lock.wait_ms").inc(wait_ms)


# ---------------------------------------------------------------------------
# Module-level instrumentation API (resolves the thread-active statement)
# ---------------------------------------------------------------------------

def activate(statement):
    """Install the statement as this thread's active one; returns the prior.

    Starts the statement's thread-CPU clock; :func:`deactivate` stops it.
    """
    previous = getattr(_local, "statement", None)
    if statement is not None:
        statement.cpu_started = time.thread_time()
    _local.statement = statement
    return previous


def deactivate(previous) -> None:
    """Restore the statement returned by the matching :func:`activate`."""
    statement = getattr(_local, "statement", None)
    if statement is not None and statement.cpu_started is not None:
        statement.cpu_ms += (time.thread_time()
                             - statement.cpu_started) * 1000.0
        statement.cpu_started = None
    _local.statement = previous


def current():
    """This thread's active statement record, or None."""
    return getattr(_local, "statement", None)


def set_session(session: Optional[int]) -> None:
    """Bind this thread to a network session id (None to unbind).

    The DMX server calls this once on each session thread; every statement
    registered on the thread then carries the session id into
    ``DM_ACTIVE_STATEMENTS`` / ``DM_QUERY_LOG`` and is protected by the
    cancel ownership check.
    """
    _local.session = session


def session_id() -> Optional[int]:
    """The network session id bound to this thread, or None (embedded)."""
    return getattr(_local, "session", None)


def checkpoint(rows: int = 0) -> None:
    """One batch boundary: record progress and honor cancellation.

    This is the cooperative-cancellation point the engine's scan loops, the
    pool's ordered merge, and the binding pipeline call once per batch.  It
    raises :class:`CancelledError` when the statement's token is set.
    """
    statement = getattr(_local, "statement", None)
    if statement is not None:
        statement.advance(rows)


def check() -> None:
    """Honor cancellation without recording progress (entry-point guard)."""
    statement = getattr(_local, "statement", None)
    if statement is not None:
        statement.token.check()


def set_phase(phase: str) -> None:
    """Move the active statement into a new execution phase."""
    statement = getattr(_local, "statement", None)
    if statement is not None:
        statement.phase = phase


def note_lock_wait(lock: str, mode: str, wait_ms: float) -> None:
    """Report one contended lock acquisition (called by RWLock)."""
    statement = getattr(_local, "statement", None)
    if statement is None:
        return
    statement.lock_wait_ms += wait_ms
    statement.lock_waits += 1
    if statement.registry is not None:
        statement.registry.record_lock_wait(lock, mode, wait_ms)


def note_cache(hit: bool) -> None:
    """Attribute one caseset-cache lookup to the active statement."""
    statement = getattr(_local, "statement", None)
    if statement is not None:
        if hit:
            statement.cache_hits += 1
        else:
            statement.cache_misses += 1


def set_partitions(total: int) -> None:
    statement = getattr(_local, "statement", None)
    if statement is not None:
        statement.partitions_total = total
        statement.partitions_done = 0


def partition_done() -> None:
    statement = getattr(_local, "statement", None)
    if statement is not None:
        statement.partitions_done += 1
