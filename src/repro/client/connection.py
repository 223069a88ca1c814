"""The network client: a drop-in ``Connection`` over the wire protocol.

:class:`Connection` here mirrors the embedded
:class:`repro.core.provider.Connection` surface — ``execute``,
``execute_stream``, ``cancel``, ``execute_script``, context-manager close
— so application code and the differential test grid can swap transports
by changing only how the connection is constructed.  Errors raised by the
remote provider are reconstructed into the same :mod:`repro.errors`
classes, and streamed results arrive as a lazy
:class:`~repro.sqlstore.rowset.RowStream` fed batch-by-batch off the
socket.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, List, Optional

from repro.errors import Error, ProtocolError
from repro.server import protocol
from repro.sqlstore.rowset import RowStream


class Connection:
    """A session on a remote DMX server.

    One socket, one session: the hello/welcome handshake runs in the
    constructor, so a constructed connection is admitted and live.  The
    per-session ``batch_size`` and ``max_dop`` knobs are negotiated at
    hello time — ``max_dop`` caps the server-side degree of parallelism
    for every statement this session runs, ``batch_size`` is the default
    granularity of ``execute_stream``.

    ``cancel`` opens a second, short-lived control connection (the session
    socket may be busy carrying the very statement being cancelled),
    authenticated with the session id and secret issued at hello.
    """

    def __init__(self, host: str, port: int,
                 batch_size: Optional[int] = None,
                 max_dop: Optional[int] = None,
                 timeout: Optional[float] = None):
        self.host = host
        self.port = int(port)
        self.batch_size = batch_size
        self.max_dop = max_dop
        self._closed = False
        # One request/response exchange at a time per session; the lock
        # also keeps a streaming read from interleaving with execute().
        self._lock = threading.Lock()
        self._sock = socket.create_connection((host, self.port),
                                              timeout=timeout)
        protocol.set_nodelay(self._sock)
        self._send({"op": "hello",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "batch_size": batch_size,
                    "max_dop": max_dop})
        welcome = self._recv()
        self.session_id = welcome["session"]
        self._secret = welcome["secret"]

    # -- wire plumbing --------------------------------------------------------

    def _send(self, message: dict) -> None:
        protocol.send_frame(self._sock, message)

    def _recv(self) -> dict:
        """One reply frame; raises the remote error or on unexpected EOF."""
        frame, _ = protocol.recv_frame(self._sock)
        if frame is None:
            self._closed = True
            raise ProtocolError(
                "server closed the connection mid-conversation")
        if "error" in frame:
            raise protocol.error_from_wire(frame["error"])
        return frame

    def _require_open(self) -> None:
        if self._closed:
            raise Error("connection is closed")

    # -- the embedded-compatible surface --------------------------------------

    def execute(self, command: str) -> Any:
        """Execute one SQL or DMX command string on the remote provider."""
        self._require_open()
        with self._lock:
            self._send({"op": "execute", "statement": command})
            reply = self._recv()
        return protocol.result_from_wire(reply["result"])

    def execute_stream(self, command: str,
                       batch_size: Optional[int] = None) -> RowStream:
        """Execute one SELECT as a single-use stream of row batches.

        Column metadata arrives eagerly (statement errors raise here, as
        embedded); rows are pulled off the socket lazily, one batch frame
        per ``batches()`` step, so an abandoned stream stops costing the
        wire as soon as the connection is closed.  Mid-stream errors from
        the server (e.g. a CANCEL landing between batches) re-raise from
        the batch iterator, where the embedded stream would have raised.
        """
        self._require_open()
        self._lock.acquire()
        try:
            self._send({"op": "execute_stream", "statement": command,
                        "batch_size": batch_size})
            header = self._recv()
        except BaseException:
            self._lock.release()
            raise
        columns = protocol.columns_from_wire(header["columns"])

        def produce():
            # The session lock is held until the stream is drained or the
            # producer is abandoned, keeping frames strictly sequential.
            try:
                while True:
                    frame = self._recv()
                    if frame.get("end"):
                        return
                    yield protocol.decode_rows(frame["batch"])
            finally:
                self._lock.release()

        return RowStream(columns, produce())

    def cancel(self, statement_id: int) -> str:
        """Request cooperative cancellation of a live statement by id.

        Runs out of band on a fresh control connection, so it works while
        this session's socket is busy executing the target.  The server
        scopes the cancel to this session: cancelling another session's
        statement is refused.
        """
        self._require_open()
        control = socket.create_connection((self.host, self.port),
                                           timeout=10.0)
        try:
            protocol.set_nodelay(control)
            protocol.send_frame(control, {
                "op": "cancel",
                "session": self.session_id,
                "secret": self._secret,
                "statement": statement_id,
            })
            frame, _ = protocol.recv_frame(control)
            if frame is None:
                raise ProtocolError(
                    "server closed the control connection without a reply")
            if "error" in frame:
                raise protocol.error_from_wire(frame["error"])
            return frame["message"]
        finally:
            control.close()

    def execute_script(self, script: str) -> List[Any]:
        """Execute ';'-separated statements; returns each result."""
        from repro.core.provider import split_statements
        return [self.execute(command)
                for command in split_statements(script)]

    def ping(self) -> bool:
        """Round-trip a no-op frame; True while the session is healthy."""
        self._require_open()
        with self._lock:
            self._send({"op": "ping"})
            return bool(self._recv().get("pong"))

    def close(self) -> None:
        """Say goodbye (best effort) and release the socket. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._lock.acquire(blocking=False):
                # Only hand-shake the goodbye on an idle session; a live
                # stream's frames must not be interleaved with ours.
                try:
                    self._send({"op": "goodbye"})
                    protocol.recv_frame(self._sock)
                except (Error, OSError):
                    pass
                finally:
                    self._lock.release()
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(host: str, port: int, **kwargs) -> Connection:
    """Open a network connection to a running DMX server.

    Keyword arguments (``batch_size``, ``max_dop``, ``timeout``) become
    the per-session knobs negotiated in the hello handshake.
    """
    return Connection(host, port, **kwargs)
