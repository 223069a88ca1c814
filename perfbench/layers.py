"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` replaces the public entry points of each module
(``lang``, ``obs``, ``core``, ``shaping``, ``algorithms``, ``sqlstore``,
``server``/``client``) with thin wrappers that time every call, and puts
the originals back on :meth:`LayerTracer.uninstall`.  The program is not
changed; a name imported into another module (``from x import f``) is
replaced there too, so every call site is seen.

Spans nest per thread.  A layer's *self* time is a span's duration minus
the spans it encloses; its *inclusive* time counts only the outermost
span of that layer on the thread.  Results that are consumed after the
call returns (row streams, case generators, case mappers) are timed while
they are consumed, because that is when their work happens.
"""

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

from repro.sqlstore.rowset import RowStream

PLAIN, STREAM, ITER, CALLABLE = "plain", "stream", "iter", "callable"

# (module, function or Class.method, layer, how the result is consumed)
TARGETS = [
    ("repro.lang.parser", "parse_statement", "lang.parse", PLAIN),
    ("repro.obs.repository", "WorkloadRepository.annotate",
     "obs.repository", PLAIN),
    ("repro.obs.repository", "WorkloadRepository.observe",
     "obs.repository", PLAIN),
    ("repro.obs.explain", "build_plan", "obs.build_plan", PLAIN),
    ("repro.obs.workload", "WorkloadRegistry.register", "obs.registry", PLAIN),
    ("repro.obs.workload", "WorkloadRegistry.observe", "obs.registry", PLAIN),
    ("repro.core.provider", "Provider.execute", "core.dispatch", PLAIN),
    ("repro.core.provider", "Provider.execute_stream", "core.dispatch",
     STREAM),
    ("repro.sqlstore.engine", "Database.execute_ast", "sqlstore.engine",
     PLAIN),
    ("repro.sqlstore.engine", "Database.execute_select", "sqlstore.engine",
     PLAIN),
    ("repro.sqlstore.engine", "Database.execute_select_stream",
     "sqlstore.engine", STREAM),
    ("repro.shaping.shape", "execute_shape_stream", "shaping", STREAM),
    ("repro.core.bindings", "iter_mapped_cases", "core.bind", ITER),
    ("repro.core.bindings", "case_mapper", "core.bind", CALLABLE),
    ("repro.core.prediction", "execute_prediction_select", "core.predict",
     PLAIN),
    ("repro.core.prediction", "execute_prediction_stream", "core.predict",
     STREAM),
    ("repro.core.model", "MiningModel.train", "algorithms.train", PLAIN),
    ("repro.core.model", "MiningModel.predict_case", "algorithms.predict",
     PLAIN),
    ("repro.core.model", "MiningModel.predict_cases", "algorithms.predict",
     PLAIN),
    ("repro.server.protocol", "encode_rows", "wire.codec", PLAIN),
    ("repro.server.protocol", "decode_rows", "wire.codec", PLAIN),
    ("repro.client.connection", "Connection.execute", "client", PLAIN),
    ("repro.client.connection", "Connection.execute_stream", "client",
     STREAM),
]


def _patch_sites(module_name: str, qualname: str):
    """Every (owner, attribute) through which ``qualname`` is called."""
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        return [(getattr(module, class_name), attr)]
    original = getattr(module, qualname)
    sites = []
    for name, other in sorted(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(other, qualname, None) is original:
            sites.append((other, qualname))
    return sites


class LayerTracer:
    """Self and inclusive time and call counts per layer, all threads."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original, wrapper)
        for module_name, qualname, layer, mode in TARGETS:
            for owner, attr in _patch_sites(module_name, qualname):
                original = owner.__dict__[attr]
                self._patches.append(
                    (owner, attr, original,
                     self._wrapper(original, layer, mode)))

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original, _ in self._patches)

    # -- spans ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.open = defaultdict(int)
        return stack

    def _enter(self, layer: str) -> None:
        self._stack().append([layer, time.perf_counter(), 0.0])
        self._local.open[layer] += 1

    def _exit(self) -> None:
        stack = self._local.stack
        layer, start, children = stack.pop()
        duration = time.perf_counter() - start
        open_spans = self._local.open
        open_spans[layer] -= 1
        with self._lock:
            self.self_s[layer] += duration - children
            if open_spans[layer] == 0:
                self.inclusive_s[layer] += duration
        if stack:
            stack[-1][2] += duration

    def _timed_next(self, layer: str, iterator):
        """A generator that times each step of ``iterator`` under ``layer``."""
        while True:
            self._enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def _wrapper(self, original, layer: str, mode: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.calls[layer] += 1
            tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if mode == STREAM and isinstance(result, RowStream):
                return RowStream(result.columns,
                                 tracer._timed_next(layer, result.batches()))
            if mode == ITER:
                return tracer._timed_next(layer, iter(result))
            if mode == CALLABLE:
                return tracer._wrapper(result, layer, PLAIN)
            return result
        return wrapper
