"""The repository benchmark: one command, four workloads, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload short_rw --seed 3 --seconds 20

With ``--workload`` one workload runs in this process; without it each
workload runs in a process of its own.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` is a separate run
that wraps each module's entry points (see ``layers.py``) and reports the
per-layer metrics, plus the traced/untraced throughput ratio.  Every
result is checked by the workload's oracle; the last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(without ``--workload``, ``metrics`` holds each workload's under its
name).  The exit code is 1 when any result is not correct.
A full record of the run, provenance included, is written under
``perfbench/out/``.  See ``perfbench/README.md`` for the metric glossary.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ORDER = ["short_rw", "scan_paged", "mine_refresh", "wire_hot"]
SUBPROCESS_TIMEOUT = 180
# Time metrics are taken at this percentile of their repeats (see
# fast_end); a run times at least MIN_ROUNDS rounds, so that ten lie
# beyond it, and more until its --seconds have passed.
FAST_PERCENTILE = 10
MIN_ROUNDS = 100
# setup_s is the fastest of the set-ups made before and after the timed
# phase: at least this many each time, repeated until this much time has
# gone into them.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.5

LAYER_UNITS = {"lang.parse_us": "us", "obs.repository_us": "us",
               "obs.registry_us": "us", "obs.plan_builds_per_stmt": "count",
               "core.dispatch_self_us": "us", "sqlstore.engine_us": "us",
               "sqlstore.rows_examined_per_row_out": "count",
               "trace.throughput_ratio": "ratio"}
COUNTERS = ["activity.rows_scanned", "activity.rows_out", "buffer.hits",
            "buffer.misses", "caseset_cache.hits", "caseset_cache.misses",
            "server.bytes_out"]


class Sample:
    """One timed statement: type, kind, latency, and rows or cases."""

    __slots__ = ("label", "kind", "latency", "rows")

    def __init__(self, label, kind, latency, rows):
        self.label = label
        self.kind = kind
        self.latency = latency
        self.rows = rows


def percentile(values, q):
    """The q-th percentile (0 < q < 100), or None when fewer than ten
    samples lie beyond it."""
    n = len(values)
    if n == 0 or min(q, 100 - q) / 100.0 * n < 10:
        return None
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fast_end(values):
    """The 10th percentile of ``values`` (times), or None with fewer than
    100 of them.

    On a shared 2-vCPU virtual machine, neighbours only ever add time, in
    spells that can last ten seconds: in a tight pure-Python loop the
    fastest slice of nearly every 5 s window stayed within ~5% for minutes
    while the windows' medians varied by up to 60%.  The fast end of many repeats
    therefore tracks the program's own cost, and a change to the program
    moves it in proportion."""
    return percentile(values, FAST_PERCENTILE)


def verdict(op, result):
    """The op's oracle on ``result``; a result it cannot read is wrong."""
    try:
        return bool(op.check(result))
    except (TypeError, ValueError, KeyError, IndexError):
        return False


class Runner:
    """Runs one workload's ops, timing and checking each."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.ops()
        self.failed = 0
        self.attempted = 0
        self.failure_notes = []

    def step(self):
        """Run the next op; returns its Sample and the op."""
        op = next(self.ops)
        start = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception as exc:  # noqa: BLE001 - a failed statement
            latency = time.perf_counter() - start
            ok, result = False, None
            self._note(op, f"{type(exc).__name__}: {exc}")
        else:
            latency = time.perf_counter() - start
            ok = verdict(op, result)
            if not ok:
                self._note(op, "oracle mismatch")
        self.attempted += 1
        self.failed += not ok
        if hasattr(result, "rows"):
            rows = len(result.rows)
        elif op.kind == "train" and isinstance(result, int):
            rows = result
        else:
            rows = 0
        return Sample(op.label, op.kind, latency, rows), op

    def _note(self, op, message):
        if len(self.failure_notes) < 5:
            self.failure_notes.append(f"{op.label}: {message}")

    def round(self):
        """Run the ops of one round; returns their samples."""
        samples = []
        while True:
            sample, op = self.step()
            samples.append(sample)
            if op.boundary:
                return samples

    def run_ops(self, count):
        """Run ``count`` ops, then finish the round the last one is in."""
        samples, boundary = [], True
        while len(samples) < count or not boundary:
            sample, op = self.step()
            samples.append(sample)
            boundary = op.boundary
        return samples

    def final_checks(self):
        for name, ok in self.workload.final_checks().items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failure_notes.append(f"final check {name} failed")


def counters(provider):
    return {name: provider.metrics.value(name) for name in COUNTERS}


def delta(before, after):
    return {name: after[name] - before[name] for name in before}


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_timed(workload):
    """Set the workload up at least ``SETUP_REPEATS`` times and until
    ``SETUP_SECONDS`` have been spent; keep the last.  Returns the set-up
    times in seconds."""
    times = []
    while True:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        if len(times) >= SETUP_REPEATS and sum(times) >= SETUP_SECONDS:
            return times
        workload.close()


def end_to_end(workload, runner, seconds):
    """The untraced run: set-ups, the timed closed loop, set-ups again.

    Set-up is timed on both sides of the timed phase so that a slow spell
    of the machine is less likely to cover every one of them."""
    gc.collect()
    rss_before = max_rss_mb()
    setups = setup_timed(workload)
    runner.run_ops(workload.warmup_ops)
    start = time.perf_counter()
    rounds = [runner.round() for _ in range(MIN_ROUNDS)]
    # Memory is taken after a fixed amount of work, so that a faster
    # program, which gets through more rounds, does not hold more rows.
    rss_growth = max_rss_mb() - rss_before
    while time.perf_counter() < start + seconds:
        rounds.append(runner.round())
    runner.final_checks()
    workload.close()
    setups += setup_timed(workload)
    samples = [sample for one in rounds for sample in one]
    reads = [s.latency * 1e3 for s in samples if s.kind == "read"]
    writes = [s.latency * 1e3 for s in samples if s.kind == "write"]
    by_label = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.latency * 1e3)
    # Every round holds every statement type, so each has MIN_ROUNDS
    # samples or more.
    read_labels = sorted({s.label for s in samples if s.kind == "read"})
    read_fast = [fast_end(by_label[label]) for label in read_labels]
    per_stmt = fast_end([sum(s.latency for s in one) / len(one)
                         for one in rounds])
    metrics = {
        "setup_s": (min(setups), "s", len(setups)),
        "stmt_per_s": (1.0 / per_stmt, "stmt/s", len(rounds)),
        "read_p10_ms": (statistics.geometric_mean(read_fast), "ms",
                        len(reads)),
        "rss_growth_mb": (rss_growth, "MB", 1),
    }
    extra = {
        "setup_median_s": (statistics.median(setups), "s", len(setups)),
        "rounds": (len(rounds), "count", len(rounds)),
        "stmt_per_s_all": (len(samples) / sum(s.latency for s in samples),
                           "stmt/s", len(samples)),
        "read_p50_ms": (percentile(reads, 50), "ms", len(reads)),
        "read_p99_ms": (percentile(reads, 99), "ms", len(reads)),
        "write_p50_ms": (percentile(writes, 50), "ms", len(writes)),
        "write_p99_ms": (percentile(writes, 99), "ms", len(writes)),
        "failed_frac": (runner.failed / runner.attempted, "ratio",
                        runner.attempted),
        "peak_rss_mb": (max_rss_mb(), "MB", 1),
    }
    extra.update(workload.extra_metrics(samples))
    for label, values in sorted(by_label.items()):
        extra[f"{label}.mean_ms"] = (statistics.fmean(values), "ms",
                                     len(values))
        for q in (FAST_PERCENTILE, 50):
            if percentile(values, q) is not None:
                extra[f"{label}.p{q}_ms"] = (percentile(values, q), "ms",
                                             len(values))
    return metrics, extra


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(workload, runner, seconds):
    """The traced run: exact counts over a fixed prefix of the ops, then
    alternating untraced and traced blocks for the tracing overhead."""
    from layers import LayerTracer

    workload.setup()
    runner.run_ops(workload.warmup_ops)
    tracer = LayerTracer()
    provider = workload.provider
    prefix, by_label = [], {}
    deadline = time.perf_counter() + seconds
    start_counts = counters(provider)
    tracer.install()
    try:
        while True:
            before = counters(provider)
            sample, op = runner.step()
            prefix.append(sample)
            by_label.setdefault(sample.label, []).append(
                delta(before, counters(provider)))
            if len(prefix) >= workload.trace_ops and op.boundary:
                break
    finally:
        tracer.uninstall()
    counts = delta(start_counts, counters(provider))
    plan_builds = tracer.calls["obs.build_plan"]

    plain, interleaved = [], []
    while time.perf_counter() < deadline or len(plain) < len(prefix):
        plain.extend(runner.run_ops(workload.trace_block))
        tracer.install()
        try:
            interleaved.extend(runner.run_ops(workload.trace_block))
        finally:
            tracer.uninstall()
    traced = prefix + interleaved
    runner.final_checks()
    if not tracer.restored():
        runner.attempted += 1
        runner.failed += 1
        runner.failure_notes.append("a wrapped entry point was not restored")

    n, m = len(traced), len(prefix)
    us = {layer: value * 1e6 for layer, value in tracer.self_s.items()}
    rate = [len(group) / sum(s.latency for s in group)
            for group in (interleaved, plain)]
    metrics = {
        "lang.parse_us": (us.get("lang.parse", 0.0) / n, n),
        "obs.repository_us": ((us.get("obs.repository", 0.0) +
                               us.get("obs.build_plan", 0.0)) / n, n),
        "obs.registry_us": (us.get("obs.registry", 0.0) / n, n),
        "obs.plan_builds_per_stmt": (plan_builds / m, m),
        "core.dispatch_self_us": (us.get("core.dispatch", 0.0) / n, n),
        "sqlstore.engine_us": (us.get("sqlstore.engine", 0.0) / n, n),
        "sqlstore.rows_examined_per_row_out": (_ratio(
            counts["activity.rows_scanned"], counts["activity.rows_out"]), m),
        "trace.throughput_ratio": (rate[0] / rate[1], len(plain)),
    }
    metrics = {name: (value, LAYER_UNITS[name], count)
               for name, (value, count) in metrics.items()}

    extra = {"sqlstore.pages_read_per_stmt": (counts["buffer.misses"] / m,
                                              "count", m)}
    for label, deltas in sorted(by_label.items()):
        scanned = sum(d["activity.rows_scanned"] for d in deltas)
        out = sum(d["activity.rows_out"] for d in deltas)
        if out:
            extra[f"sqlstore.rows_examined_per_row_out.{label}"] = (
                scanned / out, "count", len(deltas))
    hits, misses = counts["buffer.hits"], counts["buffer.misses"]
    if hits + misses:
        extra["sqlstore.buffer_hit_ratio"] = (hits / (hits + misses),
                                              "ratio", m)
    trained = sum(s.rows for s in traced if s.label == "train")
    scored = sum(s.rows for s in traced if s.label == "predict")
    if trained and scored:
        cache_hits = counts["caseset_cache.hits"]
        cache_total = cache_hits + counts["caseset_cache.misses"]
        extra.update({
            "shaping.shape_us_per_case": (
                us.get("shaping", 0.0) / (trained + scored), "us", n),
            "core.bind_us_per_case": (
                us.get("core.bind", 0.0) / (trained + scored), "us", n),
            "core.caseset_cache_hit_ratio": (
                _ratio(cache_hits, cache_total), "ratio", int(cache_total)),
            "core.predict_self_us_per_case": (
                us.get("core.predict", 0.0) / scored, "us", n),
            "algorithms.train_us_per_case": (
                us.get("algorithms.train", 0.0) / trained, "us", n),
            "algorithms.predict_us_per_case": (
                us.get("algorithms.predict", 0.0) / scored, "us", n),
        })
    if tracer.calls["client"]:
        delivered = sum(s.rows for s in traced)
        inclusive = tracer.inclusive_s
        extra.update({
            "wire.overhead_us": ((inclusive["client"] -
                                  inclusive["core.dispatch"]) * 1e6 / n,
                                 "us", n),
            "wire.codec_us_per_row": (us.get("wire.codec", 0.0) / delivered,
                                      "us", n),
            "wire.bytes_per_row": (counts["server.bytes_out"] /
                                   sum(s.rows for s in prefix), "count", m),
        })
    return metrics, extra


def provenance(args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy
    return {"commit": commit or "unknown",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workload": args.workload}


def run_one(args):
    """Run one workload in this process; returns the result object."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    # The inputs and oracle state are the harness's, not the program's:
    # keep the cyclic collector from walking them on the program's time.
    gc.collect()
    gc.freeze()
    runner = Runner(workload)
    try:
        if args.trace:
            metrics, extra = per_layer(workload, runner, args.seconds)
        else:
            metrics, extra = end_to_end(workload, runner, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for note in runner.failure_notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {runner.attempted} attempted, "
          f"{runner.failed} failed")
    for title, group in (("metric", metrics), ("detail", extra)):
        for name, (value, unit, count) in group.items():
            shown = "n/a (too few samples)" if value is None else \
                f"{value:.6g} {unit}"
            print(f"  {title:6} {name:45} {shown}  (n={count})")
    record = {"provenance": provenance(args),
              "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failure_notes,
              "metrics": {name: {"value": value, "unit": unit, "n": count}
                          for name, (value, unit, count) in
                          {**metrics, **extra}.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    correct = runner.failed == 0 and all(
        value is not None for value, _, _ in metrics.values())
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def run_all(args):
    """Each workload in its own process.  Echoes their reports and returns
    one result: ``correct`` only if every workload's is, ``attempted`` and
    ``failed`` summed, and each workload's metrics under its name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ORDER:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=SUBPROCESS_TIMEOUT)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            print(f"workload {name} gave no result", file=sys.stderr)
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run the benchmark from "
              "the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    result = run_all(args) if args.workload is None else run_one(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
