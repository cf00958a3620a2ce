"""Workload ``serve-cold``: a spawned ``kpbs serve`` daemon.

The daemon runs with its defaults (``jobs=1``, ``cache_size=256``); the
benchmark drives it from one process over two connections, one tenant
each, speaking KPBR through the protocol module's own codec.  Each
request is a distinct ~50-per-side instance sent after warm-up has
filled the cache with tiny ones: every request misses and evicts, and
real compute sits behind the queue.

A timed run is a closed loop on both connections (throughput), then an
open loop at a fixed rate with each request timed from its due time
(latency, SLO).  Every reply is rebuilt with ``Schedule.from_dict`` and
checked against the graph that was sent, after the timed phases.
"""

from __future__ import annotations

import queue
import shutil
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.core.bounds import lower_bound
from repro.core.cache import canonical_signature
from repro.core.schedule import Schedule
from repro.parallel import decode_graph, encode_graph
from repro.serve.protocol import (
    _HEADER,
    DEFAULT_MAX_PAYLOAD,
    FRAME_REQUEST,
    _parse_header,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ReproError

from benchmarks.load_gen import DaemonHandle

import corpus
from measure import Checker, CorrectnessError, Spans, child_rss_mib, end_to_end

#: Share of the run spent in the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.5
#: Open-loop rate (requests/s) and latency limit (s).  The rate is 40-50%
#: of the closed-loop capacity, so requests queue behind real compute
#: without the box's slow spells pushing the queue towards saturation.
RATE = 5.0
SLO_S = 1.0
#: Distinct instances available to the closed loop.
COLD_CLOSED = 400


class Connection:
    """One blocking KPBR connection; encode/decode calls are span-timed."""

    def __init__(self, address: str, tenant: str, spans: Spans) -> None:
        host, port = address.rsplit(":", 1)
        self.address = (host, int(port))
        self.tenant = tenant
        self.spans = spans
        self.sock: socket.socket | None = None

    def _recv(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return bytes(buf)

    def request(self, blob: bytes) -> tuple[dict, int]:
        """One schedule request; returns the reply document and its size."""
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=60.0)
        doc = {"op": "schedule", "k": corpus.SERVE_K, "beta": corpus.BETA,
               "tenant": self.tenant}
        frame = self.spans.call(
            "serve.protocol.encode", encode_frame, FRAME_REQUEST, doc, blob
        )
        try:
            self.sock.sendall(frame)
            # The protocol module owns the header layout; only the read
            # loop is here, so decode_frame is timed on its own.
            header = self._recv(_HEADER.size)
            _t, _crc, json_len, blob_len = _parse_header(header, DEFAULT_MAX_PAYLOAD)
            data = header + self._recv(json_len + blob_len)
        except OSError:
            self.close()
            raise
        _type, reply, _blob = self.spans.call("serve.protocol.decode", decode_frame, data)
        return reply, len(data)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class Outcomes:
    """Thread-safe record of (graph index, reply or None, latency)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.rows: list[tuple[int, dict | None, float, int]] = []

    def add(self, index: int, reply: dict | None, latency: float, size: int) -> None:
        with self.lock:
            self.rows.append((index, reply, latency, size))


def _send(conn: Connection, index: int, blob: bytes, outcomes: Outcomes, t0: float):
    try:
        reply, size = conn.request(blob)
    except (OSError, ReproError) as exc:
        print(f"request {index} failed: {type(exc).__name__}: {exc}")
        reply, size = None, 0
    outcomes.add(index, reply, time.perf_counter() - t0, size)


def _closed_loop(conns, pick, seconds: float) -> tuple[Outcomes, float]:
    """Both connections send back-to-back until ``seconds`` pass or
    ``pick`` runs dry; returns outcomes and the elapsed time."""
    outcomes = Outcomes()
    start = time.perf_counter()
    stop_at = start + seconds

    def client(c: int) -> None:
        n = 0
        while time.perf_counter() < stop_at:
            chosen = pick(c, n)
            if chosen is None:
                return
            index, blob = chosen
            _send(conns[c], index, blob, outcomes, time.perf_counter())
            n += 1

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes, time.perf_counter() - start


def _open_loop(conns, pick, rate: float, count: int):
    """``count`` requests due every ``1/rate`` s, served by whichever
    connection is free; latency runs from the due time.  Returns outcomes
    and the generator's lateness per request."""
    outcomes = Outcomes()
    due_q: queue.Queue = queue.Queue()
    lags = []

    def client(c: int) -> None:
        while True:
            item = due_q.get()
            if item is None:
                return
            j, due = item
            index, blob = pick(c, j)
            _send(conns[c], index, blob, outcomes, due)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(conns))]
    for t in threads:
        t.start()
    start = time.perf_counter() + 0.05
    for j in range(count):
        due = start + j / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - due))
        due_q.put((j, due))
    for _ in threads:
        due_q.put(None)
    for t in threads:
        t.join()
    return outcomes, lags


class Traffic:
    """The requests of one run, pre-encoded before timing.

    The closed loop takes instances ``[0, COLD_CLOSED)`` in order, the
    open loop's request ``j`` is instance ``COLD_CLOSED + j``.
    """

    def __init__(self, seed: int, open_count: int) -> None:
        self.graphs = [corpus.cold_graph(seed, i)
                       for i in range(COLD_CLOSED + open_count)]
        self.fill = [encode_graph(corpus.fill_graph(seed, i))
                     for i in range(corpus.COLD_FILL)]
        self.blobs = [encode_graph(g) for g in self.graphs]
        self.next_cold = 0
        self.lock = threading.Lock()

    def closed(self, c: int, n: int):
        """Request ``n`` of connection ``c`` in the closed loop, or None
        once the instances run out."""
        with self.lock:
            index = self.next_cold
            if index >= COLD_CLOSED:
                return None
            self.next_cold += 1
        return index, self.blobs[index]

    def opened(self, c: int, j: int):
        """Request ``j`` of the open loop, sent on connection ``c``."""
        return COLD_CLOSED + j, self.blobs[COLD_CLOSED + j]


def _warm_up(address: str, traffic: Traffic) -> None:
    """Fill the 256-entry cache with distinct tiny instances, which also
    runs the compute path once per request."""
    conns = [Connection(address, t, Spans(False)) for t in corpus.TENANTS]
    fill = traffic.fill
    pick = lambda c, n: (-1, fill[2 * n + c]) if 2 * n + c < len(fill) else None
    try:
        outcomes, _ = _closed_loop(conns, pick, 60.0)
    finally:
        for conn in conns:
            conn.close()
    bad = [r for _, r, _, _ in outcomes.rows if not r or r.get("status") != "ok"]
    if bad:
        raise RuntimeError(f"warm-up failed: {bad[:3]}")


def _start(state_root: Path, traffic: Traffic):
    """Spawn and warm the daemon three times; keep the last one."""
    times = []
    daemon = None
    for _ in range(3):
        if daemon is not None:
            daemon.stop()
        start = time.perf_counter()
        daemon = DaemonHandle(tempfile.mkdtemp(dir=state_root))
        try:
            daemon.start()
            _warm_up(daemon.address, traffic)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - start)
    return daemon, statistics.median(times)


def _check(traffic: Traffic, outcomes: Outcomes, checker: Checker, spans: Spans,
           record: bool = True) -> int:
    """Validate every reply against the graph sent; returns failures.

    A reply that is not ``ok`` (error frame, shed, expired) or a lost
    connection is a failure; an ``ok`` reply with a wrong schedule ends
    the run through :class:`~measure.CorrectnessError`.
    """
    failed = 0
    for index, reply, _latency, _size in outcomes.rows:
        if reply is None or reply.get("status") != "ok":
            failed += 1
            continue
        graph = traffic.graphs[index]
        try:
            sched = Schedule.from_dict(reply["schedule"])
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise CorrectnessError(f"reply to request {index}: bad schedule: {exc}") from exc
        if spans.enabled:
            blob = spans.call("parallel.wire.encode", encode_graph, graph)
            spans.call("parallel.wire.decode", decode_graph, blob)
            spans.add("parallel.wire.bytes", len(blob))
            spans.call("core.cache.signature", canonical_signature, graph)
            spans.call("core.bounds", lower_bound, graph, corpus.SERVE_K, corpus.BETA)
            spans.call("core.schedule.to_dict", sched.to_dict)
            spans.call("core.schedule.validate", sched.validate, graph)
        checker.check(sched, graph, corpus.SERVE_K, corpus.BETA,
                      f"reply to request {index}", record)
    return failed


def _latencies(outcomes: Outcomes) -> list[float | None]:
    return [lat if reply and reply.get("status") == "ok" else None
            for _, reply, lat, _ in outcomes.rows]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gen_start = time.perf_counter()
    traffic = Traffic(seed, _open_count(seconds))
    gen_s = time.perf_counter() - gen_start
    graphs = corpus.workload_graphs(workload, seed)
    notes = [f"{workload}: {len(traffic.blobs)} instances, fingerprint "
             f"{corpus.fingerprint(graphs)}"]
    state_root = Path(".perfbench-out")
    state_root.mkdir(exist_ok=True)
    state_root = Path(tempfile.mkdtemp(prefix="serve-", dir=state_root))
    daemon = None
    try:
        daemon, start_s = _start(state_root, traffic)
        setup_s = gen_s + start_s
        if trace:
            result = _run_traced(daemon, traffic, seconds, notes)
        else:
            result = _run_timed(daemon, traffic, seconds, notes, setup_s)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(state_root, ignore_errors=True)
    if not trace:
        result["metrics"]["max_rss_mib"] = child_rss_mib()
    return result


def _open_count(seconds: float) -> int:
    return int(RATE * seconds * (1.0 - CLOSED_SHARE))


def _connections(daemon, spans_enabled: bool):
    return [Connection(daemon.address, t, Spans(spans_enabled)) for t in corpus.TENANTS]


def _run_timed(daemon, traffic, seconds, notes, setup_s) -> dict:
    conns = _connections(daemon, False)
    try:
        closed, elapsed = _closed_loop(conns, traffic.closed, seconds * CLOSED_SHARE)
        opened, lags = _open_loop(
            conns, traffic.opened, RATE, _open_count(seconds)
        )
    finally:
        for conn in conns:
            conn.close()
    checker = Checker()
    off = Spans(False)
    failed = _check(traffic, closed, checker, off) + _check(traffic, opened, checker, off)
    ok_closed = sum(1 for lat in _latencies(closed) if lat is not None)
    open_lat = _latencies(opened)
    attempted = len(closed.rows) + len(opened.rows)
    metrics, note = end_to_end(
        setup_s=setup_s,
        throughput=ok_closed / elapsed,
        latencies=[lat for lat in open_lat if lat is not None],
        slo_s=SLO_S,
        slo_samples=open_lat,
        ratios=checker.ratios,
        attempted=attempted,
        failed=failed,
        rss=0.0,  # the daemon's peak, filled in once it has exited
    )
    notes.append(
        f"closed loop: {len(closed.rows)} requests in {elapsed:.3f} s on 2 connections; "
        f"open loop: {len(opened.rows)} at {RATE}/s, generator lag max "
        f"{max(lags):.4f} s; {note}"
    )
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


def _snapshot_value(snap: dict, name: str, field: str = "value") -> float:
    entry = snap.get(name) or {}
    return float(entry.get(field) or 0.0)


def _run_traced(daemon, traffic, seconds, notes) -> dict:
    share = seconds * CLOSED_SHARE / 2
    conns = _connections(daemon, False)
    try:
        base, base_elapsed = _closed_loop(conns, traffic.closed, share)
    finally:
        for conn in conns:
            conn.close()
    conns = _connections(daemon, True)
    depth_max = [0.0]
    polling = threading.Event()

    def poll() -> None:
        while not polling.wait(0.2):
            snap = daemon.metrics_snapshot()
            depth_max[0] = max(depth_max[0], _snapshot_value(snap, "serve.queue_depth"))

    before = daemon.metrics_snapshot()
    poller = threading.Thread(target=poll)
    poller.start()
    try:
        closed, elapsed = _closed_loop(conns, traffic.closed, share)
        opened, lags = _open_loop(
            conns, traffic.opened, RATE, _open_count(seconds)
        )
    finally:
        polling.set()
        poller.join()
        for conn in conns:
            conn.close()
    after = daemon.metrics_snapshot()

    def diff(name: str, field: str = "value") -> float:
        return _snapshot_value(after, name, field) - _snapshot_value(before, name, field)

    spans = Spans(True)
    for conn in conns:
        for name, values in conn.spans.durations.items():
            spans.durations[name].extend(values)
    checker = Checker()
    failed = sum(_check(traffic, o, checker, spans) for o in (closed, opened))
    failed += _check(traffic, base, checker, Spans(False), record=False)
    ok_base = sum(1 for lat in _latencies(base) if lat is not None)
    ok_traced = sum(1 for lat in _latencies(closed) if lat is not None)
    overhead = (ok_base / base_elapsed) / (ok_traced / elapsed) - 1.0
    hits, misses = diff("schedule_cache.hits"), diff("schedule_cache.misses")
    batches = diff("serve.schedule_batch", "laps")
    requests = diff("serve.request.seconds", "count")
    sizes = [size for o in (closed, opened) for _, _, _, size in o.rows if size]
    metrics = {
        "core.bounds.self_s": spans.mean("core.bounds"),
        "core.schedule.to_dict.self_s": spans.mean("core.schedule.to_dict"),
        "core.schedule.validate.self_s": spans.mean("core.schedule.validate"),
        "serve.response_bytes": statistics.fmean(sizes),
        "core.cache.signature.self_s": spans.mean("core.cache.signature"),
        "core.cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "core.cache.evictions": diff("schedule_cache.evictions"),
        "parallel.wire.encode.self_s": spans.mean("parallel.wire.encode"),
        "parallel.wire.decode.self_s": spans.mean("parallel.wire.decode"),
        "parallel.wire.bytes": spans.mean("parallel.wire.bytes"),
        "serve.protocol.encode.self_s": spans.mean("serve.protocol.encode"),
        "serve.protocol.decode.self_s": spans.mean("serve.protocol.decode"),
        "serve.server_time_s": (
            diff("serve.request.seconds", "total") / requests if requests else 0.0
        ),
        "serve.compute_s": (
            diff("serve.schedule_batch", "elapsed") / batches if batches else 0.0
        ),
        "serve.batch_size_mean": (
            diff("serve.schedules_total") / batches if batches else 0.0
        ),
        "serve.queue_depth_max": depth_max[0],
        "serve.generator_lag_s": max(lags),
        "trace.overhead_frac": overhead,
    }
    attempted = len(base.rows) + len(closed.rows) + len(opened.rows)
    notes.append(f"closed loop {len(base.rows)} untraced + {len(closed.rows)} traced, "
                 f"open loop {len(opened.rows)}; overhead {overhead:+.4f}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}
