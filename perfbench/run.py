"""The private-MAC benchmark: one command, two workloads, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gc_pooled --seed 1 --seconds 12 --trace 0

Workloads (see ``shared.WORKLOADS``):

* ``gc_pooled``    — GC, Q8.4, 4x8 model, 1 connection, closed loop; the
  default serving config, pre-garbled pool kept warm by the refiller
  (Figure 1's operating pattern).
* ``he_local``     — in-process CloudServer, Q8.4, 4x8 model: HE queries
  served through ``serve_row_he`` over an in-memory channel, one thread.

The GC workload starts the gateway in its own process
(``gateway_proc.py``) so the client's evaluation and the server's
garbling never share one interpreter lock; the load comes from this
process over one connection, on its main thread.

Every query's decoded result is compared bit-exactly with the quantised
plaintext oracle; a mismatch aborts the run.  Payload bytes and
client-to-server flights per query must not depend on the inputs, and
the simulated cycle count of each served circuit must match its pinned
value; either check failing also aborts.  An aborted run exits non-zero
and prints no result.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the time untraced and half with spans recorded
in both processes around each layer's public entry points, and reports
the per-layer metrics.  The last stdout line is the JSON result; the run
record and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import shared

HERE = Path(__file__).resolve().parent
#: The measured window runs as this many equal slices with a timed
#: set-up before the first and after each one; ``setup_s`` is the median
#: of all of them.  Spreading the set-ups over the window samples the
#: host at the same times as the load, so set-up time drifts with the
#: host no more than latency does.  A ``he_local`` set-up sample is the
#: mean build time over a burst of at least ``HE_SETUP_BURST_S``: one
#: build takes a few milliseconds and so runs wholly in one of the
#: host's fast or slow spells (see ``END_TO_END``), and a median of
#: single builds would jump between the two.
SLICES = {"gateway": 4, "he": 10}
HE_SETUP_BURST_S = 0.5
#: warm-up queries (the first one draws its inputs from
#: another seed: the traffic-volume check compares seeds)
WARMUP_GC = 2
WARMUP_HE = 20
RECV_TIMEOUT_S = 30.0
#: fresh handshakes timed in the traced phase (``net.handshake_ms``)
HANDSHAKE_PROBES = 3

#: Bounded in BENCHMARK.json, and so reported on every workload.
#: ``latency_p50_ms`` and ``queries_per_s`` are printed on every run and
#: reported by the traced run, but not bounded.  On a shared 2-vCPU
#: Xeon cloud host the vCPUs switch between a fast and a slow spell every
#: few seconds, and the share of a run spent fast ranged from 0.1 to 0.8
#: between 45-50 s runs a minute apart.  A ``he_local`` query (2-3 ms)
#: runs wholly in one spell, 1.7 ms fast or 3.1 ms slow, so the run's
#: median lands on either and its throughput follows the share.
#: ``latency_p90_ms`` lies in the slow spell on every run and stays steady.
#: ``latency_p99_ms`` is printed on every run and reported by the traced
#: run, but not bounded: only ``he_local`` has ten samples beyond it; on
#: ``gc_pooled`` it reads one or two slowest queries.
#: ``slo_met_frac`` is reported by the traced run too: against the
#: serving layer's own p99 target it is about 1 on ``he_local`` and 0 on
#: ``gc_pooled``, whose every query takes longer than the target.
END_TO_END = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "bytes_per_query": "bytes",
    "round_trips_per_query": "count",
    "peak_rss_mb": "MiB",
}

SERVER_LAYERS = ("host", "accel", "crypto.aes", "crypto.ot", "recover", "net", "he", "idle")
CLIENT_LAYERS = ("gc.sequential_gc", "crypto.aes", "crypto.ot", "net", "he", "untraced")

PER_LAYER = {
    "latency_p50_ms": "ms",
    "queries_per_s": "1/s",
    "latency_p99_ms": "ms",
    "slo_met_frac": "frac",
    "accel.runs_garbled": "count",
    "accel.ms_per_run": "ms",
    "accel.us_per_table": "us",
    **{
        f"aes.{side}.{name}": unit
        for side in ("server", "client")
        for name, unit in (
            ("block_calls_per_query", "count"),
            ("words_calls_per_query", "count"),
            ("blocks_per_call", "count"),
            ("ms_per_query", "ms"),
        )
    },
    "ot.send_ms_per_query": "ms",
    "ot.recv_ms_per_query": "ms",
    "ot.calls_per_query": "count",
    "eval.self_ms_per_query": "ms",
    "host.serve_self_ms_per_query": "ms",
    "host.pool_hit_rate": "frac",
    "host.pool_hits": "count",
    "host.pool_misses": "count",
    "host.refill_busy_frac": "frac",
    "recover.checkpoint_ms_per_query": "ms",
    "net.frames_per_query": "count",
    "net.send_ms_per_query": "ms",
    "net.recv_wait_ms_per_query": "ms",
    "net.handshake_ms": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.service_ms_p50": "ms",
    "he.answer_ms_per_query": "ms",
    "he.encrypt_ms_per_query": "ms",
    "he.decrypt_ms_per_query": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
    "trace.joined_frac": "frac",
    "sim.cycles_per_mac": "count",
    "failed_frac": "frac",
    "garbled_macs_per_s": "1/s",
    **{f"self_ms.server.{layer}": "ms" for layer in SERVER_LAYERS},
    **{f"self_ms.client.{layer}": "ms" for layer in CLIENT_LAYERS},
}


class BenchError(Exception):
    """A check failed: the run aborts and prints no result."""


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def beyond(values, q: float) -> int:
    cut = pct(values, q)
    return sum(1 for v in values if v > cut)


class WireCounter:
    """Payload bytes and client-to-server flights on one endpoint.

    Counts at the transport hooks every endpoint routes its frames
    through; a flight is a run of sends ended by a receive.  The hooks
    are looked up on the class at call time, so spans wrapped around
    them later still see every frame.
    """

    def __init__(self):
        self.bytes = 0
        self.flights = 0
        self._sending = False

    def attach(self, endpoint) -> None:
        from repro.gc.channel import INTEGRITY_TRAILER_BYTES as trailer

        cls = type(endpoint)

        def send(tag, payload):
            if not self._sending:
                self.flights += 1
                self._sending = True
            self.bytes += len(payload) - trailer
            cls._send_message(endpoint, tag, payload)

        def recv(timeout):
            tag, data = cls._recv_message(endpoint, timeout)
            self._sending = False
            self.bytes += len(data) - trailer
            return tag, data

        endpoint._send_message = send
        endpoint._recv_message = recv

    def mark(self) -> tuple[int, int]:
        return self.bytes, self.flights


class WireCheck:
    """Every query must move the same (bytes, flights) whatever its inputs."""

    def __init__(self):
        self.ref: tuple[int, int] | None = None

    def check(self, before, after, where: str) -> None:
        delta = (after[0] - before[0], after[1] - before[1])
        if self.ref is None:
            self.ref = delta
        elif delta != self.ref:
            raise BenchError(
                f"traffic depends on the inputs: {where} moved "
                f"(bytes, flights) = {delta}, the first query {self.ref}"
            )


class Phase:
    """Requests offered, sent, succeeded and failed in one phase.

    A phase may run as several slices; ``seconds`` sums their lengths,
    and ``t_start``/``t_end`` bound the first and last.
    """

    def __init__(self, name: str):
        self.name = name
        self.offered = 0
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.t_start = self.t_end = 0.0
        self.seconds = 0.0
        self._slice_start = 0.0

    def begin(self) -> float:
        """Start a slice; returns its start time."""
        self._slice_start = perf_counter()
        if not self.t_start:
            self.t_start = self._slice_start
        return self._slice_start

    def end(self) -> None:
        self.t_end = perf_counter()
        self.seconds += self.t_end - self._slice_start

    def ok(self, latency: float) -> None:
        self.succeeded += 1
        self.latencies.append(latency)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def record(self) -> dict:
        return {
            "offered": self.offered, "sent": self.sent,
            "succeeded": self.succeeded, "failed": self.failed,
            "seconds": self.seconds, "errors": self.errors,
        }


def environment(garble_mode: str) -> dict:
    head = shared.REPO / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = shared.REPO / ".git" / ref[5:]
            rev = target.read_text().strip() if target.is_file() else ref
        else:
            rev = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "garble_mode": garble_mode,
        "cryptography_importable": importlib.util.find_spec("cryptography") is not None,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((shared.SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(shared.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_wire_ledger(workload: str, counts: tuple[int, int]) -> None:
    """Traffic per query must also repeat across runs of the same source."""
    ledger_path = shared.OUT / "wire_counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{source_hash()}:{workload}"
    seen = ledger.get(key)
    if seen is not None and tuple(seen) != tuple(counts):
        raise BenchError(
            f"traffic per query changed between runs of the same source: "
            f"(bytes, flights) = {tuple(counts)}, an earlier run {tuple(seen)}"
        )
    ledger[key] = list(counts)
    ledger_path.write_text(json.dumps(ledger, sort_keys=True))


def timed_setups(build, min_s: float):
    """Run ``build`` once, then again until ``min_s`` has passed;
    returns the last result and, as a one-item list, the mean duration."""
    durations: list[float] = []
    while not durations or sum(durations) < min_s:
        t0 = perf_counter()
        built = build()
        durations.append(perf_counter() - t0)
    return built, [statistics.fmean(durations)]


def spread_setups(seconds: float, slices: int, run_slice, setup) -> list[float]:
    """Run the measured window as ``slices`` equal calls of
    ``run_slice(span_s)``, each followed by ``setup()`` (which returns
    the durations it timed); returns every duration."""
    durations: list[float] = []
    for _ in range(slices):
        run_slice(seconds / slices)
        durations += setup()
    return durations


def check_answer(seed: int, index: int, model, fmt, row: int, x, value: float) -> None:
    """Bit-exact comparison with the quantised plaintext oracle."""
    expected = shared.expected_mac(model, fmt, row, x)
    if value != expected:
        raise BenchError(
            f"wrong answer (seed {seed}, query {index}): row {row}, "
            f"got {value!r}, oracle {expected!r}"
        )


def check_sim_cycles(bits: int, rounds: int, total_cycles: int) -> float:
    expected = shared.SIM_TOTAL_CYCLES[(bits, rounds)]
    if total_cycles != expected:
        raise BenchError(
            f"simulated schedule changed: {bits}-bit x {rounds} rounds takes "
            f"{total_cycles} cycles, pinned {expected}"
        )
    return total_cycles / rounds


# ----------------------------------------------------------------------
# the gateway process and its clients
# ----------------------------------------------------------------------
class Gateway:
    """One ``gateway_proc.py`` subprocess, driven over its stdin/stdout."""

    def __init__(self, wl: dict, seed: int, trace: bool, trace_out: Path):
        cfg = {
            "fmt": list(wl["fmt"]), "rows": wl["rows"], "cols": wl["cols"],
            "seed": seed, "trace": trace, "trace_out": str(trace_out),
        }
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gateway_proc.py"), json.dumps(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(shared.SRC)), cwd=str(shared.REPO),
        )
        try:
            line = self._readline(120.0)
            if not line.startswith("READY "):
                raise BenchError(f"gateway did not start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.port = int(line.split()[1])

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError(f"gateway silent for {timeout:g} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"gateway exited with code {self.proc.wait(5)}")
        return line.strip()

    def command(self, cmd: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(timeout))

    def stop(self) -> dict:
        try:
            final = self.command("stop")
            self.proc.wait(timeout=30.0)
        except BaseException:
            self.kill()
            raise
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Conn:
    """One client connection with its input stream and wire counter."""

    def __init__(self, port: int, wl: dict, seed: int, stream: int, fmt):
        from repro.net.client import RemoteAnalyticsClient
        from repro.net.endpoint import SocketEndpoint

        self.name = f"bench-{stream}"
        self.counter = WireCounter()

        def dial():
            sock = socket.create_connection(("127.0.0.1", port))
            endpoint = SocketEndpoint(self.name, sock, recv_timeout_s=RECV_TIMEOUT_S)
            self.counter.attach(endpoint)
            return endpoint

        self.client = RemoteAnalyticsClient(
            dial=dial, name=self.name, backend="gc", recv_timeout_s=RECV_TIMEOUT_S,
        )
        self.inputs = shared.query_inputs(seed, stream, fmt, wl["rows"], wl["cols"])
        # warm-up's first query draws from another seed's stream
        self.other_seed = shared.query_inputs(seed + 1, stream, fmt, wl["rows"], wl["cols"])

    def close(self) -> None:
        self.client.close()


class Load:
    """Issues checked queries; a wrong answer aborts the whole run."""

    def __init__(self, seed: int, model, fmt, wire: WireCheck):
        self.seed = seed
        self.model = model
        self.fmt = fmt
        self.wire = wire
        self._index = itertools.count()

    def query(self, conn: Conn, row: int, x) -> float:
        """Run one query; returns its completion time."""
        before = conn.counter.mark()
        value = conn.client.query_row(row, x)
        done = perf_counter()
        index = next(self._index)
        check_answer(self.seed, index, self.model, self.fmt, row, x, value)
        self.wire.check(before, conn.counter.mark(), f"query {index}")
        return done

    def closed(self, conn: Conn, phase: Phase, span_s: float | None = None,
               count: int | None = None) -> None:
        from repro.errors import ReproError

        until = phase.begin() + (span_s or 0.0)
        while (count is None or phase.sent < count) and (span_s is None or perf_counter() < until):
            row, x = next(conn.other_seed if count and phase.sent == 0 else conn.inputs)
            phase.offered += 1
            phase.sent += 1
            t0 = perf_counter()
            try:
                phase.ok(self.query(conn, row, x) - t0)
            except ReproError as exc:
                phase.fail(exc)
        phase.end()


def slo_ms() -> float:
    """The serving layer's own default p99 latency target."""
    from repro.serve import ServingConfig

    return ServingConfig().slo_p99_ms


def summarize_latency(phase: Phase) -> dict:
    ms = [v * 1000.0 for v in phase.latencies]
    met = sum(1 for v in ms if v <= slo_ms())
    return {
        "latency_p50_ms": pct(ms, 50),
        "latency_p90_ms": pct(ms, 90),
        "latency_p99_ms": pct(ms, 99),
        "slo_met_frac": met / phase.offered if phase.offered else 0.0,
        "samples": len(ms),
        "beyond_p90": beyond(ms, 90),
        "beyond_p99": beyond(ms, 99),
    }


# ----------------------------------------------------------------------
# per-layer metrics from the traced phase
# ----------------------------------------------------------------------
def layer_metrics(srv, cli, queries: int, window_s: float) -> dict:
    """Per-query layer figures from the garbler-side (``srv``) and
    evaluator-side (``cli``) span summaries of the traced phase."""
    q = max(queries, 1)

    def per_q(seconds: float) -> float:
        return seconds * 1000.0 / q

    out = {name: 0.0 for name in PER_LAYER}
    garbles = srv.named("accel.garble")
    runs = sum(r[7]["runs"] for r in garbles)
    tables = sum(r[7]["tables"] for r in garbles)
    accel_s = srv.total("accel.garble")
    out["accel.runs_garbled"] = float(runs)
    out["accel.ms_per_run"] = accel_s * 1000.0 / runs if runs else 0.0
    out["accel.us_per_table"] = accel_s * 1e6 / tables if tables else 0.0
    for side, summary in (("server", srv), ("client", cli)):
        block = summary.leaf.get("aes.block", [0, 0.0, 0])
        words = summary.leaf.get("aes.words", [0, 0.0, 0])
        calls = block[0] + words[0]
        out[f"aes.{side}.block_calls_per_query"] = block[0] / q
        out[f"aes.{side}.words_calls_per_query"] = words[0] / q
        out[f"aes.{side}.blocks_per_call"] = (block[2] + words[2]) / calls if calls else 0.0
        out[f"aes.{side}.ms_per_query"] = per_q(block[1] + words[1])
    out["ot.send_ms_per_query"] = per_q(srv.outer_s.get("ot.send", 0.0))
    out["ot.recv_ms_per_query"] = per_q(cli.outer_s.get("ot.recv", 0.0))
    out["ot.calls_per_query"] = srv.outer_n.get("ot.send", 0) / q
    out["eval.self_ms_per_query"] = per_q(cli.self_of("gc.eval", keep_leaf=True))
    out["host.serve_self_ms_per_query"] = per_q(srv.self_of("host.serve_row"))
    out["host.refill_busy_frac"] = srv.outer_s.get("host.refill", 0.0) / window_s
    out["recover.checkpoint_ms_per_query"] = per_q(srv.layer_outer_s("recover"))
    out["net.frames_per_query"] = (
        srv.outer_n.get("net.send", 0) + cli.outer_n.get("net.send", 0)
    ) / q
    out["net.send_ms_per_query"] = per_q(
        srv.outer_s.get("net.send", 0.0) + cli.outer_s.get("net.send", 0.0)
    )
    out["net.recv_wait_ms_per_query"] = per_q(cli.outer_s.get("net.recv", 0.0))
    waits = [r[7]["queue_wait"] * 1000.0 for r in srv.named("host.serve_row") if r[7]]
    service = [d * 1000.0 for d in srv.durations("host.serve_row")]
    out["serve.queue_wait_ms_p50"] = pct(waits, 50)
    out["serve.queue_wait_ms_p90"] = pct(waits, 90)
    out["serve.service_ms_p50"] = pct(service, 50)
    out["he.answer_ms_per_query"] = per_q(srv.outer_s.get("he.answer", 0.0))
    out["he.encrypt_ms_per_query"] = per_q(cli.outer_s.get("he.encrypt", 0.0))
    out["he.decrypt_ms_per_query"] = per_q(cli.outer_s.get("he.decrypt", 0.0))
    query_s = cli.total("query")
    if query_s:
        out["trace.coverage"] = 1.0 - cli.self_s.get("untraced", 0.0) / query_s
    for layer in SERVER_LAYERS:
        out[f"self_ms.server.{layer}"] = per_q(srv.self_s.get(layer, 0.0))
    for layer in CLIENT_LAYERS:
        out[f"self_ms.client.{layer}"] = per_q(cli.self_s.get(layer, 0.0))
    return out


def session_join(srv, cli) -> list[dict]:
    """Both sides of each traced session, joined on the session id."""
    rows = []
    for sid in sorted({r[5] for r in cli.named("query")}):
        queries = [r for r in cli.named("query") if r[5] == sid]
        serves = [r for r in srv.named("host.serve_row") if r[5] == sid]
        rows.append({
            "session": sid,
            "queries": len(queries),
            "client_query_ms": sum(r[3] - r[2] for r in queries) * 1000.0,
            "client_recv_wait_ms": sum(
                r[3] - r[2] for r in cli.named("net.recv") if r[5] == sid
            ) * 1000.0,
            "server_serves": len(serves),
            "server_serve_ms": sum(r[3] - r[2] for r in serves) * 1000.0,
            "server_queue_wait_ms": sum(
                r[7]["queue_wait"] for r in serves if r[7]
            ) * 1000.0,
        })
    return rows


def assemble(name: str, measured: Phase, setups: list[float], wire: WireCheck,
             queries_per_s: float, rss_mb: float, garble_mode: str, sim: float,
             garbled_macs_per_s: float, phases: dict):
    """The end-to-end metrics and the run record every workload reports."""
    lat = summarize_latency(measured)
    check_wire_ledger(name, wire.ref)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_p90_ms": lat["latency_p90_ms"],
        "queries_per_s": queries_per_s,
        "bytes_per_query": float(wire.ref[0]),
        "round_trips_per_query": float(wire.ref[1]),
        "peak_rss_mb": rss_mb,
    }
    record = {
        "phases": phases,
        "setups_s": setups,
        "latency": lat,
        "slo_ms": slo_ms(),
        "latencies_ms": [v * 1000.0 for v in measured.latencies],
        "garbled_macs_per_s": garbled_macs_per_s,
        "sim_cycles_per_mac": sim,
        "environment": environment(garble_mode),
    }
    return metrics, record


def pool_figures(hits: int, misses: int) -> dict:
    return {
        "host.pool_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "host.pool_hits": float(hits),
        "host.pool_misses": float(misses),
    }


# ----------------------------------------------------------------------
# gateway workloads
# ----------------------------------------------------------------------
def run_gateway(name: str, wl: dict, seed: int, seconds: int, trace: bool):
    import spans

    fmt = shared.fixed_format(wl["fmt"])
    model = shared.make_model(seed, fmt, wl["rows"], wl["cols"])
    wire = WireCheck()
    load = Load(seed, model, fmt, wire)
    phases: dict[str, dict] = {}
    server_spans = shared.OUT / f"spans-{name}-seed{seed}-server.json"
    gateway = conn = None

    def setup() -> list[float]:
        """Time one gateway from spawn to its first completed handshake.
        The first one serves the load; later ones are stopped at once."""
        nonlocal gateway, conn
        spawned = Gateway(wl, seed, trace, server_spans)
        try:
            dialed = Conn(spawned.port, wl, seed, 0, fmt)
        except BaseException:
            spawned.kill()
            raise
        took = perf_counter() - spawned.t_spawn
        if gateway is None:
            gateway, conn = spawned, dialed
        else:
            dialed.close()
            spawned.stop()
        return [took]

    def drive(phase: Phase, **limit) -> None:
        load.closed(conn, phase, **limit)
        phases[phase.name] = phase.record()

    try:
        setups = setup()
        drive(Phase("warm-up"), count=WARMUP_GC)
        measured = Phase("untraced" if trace else "measured")
        before = gateway.command("stats")
        sim = check_sim_cycles(wl["fmt"][0], before["rounds"], before["sim_total_cycles"])
        if trace:
            drive(measured, span_s=seconds / 2)
        else:
            setups += spread_setups(seconds, SLICES["gateway"],
                                    lambda span_s: drive(measured, span_s=span_s), setup)
        after = gateway.command("stats")

        if trace:
            rec = spans.Recorder("client")
            gateway.command("trace on")
            spans.instrument_client(rec)
            t_on = perf_counter()
            traced = Phase("traced")
            drive(traced, span_s=seconds / 2)
            probes = set()
            for i in range(HANDSHAKE_PROBES):
                probe = Conn(gateway.port, wl, seed, 100 + i, fmt)
                probes.add(probe.client.session_id)
                probe.close()
            t_off = perf_counter()
            gateway.command("trace off")
            rec.stop()
            traced_stats = gateway.command("stats")
        conn.close()
        conn = None
        final = gateway.stop()
        gateway = None
    finally:
        if conn is not None:
            conn.close()
        if gateway is not None:
            gateway.kill()

    metrics, record = assemble(
        name, measured, setups, wire,
        queries_per_s=measured.succeeded / measured.seconds,
        rss_mb=final["peak_rss_mb"], garble_mode=final["garble_mode"], sim=sim,
        garbled_macs_per_s=(after["runs_garbled"] - before["runs_garbled"])
        * after["rounds"] / measured.seconds,
        phases=phases,
    )
    record["server"] = final
    layers = None
    if trace:
        client_dump = rec.dump()
        # probe handshakes are not load; client spans outside a query
        # (a probe's handshake frames and goodbye) carry no session id
        srv = spans.Summary(json.loads(server_spans.read_text()), t_on, t_off,
                            lambda t: t not in probes)
        cli = spans.Summary(client_dump, t_on, t_off,
                            lambda t: t is not None and t not in probes)
        layers = layer_metrics(srv, cli, traced.succeeded, t_off - t_on)
        handshakes = [
            d * 1000.0
            for d in spans.Summary(client_dump, t_on, t_off, lambda t: t in probes)
            .durations("net.handshake")
        ]
        served = {r[5] for r in srv.named("host.serve_row")}
        queries = cli.named("query")
        layers.update(pool_figures(traced_stats["pool_hits"] - after["pool_hits"],
                                   traced_stats["pool_misses"] - after["pool_misses"]))
        layers.update({
            "net.handshake_ms": statistics.median(handshakes) if handshakes else 0.0,
            "trace.joined_frac": (
                sum(1 for r in queries if r[5] in served) / len(queries) if queries else 0.0
            ),
        })
        record["traced_p50_ms"] = pct(traced.latencies, 50) * 1000.0
        record["session_join"] = session_join(srv, cli)
        (shared.OUT / f"spans-{name}-seed{seed}-client.json").write_text(json.dumps(client_dump))
    return metrics, layers, record


# ----------------------------------------------------------------------
# the in-process HE workload
# ----------------------------------------------------------------------
def run_he_local(name: str, wl: dict, seed: int, seconds: int, trace: bool):
    """HE queries through ``CloudServer.serve_row_he`` on one thread.

    The client's ciphertext is queued on an in-memory channel before the
    server's serve call reads it, so a query runs encrypt, serve and
    decrypt back to back with no thread or process hand-off.
    """
    import spans

    from repro.errors import ReproError
    from repro.gc.channel import local_channel
    from repro.he import HE_QUERY_TAG, HE_RESULT_TAG, HEMacClient
    from repro.host import CloudServer

    fmt = shared.fixed_format(wl["fmt"])
    model = shared.make_model(seed, fmt, wl["rows"], wl["cols"])
    wire = WireCheck()
    phases: dict[str, dict] = {}

    def build():
        server = CloudServer(model, fmt, pool_size=wl["pool"], seed=seed)
        return server, HEMacClient(server.he_mac.params, fmt, seed=seed)

    (server, client), setups = timed_setups(build, HE_SETUP_BURST_S)
    rounds = server.rounds_per_request
    sim = check_sim_cycles(wl["fmt"][0], rounds, server.accelerator.schedule(rounds).total_cycles)
    server_end, client_end = local_channel(recv_timeout_s=RECV_TIMEOUT_S)
    counter = WireCounter()
    counter.attach(client_end)
    index = itertools.count()

    def query(row, x) -> None:
        before = counter.mark()
        client_end.send(HE_QUERY_TAG, client.encrypt_query(x))
        server.serve_row_he(server_end, row)
        value = fmt.decode_product(client.decrypt_row_result(client_end.recv(HE_RESULT_TAG)))
        i = next(index)
        check_answer(seed, i, model, fmt, row, x, value)
        wire.check(before, counter.mark(), f"query {i}")

    def loop(phase: Phase, inputs, span_s=None, count=None, rec=None) -> None:
        until = phase.begin() + (span_s or 0.0)
        while (count is None or phase.sent < count) and (span_s is None or perf_counter() < until):
            phase.offered += 1
            phase.sent += 1
            row, x = next(inputs)
            t0 = perf_counter()
            span = rec.open("query", trace=name) if rec is not None else None
            try:
                query(row, x)
            except ReproError as exc:
                phase.fail(exc)
                continue
            finally:
                if span is not None:
                    rec.close(span)
            phase.ok(perf_counter() - t0)
        phase.end()
        phases[phase.name] = phase.record()

    warm = Phase("warm-up")
    loop(warm, shared.query_inputs(seed + 1, 0, fmt, wl["rows"], wl["cols"]),
         count=WARMUP_HE)
    inputs = shared.query_inputs(seed, 0, fmt, wl["rows"], wl["cols"])
    measured = Phase("untraced" if trace else "measured")
    if trace:
        loop(measured, inputs, span_s=seconds / 2)
    else:
        setups += spread_setups(seconds, SLICES["he"],
                                lambda span_s: loop(measured, inputs, span_s=span_s),
                                lambda: timed_setups(build, HE_SETUP_BURST_S)[1])
    metrics, record = assemble(
        name, measured, setups, wire,
        queries_per_s=measured.succeeded / measured.seconds, rss_mb=shared.peak_rss_mb(),
        garble_mode=server.garble_mode, sim=sim, garbled_macs_per_s=0.0, phases=phases,
    )
    layers = None
    if trace:
        rec = spans.Recorder("local")
        spans.instrument_he_local(rec)
        traced = Phase("traced")
        loop(traced, inputs, span_s=seconds / 2, rec=rec)
        rec.stop()
        dump = rec.dump()
        keep = lambda t: True  # noqa: E731
        srv = spans.Summary(dump, traced.t_start, traced.t_end, keep,
                            names={"host.serve_row", "he.answer"})
        cli = spans.Summary(dump, traced.t_start, traced.t_end, keep,
                            names={"query", "he.encrypt", "he.decrypt"})
        layers = layer_metrics(srv, cli, traced.succeeded, traced.seconds)
        layers["trace.joined_frac"] = 1.0
        record["traced_p50_ms"] = pct(traced.latencies, 50) * 1000.0
        (shared.OUT / f"spans-{name}-seed{seed}-local.json").write_text(json.dumps(dump))
    return metrics, layers, record


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def print_report(name: str, seed: int, metrics: dict, layers, record: dict) -> None:
    env = record["environment"]
    print(f"perfbench {name} seed={seed}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for phase, p in record["phases"].items():
        print(f"  phase {phase:<9} offered={p['offered']} sent={p['sent']} "
              f"succeeded={p['succeeded']} failed={p['failed']} "
              f"seconds={p['seconds']:.3f}")
        for err in p["errors"]:
            print(f"    error: {err}")
    lat = record["latency"]
    print(f"  latency p50={lat['latency_p50_ms']:.3f} ms p90={lat['latency_p90_ms']:.3f} ms "
          f"p99={lat['latency_p99_ms']:.3f} ms; samples={lat['samples']} "
          f"beyond_p90={lat['beyond_p90']} beyond_p99={lat['beyond_p99']}"
          + ("" if lat["beyond_p99"] >= 10 else " (p99 has <10 samples beyond it)"))
    print(f"  slo limit {record['slo_ms']:g} ms (ServingConfig.slo_p99_ms); "
          f"{len(record['setups_s'])} set-up samples, "
          f"median {statistics.median(record['setups_s']):.4f} s")
    print(f"  garbled_macs_per_s={record['garbled_macs_per_s']:.3f} "
          f"failed_frac={record['failed_frac']:.4f} "
          f"sim.cycles_per_mac={record['sim_cycles_per_mac']:g} (simulated FPGA cycles)")
    for key, value in metrics.items():
        print(f"  {key:<24} {value:>14.4f} {END_TO_END.get(key) or PER_LAYER[key]}")
    if layers is None:
        return
    print("  per-layer self time, ms per query (uncovered client time is 'untraced';"
          " a session thread waiting for its client's next request is 'idle'):")
    for side, names in (("server", SERVER_LAYERS), ("client", CLIENT_LAYERS)):
        cells = [f"{layer}={layers[f'self_ms.{side}.{layer}']:.3f}" for layer in names]
        print(f"    {side}: " + " ".join(cells))
    for row in record.get("session_join", []):
        print("    session {session}: queries={queries} client {client_query_ms:.1f} ms "
              "(recv wait {client_recv_wait_ms:.1f}) | server serves={server_serves} "
              "{server_serve_ms:.1f} ms, queue wait {server_queue_wait_ms:.1f} ms".format(**row))
    for key, unit in PER_LAYER.items():
        if not key.startswith("self_ms.") and key not in metrics:
            print(f"  {key:<34} {layers[key]:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(shared.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    shared.use_source_tree()
    shared.drop_repro_overrides()
    shared.OUT.mkdir(exist_ok=True)
    wl = shared.WORKLOADS[args.workload]
    runner = {"gateway": run_gateway, "he": run_he_local}[wl["kind"]]
    try:
        metrics, layers, record = runner(
            args.workload, wl, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    attempted = sum(p["sent"] for p in record["phases"].values())
    failed = sum(p["failed"] for p in record["phases"].values())
    record["failed_frac"] = failed / attempted
    if layers is not None:
        lat = record["latency"]
        layers.update({
            "latency_p50_ms": metrics["latency_p50_ms"],
            "queries_per_s": metrics["queries_per_s"],
            "failed_frac": record["failed_frac"],
            "latency_p99_ms": lat["latency_p99_ms"],
            "slo_met_frac": lat["slo_met_frac"],
            "trace.overhead_frac": record["traced_p50_ms"] / lat["latency_p50_ms"] - 1.0,
            "sim.cycles_per_mac": record["sim_cycles_per_mac"],
            "garbled_macs_per_s": record["garbled_macs_per_s"],
        })
    print_report(args.workload, args.seed, metrics, layers, record)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "metrics": metrics, "layers": layers})
    (shared.OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else metrics
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
