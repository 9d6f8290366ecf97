"""Span recording around the public entry points of each layer.

The traced run wraps calls into the program from the benchmark's own
files; nothing under ``src/`` changes.  A span is (name, start, end,
parent, trace id); the trace id is the session id the gateway hands the
client in its welcome, so the two processes' spans join on it.  Both
processes read ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so
their spans share one clock.

Scalar and batch AES calls are too many to keep one span each (the FSM
garbler makes thousands per run): they are counted and timed into the
innermost open span instead, and that time is taken out of the span's
self time like a child's.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter

#: span name -> the layer (module) its self time is charged to
LAYER_OF = {
    "query": "untraced",
    "net.handshake": "net",
    "net.send": "net",
    "net.recv": "net",
    "gc.eval": "gc.sequential_gc",
    "ot.send": "crypto.ot",
    "ot.recv": "crypto.ot",
    "aes.block": "crypto.aes",
    "aes.words": "crypto.aes",
    "host.serve_row": "host",
    "host.refill": "host",
    "accel.garble": "accel",
    "recover.checkpoint": "recover",
    "recover.store": "recover",
    "he.answer": "he",
    "he.encrypt": "he",
    "he.decrypt": "he",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace", "leaf", "attrs")

    def __init__(self, sid, name, start, parent, trace):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        #: leaf name -> [calls, seconds, blocks] timed inside this span
        self.leaf = None
        self.attrs = None

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.trace, self.leaf, self.attrs]


class Recorder:
    """Per-process span store; patches are undone by :meth:`stop`."""

    def __init__(self, side: str):
        self.side = side
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: leaf totals timed outside any open span, one dict per thread
        self._orphans: list[dict] = []

    # -- thread state ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id) -> None:
        """Tag spans opened on this thread (outside any span) with ``trace_id``."""
        self._local.trace = trace_id

    def current_trace(self):
        stack = self._stack()
        if stack:
            return stack[-1].trace
        return getattr(self._local, "trace", None)

    # -- spans ------------------------------------------------------------
    def open(self, name: str, trace=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent else getattr(self._local, "trace", None)
        span = Span(next(self._ids), name, perf_counter(),
                    parent.id if parent else 0, trace)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _leaf_target(self) -> dict:
        stack = self._stack()
        if stack:
            if stack[-1].leaf is None:
                stack[-1].leaf = {}
            return stack[-1].leaf
        orphans = getattr(self._local, "orphans", None)
        if orphans is None:
            orphans = self._local.orphans = {}
            self._orphans.append(orphans)
        return orphans

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, trace_of=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``trace_of(*args, **kwargs)`` names the call's trace id (else it
        is inherited); ``after(span, args, kwargs, result)`` may attach
        attributes once the call returns.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name, trace_of(*args, **kwargs) if trace_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr: str, name: str, blocks_of) -> None:
        """Count and time ``owner.attr`` into the innermost open span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc = self._leaf_target().setdefault(name, [0, 0.0, 0])
                acc[0] += 1
                acc[1] += dt
                acc[2] += blocks_of(args)

        self._patch(owner, attr, wrapper)

    def stop(self) -> None:
        """Undo every patch (newest first); recorded spans are kept."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        merged: dict = {}
        for orphans in self._orphans:
            for name, (calls, secs, blocks) in orphans.items():
                acc = merged.setdefault(name, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += secs
                acc[2] += blocks
        return {
            "side": self.side,
            "spans": [s.to_list() for s in self.spans],
            "orphan_leaf": merged,
        }


# ----------------------------------------------------------------------
# what each process wraps
# ----------------------------------------------------------------------
def _wrap_aes(rec: Recorder) -> None:
    from repro.crypto.aes import AES128

    rec.wrap_leaf(AES128, "encrypt_block", "aes.block", lambda a: 1)
    rec.wrap_leaf(AES128, "encrypt_words", "aes.words", lambda a: int(a[1].shape[0]))


def _wrap_common(rec: Recorder) -> None:
    """Layers both gateway-workload processes run: AES, OT, and the
    socket transport hooks.

    The transport hooks ``_send_message``/``_recv_message`` are the
    EndpointBase contract every session endpoint funnels its frames
    through (the resumable wrappers call them on the socket), so they
    time real socket I/O on both sides.
    """
    from repro.crypto import ot
    from repro.net.endpoint import SocketEndpoint

    _wrap_aes(rec)
    rec.wrap(ot.BaseOTSender, "send", "ot.send")
    rec.wrap(ot.OTExtensionSender, "send", "ot.send")
    rec.wrap(ot.BaseOTReceiver, "receive", "ot.recv")
    rec.wrap(ot.OTExtensionReceiver, "receive", "ot.recv")
    rec.wrap(SocketEndpoint, "_send_message", "net.send")
    rec.wrap(SocketEndpoint, "_recv_message", "net.recv")


def _count_runs(span, args, kwargs, result) -> None:
    runs = result if isinstance(result, list) else [result]
    span.attrs = {"runs": len(runs), "tables": sum(r.total_tables for r in runs)}


def wrap_host(rec: Recorder) -> None:
    """The garbling side of a CloudServer: pool refill and the accelerator."""
    from repro.accel.maxelerator import MAXelerator
    from repro.host import CloudServer

    rec.wrap(CloudServer, "refill_pool", "host.refill")
    rec.wrap(MAXelerator, "garble", "accel.garble", after=_count_runs)
    rec.wrap(MAXelerator, "garble_vectorized", "accel.garble", after=_count_runs)


def instrument_he_local(rec: Recorder) -> None:
    """Spans around an in-process HE query: both halves and the serve.

    The benchmark opens the ``query`` span itself, around each query.
    """
    from repro.he.mac import HEMacClient, HEMacServer
    from repro.host import CloudServer

    rec.wrap(CloudServer, "serve_row_he", "host.serve_row")
    rec.wrap(HEMacServer, "answer_query", "he.answer")
    rec.wrap(HEMacClient, "encrypt_query", "he.encrypt")
    rec.wrap(HEMacClient, "decrypt_row_result", "he.decrypt")


def capture_server_sessions(rec: Recorder) -> None:
    """Tag each gateway session thread with its session id at handshake.

    Installed when a traced gateway starts (before any client connects),
    so sessions opened before tracing switches on still carry their id.
    """
    from repro.net import gateway

    original = gateway.server_handshake

    def handshake(*args, **kwargs):
        rec.set_trace(kwargs.get("session_id"))
        return original(*args, **kwargs)

    rec._patch(gateway, "server_handshake", handshake)


def instrument_server(rec: Recorder) -> None:
    """Spans in the gateway process: serving, host, accel, recover."""
    from repro.host import CloudServer
    from repro.net import gateway
    from repro.recover.store import SessionStore
    from repro.serve.server import ServingServer

    _wrap_common(rec)
    wrap_host(rec)
    # submit_remote runs on the session thread, serve_row on a worker:
    # the session endpoint is the one object both calls see
    submitted: dict[int, tuple] = {}
    original_submit = ServingServer.submit_remote

    def submit_remote(self, row_index, endpoint, *args, **kwargs):
        submitted[id(endpoint)] = (rec.current_trace(), perf_counter())
        return original_submit(self, row_index, endpoint, *args, **kwargs)

    rec._patch(ServingServer, "submit_remote", submit_remote)

    def session_of(self, channel, *args, **kwargs):
        return submitted.get(id(channel), (None, None))[0]

    def queue_wait(span, args, kwargs, result):
        entry = submitted.pop(id(args[1]), None)
        if entry is not None:
            span.attrs = {"queue_wait": span.start - entry[1]}

    rec.wrap(CloudServer, "serve_row", "host.serve_row",
             trace_of=session_of, after=queue_wait)
    rec.wrap(gateway, "checkpoint_from_run", "recover.checkpoint")
    rec.wrap(gateway, "checkpoint_from_he_result", "recover.checkpoint")
    # every store call a v3 query makes: drop the last checkpoint, take
    # the lease, put, advance once per round, release
    for attr in ("put", "delete", "acquire_lease", "cas_advance", "release_lease"):
        rec.wrap(SessionStore, attr, "recover.store")


def instrument_client(rec: Recorder) -> None:
    """Spans in the benchmark process: the query, evaluation and OT."""
    from repro.gc.sequential_gc import SequentialEvaluator
    from repro.net import client

    _wrap_common(rec)
    rec.wrap(client.RemoteAnalyticsClient, "query_row", "query",
             trace_of=lambda self, *a, **k: self.session_id)
    rec.wrap(client, "client_session_handshake", "net.handshake",
             after=lambda span, a, k, result: setattr(
                 span, "trace", str(result[1].get("session_id", ""))))
    rec.wrap(SequentialEvaluator, "run", "gc.eval")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class Summary:
    """Totals over one process's spans inside a time window.

    ``self_s[layer]`` is self time: a span's duration minus its child
    spans and the AES time counted into it.  ``outer_s[name]`` and
    ``outer_n[name]`` cover only spans whose parent is in another layer,
    so nested calls of one layer (the base OTs inside an OT extension)
    are not counted twice.
    """

    def __init__(self, dump: dict | None, t_start: float, t_end: float, keep,
                 names=None):
        dump = dump or {"spans": [], "orphan_leaf": {}}
        rows = [
            r for r in dump["spans"]
            if r[2] >= t_start and r[3] <= t_end and keep(r[5])
            and (names is None or r[1] in names)
        ]
        by_id = {r[0]: r for r in dump["spans"]}
        child_s: dict[int, float] = {}
        for r in dump["spans"]:
            if r[4]:
                child_s[r[4]] = child_s.get(r[4], 0.0) + (r[3] - r[2])
        self.rows = rows
        self.child_s = child_s
        self.self_s: dict[str, float] = {}
        self.outer_s: dict[str, float] = {}
        self.outer_n: dict[str, int] = {}
        #: leaf name -> [calls, seconds, blocks]
        self.leaf: dict[str, list] = {}
        for r in rows:
            sid, name, start, end, parent, _trace, leaf, _attrs = r
            duration = end - start
            leaf = leaf or {}
            own = duration - child_s.get(sid, 0.0) - sum(v[1] for v in leaf.values())
            layer = LAYER_OF.get(name, name)
            if name == "net.recv" and not parent:
                # a gateway session thread waiting for its client's next
                # request: time the peer spent, not transport work
                layer = "idle"
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            up = by_id.get(parent)
            if up is None or LAYER_OF.get(up[1]) != layer:
                self.outer_s[name] = self.outer_s.get(name, 0.0) + duration
                self.outer_n[name] = self.outer_n.get(name, 0) + 1
            for lname, (calls, secs, blocks) in leaf.items():
                self._add_leaf(lname, calls, secs, blocks)
        if keep(None):
            for lname, (calls, secs, blocks) in dump["orphan_leaf"].items():
                self._add_leaf(lname, calls, secs, blocks)

    def _add_leaf(self, name, calls, secs, blocks) -> None:
        acc = self.leaf.setdefault(name, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += secs
        acc[2] += blocks
        layer = LAYER_OF[name]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + secs

    def named(self, name: str) -> list:
        return [r for r in self.rows if r[1] == name]

    def durations(self, name: str) -> list[float]:
        return [r[3] - r[2] for r in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def layer_outer_s(self, layer: str) -> float:
        """Time in the outermost spans of ``layer``."""
        return sum(t for name, t in self.outer_s.items() if LAYER_OF.get(name) == layer)

    def self_of(self, name: str, keep_leaf: bool = False) -> float:
        """Summed self time of the spans called ``name``; with
        ``keep_leaf`` the AES time counted into them stays in."""
        total = 0.0
        for r in self.named(name):
            total += r[3] - r[2] - self.child_s.get(r[0], 0.0)
            if not keep_leaf:
                total -= sum(v[1] for v in (r[6] or {}).values())
        return total
