"""Spans around each layer's public entry points, kept in memory.

A :class:`Tracer` replaces a function or method *where its caller binds
the name* with a wrapper that records one :class:`Span` per call: name,
thread, parent span, start, end and optional counts (rows hashed,
circuits garbled, bytes sent). Self time is exact because every span
knows its parent on its own thread. Nothing is written until the run
ends; :meth:`Tracer.restore` puts every original back.

:func:`install_phase_wraps` times every protocol phase and counts the
bytes sent in process; every run installs it. :func:`install_layer_wraps`
adds the entry points of each layer for a traced run, and
:func:`layer_metrics` turns the spans into the per-layer numbers the
benchmark reports.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "tid", "parent", "start", "end", "counts", "child_s")

    def __init__(self, name, tid, parent, start):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Installs span wrappers and collects the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.active = True  # wrappers pass calls through untraced when False
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def paused(self):
        """Calls made inside the block record no span (set-up, say)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, target: str, name, counts=None, when=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in a span.

        ``name`` is the span name, or a callable of the call's arguments
        returning it. ``counts(args, kwargs, result)`` returns a dict of
        counts for the span; ``when(args, kwargs)`` returning False runs
        the call untraced. A target that no longer exists is recorded in
        :attr:`missing` instead of failing the run.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self.wrap_attr(owner, attr, name, counts, when)

    def wrap_attr(self, owner, attr: str, name, counts=None, when=None) -> None:
        """Wrap ``owner.attr`` in place (see :meth:`wrap`)."""
        original = getattr(owner, attr)
        had_own = isinstance(owner, type) and attr in owner.__dict__
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or (when is not None and not when(args, kwargs)):
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_name = name(args) if callable(name) else name
            span = Span(span_name, threading.get_ident(), parent, time.perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
                tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put back every wrapped original, newest first."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- the wrapped entry points --------------------------------------------------


def _label_rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _ntt_rows(count_fn):
    def counts(args, kwargs, result):
        plan, rows = args[0], count_fn(args)
        return {"rows": rows, "bytes": rows * plan.n * 8}

    return counts


def _session_step_name(args):
    phase = getattr(args[0], "_phase", None)
    return "core.online" if phase == "online" else "core.offline"


def _frame_bytes(args, kwargs, result):
    return {"bytes": len(args[1]), "frames": 1}


def _socket_frame_bytes(args, kwargs, result):
    return {"bytes": len(args[1]), "frames": 1, "socket": len(args[1])}


def _charged_bytes(args, kwargs, result):
    return {"bytes": int(result or 0)}


def _make_recv_gate(tracer: Tracer):
    # Blocking receives inside a protocol phase are network waits; the
    # REQ -> OFFER and DONE waits directly under GatewayClient.request
    # stay that span's self time (the gateway wait).
    def when(args, kwargs):
        wait = kwargs.get("wait", args[1] if len(args) > 1 else True)
        current = tracer.current()
        return bool(wait) and (current is None or current.name != "gateway.wait")

    return when


_SERIALIZE_NAMES = (
    "serialize_public_key", "deserialize_public_key",
    "serialize_galois_keys", "deserialize_galois_keys",
    "serialize_ciphertext", "deserialize_ciphertext",
    "serialize_circuit_batch", "deserialize_circuit_batch",
    "serialize_label_lists", "deserialize_label_lists",
    "serialize_labels", "deserialize_labels",
    "serialize_bit_vector", "deserialize_bit_vector",
    "serialize_field_vector", "deserialize_field_vector",
)

_NTT_PLAN = "repro.backend.numpy_backend:_NumpyNttPlan"


def install_phase_wraps(tracer: Tracer) -> None:
    """Time ``HybridProtocol`` phases and count bytes sent in process.

    Serving mints run ``HybridProtocol.run_offline`` over the in-memory
    transport too, so these spans measure them and the in-process
    inference phases alike.
    """
    w = tracer.wrap
    w("repro.core.protocol:HybridProtocol.run_offline", "phase.offline")
    w("repro.core.protocol:HybridProtocol.run_online", "phase.online")
    w("repro.network.transport:InMemoryTransport.send", "network.sent",
      counts=_frame_bytes)


def phase_samples(spans: list[Span], phase: str) -> list[tuple[float, int]]:
    """``(seconds, bytes sent in process)`` of every ``phase`` span."""
    sent = defaultdict(int)
    for span in spans:
        if span.name != "network.sent" or not span.counts:
            continue
        owner = span.parent
        while owner is not None and not owner.name.startswith("phase."):
            owner = owner.parent
        if owner is not None:
            sent[id(owner)] += span.counts["bytes"]
    return [(s.seconds, sent[id(s)]) for s in spans if s.name == phase]


def install_layer_wraps(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    w = tracer.wrap
    # he: the server's matvec, its rotations, and the client's key work.
    w("repro.he.linear:HomomorphicLinearEvaluator.matvec", "he.matvec")
    w("repro.he.bfv:BfvContext.rotate", "he.rotate")
    w("repro.he.bfv:BfvContext.keygen", "he.keygen")
    w("repro.he.bfv:BfvContext.galois_keygen", "he.keygen")
    w("repro.he.bfv:BfvContext.encrypt", "he.encrypt")
    w("repro.he.bfv:BfvContext.decrypt", "he.decrypt")
    # backend: NTT rows through the pinned numpy backend's plan.
    def one(args):  # a stacked (rows, n) input is several rows
        return args[1].shape[0] if getattr(args[1], "ndim", 1) == 2 else 1

    def two(args):
        return 2

    def many(args):
        return len(args[1])

    for method, rows in (
        ("forward", one), ("forward_pair", two), ("forward_many", many),
        ("inverse", one), ("inverse_unscaled", one),
        ("inverse_unscaled_many", many),
    ):
        w(f"{_NTT_PLAN}.{method}", "backend.ntt", counts=_ntt_rows(rows))
    # gc: garbling (sequential and pooled), evaluation, and the
    # evaluator's row hash, bound where repro.gc.evaluate calls it.
    w("repro.gc.garble:Garbler.garble_batch", "gc.garble",
      counts=lambda a, k, r: {"circuits": len(r)})
    w("repro.runtime.pool:PrecomputePool.garble_layers", "gc.garble",
      counts=lambda a, k, r: {"circuits": sum(len(b) for b in r)})
    w("repro.gc.evaluate:Evaluator.evaluate_batch", "gc.evaluate",
      counts=lambda a, k, r: {"circuits": len(r)})
    w("repro.gc.evaluate:hash_label_rows", "gc.hash", counts=_label_rows)
    # ot: base OTs and the IKNP extension, bound where sessions call it.
    w("repro.ot.base:BaseOtSender.encrypt", "ot.base",
      counts=lambda a, k, r: {"count": len(r)})
    w("repro.core.session:iknp_transfer", "ot.iknp",
      counts=lambda a, k, r: {"rows": len(a[0])})
    # network: codecs as the sessions bind them, frames sent on sockets
    # (in-process frames: install_phase_wraps), the Channel's charge, and
    # blocking receives.
    for fn in _SERIALIZE_NAMES:
        w(f"repro.core.session:{fn}", "network.serialize")
    w("repro.core.protocol:split_offline_state", "network.serialize")
    w("repro.network.transport:SocketTransport.send", "network.sent",
      counts=_socket_frame_bytes)
    w("repro.network.channel:Channel.send", "network.charged",
      counts=_charged_bytes)
    w("repro.network.transport:SocketTransport.recv", "network.recv_wait",
      when=_make_recv_gate(tracer))
    # core: every session step, split by the phase it advances.
    w("repro.core.session:ProtocolSession.step", _session_step_name)
    # store, pool, gateway.
    w("repro.runtime.store:PrecomputeStore.put", "store.put")
    for method in ("take", "get", "delete"):
        w(f"repro.runtime.store:PrecomputeStore.{method}", "store.take")
    w("repro.runtime.pool:PrecomputePool.apply_async", "pool.job",
      counts=lambda a, k, r: {"jobs": 1})
    w("repro.runtime.pool:PrecomputePool.map_jobs", "pool.job",
      counts=lambda a, k, r: {"jobs": len(r)})
    for job_cls in ("_ImmediateJob", "_PoolJob", "_TracedPoolJob"):
        w(f"repro.runtime.pool:{job_cls}.get", "pool.wait")
    w("repro.runtime.gateway:GatewayClient.request", "gateway.wait")


# Which spans must fire (non-zero count) on which workload.
EXPECTED_SPANS = {
    "infer_cnn_sg": (
        "he.matvec", "he.rotate", "he.keygen", "he.encrypt", "he.decrypt",
        "backend.ntt", "gc.garble", "gc.evaluate", "gc.hash", "ot.base",
        "ot.iknp", "network.serialize", "network.sent", "network.charged",
        "core.offline", "core.online",
    ),
}
EXPECTED_SPANS["serve_saturate"] = EXPECTED_SPANS["infer_cnn_sg"] + (
    "network.recv_wait", "store.put", "store.take", "pool.job",
    "gateway.wait",
)

def layer_metrics(spans: list[Span], requests: int) -> dict[str, tuple[float, str]]:
    """Per-request layer totals from the spans: ``{name: (value, unit)}``.

    ``.s`` values are inclusive span time; ``core.self.s`` is the self
    time of session steps outside every he/gc/ot/network/store/pool span
    they contain, and ``gateway.wait.s`` the self time of
    ``GatewayClient.request``.
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    core_self = 0.0
    wait_self = 0.0
    for span in spans:
        seconds[span.name] += span.seconds
        calls[span.name] += 1
        if span.counts:
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
        if span.name.startswith("core."):
            core_self += span.self_seconds
        elif span.name == "gateway.wait":
            wait_self += span.self_seconds
    per = 1.0 / max(1, requests)

    def s(name):
        return (seconds[name] * per, "s/req")

    def c(key, unit):
        return (counts[key] * per, unit)

    return {
        "he.matvec.s": s("he.matvec"),
        "he.rotate.s": s("he.rotate"),
        "he.rotate.calls": (calls["he.rotate"] * per, "calls/req"),
        "he.keygen.s": s("he.keygen"),
        "he.encrypt.s": s("he.encrypt"),
        "he.decrypt.s": s("he.decrypt"),
        "backend.ntt.rows": c("backend.ntt.rows", "rows/req"),
        # Computed, not measured: rows x n x 8 bytes per 64-bit row.
        "backend.ntt.bytes": c("backend.ntt.bytes", "B/req"),
        "gc.garble.s": s("gc.garble"),
        "gc.garble.circuits": c("gc.garble.circuits", "circuits/req"),
        "gc.evaluate.s": s("gc.evaluate"),
        "gc.evaluate.circuits": c("gc.evaluate.circuits", "circuits/req"),
        "gc.hash.rows": c("gc.hash.rows", "rows/req"),
        "gc.hash.s": s("gc.hash"),
        "ot.base.s": s("ot.base"),
        "ot.base.count": c("ot.base.count", "OTs/req"),
        "ot.iknp.s": s("ot.iknp"),
        "ot.iknp.rows": c("ot.iknp.rows", "rows/req"),
        "network.serialize.s": s("network.serialize"),
        "network.sent.bytes": c("network.sent.bytes", "B/req"),
        "network.sent.frames": c("network.sent.frames", "frames/req"),
        # Both sessions of a pair charge every message once each.
        "network.charged.bytes": (
            counts["network.charged.bytes"] * per / 2, "B/req"
        ),
        "network.recv_wait.s": s("network.recv_wait"),
        "core.offline.s": s("core.offline"),
        "core.online.s": s("core.online"),
        "core.self.s": (core_self * per, "s/req"),
        "store.put.s": s("store.put"),
        "store.take.s": s("store.take"),
        "pool.jobs": c("pool.job.jobs", "jobs/req"),
        "pool.job.s": s("pool.job"),
        "pool.wait.s": s("pool.wait"),
        "gateway.wait.s": (wait_self * per, "s/req"),
    }


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a plain one."""

    class Target:
        @staticmethod
        def noop():
            return None

    def loop() -> float:
        fn = Target.noop
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain = loop()
    tracer = Tracer()
    tracer.wrap_attr(Target, "noop", "calibrate")
    traced = loop()
    tracer.restore()
    return max(0.0, traced - plain) / calls


def span_counts(spans: list[Span]) -> dict[str, int]:
    out = defaultdict(int)
    for span in spans:
        out[span.name] += 1
    return dict(out)


def self_check(workload: str, spans: list[Span], missing: list[str],
               out) -> list[str]:
    """Failures of the trace against independent figures (empty if sound).

    Every wrapped entry point still exists and every expected span fired.
    The garbled-circuit counts the spans add up must match the lowering:
    one circuit per ReLU unit in every offline phase (mint) and in every
    completed request's evaluation. On a gateway connection, the socket
    bytes the spans saw sent must equal the bytes the client connections
    counted on their own transports, sent and received.
    """
    failures = [f"entry point not found: {target}" for target in missing]
    fired = span_counts(spans)
    for name in EXPECTED_SPANS.get(workload, ()):
        if not fired.get(name):
            failures.append(f"span {name} never fired")
    totals = defaultdict(int)
    for span in spans:
        if span.counts:
            for key, value in span.counts.items():
                totals[f"{span.name}.{key}"] += value
    checks = [
        ("garbled circuits", totals["gc.garble.circuits"],
         out.relu_units * fired.get("phase.offline", 0)),
        ("evaluated circuits", totals["gc.evaluate.circuits"],
         out.relu_units * out.completed),
    ]
    if out.socket_bytes is not None:
        checks.append(("socket bytes", totals["network.sent.socket"],
                       out.socket_bytes))
    for label, traced, expected in checks:
        if traced != expected:
            failures.append(f"{label}: spans counted {traced}, expected {expected}")
    return failures


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer prefix (he, gc, ot, ..., core, gateway)."""
    out = defaultdict(float)
    for span in spans:
        out[span.name.split(".", 1)[0]] += span.self_seconds
    return dict(out)
