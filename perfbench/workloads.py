"""The benchmark's two workloads, driven through the program's public API.

Each workload builds its own network and inputs from the seed (it never
uses :mod:`repro.workload`, so the load cannot shift when the program's
own workload code changes), runs for a fixed window, and returns an
:class:`Outcome` of raw samples; ``run.py`` turns those into metrics.
Phase times and bytes come from the run's :class:`layertrace.Tracer`,
which the workload pauses for set-up and stops when the window ends, so
they cover only the window's inferences, mints and requests.
Every logit is checked against ``plaintext_reference`` of the server-side
lowering after the window closes.

* ``infer_cnn_sg`` — closed loop, one client, in-process
  ``HybridProtocol`` over the in-memory transport: a fresh protocol per
  iteration, full offline phase then online phase. Server-garbler on
  ``tiny_cnn``: the paper's per-inference characterization.
* ``serve_saturate`` — closed loop, two keep-alive ``GatewayClient``
  connections to a ``ServingGateway`` over loopback TCP, client-garbler
  on the serving demo's ``tiny_mlp``, one buffered precompute per client
  and background refill on: client 0 never thinks, client 1 thinks 0.2 s
  after each reply. Offline work cannot hide. A longer think time leaves
  client 1's precompute ready more often, which splits the samples into
  two latency modes of about equal size, and the median then jumps
  between them from run to run.
"""
from __future__ import annotations

import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layertrace

WEIGHT_SEED = 0  # the model is fixed; the seed varies inputs and protocol seeds
# Set-up is timed again and again through a run and its median reported,
# so that one swing of the host's speed cannot set it: in process, a few
# repetitions after every inference (outside the timed window); when
# serving, where each repetition mints precomputes, some before the
# window and some after it.
INFER_SETUP_REPS = (20, 10)  # before the window, after each inference
SERVE_SETUP_REPS = (8, 6)  # before the window, after it
CLIENTS = 2
THINK_S = 0.2  # client 1's think time
JOIN_GRACE_S = 90.0  # how long past the window a run may take to drain

GATEWAY_UNITS = {  # gateway and store figures, zero where no gateway runs
    "gateway.issued": "requests",
    "gateway.deferred": "requests",
    "gateway.rejected": "requests",
    "gateway.deferral_ratio": "ratio",
    "gateway.demand_mints": "mints",
    "gateway.refill_mints": "mints",
    "gateway.refill.s": "s",
    "store.entries": "entries",
    "store.bytes": "B",
    "store.evictions": "entries",
    "store.hit_ratio": "ratio",
}


@dataclass
class Outcome:
    """Raw samples of one workload run (times in seconds, sizes in bytes)."""

    setup_times: list[float] = field(default_factory=list)
    window_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)  # send time - due time
    offline_s: list[float] = field(default_factory=list)
    online_s: list[float] = field(default_factory=list)
    offline_bytes: float = 0.0  # per offline phase
    online_bytes: float = 0.0  # per request
    request_bytes: float = 0.0  # per request, everything on the connection
    precompute_bytes: float = 0.0  # one stored offline transcript
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    ledger_balanced: bool = True
    relu_units: int = 0  # garbled circuits per offline phase and per request
    socket_bytes: int | None = None  # both ways on the client connections
    gateway: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times) if self.setup_times else 0.0


def bench_params():
    from repro.he.params import fast_params

    return fast_params(n=256, backend="numpy")


def time_setup(build, reps: int, out: "Outcome"):
    """Run ``build`` ``reps`` times, recording each; the last result."""
    value = None
    for _ in range(reps):
        t0 = time.perf_counter()
        value = build()
        out.setup_times.append(time.perf_counter() - t0)
    return value


def derive_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


class FrameTally:
    """Payload bytes crossing one client connection, split by frame kind."""

    def __init__(self):
        self.total = 0
        self.protocol = 0  # session messages only, no gateway control frames

    def attach(self, transport) -> None:
        from repro.network.serialize import frame_format_name

        send, recv = transport.send, transport.recv

        def note(frame):
            self.total += len(frame)
            if not frame_format_name(frame).startswith("gateway_"):
                self.protocol += len(frame)

        def counted_send(frame):
            note(frame)
            return send(frame)

        def counted_recv(wait=True):
            frame = recv(wait)
            if frame is not None:
                note(frame)
            return frame

        transport.send = counted_send
        transport.recv = counted_recv


def _mean_bytes(phases: list[tuple[float, int]]) -> float:
    return statistics.mean(b for _, b in phases) if phases else 0.0


def _relu_units(oracle) -> int:
    return sum(oracle.linears[i].n_out for kind, i in oracle.steps if kind == "relu")


def _check_logits(oracle, results, out: Outcome) -> None:
    from repro.core.lowering import plaintext_reference

    for x, logits in results:
        if logits != plaintext_reference(oracle, x):
            out.mismatches += 1


def _comm_note(label: str, predicted: dict, offline: float, online: float) -> str:
    return (
        f"{label}: offline bytes measured {offline:.0f} / predicted "
        f"{predicted['offline_up'] + predicted['offline_down']:.0f}; online "
        f"bytes measured {online:.0f} / predicted "
        f"{predicted['online_up'] + predicted['online_down']:.0f}"
    )


# -- infer_cnn_sg ----------------------------------------------------------------


def infer_cnn_sg(seed: int, seconds: float, workdir: Path,
                 tracer: layertrace.Tracer) -> Outcome:
    from repro.core.lowering import lower_network
    from repro.core.protocol import HybridProtocol
    from repro.core.validation import predict_comm
    from repro.nn.datasets import tiny_dataset
    from repro.nn.models import tiny_cnn

    params = bench_params()

    def build():
        network = tiny_cnn(tiny_dataset(size=8, channels=1, classes=3), width=2)
        network.randomize_weights(params.t, np.random.default_rng(WEIGHT_SEED))
        oracle = lower_network(network, params.t, backend=params.backend)
        HybridProtocol(network, params, garbler="server", seed=0,
                       transport="memory").close()
        return network, oracle

    out = Outcome()
    before, between = INFER_SETUP_REPS
    with tracer.paused():
        network, oracle = time_setup(build, before, out)
    rng = np.random.default_rng(seed)
    results = []
    first = None
    paused = 0.0  # set-up repetitions inside the loop, not part of the window
    start = due = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = out.attempted
        out.attempted += 1
        x = rng.integers(0, params.t, size=oracle.input_size).tolist()
        t0 = time.perf_counter()
        out.lateness.append(t0 - due)  # closed loop: due when the last loop ended
        protocol = HybridProtocol(
            network, params, garbler="server", seed=derive_seed(seed, index),
            transport="memory",
        )
        try:
            protocol.run_offline()
            logits = protocol.run_online(x)
        except Exception as exc:  # counted against the run, reported below
            out.failed += 1
            out.errors.append(f"inference {index}: {exc!r}")
            protocol.shutdown()
        else:
            out.latencies.append(time.perf_counter() - t0)
            results.append((x, logits))
            if first is None:
                first = protocol  # kept for the comm and storage figures
            else:
                protocol.close()
        t_pause = time.perf_counter()
        with tracer.paused():
            time_setup(build, between, out)
        due = time.perf_counter()
        paused += due - t_pause
    out.window_s = time.perf_counter() - start - paused
    tracer.active = False  # the window is over

    _check_logits(oracle, results, out)
    out.relu_units = _relu_units(oracle)
    offline = layertrace.phase_samples(tracer.spans, "phase.offline")
    online = layertrace.phase_samples(tracer.spans, "phase.online")
    out.offline_s = [s for s, _ in offline]
    out.online_s = [s for s, _ in online]
    out.offline_bytes = _mean_bytes(offline)
    out.online_bytes = _mean_bytes(online)
    out.request_bytes = out.offline_bytes + out.online_bytes
    if first is not None:
        out.precompute_bytes = len(first.offline_blob())
        charged = first.channel.summary()
        out.notes.append(_comm_note(
            "comm (transport bytes vs predict_comm)", predict_comm(first),
            out.offline_bytes, out.online_bytes,
        ))
        out.notes.append(
            "comm (Channel charge): offline "
            f"{charged['offline_up'] + charged['offline_down']} B, online "
            f"{charged['online_up'] + charged['online_down']} B"
        )
        first.close()
    return out


# -- serve_saturate -----------------------------------------------------------------


def serve_saturate(seed: int, seconds: float, workdir: Path,
                 tracer: layertrace.Tracer) -> Outcome:
    from repro.core.lowering import lower_network
    from repro.core.protocol import HybridProtocol
    from repro.core.validation import predict_comm
    from repro.nn.datasets import tiny_dataset
    from repro.nn.models import tiny_mlp
    from repro.runtime.gateway import GatewayClient, ServingGateway, encode_hello
    from repro.runtime.pool import PrecomputePool
    from repro.runtime.store import PrecomputeStore

    params = bench_params()
    root = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
    pools, gateways = [], []

    def build():
        network = tiny_mlp(tiny_dataset(size=4, channels=1, classes=3), hidden=8)
        network.randomize_weights(params.t, np.random.default_rng(WEIGHT_SEED))
        oracle = lower_network(network, params.t, backend=params.backend)
        shape = lower_network(network, params.t, backend=params.backend,
                              shape_only=True)
        store = PrecomputeStore(root / f"rep{len(pools)}")
        pool = PrecomputePool(workers=1)
        pools.append(pool)
        gateway = ServingGateway(
            network, params, CLIENTS, store, pool=pool, garbler="client",
            prefill=1, refill=True, base_seed=derive_seed(seed, 0),
            miss_wait_seconds=60.0, max_queue=8,
        )
        gateways.append(gateway)
        gateway.start()
        return network, oracle, shape, store, gateway

    out = Outcome()
    try:
        before, after = SERVE_SETUP_REPS
        with tracer.paused():
            network, oracle, shape, store, gateway = time_setup(
                build, before, out
            )
            for spare in gateways[:-1]:
                spare.stop(drain=False)
        out.precompute_bytes = store.total_bytes / max(1, store.entry_count)
        prefilled = sum(gateway.minted)

        clients, tallies = [], []
        for c in range(CLIENTS):
            client = GatewayClient(
                "127.0.0.1", gateway.port, network, params, garbler="client",
                client_id=gateway.client_id(c), seed=derive_seed(seed, 1, c),
                lowered=shape,
            )
            tally = FrameTally()
            tally.attach(client.transport)
            clients.append(client)
            tallies.append(tally)

        lock = threading.Lock()
        results: list = []
        client_latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        ends: list[float] = []
        start = time.perf_counter() + 0.05  # every thread is up by then

        def drive(c: int) -> None:
            client = clients[c]
            rng = np.random.default_rng([seed, 2, c])
            due = start
            j = 0
            try:
                while True:
                    time.sleep(max(0.0, due - time.perf_counter()))
                    if time.perf_counter() >= start + seconds:
                        break
                    ref = time.perf_counter()
                    x = rng.integers(0, params.t, size=oracle.input_size).tolist()
                    with lock:
                        out.attempted += 1
                        out.lateness.append(ref - due)
                    try:
                        logits = client.request(x, request_index=j)
                    except Exception as exc:  # the connection is gone
                        with lock:
                            out.failed += 1
                            out.errors.append(f"client{c} request {j}: {exc!r}")
                        break
                    done = time.perf_counter()
                    latency = done - ref
                    due = done + (THINK_S if c == 1 else 0.0)
                    with lock:
                        out.latencies.append(latency)
                        client_latencies[c].append(latency)
                        results.append((x, logits))
                    j += 1
            finally:
                with lock:
                    ends.append(time.perf_counter())
                client.close()

        threads = [
            threading.Thread(target=drive, args=(c,), name=f"bench-client{c}",
                             daemon=True)
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()

        def clients_done() -> bool:
            return not any(thread.is_alive() for thread in threads)

        deadline = time.monotonic() + seconds + JOIN_GRACE_S
        try:
            gateway.serve(10**9, timeout=seconds + JOIN_GRACE_S, abort=clients_done)
            while not clients_done() and time.monotonic() < deadline:
                gateway.poll(0.02)  # let the last DONE frames and GOAWAYs land
        except Exception as exc:  # reported; the stragglers count as failed
            out.errors.append(f"gateway: {exc!r}")
            out.failed += 1
        for thread in threads:
            thread.join(timeout=max(1.0, deadline - time.monotonic()))
        if not clients_done():
            out.errors.append("client threads did not finish")
            out.failed += 1
        out.window_s = (max(ends) if ends else time.perf_counter()) - start

        try:
            gateway.check_refills()
        except RuntimeError as exc:
            out.errors.append(repr(exc))
            out.failed += 1
        gateway.stop(drain=False)
        tracer.active = False  # the window is over
        report = gateway.report()
        time_setup(build, after, out)
        admission = report.gateway_stats["admission"]
        out.ledger_balanced = admission["issued"] == (
            admission["admitted"] + admission["deferred"] + admission["rejected"]
        )
        if not out.ledger_balanced:
            out.errors.append(f"admission ledger does not balance: {admission}")
        _check_logits(oracle, results, out)

        done = max(1, out.completed)
        out.online_s = [r.online_seconds for r in report.requests]
        offline = layertrace.phase_samples(tracer.spans, "phase.offline")
        out.offline_s = [s for s, _ in offline]
        out.offline_bytes = _mean_bytes(offline)
        out.relu_units = _relu_units(oracle)
        out.online_bytes = sum(t.protocol for t in tallies) / done
        out.request_bytes = sum(t.total for t in tallies) / done
        # Each client sent its HELLO before its tally was attached.
        out.socket_bytes = sum(t.total for t in tallies) + sum(
            len(encode_hello(gateway.client_id(c))) for c in range(CLIENTS)
        )
        served = max(1, len(report.requests))
        occupancy = report.occupancy or [{"entries": 0, "bytes": 0}]
        issued = admission["issued"]
        out.gateway = {  # keys and units: GATEWAY_UNITS
            "gateway.issued": issued,
            "gateway.deferred": admission["deferred"],
            "gateway.rejected": admission["rejected"],
            "gateway.deferral_ratio": admission["deferred"] / max(1, issued),
            "gateway.demand_mints": report.demand_mints,
            "gateway.refill_mints": report.minted - prefilled,
            "gateway.refill.s": report.refill_seconds,
            "store.entries": max(o["entries"] for o in occupancy),
            "store.bytes": max(o["bytes"] for o in occupancy),
            "store.evictions": report.evictions,
            "store.hit_ratio": sum(1 for r in report.requests if r.hit) / served,
        }
        reference = HybridProtocol(network, params, garbler="client", seed=0,
                                   transport="memory")
        out.notes.append(_comm_note(
            "comm (mint transport bytes and socket protocol bytes vs "
            "predict_comm)", predict_comm(reference),
            out.offline_bytes, out.online_bytes,
        ))
        reference.close()
        out.notes.append(
            f"gateway: served {len(report.requests)}, admission {admission}"
        )
        out.notes.append("latency p50 per client: " + ", ".join(
            f"client{c} {statistics.median(lat):.4f} s (n={len(lat)})"
            for c, lat in enumerate(client_latencies) if lat
        ))
    finally:
        for spare in gateways:  # stop() is idempotent
            spare.stop(drain=False)
        for pool in pools:
            pool.close()
        shutil.rmtree(root, ignore_errors=True)
    return out


WORKLOADS = {
    "infer_cnn_sg": infer_cnn_sg,
    "serve_saturate": serve_saturate,
}
