#!/usr/bin/env python3
"""Private-inference benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload infer_cnn_sg --seed 1 --seconds 55 --trace 0

Workloads are described in ``perfbench/workloads.py``. The program is
imported from ``src/`` with the numpy backend pinned and every other
``REPRO_*`` setting cleared. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it wraps each layer's entry points
in spans (``perfbench/layertrace.py``) and reports per-layer metrics
instead, plus a self-check of the trace against independent counts.
Human-readable lines (provenance, host speed, each metric with its sample
count and measured value, byte predictions, the admission ledger) come
first; the last line of standard output is the JSON result.

Times are reported at a reference host speed: a sampler thread times a
fixed reference kernel through the run (``perfbench/hostspeed.py``) and
each measured time is divided by the square of the kernel's slow-down
against its reference time (a rate is multiplied by it). This
host's speed drifts by up to 1.7x over minutes with its neighbours'
load, which no run length averages away; the measured value is printed
beside each metric.

Correctness gate: every logit must equal ``plaintext_reference`` of the
server-side lowering and the gateway's admission ledger must balance.
Any failure, rejection or mismatch is counted in ``failed`` and the
command exits with status 1; ``failed / attempted`` is the error rate.
A traced run also exits with status 1 when its span self-check fails.

End-to-end metrics, the same names on every workload:

* ``setup_s`` — set-up of the workload (network, lowering and, when
  serving, a started gateway with its prefill mints), timed repeatedly
  through the run outside the window and its median taken.
* ``latency_p50_s`` / ``latency_p90_s`` — per request from when it was
  sent, exact percentiles of the raw samples. An ``infer_cnn_sg``
  request is a whole inference, offline phase included.
* ``throughput_rps`` — completed requests over the window's wall time.
* ``offline_p50_s`` — median ``HybridProtocol.run_offline``: the
  inference's offline phase, or one precompute mint when serving.
* ``online_mean_s`` — mean online phase: ``run_online`` in process,
  the gateway's per-request online time when serving. A mean, not a
  median: an in-process online phase is short next to the host's speed
  swings, so each sample catches the host fast or slow, and with about
  fifteen samples a run the median jumps between the two.
* ``offline_bytes`` — payload bytes sent per offline phase (mint).
* ``online_bytes`` — protocol payload bytes per request in the online
  phase (gateway control frames excluded).
* ``request_bytes`` — every payload byte exchanged per request: offline
  plus online in process; on a gateway connection, control frames and
  the OFFER with its stored transcript included.
* ``precompute_bytes`` — one stored offline transcript: the store's
  bytes per entry after prefill, or ``offline_blob()`` in process.
* ``peak_rss_mb`` — peak resident memory of the benchmark process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

import workloads  # imports nothing from the program at module scope

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_rps", "1/s"),
    ("offline_p50_s", "s"),
    ("online_mean_s", "s"),
    ("offline_bytes", "B"),
    ("online_bytes", "B"),
    ("request_bytes", "B"),
    ("precompute_bytes", "B"),
    ("peak_rss_mb", "MB"),
)


def percentile(samples: list[float], p: int) -> float:
    """Exact percentile of raw samples (linear between order statistics)."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(out, peak_rss_mb: float, time_scale: float):
    """``{name: (value, unit, sample count, as measured)}`` for every
    end-to-end metric; times are at reference host speed (see
    ``hostspeed.py``), the measured value beside them."""
    lat, off, on = out.latencies, out.offline_s, out.online_s
    values = {
        "setup_s": (out.setup_s, len(out.setup_times)),
        "latency_p50_s": (percentile(lat, 50), len(lat)),
        "latency_p90_s": (percentile(lat, 90), len(lat)),
        "throughput_rps": (out.completed / max(out.window_s, 1e-9), out.completed),
        "offline_p50_s": (percentile(off, 50), len(off)),
        "online_mean_s": (statistics.mean(on) if on else 0.0, len(on)),
        "offline_bytes": (out.offline_bytes, len(off)),
        "online_bytes": (out.online_bytes, out.completed),
        "request_bytes": (out.request_bytes, out.completed),
        "precompute_bytes": (out.precompute_bytes, 1),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    scale = {"s": 1.0 / time_scale, "1/s": time_scale}
    return {
        name: (values[name][0] * scale.get(unit, 1.0), unit, values[name][1],
               values[name][0])
        for name, unit in END_TO_END
    }


def per_layer(out, tracer, workload: str, untraced_p50, host):
    """Per-layer metrics of a traced run, its report lines, and the
    self-check failures (empty when the trace is sound)."""
    import layertrace

    spans = tracer.spans
    metrics = layertrace.layer_metrics(spans, out.completed)
    for name, unit in workloads.GATEWAY_UNITS.items():
        metrics[name] = (out.gateway.get(name, 0), unit)
    traced_p50 = percentile(out.latencies, 50) / host.time_scale
    spans_per_request = len(spans) / max(1, out.completed)
    if untraced_p50 is not None:
        overhead = traced_p50 - untraced_p50
        how = f"measured: traced p50 minus untraced p50 {untraced_p50:.6f} s"
    else:
        overhead = spans_per_request * layertrace.span_cost_s()
        how = "estimated: spans per request x calibrated span cost"
    failures = layertrace.self_check(workload, spans, tracer.missing, out)
    # Closed loop: how late each request left against when it was due
    # (the previous reply, plus the think time where there is one).
    metrics["loadgen.lateness_p95_s"] = (percentile(out.lateness, 95), "s")
    metrics["loadgen.lateness_max_s"] = (max(out.lateness, default=0.0), "s")
    metrics["host.speed_factor"] = (host.factor, "ratio")
    metrics["trace.latency_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (spans_per_request, "spans/req")
    metrics["trace.selfcheck_failures"] = (len(failures), "count")
    lines = [f"trace overhead on latency_p50_s (reference speed): "
             f"{overhead:.6f} s ({how})"]
    self_times = layertrace.layer_self_seconds(spans)
    lines.append(
        "layer self time over the window (s, as measured): "
        + ", ".join(f"{k}={v:.3f}" for k, v in sorted(self_times.items()))
    )
    fired = layertrace.span_counts(spans)
    lines.append(
        "span counts: " + ", ".join(f"{k}={v}" for k, v in sorted(fired.items()))
    )
    if failures:
        lines += [f"SELF-CHECK FAILED: {f}" for f in failures]
    else:
        lines.append("self-check passed: expected spans fired, circuit counts "
                     "match the lowering, socket bytes match the clients' count")
    return metrics, lines, failures


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_BACKEND"] = "numpy"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import layertrace
    from hostspeed import HostSpeed
    from provenance import provenance

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    prov = provenance(workloads.bench_params())
    # One CPU for the whole run: the program's Python work is serialized
    # by the interpreter lock anyway, and threads that hand messages to
    # each other on one CPU are not exposed to cross-CPU wake-up delays.
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))

    tracer = layertrace.Tracer()
    layertrace.install_phase_wraps(tracer)
    if args.trace:
        layertrace.install_layer_wraps(tracer)
    try:
        with HostSpeed() as host:
            out = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, workdir, tracer
            )
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = end_to_end(out, peak_rss_mb, host.time_scale)
    record = workdir / f"untraced-{args.workload}-{args.seed}.json"
    trace_failures, trace_lines = [], []
    if args.trace:
        untraced_p50 = None
        if record.exists():
            recorded = json.loads(record.read_text())
            if recorded["seconds"] == args.seconds:
                untraced_p50 = recorded["latency_p50_s"]
        metrics, trace_lines, trace_failures = per_layer(
            out, tracer, args.workload, untraced_p50, host
        )
    else:
        metrics = {name: (value, unit) for name, (value, unit, _, _) in e2e.items()}

    failed = out.failed + out.mismatches
    attempted = max(1, out.attempted)
    correct = (
        failed == 0 and out.ledger_balanced and out.completed > 0
        and not out.errors and not trace_failures
    )
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} attempted={out.attempted} completed={out.completed} "
        f"failed={out.failed} oracle_mismatches={out.mismatches} "
        f"ledger_balanced={out.ledger_balanced} "
        f"error_rate={failed / attempted:.6f}"
    )
    for line in out.notes:
        print(line)
    for error in out.errors:
        print(f"ERROR: {error}")

    print(f"host speed: reference kernel {host.factor:.4f}x its reference "
          f"time, mean of {len(host.samples)} samples; times below are "
          f"divided by {host.time_scale:.4f} (reference speed), measured "
          "value after them")
    for line in trace_lines:
        print(line)
    if correct and not args.trace:
        record.write_text(json.dumps(
            {"seconds": args.seconds, "latency_p50_s": e2e["latency_p50_s"][0]}
        ))
    for name, (value, unit, n, measured) in e2e.items():
        print(f"  {name} = {value:.6g} {unit} (n={n}; measured {measured:.6g})")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
