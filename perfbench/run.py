#!/usr/bin/env python3
"""Serving benchmark: four seeded workloads through the public serving API.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's public entry points (see ``tracing.py``), prints the per-layer
table and writes the spans of one round as Chrome trace-event JSON under
``perfbench/out/``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run serves the workload's fixed seeded trace in *rounds*: every
round builds a fresh stack and feeds the trace through ``submit`` /
``submit_decode`` / ``tick`` / ``drain`` with the one-arrival-lag
discipline of ``StreamingEngine.play``.  Arrivals are an open loop in
simulated time; on the host one closed-loop feeder submits the next
arrival as soon as the engine returns.  Rounds repeat until ``--seconds``
of wall time have passed; host metrics are in reference seconds (see
``CAL_REF_S``) and are medians over rounds (throughput) or over segments
of 1000 completed requests (latency percentiles), simulated metrics come
from one round and must repeat bit-for-bit in every other round, in
every run of the same code and seed, and with tracing on.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["steady", "switching", "decode", "overload"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread and a fixed hash seed: re-exec once if unset."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})


if __name__ == "__main__":
    ARGS = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no serving sources at {SRC}; run from a full "
                 "checkout of the repository")
    pin_environment()
    sys.path.insert(0, str(SRC))

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

from repro.nn.generation import DecodeSession  # noqa: E402
from repro.nn.inference import compile_decode, compile_inference  # noqa: E402
from repro.serve import build_serving_stack  # noqa: E402
from repro.serve.batcher import run_padded  # noqa: E402

from tracing import LOOP, Tracer, chrome_trace, layer_stats  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 5
SETUP_PER_ROUND = 2
MIN_ROUNDS = 3  # untraced rounds (a traced run has as many traced)
SEGMENT_RESULTS = 1000  # host latencies per percentile segment
CHECK_BATCH = 48  # batch outputs recomputed eagerly per run
CHECK_DECODE = 12  # decode streams re-decoded eagerly per run
# padded mixed-length batches reduce over padded rows in another order
# than a solo forward, so per-request agreement is float64 round-off
SOLO_TOLERANCE = 1e-12

# Host times are reported in *reference seconds*: wall seconds scaled by
# how fast this machine ran a fixed calibration kernel (``calibrate``) at
# the start of a round, every CAL_EVERY_S of it and at its end (see
# ``RefClock``).  On a shared host the same code runs up to ~40% slower
# for stretches of seconds to minutes; the kernel slows with it, so the
# ratio cancels most of that drift while a change to the program still
# moves the numerator alone.  CAL_REF_S is the kernel's time that counts
# as one reference unit (about its median on a 2-vCPU x86 VM); raw
# wall-clock figures are kept in the detail line.
CAL_REF_S = 0.0075
CAL_EVERY_S = 0.25
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((16, 64))
_CAL_W = _CAL_RNG.standard_normal((64, 128))

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "host.req_per_s": "req/s",
    "host.tok_per_s": "tok/s",
    "host.result_ms.p50": "ms",
    "host.result_ms.p99": "ms",
    "peak_rss_mb": "MB",
    "sim.latency_ms.p50": "ms",
    "sim.latency_ms.p99": "ms",
    "sim.goodput_rps": "req/s",
    "sim.slo_ok_rate": "ratio",
}


class CheckFailed(Exception):
    pass


def pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def calibrate() -> float:
    """Wall seconds for a fixed mix of interpreter and small-array numpy
    work, the two kinds of work the serving loop does.  The collector is
    held off so that garbage left by a round is not charged to the kernel."""
    table = dict.fromkeys(range(256), 0)
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += (i * 7919) % 1009
            table[i & 255] += 1
        for _ in range(150):
            y = _CAL_X @ _CAL_W
            np.maximum(y, 0.0, out=y)
            acc += int(y.sum() > 0)
        return time.perf_counter() - start
    finally:
        gc.enable()


class RefClock:
    """Maps wall-clock stamps taken during a round to reference seconds.

    ``mark`` runs the calibration kernel; the wall time between two marks
    is scaled by ``CAL_REF_S`` over the mean of their kernel times, and the
    time spent in the kernel itself is left out.
    """

    def __init__(self) -> None:
        self.marks: List[tuple] = []  # (kernel start, kernel end, kernel s)
        self.due = 0.0

    def mark(self) -> None:
        start = time.perf_counter()
        kernel = calibrate()
        end = time.perf_counter()
        self.marks.append((start, end, kernel))
        self.due = end + CAL_EVERY_S

    def tick(self) -> None:
        if time.perf_counter() >= self.due:
            self.mark()

    def close(self) -> None:
        """Take the closing mark and freeze the mapping."""
        self.mark()
        self.starts = np.array([m[1] for m in self.marks[:-1]])
        self.ends = np.array([m[0] for m in self.marks[1:]])
        kernel = np.array([m[2] for m in self.marks])
        self.slopes = 2 * CAL_REF_S / (kernel[:-1] + kernel[1:])
        ref = (self.ends - self.starts) * self.slopes
        self.base = np.concatenate([[0.0], np.cumsum(ref)])
        self.wall_s = float((self.ends - self.starts).sum())
        self.ref_s = float(self.base[-1])

    def ref(self, stamps) -> np.ndarray:
        """Reference seconds since the round's first mark."""
        t = np.asarray(stamps, dtype=float)
        i = np.clip(np.searchsorted(self.starts, t, side="right") - 1,
                    0, len(self.starts) - 1)
        inside = np.clip(t, self.starts[i], self.ends[i]) - self.starts[i]
        return self.base[i] + self.slopes[i] * inside


@dataclass
class Round:
    wall_s: float  # timed wall seconds, calibration kernels left out
    ref_s: float  # the same interval in reference seconds
    submitted: int
    tokens: int
    host_ms: List[float]  # reference milliseconds, submit to release
    sim: Dict[str, float]
    counts: Dict[str, int]
    report: object = None
    layers: Optional[Dict[str, dict]] = None
    compiles: int = 0  # forward-plan compilations (traced rounds only)
    spans: List[tuple] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Reference seconds per wall second over the round."""
        return self.ref_s / self.wall_s

    @property
    def req_per_s(self) -> float:
        return self.submitted / self.ref_s

    @property
    def tok_per_s(self) -> float:
        return self.tokens / self.ref_s

    @property
    def wall_req_per_s(self) -> float:
        return self.submitted / self.wall_s


# ---------------------------------------------------------------------------
# one round: fresh stack, the fixed trace, closed-loop feeding
# ---------------------------------------------------------------------------

def serve_round(wl: Workload, seed: int, tracer: Optional[Tracer] = None
                ) -> Round:
    _, _, engine = build_serving_stack(wl.config())
    trace = wl.trace(engine, seed)
    submitted_at: Dict[int, float] = {}
    stamps: List[tuple] = []  # (submitted, released) wall stamps
    released = []
    clock = time.perf_counter
    refclock = RefClock()

    def collect(out) -> None:
        if out:
            now = clock()
            for r in out:
                stamps.append((submitted_at[r.request.req_id], now))
            released.extend(out)

    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        refclock.mark()
        prev = None
        for req, decode in trace:
            if prev is not None and req.arrival_s > prev:
                collect(engine.tick(prev))
            refclock.tick()
            submitted_at[req.req_id] = clock()
            if decode:
                engine.submit_decode(req)
            else:
                engine.submit(req)
            prev = req.arrival_s
        collect(engine.drain())
        refclock.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    sub, rel = (refclock.ref(col) for col in zip(*stamps))
    host_ms = ((rel - sub) * 1e3).tolist()

    report = engine.report()
    tokens = sum(len(r.output.generated) if hasattr(r.output, "generated")
                 else r.request.length for r in released)
    sim, counts = simulated_outcome(engine, report, len(trace), released)
    rnd = Round(refclock.wall_s, refclock.ref_s, len(trace), tokens, host_ms,
                sim, counts, report=report)
    if tracer is not None:
        rnd.layers = layer_stats(tracer.spans)
        rnd.compiles = sum(p.compiles for p in tracer.plans)
        rnd.spans = tracer.spans
    return rnd


def simulated_outcome(engine, report, submitted: int, released):
    """Deterministic per-seed outcome of a round, plus conservation."""
    results = report.results
    late = sum(1 for r in results if not r.met_slo)
    ok = len(results) - late
    counts = {
        "submitted": submitted,
        "completed": report.completed,
        "shed": report.num_shed,
        "cancelled": report.num_cancelled,
        "late": late,
        "degraded": report.degraded_requests,
        "preemptions": report.preemptions,
        "requeued_batches": report.requeued_batches,
        "switches": sum(s.switches for s in report.shard_stats),
        "events": report.num_batches,
        "decode_tokens": report.decode_tokens,
    }
    if report.cache_stats is not None:
        counts.update(cache_hits=report.cache_stats.hits,
                      cache_misses=report.cache_stats.misses,
                      cache_evictions=report.cache_stats.evictions,
                      cache_bytes=engine.cache.bytes_in_use)
    if not (report.conserved and report.submitted == submitted
            and len(released) == report.completed == len(results)):
        raise CheckFailed(
            f"conservation broken: submitted {submitted}, engine saw "
            f"{report.submitted}, completed {report.completed}, released "
            f"{len(released)}, shed {report.num_shed}, cancelled "
            f"{report.num_cancelled}")
    lat_ms = [1e3 * r.latency_s for r in results]
    waits = [1e3 * r.queue_wait_s for r in results]
    span = report.sim_makespan_s
    sim = {
        "sim.latency_ms.p50": pct(lat_ms, 50),
        "sim.latency_ms.p99": pct(lat_ms, 99),
        "sim.goodput_rps": ok / span if span > 0 else 0.0,
        "sim.slo_ok_rate": ok / submitted,
        "queue_wait_ms.p50": pct(waits, 50),
        "queue_wait_ms.p99": pct(waits, 99),
        "utilization": float(np.mean([s.utilization(span)
                                      for s in report.shard_stats])),
    }
    return sim, counts


# ---------------------------------------------------------------------------
# set-up time, correctness, fingerprint
# ---------------------------------------------------------------------------

def setup_seconds(wl: Workload, repeats: int) -> List[float]:
    """Fresh stack construction plus the plan (and decode plane) compile,
    in reference seconds (scaled by a calibration taken right after)."""
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        model, _, _engine = build_serving_stack(wl.config())
        plan = compile_inference(model)
        if "decode" in wl.stack:
            compile_decode(model, plan=plan)
        times.append(time.perf_counter() - start)
    scale = CAL_REF_S / calibrate()
    return [t * scale for t in times]


def check_outputs(wl: Workload, rnd: Round, seed: int) -> Dict[str, int]:
    """Recompute a seeded sample of completed outputs eagerly.

    Each sampled batch output must equal (``==``) the eager Tensor forward
    of its own padded batch, under the pattern set the batch ran with, and
    must match a solo eager forward of the request within
    ``SOLO_TOLERANCE``; how many were also bit-identical per request is
    counted.  Sampled decode streams must re-decode to the same tokens and
    logprobs (``==``) through an eager, uncompiled session.
    """
    model, _, ref = build_serving_stack(wl.config())
    ladder = dict(ref.adapter.candidates)
    manager = ref.adapter.manager
    gen_cfg = ref.decode_options.generation_config()
    rng = np.random.default_rng(seed)
    results = rnd.report.results
    is_decode = [hasattr(r.output, "generated") for r in results]
    members: Dict[int, list] = {}
    for r, dec in zip(results, is_decode):
        if not dec:
            members.setdefault(r.batch_id, []).append(r)
    batch = [r for r, dec in zip(results, is_decode) if not dec]
    decode = [r for r, dec in zip(results, is_decode) if dec]
    picked = [batch[i] for i in rng.choice(
        len(batch), min(CHECK_BATCH, len(batch)), replace=False)]
    if decode:
        picked += [decode[i] for i in rng.choice(
            len(decode), min(CHECK_DECODE, len(decode)), replace=False)]
    checked = {"batch": 0, "batch_solo_bit_exact": 0, "batch_solo_max_abs": 0.0,
               "decode": 0}
    for r in picked:
        manager.apply(ladder[r.sparsity])
        rid = r.request.req_id
        if hasattr(r.output, "generated"):
            session = DecodeSession(model, gen_cfg, compiled=False)
            sid = session.submit_prompt(r.request.tokens)
            session.run()
            want = session.result(sid)
            if not (np.array_equal(want.tokens, r.output.tokens)
                    and want.logprobs == r.output.logprobs):
                raise CheckFailed(f"decode request {rid} differs from its "
                                  "eager re-decode")
            checked["decode"] += 1
            continue
        group = sorted(members[r.batch_id], key=lambda m: m.request.req_id)
        if len(group) == r.batch_size:
            # the batch exactly as it ran (a preemption-retried batch whose
            # earlier members finished first has no complete record here)
            eager = run_padded(model, [m.request for m in group])
            if not np.array_equal(eager[group.index(r)], r.output):
                raise CheckFailed(f"batch request {rid} differs from the "
                                  "eager forward of its padded batch")
        solo = run_padded(model, [r.request])[0]
        err = float(np.abs(solo - r.output).max())
        if not err <= SOLO_TOLERANCE:
            raise CheckFailed(f"batch request {rid} is {err:.3g} away from "
                              "its eager per-request forward")
        checked["batch"] += 1
        checked["batch_solo_bit_exact"] += int(err == 0.0)
        checked["batch_solo_max_abs"] = max(checked["batch_solo_max_abs"], err)
    return checked


def code_digest() -> str:
    h = hashlib.sha256()
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(kind: str, wl: Workload, seed: int, data: dict) -> str:
    """Compare against the stored fingerprint of this code + seed, if any."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"fingerprint-{wl.name}-seed{seed}-{code_digest()}-{kind}.json"
    text = json.dumps(data, sort_keys=True, indent=1)
    if path.exists():
        if path.read_text() != text:
            raise CheckFailed(f"{kind} fingerprint differs from {path.name}, "
                              "an earlier run of the same code and seed")
    else:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)
    return path.name


# ---------------------------------------------------------------------------
# per-layer metrics (traced rounds)
# ---------------------------------------------------------------------------

def layer_calls(rnd: Round) -> Dict[str, int]:
    return {"compiles": rnd.compiles,
            **{name: s["calls"] for name, s in rnd.layers.items()}}


def layer_metrics(rounds: List[Round], untraced: List[Round]) -> Dict[str, tuple]:
    """Per-layer metrics: times are per round (mean over traced rounds),
    counts are per round and identical in every traced round."""
    n = len(rounds)

    def total(name, key):
        return sum(r.layers.get(name, {}).get(key, 0.0) for r in rounds) / n

    def per_call(name):
        return [x for r in rounds for x in r.layers.get(name, {}).get(
            "per_call", [])]

    def notes(name):
        return [x for r in rounds for x in r.layers.get(name, {}).get(
            "notes", [])]

    first = rounds[0]
    calls = layer_calls(first)
    counts = first.counts
    padded = notes("serve.batcher.run_padded")
    real = sum(p["real"] for p in padded)
    slots = sum(p["slots"] for p in padded)
    steps = notes("nn.generation.step")
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    wall_ms = statistics.mean(r.wall_s for r in rounds) * 1e3
    # everything the named layers below the event loop account for; the
    # rest of the wall time is the loop's own code and the feeder
    inner = sum(total(name, "self_ms") for name in first.layers
                if name != LOOP)
    traced_rps = statistics.median(r.req_per_s for r in rounds)
    plain_rps = statistics.median(r.req_per_s for r in untraced)
    m = {
        "serve.streaming.self_ms": (total(LOOP, "self_ms"), "ms"),
        "serve.batcher.admit.calls": (calls.get("serve.batcher.admit", 0), "count"),
        "serve.batcher.admit.ms": (total("serve.batcher.admit", "ms"), "ms"),
        "serve.batcher.run_padded.self_ms": (
            total("serve.batcher.run_padded", "self_ms"), "ms"),
        "serve.batcher.pad_efficiency": (real / slots if slots else 0.0, "ratio"),
        "serve.batcher.batch_size.mean": (
            statistics.mean(p["batch"] for p in padded) if padded else 0.0,
            "req"),
        "core.patterns.apply.calls": (calls.get("core.patterns.apply", 0), "count"),
        "core.patterns.apply.ms": (total("core.patterns.apply", "ms"), "ms"),
        "core.patterns.apply.ms_per_call.p50": (
            pct(per_call("core.patterns.apply"), 50), "ms"),
        "serve.cache.hit_rate": (
            counts.get("cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "serve.cache.misses": (counts.get("cache_misses", 0), "count"),
        "serve.cache.evictions": (counts.get("cache_evictions", 0), "count"),
        "serve.cache.bytes_in_use": (counts.get("cache_bytes", 0), "B"),
        "nn.inference.forward.calls": (calls.get("nn.inference.forward", 0), "count"),
        "nn.inference.forward.ms": (total("nn.inference.forward", "ms"), "ms"),
        "nn.inference.forward.ms_per_call.p50": (
            pct(per_call("nn.inference.forward"), 50), "ms"),
        "nn.inference.compiles": (calls["compiles"], "count"),
        "nn.inference.recompile_forward.ms": (
            total("nn.inference.forward", "recompile_ms"), "ms"),
        "nn.generation.step.calls": (calls.get("nn.generation.step", 0), "count"),
        "nn.generation.step.ms": (total("nn.generation.step", "ms"), "ms"),
        "nn.generation.step.ms_per_call.p50": (
            pct(per_call("nn.generation.step"), 50), "ms"),
        "nn.generation.step.ms_per_call.p99": (
            pct(per_call("nn.generation.step"), 99), "ms"),
        "nn.generation.tokens_per_step": (
            statistics.mean(s["tokens"] for s in steps) if steps else 0.0,
            "tok"),
        "core.runtime_policy.plan.calls": (
            calls.get("core.runtime_policy.plan", 0), "count"),
        "core.runtime_policy.plan.ms": (total("core.runtime_policy.plan", "ms"), "ms"),
        "serve.sharding.route.ms": (total("serve.sharding.route", "ms"), "ms"),
        "serve.sharding.switches": (counts["switches"], "count"),
        "serve.sharding.queue_wait_ms.p50": (first.sim["queue_wait_ms.p50"], "ms"),
        "serve.sharding.queue_wait_ms.p99": (first.sim["queue_wait_ms.p99"], "ms"),
        "serve.sharding.utilization": (first.sim["utilization"], "ratio"),
        "serve.faults.shed": (counts["shed"], "count"),
        "serve.faults.degraded": (counts["degraded"], "count"),
        "serve.faults.preemptions": (counts["preemptions"], "count"),
        "serve.faults.cancelled": (counts["cancelled"], "count"),
        "serve.faults.requeued_batches": (counts["requeued_batches"], "count"),
        "hardware.latency.offsets.calls": (
            calls.get("hardware.latency.offsets", 0), "count"),
        "hardware.latency.offsets.ms": (total("hardware.latency.offsets", "ms"), "ms"),
        "trace.attributed_share": (inner / wall_ms, "ratio"),
        "trace.overhead_share": ((plain_rps - traced_rps) / plain_rps, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def latency_segments(rounds: List[Round]) -> List[List[float]]:
    """The run's host latencies, in release order, cut into consecutive
    segments of ``SEGMENT_RESULTS`` (a short tail is dropped)."""
    stream = [x for r in rounds for x in r.host_ms]
    n = SEGMENT_RESULTS
    return [stream[i:i + n] for i in range(0, len(stream) - n + 1, n)] or [stream]


def host_metrics(rounds: List[Round]) -> Dict[str, float]:
    """Throughput: median over rounds.  Latency percentiles: median over
    segments of each segment's percentile, so a slow stretch of the
    machine moves a few segments, not the run's tail."""
    segments = latency_segments(rounds)
    return {
        "host.req_per_s": statistics.median(r.req_per_s for r in rounds),
        "host.tok_per_s": statistics.median(r.tok_per_s for r in rounds),
        "host.result_ms.p50": statistics.median(pct(s, 50) for s in segments),
        "host.result_ms.p99": statistics.median(pct(s, 99) for s in segments),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    calibrate()  # first call pays one-off costs; keep it out of the scales
    setup = setup_seconds(wl, SETUP_REPEATS)

    # untimed warm-up round: warms code paths and caches and supplies the
    # reference outcome every timed round must reproduce exactly
    warm = serve_round(wl, args.seed)
    reference = {"sim": warm.sim, "counts": warm.counts}

    tracer = Tracer() if args.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    traced: List[Round] = []
    plain: List[Round] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) < MIN_ROUNDS:
        # traced runs interleave untraced rounds to measure the overhead
        use_tracer = tracer is not None and len(traced) <= len(plain)
        # rounds rotate over the CPUs this process may use: on a shared
        # machine one CPU can run slower than another for many seconds,
        # and the run's medians should not hinge on which one it landed
        # on (a traced round and its untraced partner share a CPU)
        done = len(traced) + len(plain)
        os.sched_setaffinity(0, {cpus[(done // 2) % len(cpus)]})
        # set-up samples spread over the run see the same machine states
        # as the rounds do; their median is the reported set-up time
        setup += setup_seconds(wl, SETUP_PER_ROUND)
        rnd = serve_round(wl, args.seed, tracer if use_tracer else None)
        if {"sim": rnd.sim, "counts": rnd.counts} != reference:
            raise CheckFailed("a timed round's simulated outcome differs "
                              "from the warm-up round's")
        rnd.report = None
        if use_tracer:
            if traced and layer_calls(rnd) != layer_calls(traced[0]):
                raise CheckFailed("per-layer call counts differ between rounds")
            if traced:
                rnd.spans = []
            traced.append(rnd)
        else:
            plain.append(rnd)
    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = check_outputs(wl, warm, args.seed)
    fp_names = [check_fingerprint("sim", wl, args.seed, reference)]

    rps = [r.req_per_s for r in plain]
    wall_rps = [r.wall_req_per_s for r in plain]
    q1, _, q3 = statistics.quantiles(rps, n=4)
    attempted = sum(r.submitted for r in traced + plain)
    detail = {
        "workload": wl.name, "seed": args.seed, "why": wl.why,
        "rounds": {"untraced": len(plain), "traced": len(traced),
                   "requests_each": warm.submitted},
        "segments_req_per_s": [round(x, 1) for x in rps],
        "wall_req_per_s": [round(x, 1) for x in wall_rps],
        "wall_req_per_s_median": statistics.median(wall_rps),
        "speed": [round(r.speed, 4) for r in plain],
        "segment_spread": {
            "iqr_over_median": (q3 - q1) / statistics.median(rps),
            "range_over_median": (max(rps) - min(rps)) / statistics.median(rps)},
        "setup_s_samples": [round(x, 6) for x in setup],
        "host_result_samples": [len(s) for s in latency_segments(plain)],
        "counts_per_round": warm.counts,
        "checked_outputs": checked,
    }

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            **host_metrics(plain),
            "peak_rss_mb": peak_rss_mb,
            **{k: warm.sim[k] for k in END_TO_END if k.startswith("sim.")},
        }
        values = {k: {"value": metrics[k], "unit": u}
                  for k, u in END_TO_END.items()}
    else:
        layers = layer_metrics(traced, plain)
        layer_counts = {k: v for k, (v, u) in layers.items() if u == "count"}
        fp_names.append(check_fingerprint("layers", wl, args.seed, layer_counts))
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        chrome_trace(traced[0].spans, str(span_file),
                     {"workload": wl.name, "seed": args.seed})
        detail["span_file"] = str(span_file.relative_to(HERE.parent))
        detail["spans_in_file"] = len(traced[0].spans)
        values = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    detail["fingerprints"] = fp_names

    width = max(len(k) for k in values)
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for k, v in values.items():
        print(f"{k:<{width}}  {v['value']:>14.6g}  {v['unit']}")
    print(json.dumps({"detail": detail}))
    emit(True, attempted, 0, values)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(ARGS))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        emit(False, 1, 1, {})
        sys.exit(1)
