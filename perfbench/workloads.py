"""The four benchmark workloads: stack configuration plus a seeded trace.

Every workload is one serving-stack configuration (a ``StackConfig``)
and a trace built only from the repo's seeded scenario generators, so
the same seed always yields the same requests.  Arrival times are
*simulated* seconds: the trace is an open-loop schedule on the modelled
device, independent of how fast the host serves it.

A trace is a list of ``(request, decode)`` pairs in arrival order;
``decode=True`` marks a stream for ``submit_decode``.  Traces are rebuilt
for every round because the engine restamps requests it degrades.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.hardware.latency import SparsityKind
from repro.serve import DecodeOptions, ScenarioConfig, StackConfig, stream_scenario
from repro.serve.batcher import InferenceRequest

Trace = List[Tuple[InferenceRequest, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: int  # requests per round (the fixed simulated trace)
    stack: Dict = field(default_factory=dict)
    build: Callable[["Workload", object, int], Trace] = None

    def config(self) -> StackConfig:
        kw = dict(self.stack)
        if "decode" in kw:
            kw["decode"] = DecodeOptions(**kw["decode"])
        return StackConfig(streaming=True, **kw)

    def trace(self, engine, seed: int) -> Trace:
        return self.build(self, engine, seed)


def _steady(wl: Workload, engine, seed: int) -> Trace:
    reqs = stream_scenario("steady", engine.adapter.workload,
                           ScenarioConfig(num_requests=wl.requests, seed=seed))
    return [(r, False) for r in reqs]


def _switching(wl: Workload, engine, seed: int) -> Trace:
    reqs = stream_scenario("bursty", engine.adapter.workload,
                           ScenarioConfig(num_requests=wl.requests, seed=seed))
    return [(r, False) for r in reqs]


# decode: short prompts (4-6 tokens) so prompt + 8 generated tokens stay
# inside the model's 16-token window; one request in BATCH_EVERY is a
# one-shot batch request, so the full-sequence forward runs but rarely
DECODE_RATE_RPS = 2000.0
DECODE_BATCH_EVERY = 64


def _decode(wl: Workload, engine, seed: int) -> Trace:
    reqs = stream_scenario("steady", engine.adapter.workload,
                           ScenarioConfig(num_requests=wl.requests, seed=seed,
                                          seq_len=6),
                           rate_rps=DECODE_RATE_RPS)
    return [(r, r.req_id % DECODE_BATCH_EVERY != DECODE_BATCH_EVERY - 1)
            for r in reqs]


# overload: a "bulk" tenant floods two devices at the slowest V/F level
# at ~1.5x their simulated batch capacity while a sparse "live" tenant
# trickles tight-SLO requests; a live request that lands behind bulk
# backlog preempts it (each preemption is charged a pattern switch)
OVERLOAD_LEVEL = "l1"
OVERLOAD_BULK_RPS = 16000.0
OVERLOAD_LIVE_RPS = 30.0
OVERLOAD_DEADLINE_FACTOR = 1.7
OVERLOAD_BULK_SLO_MS = 15.0
OVERLOAD_LIVE_SLO_MS = 3.5


def _overload(wl: Workload, engine, seed: int) -> Trace:
    profile = engine.adapter.workload
    deadline = OVERLOAD_DEADLINE_FACTOR * engine.adapter.latency.latency_s(
        profile, engine.dvfs[OVERLOAD_LEVEL], 0.0, SparsityKind.DENSE)
    bulk = list(stream_scenario("steady", profile,
                                ScenarioConfig(num_requests=wl.requests,
                                               seed=seed),
                                rate_rps=OVERLOAD_BULK_RPS))
    live_n = int(bulk[-1].arrival_s * OVERLOAD_LIVE_RPS)
    live = stream_scenario("steady", profile,
                           ScenarioConfig(num_requests=live_n, seed=seed + 1),
                           rate_rps=OVERLOAD_LIVE_RPS)

    def stamp(r, tenant, slo_ms):
        return dataclasses.replace(r, tenant=tenant,
                                   level_name=OVERLOAD_LEVEL,
                                   deadline_s=deadline,
                                   slo_s=deadline + slo_ms / 1e3)

    merged = ([stamp(r, "bulk", OVERLOAD_BULK_SLO_MS) for r in bulk]
              + [stamp(r, "live", OVERLOAD_LIVE_SLO_MS) for r in live])
    merged.sort(key=lambda r: (r.arrival_s, r.tenant))
    return [(dataclasses.replace(r, req_id=i), False)
            for i, r in enumerate(merged)]


# Trace lengths: every round starts on a fresh stack, so its first batches
# pay cold artifact caches and the plan compile.  The batch traces are long
# enough that this start-up touches well under 1% of a round's requests and
# the host p99 describes steady serving, not the round's start; overload's
# spans 2 simulated seconds so that its preemption count, which sets the
# simulated tail, settles.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "steady",
        "steady scenario on 1 device, full batches of 8, lengths 10-12: "
        "the forward dominates, no reconfiguration; open loop of 4000 "
        "req/s in sim time, closed-loop host feeder",
        requests=4000, stack=dict(devices=1), build=_steady),
    Workload(
        "switching",
        "bursty scenario on 2 least-loaded devices: each batch lands on "
        "another ladder rung, so pays a mask install and plan recompile; "
        "lengths 2-16 pad; sim open loop, host closed loop",
        requests=3200, stack=dict(devices=2, policy="least-loaded"),
        build=_switching),
    Workload(
        "decode",
        "decode streams via submit_decode on the KV-cached plane, 1 "
        "request in 64 a batch forward: token steps dominate; open loop "
        "of 2000 streams/s in sim time, closed-loop host feeder",
        requests=160, stack=dict(devices=1, decode=dict(max_new_tokens=8)),
        build=_decode),
    Workload(
        "overload",
        "bulk and live tenants (weights 3:1) at ~1.5x sim capacity, "
        "degrade shedding, bounded queue, running preemption: admission "
        "control runs; sim open loop, host closed loop",
        requests=32000,
        stack=dict(devices=2, policy="least-loaded", window_s=1e-3,
                   prewarm=True, shed_policy="degrade", max_queue=32,
                   preempt_policy="running",
                   tenant_weights={"bulk": 3.0, "live": 1.0}),
        build=_overload),
]}
