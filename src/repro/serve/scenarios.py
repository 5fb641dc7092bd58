"""Scenario-driven load generation for the serving engine.

Each scenario is a *lazy arrival iterator*: a generator emitting a
deterministic (seeded) stream of
:class:`~repro.serve.batcher.InferenceRequest` one arrival at a time, so
an online caller can pull the next request, ``tick`` the streaming loop
to its arrival, and ``submit`` it — no trace materialized up front.  The
offline API is a thin wrapper (``build_scenario`` returns
``list(stream_scenario(...))``), so both views draw the identical
distribution.  The deployment stories, from the paper's run-time
reconfiguration argument:

- ``steady``  — a translation-style service: regular arrivals, uniform
  sequence lengths, one V/F level, a comfortable deadline.  One
  operating point: after the first batch installs its masks, no batch
  switches.
- ``bursty``  — an interactive event feed: quiet gaps punctuated by
  request bursts with *tight* deadlines, alternating between two V/F
  levels — forcing the adapter to climb the sparsity ladder per burst.
- ``battery`` — a long discharge: the battery governor walks the V/F
  level down as charge drains, while sequence lengths follow a long-tail
  (mostly short, occasionally near ``max_len``) distribution.
- ``bandwidth`` — the paper's translation example: a fluctuating
  network-bandwidth trace (noisy sinusoid) mapped directly onto
  per-request deadline jitter — high bandwidth means the cloud covers
  translation (loose local deadline), a degraded link forces the local
  model to answer inside the interactive budget (tight deadline).

Each request carries two budgets (see
:class:`~repro.serve.batcher.InferenceRequest`): a *compute deadline* —
the paper's per-inference real-time constraint, expressed as a multiple
of the analytic dense latency so it lands inside the sparsity ladder's
feasibility window and actually moves the pattern choice — and an
end-to-end *SLO* that additionally budgets queueing, batching and one
pattern-set swap (~8.75 ms in the paper's calibration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.hardware.battery import Battery
from repro.hardware.dvfs import DVFSTable, BatteryGovernor
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import WorkloadProfile
from repro.serve.batcher import InferenceRequest
from repro.serve.faults import FaultPlan, ShardFault
from repro.utils.config import require


@dataclass
class ScenarioConfig:
    """Shared knobs for every generator."""

    num_requests: int = 64
    vocab_size: int = 60
    seq_len: int = 12
    max_len: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.num_requests >= 0, "num_requests",
                f"num_requests must be non-negative, got {self.num_requests}")


def _dense_latency(workload: WorkloadProfile, level, latency: LatencyModel) -> float:
    return latency.latency_s(workload, level, 0.0, SparsityKind.DENSE)


def _tokens(rng: np.random.Generator, length: int, vocab_size: int) -> np.ndarray:
    # token 0 is reserved as the pad id, so draw from [1, vocab)
    return rng.integers(1, vocab_size, size=length, dtype=np.int64)


# ---------------------------------------------------------------------------
# lazy generators (one request per pull; deterministic per seed)
# ---------------------------------------------------------------------------

def steady_translation(workload: WorkloadProfile, cfg: Optional[ScenarioConfig] = None,
                       latency: Optional[LatencyModel] = None,
                       rate_rps: float = 4000.0,
                       deadline_factor: float = 1.7,
                       slo_margin_s: float = 0.015
                       ) -> Iterator[InferenceRequest]:
    """Regular arrivals at one operating point (translation service)."""
    cfg = cfg or ScenarioConfig()
    latency = latency or LatencyModel()
    rng = np.random.default_rng(cfg.seed)
    level = DVFSTable()["l6"]
    deadline = deadline_factor * _dense_latency(workload, level, latency)
    gap = 1.0 / rate_rps
    t = 0.0
    for i in range(cfg.num_requests):
        t += gap * float(rng.uniform(0.8, 1.2))
        length = int(rng.integers(max(2, cfg.seq_len - 2), cfg.seq_len + 1))
        yield InferenceRequest(i, _tokens(rng, length, cfg.vocab_size),
                               arrival_s=t, deadline_s=deadline,
                               level_name=level.name,
                               slo_s=deadline + slo_margin_s)


def bursty_interactive(workload: WorkloadProfile, cfg: Optional[ScenarioConfig] = None,
                       latency: Optional[LatencyModel] = None,
                       burst_size: int = 8, burst_gap_s: float = 0.5,
                       deadline_factors: Sequence[float] = (1.7, 1.2),
                       slo_margin_s: float = 0.02,
                       spread_s: float = 2e-4) -> Iterator[InferenceRequest]:
    """Bursts of near-simultaneous arrivals with alternating tightness.

    Successive bursts cycle through ``deadline_factors`` (and V/F
    levels), so the adapter lands on a *different* rung of the sparsity
    ladder per burst — repeated pattern-set swaps that revisit earlier
    sets, which is exactly the access pattern the artifact cache serves.
    ``spread_s`` bounds the arrival jitter inside one burst (near-zero by
    default; the streaming bench widens it so the admission window has
    something to trade).
    """
    cfg = cfg or ScenarioConfig()
    latency = latency or LatencyModel()
    rng = np.random.default_rng(cfg.seed)
    table = DVFSTable()
    levels = [table["l6"], table["l4"]]
    t = 0.0
    burst = 0
    emitted = 0
    while emitted < cfg.num_requests:
        level = levels[burst % len(levels)]
        factor = deadline_factors[burst % len(deadline_factors)]
        deadline = factor * _dense_latency(workload, level, latency)
        for _ in range(min(burst_size, cfg.num_requests - emitted)):
            t += float(rng.uniform(0.0, spread_s))
            length = int(rng.integers(2, cfg.max_len + 1))
            yield InferenceRequest(emitted, _tokens(rng, length, cfg.vocab_size),
                                   arrival_s=t, deadline_s=deadline,
                                   level_name=level.name,
                                   slo_s=deadline + slo_margin_s)
            emitted += 1
        t += burst_gap_s
        burst += 1


def battery_drain_longtail(workload: WorkloadProfile,
                           cfg: Optional[ScenarioConfig] = None,
                           latency: Optional[LatencyModel] = None,
                           deadline_factor: float = 1.05,
                           slo_margin_s: float = 0.08,
                           drain_per_request: float = 0.012
                           ) -> Iterator[InferenceRequest]:
    """Battery discharge walks the governor down the V/F ladder.

    The compute deadline is *fixed* for the whole trace (a multiple of
    the dense latency at the lowest level), so as the governor drops the
    V/F level the adapter must climb the sparsity ladder — the paper's
    E3 story.  Sequence lengths are long-tailed (geometric, clipped to
    ``max_len``): most requests are short status checks, a few are
    full-context jobs; the generous SLO reflects background traffic.
    """
    cfg = cfg or ScenarioConfig()
    latency = latency or LatencyModel()
    rng = np.random.default_rng(cfg.seed)
    table = DVFSTable().subset(["l3", "l4", "l6"])
    governor = BatteryGovernor(table)
    battery = Battery(budget_j=1.0)
    deadline = deadline_factor * _dense_latency(workload, table["l3"], latency)
    t = 0.0
    for i in range(cfg.num_requests):
        t += float(rng.uniform(5e-3, 2e-2))
        level = governor.level_for(battery.fraction)
        length = min(cfg.max_len, 2 + int(rng.geometric(0.35)))
        yield InferenceRequest(i, _tokens(rng, length, cfg.vocab_size),
                               arrival_s=t, deadline_s=deadline,
                               level_name=level.name,
                               slo_s=deadline + slo_margin_s)
        battery.draw(min(battery.remaining_j, drain_per_request))


def bandwidth_fluctuation(workload: WorkloadProfile,
                          cfg: Optional[ScenarioConfig] = None,
                          latency: Optional[LatencyModel] = None,
                          rate_rps: float = 3000.0,
                          period_s: float = 0.01,
                          amplitude: float = 0.8,
                          noise: float = 0.1,
                          tight_factor: float = 1.05,
                          loose_factor: float = 1.9,
                          slo_margin_s: float = 0.02
                          ) -> Iterator[InferenceRequest]:
    """The paper's translation example: network bandwidth drives deadlines.

    "Local language translation for on-line interactive events with a
    fluctuating network bandwidth": while bandwidth is high the cloud
    handles translation and the local model only backstops (loose
    deadline); as bandwidth collapses the local model must answer inside
    the interactive budget (tight deadline).  The trace models relative
    bandwidth as a sinusoid with multiplicative log-normal noise and maps
    it *directly onto per-request deadline jitter* — each request's
    compute deadline interpolates between ``tight_factor`` and
    ``loose_factor`` (multiples of the dense latency) with the
    instantaneous normalized bandwidth, so the adapter rides up and down
    the sparsity ladder as the link degrades and recovers.
    """
    cfg = cfg or ScenarioConfig()
    latency = latency or LatencyModel()
    rng = np.random.default_rng(cfg.seed)
    level = DVFSTable()["l6"]
    dense = _dense_latency(workload, level, latency)
    gap = 1.0 / rate_rps
    t = 0.0
    for i in range(cfg.num_requests):
        t += gap * float(rng.uniform(0.7, 1.3))
        # relative bandwidth in [1 - amplitude, 1 + amplitude], noisy
        bw = (1.0 + amplitude * np.sin(2.0 * np.pi * t / period_s)) * float(
            np.exp(noise * rng.normal()))
        norm = float(np.clip((bw - (1.0 - amplitude)) / (2.0 * amplitude), 0.0, 1.0))
        deadline = (tight_factor + (loose_factor - tight_factor) * norm) * dense
        length = int(rng.integers(max(2, cfg.seq_len - 3), cfg.seq_len + 1))
        yield InferenceRequest(i, _tokens(rng, length, cfg.vocab_size),
                               arrival_s=t, deadline_s=deadline,
                               level_name=level.name,
                               slo_s=deadline + slo_margin_s)


# ---------------------------------------------------------------------------
# fault overlays (schedules of shard failures layered onto any scenario)
# ---------------------------------------------------------------------------

def flaky_fault_overlay(devices: int, horizon_s: float, seed: int = 0,
                        crash_rate: float = 1.0, stall_rate: float = 1.0,
                        slow_rate: float = 1.0) -> FaultPlan:
    """A seeded schedule of shard crashes, stalls and slow windows.

    The overlay is independent of the traffic scenario it rides on: it
    only needs the shard count and the trace horizon.  Event *counts*
    scale with the ``*_rate`` multipliers (defaults draw roughly one
    crash, one stall and one slow window per four shards over the
    horizon); times, victims, durations and slowdown factors all come
    from one ``numpy`` generator, so a (devices, horizon, seed) triple
    names exactly one plan.  Crash outages are finite (between 10% and
    35% of the horizon) so the failover path always exercises the
    re-probe/rejoin arc, never a permanent loss.
    """
    if devices < 1:
        raise ValueError("devices must be at least 1")
    if not np.isfinite(horizon_s) or horizon_s <= 0.0:
        raise ValueError("horizon_s must be positive and finite")
    rng = np.random.default_rng(seed)
    events: List[ShardFault] = []

    def _draws(rate: float) -> int:
        if rate < 0.0:
            raise ValueError("fault rates must be non-negative")
        mean = rate * max(1, devices) / 4.0
        return int(rng.poisson(mean)) if mean > 0.0 else 0

    crash_draws = _draws(crash_rate)  # validates the rate even when zero
    for _ in range(max(1, crash_draws) if crash_rate > 0 else 0):
        at = float(rng.uniform(0.05, 0.6)) * horizon_s
        down = float(rng.uniform(0.10, 0.35)) * horizon_s
        events.append(ShardFault("crash", int(rng.integers(devices)), at, down))
    for _ in range(_draws(stall_rate)):
        at = float(rng.uniform(0.05, 0.9)) * horizon_s
        hold = float(rng.uniform(0.02, 0.10)) * horizon_s
        events.append(ShardFault("stall", int(rng.integers(devices)), at, hold))
    for _ in range(_draws(slow_rate)):
        at = float(rng.uniform(0.05, 0.8)) * horizon_s
        span = float(rng.uniform(0.05, 0.20)) * horizon_s
        events.append(ShardFault("slow", int(rng.integers(devices)), at, span,
                                 factor=float(rng.uniform(1.5, 4.0))))
    return FaultPlan(sorted(events, key=lambda f: (f.at_s, f.shard_id, f.kind)))


SCENARIOS: Dict[str, Callable[..., Iterator[InferenceRequest]]] = {
    "steady": steady_translation,
    "bursty": bursty_interactive,
    "battery": battery_drain_longtail,
    "bandwidth": bandwidth_fluctuation,
}


def stream_scenario(name: str, workload: WorkloadProfile,
                    cfg: Optional[ScenarioConfig] = None,
                    latency: Optional[LatencyModel] = None,
                    **kwargs) -> Iterator[InferenceRequest]:
    """Lazily stream a named traffic scenario, one arrival at a time."""
    try:
        gen = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; options: {sorted(SCENARIOS)}") from None
    return gen(workload, cfg=cfg, latency=latency, **kwargs)


def build_scenario(name: str, workload: WorkloadProfile,
                   cfg: Optional[ScenarioConfig] = None,
                   latency: Optional[LatencyModel] = None,
                   **kwargs) -> List[InferenceRequest]:
    """Materialize a named traffic trace (offline view of the stream)."""
    return list(stream_scenario(name, workload, cfg=cfg, latency=latency,
                                **kwargs))


def assign_tenants(requests: Sequence[InferenceRequest], tenants: int,
                   prefix: str = "t") -> List[InferenceRequest]:
    """Stamp a trace with round-robin tenant ids (``t0``, ``t1``, ...).

    The deterministic multi-tenant overlay the CLI's ``--tenants`` flag
    applies: request ``req_id % tenants`` belongs to tenant
    ``f"{prefix}{req_id % tenants}"``, so the assignment is a pure
    function of the trace (no RNG to keep in sync) and identical for
    any tick schedule.  Requests are restamped in place and the list is
    returned for chaining.
    """
    if tenants < 1:
        raise ValueError("tenants must be at least 1")
    out = list(requests)
    for req in out:
        req.tenant = f"{prefix}{req.req_id % tenants}"
    return out
