"""Deterministic fault injection for the serving core.

The paper's premise is staying inside real-time deadlines *as conditions
degrade*; this module supplies the degraded conditions.  A
:class:`FaultPlan` is a seeded, fully explicit schedule of shard events
— crash at ``t`` (with finite or permanent duration), transient stall
windows, slowdown factors — that the streaming engine folds into its
one global event heap, so a faulty run is exactly as deterministic and
tick-granularity independent as a healthy one.  Two pieces:

- :class:`ShardFault` / :class:`FaultPlan` — the schedule.  Plans are
  value objects: build them programmatically, via
  :meth:`FaultPlan.parse` (the CLI's ``--faults`` spec string), via
  :meth:`FaultPlan.outage` (the single-outage acceptance shape), or via
  the seeded :func:`~repro.serve.scenarios.flaky_fault_overlay`
  generator.  A plan travels as ``ServeConfig.faults``, which checks
  every targeted shard exists; the engine folds its time-ordered events
  into the heap and re-probes downed shards at exponentially growing
  intervals from ``ServeConfig.probe_backoff_s`` (recovery is *detected*
  at the first probe past the outage, so the detection lag is bounded by
  the last backoff interval).
- :class:`ShedRecord` / :data:`SHED_POLICIES` — the admission-control
  half: what the engine records when it refuses a request instead of
  silently losing it.  Conservation (``completed + shed == submitted``)
  is the invariant every chaos test and the faults bench gate.
- :class:`ParkedWork` — the work a total outage left with nowhere to
  run, held (and counted as waiting) until a shard rejoins.

Health states are plain strings so they serialize straight into shard
digests: ``healthy`` → ``degraded`` (stalled / slowed but serving) →
``down`` (crashed; queued and in-flight work fails over).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.serve.batcher import InferenceRequest
from repro.utils.config import ConfigError, require

__all__ = [
    "CancelRecord",
    "DEGRADED",
    "DOWN",
    "FAULT_KINDS",
    "FaultPlan",
    "HEALTHY",
    "PREEMPT_POLICIES",
    "ParkedWork",
    "SHED_POLICIES",
    "ShardFault",
    "ShedRecord",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"

FAULT_KINDS = ("crash", "stall", "slow")

# admission overload defenses: "none" admits everything (the historical
# behaviour), "reject" sheds a request at admission when its estimated
# completion already misses the SLO, "degrade" first retries sparser
# (lower-latency) pattern rungs — the paper's accuracy-for-deadline
# trade as an overload response — and sheds only when no rung fits
SHED_POLICIES = ("none", "reject", "degrade")

# deadline-driven preemption: "off" never disturbs placed work (the
# historical behaviour), "queued" lets a tight-deadline admission pull a
# looser-deadline batch back out of its shard's queue and re-route it
# (charged one pattern-switch-equivalent, like a crash failover),
# "running" additionally retracts the shard's in-flight batch through
# the same machinery crash recovery uses — the full original membership
# re-executes, so completed outputs stay bit-identical
PREEMPT_POLICIES = ("off", "queued", "running")


@dataclass
class ShardFault:
    """One scheduled event on one simulated device.

    - ``crash`` — the shard goes down at ``at_s`` for ``duration_s``
      simulated seconds (``inf`` = permanently); queued and in-flight
      work fails over to healthy shards.
    - ``stall`` — the shard freezes for ``duration_s`` (its clock jumps
      past the window); timing only, no work is lost.
    - ``slow`` — the shard's compute runs ``factor``× slower until the
      window ends; timing only, outputs are untouched.
    """

    kind: str
    shard_id: int
    at_s: float
    duration_s: float = float("inf")
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; options: {list(FAULT_KINDS)}")
        if self.shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if not math.isfinite(self.at_s) or self.at_s < 0:
            raise ValueError("fault time must be finite and non-negative")
        if math.isnan(self.duration_s) or self.duration_s <= 0:
            raise ValueError("fault duration must be positive")
        if self.kind != "crash" and not math.isfinite(self.duration_s):
            raise ValueError(f"{self.kind} windows must have a finite duration")
        if self.kind == "slow" and self.factor <= 1.0:
            raise ValueError("slowdown factor must be > 1")

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass
class FaultPlan:
    """A deterministic schedule of shard faults for one serving session.

    Times are simulated seconds from session start (the offline
    :meth:`~repro.serve.engine.ServeEngine.serve` wrapper builds a fresh
    session per trace, so a plan replays identically on every call).
    """

    events: List[ShardFault] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def ordered(self) -> List[ShardFault]:
        """Events in deterministic injection order."""
        return sorted(self.events,
                      key=lambda f: (f.at_s, f.shard_id,
                                     FAULT_KINDS.index(f.kind)))

    @classmethod
    def outage(cls, shard_id: int, at_s: float,
               duration_s: float = float("inf")) -> "FaultPlan":
        """The acceptance shape: one shard down for one window."""
        return cls([ShardFault("crash", shard_id, at_s, duration_s)])

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI spec: ``kind:shard@at[+duration][xfactor],...``

        Examples: ``crash:1@0.2+0.3`` (shard 1 down 0.2s–0.5s),
        ``crash:0@1.0`` (permanent), ``slow:2@0.1+0.2x3`` (3× slower),
        ``stall:0@0.5+0.05``.  Times are simulated seconds.
        """
        events: List[ShardFault] = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            try:
                kind, rest = part.split(":", 1)
                shard_txt, timing = rest.split("@", 1)
                factor = 1.0
                if "x" in timing:
                    timing, factor_txt = timing.split("x", 1)
                    factor = float(factor_txt)
                if "+" in timing:
                    at_txt, dur_txt = timing.split("+", 1)
                    at_s, duration_s = float(at_txt), float(dur_txt)
                else:
                    at_s, duration_s = float(timing), float("inf")
                events.append(ShardFault(kind.strip(), int(shard_txt),
                                         at_s, duration_s, factor))
            except (ValueError, IndexError) as exc:
                raise ConfigError(
                    "faults", f"bad fault spec {part!r} (expected "
                    f"kind:shard@at[+duration][xfactor]): {exc}") from exc
        require(bool(events), "faults", "fault spec parsed to zero events")
        return cls(events)


@dataclass
class ShedRecord:
    """One request the engine refused instead of silently losing.

    ``reason`` is one of ``deadline`` (estimated completion already past
    the SLO at admission), ``queue_full`` (bounded admission queue),
    ``tenant_quota`` (the request's tenant exhausted its weighted share
    of the bounded queue), or ``no_device`` (no shard up and none coming
    back).
    """

    request: InferenceRequest
    time_s: float
    reason: str
    est_completion_s: Optional[float] = None


@dataclass
class CancelRecord:
    """One request retracted by an explicit cancellation.

    Cancellation is a *terminal* state distinct from shedding (the
    client withdrew the request; the engine did not refuse it) and from
    the internal crash-retraction flag on results (which implies a
    re-execution).  ``where`` says how far the request had travelled
    when the cancel caught it: ``pre_admission`` (cancel landed before
    the arrival event), ``admission`` (waiting in an open micro-batch
    group), ``queued`` (member of a batch queued on a device),
    ``parked`` (held through a total outage), ``decode_pending``
    (decode stream not yet admitted to a lane), or ``inflight`` (result
    retracted before its completion instant; the device time already
    spent is not refunded).  Conservation extends to
    ``completed + shed + cancelled == submitted``.
    """

    request: InferenceRequest
    time_s: float
    where: str


class ParkedWork:
    """Batches and decode jobs routed while no shard is up, held until
    one rejoins (or shed when no recovery is coming).  ``ledger`` (an
    :class:`~repro.serve.admission.AdmissionControl`) counts them as live
    for the tenant quotas, never toward the queue-full backlog."""

    def __init__(self, ledger) -> None:
        self.batches: List = []  # QueuedBatch, in parking order
        self.jobs: List = []  # DecodeJob, in parking order
        self.ledger = ledger

    def __bool__(self) -> bool:
        return bool(self.batches or self.jobs)

    def park(self, batches, jobs) -> None:
        for batch in batches:
            self.batches.append(batch)
            self.ledger.hold_batch(batch, 0)
        for job in jobs:
            self.jobs.append(job)
            self.ledger.hold({job.request.tenant: 1})

    def unpark(self, now_s: float) -> Tuple[List, List]:
        """Hand back (and stop counting) everything parked, in parking
        order; batches become ready no earlier than ``now_s``."""
        batches, self.batches = self.batches, []
        jobs, self.jobs = self.jobs, []
        for batch in batches:
            self.ledger.release_batch(batch, 0)
            batch.ready_s = max(batch.ready_s, now_s)
        for job in jobs:
            self.ledger.release({job.request.tenant: 1})
        return batches, jobs

    def cancel(self, req_id: int, now_s: float) -> Optional[CancelRecord]:
        """Withdraw ``req_id`` if parked (a batch left with no live member
        is dropped); ``None`` otherwise."""
        for batch in self.batches:
            req = batch.cancel_member(req_id, self.ledger)
            if req is not None:
                if len(batch.done_ids) == len(batch):
                    self.batches.remove(batch)
                    self.ledger.release_batch(batch, 0)
                return CancelRecord(req, now_s, "parked")
        for job in self.jobs:
            if job.request.req_id == req_id:
                self.jobs.remove(job)
                self.ledger.release({job.request.tenant: 1})
                return CancelRecord(job.request, now_s, "decode_pending")
        return None
