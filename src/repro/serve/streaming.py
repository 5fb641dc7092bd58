"""Event-driven streaming serving core: submit / tick / drain.

The paper's whole argument is *run-time* reconfigurability — the device
reacts to battery, bandwidth and deadline pressure as requests arrive —
so the serving core is an online admission loop, not a trace compiler.
:class:`StreamingEngine` maintains one global event heap over simulated
time with three event kinds:

- **arrival** — a submitted request reaches the admission queue
  (:class:`~repro.serve.batcher.AdmissionQueue`); compatible requests
  (same V/F level + feasible pattern sparsity) accumulate in an open
  micro-batch group;
- **batch-window close** — an open group's batching window
  (``window_s`` past its first member) expires and the partial batch
  is admitted; a group that reaches ``max_batch`` is admitted
  immediately at the filling arrival instead;
- **shard ready** — a simulated device is idle and has a dispatchable
  batch; it picks its next batch per its drain policy
  (:meth:`~repro.serve.sharding.DeviceShard.pop_next`), the engine
  resolves the operating point against *that device's* installed
  pattern state, executes one padded vectorized forward, and advances
  the device clock by switch cost plus the time-sliced batch service.

Admitted batches are routed at admission time by the
:class:`~repro.serve.sharding.Dispatcher` — this is where continuous
batching wins throughput and tail latency: placement happens the moment
a batch forms, with the load/pattern-residency picture of that instant.

The caller owns the clock: :meth:`submit` files a request (its arrival
may be now or in the future), :meth:`tick` advances simulated time and
returns the requests that completed by then, :meth:`drain` runs the
loop to exhaustion.  The semantics are *tick-granularity independent* —
any schedule of ``tick`` calls (including none: submit everything and
``drain``) yields the same admissions, placements and simulated
timeline for the same arrival stream, which is exactly how the offline
:meth:`~repro.serve.engine.ServeEngine.serve` wrapper reproduces its
historical behaviour on top of this loop.

At equal simulated times, fault events land first, then cancellations,
then arrivals, then window closes, then shard executions (then
submission order), so ties are deterministic — a crash at a cancel's
instant has already failed its work over before the cancel goes
looking for it (cancel-during-failover is well-defined).

Fault tolerance (:mod:`repro.serve.faults`) folds into the same heap: a
:class:`~repro.serve.faults.FaultPlan` schedules crash/stall/slow
events, a crashed shard's queued and in-flight work fails over to
healthy shards through the same dispatcher (each requeued batch is
charged one pattern-switch-equivalent at execution), downed shards are
re-probed at exponentially backed-off intervals, and admission gains
two overload defenses (``shed_policy``/``max_queue``): deadline-aware
shedding and graceful degradation to sparser pattern rungs, decided by
:class:`~repro.serve.admission.AdmissionControl` *before* a request
touches the admission queue — which keeps every completed output
bit-identical to a fault-free serve of the survivors (the faults
bench's core invariant, alongside conservation:
``completed + shed + cancelled == submitted``).

Three scheduler-side defenses ride the same heap:

- **preemption** (``preempt_policy``) — when a freshly admitted batch
  would miss its SLO budget behind longer work on its shard, the
  scheduler may pull a looser-budget *queued* batch back out and
  re-route it (``"queued"``), or additionally retract the shard's
  in-flight batch through the crash-retraction machinery
  (``"running"``).  A preempted batch is requeued with the same
  pattern-switch-equivalent penalty as a crash failover and re-executes
  on its *full original membership*, so every completed output stays
  bit-identical;
- **cancellation** — :meth:`StreamingEngine.cancel` (or the engine-wide
  ``cancel_after_s`` client timeout) retracts a request wherever it is
  — pre-arrival, open admission group, queued/parked batch, pending
  decode job, or in-flight result — as a new *terminal* state recorded
  in :class:`~repro.serve.faults.CancelRecord`;
- **per-tenant isolation** (``tenant_weights``) — with a bounded queue,
  each tenant owns a weighted share of the admission slots; a tenant
  flooding past its share is shed (``tenant_quota``) by the same
  admission control while every other tenant keeps admitting (every
  share is at least one slot).

Fault and cancellation state lives with the work it touches; the engine
keeps the heap, dispatch, fault events and the preemption decision.
Each :class:`~repro.serve.sharding.DeviceShard` keeps its last executed
batch or decode boundary (:class:`~repro.serve.sharding.InFlight`) and
takes results back through one method for a crash, a running preemption
or a cancel; outage-parked work waits in one
:class:`~repro.serve.faults.ParkedWork`; each holder (admission queue,
device, parked work) withdraws a cancelled request from its own stage
and reports its own work to the admission-control counters.

Every knob named above is a field of the engine's
:class:`~repro.serve.config.ServeConfig`, validated once when that
config is built.

The engine keeps every result it emits (:meth:`StreamingEngine.report`
counts ``completed`` from them) and runs no verification of its own:
conservation and exactness are checked after the fact, from one place,
by :mod:`repro.serve.invariants`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.runtime_policy import AdaptationEvent, RuntimeAdapter
from repro.hardware.dvfs import DVFSTable, VFLevel
from repro.nn.generation import DecodeSession, GenerationConfig
from repro.nn.inference import compile_inference, require_eval
from repro.hardware.latency import SparsityKind
from repro.serve.admission import AdmissionControl
from repro.serve.batcher import (
    AdmissionQueue,
    FlushedGroup,
    InferenceRequest,
    RequestResult,
    run_padded,
)
from repro.serve.cache import ArtifactCache, CacheStats
from repro.serve.config import ServeConfig
from repro.serve.decode import DecodeJob, DecodeOptions
from repro.serve.faults import CancelRecord, ParkedWork, ShardFault, ShedRecord
from repro.serve.sharding import (
    DeviceShard,
    Dispatcher,
    QueuedBatch,
    ShardStats,
)

# event-kind priorities: at one simulated instant, fault events land
# before cancellations before admissions before batch windows close
# before devices pick their next batch (a crash at an arrival's instant
# is visible to that arrival; a cancel at a crash's instant sees the
# failed-over work, so cancel-during-failover is deterministic)
_FAULT, _CANCEL = -2, -1
_ARRIVAL, _WINDOW_CLOSE, _SHARD_READY = 0, 1, 2


@dataclass
class ServeReport:
    """Aggregate outcome of one serving run."""

    results: List[RequestResult] = field(default_factory=list)
    events: List[AdaptationEvent] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None
    shard_stats: List[ShardStats] = field(default_factory=list)
    policy: str = "round-robin"
    time_sliced: bool = True
    # fault-tolerance accounting: requests refused at admission (with
    # reasons) and requests withdrawn by cancellation; with the results
    # they are the terminal records the conservation identity counts
    shed: List[ShedRecord] = field(default_factory=list)
    cancelled: List[CancelRecord] = field(default_factory=list)
    submitted: int = 0

    # -- request-level aggregates --------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        """Requests that completed: one result record each."""
        return len(self.results)

    @property
    def num_batches(self) -> int:
        return len(self.events)

    @property
    def mean_batch_size(self) -> float:
        return self.num_requests / self.num_batches if self.num_batches else 0.0

    @property
    def throughput_rps(self) -> float:
        """Measured wall-clock requests/second of the Python hot path."""
        return self.num_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def sim_makespan_s(self) -> float:
        return max((r.completion_s for r in self.results), default=0.0)

    @property
    def sim_throughput_rps(self) -> float:
        """Requests/second on the simulated device timeline."""
        span = self.sim_makespan_s
        return self.num_requests / span if span > 0 else 0.0

    @property
    def sim_busy_s(self) -> float:
        """Total simulated device busy time across all shards."""
        return sum(s.busy_s for s in self.shard_stats)

    @property
    def service_throughput_rps(self) -> float:
        """Requests/second of busy device time — batching efficiency.

        Unlike :attr:`sim_throughput_rps` (bounded by the arrival span
        under light load), this measures how much work one second of
        device time buys, which is what a larger admission window trades
        latency for.
        """
        busy = self.sim_busy_s
        return self.num_requests / busy if busy > 0 else 0.0

    @property
    def devices(self) -> int:
        return max(1, len(self.shard_stats))

    def latency_percentile(self, q: float) -> float:
        if not self.results:
            return 0.0
        return float(np.percentile([r.latency_s for r in self.results], q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def deadline_hit_rate(self) -> float:
        if not self.results:
            return 0.0
        # "deadline" in serving reports means the end-to-end SLO
        return sum(1 for r in self.results if r.met_slo) / len(self.results)

    @property
    def num_switches(self) -> int:
        return sum(1 for e in self.events if e.switched)

    @property
    def decode_tokens(self) -> int:
        """Decode-lane tokens emitted across all devices."""
        return sum(s.decode_tokens for s in self.shard_stats)

    @property
    def decode_streams(self) -> int:
        """Decode streams completed across all devices."""
        return sum(s.decode_streams for s in self.shard_stats)

    @property
    def violations(self) -> int:
        """Batches whose compute deadline no pattern set could meet."""
        return sum(1 for e in self.events if e.chosen_sparsity is None)

    # -- fault-tolerance aggregates ------------------------------------
    @property
    def num_shed(self) -> int:
        return len(self.shed)

    @property
    def shed_rate(self) -> float:
        return self.num_shed / self.submitted if self.submitted else 0.0

    @property
    def num_cancelled(self) -> int:
        return len(self.cancelled)

    @property
    def conserved(self) -> bool:
        """No request lost: completed + shed + cancelled == submitted."""
        return (self.completed + self.num_shed + self.num_cancelled
                == self.submitted)

    @property
    def degraded_requests(self) -> int:
        """Completions served at a degraded (sparser) operating point."""
        return sum(1 for r in self.results if r.degraded)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.shard_stats)

    @property
    def recoveries(self) -> int:
        return sum(s.recoveries for s in self.shard_stats)

    @property
    def requeued_batches(self) -> int:
        """Batches pulled off dead shards and failed over."""
        return sum(s.requeued_batches for s in self.shard_stats)

    @property
    def stalls(self) -> int:
        return sum(s.stalls for s in self.shard_stats)

    @property
    def max_recovery_lag_s(self) -> float:
        """Worst probe-detection lag past a shard's physical recovery."""
        return max((s.recovery_lag_s for s in self.shard_stats), default=0.0)

    @property
    def preemptions(self) -> int:
        """Batches pulled back (queued or in-flight) for a tighter deadline."""
        return sum(s.preempted_batches for s in self.shard_stats)

    # -- per-tenant isolation aggregates --------------------------------
    def tenant_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Terminal-state counts per tenant (completed/shed/cancelled).

        Built from the result/shed/cancel records, so under
        conservation the per-tenant counts sum to that tenant's
        submissions.
        """
        out: Dict[str, Dict[str, int]] = {}

        def slot(tenant: str) -> Dict[str, int]:
            return out.setdefault(tenant, {
                "completed": 0, "shed": 0, "cancelled": 0,
                "degraded": 0, "slo_misses": 0})

        for r in self.results:
            s = slot(r.request.tenant)
            s["completed"] += 1
            if r.degraded:
                s["degraded"] += 1
            if not r.met_slo:
                s["slo_misses"] += 1
        for rec in self.shed:
            slot(rec.request.tenant)["shed"] += 1
        for rec in self.cancelled:
            slot(rec.request.tenant)["cancelled"] += 1
        return out

    @property
    def starved_tenants(self) -> List[str]:
        """Tenants that saw traffic reach a terminal state yet completed
        nothing — the condition the weighted fair shares exist to
        prevent (a tenant whose every request was shed or cancelled)."""
        return sorted(t for t, s in self.tenant_breakdown().items()
                      if s["completed"] == 0)

    def summary(self) -> dict:
        """Machine-readable digest (consumed by the bench JSON output)."""
        out = {
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "throughput_rps": self.throughput_rps,
            "sim_throughput_rps": self.sim_throughput_rps,
            "p50_latency_ms": 1e3 * self.p50_latency_s,
            "p95_latency_ms": 1e3 * self.p95_latency_s,
            "deadline_hit_rate": self.deadline_hit_rate,
            "switches": self.num_switches,
            "violations": self.violations,
            "wall_seconds": self.wall_seconds,
            "devices": self.devices,
            "policy": self.policy,
            "time_sliced": self.time_sliced,
        }
        if self.decode_tokens:
            out["decode_streams"] = self.decode_streams
            out["decode_tokens"] = self.decode_tokens
        if (self.shed or self.cancelled or self.degraded_requests
                or self.failures or self.stalls or self.preemptions):
            # only when fault/overload/scheduler traffic actually
            # happened, so the committed fault-free bench digests replay
            # unchanged
            reasons: Dict[str, int] = {}
            for rec in self.shed:
                reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
            out["faults"] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "shed": self.num_shed,
                "shed_rate": self.shed_rate,
                "shed_reasons": reasons,
                "cancelled": self.num_cancelled,
                "preemptions": self.preemptions,
                "conserved": self.conserved,
                "degraded_requests": self.degraded_requests,
                "failures": self.failures,
                "recoveries": self.recoveries,
                "requeued_batches": self.requeued_batches,
                "retried_batches": sum(s.retried_batches
                                       for s in self.shard_stats),
                "retry_penalty_s": sum(s.retry_penalty_s
                                       for s in self.shard_stats),
                "stalls": self.stalls,
                "max_recovery_lag_ms": 1e3 * self.max_recovery_lag_s,
            }
        breakdown = self.tenant_breakdown()
        if set(breakdown) - {"default"}:
            # multi-tenant traffic only: single-tenant digests replay
            # byte-identically
            out["tenants"] = breakdown
        if self.shard_stats:
            makespan = self.sim_makespan_s
            out["shards"] = [s.as_dict(makespan) for s in self.shard_stats]
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats.as_dict()
        return out


class StreamingEngine:
    """Online admit/tick serving loop over N simulated devices.

    One live serving *session*: simulated time only moves forward, and
    the engine holds the admission queue, the dispatcher, and the device
    shards (with their installed-pattern state) for its whole lifetime.
    ``adapter`` supplies the sparsity ladder, latency model and (via its
    ``manager``) the mask installation path; ``config`` holds every knob
    (:class:`~repro.serve.config.ServeConfig`, kept as given, never
    copied); ``cache`` memoizes mask derivation across batches.

    ``initial_device_state`` maps shard id → installed sparsity for
    devices provisioned before this session (a device that served an
    earlier trace keeps its masks); unlisted shards start from the
    adapter's own installed state.
    """

    def __init__(self, model, adapter: RuntimeAdapter,
                 config: ServeConfig = ServeConfig(), *,
                 cache: Optional[ArtifactCache] = None,
                 initial_device_state: Optional[Dict[int, Optional[float]]] = None
                 ) -> None:
        self.config = config
        self.model = model
        self.adapter = adapter
        self.cache = cache
        if cache is not None and adapter.manager is not None:
            adapter.manager.attach_cache(cache)
        self.dvfs = DVFSTable()
        # every batch and decode step runs the compiled zero-autograd
        # plan (bit-identical to the eager path); it is built on the
        # first executed batch and compiles once per distinct weight and
        # mask signature (O(1) token check), so a switch back to a
        # ladder rung already served is a program lookup
        self._plan = None
        # the managed layers' masks as _install last left them
        self._resident: Optional[List[Optional[np.ndarray]]] = None
        self.ladder: Dict[float, object] = dict(adapter.candidates)
        self.fallback_sparsity: float = adapter.candidates[-1][0]
        self._switch_cost_s: Dict[float, float] = {
            sparsity: adapter.reconfigurator.pattern_switch(
                adapter.workload, len(pset),
                adapter.hardware_pattern_size).seconds
            for sparsity, pset in self.ladder.items()}
        # overload defenses plus the backlog counters they read; every
        # waiting stage below reports its arrivals and departures to it
        self.admission_control = AdmissionControl(config, adapter, self.dvfs)
        self.admission = AdmissionQueue(config.max_batch, config.window_s,
                                        key_fn=self._compat_key,
                                        ledger=self.admission_control)
        self.dispatcher = Dispatcher(config.policy,
                                     switch_cost_s=self._switch_cost_s)
        self.shards = [DeviceShard(
            i, drain_policy=config.drain_policy,
            fairness_window=config.fairness_window,
            adaptive_window=config.adaptive_window,
            adaptive_threshold=config.adaptive_threshold,
            adaptive_low_threshold=config.adaptive_low_threshold,
            ledger=self.admission_control)
            for i in range(config.devices)]
        state = dict(initial_device_state or {})
        for shard in self.shards:
            # a device resumes with whatever it had installed last session;
            # otherwise it inherits the adapter's provisioning (deploy-time
            # installs are shared — every replica ships with the masks)
            shard.active_sparsity = state.get(shard.shard_id,
                                              adapter.active_sparsity)
            shard.expected_sparsity = shard.active_sparsity
        # -- event loop state ------------------------------------------
        self.now_s = 0.0
        self._heap: List[Tuple[float, int, int, object]] = []
        self._tiebreak = itertools.count()
        self._seq = 0
        self._results: List[RequestResult] = []
        self._pending_done: List[Tuple[float, int, RequestResult]] = []
        self._events: List[Tuple[int, AdaptationEvent]] = []
        self._prewarmed: set = set()
        self._scheduled_ready: Dict[int, float] = {}
        self._wall = 0.0
        self._cache_start = (cache.stats.snapshot()
                             if cache is not None else None)
        # -- cancellation -----------------------------------------------
        self._cancelled: List[CancelRecord] = []
        # requests cancelled before their arrival event was processed,
        # and the ids whose arrivals have been processed (so a cancel
        # can tell "not arrived yet" from "already terminal")
        self._cancel_pending: set = set()
        self._arrived: set = set()
        self._shed: List[ShedRecord] = []
        self._submitted = 0
        # work that had nowhere to go during a total outage, held until
        # a shard rejoins (or shed if the last recovery is cancelled)
        self.parked = ParkedWork(self.admission_control)
        for f in config.faults.ordered() if config.faults is not None else ():
            heapq.heappush(self._heap, (f.at_s, _FAULT, next(self._tiebreak),
                                        ("fault", f)))

    # ------------------------------------------------------------------
    @property
    def decode_options(self) -> DecodeOptions:
        """Defaults for decode requests submitted without their own config."""
        return self.config.decode

    def _forward(self):
        """The compiled zero-autograd forward plan, built on first use.

        A model the plan cannot serve fails here, on the first executed
        batch or decode step: :class:`~repro.nn.inference.UnsupportedModel`
        for an unknown architecture, ``ValueError`` for a model left in
        training mode.
        """
        if self._plan is None:
            self._plan = compile_inference(self.model)
        return self._plan

    def _decode_session(self) -> DecodeSession:
        """A fresh lane session.  It holds no plan yet: each tick attaches
        the engine-wide plan after installing the group's rung, so a fresh
        engine compiles once, for the rung it actually serves.  The
        session puts the model in eval mode, so a train-mode model is
        refused here first, as its first batch would be."""
        require_eval(self.model.modules())
        return DecodeSession(self.model, compiled=False)

    def _compat_key(self, request: InferenceRequest) -> Hashable:
        """Requests batch together iff they resolve to one operating point."""
        level = self.dvfs[request.level_name]
        sparsity = self.adapter.feasible_sparsity(level, request.deadline_s)
        return (request.level_name, sparsity)

    def device_state(self) -> Dict[int, Optional[float]]:
        """Installed sparsity per device (to seed a follow-up session)."""
        return {s.shard_id: s.active_sparsity for s in self.shards}

    def next_event_s(self) -> Optional[float]:
        """Simulated time of the next pending event or completion."""
        times = []
        if self._heap:
            times.append(self._heap[0][0])
        if self._pending_done:
            times.append(self._pending_done[0][0])
        return min(times) if times else None

    # ------------------------------------------------------------------
    # public loop API
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest,
               arrival_s: Optional[float] = None) -> None:
        """File one request; it reaches admission at its arrival time.

        ``arrival_s`` overrides the request's own ``arrival_s`` (the
        request is restamped).  Arrivals may not predate simulated time
        already ticked past — the loop cannot rewrite history.
        """
        start = time.perf_counter()
        self._file(request, request, arrival_s)
        self._wall += time.perf_counter() - start

    def submit_decode(self, request: InferenceRequest,
                      config: Optional[GenerationConfig] = None,
                      arrival_s: Optional[float] = None) -> None:
        """File one decode stream: ``request.tokens`` is the prompt.

        The stream is routed at arrival and joins its device's rolling
        decode batch at the next token boundary; it leaves on eos or
        after ``max_new_tokens`` (from ``config`` or the engine's
        :class:`DecodeOptions` defaults).  Its completion surfaces
        through :meth:`tick`/:meth:`drain` like any request, with
        ``output`` a :class:`~repro.nn.generation.GenerationResult`.
        """
        start = time.perf_counter()
        cfg = (config if config is not None
               else self.decode_options.generation_config()).validate()
        self._file(request, DecodeJob(request=request, config=cfg), arrival_s)
        self._wall += time.perf_counter() - start

    def _file(self, request: InferenceRequest, payload,
              arrival_s: Optional[float]) -> None:
        """Restamp, check and push one arrival (a request or decode job)."""
        if arrival_s is not None:
            request.arrival_s = arrival_s
        if request.arrival_s < self.now_s:
            raise ValueError(
                f"request {request.req_id} arrives at {request.arrival_s:.6f}s "
                f"but the loop already advanced to {self.now_s:.6f}s")
        self._submitted += 1
        heapq.heappush(self._heap, (request.arrival_s, _ARRIVAL,
                                    next(self._tiebreak), payload))

    def cancel(self, request_id: int,
               at_s: Optional[float] = None) -> None:
        """Withdraw a request; the retraction lands at ``at_s`` (or now).

        The cancel is an event on the global heap — ordered after fault
        events and before arrivals at the same instant — so any schedule
        of submits/ticks retracts exactly the same work.  Whatever stage
        the request has reached (pre-arrival, open admission group,
        queued or parked batch, pending decode job, in-flight result
        not yet at its completion instant) it is pulled back and
        recorded as a :class:`~repro.serve.faults.CancelRecord`; a
        request that already completed (or was shed) is left alone — the
        cancel arrived too late and is a no-op.  In-flight device time
        is not refunded: the retracted member's result is suppressed,
        but its batch's clock advance stands.
        """
        when = self.now_s if at_s is None else at_s
        if when < self.now_s:
            raise ValueError(
                f"cancel of request {request_id} at {when:.6f}s predates "
                f"simulated time {self.now_s:.6f}s")
        heapq.heappush(self._heap, (when, _CANCEL, next(self._tiebreak),
                                    request_id))

    def tick(self, until_s: float) -> List[RequestResult]:
        """Advance simulated time to ``until_s``; completions in order.

        Processes every event (arrival, window close, shard execution)
        due by ``until_s`` and returns the requests whose simulated
        completion lands at or before it, ordered by completion time.

        Submit every arrival at or before ``until_s`` *before* ticking
        to it: the heap orders same-instant arrivals ahead of window
        closes, but a tick cannot wait for arrivals it has not been
        handed yet — ticking to ``t`` and only then submitting a
        ``t``-stamped request lets a window deadline at exactly ``t``
        close first (the loop cannot know more arrivals share the
        instant).
        """
        if until_s < self.now_s:
            raise ValueError("simulated time must advance monotonically")
        start = time.perf_counter()
        self._advance(until_s)
        self.now_s = max(self.now_s, until_s)
        out = self._release(until_s)
        self._wall += time.perf_counter() - start
        return out

    def drain(self) -> List[RequestResult]:
        """Run the loop to exhaustion; every remaining completion."""
        start = time.perf_counter()
        self._advance(None)
        out = self._release(float("inf"))
        self._wall += time.perf_counter() - start
        return out

    def play(self, requests, *, drain: bool = True) -> List[RequestResult]:
        """Feed an arrival-ordered request stream through the loop online.

        The one correct feeding discipline, shared by the CLI, the
        streaming bench and the tests: each request is submitted, and
        simulated time advances *lagging one arrival behind* — the loop
        only ticks to an instant once every arrival at that instant has
        been submitted, so same-instant ties batch exactly as the
        offline wrapper would (ticking eagerly to each arrival would let
        a window deadline at that instant close ahead of its same-time
        peers).  With ``drain=True`` the tail runs to exhaustion.
        Returns the released completions in completion order.
        """
        out: List[RequestResult] = []
        prev: Optional[float] = None
        for request in requests:
            if prev is not None and request.arrival_s > prev:
                out.extend(self.tick(prev))
            self.submit(request)
            prev = request.arrival_s
        if drain:
            out.extend(self.drain())
        return out

    def report(self) -> ServeReport:
        """Digest of everything executed so far (deterministic order)."""
        report = ServeReport(policy=self.config.policy,
                             time_sliced=self.config.time_sliced)
        report.results = sorted(
            (r for r in self._results if not r.canceled),
            key=lambda r: (r.batch_id, r.request.req_id))
        report.events = [e for _, e in sorted(self._events,
                                              key=lambda t: t[0])]
        report.shard_stats = [s.stats for s in self.shards]
        report.shed = list(self._shed)
        report.cancelled = list(self._cancelled)
        report.submitted = self._submitted
        report.wall_seconds = self._wall
        if self.cache is not None:
            # delta over this session only: each report describes its own
            # run, not the cache's lifetime
            end = self.cache.stats
            report.cache_stats = CacheStats(
                hits=end.hits - self._cache_start.hits,
                misses=end.misses - self._cache_start.misses,
                evictions=end.evictions - self._cache_start.evictions,
                invalidations=end.invalidations - self._cache_start.invalidations)
        return report

    # ------------------------------------------------------------------
    # event loop internals
    # ------------------------------------------------------------------
    def _advance(self, horizon_s: Optional[float]) -> None:
        while self._heap:
            when, kind, _, payload = self._heap[0]
            if horizon_s is not None and when > horizon_s:
                return
            heapq.heappop(self._heap)
            self.now_s = max(self.now_s, when)
            if kind == _FAULT:
                self._on_fault(payload, when)
            elif kind == _CANCEL:
                self._on_cancel(payload, when)
            elif kind == _ARRIVAL:
                self._on_arrival(payload, when)
            elif kind == _WINDOW_CLOSE:
                key, generation = payload
                group = self.admission.close_generation(key, generation)
                if group is not None:
                    self._admit(group)
            else:  # _SHARD_READY
                self._on_shard_ready(payload, when)
        if horizon_s is None and self.parked:
            # drain must never hang: if the heap is exhausted with work
            # still parked, no recovery is coming (the probe chain was
            # abandoned by a permanent outage) — shed, don't lose
            self._shed_unroutable(*self.parked.unpark(self.now_s))

    # ------------------------------------------------------------------
    # fault handling (crash / failover / probe / stall / slow)
    # ------------------------------------------------------------------
    def _shards_or_park(self, batches: Sequence[QueuedBatch] = (),
                        jobs: Sequence[DecodeJob] = ()) -> List[DeviceShard]:
        """The shards up now.  With none, the work that needs one is
        parked while a recovery is scheduled, else shed."""
        avail = [s for s in self.shards if s.available]
        if avail:
            return avail
        if any(s.down_until is not None and np.isfinite(s.down_until)
               for s in self.shards):
            self.parked.park(batches, jobs)
        else:
            self._shed_unroutable(batches, jobs)
        return avail

    def _shed_unroutable(self, batches: Sequence[QueuedBatch],
                         jobs: Sequence[DecodeJob]) -> None:
        """No shard is up and none is coming back: shed, don't lose."""
        reqs = [r for qb in batches for r in qb.requests
                if r.req_id not in qb.done_ids]
        self._shed.extend(ShedRecord(r, self.now_s, "no_device")
                          for r in reqs + [job.request for job in jobs])

    def _push_fault(self, when: float, payload: tuple) -> None:
        heapq.heappush(self._heap,
                       (when, _FAULT, next(self._tiebreak), payload))

    def _on_fault(self, payload: tuple, now: float) -> None:
        op = payload[0]
        if op == "fault":
            f: ShardFault = payload[1]
            shard = self.shards[f.shard_id]
            if f.kind == "crash":
                self._crash_shard(shard, now, f.duration_s)
            elif f.kind == "stall" and shard.available:
                shard.stall(now + f.duration_s)
                self._push_fault(now + f.duration_s,
                                 ("window_end", f.shard_id))
            elif f.kind == "slow" and shard.available:
                shard.slow(f.factor)
                self._push_fault(now + f.duration_s,
                                 ("slow_end", f.shard_id))
        elif op == "probe":
            _, shard_id, interval = payload
            shard = self.shards[shard_id]
            if shard.available:
                return  # stale probe: the shard already rejoined
            if shard.down_until is None or not np.isfinite(shard.down_until):
                return  # the outage became permanent: abandon the chain
            if now >= shard.down_until:
                self._rejoin_shard(shard, now)
            else:
                # exponential backoff: each missed probe doubles the wait,
                # so a long outage costs O(log) probes and the detection
                # lag is bounded by the last interval
                self._push_fault(now + 2 * interval,
                                 ("probe", shard_id, 2 * interval))
        elif op == "slow_end":
            self.shards[payload[1]].slow_end()
        else:  # "window_end": a stall window closed
            self.shards[payload[1]].restore()

    def _crash_shard(self, shard: DeviceShard, now: float,
                     duration_s: float) -> None:
        went_down = shard.available
        batches, jobs = shard.fail(now, now + duration_s)
        if not went_down:
            return  # overlapping crash: the outage was extended, that's all
        if np.isfinite(duration_s):
            backoff = self.config.probe_backoff_s
            self._push_fault(now + backoff, ("probe", shard.shard_id, backoff))
        self._redispatch(batches, jobs)

    def _rejoin_shard(self, shard: DeviceShard, now: float) -> None:
        shard.rejoin(now)
        self._redispatch(*self.parked.unpark(now))
        self._schedule_shard(shard)

    def _redispatch(self, batches: List[QueuedBatch],
                    jobs: List[DecodeJob]) -> None:
        for qb in batches:
            self._dispatch_batch(qb)
        for job in jobs:
            self._dispatch_decode(job)

    def _dispatch_batch(self, qb: QueuedBatch) -> Optional[DeviceShard]:
        """Route a batch over the *available* shards (park/shed if none)."""
        avail = self._shards_or_park(batches=[qb])
        if not avail:
            return None
        shard = self.dispatcher.route(qb, avail)
        self._schedule_shard(shard)
        return shard

    def _dispatch_decode(self, job: DecodeJob) -> None:
        """Route a decode job to an available shard's lane (park/shed)."""
        avail = self._shards_or_park(jobs=[job])
        if not avail:
            return
        sparsity = job.compat_key[1]
        probe = QueuedBatch(-1, [job.request], job.request.level_name,
                            self.now_s, job.est_service_s, sparsity=sparsity)
        shard = self.dispatcher.place(probe, avail)
        # the lane consumes load like an enqueued batch would, minus the
        # queue itself: the stream holds its device one token at a time
        shard.assigned_est_s += job.est_service_s
        if sparsity is not None:
            shard.expected_sparsity = sparsity
        shard.decode.add_pending(job)
        self._schedule_shard(shard)

    # ------------------------------------------------------------------
    # cancellation (explicit client withdrawal — a terminal state)
    # ------------------------------------------------------------------
    def _on_cancel(self, req_id: int, now: float) -> None:
        """Retract ``req_id`` from wherever it currently lives.

        Each holder — the admission queue, every device (queued batches,
        pending decode jobs, in-flight results) and the parked work —
        answers for its own stage.  At most one stage holds a request at
        any instant, so the search order only affects speed, not
        outcome.  A request found nowhere already reached a terminal
        state (completed, shed, previously cancelled, or an active decode
        stream — which holds live session state and runs to completion):
        the cancel is a deterministic no-op.
        """
        if req_id not in self._arrived:
            self._cancel_pending.add(req_id)
            return
        req = self.admission.remove(req_id)
        if req is not None:
            self._cancelled.append(CancelRecord(req, now, "admission"))
            return
        for holder in (*self.shards, self.parked):
            record = holder.cancel(req_id, now)
            if record is not None:
                self._cancelled.append(record)
                return

    def _on_arrival(self, request: InferenceRequest, now: float) -> None:
        req = request.request if isinstance(request, DecodeJob) else request
        self._arrived.add(req.req_id)
        if req.req_id in self._cancel_pending:
            # cancelled before the arrival was processed: the request
            # never touches admission, exactly like a fault-free serve
            # of the survivors
            self._cancel_pending.discard(req.req_id)
            self._cancelled.append(CancelRecord(req, now, "pre_admission"))
            return
        cancel_after_s = self.config.cancel_after_s
        if cancel_after_s is not None:
            # engine-wide client timeout: every arrival arms a cancel at
            # arrival + cancel_after_s (a no-op if it completes first)
            heapq.heappush(self._heap,
                           (now + cancel_after_s, _CANCEL,
                            next(self._tiebreak), req.req_id))
        if isinstance(request, DecodeJob):
            self._place_decode(request, now)
            return
        if self.admission_control.enabled:
            shed = self.admission_control.admit(request, now, self.admission,
                                                self.shards)
            if shed is not None:
                self._shed.append(shed)
                return
        full, window = self.admission.add(request, now)
        if window is not None:
            deadline, key, generation = window
            heapq.heappush(self._heap, (deadline, _WINDOW_CLOSE,
                                        next(self._tiebreak),
                                        (key, generation)))
        if full is not None:
            self._admit(full)

    def _place_decode(self, job: DecodeJob, now: float) -> None:
        """Route an arrived decode stream to a device's lane."""
        req = job.request
        job.compat_key = self._compat_key(req)
        per_token = self.adapter.batch_latency_s(self.dvfs[req.level_name],
                                                 job.compat_key[1])
        job.est_service_s = per_token * job.config.max_new_tokens
        self._dispatch_decode(job)

    def _admit(self, group: FlushedGroup) -> None:
        """A closed micro-batch enters the system: resolve, route, queue."""
        seq = self._seq
        self._seq += 1
        requests = group.requests
        level = self.dvfs[requests[0].level_name]
        sparsity = self.adapter.feasible_sparsity(
            level, min(r.deadline_s for r in requests))
        est = self.adapter.batch_latency_s(level, sparsity, len(requests))
        qb = QueuedBatch(seq, list(requests), level.name, group.ready_s, est,
                         sparsity=sparsity)
        shard = self._dispatch_batch(qb)
        if shard is None:
            return  # total outage: parked for recovery or shed, not lost
        if (self.config.prewarm and shard.shard_id not in self._prewarmed
                and shard.active_sparsity is None and sparsity is not None):
            # deploy-time provisioning: the device's first pattern set is
            # installed before traffic, so it is not charged to the timeline
            shard.active_sparsity = sparsity
        self._prewarmed.add(shard.shard_id)
        if self.config.preempt_policy != "off":
            self._maybe_preempt(shard, qb, self.now_s)

    # ------------------------------------------------------------------
    # preemption (deadline-driven retraction of placed work)
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_budget(qb: QueuedBatch) -> float:
        """The batch's SLO budget: its tightest live member's deadline."""
        done = set(qb.done_ids)
        return min((r.arrival_s + r.slo for r in qb.requests
                    if r.req_id not in done), default=float("inf"))

    def _maybe_preempt(self, shard: DeviceShard, qb: QueuedBatch,
                       now: float) -> None:
        """Pull looser-budget work off ``qb``'s shard if ``qb`` needs it.

        Runs right after admission routing.  While the freshly placed
        batch's completion estimate overshoots its SLO budget, the
        scheduler retracts the shard's largest *strictly looser-budget*
        queued batch and sends it back through the dispatcher (with a
        fresh sequence number, so it drains behind the preemptor even if
        it lands back here, and one requeue charged — the same
        pattern-switch-equivalent a crash failover pays).  Under
        ``"running"`` the shard's in-flight batch is fair game too,
        retracted through the crash machinery so completed members keep
        their (bit-identical) results and the full original membership
        re-executes.  Every decision is a pure function of the event
        history — preemption is exactly as deterministic and
        tick-granularity independent as the rest of the loop.
        """
        budget = self._batch_budget(qb)
        if not np.isfinite(budget):
            return
        if max(now, qb.ready_s) + qb.est_service_s > budget:
            return  # infeasible even alone: preempting others buys nothing

        def eta() -> float:
            # when qb plausibly completes: the device drains everything
            # ahead of it (clock + pending backlog minus qb itself), then
            # runs qb
            ahead = max(0.0, shard.pending_s - qb.est_service_s)
            return (max(max(shard.clock_s, now) + ahead, qb.ready_s)
                    + qb.est_service_s)

        moved: set = set()
        guard = len(qb.requests) + shard.members + 2
        while eta() > budget and guard > 0:
            guard -= 1
            victims = [v for v in shard.queued_batches()
                       if v.seq != qb.seq and v.seq not in moved
                       and self._batch_budget(v) > budget]
            run = shard.inflight
            victim = None
            if victims:
                victim = max(victims,
                             key=lambda v: (v.est_service_s, -v.seq))
                shard.retract(victim.seq)
            elif (self.config.preempt_policy == "running"
                    and run is not None and run.batch is not None
                    and self._batch_budget(run.batch) > budget):
                victim, _ = shard.retract_running(now)
                if victim is None:
                    # every late member was already cancelled: the
                    # rollback still freed the device at now; re-arm it
                    self._schedule_shard(shard)
                    return
            if victim is None:
                return  # nothing (left) worth preempting
            # a fresh seq orders the victim behind the preemptor under
            # fifo drain wherever it re-lands
            victim.seq = self._seq
            self._seq += 1
            victim.requeues += 1
            victim.ready_s = max(victim.ready_s, now)
            shard.stats.preempted_batches += 1
            moved.add(victim.seq)
            self._dispatch_batch(victim)
            if not victims:
                # the rollback freed the device at now; re-arm it
                self._schedule_shard(shard)

    def _schedule_shard(self, shard: DeviceShard) -> None:
        when = shard.next_event_s()
        if when is None or self._scheduled_ready.get(shard.shard_id) == when:
            return
        self._scheduled_ready[shard.shard_id] = when
        heapq.heappush(self._heap, (when, _SHARD_READY,
                                    next(self._tiebreak), shard.shard_id))

    def _on_shard_ready(self, shard_id: int, now: float) -> None:
        shard = self.shards[shard_id]
        if self._scheduled_ready.get(shard_id) == now:
            del self._scheduled_ready[shard_id]
        if not shard.available:
            return  # stale event for a downed shard; its work failed over
        while True:
            when = shard.next_event_s()
            if when is None:
                return
            if when > now:
                # the device's next chance moved (it just ran a batch, or
                # this event was stale); re-arm and yield the loop
                self._schedule_shard(shard)
                return
            decode_due = shard.decode.due_s(shard.clock_s)
            queue_due = shard.queue_event_s()
            if decode_due is not None and (queue_due is None
                                           or decode_due <= queue_due):
                # token boundaries win ties: the decode lane is the
                # latency-critical traffic and each boundary is short
                self._decode_tick(shard, when)
            else:
                batch = shard.pop_next()
                self._execute(shard, batch)

    # ------------------------------------------------------------------
    # execution (one batch on one device)
    # ------------------------------------------------------------------
    def _resolve_operating_point(self, shard: DeviceShard, level: VFLevel,
                                 qb: QueuedBatch
                                 ) -> Tuple[AdaptationEvent, float, float, bool]:
        """Adaptation decision against the shard's own installed state.

        Returns ``(event, effective_sparsity, switch_seconds, installed)``
        where ``switch_seconds`` is the total reconfiguration cost this
        batch pays on its device (planned switch and/or cold-start
        fallback) and ``installed`` says whether the device physically
        installed a pattern set for this batch (for per-shard switch
        accounting — the fallback install is not an adapter switch, but
        it is a device one).
        """
        event = self.adapter.plan(level,
                                  min(r.deadline_s for r in qb.requests),
                                  shard.active_sparsity, chosen=qb.sparsity)
        effective = event.chosen_sparsity
        switch_s = event.switch.seconds if event.switch is not None else 0.0
        installed = event.switched
        if effective is None:
            # Infeasible deadline: keep whatever this device has installed
            # (no phantom swap).  Only when nothing is installed yet fall
            # back to the sparsest set — a real switch, charged as one.
            if shard.active_sparsity is not None:
                effective = shard.active_sparsity
            else:
                effective = self.fallback_sparsity
                switch_s += self._switch_cost_s[effective]
                installed = True
        shard.active_sparsity = effective
        return event, effective, switch_s, installed

    def _install(self, sparsity: float) -> None:
        """Make ``sparsity``'s pattern set the masks resident on the model.

        A no-op when the manager installed that set last and since then
        no other path set a layer mask and ``invalidate_cache`` did not
        run; anything else goes through ``MaskManager.apply`` and its
        artifact cache.  The shared
        adapter's view follows the masks resident on the model, so code
        mixing the loop with direct ``adapter.adapt`` calls never
        re-charges a switch for an already-installed set.
        """
        manager = self.adapter.manager
        if manager is not None:
            pset = self.ladder[sparsity]
            masks = [lin.mask for lin in manager.layers.values()]
            if (manager.active_set is not pset or self._resident is None
                    or any(m is not r for m, r in zip(masks, self._resident))):
                manager.apply(pset)
                self._resident = [lin.mask for lin in manager.layers.values()]
        self.adapter.active_sparsity = sparsity

    def _execute(self, shard: DeviceShard, qb: QueuedBatch) -> None:
        group = qb.requests
        level = self.dvfs[qb.level_name]
        event, effective, switch_s, installed = \
            self._resolve_operating_point(shard, level, qb)
        self._install(effective)
        outputs = run_padded(self.model, group, forward=self._forward())
        done = set(qb.done_ids)
        if qb.requeues:
            # retry accounting: failing a batch over costs the system one
            # reconfiguration's worth of time per requeue — the new
            # device re-stages the batch like a pattern switch
            penalty = qb.requeues * self._switch_cost_s[effective]
            switch_s += penalty
            shard.stats.retried_batches += 1
            shard.stats.retry_penalty_s += penalty
        offsets = self.adapter.latency.batch_completion_offsets_s(
            self.adapter.workload, level, len(group), effective,
            SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
        if shard.slowdown != 1.0:
            # a slow window stretches compute, not the switch cost
            offsets = [o * shard.slowdown for o in offsets]
        service = switch_s + offsets[-1]
        begin = max(shard.clock_s, qb.ready_s)
        time_sliced = self.config.time_sliced
        emitted: List[RequestResult] = []
        for i, (req, out) in enumerate(zip(group, outputs)):
            if req.req_id in done:
                # completed before the crash that requeued this batch;
                # the original (bit-identical) result already stands
                continue
            member_service = (switch_s + offsets[i]
                              if time_sliced else service)
            result = RequestResult(
                request=req, output=out, batch_id=qb.seq,
                batch_size=len(group),
                queue_wait_s=begin - req.arrival_s,
                service_s=member_service,
                completion_s=begin + member_service,
                sparsity=effective, shard_id=shard.shard_id)
            self._emit(result)
            emitted.append(result)
        shard.record(qb, service, begin + service, installed, emitted)
        self._events.append((qb.seq, event))

    def _emit(self, result: RequestResult) -> None:
        """Schedule ``result``'s release at its completion instant."""
        self._results.append(result)
        heapq.heappush(self._pending_done,
                       (result.completion_s, next(self._tiebreak), result))

    # ------------------------------------------------------------------
    # decode lane (one token boundary on one device)
    # ------------------------------------------------------------------
    def _decode_tick(self, shard: DeviceShard, now: float) -> None:
        """Advance every decode stream on ``shard`` by one token.

        Pending streams whose arrival has passed join first (continuous
        batching: membership changes only at boundaries), then each
        operating-point group runs one decode step — inside the session,
        one plan call per padding class of the context lengths over
        right-padded contexts, padded keys masked, so every
        stream's bits match a solo run.  Switch costs are resolved
        per group against this device's installed state, exactly like a
        batch execution, and each group's step is an
        :class:`AdaptationEvent` in the report.
        """
        lane = shard.decode
        begin = max(shard.clock_s, now)
        lane.admit(begin, self._decode_session)
        clock = begin
        tokens = 0
        switches = 0
        finished: List[RequestResult] = []
        jobs: Dict[int, DecodeJob] = {}
        for key in lane.group_keys():
            group = lane.groups[key]
            session = group.session
            active = [group.streams[sid] for sid in sorted(group.streams)
                      if not session.finished(sid)]
            if not active:
                continue
            seq = self._seq
            self._seq += 1
            level = self.dvfs[key[0]]
            reqs = [s.job.request for s in active]
            qb = QueuedBatch(seq, reqs, key[0], begin, 0.0, sparsity=key[1])
            event, effective, switch_s, installed = \
                self._resolve_operating_point(shard, level, qb)
            # a resident set is not installed again, so the step replays
            # the bound program; a real switch changes the tokens and the
            # plan moves to that rung's program — the correctness the
            # mask-switch decode tests pin
            self._install(effective)
            session.plan = self._forward()
            emitted = session.step()
            per_token = self.adapter.batch_latency_s(level, effective,
                                                     len(active))
            if shard.slowdown != 1.0:
                per_token *= shard.slowdown
            service = switch_s + per_token
            clock += service
            tokens += len(emitted)
            if installed:
                switches += 1
            self._events.append((seq, event))
            for stream in active:
                if not session.finished(stream.sid):
                    continue
                del group.streams[stream.sid]
                result = RequestResult(
                    request=stream.job.request,
                    output=session.result(stream.sid), batch_id=seq,
                    batch_size=len(active),
                    queue_wait_s=stream.join_s - stream.job.request.arrival_s,
                    service_s=clock - stream.join_s,
                    completion_s=clock,
                    sparsity=effective, shard_id=shard.shard_id)
                self._emit(result)
                finished.append(result)
                jobs[stream.job.request.req_id] = stream.job
        lane.prune()
        if clock > begin or tokens:
            shard.record_decode(clock - begin, clock, tokens, switches,
                                finished, jobs)

    def _release(self, until_s: float) -> List[RequestResult]:
        out = []
        while self._pending_done and self._pending_done[0][0] <= until_s:
            result = heapq.heappop(self._pending_done)[2]
            if not result.canceled:
                # retracted before its completion instant (crash,
                # preemption or cancel); a crashed or preempted request
                # re-executes elsewhere
                out.append(result)
        return out
