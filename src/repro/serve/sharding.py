"""Simulated multi-device sharding: device shards, queues, dispatch policies.

The serving engine scales out by routing micro-batches across ``N``
simulated devices.  Each :class:`DeviceShard` owns

- its own simulated clock and busy-time accounting,
- *per-V/F-level FIFO queues*: a batch is enqueued under the V/F level in
  force when its requests arrived, so traffic at different operating
  points never interleaves inside one queue, and
- its own installed-pattern state (``active_sparsity``): pattern-set
  switches are a *per-device* cost, so each shard pays for its own swaps
  independently of what its neighbours have installed.

Shards are *event-driven*: the streaming loop (not a one-pass drain)
owns the timeline.  A shard advertises when it can next act
(:meth:`DeviceShard.next_event_s` — it is idle and a queued batch is
ready) and the loop pops its next batch (:meth:`DeviceShard.pop_next`)
at that instant, so per-device clocks advance interleaved with
admissions instead of each shard being drained to exhaustion.  Both
routing and draining know about reconfiguration:

- **drain policies** — ``fifo`` follows the global flush order (min
  ``seq`` across queue heads; a one-shard engine reproduces the serial
  engine's schedule exactly, the property the time-slicing exactness
  tests pin down).  ``level-affinity`` serves one V/F level *run-to-run*:
  staying on a level keeps its pattern set resident, so rung-alternating
  bursts stop re-switching per batch.  A ``fairness_window`` bounds each
  run — after that many consecutive batches from one level while another
  level has queued work, the drain rotates to the level with the oldest
  waiting head, so no level starves under saturation.  ``adaptive``
  starts out ``fifo`` and flips itself to ``level-affinity`` when the
  shard's observed pattern-switch rate over a sliding window of executed
  batches crosses a threshold — a mixed fleet tunes itself per device
  instead of pinning one policy engine-wide.
- **dispatch policies** — ``round-robin`` and ``least-loaded`` as before,
  plus ``switch-aware``: least-loaded's backlog estimate *plus the cost
  of the pattern swap this placement would trigger* on each candidate
  shard, so batches gravitate to devices that already hold their pattern
  set and reconfiguration traffic concentrates instead of spraying
  across the fleet.  Load policies score ``assigned_est_s`` — the
  cumulative service estimate ever routed to a shard this run — which is
  independent of how far each shard's execution has progressed, so a
  routing decision depends only on the admission stream, never on tick
  granularity (and matches what the old route-everything-first offline
  engine saw).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.serve.batcher import InferenceRequest, RequestResult
from repro.serve.decode import DecodeJob, DecodeLane
from repro.serve.faults import DEGRADED, DOWN, HEALTHY, CancelRecord

POLICIES = ("round-robin", "least-loaded", "switch-aware")
DRAIN_POLICIES = ("fifo", "level-affinity", "adaptive")


@dataclass
class QueuedBatch:
    """One routed micro-batch: the unit the dispatcher moves around."""

    seq: int  # global flush order; becomes the report's batch_id
    requests: List[InferenceRequest]
    level_name: str
    ready_s: float  # earliest dispatch time (full batch / window rule)
    est_service_s: float  # analytic service estimate used for routing
    # feasible sparsity resolved at routing time (None = infeasible);
    # carried so the drain phase never repeats the ladder walk
    sparsity: Optional[float] = None
    # failover bookkeeping: how many times this batch was pulled off a
    # dead shard (each requeue is charged like a pattern switch at
    # execution), and which members already completed before a crash
    # retracted the rest (the re-execution recomputes the full batch —
    # identical membership keeps the bits identical — but only emits
    # results for members not already done)
    requeues: int = 0
    done_ids: Tuple[int, ...] = ()
    # live members per tenant, held in the admission-control counters
    # while the batch waits in a device queue or parked
    live: Dict[str, int] = field(default_factory=dict, repr=False,
                                 compare=False)

    def __len__(self) -> int:
        return len(self.requests)

    def cancel_member(self, req_id: int, ledger) -> Optional[InferenceRequest]:
        """Mark the live member ``req_id`` done (and retire it from
        ``ledger``); ``None`` when no live member has that id.  The
        membership is kept, so a later execution computes the same bits
        for the survivors; the cancelled member just never emits."""
        if req_id in self.done_ids:
            return None
        req = next((r for r in self.requests if r.req_id == req_id), None)
        if req is not None:
            self.done_ids = tuple(sorted(set(self.done_ids) | {req_id}))
            if ledger is not None:
                ledger.retire(self, req)
        return req


@dataclass
class InFlight:
    """The last batch (``batch``) or decode boundary (``jobs`` of its
    finished streams, by request id) a device executed, and the results
    it emitted.  Events process in time order, so it is the only
    executed work a later event can still catch before it completes."""

    end_s: float
    results: List[RequestResult]
    batch: Optional[QueuedBatch] = None
    jobs: Dict[int, DecodeJob] = field(default_factory=dict)


@dataclass
class ShardStats:
    """Per-device digest of one serving run."""

    shard_id: int
    requests: int = 0
    batches: int = 0
    busy_s: float = 0.0
    last_completion_s: float = 0.0
    switches: int = 0
    # adaptive drain: how often the shard re-picked its own policy (with
    # the hysteresis band enabled a shard can flip fifo -> level-affinity
    # and back as traffic phases change) and what it ended on
    policy_flips: int = 0
    drain_policy: str = "fifo"
    # continuous-batching decode lane traffic (token boundaries executed
    # on this device and streams completed here)
    decode_streams: int = 0
    decode_tokens: int = 0
    # fault-tolerance accounting: crash/recovery counts, batches pulled
    # off this shard when it died, failed-over batches re-executed here
    # (with the pattern-switch-like penalty they paid), transient stall
    # windows, the worst detection lag between physical recovery and the
    # re-probe that noticed it, and the health the run ended on
    failures: int = 0
    recoveries: int = 0
    requeued_batches: int = 0
    retried_batches: int = 0
    retry_penalty_s: float = 0.0
    stalls: int = 0
    recovery_lag_s: float = 0.0
    health: str = HEALTHY
    # deadline-driven preemption: batches pulled back off this shard
    # (queued or in-flight) to let a tighter-deadline batch run first;
    # each preemption is charged like a pattern switch at re-execution,
    # through the same requeue accounting as crash failover
    preempted_batches: int = 0

    @property
    def service_throughput_rps(self) -> float:
        """Requests/second while the device is actually busy."""
        return self.requests / self.busy_s if self.busy_s > 0 else 0.0

    def utilization(self, makespan_s: float) -> float:
        return self.busy_s / makespan_s if makespan_s > 0 else 0.0

    def as_dict(self, makespan_s: float = 0.0) -> dict:
        return {
            "shard_id": self.shard_id,
            "requests": self.requests,
            "batches": self.batches,
            "busy_s": self.busy_s,
            "last_completion_s": self.last_completion_s,
            "switches": self.switches,
            "policy_flips": self.policy_flips,
            "drain_policy": self.drain_policy,
            "decode_streams": self.decode_streams,
            "decode_tokens": self.decode_tokens,
            "failures": self.failures,
            "recoveries": self.recoveries,
            "requeued_batches": self.requeued_batches,
            "retried_batches": self.retried_batches,
            "retry_penalty_s": self.retry_penalty_s,
            "stalls": self.stalls,
            "recovery_lag_s": self.recovery_lag_s,
            "health": self.health,
            "preempted_batches": self.preempted_batches,
            "service_throughput_rps": self.service_throughput_rps,
            "utilization": self.utilization(makespan_s),
        }


class DeviceShard:
    """One simulated device: per-V/F-level queues plus its own timeline.

    ``enqueue`` files a batch under its V/F level; the event loop asks
    :meth:`next_event_s` when the shard can next start a batch and
    :meth:`pop_next` for which one, according to ``drain_policy``:

    - ``fifo`` — global flush order (min ``seq`` across queue heads; each
      per-level queue is FIFO, so this is a stable merge);
    - ``level-affinity`` — stay on the current level while it has queued
      batches, rotating to the oldest-waiting other level after
      ``fairness_window`` consecutive batches once another level is
      waiting.  Level runs amortize the pattern set resident for that
      level across the whole run;
    - ``adaptive`` — behave as ``fifo`` until the observed pattern-switch
      rate over the last ``adaptive_window`` executed batches reaches
      ``adaptive_threshold``, then flip to ``level-affinity``.  A shard
      fed steady single-rung traffic keeps FIFO's exact global order; a
      shard hammered by rung-alternating bursts starts amortizing
      pattern residency on its own.  With ``adaptive_low_threshold`` set
      (the hysteresis band) the flip is reversible: once the post-flip
      switch rate over a full window falls to the lower band — the
      traffic phase changed, affinity no longer buys anything — the
      shard flips back to fifo.  The switch history is cleared at every
      flip so each decision uses only evidence gathered under the policy
      in force (otherwise affinity's own switch savings would
      immediately re-trigger the flip-back).  ``None`` (default) keeps
      the historical one-way behaviour.

    The affinity run state persists across pops.

    ``members`` counts the requests of every queued batch (done members
    included).  ``ledger`` (an
    :class:`~repro.serve.admission.AdmissionControl`) is told of every
    batch entering or leaving the queues and of every decode job
    entering or leaving the lane's pending heap.

    ``inflight`` is the last executed work (:class:`InFlight`).

    The shard's installed-pattern state (``active_sparsity``) is updated
    by the engine as it executes, because a pattern swap happens on
    *this* device no matter what the other shards run.
    ``expected_sparsity`` is the routing-time twin: the dispatcher's
    prediction of what will be resident once the already-assigned batches
    ran, used by switch-aware placement scoring.
    """

    def __init__(self, shard_id: int, drain_policy: str = "fifo",
                 fairness_window: int = 4, adaptive_window: int = 8,
                 adaptive_threshold: float = 0.5,
                 adaptive_low_threshold: Optional[float] = None,
                 ledger=None) -> None:
        # the drain knobs arrive validated by ServeConfig
        self.shard_id = shard_id
        self.drain_policy = drain_policy
        self.fairness_window = fairness_window
        self.adaptive_window = adaptive_window
        self.adaptive_threshold = adaptive_threshold
        self.adaptive_low_threshold = adaptive_low_threshold
        self.queues: Dict[str, Deque[QueuedBatch]] = {}
        self.members = 0
        self.ledger = ledger
        self.clock_s = 0.0
        # estimated not-yet-executed backlog — introspection only; routing
        # scores the cumulative assigned_est_s below, never this
        self.pending_s = 0.0
        # cumulative service estimate ever routed here (never decremented):
        # the dispatcher's load signal, independent of execution progress
        self.assigned_est_s = 0.0
        self.active_sparsity: Optional[float] = None
        self.expected_sparsity: Optional[float] = None
        # health state machine (healthy / degraded / down): transient
        # stall/slow windows degrade, a crash takes the shard down until
        # ``down_until`` (inf = permanently); ``slowdown`` scales compute
        # time while a slow window is in force (timing only — outputs
        # are never touched by a slowdown)
        self.health: str = HEALTHY
        self.down_until: Optional[float] = None
        self.slowdown: float = 1.0
        # rolling decode batch resident on this device (continuous
        # batching: streams join/leave at token boundaries)
        self.decode = DecodeLane(ledger)
        self.inflight: Optional[InFlight] = None
        self.stats = ShardStats(shard_id, drain_policy=self._base_policy())
        # persistent drain-policy state (level-affinity run tracking)
        self._current_level: Optional[str] = None
        self._run = 0
        # adaptive drain: sliding window of per-batch device-switch flags
        self._switch_history: Deque[bool] = deque(maxlen=adaptive_window)

    def _base_policy(self) -> str:
        return "fifo" if self.drain_policy == "adaptive" else self.drain_policy

    @property
    def effective_drain_policy(self) -> str:
        """The policy in force right now (adaptive shards re-pick theirs)."""
        return self.stats.drain_policy

    @property
    def switch_rate(self) -> float:
        """Fraction of recently executed batches that swapped pattern sets."""
        if not self._switch_history:
            return 0.0
        return sum(self._switch_history) / len(self._switch_history)

    # -- queueing ------------------------------------------------------
    def enqueue(self, batch: QueuedBatch) -> None:
        self.queues.setdefault(batch.level_name, deque()).append(batch)
        self.members += len(batch)
        if self.ledger is not None:
            self.ledger.hold_batch(batch, len(batch))
        self.pending_s += batch.est_service_s
        self.assigned_est_s += batch.est_service_s
        if batch.sparsity is not None:
            self.expected_sparsity = batch.sparsity

    def _left(self, batch: QueuedBatch) -> None:
        """``batch`` left the queues (popped, retracted or failed over)."""
        self.members -= len(batch)
        if self.ledger is not None:
            self.ledger.release_batch(batch, len(batch))

    def queued_batches(self) -> List[QueuedBatch]:
        """Every queued batch, in flush order (deterministic)."""
        return sorted((b for q in self.queues.values() for b in q),
                      key=lambda b: b.seq)

    def retract(self, seq: int) -> Optional[QueuedBatch]:
        """Pull one queued batch back out (preemption / cancellation).

        Reverses :meth:`enqueue`'s pending-time accounting but leaves
        ``assigned_est_s`` alone — that is the dispatcher's cumulative
        routing signal and must stay a pure function of the admission
        stream.  Affinity run state survives; a retracted current level
        simply runs dry and the next pop rotates as usual.
        """
        for name, q in self.queues.items():
            for batch in q:
                if batch.seq == seq:
                    q.remove(batch)
                    if not q:
                        del self.queues[name]
                    self._left(batch)
                    self.pending_s = max(0.0,
                                         self.pending_s - batch.est_service_s)
                    return batch
        return None

    def _oldest_head(self, exclude: Optional[str] = None) -> Optional[str]:
        """Level whose queue head was flushed earliest (min seq)."""
        heads = [(q[0].seq, name) for name, q in self.queues.items()
                 if q and name != exclude]
        return min(heads)[1] if heads else None

    # -- event-driven interface (driven by the streaming loop) ---------
    def queue_event_s(self) -> Optional[float]:
        """Earliest simulated time this shard can start its next batch.

        ``None`` when nothing is queued; otherwise the device is free at
        ``clock_s`` and some queued batch is dispatchable at its
        ``ready_s``, so the shard can act at the max of its clock and the
        earliest ready time.  (The batch the policy then picks may carry
        a later ``ready_s`` — the begin time still honours it.)
        """
        if not any(self.queues.values()):
            return None
        earliest = min(q[0].ready_s for q in self.queues.values() if q)
        return max(self.clock_s, earliest)

    def next_event_s(self) -> Optional[float]:
        """Earliest time this shard can act: batch dispatch or a decode
        token boundary, whichever comes first (the engine breaks the tie
        in favour of the latency-critical decode lane)."""
        times = [t for t in (self.queue_event_s(),
                             self.decode.due_s(self.clock_s))
                 if t is not None]
        return min(times) if times else None

    def pop_next(self) -> Optional[QueuedBatch]:
        """Pop the next batch per the drain policy (None when empty)."""
        if self.effective_drain_policy == "fifo":
            self._current_level = self._oldest_head()
            self._run = 0
        else:  # level-affinity
            current = self._current_level
            others_waiting = any(q for name, q in self.queues.items()
                                 if name != current and q)
            stay = (current is not None
                    and self.queues.get(current)
                    and not (others_waiting
                             and self._run >= self.fairness_window))
            if not stay:
                nxt = self._oldest_head(exclude=current)
                self._current_level = (nxt if nxt is not None
                                       else self._oldest_head())
                self._run = 0
        if self._current_level is None:
            return None
        batch = self.queues[self._current_level].popleft()
        self._run += 1
        self.pending_s = max(0.0, self.pending_s - batch.est_service_s)
        self._left(batch)
        return batch

    # -- health state machine (driven by the engine's fault events) ----
    @property
    def available(self) -> bool:
        """Can this shard accept and execute work right now?"""
        return self.health != DOWN

    def fail(self, now_s: float, down_until_s: float
             ) -> Tuple[List[QueuedBatch], List[DecodeJob]]:
        """Crash: go down and hand back every piece of this device's work.

        Returns ``(batches, decode_jobs)`` in deterministic order for the
        engine to fail over to healthy shards: the retracted tail of the
        in-flight batch or decode boundary first (see
        :meth:`retract_running`), then the queued batches by flush seq
        and the lane's jobs pending-then-active.  Every batch is charged
        one requeue and is ready no earlier than the crash.
        """
        if self.health == DOWN:
            # overlapping crash: extend the outage, nothing new to evict
            self.down_until = max(self.down_until or 0.0, down_until_s)
            return [], []
        retry, jobs = self.retract_running(now_s)
        self.health = DOWN
        self.down_until = down_until_s
        self.clock_s = min(self.clock_s, now_s)
        self.stats.failures += 1
        self.stats.health = DOWN
        queued = sorted((b for q in self.queues.values() for b in q),
                        key=lambda b: b.seq)
        self.queues.clear()
        for batch in queued:
            self._left(batch)
        self.pending_s = 0.0
        self._current_level = None
        self._run = 0
        batches = ([retry] if retry is not None else []) + queued
        for batch in batches:
            batch.requeues += 1  # every failover is charged like a switch
            batch.ready_s = max(batch.ready_s, now_s)
        self.stats.requeued_batches += len(batches)
        return batches, jobs + self.decode.evacuate()

    def rejoin(self, now_s: float) -> None:
        """A re-probe found the shard back up: rejoin the fleet."""
        if self.down_until is not None:
            self.stats.recovery_lag_s = max(self.stats.recovery_lag_s,
                                            now_s - self.down_until)
        self.down_until = None
        self.clock_s = max(self.clock_s, now_s)
        self.stats.recoveries += 1
        # leave DOWN explicitly, then re-derive healthy-vs-degraded (a
        # slowdown window may still be open); ``restore`` alone would
        # early-return on the DOWN guard and strand the shard
        self.health = HEALTHY
        self.restore()

    def stall(self, until_s: float) -> None:
        """Freeze until ``until_s``: the clock jumps, no work is lost."""
        self.clock_s = max(self.clock_s, until_s)
        self.stats.stalls += 1
        if self.health == HEALTHY:
            self.health = DEGRADED
            self.stats.health = DEGRADED

    def slow(self, factor: float) -> None:
        """Enter a slowdown window: compute takes ``factor``× longer."""
        self.slowdown = factor
        if self.health == HEALTHY:
            self.health = DEGRADED
            self.stats.health = DEGRADED

    def slow_end(self) -> None:
        self.slowdown = 1.0
        self.restore()

    def restore(self) -> None:
        """Re-derive health once a window ends (down shards stay down)."""
        if self.health == DOWN:
            return
        self.health = HEALTHY if self.slowdown == 1.0 else DEGRADED
        self.stats.health = self.health

    # -- taking work back (crash, preemption, cancellation) -------------
    def retract_inflight(self, now_s: float, req_id: Optional[int] = None
                         ) -> List[RequestResult]:
        """The one path that takes emitted results back: those still due
        after ``now_s`` and not already retracted (a retraction is
        terminal); each leaves the shard's request (or decode stream)
        count.  A cancel names ``req_id`` and refunds no device time.  A
        crash or running preemption names none: it stops the device at
        ``now_s``, so the record is cleared and the device's accounting
        rolls back to ``now_s`` even when every late member was already
        cancelled."""
        run = self.inflight
        if run is None or run.end_s <= now_s:
            return []
        lost = [r for r in run.results
                if r.completion_s > now_s and not r.canceled
                and req_id in (None, r.request.req_id)]
        for result in lost:
            result.canceled = True
        stats = self.stats
        if run.batch is None:
            stats.decode_streams -= len(lost)
        else:
            stats.requests -= len(lost)
        if req_id is None:
            self.inflight = None
            stats.busy_s = max(0.0, stats.busy_s - (run.end_s - now_s))
            stats.last_completion_s = min(stats.last_completion_s, now_s)
            self.clock_s = min(self.clock_s, now_s)
            if (run.batch is not None
                    and all(r.completion_s > now_s for r in run.results)):
                stats.batches -= 1
        return lost

    def retract_running(self, now_s: float
                        ) -> Tuple[Optional[QueuedBatch], List[DecodeJob]]:
        """Retract the in-flight tail at ``now_s``; return what reruns.

        A batch comes back ready at ``now_s`` on its *full original
        membership* (identical bits), only its retracted members left
        live; a decode boundary's retracted streams come back as jobs.
        """
        run = self.inflight
        lost = self.retract_inflight(now_s)
        if run is None or not lost:
            return None, []
        if run.batch is None:
            return None, [run.jobs[r.request.req_id] for r in lost]
        lost_ids = {r.request.req_id for r in lost}
        qb = run.batch
        qb.done_ids = tuple(sorted(r.req_id for r in qb.requests
                                   if r.req_id not in lost_ids))
        qb.ready_s = now_s
        return qb, []

    def cancel(self, req_id: int, now_s: float) -> Optional[CancelRecord]:
        """Withdraw ``req_id`` from a queued batch (dropping a batch left
        with no live member), the lane's pending jobs or the in-flight
        record; ``None`` when this device does not hold it."""
        for batch in self.queued_batches():
            req = batch.cancel_member(req_id, self.ledger)
            if req is not None:
                if len(batch.done_ids) == len(batch):
                    self.retract(batch.seq)
                return CancelRecord(req, now_s, "queued")
        job = self.decode.remove_pending(req_id)
        if job is not None:
            return CancelRecord(job.request, now_s, "decode_pending")
        lost = self.retract_inflight(now_s, req_id)
        if lost:
            return CancelRecord(lost[0].request, now_s, "inflight")
        return None

    # -- execution accounting (called by the engine) -------------------
    def record_decode(self, service_s: float, completion_s: float,
                      tokens: int, switches: int,
                      results: List[RequestResult],
                      jobs: Dict[int, DecodeJob]) -> None:
        """Account one decode token boundary (all lane groups advanced).

        Decode boundaries move the device clock and busy time like a
        batch does, but stay out of the drain-policy switch history —
        the adaptive drain reasons about queued batch traffic only.
        ``results`` (finished streams) and ``jobs`` become the record.
        """
        self.clock_s = completion_s
        self.stats.busy_s += service_s
        self.stats.last_completion_s = completion_s
        self.stats.decode_tokens += tokens
        self.stats.decode_streams += len(results)
        self.stats.switches += switches
        self.inflight = InFlight(completion_s, results, jobs=jobs)

    def record(self, batch: QueuedBatch, service_s: float, completion_s: float,
               switched: bool,
               results: Optional[List[RequestResult]] = None) -> None:
        """Account one executed batch; ``results`` (only not-yet-done
        members emit after a failover) become the in-flight record."""
        self.clock_s = completion_s
        self.stats.requests += len(batch) if results is None else len(results)
        if results is not None:
            self.inflight = InFlight(completion_s, results, batch=batch)
        self.stats.batches += 1
        self.stats.busy_s += service_s
        self.stats.last_completion_s = completion_s
        if switched:
            self.stats.switches += 1
        self._switch_history.append(switched)
        if (self.drain_policy != "adaptive"
                or len(self._switch_history) < self.adaptive_window):
            return
        if (self.stats.drain_policy == "fifo"
                and self.switch_rate >= self.adaptive_threshold):
            # enough evidence of rung-thrashing: amortize pattern
            # residency from here on; history is cleared so a flip-back
            # decision only weighs batches executed *under* affinity
            self.stats.drain_policy = "level-affinity"
            self.stats.policy_flips += 1
            self._switch_history.clear()
        elif (self.stats.drain_policy == "level-affinity"
              and self.adaptive_low_threshold is not None
              and self.switch_rate <= self.adaptive_low_threshold):
            # hysteresis band: a full affinity-era window with (almost)
            # no switches means the traffic phase changed — affinity is
            # no longer buying anything, so return to fifo's exact
            # global flush order (outputs are unaffected either way:
            # drain order never changes batch membership)
            self.stats.drain_policy = "fifo"
            self.stats.policy_flips += 1
            self._switch_history.clear()


@dataclass
class Dispatcher:
    """Routes micro-batches to shards.

    - ``round-robin``   — batch ``seq`` goes to shard ``seq % N``; ignores
      load, so heterogeneous batch costs can pile onto one device.
    - ``least-loaded``  — the shard with the smallest cumulative load
      estimate (``assigned_est_s``: the sum of the analytic service
      estimates of every batch already assigned to it this run); ties
      break toward the lowest shard id, keeping the assignment
      deterministic.  Scoring cumulative assignments rather than the
      live backlog makes every placement a pure function of the
      admission stream — the same trace routes identically whether it is
      replayed offline or ticked through the streaming loop.
    - ``switch-aware``  — least-loaded's load estimate *plus* the
      simulated pattern-swap cost this placement would trigger: a
      candidate shard whose ``expected_sparsity`` differs from the
      batch's resolved sparsity is charged ``switch_cost_s[sparsity]``
      seconds.  Batches therefore prefer devices already holding their
      pattern set, and a swap is only taken when the load imbalance
      outweighs it.
    """

    policy: str = "round-robin"
    # per-sparsity simulated swap cost (seconds), supplied by the engine
    # from its reconfigurator model; only consulted by ``switch-aware``
    switch_cost_s: Mapping[float, float] = field(default_factory=dict)
    routed: int = field(default=0, init=False)

    def _placement_cost(self, batch: QueuedBatch, shard: DeviceShard) -> float:
        """Estimated cost of assigning ``batch`` to ``shard``."""
        cost = shard.assigned_est_s
        if (batch.sparsity is not None
                and batch.sparsity != shard.expected_sparsity):
            cost += self.switch_cost_s.get(batch.sparsity, 0.0)
        return cost

    def place(self, batch: QueuedBatch,
              shards: Sequence[DeviceShard]) -> DeviceShard:
        """Pick a shard for ``batch`` without enqueueing it.

        Decode placements go through here — the job joins the shard's
        decode lane rather than a batch queue, but it consumes a routing
        slot (round-robin position, load/switch scoring) exactly like a
        batch placement does.
        """
        if not shards:
            raise ValueError("cannot route without shards")
        if self.policy == "round-robin":
            shard = shards[self.routed % len(shards)]
        elif self.policy == "least-loaded":
            shard = min(shards, key=lambda s: (s.assigned_est_s, s.shard_id))
        else:  # switch-aware
            shard = min(shards,
                        key=lambda s: (self._placement_cost(batch, s),
                                       s.shard_id))
        self.routed += 1
        return shard

    def route(self, batch: QueuedBatch, shards: Sequence[DeviceShard]) -> DeviceShard:
        """Pick a shard for ``batch`` and enqueue it there."""
        shard = self.place(batch, shards)
        shard.enqueue(batch)
        return shard
