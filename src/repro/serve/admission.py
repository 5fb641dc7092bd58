"""Admission control: the overload defenses a request meets on arrival.

:class:`AdmissionControl` decides queue-full, tenant-quota and deadline
shed/degrade before a request touches the admission queue, reading two
backlog counters that the waiting stages (admission queue, device queues
and decode lanes, the parked-work holder) move as work enters and
leaves them — a decision costs O(1) however deep the backlog is.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence

from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable
from repro.serve.batcher import AdmissionQueue, InferenceRequest, tenant_counts
from repro.serve.config import ServeConfig
from repro.serve.faults import ShedRecord

__all__ = ["AdmissionControl"]


class AdmissionControl:
    """Queue-full, tenant-quota and shed/degrade decisions at arrival.

    Deciding before the admission queue means shed requests never
    influence micro-batch grouping and a degraded request is re-stamped
    before its compatibility key is computed, so the survivors form
    exactly the batches a fault-free serve of them would (the
    bit-exactness invariant).

    It keeps two backlogs, and they deliberately count different things
    (unifying them would move shed decisions):

    - :meth:`backlog` — the queue-full test against ``max_queue`` —
      counts every member of the open admission groups and of the
      batches queued on devices, done (cancelled) members included; it
      leaves out parked batches and pending decode jobs;
    - :meth:`tenant_backlog` — the quota test against the tenant's
      weighted share — counts only *live* members of that tenant, in
      open groups, queued batches, parked batches and pending decode
      jobs.

    Work reports itself through :meth:`hold` / :meth:`release` (and the
    batch forms, which store a batch's per-tenant live contribution on
    it while it waits); :meth:`retire` marks one member of a held batch
    done.  Every counter is a pure function of the executed event
    history, so every decision is tick-granularity independent.
    """

    def __init__(self, config: ServeConfig, adapter: RuntimeAdapter,
                 dvfs: DVFSTable) -> None:
        self.config = config
        self.adapter = adapter
        self.dvfs = dvfs
        self.enabled = (config.shed_policy != "none"
                        or config.max_queue is not None
                        or config.tenant_weights is not None)
        self.total = 0
        self.live: Dict[str, int] = {}
        # weighted fair shares: the config is frozen, so every listed
        # tenant's share is computed once; unlisted tenants join as
        # weight-1 participants
        weights = config.tenant_weights or {}
        total = sum(weights.values())
        self._shares = {t: self._share(w, total) for t, w in weights.items()}
        self._guest_share = self._share(1.0, total + 1.0)

    def _share(self, weight: float, total: float) -> float:
        max_queue = self.config.max_queue
        if max_queue is None or total <= 0:
            return float("inf")
        return max(1.0, max_queue * weight / total)

    # -- the counters ---------------------------------------------------
    def backlog(self) -> int:
        """Members of open groups and queued batches (queue-full test)."""
        return self.total

    def tenant_backlog(self, tenant: str) -> int:
        """This tenant's live requests waiting anywhere (quota test)."""
        return self.live.get(tenant, 0)

    def tenant_share(self, tenant: str) -> float:
        """The tenant's weighted share of the bounded queue, >= 1 slot.

        The one-slot floor is the starvation guard: no matter how the
        weights divide ``max_queue``, every tenant can always hold at
        least one request in the system, so every live tenant makes
        progress even under a hot-tenant flood.
        """
        return self._shares.get(tenant, self._guest_share)

    def hold(self, tenants: Mapping[str, int], members: int = 0) -> None:
        """Work entered a waiting stage: ``tenants`` live requests, of
        which ``members`` count toward :meth:`backlog`."""
        self.total += members
        live = self.live
        for tenant, n in tenants.items():
            live[tenant] = live.get(tenant, 0) + n

    def release(self, tenants: Mapping[str, int], members: int = 0) -> None:
        """Work left a waiting stage (the inverse of :meth:`hold`)."""
        self.total -= members
        live = self.live
        for tenant, n in tenants.items():
            live[tenant] -= n

    def hold_batch(self, batch, members: int) -> None:
        """A queued or parked batch starts waiting; it keeps its live
        contribution until :meth:`release_batch`."""
        batch.live = tenant_counts(batch.requests, batch.done_ids)
        self.hold(batch.live, members)

    def release_batch(self, batch, members: int) -> None:
        self.release(batch.live, members)
        batch.live = {}

    def retire(self, batch, request: InferenceRequest) -> None:
        """A waiting batch's member became done (cancelled in place)."""
        batch.live[request.tenant] -= 1
        self.live[request.tenant] -= 1

    # -- the decision -----------------------------------------------------
    def admit(self, request: InferenceRequest, now: float,
              queue: AdmissionQueue, shards: Sequence) -> Optional[ShedRecord]:
        """Run the defenses on an arriving request; ``None`` admits it,
        otherwise the returned record says why it was shed.

        ``queue`` is the admission queue the request would join and
        ``shards`` the engine's devices (down ones are skipped).
        """
        cfg = self.config
        if cfg.max_queue is not None and self.total >= cfg.max_queue:
            return ShedRecord(request, now, "queue_full")
        if (cfg.tenant_weights is not None and cfg.max_queue is not None
                and (self.tenant_backlog(request.tenant)
                     >= self.tenant_share(request.tenant))):
            # weighted fair admission: the tenant flooded past its share
            # of the bounded queue; everyone else's share stays intact
            return ShedRecord(request, now, "tenant_quota")
        if cfg.shed_policy == "none":
            return None
        adapter = self.adapter
        level = self.dvfs[request.level_name]
        budget = request.arrival_s + request.slo
        free = min((max(s.clock_s, now) + s.pending_s
                    for s in shards if s.available), default=float("inf"))
        resolved = adapter.feasible_sparsity(level, request.deadline_s)
        est = self._estimate_s(now, free, queue,
                               adapter.batch_latency_s(level, resolved),
                               key=(request.level_name, resolved))
        if resolved is not None and est <= budget:
            return None
        if cfg.shed_policy == "degrade":
            # the paper's accuracy-for-deadline trade as an overload
            # response: walk the sparser (faster) rungs, least degraded
            # first, and serve at the first one whose estimate fits the
            # SLO instead of shedding.  The deadline is re-stamped to the
            # rung's predicted latency so the adapter resolves exactly
            # that rung; the original deadline is kept on the request.
            slo = request.slo
            for sparsity, lat in adapter.rungs(level).items():
                if resolved is not None and sparsity <= resolved:
                    continue
                if lat > slo:
                    continue  # keep the slo >= deadline invariant
                rung_est = self._estimate_s(
                    now, free, queue, adapter.batch_latency_s(level, sparsity),
                    key=(request.level_name, sparsity))
                if rung_est <= budget:
                    request.degraded_from_s = request.deadline_s
                    request.slo_s = slo
                    request.deadline_s = lat
                    return None
        return ShedRecord(request, now, "deadline", est)

    def _estimate_s(self, now: float, free: float, queue: AdmissionQueue,
                    service_s: float, key: Hashable) -> float:
        """Deterministic completion estimate for a request arriving now.

        Pessimistic by design: the batching-window wait, plus ``free`` —
        the earliest instant an available device runs dry (its clock
        plus queued backlog; infinite in a total outage) — plus the
        single-request service time at the candidate operating point.

        The window charge is only the residual window of the open group
        the ``key``-compatible request would actually join (nothing at
        all when the admission would flush it full); a request that would
        open a new group waits out a whole ``window_s``.
        """
        wait = now + self.config.window_s
        group = queue.open_group(key)
        if group is not None:
            wait = (now if len(group.requests) + 1 >= self.config.max_batch
                    else group.deadline_s)
        return max(wait, free) + service_s
