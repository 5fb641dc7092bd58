"""Offline serving wrapper over the event-driven streaming core.

:class:`ServeEngine` is the trace-at-once API: it keeps the historical
constructor and ``serve(requests) -> ServeReport`` surface, but the
serving semantics live in :class:`~repro.serve.streaming.StreamingEngine`
— ``serve`` simply spins up a streaming session seeded with this
engine's per-device installed-pattern state, submits the whole trace,
drains the event loop, and syncs the device state back.  Because the
streaming loop is tick-granularity independent, the wrapper's batching,
routing and simulated timeline are identical to feeding the same
arrivals through ``submit``/``tick`` online (asserted across scenarios,
device counts and dispatch policies in the streaming test suite).

With the default ``fifo`` drain this also reproduces the pre-streaming
offline engine exactly (the serve-bench digest stayed bit-identical
through the refactor).  ``level-affinity`` and post-flip ``adaptive``
schedules are *online* decisions — a shard picks among the batches
admitted by its decision instant, where the old route-everything-first
engine saw the full final queue — so their drain order can differ from
the historical one (the switch-reduction and fairness properties are
what the tests pin, not the exact schedule).

Per batch the loop

1. resolves the batch's operating point — every member shares a V/F
   level and a feasible pattern sparsity (that is the admission queue's
   compatibility key) — via the side-effect-free
   :meth:`~repro.core.runtime_policy.RuntimeAdapter.plan`, charged
   against the *target shard's* installed-pattern state, so each
   simulated device pays for its own reconfiguration switches;
2. installs the batch's pattern masks through the
   :class:`~repro.core.patterns.MaskManager`, where the
   :class:`~repro.serve.cache.ArtifactCache` turns repeat installs into
   lookups;
3. executes one vectorized, padding-exact forward pass
   (:func:`~repro.serve.batcher.run_padded`);
4. advances the shard's simulated clock using the analytic batch latency
   (MAC work × batch, per-invocation overhead paid once) plus any
   reconfiguration switch cost.  With ``time_sliced=True`` (the default)
   each request *completes* at its own offset inside the batch — the
   device streams members out as their MAC work finishes — so light-load
   p50 is no longer distorted by whole-batch service times.  The batch's
   last member always completes exactly when the non-sliced batch would,
   so time slicing changes per-request latency, never throughput.

Setting ``devices=1, time_sliced=False, max_batch=1`` with no cache
reproduces the repo's original single-request path — mask re-derivation
and one forward per request — which is exactly the baseline the serving
bench compares against.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional, Sequence

from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable, VFLevel
from repro.nn.generation import GenerationConfig
from repro.serve.batcher import InferenceRequest, MicroBatcher
from repro.serve.cache import ArtifactCache
from repro.serve.decode import DecodeOptions
from repro.serve.faults import SHED_POLICIES, FaultPlan
from repro.serve.sharding import DRAIN_POLICIES, POLICIES
from repro.serve.streaming import ServeReport, StreamingEngine

__all__ = ["ServeEngine", "ServeReport"]


class ServeEngine:
    """Serve a request trace through a masked model on N simulated devices.

    ``adapter`` supplies the sparsity ladder, latency model and (via its
    ``manager``) the mask installation path; ``cache`` (optional) is
    attached to the manager so repeated installs of a known pattern set
    hit instead of re-deriving masks.  ``devices``/``policy`` control the
    shard fan-out and routing (:mod:`repro.serve.sharding`);
    ``time_sliced`` picks the per-request completion model;
    ``drain_policy``/``fairness_window`` pick each shard's queue drain
    order (``fifo`` reproduces the serial engine's schedule exactly,
    ``level-affinity`` serves V/F levels run-to-run to amortize pattern
    residency, ``adaptive`` lets each shard flip itself from fifo to
    level-affinity when its observed switch rate over
    ``adaptive_window`` batches reaches ``adaptive_threshold``).
    ``verify`` re-runs every batch member individually and records the
    worst absolute deviation — the padding-exactness guarantee, at
    roughly double the compute.

    Devices persist across ``serve`` calls: a shard keeps its installed
    pattern set between traces, so a follow-up run is never re-charged
    the cold-start install.  :meth:`streaming` hands out the underlying
    online engine for callers that want to feed arrivals incrementally.
    """

    def __init__(self, model, adapter: RuntimeAdapter, *, max_batch: int = 8,
                 window_s: float = 0.05, cache: Optional[ArtifactCache] = None,
                 pad_id: int = 0, dvfs: Optional[DVFSTable] = None,
                 verify: bool = False, reinstall_per_batch: bool = True,
                 devices: int = 1, policy: str = "round-robin",
                 time_sliced: bool = True, prewarm: bool = False,
                 drain_policy: str = "fifo", fairness_window: int = 4,
                 adaptive_window: int = 8,
                 adaptive_threshold: float = 0.5,
                 adaptive_low_threshold: Optional[float] = None,
                 fast_forward: bool = True,
                 decode: Optional[DecodeOptions] = None,
                 faults: Optional[FaultPlan] = None,
                 shed_policy: str = "none",
                 max_queue: Optional[int] = None,
                 probe_backoff_s: float = 0.005,
                 preempt_policy: str = "off",
                 cancel_after_s: Optional[float] = None,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 admission_estimate: str = "remaining") -> None:
        if devices < 1:
            raise ValueError("devices must be at least 1")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(f"unknown shed policy {shed_policy!r}; "
                             f"options: {list(SHED_POLICIES)}")
        if drain_policy not in DRAIN_POLICIES:
            raise ValueError(f"unknown drain policy {drain_policy!r}; "
                             f"options: {list(DRAIN_POLICIES)}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown dispatch policy {policy!r}; options: {list(POLICIES)}")
        if adaptive_window < 1:
            raise ValueError("adaptive_window must be at least 1")
        if not 0.0 < adaptive_threshold <= 1.0:
            raise ValueError("adaptive_threshold must be in (0, 1]")
        if adaptive_low_threshold is not None and not (
                0.0 <= adaptive_low_threshold < adaptive_threshold):
            raise ValueError(
                "adaptive_low_threshold must be in [0, adaptive_threshold)")
        self.model = model
        self.adapter = adapter
        self.cache = cache
        if cache is not None and adapter.manager is not None:
            adapter.manager.attach_cache(cache)
        self.pad_id = pad_id
        self.dvfs = dvfs or DVFSTable()
        self.verify = verify
        # ``reinstall_per_batch=True`` models a stateless execution
        # context: the device re-validates/installs its masks before
        # every batch (the single-request path's behaviour).  With the
        # artifact cache an install — identical or a switch to a rung
        # already served — is O(layers) lookups: one cache hit and one
        # reference swap per layer, no unpack and no plan recompile.
        # Set False to trust ``manager.active_set`` and skip installs
        # when the batch keeps the previous operating point.
        self.reinstall_per_batch = reinstall_per_batch
        self.devices = devices
        self.policy = policy
        self.drain_policy = drain_policy
        self.fairness_window = fairness_window
        self.adaptive_window = adaptive_window
        self.adaptive_threshold = adaptive_threshold
        self.adaptive_low_threshold = adaptive_low_threshold
        # serve-path forwards run the compiled zero-autograd ndarray plan
        # by default (bit-identical outputs); False restores the eager
        # Tensor path (`rt3 serve --no-fast-forward`).  The grouped
        # ``decode`` sub-config is the consolidated home of that knob
        # plus the decode-lane sampling defaults; when supplied it is
        # authoritative, and the flat ``fast_forward`` kwarg survives
        # only for callers predating it.
        self.decode_options = (decode if decode is not None
                               else DecodeOptions(fast_forward=fast_forward))
        self.fast_forward = self.decode_options.fast_forward
        self.time_sliced = time_sliced
        # ``prewarm=True`` models deploy-time provisioning: each device
        # starts with the pattern set of its first routed batch already
        # resident (installed before traffic, so not charged to the
        # serving timeline).  Default False keeps cold-start accounting.
        self.prewarm = prewarm
        # fault tolerance: ``faults`` schedules shard crash/stall/slow
        # events (times are simulated seconds from *session* start —
        # every serve() builds a fresh session, so a plan replays
        # identically on each call); ``shed_policy``/``max_queue`` are
        # the admission overload defenses; ``probe_backoff_s`` is the
        # first re-probe interval for a downed shard (then doubling)
        self.faults = faults
        self.shed_policy = shed_policy
        self.max_queue = max_queue
        self.probe_backoff_s = probe_backoff_s
        # preemptive deadline scheduling / cancellation / tenant fairness:
        # validated by the streaming session ctor (one copy of the rules)
        self.preempt_policy = preempt_policy
        self.cancel_after_s = cancel_after_s
        self.tenant_weights = (dict(tenant_weights)
                               if tenant_weights is not None else None)
        self.admission_estimate = admission_estimate
        # installed pattern set per device, surviving across serve() calls
        self._device_state: Dict[int, Optional[float]] = {}
        # kept for offline trace grouping / introspection; the streaming
        # core owns admission during an actual serve
        self.batcher = MicroBatcher(max_batch, window_s,
                                    key_fn=self._compat_key)

    # ------------------------------------------------------------------
    def _level(self, name: str) -> VFLevel:
        return self.dvfs[name]

    def _compat_key(self, request: InferenceRequest) -> Hashable:
        """Requests batch together iff they resolve to one operating point."""
        level = self._level(request.level_name)
        sparsity = self.adapter.feasible_sparsity(level, request.deadline_s)
        return (request.level_name, sparsity)

    def streaming(self, *, max_wait_s: Optional[float] = None,
                  verify: Optional[bool] = None) -> StreamingEngine:
        """A live online session sharing this engine's model and devices.

        The session starts from the engine's current per-device installed
        state; it does *not* sync back (the offline wrapper owns that
        lifecycle — an online caller keeps its session for the duration).
        """
        return StreamingEngine(
            self.model, self.adapter,
            max_batch=self.batcher.max_batch,
            max_wait_s=(self.batcher.window_s if max_wait_s is None
                        else max_wait_s),
            cache=self.cache, pad_id=self.pad_id, dvfs=self.dvfs,
            verify=self.verify if verify is None else verify,
            reinstall_per_batch=self.reinstall_per_batch,
            devices=self.devices, policy=self.policy,
            time_sliced=self.time_sliced, prewarm=self.prewarm,
            drain_policy=self.drain_policy,
            fairness_window=self.fairness_window,
            adaptive_window=self.adaptive_window,
            adaptive_threshold=self.adaptive_threshold,
            adaptive_low_threshold=self.adaptive_low_threshold,
            decode=self.decode_options,
            faults=self.faults, shed_policy=self.shed_policy,
            max_queue=self.max_queue,
            probe_backoff_s=self.probe_backoff_s,
            preempt_policy=self.preempt_policy,
            cancel_after_s=self.cancel_after_s,
            tenant_weights=self.tenant_weights,
            admission_estimate=self.admission_estimate,
            initial_device_state=dict(self._device_state))

    def serve(self, requests: Sequence[InferenceRequest]) -> ServeReport:
        """Serve a whole trace: submit everything, drain the event loop."""
        # session construction (switch-cost table, shard setup) happens
        # outside the measured window, like the old engine's __init__ did
        core = self.streaming()
        start_wall = time.perf_counter()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            core.submit(req)
        core.drain()
        report = core.report()
        # the measured hot path covers admission + routing + per-batch
        # work; verification is excluded (it doubles the compute)
        report.wall_seconds = (time.perf_counter() - start_wall
                               - core.verify_wall_s)
        self._device_state = core.device_state()
        return report

    def serve_decode(self, requests: Sequence[InferenceRequest],
                     config: Optional[GenerationConfig] = None) -> ServeReport:
        """Serve a trace of *decode streams* offline: each request's
        ``tokens`` is a prompt, continued for ``config`` (or the engine's
        :class:`DecodeOptions` defaults) on the continuously-batched
        decode lanes.  Results carry a
        :class:`~repro.nn.generation.GenerationResult` as ``output``.
        """
        core = self.streaming()
        start_wall = time.perf_counter()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            core.submit_decode(req, config=config)
        core.drain()
        report = core.report()
        report.wall_seconds = (time.perf_counter() - start_wall
                               - core.verify_wall_s)
        self._device_state = core.device_state()
        return report
