"""Offline serving wrapper over the event-driven streaming core.

:class:`ServeEngine` is the trace-at-once API, ``serve(requests) ->
ServeReport``; the serving semantics live in
:class:`~repro.serve.streaming.StreamingEngine` — ``serve`` spins up a
streaming session over this engine's
:class:`~repro.serve.config.ServeConfig`, seeded with its per-device
installed-pattern state, submits the whole trace, drains the event loop,
and syncs the device state back.  Because the streaming loop is
tick-granularity independent, the wrapper's batching, routing and
simulated timeline are identical to feeding the same arrivals through
``submit``/``tick`` online (asserted across scenarios, device counts and
dispatch policies in the streaming test suite).  Drain-order decisions
(``level-affinity``, post-flip ``adaptive``) are *online*: a shard picks
among the batches admitted by its decision instant.

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

A ``ServeConfig(devices=1, time_sliced=False, max_batch=1)`` with no cache
reproduces the repo's original single-request path — mask re-derivation
and one forward per request — which is exactly the baseline the serving
bench compares against.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable
from repro.nn.generation import GenerationConfig
from repro.serve.batcher import InferenceRequest
from repro.serve.cache import ArtifactCache
from repro.serve.config import ServeConfig
from repro.serve.streaming import ServeReport, StreamingEngine

__all__ = ["ServeEngine", "ServeReport"]


class ServeEngine:
    """Serve request traces through a masked model on N simulated devices.

    ``adapter`` supplies the sparsity ladder, latency model and (via its
    ``manager``) the mask installation path; ``config`` holds every
    serving knob and is handed to each session as is; ``cache``
    (optional) is attached to the manager so repeated installs of a
    known pattern set hit instead of re-deriving masks.

    Devices persist across ``serve`` calls: a shard keeps its installed
    pattern set between traces, so a follow-up run is never re-charged
    the cold-start install.  :meth:`streaming` hands out the underlying
    online engine for callers that want to feed arrivals incrementally.

    The report a ``serve`` call returns is its session's own
    :meth:`~repro.serve.streaming.StreamingEngine.report`, wall time
    included.  A caller that checks the run afterwards
    (:mod:`repro.serve.invariants`) drives a :meth:`streaming` session
    itself and keeps it.
    """

    def __init__(self, model, adapter: RuntimeAdapter,
                 config: ServeConfig = ServeConfig(), *,
                 cache: Optional[ArtifactCache] = None) -> None:
        self.model = model
        self.adapter = adapter
        self.config = config
        self.cache = cache
        self.dvfs = DVFSTable()
        # installed pattern set per device, surviving across serve() calls
        self._device_state: Dict[int, Optional[float]] = {}

    def streaming(self) -> StreamingEngine:
        """A live online session sharing this engine's model and devices.

        The session starts from the engine's current per-device installed
        state; it does *not* sync back (the offline wrapper owns that
        lifecycle — an online caller keeps its session for the duration).
        """
        return StreamingEngine(self.model, self.adapter, self.config,
                               cache=self.cache,
                               initial_device_state=dict(self._device_state))

    def serve(self, requests: Sequence[InferenceRequest]) -> ServeReport:
        """Serve a whole trace: submit everything, drain the event loop."""
        return self._serve(requests, lambda core, req: core.submit(req))

    def serve_decode(self, requests: Sequence[InferenceRequest],
                     config: Optional[GenerationConfig] = None) -> ServeReport:
        """Serve a trace of *decode streams* offline: each request's
        ``tokens`` is a prompt, continued for ``config`` (or the engine's
        ``config.decode`` defaults) on the continuously-batched decode
        lanes.  Results carry a
        :class:`~repro.nn.generation.GenerationResult` as ``output``.
        """
        return self._serve(
            requests, lambda core, req: core.submit_decode(req, config=config))

    def _serve(self, requests, submit) -> ServeReport:
        core = self.streaming()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            submit(core, req)
        core.drain()
        self._device_state = core.device_state()
        return core.report()
