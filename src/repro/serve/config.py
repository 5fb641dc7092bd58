"""The serving loop's knobs, declared and validated in one place.

:class:`ServeConfig` is the single home of every engine knob: the
``rt3 serve`` flags build one, :class:`~repro.serve.stack.StackConfig`
extends it with the demo-model recipe, and both
:class:`~repro.serve.engine.ServeEngine` and
:class:`~repro.serve.streaming.StreamingEngine` hold the instance they
are given instead of copying its fields.  It is frozen and validated in
``__post_init__``, so an engine never sees a bad value; every rejection
is a :class:`~repro.utils.config.ConfigError` naming the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.serve.decode import DecodeOptions
from repro.serve.faults import PREEMPT_POLICIES, SHED_POLICIES, FaultPlan
from repro.serve.sharding import DRAIN_POLICIES, POLICIES
from repro.utils.config import ConfigError, require

__all__ = ["ServeConfig"]


def _positive(value: float) -> bool:
    # NaN fails every comparison, so "finite and > 0" rules it out too
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the serving loop (defaults match the serve bench).

    Batching and routing:

    - ``max_batch`` / ``window_s`` — a micro-batch group closes when it
      reaches ``max_batch`` members or ``window_s`` after its first
      arrival, whichever comes first;
    - ``devices`` / ``policy`` — the simulated shard fan-out and the
      dispatch policy (``round-robin`` | ``least-loaded`` |
      ``switch-aware``);
    - ``time_sliced`` — each batch member completes at its own offset
      inside the batch (``False``: every member waits for the whole
      batch);
    - ``prewarm`` — each device starts with the pattern set of its first
      routed batch already resident (deploy-time provisioning, not
      charged to the serving timeline).

    Per-shard drain order: ``drain_policy`` (``fifo`` |
    ``level-affinity`` | ``adaptive``), ``fairness_window`` (the longest
    level run while another level waits), and the adaptive flip — to
    level-affinity once the switch rate over ``adaptive_window`` batches
    reaches ``adaptive_threshold``, and back to fifo at
    ``adaptive_low_threshold`` when that hysteresis band is set.

    ``decode`` groups the decode-lane sampling defaults.

    Faults and admission control: ``faults`` schedules shard
    crash/stall/slow events (simulated seconds from session start;
    every targeted shard must exist), ``probe_backoff_s`` is the first
    re-probe interval of a downed shard (doubling per miss),
    ``shed_policy`` (``none`` | ``reject`` | ``degrade``) and
    ``max_queue`` are the overload defenses, ``preempt_policy`` (``off``
    | ``queued`` | ``running``) lets a tight-deadline batch pull looser
    work off its shard, ``cancel_after_s`` is an engine-wide client
    timeout, and ``tenant_weights`` splits ``max_queue`` into weighted
    per-tenant shares.

    Checking a run is not a knob: :mod:`repro.serve.invariants` checks
    any finished session after the fact.
    """

    max_batch: int = 8
    window_s: float = 0.05
    devices: int = 1
    policy: str = "round-robin"
    time_sliced: bool = True
    prewarm: bool = False
    drain_policy: str = "fifo"
    fairness_window: int = 4
    adaptive_window: int = 8
    adaptive_threshold: float = 0.5
    adaptive_low_threshold: Optional[float] = None
    decode: DecodeOptions = field(default_factory=DecodeOptions)
    faults: Optional[FaultPlan] = None
    shed_policy: str = "none"
    max_queue: Optional[int] = None
    probe_backoff_s: float = 0.005
    preempt_policy: str = "off"
    cancel_after_s: Optional[float] = None
    tenant_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        require(self.max_batch >= 1, "max_batch", "max_batch must be at least 1")
        require(math.isfinite(self.window_s) and self.window_s >= 0,
                "window_s",
                f"window_s must be finite and non-negative, got {self.window_s}")
        require(self.devices >= 1, "devices", "devices must be at least 1")
        for name, label, options in (
                ("policy", "dispatch policy", POLICIES),
                ("drain_policy", "drain policy", DRAIN_POLICIES),
                ("shed_policy", "shed policy", SHED_POLICIES),
                ("preempt_policy", "preempt policy", PREEMPT_POLICIES)):
            value = getattr(self, name)
            require(value in options, name, f"unknown {label} {value!r}; "
                    f"options: {list(options)}")
        require(self.fairness_window >= 1, "fairness_window",
                "fairness_window must be at least 1")
        require(self.adaptive_window >= 1, "adaptive_window",
                "adaptive_window must be at least 1")
        require(0.0 < self.adaptive_threshold <= 1.0, "adaptive_threshold",
                "adaptive_threshold must be in (0, 1]")
        low = self.adaptive_low_threshold
        require(low is None or 0.0 <= low < self.adaptive_threshold,
                "adaptive_low_threshold",
                f"adaptive_low_threshold must be in [0, adaptive_threshold), "
                f"got {low}")
        try:
            self.decode.generation_config()
        except ConfigError as exc:
            raise ConfigError(f"decode.{exc.field}", str(exc)) from None
        for f in self.faults or ():
            require(f.shard_id < self.devices, "faults",
                    f"fault targets shard {f.shard_id} but the engine has "
                    f"{self.devices} device(s)")
        require(self.max_queue is None or self.max_queue >= 1, "max_queue",
                f"max_queue must be at least 1 (or None), got {self.max_queue}")
        require(_positive(self.probe_backoff_s), "probe_backoff_s",
                f"probe_backoff_s must be finite and positive, "
                f"got {self.probe_backoff_s}")
        require(self.cancel_after_s is None
                or _positive(self.cancel_after_s), "cancel_after_s",
                f"cancel_after_s must be finite and positive (or None), "
                f"got {self.cancel_after_s}")
        for tenant, weight in (self.tenant_weights or {}).items():
            require(bool(tenant), "tenant_weights",
                    "tenant names must be non-empty")
            require(_positive(weight), "tenant_weights",
                    f"tenant weight for {tenant!r} must be finite and "
                    f"positive, got {weight}")
