"""ServeConfig: the one validated home of every serving knob.

Rules that a feature's own tests already pin (devices, dispatch and drain
policies, the adaptive thresholds, fairness window, batching window,
fault targets, probe backoff) stay with those tests; this table covers
the rest, and checks that every rejection names the field it came from.
"""

import dataclasses

import pytest

from repro.serve import (
    DecodeOptions,
    ScenarioConfig,
    ServeConfig,
    StackConfig,
    build_serving_stack,
)
from repro.utils.config import ConfigError

NAN, INF = float("nan"), float("inf")


class TestServeConfig:
    @pytest.mark.parametrize("make,field,match", [
        (lambda: ServeConfig(window_s=NAN), "window_s", "window_s"),
        (lambda: ServeConfig(max_queue=0), "max_queue", "max_queue"),
        (lambda: ServeConfig(probe_backoff_s=NAN), "probe_backoff_s",
         "probe_backoff_s"),
        (lambda: ServeConfig(probe_backoff_s=INF), "probe_backoff_s",
         "probe_backoff_s"),
        (lambda: ServeConfig(cancel_after_s=0.0), "cancel_after_s",
         "cancel_after_s"),
        (lambda: ServeConfig(cancel_after_s=NAN), "cancel_after_s",
         "cancel_after_s"),
        (lambda: ServeConfig(shed_policy="drop"), "shed_policy",
         "unknown shed policy"),
        (lambda: ServeConfig(preempt_policy="always"), "preempt_policy",
         "unknown preempt policy"),
        (lambda: ServeConfig(tenant_weights={"": 1.0}), "tenant_weights",
         "tenant names"),
        (lambda: ServeConfig(tenant_weights={"hot": NAN}), "tenant_weights",
         "tenant weight for 'hot'"),
        (lambda: ServeConfig(tenant_weights={"hot": 0.0}), "tenant_weights",
         "tenant weight for 'hot'"),
        (lambda: ServeConfig(decode=DecodeOptions(temperature=NAN)),
         "decode.temperature", "temperature must be positive"),
        (lambda: ServeConfig(decode=DecodeOptions(max_new_tokens=0)),
         "decode.max_new_tokens", "max_new_tokens"),
        (lambda: StackConfig(cache_budget_bytes=-1), "cache_budget_bytes",
         "cache_budget_bytes"),
        (lambda: StackConfig(max_batch=0), "max_batch", "max_batch"),
        (lambda: ScenarioConfig(num_requests=-3), "num_requests",
         "num_requests"),
    ])
    def test_rejects(self, make, field, match):
        with pytest.raises(ConfigError, match=match) as info:
            make()
        assert info.value.field == field
        assert isinstance(info.value, ValueError)

    def test_defaults_are_valid(self):
        ServeConfig()
        StackConfig()

    def test_stack_config_is_a_frozen_serve_config_held_uncopied(self):
        cfg = StackConfig(devices=2, window_s=1e-3)
        assert isinstance(cfg, ServeConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.devices = 3
        _, _, engine = build_serving_stack(cfg)
        assert engine.config is cfg
        assert engine.streaming().config is cfg
        _, _, core = build_serving_stack(
            dataclasses.replace(cfg, streaming=True))
        assert core.config.window_s == 1e-3
        assert core.admission.window_s == 1e-3
