"""One-call construction of a demo serving stack.

The `rt3 serve` CLI command and ``benchmarks/bench_serve.py`` serve the
same tiny Transformer through the same ladder/adapter/engine recipe; this
module is the single copy of that recipe so the CLI's behaviour cannot
drift from the bench that is supposed to mirror it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.workload import WorkloadProfile, profile_from_model
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.cache import ArtifactCache
from repro.serve.config import ServeConfig
from repro.serve.engine import ServeEngine
from repro.serve.streaming import StreamingEngine
from repro.utils.config import require


@dataclass(frozen=True)
class StackConfig(ServeConfig):
    """The serving knobs plus the demo-stack recipe (defaults match the bench).

    Adds only what the recipe needs on top of :class:`ServeConfig`: the
    tiny Transformer's shape and seed, the pattern ladder
    (``pattern_size`` × ``patterns_per_set`` patterns per sparsity rung),
    the artifact cache (``use_cache``, with ``cache_budget_bytes`` of
    device memory reserved for resident masks, evicted size-aware LRU
    past it), and ``streaming`` — hand out the
    online :class:`StreamingEngine` (submit/tick/drain) instead of the
    offline trace wrapper.
    """

    dim: int = 32
    vocab_size: int = 60
    seq_len: int = 12
    max_len: int = 16
    pattern_size: int = 8
    patterns_per_set: int = 3
    sparsities: Sequence[float] = (0.3, 0.5, 0.7, 0.9)
    seed: int = 0
    use_cache: bool = True
    cache_budget_bytes: int = 8 << 20
    streaming: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        require(math.isfinite(self.cache_budget_bytes)
                and self.cache_budget_bytes >= 0, "cache_budget_bytes",
                f"cache_budget_bytes must be finite and non-negative, "
                f"got {self.cache_budget_bytes}")


def build_serving_stack(cfg: Optional[StackConfig] = None
                        ) -> Tuple[TransformerLM, WorkloadProfile,
                                   Union[ServeEngine, StreamingEngine]]:
    """Model + workload profile + ready-to-serve engine.

    With ``cfg.streaming=True`` the third element is the online
    :class:`StreamingEngine` session; otherwise the offline
    :class:`ServeEngine` wrapper (whose :meth:`~ServeEngine.streaming`
    hands out a session on demand).
    """
    cfg = cfg or StackConfig()
    model = TransformerLM(TransformerConfig(
        vocab_size=cfg.vocab_size, dim=cfg.dim, num_heads=2,
        ffn_dim=2 * cfg.dim, max_len=cfg.max_len, dropout=0.0,
        seed=cfg.seed)).eval()
    workload = profile_from_model(model, seq_len=cfg.seq_len)
    rng = np.random.default_rng(cfg.seed)
    ladder = {s: random_pattern_set(cfg.pattern_size, s, cfg.patterns_per_set, rng)
              for s in cfg.sparsities}
    adapter = RuntimeAdapter(ladder, workload, manager=MaskManager(model),
                             hardware_pattern_size=cfg.pattern_size)
    cache = (ArtifactCache(budget_bytes=int(cfg.cache_budget_bytes))
             if cfg.use_cache else None)
    engine = ServeEngine(model, adapter, cfg, cache=cache)
    if cfg.streaming:
        return model, workload, engine.streaming()
    return model, workload, engine
