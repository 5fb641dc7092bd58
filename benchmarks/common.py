"""Shared scaffolding for the per-table/figure benchmark harnesses.

Each ``bench_*`` module reproduces one table or figure of the paper at
laptop scale: it builds the experiment, prints the same rows/series the
paper reports (plus the paper's own numbers for comparison), writes the
rendered table to ``benchmarks/results/<name>.fresh.txt`` (human-readable,
informational — never gated) and a machine-readable
``BENCH_<name>.fresh.json`` digest; both ``.fresh`` names are gitignored,
so a bench run rewrites no tracked file.  The committed ``<name>.txt``
snapshots are refreshed only by hand.  The committed baseline
``BENCH_<name>.json`` is never written by a bench run:
``scripts/check_bench_regression.py`` replays each bench against it on
every CI run, and only its ``--update-baseline`` rewrites it.

Absolute numbers are not expected to match the authors' testbed; the
*shape* (who wins, by roughly what factor) is asserted in the tests and
pinned by the regression gate's rule table.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from typing import Callable, Dict, Tuple

from repro.core.controller import ControllerConfig
from repro.core.block_pruning import BlockPruningConfig
from repro.core.rt3 import RT3Config
from repro.core.search_space import SearchSpaceConfig
from repro.core.tasks import GlueTask, LMTask
from repro.core.trainer import TrainConfig, train_plain
from repro.data.glue import GlueTaskConfig, SyntheticGlueTask
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.transformer import TransformerConfig, TransformerLM

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure as ``<name>.fresh.txt`` and echo
    it to stdout.

    The gitignored ``.fresh`` name keeps a run from rewriting the
    committed ``<name>.txt`` snapshot, which is refreshed by hand (copy
    the fresh table over it).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.fresh.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def write_json_result(name: str, payload: Dict) -> pathlib.Path:
    """Persist a machine-readable bench result as ``BENCH_<name>.fresh.json``.

    The gitignored ``.fresh`` name keeps a standalone run (``--smoke`` or
    not) from overwriting the committed ``BENCH_<name>.json`` baseline,
    which the regression gate alone writes (``--update-baseline``).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.fresh.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench] machine-readable result -> {path}")
    return path


# ---------------------------------------------------------------------------
# experiment builders (kept deliberately small so benches stay minutes-fast)
# ---------------------------------------------------------------------------

def make_lm_task(seed: int = 0, pretrain_epochs: int = 4) -> LMTask:
    """A trained tiny WikiText-2-style LM task."""
    model = TransformerLM(TransformerConfig(
        vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
        num_encoder_layers=2, num_decoder_layers=1,
        max_len=16, dropout=0.0, seed=seed,
    ))
    corpus = SyntheticWikiText(WikiTextConfig(vocab_size=60, num_tokens=6000, seed=7))
    task = LMTask(model, corpus, seq_len=12, batch_size=8,
                  max_train_batches=20, max_eval_batches=6)
    if pretrain_epochs:
        train_plain(task, epochs=pretrain_epochs, lr=3e-3)
    return task


def make_glue_task(task_name: str, seed: int = 0, pretrain_epochs: int = 4) -> GlueTask:
    """A trained tiny DistilBERT GLUE task."""
    data = SyntheticGlueTask(GlueTaskConfig(
        task=task_name, vocab_size=80, num_train=128, num_eval=64,
        seq_len=16, seed=11,
    ))
    cfg = DistilBertConfig(
        vocab_size=80, dim=32, num_heads=2, ffn_dim=64, num_layers=2,
        max_len=24, dropout=0.0, num_labels=max(data.num_labels, 2),
        is_regression=data.is_regression, seed=seed,
    )
    model = DistilBertForSequenceTask(cfg)
    glue = GlueTask(model, data, batch_size=16, max_train_batches=8)
    if pretrain_epochs:
        train_plain(glue, epochs=pretrain_epochs, lr=3e-3)
    return glue


def small_rt3_config(deadline_s: float, episodes: int = 6, seed: int = 0,
                     min_accuracy: float = 0.0) -> RT3Config:
    """RT3 configuration shared by the search-driven benches."""
    return RT3Config(
        deadline_s=deadline_s,
        episodes=episodes,
        min_accuracy=min_accuracy,
        bp=BlockPruningConfig(num_blocks=2, rate=0.3, seed=seed),
        space=SearchSpaceConfig(pattern_size=8, theta=3, patterns_per_set=3,
                                seed=seed),
        controller=ControllerConfig(seed=seed),
        episode_train=TrainConfig(epochs=1, lr=2e-3),
        finetune_train=TrainConfig(epochs=2, lr=2e-3),
        backbone_finetune_epochs=2,
        seed=seed,
    )


def wall_ratio(slow: Callable, fast: Callable, repeats: int,
               inner: int = 1) -> Tuple[float, float, float]:
    """Time ``slow`` against ``fast`` in ``repeats`` interleaved pairs.

    Each pair runs ``inner`` calls of ``slow`` then ``inner`` calls of
    ``fast``.  Returns the median milliseconds per call of each side and
    the median of the per-pair ratios.  Both halves of a pair see the
    same machine state, so a slow patch on a shared host moves both and
    cancels in the ratio instead of landing on one side of a best-of-N.
    """
    slow_s, fast_s, ratios = [], [], []
    for _ in range(max(1, repeats)):
        for fn, times in ((slow, slow_s), (fast, fast_s)):
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - start) / inner)
        ratios.append(slow_s[-1] / fast_s[-1])
    return (1e3 * statistics.median(slow_s), 1e3 * statistics.median(fast_s),
            statistics.median(ratios))


def holds(check: Callable, *args, **kwargs) -> float:
    """A digest flag: 1.0 when ``check(*args, **kwargs)`` passes, 0.0
    when it raises ``AssertionError`` (the regression gate holds it at 1)."""
    try:
        check(*args, **kwargs)
    except AssertionError:
        return 0.0
    return 1.0


def fmt_pct(x: float) -> str:
    return f"{100 * x:.2f}%"


def fmt_runs(x: float) -> str:
    return f"{x:.3e}"


def canon(x: float, ndigits: int = 9) -> float:
    """Canonical float for digest rows: rounded so exact-equality gating
    compares stable decimals rather than the last ulp of a repr."""
    return round(float(x), ndigits)
