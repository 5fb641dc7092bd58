"""Forward-plane bench: eager autograd Tensor forward vs compiled ndarray plan.

The serving stack's hot loop is one forward pass per micro-batch.  This
bench measures what :func:`repro.nn.inference.compile_inference` buys on
that path across three model shapes (the serving stack's TransformerLM, a
wider TransformerLM, and a DistilBERT classifier) × batch sizes:

- **wall clock** — interleaved timed loops of the eager Tensor forward
  (under ``no_grad``, exactly what ``run_padded`` used to run) vs the
  compiled plan; the speedup is the median per-pair ratio;
- **allocation counts** — graph nodes the eager path builds per forward
  (every ``Tensor`` carries data + closure + bookkeeping) vs the
  compiled plan's scratch-pool misses, which drop to **zero** per
  forward once the pool is warm;
- **exactness** — the float64 plan must reproduce the eager outputs
  **bit for bit** (``==``, not allclose); the opt-in float32 mode's
  relative deviation is recorded and bounded at its documented 1e-3
  tolerance.

The gated acceptance case is the serve shape at batch 1 — the paper's
per-inference on-device deadline config (and the single-request serving
path) — with a ``MIN_SPEEDUP`` floor of 2x; the batched cases are
reported alongside.  Machine-readable numbers land in
``benchmarks/results/BENCH_forward.fresh.json``;
``scripts/check_bench_regression.py`` re-runs the bench at the committed
configuration and fails on any exactness breach, node/alloc-count drift,
a float32 tolerance breach, or the acceptance speedup dropping below the
committed floor.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

import numpy as np

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.inference import compile_inference
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.tensor.tensor import Tensor, no_grad

from benchmarks.common import wall_ratio, write_json_result, write_result

MIN_SPEEDUP = 2.0
ACCEPTANCE_CASE = "serve.b1"
FLOAT32_TOL = 1e-3
BATCHES = (1, 8)


def build_models(seed: int = 0):
    """The three benched shapes; ``serve`` matches the serving stack."""
    return [
        ("serve", 12, TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
            max_len=16, dropout=0.0, seed=seed)).eval()),
        ("wide", 16, TransformerLM(TransformerConfig(
            vocab_size=120, dim=64, num_heads=4, ffn_dim=128,
            max_len=24, dropout=0.0, seed=seed)).eval()),
        ("distilbert", 16, DistilBertForSequenceTask(DistilBertConfig(
            vocab_size=80, dim=48, num_heads=4, ffn_dim=96, num_layers=3,
            max_len=24, dropout=0.0, seed=seed)).eval()),
    ]


def count_tensor_nodes(forward) -> int:
    """Autograd graph nodes one eager forward allocates (Tensor count)."""
    counter = [0]
    orig = Tensor.__init__

    def spy(self, *args, **kwargs):
        counter[0] += 1
        orig(self, *args, **kwargs)

    Tensor.__init__ = spy
    try:
        forward()
    finally:
        Tensor.__init__ = orig
    return counter[0]


def run_bench(smoke: bool = False, seed: int = 0, repeats: int = 5) -> dict:
    """Measure every shape x batch; returns the machine-readable digest."""
    inner = 20 if smoke else 50
    rng = np.random.default_rng(seed)
    cases = {}
    for shape_name, seq_len, model in build_models(seed):
        vocab = model.cfg.vocab_size
        plan = compile_inference(model)
        plan32 = compile_inference(model, dtype="float32")
        for batch in BATCHES:
            tokens = rng.integers(1, vocab, size=(batch, seq_len))

            def tensor_forward():
                with no_grad():
                    return model(tokens).data

            def compiled_forward():
                return plan(tokens)

            ref = tensor_forward()
            got = compiled_forward()  # also warms the scratch pool
            max_err = float(np.abs(ref - got).max()) if ref.size else 0.0
            got32 = plan32(tokens)
            rel32 = float(np.abs(got32 - ref).max()
                          / max(float(np.abs(ref).max()), 1e-30))
            misses_before = plan.pool.misses
            compiled_forward()
            steady_allocs = plan.pool.misses - misses_before
            tensor_ms, compiled_ms, speedup = wall_ratio(
                tensor_forward, compiled_forward, repeats, inner)
            cases[f"{shape_name}.b{batch}"] = {
                "model": type(model).__name__,
                "batch": batch,
                "seq_len": seq_len,
                "tensor_ms": tensor_ms,
                "compiled_ms": compiled_ms,
                "speedup": speedup,
                "max_abs_err": max_err,
                "exact": bool(np.array_equal(ref, got)),
                "tensor_nodes": count_tensor_nodes(tensor_forward),
                "compiled_steady_allocs": int(steady_allocs),
                "compiled_warm_allocs": int(misses_before),
                "float32_max_rel_err": rel32,
            }
    acceptance = cases[ACCEPTANCE_CASE]
    return {
        "bench": "forward",
        "smoke": smoke,
        "seed": seed,
        "repeats": repeats,
        "cases": cases,
        "acceptance": {
            "case": ACCEPTANCE_CASE,
            "speedup": acceptance["speedup"],
            "min_speedup": MIN_SPEEDUP,
            "exact": acceptance["exact"],
            "float32_tol": FLOAT32_TOL,
        },
    }


def render(digest: dict) -> str:
    rows = [
        f"{'case':<16} {'tensor ms':>10} {'compiled ms':>12} {'speedup':>8} "
        f"{'nodes':>6} {'allocs':>7} {'exact':>6}",
        "-" * 72,
    ]
    for name, case in digest["cases"].items():
        rows.append(
            f"{name:<16} {case['tensor_ms']:>10.3f} "
            f"{case['compiled_ms']:>12.3f} {case['speedup']:>7.2f}x "
            f"{case['tensor_nodes']:>6} {case['compiled_steady_allocs']:>7} "
            f"{'yes' if case['exact'] else 'NO':>6}")
    acc = digest["acceptance"]
    rows.append("")
    rows.append(f"acceptance ({acc['case']}): {acc['speedup']:.2f}x "
                f"(floor {acc['min_speedup']}x), float64 bit-exact: "
                f"{acc['exact']}")
    rows.append("nodes = autograd Tensors per eager forward; allocs = "
                "compiled scratch-pool misses per steady-state forward")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_forward_shape():
    digest = run_bench(repeats=3)
    write_result("forward_fastpath", render(digest))
    write_json_result("forward", digest)
    for name, case in digest["cases"].items():
        assert case["exact"], f"{name}: compiled forward not bit-identical"
        assert case["max_abs_err"] == 0.0
        assert case["compiled_steady_allocs"] == 0, name
        assert case["float32_max_rel_err"] < FLOAT32_TOL, name
    assert digest["acceptance"]["speedup"] >= MIN_SPEEDUP


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short timed loops for CI")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 5)
    digest = run_bench(smoke=args.smoke, seed=args.seed, repeats=repeats)
    write_result("forward_fastpath", render(digest))
    write_json_result("forward", digest)
    ok = (all(c["exact"] and c["compiled_steady_allocs"] == 0
              and c["float32_max_rel_err"] < FLOAT32_TOL
              for c in digest["cases"].values())
          and digest["acceptance"]["speedup"] >= MIN_SPEEDUP)
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
