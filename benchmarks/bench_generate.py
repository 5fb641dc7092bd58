"""Decode bench: eager token-by-token generation vs the compiled plan.

The interactive-translation story serves tokens, not batches: one
autoregressive step per produced token, under a per-token deadline.  This
bench measures what :func:`repro.nn.inference.compile_decode` (driven
through :class:`repro.nn.generation.DecodeSession`, whose step is the
last output row of the compiled full-sequence plan) buys on that path
across model shapes × mask formats:

- **per-token wall clock** — full decodes through the eager Tensor loop
  (exactly the historical ``generate()``) vs the compiled decode
  session, timed in interleaved pairs (the speedup is the median
  per-pair ratio);
- **exactness** — the float64 compiled decode must reproduce the eager
  tokens **and logprobs** bit for bit (``==``, not allclose), solo and
  under a ragged continuous-batching schedule where streams join and
  leave the rolling batch at token boundaries;
- **continuous batching** — per-stream-token cost of decoding
  ``BATCH_STREAMS`` streams through one shared session vs one at a time.

The gated acceptance case is the serving stack's model shape with dense
weights (``serve.dense``) with a ``MIN_SPEEDUP`` per-token floor of 2x.
Machine-readable numbers land in ``benchmarks/results/BENCH_generate.fresh.json``;
``scripts/check_bench_regression.py`` re-runs the bench at the committed
configuration and fails on any exactness breach, a ragged-schedule
mismatch, or the acceptance speedup dropping below the committed floor.
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

from repro.core.patterns import MaskManager, random_pattern_set
from repro.nn.generation import DecodeSession, GenerationConfig, sample_token
from repro.nn.inference import compile_decode
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.tensor.tensor import Tensor, no_grad

from benchmarks.common import wall_ratio, write_json_result, write_result

MIN_SPEEDUP = 2.0
ACCEPTANCE_CASE = "serve.dense"
PROMPT_LEN = 5
NEW_TOKENS = 10
BATCH_STREAMS = 8


def build_models(seed: int = 0):
    """(shape, mask) variants; ``serve`` matches the serving stack."""
    shapes = [
        ("serve", TransformerConfig(vocab_size=60, dim=32, num_heads=2,
                                    ffn_dim=64, max_len=16, dropout=0.0,
                                    seed=seed)),
        ("wide", TransformerConfig(vocab_size=120, dim=64, num_heads=4,
                                   ffn_dim=128, max_len=24, dropout=0.0,
                                   seed=seed)),
    ]
    out = []
    for shape_name, cfg in shapes:
        for mask in ("dense", "pattern"):
            model = TransformerLM(cfg).eval()
            if mask == "pattern":
                pset = random_pattern_set(8, 0.5, 3,
                                          np.random.default_rng(seed))
                MaskManager(model).apply(pset)
            out.append((f"{shape_name}.{mask}", model))
    return out


def eager_decode(model, prompt: np.ndarray, cfg: GenerationConfig):
    """The historical ``generate()`` loop, verbatim: the timing and
    exactness baseline."""
    tokens = np.asarray(prompt, dtype=np.int64).copy()
    rng = np.random.default_rng(cfg.seed)
    logprobs = []
    max_len = model.cfg.max_len
    for _ in range(cfg.max_new_tokens):
        context = tokens[-max_len:]
        with no_grad():
            logits = model(Tensor(context[None, :])).data[0, -1]
        nxt, logprob = sample_token(logits, cfg, rng)
        tokens = np.append(tokens, nxt)
        logprobs.append(logprob)
    return tokens, logprobs


def compiled_decode_run(model, plan, prompts, cfgs):
    """Decode ``prompts`` together through one shared compiled session."""
    session = DecodeSession(model, plan=plan)
    sids = [session.submit_prompt(p, c) for p, c in zip(prompts, cfgs)]
    session.run()
    return [session.result(sid) for sid in sids]


def ragged_schedule_exact(model, plan, seed: int) -> bool:
    """Streams joining one per boundary with mixed budgets/sampling must
    each equal their solo eager run bit for bit."""
    rng = np.random.default_rng(seed)
    vocab = model.cfg.vocab_size
    prompts = [rng.integers(0, vocab, size=2 + i) for i in range(6)]
    cfgs = [GenerationConfig(max_new_tokens=3 + i % 4,
                             top_k=None if i % 2 else 5, seed=i)
            for i in range(6)]
    session = DecodeSession(model, plan=plan)
    sids = [session.submit_prompt(prompts[0], cfgs[0])]
    pending = list(zip(prompts[1:], cfgs[1:]))
    while pending or not session.finished():
        if not session.finished():
            session.step()
        if pending:
            p, c = pending.pop(0)
            sids.append(session.submit_prompt(p, c))
    for sid, prompt, cfg in zip(sids, prompts, cfgs):
        ref_tokens, ref_logprobs = eager_decode(model, prompt, cfg)
        got = session.result(sid)
        if not np.array_equal(got.tokens, ref_tokens):
            return False
        if got.logprobs != ref_logprobs:
            return False
    return True


def run_bench(smoke: bool = False, seed: int = 0, repeats: int = 5) -> dict:
    """Measure every shape x mask; returns the machine-readable digest."""
    repeats = max(1, repeats if not smoke else min(repeats, 2))
    rng = np.random.default_rng(seed)
    cases = {}
    batching = None
    for name, model in build_models(seed):
        vocab = model.cfg.vocab_size
        plan = compile_decode(model)
        cfg = GenerationConfig(max_new_tokens=NEW_TOKENS)
        prompt = rng.integers(0, vocab, size=PROMPT_LEN)

        ref_tokens, ref_logprobs = eager_decode(model, prompt, cfg)
        got = compiled_decode_run(model, plan, [prompt], [cfg])[0]
        tokens_match = bool(np.array_equal(got.tokens, ref_tokens))
        lp_err = (max(abs(a - b) for a, b in zip(got.logprobs, ref_logprobs))
                  if got.logprobs else 0.0)

        eager_ms, compiled_ms, speedup = wall_ratio(
            lambda: eager_decode(model, prompt, cfg),
            lambda: compiled_decode_run(model, plan, [prompt], [cfg]),
            repeats)
        cases[name] = {
            "prompt_len": PROMPT_LEN,
            "new_tokens": NEW_TOKENS,
            "eager_tok_ms": eager_ms / NEW_TOKENS,
            "compiled_tok_ms": compiled_ms / NEW_TOKENS,
            "speedup": speedup,
            "exact": tokens_match and lp_err == 0.0,
            "max_abs_err": float(lp_err),
            "ragged_exact": ragged_schedule_exact(model, plan, seed + 1),
        }
        if name == ACCEPTANCE_CASE:
            # continuous batching on the acceptance shape: the per
            # stream-token cost of 8 streams sharing the rolling batch
            prompts = [rng.integers(0, vocab, size=PROMPT_LEN)
                       for _ in range(BATCH_STREAMS)]
            cfgs = [cfg] * BATCH_STREAMS
            solo_eager_ms, batched_ms, batch_speedup = wall_ratio(
                lambda: [eager_decode(model, p, cfg) for p in prompts],
                lambda: compiled_decode_run(model, plan, prompts, cfgs),
                repeats)
            batching = {
                "streams": BATCH_STREAMS,
                "new_tokens_per_stream": NEW_TOKENS,
                "batched_tok_ms": batched_ms / (BATCH_STREAMS * NEW_TOKENS),
                "eager_tok_ms": solo_eager_ms / (BATCH_STREAMS * NEW_TOKENS),
                "speedup": batch_speedup,
            }
    acceptance = cases[ACCEPTANCE_CASE]
    return {
        "bench": "generate",
        "smoke": smoke,
        "seed": seed,
        "repeats": repeats,
        "cases": cases,
        "batching": batching,
        "acceptance": {
            "case": ACCEPTANCE_CASE,
            "speedup": acceptance["speedup"],
            "min_speedup": MIN_SPEEDUP,
            "exact": acceptance["exact"],
            "ragged_exact": acceptance["ragged_exact"],
        },
    }


def render(digest: dict) -> str:
    rows = [
        f"{'case':<16} {'eager tok ms':>13} {'plan tok ms':>12} {'speedup':>8} "
        f"{'exact':>6} {'ragged':>7}",
        "-" * 68,
    ]
    for name, case in digest["cases"].items():
        rows.append(
            f"{name:<16} {case['eager_tok_ms']:>13.3f} "
            f"{case['compiled_tok_ms']:>12.3f} {case['speedup']:>7.2f}x "
            f"{'yes' if case['exact'] else 'NO':>6} "
            f"{'yes' if case['ragged_exact'] else 'NO':>7}")
    bat = digest["batching"]
    rows.append("")
    rows.append(
        f"continuous batching x{bat['streams']}: "
        f"{bat['batched_tok_ms']:.3f} ms/stream-token vs eager "
        f"{bat['eager_tok_ms']:.3f} ({bat['speedup']:.2f}x)")
    acc = digest["acceptance"]
    rows.append(f"acceptance ({acc['case']}): {acc['speedup']:.2f}x "
                f"(floor {acc['min_speedup']}x), bit-exact: {acc['exact']}, "
                f"ragged schedule exact: {acc['ragged_exact']}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_generate_decode_plane():
    digest = run_bench(repeats=3)
    write_result("generate_decode", render(digest))
    write_json_result("generate", digest)
    for name, case in digest["cases"].items():
        assert case["exact"], f"{name}: compiled decode not bit-identical"
        assert case["max_abs_err"] == 0.0, name
        assert case["ragged_exact"], f"{name}: ragged schedule diverged"
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
    repeats = args.repeats or (2 if args.smoke else 5)
    digest = run_bench(smoke=args.smoke, seed=args.seed, repeats=repeats)
    write_result("generate_decode", render(digest))
    write_json_result("generate", digest)
    ok = (all(c["exact"] and c["max_abs_err"] == 0.0 and c["ragged_exact"]
              for c in digest["cases"].values())
          and digest["acceptance"]["speedup"] >= MIN_SPEEDUP)
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
