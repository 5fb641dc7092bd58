"""Interactive generation under a per-token deadline.

The paper's motivating deployment is interactive NLP on-device (e.g. live
translation).  For generation, the timing constraint applies *per produced
token*: at a low V/F level a dense model blows the token budget, so the
runtime swaps in a sparser pattern set and keeps the conversation flowing.

This example trains a small LM, builds two pattern sets (accurate/fast),
and generates a continuation at the energy-saving level l3 under a 104 ms
per-token budget — showing the deadline check failing for the dense
configuration and passing after the swap.

Run:  python examples/interactive_generation.py
"""

import numpy as np

from repro.core import BlockPruningConfig, apply_block_pruning
from repro.core.patterns import MaskManager
from repro.core.search_space import PatternSearchSpace, SearchSpaceConfig
from repro.core.tasks import LMTask
from repro.core.trainer import train_plain
from repro.data import SyntheticWikiText, WikiTextConfig
from repro.hardware import OdroidXU3, paper_scale_transformer
from repro.hardware.latency import SparsityKind
from repro.nn import TransformerConfig, TransformerLM
from repro.nn.generation import DecodeSession, GenerationConfig


def main() -> None:
    plat = OdroidXU3()
    wl = paper_scale_transformer()
    l3 = plat.dvfs["l3"]
    budget_s = 0.104

    model = TransformerLM(TransformerConfig(
        vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16, dropout=0.0))
    corpus = SyntheticWikiText(WikiTextConfig(vocab_size=60, num_tokens=6000))
    task = LMTask(model, corpus, seq_len=12, batch_size=8, max_train_batches=20)
    print("training the LM ...")
    train_plain(task, epochs=4, lr=3e-3)
    print(f"  accuracy: {task.evaluate():.2%}")

    # backbone + a pattern ladder from the search space
    report = apply_block_pruning(model, BlockPruningConfig(num_blocks=2, rate=0.3))
    manager = MaskManager(model, report.masks)
    space = PatternSearchSpace(
        manager, wl, plat.dvfs.subset(["l3", "l4", "l6"]), deadline_s=budget_s,
        cfg=SearchSpaceConfig(pattern_size=8, theta=2, patterns_per_set=3))

    # dense configuration at l3: per-token latency vs the budget
    dense_lat = plat.latency.latency_s(wl, l3)
    print(f"\nper-token latency at l3, dense     : {dense_lat * 1e3:7.1f} ms "
          f"({'MISSES' if dense_lat > budget_s else 'meets'} the {budget_s * 1e3:.0f} ms budget)")

    # the l3-bound pattern set restores the budget
    pset = space.candidates["l3"][0]
    total_s = space.total_sparsity(pset.sparsity)
    sparse_lat = plat.latency.latency_s(wl, l3, total_s, SparsityKind.PATTERN)
    print(f"per-token latency at l3, s={total_s:.0%}   : {sparse_lat * 1e3:7.1f} ms "
          f"({'MISSES' if sparse_lat > budget_s else 'meets'} the budget)")
    swap = plat.reconfigurator.pattern_switch(wl, len(pset))
    print(f"pattern swap cost                  : {swap.milliseconds:7.1f} ms (one-time)")

    # generate with the sparse configuration active
    manager.apply(pset)
    prompt = corpus.test_tokens[:6]
    session = DecodeSession(model, GenerationConfig(max_new_tokens=12,
                                                    top_k=5, seed=0))
    stream = session.submit_prompt(prompt)
    session.run()
    out = session.result(stream)
    decode = corpus.vocab.decode
    print(f"\nprompt       : {' '.join(decode(prompt))}")
    print(f"continuation : {' '.join(decode(out.generated))}")
    print(f"mean token logprob: {np.mean(out.logprobs):.2f}")
    est = len(out.generated) * sparse_lat
    print(f"estimated on-device time for {len(out.generated)} tokens: {est:.2f} s "
          f"(vs {len(out.generated) * dense_lat:.2f} s dense)")


if __name__ == "__main__":
    main()
