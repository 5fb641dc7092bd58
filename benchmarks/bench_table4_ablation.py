"""Table IV: the six-way ablation (No-Opt / rBP / rBP+rPP / rBP+PP / BP / RT3).

Expected shape (paper, WikiText-2 column):
- runs improvement: pruned variants beat No-Opt; pattern-set variants
  (rBP+rPP, rBP+PP, RT3) beat single-model variants (rBP, BP);
- accuracy loss: BP < rBP (norm-guided beats random);
  rBP+PP < rBP+rPP (importance-guided patterns beat random patterns);
  RT3 keeps the smallest multi-set loss.

Besides the rendered tables (informational,
``benchmarks/results/table4_ablation_*.fresh.txt``), ``run_bench`` writes a
machine-readable digest (``benchmarks/results/BENCH_table4.fresh.json``): one
row per (task, method) with average sparsity, #runs, improvement factor,
average score and score loss.  The study is a deterministic function of
the seeds/episode counts recorded in the digest, so
``scripts/check_bench_regression.py`` replays the committed
configuration and gates the row set by exact equality — any perturbed
ablation row fails the gate; wall time is informational.
"""

import argparse
import pathlib
import sys
import time
from typing import List, Optional

import numpy as np

try:  # the CI regression gate imports run_bench in a numpy-only env
    import pytest
except ModuleNotFoundError:
    pytest = None

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.ablation import AblationConfig, AblationStudy, format_ablation_table
from repro.hardware.workload import paper_scale_distilbert, paper_scale_transformer

from benchmarks.common import (
    canon, make_glue_task, make_lm_task, small_rt3_config, write_json_result, write_result,
)

# (task, deadline_s, search episodes) per studied column of Table IV
STUDIES = {"wikitext2": (0.104, 4), "rte": (0.200, 3)}


def run_study(task_name: str, episodes: Optional[int] = None,
              pretrain_epochs: int = 6, finetune_epochs: int = 2):
    """Run the six-configuration study for one Table-IV column."""
    deadline, default_episodes = STUDIES[task_name]
    if task_name == "wikitext2":
        task = make_lm_task(pretrain_epochs=pretrain_epochs)
        workload = paper_scale_transformer()
    else:
        task = make_glue_task(task_name, pretrain_epochs=pretrain_epochs)
        workload = paper_scale_distilbert()
    cfg = AblationConfig(rt3=small_rt3_config(deadline, episodes=episodes
                                              or default_episodes),
                         finetune_epochs=finetune_epochs)
    study = AblationStudy(task, workload, cfg)
    return {row.method: row for row in study.run_all()}


def run_bench(tasks=None, episodes=None, pretrain_epochs: int = 6,
              finetune_epochs: int = 2, studies=None) -> dict:
    """Machine-readable Table IV digest (one row per task x method).

    ``episodes`` may be an int (all tasks) or a per-task dict (the gate
    replays the committed digest's per-task episode counts); ``studies``
    is an optional precomputed ``{task: {method: row}}`` mapping so
    callers that already ran the studies (the pytest shape tests,
    ``main``) do not pay for them twice.
    """
    start = time.perf_counter()
    if studies is None:
        studies = {
            name: run_study(
                name,
                episodes.get(name) if isinstance(episodes, dict) else episodes,
                pretrain_epochs, finetune_epochs)
            for name in (tasks or list(STUDIES))}
    wall_s = time.perf_counter() - start

    rows = [{
        "task": task_name,
        "method": row.method,
        "avg_sparsity": canon(row.avg_sparsity),
        "runs": canon(row.runs, 3),
        "improvement": canon(row.improvement),
        "avg_accuracy": canon(row.avg_accuracy),
        "accuracy_loss": canon(row.accuracy_loss),
    } for task_name, by_method in studies.items()
        for row in by_method.values()]
    return {
        "bench": "table4_ablation",
        "tasks": list(studies),
        "episodes": {
            name: (episodes.get(name) if isinstance(episodes, dict)
                   else episodes) or STUDIES[name][1]
            for name in studies},
        "pretrain_epochs": pretrain_epochs,
        "finetune_epochs": finetune_epochs,
        "rows": rows,
        "wall_s": wall_s,
    }


if pytest is not None:
    @pytest.fixture(scope="module")
    def wikitext_rows():
        return run_study("wikitext2")

    @pytest.fixture(scope="module")
    def rte_rows():
        return run_study("rte")


def test_table4_wikitext(benchmark, wikitext_rows):
    rows = list(wikitext_rows.values())
    text = benchmark(format_ablation_table, rows)
    text += ("\n\npaper (WikiText-2): impr 1.0/2.80/6.55/5.84/2.80/4.96x; "
             "acc loss 0/2.03/11.07/4.88/0.64/0.95%")
    write_result("table4_ablation_wikitext", text)

    r = wikitext_rows
    # hardware-efficiency shape
    assert r["BP only"].improvement > 1.0
    assert r["rBP only"].improvement == pytest.approx(r["BP only"].improvement, rel=0.05)
    for multi in ("rBP+rPP", "rBP+PP", "RT3"):
        assert r[multi].improvement > r["BP only"].improvement
    # accuracy shape: norm-guided BP beats random rBP
    assert r["BP only"].accuracy_loss <= r["rBP only"].accuracy_loss + 0.02
    # RT3 (full framework) holds accuracy better than random-BP pipelines
    assert r["RT3"].accuracy_loss <= r["rBP+rPP"].accuracy_loss + 0.02


def test_table4_rte(benchmark, rte_rows):
    rows = list(rte_rows.values())
    text = benchmark(format_ablation_table, rows, metric_name="Acc")
    text += ("\n\npaper (RTE): impr 1.0/1.97/4.19/4.16/1.97/4.17x; "
             "acc loss 0/0.72/7.09/6.61/0.00/4.93%")
    write_result("table4_ablation_rte", text)

    r = rte_rows
    assert r["BP only"].improvement > 1.0
    for multi in ("rBP+rPP", "rBP+PP", "RT3"):
        assert r[multi].improvement > r["BP only"].improvement


def test_table4_digest(wikitext_rows, rte_rows):
    digest = run_bench(studies={"wikitext2": wikitext_rows, "rte": rte_rows})
    write_json_result("table4", digest)
    assert len(digest["rows"]) == 12  # 2 tasks x 6 methods


def test_bench_block_pruning_kernel(benchmark):
    """Benchmark Algorithm 1 on a paper-scale (3200 x 800) FFN matrix."""
    from repro.core.block_pruning import BlockPruningConfig, block_prune_matrix

    rng = np.random.default_rng(0)
    w = rng.normal(size=(3200, 800))
    cfg = BlockPruningConfig(num_blocks=8, rate=0.5)
    mask = benchmark(block_prune_matrix, w, cfg)
    assert 1.0 - mask.mean() == pytest.approx(0.5, abs=0.01)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast run for CI (wikitext2 only, 2 episodes)")
    parser.add_argument("--tasks", nargs="*", default=None, choices=list(STUDIES))
    args = parser.parse_args(argv)
    tasks = args.tasks or (["wikitext2"] if args.smoke else list(STUDIES))
    episodes = 2 if args.smoke else None
    pretrain = 3 if args.smoke else 6
    result_names = {"wikitext2": "table4_ablation_wikitext",
                    "rte": "table4_ablation_rte"}
    studies = {name: run_study(name, episodes, pretrain) for name in tasks}
    for name, by_method in studies.items():
        write_result(result_names[name],
                     format_ablation_table(list(by_method.values())))
    digest = run_bench(tasks, episodes, pretrain, studies=studies)
    write_json_result("table4", digest)
    ok = all(by_method["RT3"].improvement > by_method["BP only"].improvement
             for by_method in studies.values())
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
