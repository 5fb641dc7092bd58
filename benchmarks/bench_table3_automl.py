"""Table III: AutoML results — UB vs RT3 accuracy, latency, interrupt time.

For each (task, deadline) pair the paper reports, run the RT3 search,
then train the winning pattern sets individually (UB) and jointly (RT3),
and compare accuracies and the run-time switch ("interrupt") cost.

Expected shape (paper):
- all sub-model latencies below the deadline;
- RT3 accuracy within a few points of UB (joint-training penalty small);
- RT3 interrupt in milliseconds, UB interrupt in tens of seconds
  (>1000x switch speedup).

Besides the rendered table (informational,
``benchmarks/results/table3_automl.fresh.txt``), ``run_bench`` writes a
machine-readable digest (``benchmarks/results/BENCH_table3.fresh.json``) per
experiment: per-level sparsity/latency/UB/RT3 scores and deadline
verdicts, the running-best reward trajectory, and the modelled
UB-reload vs RT3-switch interrupt costs.  The search is seeded — seed
and episode counts are recorded in the digest — so
``scripts/check_bench_regression.py`` replays it and gates under drift
budgets: deadline verdicts exactly, best reward / RT3 scores not
regressing beyond budget, the switch-speedup floor (committed floor is
authoritative), and the trajectory keeping its length; wall time is
informational.
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

from repro.core.rt3 import RT3
from repro.core.trainer import TrainConfig
from repro.hardware.workload import paper_scale_distilbert, paper_scale_transformer

from benchmarks.common import (
    canon, fmt_pct, make_glue_task, make_lm_task, small_rt3_config,
    write_json_result, write_result,
)

EXPERIMENTS = [
    # (label, task factory, workload factory, deadline_s, paper interrupt UB/RT3)
    ("WikiText-2 (T:94ms)", make_lm_task, paper_scale_transformer, 0.094,
     ("51.82 s", "8.75 ms")),
    ("WikiText-2 (T:104ms)", make_lm_task, paper_scale_transformer, 0.104,
     ("51.82 s", "8.75 ms")),
    ("RTE (T:200ms)", lambda: make_glue_task("rte"), paper_scale_distilbert, 0.200,
     ("66.93 s", "44.90 ms")),
    ("STS-B (T:330ms)", lambda: make_glue_task("stsb"), paper_scale_distilbert, 0.330,
     ("66.94 s", "45.00 ms")),
]
SMOKE_LABELS = ["WikiText-2 (T:104ms)", "RTE (T:200ms)"]
# the paper's headline claim, pinned by the gate (committed floor wins)
MIN_SWITCH_SPEEDUP = 1000.0


def run_experiments(labels=None, episodes: int = 4, seed: int = 0) -> dict:
    """One seeded search + UB training per experiment; rich results."""
    results = {}
    for label, task_factory, wl_factory, deadline, paper_interrupt in EXPERIMENTS:
        if labels is not None and label not in labels:
            continue
        task = task_factory()
        cfg = small_rt3_config(deadline, episodes=episodes, seed=seed,
                               min_accuracy=-1.0 if "STS-B" in label else 0.0)
        rt3 = RT3(task, wl_factory(), cfg)
        res = rt3.search()
        ub = rt3.upper_bound(res.best.pattern_sets, TrainConfig(epochs=2, lr=2e-3))
        results[label] = (rt3, res, ub, paper_interrupt)
    return results


def run_bench(labels=None, episodes: int = 4, seed: int = 0,
              results=None) -> dict:
    """Machine-readable Table III digest (per-experiment rows + trajectories).

    ``results`` is an optional precomputed mapping so callers that
    already ran the searches (the pytest shape test, ``main``) do not
    pay for them twice.
    """
    start = time.perf_counter()
    if results is None:
        results = run_experiments(labels, episodes, seed)
    wall_s = time.perf_counter() - start

    experiments = {}
    for label, (rt3, res, ub, _) in results.items():
        deadline_ms = 1e3 * rt3.cfg.deadline_s
        names = sorted(res.final_accuracies, reverse=True)  # M1 = highest level
        trajectory, best = [], -np.inf
        for sol in res.history:
            if np.isfinite(sol.terms.reward):
                best = max(best, sol.terms.reward)
            trajectory.append(canon(best) if np.isfinite(best) else None)
        experiments[label] = {
            "deadline_ms": deadline_ms,
            "levels": [{
                "level": n,
                "sparsity": canon(rt3.space.total_sparsity(
                    res.best.pattern_sets[n].sparsity)),
                "latency_ms": canon(res.final_latencies_ms[n], 6),
                "ub_score": canon(ub[n]),
                "rt3_score": canon(res.final_accuracies[n]),
                "meets_deadline": bool(res.final_latencies_ms[n]
                                       <= deadline_ms + 1e-6),
            } for n in names],
            "best_reward": canon(res.best.terms.reward),
            "best_reward_trajectory": trajectory,
            "ub_reload_ms": canon(res.reload_ms, 6),
            "rt3_switch_ms": canon(res.switch_ms, 6),
            "switch_speedup": canon(res.reload_ms / res.switch_ms, 3),
        }
    return {
        "bench": "table3_automl",
        "seed": seed,
        "episodes": episodes,
        "experiments": experiments,
        "min_switch_speedup": MIN_SWITCH_SPEEDUP,
        "wall_s": wall_s,
    }


def render(results) -> str:
    lines = []
    for label, (rt3, res, ub, paper_interrupt) in results.items():
        lines.append(f"--- {label} ---")
        names = sorted(res.final_accuracies, reverse=True)  # M1 = highest level
        header = f"{'':<14}" + "".join(f"{'M' + str(i + 1):>10}" for i in range(len(names)))
        lines.append(header)
        sp = [rt3.space.total_sparsity(res.best.pattern_sets[n].sparsity) for n in names]
        lines.append(f"{'Sparsity':<14}" + "".join(f"{fmt_pct(s):>10}" for s in sp))
        lines.append(f"{'Latency (ms)':<14}" + "".join(
            f"{res.final_latencies_ms[n]:>10.2f}" for n in names))
        lines.append(f"{'UB score':<14}" + "".join(f"{ub[n]:>10.4f}" for n in names))
        lines.append(f"{'RT3 score':<14}" + "".join(
            f"{res.final_accuracies[n]:>10.4f}" for n in names))
        gaps = [ub[n] - res.final_accuracies[n] for n in names]
        lines.append(f"{'Score gap':<14}" + "".join(f"{g:>+10.4f}" for g in gaps))
        lines.append(f"UB interrupt  : {res.reload_ms / 1e3:8.2f} s   (paper {paper_interrupt[0]})")
        lines.append(f"RT3 interrupt : {res.switch_ms:8.2f} ms  (paper {paper_interrupt[1]})")
        lines.append(f"switch speedup: {res.reload_ms / res.switch_ms:8.0f}x  (paper >1000x)")
        lines.append("")
    return "\n".join(lines)


if pytest is not None:
    @pytest.fixture(scope="module")
    def automl_results():
        return run_experiments()


def test_table3_shape(benchmark, automl_results):
    text = benchmark(render, automl_results)
    write_result("table3_automl", text)
    write_json_result("table3", run_bench(results=automl_results))
    for label, (rt3, res, ub, _) in automl_results.items():
        deadline_ms = rt3.cfg.deadline_s * 1e3
        # (a) every deployed sub-model satisfies the timing constraint
        if res.best.terms.deadline_met:
            for lat in res.final_latencies_ms.values():
                assert lat <= deadline_ms + 1e-6, label
        # (b) the interrupt story: ms vs tens of seconds
        assert res.switch_ms < 45.0 + 5.0, label
        assert res.reload_ms > 1000.0, label
        assert res.reload_ms / res.switch_ms > 1000.0, label
        # (c) joint training tracks UB within a coarse margin at tiny scale
        names = list(res.final_accuracies)
        mean_gap = float(np.mean([ub[n] - res.final_accuracies[n] for n in names]))
        assert mean_gap < 0.25, f"{label}: mean UB-RT3 gap {mean_gap:.3f}"


def test_bench_rt3_episode(benchmark):
    """Benchmark one full search episode (sample -> hw predict -> reward)."""
    task = make_lm_task(pretrain_epochs=1)
    cfg = small_rt3_config(0.104, episodes=1)
    rt3 = RT3(task, paper_scale_transformer(), cfg)
    report, acc_m, acc_c = rt3.run_level1()
    rt3.build_space()
    reward_cfg = rt3._reward_config(acc_c)

    def one_episode():
        episode = rt3.controller.sample()
        sets = rt3.controller.decode(episode)
        terms = rt3.evaluate_sets(sets, reward_cfg)
        rt3.controller.update(episode, terms.reward)
        return terms

    terms = benchmark.pedantic(one_episode, rounds=3, iterations=1)
    assert np.isfinite(terms.reward)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast run for CI (2 experiments, 2 episodes)")
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    labels = SMOKE_LABELS if args.smoke else None
    episodes = args.episodes or (2 if args.smoke else 4)
    results = run_experiments(labels, episodes, args.seed)
    write_result("table3_automl", render(results))
    digest = run_bench(labels, episodes, args.seed, results=results)
    write_json_result("table3", digest)
    ok = all(e["switch_speedup"] >= MIN_SWITCH_SPEEDUP
             for e in digest["experiments"].values())
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
