"""Kernel microbench: wall-clock + op counts for the sparse matmul kernels.

Measures every executable kernel (dense / COO / block / pattern, plus the
scalar per-tile ``pattern_matmul_loop`` reference that predates the
pattern-grouped vectorization) across representative layer shapes and
sparsities, and records for each case:

- median wall-clock per kernel, timed in interleaved pairs against the
  grouped pattern kernel (the Python hot path the serving engine
  actually runs),
- the :class:`~repro.sparse.kernels.OpCounter` digest (deterministic
  abstract cost — macs / index / overhead / weighted),
- exactness: worst absolute deviation of every kernel from the dense
  reference, and of the grouped pattern kernel from the loop reference.

The headline number is the grouped pattern kernel's speedup over the
loop reference on the 256x256, psize-4, 75%-sparse acceptance case; the
bench asserts it stays >= ``MIN_PATTERN_SPEEDUP``.  A machine-readable
digest lands in ``benchmarks/results/BENCH_kernels.fresh.json`` via
:func:`benchmarks.common.write_json_result`;
``scripts/check_bench_regression.py`` regresses CI against the committed
copy (op counts and exactness are gated exactly — they are deterministic
— while absolute wall-clock numbers are informational and only the
loop-vs-grouped *ratio*, measured on one machine in one process, is
gated against the acceptance floor).

Run directly (``python benchmarks/bench_kernels.py [--smoke]``) or via
pytest for the asserted shape checks.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional

import numpy as np

if __package__ in (None, ""):  # run as a script: python benchmarks/bench_kernels.py
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.core.patterns import pattern_mask_for_matrix, random_pattern_set
from repro.sparse import (
    block_matmul,
    coo_matmul,
    dense_matmul,
    from_dense_block,
    from_dense_coo,
    from_dense_pattern,
    pattern_matmul,
    pattern_matmul_loop,
)

from benchmarks.common import wall_ratio, write_json_result, write_result

# the acceptance case the regression gate pins: a transformer-scale layer
# where tile dispatch overhead dominated the pre-vectorization kernel
ACCEPTANCE_CASE = "ffn-256x256-s75"
MIN_PATTERN_SPEEDUP = 5.0
EXACTNESS_TOL = 1e-9
BATCH = 8
NUM_BLOCKS = 4
PATTERNS_PER_SET = 3

CASES = [
    dict(name="attn-64x64-s50", shape=(64, 64), psize=4, sparsity=0.5),
    dict(name="proj-128x96-s60", shape=(128, 96), psize=8, sparsity=0.6),
    dict(name=ACCEPTANCE_CASE, shape=(256, 256), psize=4, sparsity=0.75),
]
SMOKE_CASES = [CASES[0], CASES[-1]]


def bench_case(case: dict, seed: int = 0, repeats: int = 5) -> dict:
    """One shape/sparsity point: containers, counters, timings, exactness."""
    rng = np.random.default_rng(seed)
    m, n = case["shape"]
    w = rng.normal(size=(m, n))
    pset = random_pattern_set(case["psize"], case["sparsity"],
                              PATTERNS_PER_SET, rng)
    mask, ids = pattern_mask_for_matrix(w, pset)
    wm = w * mask
    x = rng.normal(size=(n, BATCH))

    coo = from_dense_coo(wm)
    blk = from_dense_block(wm, NUM_BLOCKS)
    pat = from_dense_pattern(wm, [p.mask for p in pset], ids)

    # deterministic op counters from a first (table-charging) invocation
    dense_out, dense_c = dense_matmul(wm, x)
    coo_out, coo_c = coo_matmul(coo, x)
    blk_out, blk_c = block_matmul(blk, x)
    pat_out, pat_c = pattern_matmul(pat, x)
    # the loop reference charges identically — measure it on a fresh
    # container so the one-time table charge appears in both counters
    pat_for_loop = from_dense_pattern(wm, [p.mask for p in pset], ids)
    loop_out, loop_c = pattern_matmul_loop(pat_for_loop, x)

    errors = {
        "coo": float(np.abs(coo_out - dense_out).max()),
        "block": float(np.abs(blk_out - dense_out).max()),
        "pattern": float(np.abs(pat_out - dense_out).max()),
        "pattern_vs_loop": float(np.abs(pat_out - loop_out).max()),
    }

    # steady-state wall clock: tables/groups already materialized above;
    # every kernel is timed in interleaved pairs against the grouped one
    def grouped():
        return pattern_matmul(pat, x)

    wall_ms = {}
    wall_ms["pattern_loop"], wall_ms["pattern"], speedup = wall_ratio(
        lambda: pattern_matmul_loop(pat_for_loop, x), grouped, repeats)
    for fmt, run in (("dense", lambda: dense_matmul(wm, x)),
                     ("coo", lambda: coo_matmul(coo, x)),
                     ("block", lambda: block_matmul(blk, x))):
        wall_ms[fmt] = wall_ratio(run, grouped, repeats)[0]

    return {
        "shape": list(case["shape"]),
        "pattern_size": case["psize"],
        "sparsity": case["sparsity"],
        "nnz": pat.nnz,
        "batch": BATCH,
        "op_counters": {
            "dense": dense_c.as_dict(),
            "coo": coo_c.as_dict(),
            "block": blk_c.as_dict(),
            "pattern": pat_c.as_dict(),
            "pattern_loop": loop_c.as_dict(),
        },
        "wall_ms": wall_ms,
        "speedup_pattern_vs_loop": speedup,
        "max_abs_err": errors,
    }


def run_bench(smoke: bool = False, seed: int = 0, repeats: int = 5) -> dict:
    cases = SMOKE_CASES if smoke else CASES
    digest: Dict = {"seed": seed, "repeats": repeats, "batch": BATCH,
                    "num_blocks": NUM_BLOCKS, "smoke": smoke, "cases": {}}
    for case in cases:
        digest["cases"][case["name"]] = bench_case(case, seed=seed,
                                                   repeats=repeats)
    acc = digest["cases"][ACCEPTANCE_CASE]
    digest["acceptance"] = {
        "case": ACCEPTANCE_CASE,
        "min_speedup": MIN_PATTERN_SPEEDUP,
        "speedup": acc["speedup_pattern_vs_loop"],
        "ok": acc["speedup_pattern_vs_loop"] >= MIN_PATTERN_SPEEDUP,
    }
    return digest


def render(digest: dict) -> str:
    rows = [f"{'case':<20} {'kernel':<13} {'wall ms':>9} {'macs':>10} "
            f"{'index':>8} {'weighted':>10} {'max|err|':>9}",
            "-" * 84]
    for name, case in digest["cases"].items():
        for fmt in ("dense", "coo", "block", "pattern", "pattern_loop"):
            c = case["op_counters"][fmt]
            err = case["max_abs_err"].get(
                "pattern" if fmt == "pattern_loop" else fmt, 0.0)
            rows.append(f"{name:<20} {fmt:<13} {case['wall_ms'][fmt]:>9.3f} "
                        f"{c['macs']:>10} {c['index_ops']:>8} "
                        f"{c['weighted_total']:>10.0f} {err:>9.1e}")
        rows.append(f"{'':<20} pattern speedup vs loop: "
                    f"{case['speedup_pattern_vs_loop']:.1f}x")
    acc = digest["acceptance"]
    rows.append("")
    rows.append(f"acceptance [{acc['case']}]: {acc['speedup']:.1f}x "
                f"(floor {acc['min_speedup']:.0f}x) "
                f"{'OK' if acc['ok'] else 'FAILED'}")
    return "\n".join(rows)


def check(digest: dict) -> List[str]:
    """Hard assertions the bench itself enforces; returns failure strings."""
    failures = []
    for name, case in digest["cases"].items():
        for fmt, err in case["max_abs_err"].items():
            if err >= EXACTNESS_TOL:
                failures.append(f"{name}: {fmt} deviates {err:.2e} "
                                f"(tolerance {EXACTNESS_TOL:.0e})")
        pat, loop = (case["op_counters"]["pattern"],
                     case["op_counters"]["pattern_loop"])
        if pat != loop:
            failures.append(f"{name}: grouped/loop op counters disagree")
    if not digest["acceptance"]["ok"]:
        acc = digest["acceptance"]
        failures.append(f"pattern speedup {acc['speedup']:.2f}x below "
                        f"{acc['min_speedup']:.0f}x floor")
    return failures


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_kernels_shape():
    digest = run_bench()
    write_result("kernel_timings", render(digest))
    write_json_result("kernels", digest)
    failures = check(digest)
    assert not failures, "; ".join(failures)
    # structured formats must stay index-light versus COO on every case
    for case in digest["cases"].values():
        assert (case["op_counters"]["pattern"]["index_ops"] * 10
                < case["op_counters"]["coo"]["index_ops"])
        assert (case["op_counters"]["block"]["index_ops"] * 10
                < case["op_counters"]["coo"]["index_ops"])


def test_bench_pattern_kernel(benchmark):
    case = next(c for c in CASES if c["name"] == ACCEPTANCE_CASE)
    rng = np.random.default_rng(0)
    w = rng.normal(size=case["shape"])
    pset = random_pattern_set(case["psize"], case["sparsity"],
                              PATTERNS_PER_SET, rng)
    mask, ids = pattern_mask_for_matrix(w, pset)
    pat = from_dense_pattern(w * mask, [p.mask for p in pset], ids)
    x = rng.normal(size=(case["shape"][1], BATCH))
    out, _ = benchmark(pattern_matmul, pat, x)
    assert out.shape == (case["shape"][0], BATCH)


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="two cases, fewer repeats, for CI")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved wall-clock pairs per kernel")
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 5)
    digest = run_bench(smoke=args.smoke, seed=args.seed, repeats=repeats)
    write_result("kernel_timings", render(digest))
    write_json_result("kernels", digest)
    failures = check(digest)
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"smoke {'OK' if not failures else 'FAILED'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
