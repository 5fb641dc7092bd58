#!/usr/bin/env python
"""CI multi-bench regression gate over every committed paper artifact.

Fifteen benches are registered, covering the full paper surface (Tables
I-IV, Figures 3-5, the design ablations) plus the serving/kernel/forward
/decode/fault-tolerance/preemptive-scheduling performance benches.  For
every registered bench the gate loads the
committed ``benchmarks/results/BENCH_<name>.json`` baseline *before*
anything can overwrite it, re-runs the bench at the baseline's own
recorded configuration (seeds, episode counts, task lists), and fails
when the fresh run regresses.  Per-bench rules:

``serve``    simulated throughput must not drop more than
             ``--max-throughput-drop`` (default 15%) nor simulated p95
             rise more than ``--max-p95-increase`` (default 20%), on
             both the batched steady and sharded bursty paths;
             batched/sharded outputs must match per-request outputs
             to 1e-9 unconditionally.
``stream``   any oracle-exactness breach beyond 1e-9, a lost monotone
             admission-window tradeoff, or per-window mean batch-size
             drift fails; widest-window endpoint throughput/p50 get the
             serve budgets.
``kernels``  any kernel-vs-reference exactness breach, any op-counter
             drift (macs / index / weighted are exact cost-model
             functions), or the grouped pattern kernel falling below its
             committed speedup floor fails.
``forward``  any compiled-vs-eager float64 bit-exactness breach,
             node/alloc-count drift, float32 tolerance breach, or the
             compiled plan falling below its committed speedup floor
             fails.
``generate`` any compiled-decode bit-exactness breach — tokens or
             logprobs, solo or under the ragged continuous-batching
             schedule, on any committed case — fails, as does the
             per-token speedup dropping below the committed floor.
``faults``   the fault-injection serve is a deterministic simulation:
             conservation (completed + shed == submitted) and
             bit-exactness against the fault-free serve of the
             surviving set must hold for both shed policies, the
             shed/degraded/requeued/retried counters must match the
             baseline exactly, ``degrade`` must shed strictly fewer
             requests than ``reject``, and shed rates / recovery lag
             must stay inside the committed acceptance budgets.
``preempt``  the preemptive-scheduling serve is a deterministic
             simulation: extended conservation (completed + shed +
             cancelled == submitted) and bit-exactness against the
             clean serve of each arm's surviving set must hold, every
             counter (preemptions, cancels, per-tenant misses) must
             match the baseline exactly, the preemptive arm must
             strictly cut victim-tenant SLO misses vs fifo, and the
             fifo floor / preempt ceiling / hot shed-rate budgets must
             hold.
``table``    the Table-I V/F row set must match exactly (it is paper
             configuration); modelled power gets a 1% band.
``table2``   the Table-II reconfiguration row set and E1/E2/E3 run
             totals must match exactly (deterministic discharge
             simulation).
``fig3``     seeded-replay drift budgets: every committed Pareto point
             must stay covered by the replayed front, best weighted
             accuracy / reward must not regress beyond budget, feasible
             counts must not shrink, and the per-level sparsity grid
             must match exactly.
``fig4``     the per-level pattern rows (sparsity, pattern digests) and
             cross-level overlap stats are deterministic functions of
             the recorded seed: exact equality.
``fig5``     the per-task BP rows (dense/pruned scores, loss,
             compression) and the mean loss replay deterministically
             from the recorded seeds/epochs: exact equality.
``table3``   seeded-replay drift budgets: deadline verdicts exactly,
             best reward and per-level RT3 scores must not regress
             beyond budget, the modelled switch cost must not rise
             beyond budget, and the UB-reload/RT3-switch speedup must
             stay above the committed floor (paper claim: >1000x).
``table4``   the (task, method) ablation rows replay deterministically
             from the recorded seeds/episodes: exact equality — any
             perturbed Table-IV row fails.
``ablations`` pattern-size / governor / kernel-cost rows are
             deterministic: exact equality; the seeded search-space
             sweep's best rewards get a drift budget.

Only *deterministic* metrics are gated; absolute wall-clock numbers are
recorded in the report but never gated — they measure the CI runner, not
the code.  Committed floors are authoritative: a bench cannot lower its
own gate by shipping a smaller threshold constant.  The rendered
``benchmarks/results/*.txt`` tables are informational companions and
never gated.  The shared comparison report lands in
``benchmarks/results/bench_regression_report.json`` (uploaded as a CI
artifact next to the ``BENCH_<name>.fresh.json`` digests).  After an
intentional performance change, regenerate and commit the baselines with
``--update-baseline``.  See ``docs/benchmarks.md`` for the full
bench/gate contract and how to register bench #15.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"
DEFAULT_REPORT = RESULTS / "bench_regression_report.json"

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks.common import (  # noqa: E402
    cover_pareto_points, find_exact, find_info, find_row_set, find_within,
)

# gated (metric path, kind); "higher" metrics fail on drops, "lower" on rises
GATED_METRICS = (
    ("sim_throughput_rps", "higher_is_better"),
    ("p95_latency_ms", "lower_is_better"),
    ("sharded.sim_rps_sharded", "higher_is_better"),
    ("sharded.p95_latency_ms", "lower_is_better"),
)
# recorded for the report but never gated: wall-clock, runner-dependent
INFORMATIONAL_METRICS = (
    "baseline_throughput_rps",
    "batched_throughput_rps",
    "speedup",
    "sharded.scaling",
)
EXACTNESS_METRICS = (
    "max_batch_vs_single_error",
    "max_cross_engine_error",
    "sharded.max_verify_error",
)
EXACTNESS_TOL = 1e-9

# deterministic per-kernel counters gated by exact equality
COUNTER_FIELDS = ("macs", "index_ops", "overhead_ops", "weighted_total")


def _lookup(digest: dict, path: str) -> Optional[float]:
    node = digest
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


# ---------------------------------------------------------------------------
# serve bench comparison (pure, unit-tested without running the bench)
# ---------------------------------------------------------------------------

def compare(baseline: dict, fresh: dict, *, max_throughput_drop: float = 0.15,
            max_p95_increase: float = 0.20) -> List[dict]:
    """Diff two serving-bench digests; one finding per checked metric.

    A metric missing from the *baseline* passes with a note (older
    baselines predate it); missing from the *fresh* run fails (the bench
    stopped reporting a gated number).
    """
    findings = []
    for path, kind in GATED_METRICS:
        base, new = _lookup(baseline, path), _lookup(fresh, path)
        finding = {"metric": path, "baseline": base, "fresh": new, "gated": True}
        if base is None:
            finding.update(ok=True, note="metric absent from baseline; skipped")
        elif new is None:
            finding.update(ok=False, note="metric missing from fresh run")
        elif kind == "higher_is_better":
            floor = base * (1.0 - max_throughput_drop)
            finding.update(
                ok=new >= floor, limit=floor,
                note=f"must stay >= {floor:.1f} "
                     f"({100 * max_throughput_drop:.0f}% drop allowed)")
        else:
            ceiling = base * (1.0 + max_p95_increase)
            finding.update(
                ok=new <= ceiling, limit=ceiling,
                note=f"must stay <= {ceiling:.3f} "
                     f"({100 * max_p95_increase:.0f}% increase allowed)")
        findings.append(finding)
    for path in EXACTNESS_METRICS:
        new = _lookup(fresh, path)
        findings.append({
            "metric": path, "baseline": EXACTNESS_TOL, "fresh": new,
            "gated": True, "ok": new is not None and new < EXACTNESS_TOL,
            "note": f"outputs must match per-request to {EXACTNESS_TOL:.0e}"})
    for path in INFORMATIONAL_METRICS:
        findings.append({
            "metric": path, "baseline": _lookup(baseline, path),
            "fresh": _lookup(fresh, path), "gated": False, "ok": True,
            "note": "informational (wall-clock / runner-dependent)"})
    return findings


# ---------------------------------------------------------------------------
# stream bench comparison (pure)
# ---------------------------------------------------------------------------

def compare_stream(baseline: dict, fresh: dict, *,
                   max_throughput_drop: float = 0.15,
                   max_p95_increase: float = 0.20) -> List[dict]:
    """Diff two streaming-bench digests; one finding per checked metric."""
    findings: List[dict] = []
    err = _lookup(fresh, "max_oracle_err")
    findings.append({
        "metric": "max_oracle_err", "baseline": EXACTNESS_TOL, "fresh": err,
        "gated": True, "ok": err is not None and err < EXACTNESS_TOL,
        "note": f"streaming outputs must match the per-request oracle to "
                f"{EXACTNESS_TOL:.0e}"})
    for flag in ("mean_batch_size", "service_throughput_rps",
                 "p50_latency_ms"):
        val = fresh.get("monotonic", {}).get(flag)
        findings.append({
            "metric": f"monotonic.{flag}", "baseline": 1.0,
            "fresh": None if val is None else float(bool(val)), "gated": True,
            "ok": bool(val),
            "note": "window sweep must keep its monotone tradeoff shape"})
    base_sweep = baseline.get("sweep", [])
    fresh_sweep = fresh.get("sweep", [])
    for i, base_pt in enumerate(base_sweep):
        fresh_pt = fresh_sweep[i] if i < len(fresh_sweep) else {}
        base_b, new_b = base_pt.get("mean_batch_size"), fresh_pt.get(
            "mean_batch_size")
        findings.append({
            "metric": f"sweep[{i}].mean_batch_size", "baseline": base_b,
            "fresh": new_b, "gated": True,
            "ok": new_b is not None and new_b == base_b,
            "note": "deterministic admission: per-window batch sizes must "
                    "match baseline exactly"})
    for path, kind in (("service_throughput_rps", "higher_is_better"),
                       ("p50_latency_ms", "lower_is_better")):
        base = base_sweep[-1].get(path) if base_sweep else None
        new = fresh_sweep[-1].get(path) if fresh_sweep else None
        finding = {"metric": f"sweep[-1].{path}", "baseline": base,
                   "fresh": new, "gated": True}
        if base is None:
            finding.update(ok=True, note="metric absent from baseline; skipped")
        elif new is None:
            finding.update(ok=False, note="metric missing from fresh run")
        elif kind == "higher_is_better":
            floor = base * (1.0 - max_throughput_drop)
            finding.update(ok=new >= floor, limit=floor,
                           note=f"must stay >= {floor:.1f}")
        else:
            ceiling = base * (1.0 + max_p95_increase)
            finding.update(ok=new <= ceiling, limit=ceiling,
                           note=f"must stay <= {ceiling:.3f}")
        findings.append(finding)
    findings.append({
        "metric": "tradeoff.efficiency_gain",
        "baseline": _lookup(baseline, "tradeoff.efficiency_gain"),
        "fresh": _lookup(fresh, "tradeoff.efficiency_gain"),
        "gated": False, "ok": True, "note": "informational"})
    return findings


# ---------------------------------------------------------------------------
# table bench comparison (pure)
# ---------------------------------------------------------------------------

POWER_DRIFT = 0.01


def compare_table(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Table-I digests: exact row set, bounded power drift."""
    findings = [find_row_set(
        "levels.row_set",
        [(r["name"], r["freq_mhz"], r["voltage_mv"])
         for r in baseline.get("levels", [])],
        [(r["name"], r["freq_mhz"], r["voltage_mv"])
         for r in fresh.get("levels", [])],
        "V/F rows (name, freq, voltage) are paper configuration: "
        "must match exactly")]
    fresh_rows = {r["name"]: r for r in fresh.get("levels", [])}
    for base_row in baseline.get("levels", []):
        name = base_row["name"]
        findings.append(find_within(
            f"levels.{name}.power_w", base_row.get("power_w"),
            fresh_rows.get(name, {}).get("power_w"),
            budget=POWER_DRIFT, kind="band", relative=True,
            note=f"modelled power must stay within "
                 f"{100 * POWER_DRIFT:.0f}% of baseline"))
    findings.append(find_info("governor.wall_ms",
                              _lookup(baseline, "governor.wall_ms"),
                              _lookup(fresh, "governor.wall_ms")))
    return findings


# ---------------------------------------------------------------------------
# table2 bench comparison (pure)
# ---------------------------------------------------------------------------

def compare_table2(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Table-II digests: exact row set + exact run totals."""

    def row_key(row):
        return (row.get("experiment"), row.get("level"),
                row.get("latency_ms"), row.get("meets_deadline"))

    findings = [find_row_set(
        "rows.row_set",
        [row_key(r) for r in baseline.get("rows", [])],
        [row_key(r) for r in fresh.get("rows", [])],
        "reconfiguration-cost rows (experiment, level, latency, "
        "deadline verdict) are deterministic: must match exactly")]
    for tag in ("E1", "E2", "E3"):
        findings.append(find_exact(
            f"total_runs.{tag}", _lookup(baseline, f"total_runs.{tag}"),
            _lookup(fresh, f"total_runs.{tag}"),
            "deterministic discharge simulation: must match baseline "
            "exactly"))
    findings.append(find_info("wall_ms", _lookup(baseline, "wall_ms"),
                              _lookup(fresh, "wall_ms")))
    return findings


# ---------------------------------------------------------------------------
# forward bench comparison (pure)
# ---------------------------------------------------------------------------

def compare_forward(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two forward-bench digests; one finding per checked metric.

    Coverage is anchored on the baseline: a case present in the
    committed digest but absent from the fresh run fails.
    """
    findings: List[dict] = []
    for name in baseline.get("cases", {}):
        if name not in fresh.get("cases", {}):
            findings.append({
                "metric": f"cases.{name}", "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "gated case missing from fresh run"})
    f32_tol = (baseline.get("acceptance", {}).get("float32_tol")
               or fresh.get("acceptance", {}).get("float32_tol", 1e-3))
    for name, case in fresh.get("cases", {}).items():
        # case names contain dots ("serve.b1"), so index the baseline
        # dict directly rather than through the dotted-path helper
        base_case = baseline.get("cases", {}).get(name, {})
        err = case.get("max_abs_err")
        findings.append({
            "metric": f"cases.{name}.max_abs_err", "baseline": 0.0,
            "fresh": err, "gated": True, "ok": err == 0.0,
            "note": "compiled float64 forward must be bit-identical to "
                    "the eager Tensor forward"})
        for fld in ("tensor_nodes", "compiled_steady_allocs"):
            base = base_case.get(fld)
            new = case.get(fld)
            finding = {"metric": f"cases.{name}.{fld}",
                       "baseline": None if base is None else float(base),
                       "fresh": None if new is None else float(new),
                       "gated": True}
            if base is None:
                finding.update(ok=True,
                               note="metric absent from baseline; skipped")
            else:
                finding.update(
                    ok=new is not None and new == base,
                    note="deterministic count: must match baseline exactly")
            findings.append(finding)
        rel32 = case.get("float32_max_rel_err")
        findings.append({
            "metric": f"cases.{name}.float32_max_rel_err",
            "baseline": f32_tol, "fresh": rel32, "gated": True,
            "ok": rel32 is not None and rel32 < f32_tol,
            "note": f"float32 mode must stay within its documented "
                    f"{f32_tol:.0e} relative tolerance"})
        findings.append({
            "metric": f"cases.{name}.speedup",
            "baseline": base_case.get("speedup"),
            "fresh": case.get("speedup"), "gated": False, "ok": True,
            "note": "informational (wall-clock / runner-dependent)"})
    acc = fresh.get("acceptance", {})
    speedup = acc.get("speedup")
    # the committed floor is authoritative: a PR cannot lower the gate by
    # editing the bench's own threshold constant
    floor = baseline.get("acceptance", {}).get("min_speedup",
                                               acc.get("min_speedup"))
    findings.append({
        "metric": "acceptance.speedup", "baseline": floor, "fresh": speedup,
        "gated": True,
        "ok": speedup is not None and floor is not None and speedup >= floor,
        "note": f"compiled forward must stay >= {floor}x over the eager "
                "path on the acceptance case (same-machine ratio)"})
    return findings


# ---------------------------------------------------------------------------
# generate (decode) bench comparison (pure)
# ---------------------------------------------------------------------------

def compare_generate(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two decode bench digests; one finding per checked metric.

    Coverage is anchored on the baseline: a case present in the
    committed digest but absent from the fresh run fails.  Exactness is
    unconditional — the compiled decode session must reproduce the
    eager loop's tokens *and* logprobs bit for bit, solo and under the
    ragged continuous-batching schedule.
    """
    findings: List[dict] = []
    for name in baseline.get("cases", {}):
        if name not in fresh.get("cases", {}):
            findings.append({
                "metric": f"cases.{name}", "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "gated case missing from fresh run"})
    for name, case in fresh.get("cases", {}).items():
        findings.append({
            "metric": f"cases.{name}.exact", "baseline": 1.0,
            "fresh": float(bool(case.get("exact"))), "gated": True,
            "ok": bool(case.get("exact")),
            "note": "compiled decode tokens + logprobs must be "
                    "bit-identical to the eager loop"})
        err = case.get("max_abs_err")
        findings.append({
            "metric": f"cases.{name}.max_abs_err", "baseline": 0.0,
            "fresh": err, "gated": True, "ok": err == 0.0,
            "note": "float64 logprobs must match exactly (==, not "
                    "allclose)"})
        findings.append({
            "metric": f"cases.{name}.ragged_exact", "baseline": 1.0,
            "fresh": float(bool(case.get("ragged_exact"))), "gated": True,
            "ok": bool(case.get("ragged_exact")),
            "note": "streams joining/leaving the rolling batch must stay "
                    "bit-identical to their solo eager runs"})
        findings.append({
            "metric": f"cases.{name}.speedup",
            "baseline": baseline.get("cases", {}).get(name, {}).get("speedup"),
            "fresh": case.get("speedup"), "gated": False, "ok": True,
            "note": "informational (wall-clock / runner-dependent)"})
    acc = fresh.get("acceptance", {})
    speedup = acc.get("speedup")
    # the committed baseline's floor is authoritative: a PR cannot lower
    # the gate by editing the bench's own threshold constant
    floor = baseline.get("acceptance", {}).get("min_speedup",
                                               acc.get("min_speedup"))
    findings.append({
        "metric": "acceptance.speedup", "baseline": floor, "fresh": speedup,
        "gated": True,
        "ok": speedup is not None and floor is not None and speedup >= floor,
        "note": f"compiled decode must stay >= {floor}x per token over "
                "the eager loop on the acceptance case (same-machine "
                "ratio)"})
    findings.append(find_info("batching.speedup",
                              _lookup(baseline, "batching.speedup"),
                              _lookup(fresh, "batching.speedup"),
                              note="informational (continuous-batching "
                                   "wall-clock ratio)"))
    return findings


# ---------------------------------------------------------------------------
# faults (fault-tolerance) bench comparison (pure)
# ---------------------------------------------------------------------------

# deterministic per-policy counters gated by exact equality
FAULT_COUNTERS = ("submitted", "completed", "shed", "degraded", "failures",
                  "recoveries", "requeued_batches", "retried_batches")


def compare_faults(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two fault-tolerance digests; one finding per checked metric.

    Coverage is anchored on the baseline: a shed policy present in the
    committed digest but absent from the fresh run fails.  The faulted
    serve is a deterministic simulation, so every counter gates by exact
    equality; the invariants (conservation, bit-exactness vs the
    fault-free serve of the surviving set, strict reject/degrade
    separation) and the committed acceptance budgets gate
    unconditionally — the baseline's budgets are authoritative, so a PR
    cannot widen the gate by editing the bench constants.
    """
    findings: List[dict] = []
    acc = baseline.get("acceptance", fresh.get("acceptance", {}))
    fresh_policies = fresh.get("policies", {})
    for name, base_pol in baseline.get("policies", {}).items():
        pre = f"policies.{name}"
        pol = fresh_policies.get(name)
        if pol is None:
            findings.append({
                "metric": pre, "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "gated shed policy missing from fresh run"})
            continue
        for flag, note in (
                ("conserved", "no request may be lost: completed + shed "
                              "must equal submitted"),
                ("exact", "completed outputs must be bit-identical to the "
                          "fault-free serve of the surviving set")):
            findings.append({
                "metric": f"{pre}.{flag}", "baseline": 1.0,
                "fresh": float(bool(pol.get(flag))), "gated": True,
                "ok": bool(pol.get(flag)), "note": note})
        for fld in FAULT_COUNTERS:
            findings.append(find_exact(
                f"{pre}.{fld}", base_pol.get(fld), pol.get(fld),
                "deterministic fault simulation: must match baseline "
                "exactly"))
        ceiling = acc.get(f"{name}_shed_rate_ceiling")
        if ceiling is not None:
            findings.append(find_within(
                f"{pre}.shed_rate", ceiling, pol.get("shed_rate"),
                budget=0.0, kind="ceiling",
                note=f"shed rate must stay <= the committed "
                     f"{ceiling:.2f} budget"))
        lag_budget = acc.get("recovery_lag_budget_s")
        if lag_budget is not None:
            findings.append(find_within(
                f"{pre}.recovery_lag_s", lag_budget,
                pol.get("recovery_lag_s"), budget=0.0, kind="ceiling",
                note="downed-shard detection lag must stay inside the "
                     "committed probe-backoff budget"))
        findings.append(find_info(f"{pre}.retry_penalty_ms",
                                  base_pol.get("retry_penalty_ms"),
                                  pol.get("retry_penalty_ms"),
                                  note="informational (simulated failover "
                                       "switch charge; counters gate it)"))
        findings.append(find_info(f"{pre}.p95_latency_ms",
                                  base_pol.get("p95_latency_ms"),
                                  pol.get("p95_latency_ms"),
                                  note="informational (simulated; the "
                                       "counters gate the behaviour)"))
    reject_shed = _lookup(fresh, "policies.reject.shed")
    degrade_shed = _lookup(fresh, "policies.degrade.shed")
    strict = (reject_shed is not None and degrade_shed is not None
              and degrade_shed < reject_shed)
    findings.append({
        "metric": "separation.strict",
        "baseline": 1.0, "fresh": float(strict), "gated": True,
        "ok": strict,
        "note": "graceful degradation must shed strictly fewer requests "
                "than deadline-aware rejection"})
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


# ---------------------------------------------------------------------------
# preempt (preemptive scheduling / tenant fairness) bench comparison (pure)
# ---------------------------------------------------------------------------

# deterministic per-arm counters gated by exact equality
PREEMPT_COUNTERS = ("submitted", "completed", "shed", "cancelled",
                    "preemptions", "requeued_batches", "retried_batches",
                    "victim_slo_misses", "hot_slo_misses")


def compare_preempt(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two preemptive-scheduling digests; one finding per metric.

    Coverage is anchored on the baseline: an arm present in the
    committed digest but absent from the fresh run fails.  The serve is
    a deterministic simulation, so every counter gates by exact
    equality; the invariants (extended conservation
    ``completed + shed + cancelled == submitted``, bit-exactness vs the
    clean serve of each arm's surviving set, strict victim-miss
    separation, no starved tenants under fairness) and the committed
    acceptance budgets gate unconditionally — the baseline's budgets
    are authoritative, so a PR cannot widen the gate by editing the
    bench constants.
    """
    findings: List[dict] = []
    acc = baseline.get("acceptance", fresh.get("acceptance", {}))
    fresh_policies = fresh.get("policies", {})
    for name, base_arm in baseline.get("policies", {}).items():
        pre = f"policies.{name}"
        arm = fresh_policies.get(name)
        if arm is None:
            findings.append({
                "metric": pre, "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "gated scheduler arm missing from fresh run"})
            continue
        for flag, note in (
                ("conserved", "no request may be lost: completed + shed "
                              "+ cancelled must equal submitted"),
                ("exact", "completed outputs must be bit-identical to the "
                          "clean serve of the surviving set")):
            findings.append({
                "metric": f"{pre}.{flag}", "baseline": 1.0,
                "fresh": float(bool(arm.get(flag))), "gated": True,
                "ok": bool(arm.get(flag)), "note": note})
        for fld in PREEMPT_COUNTERS:
            findings.append(find_exact(
                f"{pre}.{fld}", base_arm.get(fld), arm.get(fld),
                "deterministic scheduler simulation: must match baseline "
                "exactly"))
        findings.append({
            "metric": f"{pre}.starved_tenants",
            "baseline": float(len(base_arm.get("starved_tenants", []))),
            "fresh": float(len(arm.get("starved_tenants", []))),
            "gated": True, "ok": not arm.get("starved_tenants"),
            "note": "every tenant with traffic must complete something"})
        ceiling = acc.get("hot_shed_rate_ceiling")
        if ceiling is not None:
            findings.append(find_within(
                f"{pre}.hot_shed_rate", ceiling,
                arm.get("hot_shed_rate"), budget=0.0, kind="ceiling",
                note=f"hot-tenant shed rate must stay <= the committed "
                     f"{ceiling:.2f} budget"))
        findings.append(find_info(f"{pre}.retry_penalty_ms",
                                  base_arm.get("retry_penalty_ms"),
                                  arm.get("retry_penalty_ms"),
                                  note="informational (simulated preemption "
                                       "switch charge; counters gate it)"))
        findings.append(find_info(f"{pre}.victim_p95_latency_ms",
                                  base_arm.get("victim_p95_latency_ms"),
                                  arm.get("victim_p95_latency_ms"),
                                  note="informational (simulated; the miss "
                                       "counters gate the behaviour)"))
    fifo_miss = _lookup(fresh, "policies.fifo.victim_slo_misses")
    pre_miss = _lookup(fresh, "policies.preempt.victim_slo_misses")
    strict = (fifo_miss is not None and pre_miss is not None
              and pre_miss < fifo_miss)
    findings.append({
        "metric": "separation.strict",
        "baseline": 1.0, "fresh": float(strict), "gated": True,
        "ok": strict,
        "note": "preemption + fairness must strictly cut victim-tenant "
                "SLO misses vs the fifo scheduler"})
    floor = acc.get("fifo_victim_miss_floor")
    if floor is not None:
        findings.append(find_within(
            "policies.fifo.victim_miss_floor", floor, fifo_miss,
            budget=0.0, kind="floor",
            note="the fifo arm must actually hurt the victim (the "
                 "head-of-line scenario stays adversarial)"))
    ceiling = acc.get("preempt_victim_miss_ceiling")
    if ceiling is not None:
        findings.append(find_within(
            "policies.preempt.victim_miss_ceiling", ceiling, pre_miss,
            budget=0.0, kind="ceiling",
            note="the preemptive arm must keep victim misses at or "
                 "under the committed ceiling"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


# ---------------------------------------------------------------------------
# kernels bench comparison (pure)
# ---------------------------------------------------------------------------

def compare_kernels(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two kernel-bench digests; one finding per checked metric.

    Coverage is anchored on the *baseline*: a case or kernel present in
    the committed digest but absent from the fresh run fails (the bench
    silently dropping a gated surface must not pass the gate).
    """
    findings: List[dict] = []
    for name, base_case in baseline.get("cases", {}).items():
        fresh_case = fresh.get("cases", {}).get(name, {})
        for missing_kind, fresh_section in (
                ("max_abs_err", fresh_case.get("max_abs_err", {})),
                ("op_counters", fresh_case.get("op_counters", {}))):
            for fmt in base_case.get(missing_kind, {}):
                if fmt not in fresh_section:
                    findings.append({
                        "metric": f"cases.{name}.{missing_kind}.{fmt}",
                        "baseline": None, "fresh": None, "gated": True,
                        "ok": False,
                        "note": "gated surface missing from fresh run"})
    for name, case in fresh.get("cases", {}).items():
        for fmt, err in case.get("max_abs_err", {}).items():
            findings.append({
                "metric": f"cases.{name}.max_abs_err.{fmt}",
                "baseline": EXACTNESS_TOL, "fresh": err, "gated": True,
                "ok": err is not None and err < EXACTNESS_TOL,
                "note": f"kernel outputs must agree to {EXACTNESS_TOL:.0e}"})
        for fmt, counter in case.get("op_counters", {}).items():
            for fld in COUNTER_FIELDS:
                path = f"cases.{name}.op_counters.{fmt}.{fld}"
                base, new = _lookup(baseline, path), _lookup(fresh, path)
                finding = {"metric": path, "baseline": base, "fresh": new,
                           "gated": True}
                if base is None:
                    finding.update(ok=True,
                                   note="metric absent from baseline; skipped")
                elif new is None:
                    finding.update(ok=False,
                                   note="metric missing from fresh run")
                else:
                    finding.update(
                        ok=new == base,
                        note="deterministic op count: must match baseline "
                             "exactly")
                findings.append(finding)
        findings.append({
            "metric": f"cases.{name}.wall_ms.pattern",
            "baseline": _lookup(baseline, f"cases.{name}.wall_ms.pattern"),
            "fresh": _lookup(fresh, f"cases.{name}.wall_ms.pattern"),
            "gated": False, "ok": True,
            "note": "informational (wall-clock / runner-dependent)"})
    acc = fresh.get("acceptance", {})
    speedup = acc.get("speedup")
    # the committed baseline's floor is authoritative: a PR cannot lower
    # the gate by editing the bench's own threshold constant
    floor = baseline.get("acceptance", {}).get("min_speedup",
                                               acc.get("min_speedup"))
    findings.append({
        "metric": "acceptance.speedup", "baseline": floor, "fresh": speedup,
        "gated": True,
        "ok": speedup is not None and floor is not None and speedup >= floor,
        "note": f"grouped pattern kernel must stay >= {floor}x over the "
                "loop reference (same-machine ratio)"})
    return findings


# ---------------------------------------------------------------------------
# paper-artifact bench comparisons (pure)
#
# Deterministic outputs (fig4 pattern tables, fig5 BP curves, table4
# ablation rows, the non-search ablation sweeps) gate by exact row-set
# equality; search-driven outputs (fig3 Pareto fronts, table3 best
# rewards, the search-space sweep) replay the committed seed and gate
# under the drift budgets below, so an unrelated refactor that nudges
# the stochastic search cannot flake the gate while a real regression
# still fails it.
# ---------------------------------------------------------------------------

# drift budgets for the seeded search-driven benches
ACC_DRIFT = 0.02        # absolute weighted-accuracy / score floor slack
REWARD_DRIFT = 0.05     # absolute best-reward floor slack
RUNS_REL_DRIFT = 0.02   # relative #runs slack for Pareto-point coverage
SWITCH_MS_RISE = 0.10   # allowed relative rise of the modelled switch cost


def compare_fig3(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Figure-3 digests: seeded-replay Pareto coverage.

    Coverage is anchored on the baseline: every committed search and
    every committed Pareto point must stay reachable by the replayed
    search (within the drift budgets); the per-level sparsity grid is
    configuration and must match exactly.
    """
    findings: List[dict] = []
    fresh_searches = fresh.get("searches", {})
    for label, base in baseline.get("searches", {}).items():
        pre = f"searches.{label}"
        quote = fresh_searches.get(label)
        if quote is None:
            findings.append({
                "metric": pre, "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "committed search missing from fresh run"})
            continue
        findings.append(find_exact(
            f"{pre}.deadline_ms", base.get("deadline_ms"),
            quote.get("deadline_ms"),
            "replayed configuration must match the committed digest"))
        findings.append(find_within(
            f"{pre}.num_feasible", base.get("num_feasible"),
            quote.get("num_feasible"), budget=0, kind="floor",
            note="the replayed search must not lose feasible points"))
        findings.extend(cover_pareto_points(
            base.get("pareto_front", []), quote.get("pareto_front", []),
            acc_budget=ACC_DRIFT, runs_rel_budget=RUNS_REL_DRIFT,
            prefix=f"{pre}.pareto"))
        findings.append(find_within(
            f"{pre}.best_weighted_accuracy",
            base.get("best_weighted_accuracy"),
            quote.get("best_weighted_accuracy"),
            budget=ACC_DRIFT, kind="floor"))
        findings.append(find_within(
            f"{pre}.best_reward", base.get("best_reward"),
            quote.get("best_reward"), budget=REWARD_DRIFT, kind="floor"))
        for level, base_sp in (base.get("min_sparsity") or {}).items():
            findings.append(find_exact(
                f"{pre}.min_sparsity.{level}", base_sp,
                (quote.get("min_sparsity") or {}).get(level),
                "the per-level sparsity grid is configuration: must "
                "match exactly"))
        for info in ("original_accuracy", "backbone_accuracy",
                     "heuristic_weighted_accuracy"):
            findings.append(find_info(
                f"{pre}.{info}", base.get(info), quote.get(info),
                note="informational (tiny-scale training context)"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


def compare_fig4(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Figure-4 digests: exact pattern tables + overlap stats.

    The searched pattern sets are a deterministic function of the
    recorded seed, so the per-level rows — including the content digests
    of every pattern — must match exactly.
    """

    def row_key(row):
        return (row.get("level"), row.get("sparsity"),
                row.get("num_patterns"), row.get("pattern_size"),
                tuple(row.get("pattern_digests", [])))

    findings = [find_row_set(
        "levels.row_set",
        [row_key(r) for r in baseline.get("levels", [])],
        [row_key(r) for r in fresh.get("levels", [])],
        "pattern rows (level, sparsity, #patterns, digests) replay "
        "deterministically from the seed: must match exactly")]
    for fld in ("shared_kept", "chance"):
        findings.append(find_exact(
            f"overlap.{fld}", _lookup(baseline, f"overlap.{fld}"),
            _lookup(fresh, f"overlap.{fld}"),
            "deterministic cross-level overlap: must match exactly"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


def compare_fig5(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Figure-5 digests: exact block-pruning curves.

    Training is seeded and single-threaded, so every (task, rate) row
    replays bit-identically; any drift is a real behavioural change.
    """

    def row_key(row):
        return (row.get("task"), row.get("rate"), row.get("dense_score"),
                row.get("pruned_score"), row.get("score_loss"),
                row.get("compression"))

    findings = [find_row_set(
        "rows.row_set",
        [row_key(r) for r in baseline.get("rows", [])],
        [row_key(r) for r in fresh.get("rows", [])],
        "BP rows (task, rate, scores, compression) replay "
        "deterministically from the seeds/epochs: must match exactly")]
    findings.append(find_exact(
        "mean_score_loss", baseline.get("mean_score_loss"),
        fresh.get("mean_score_loss"),
        "deterministic replay: must match baseline exactly"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


def compare_table3(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Table-III digests: verdicts exactly, scores under budget.

    Deadline verdicts are the paper's hard claim and gate exactly; the
    seeded search/training scores gate under the drift budgets; the
    UB-reload over RT3-switch speedup must stay above the *committed*
    floor (the baseline's ``min_switch_speedup`` is authoritative, so a
    PR cannot lower the gate by editing the bench constant).
    """
    findings = [find_row_set(
        "verdicts.row_set",
        [(label, lvl.get("level"), lvl.get("meets_deadline"))
         for label, e in baseline.get("experiments", {}).items()
         for lvl in e.get("levels", [])],
        [(label, lvl.get("level"), lvl.get("meets_deadline"))
         for label, e in fresh.get("experiments", {}).items()
         for lvl in e.get("levels", [])],
        "per-level deadline verdicts are the paper's timing claim: "
        "must match exactly")]
    floor = baseline.get("min_switch_speedup",
                         fresh.get("min_switch_speedup"))
    fresh_experiments = fresh.get("experiments", {})
    for label, base in baseline.get("experiments", {}).items():
        pre = f"experiments.{label}"
        quote = fresh_experiments.get(label)
        if quote is None:
            findings.append({
                "metric": pre, "baseline": None, "fresh": None,
                "gated": True, "ok": False,
                "note": "committed experiment missing from fresh run"})
            continue
        findings.append(find_within(
            f"{pre}.best_reward", base.get("best_reward"),
            quote.get("best_reward"), budget=REWARD_DRIFT, kind="floor"))
        base_traj = base.get("best_reward_trajectory") or []
        fresh_traj = quote.get("best_reward_trajectory") or []
        findings.append(find_exact(
            f"{pre}.trajectory_len", len(base_traj), len(fresh_traj),
            "the search must keep running the committed episode count"))
        quote_levels = {lvl.get("level"): lvl
                        for lvl in quote.get("levels", [])}
        for lvl in base.get("levels", []):
            name = lvl.get("level")
            findings.append(find_within(
                f"{pre}.levels.{name}.rt3_score", lvl.get("rt3_score"),
                quote_levels.get(name, {}).get("rt3_score"),
                budget=ACC_DRIFT, kind="floor"))
            findings.append(find_info(
                f"{pre}.levels.{name}.latency_ms", lvl.get("latency_ms"),
                quote_levels.get(name, {}).get("latency_ms"),
                note="informational (verdict row set gates the claim)"))
        findings.append(find_within(
            f"{pre}.rt3_switch_ms", base.get("rt3_switch_ms"),
            quote.get("rt3_switch_ms"), budget=SWITCH_MS_RISE,
            kind="ceiling", relative=True,
            note="modelled switch cost must not rise beyond "
                 f"{100 * SWITCH_MS_RISE:.0f}%"))
        speedup = quote.get("switch_speedup")
        findings.append({
            "metric": f"{pre}.switch_speedup", "baseline": floor,
            "fresh": speedup, "gated": True,
            "ok": (speedup is not None and floor is not None
                   and speedup >= floor),
            "note": f"UB-reload over RT3-switch must stay >= {floor}x "
                    "(the paper's >1000x claim; committed floor wins)"})
        findings.append(find_info(f"{pre}.ub_reload_ms",
                                  base.get("ub_reload_ms"),
                                  quote.get("ub_reload_ms"),
                                  note="informational (modelled reload)"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


def compare_table4(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two Table-IV digests: exact ablation rows.

    The six-way study replays deterministically from the recorded
    seeds/episode counts, so any perturbed (task, method) row fails.
    """

    def row_key(row):
        return (row.get("task"), row.get("method"),
                row.get("avg_sparsity"), row.get("runs"),
                row.get("improvement"), row.get("avg_accuracy"),
                row.get("accuracy_loss"))

    findings = [find_row_set(
        "rows.row_set",
        [row_key(r) for r in baseline.get("rows", [])],
        [row_key(r) for r in fresh.get("rows", [])],
        "ablation rows (task, method, sparsity, runs, accuracy) replay "
        "deterministically: must match exactly")]
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


def compare_ablations(baseline: dict, fresh: dict) -> List[dict]:
    """Diff two design-ablation digests.

    The pattern-size, governor and kernel-cost sweeps are closed-form
    cost-model evaluations and gate by exact row sets; the seeded
    search-space sweep gates its best rewards under the drift budgets.
    """
    row_keys = {
        "pattern_size": lambda r: (r.get("psize"), r.get("latency_ms"),
                                   r.get("overhead_cycles")),
        "governor": lambda r: (tuple(r.get("thresholds", [])),
                               r.get("low_energy_fraction"),
                               r.get("total_runs")),
        "kernels": lambda r: (r.get("kernel"), r.get("macs"),
                              r.get("index_ops"), r.get("weighted_total")),
    }
    findings = [find_row_set(
        f"{section}.row_set",
        [key(r) for r in baseline.get(section, [])],
        [key(r) for r in fresh.get(section, [])],
        f"{section} sweep rows are deterministic cost-model outputs: "
        "must match exactly")
        for section, key in row_keys.items()]
    fresh_space = {(r.get("theta"), r.get("m")): r
                   for r in fresh.get("space_size", [])}
    for base_row in baseline.get("space_size", []):
        theta, m = base_row.get("theta"), base_row.get("m")
        quote = fresh_space.get((theta, m), {})
        pre = f"space_size.theta{theta}_m{m}"
        findings.append(find_within(
            f"{pre}.best_reward", base_row.get("best_reward"),
            quote.get("best_reward"), budget=REWARD_DRIFT, kind="floor"))
        findings.append(find_within(
            f"{pre}.best_weighted_accuracy",
            base_row.get("best_weighted_accuracy"),
            quote.get("best_weighted_accuracy"),
            budget=REWARD_DRIFT, kind="floor"))
    findings.append(find_info("wall_s", _lookup(baseline, "wall_s"),
                              _lookup(fresh, "wall_s")))
    return findings


# ---------------------------------------------------------------------------
# fresh runs at the committed configuration
# ---------------------------------------------------------------------------

def _import_benchmarks():
    sys.path.insert(0, str(REPO_ROOT))
    sys.path.insert(0, str(REPO_ROOT / "src"))


def run_fresh_serve(baseline: dict) -> dict:
    """Re-run the serving bench at the committed baseline's configuration."""
    _import_benchmarks()
    from benchmarks.bench_serve import run_comparison

    sharded = baseline.get("sharded", {})
    return run_comparison(
        num_requests=int(baseline.get("requests", 96)),
        batch=int(baseline.get("batch_size", 8)),
        seed=int(baseline.get("seed", 0)),
        devices=int(sharded.get("devices", 4)),
        policy=str(sharded.get("policy", "least-loaded")))


def run_fresh_kernels(baseline: dict) -> dict:
    """Re-run the kernel microbench at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_kernels import run_bench

    return run_bench(smoke=bool(baseline.get("smoke", False)),
                     seed=int(baseline.get("seed", 0)),
                     repeats=int(baseline.get("repeats", 5)))


def run_fresh_stream(baseline: dict) -> dict:
    """Re-run the streaming window sweep at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_stream import WINDOWS_MS, run_bench

    return run_bench(num_requests=int(baseline.get("requests", 64)),
                     windows_ms=baseline.get("windows_ms", list(WINDOWS_MS)),
                     seed=int(baseline.get("seed", 0)))


def run_fresh_table(baseline: dict) -> dict:
    """Re-run the Table I digest at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_table1_dvfs import run_bench

    return run_bench(lookups=int(baseline.get("governor", {})
                                 .get("lookups", 1000)))


def run_fresh_table2(baseline: dict) -> dict:
    """Re-run the Table II discharge comparison (no configuration knobs)."""
    _import_benchmarks()
    from benchmarks.bench_table2_reconfig import run_bench

    return run_bench()


def run_fresh_forward(baseline: dict) -> dict:
    """Re-run the forward-plane bench at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_forward import run_bench

    return run_bench(smoke=bool(baseline.get("smoke", False)),
                     seed=int(baseline.get("seed", 0)),
                     repeats=int(baseline.get("repeats", 5)))


def run_fresh_generate(baseline: dict) -> dict:
    """Re-run the decode bench at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_generate import run_bench

    return run_bench(smoke=bool(baseline.get("smoke", False)),
                     seed=int(baseline.get("seed", 0)),
                     repeats=int(baseline.get("repeats", 5)))


def run_fresh_faults(baseline: dict) -> dict:
    """Re-run the fault-tolerance bench at the committed configuration."""
    _import_benchmarks()
    from benchmarks.bench_faults import run_bench

    return run_bench(num_requests=int(baseline.get("requests", 96)),
                     seed=int(baseline.get("seed", 0)))


def run_fresh_preempt(baseline: dict) -> dict:
    """Re-run the preemptive-scheduling bench at the committed config."""
    _import_benchmarks()
    from benchmarks.bench_preempt import run_bench

    return run_bench(num_requests=int(baseline.get("requests", 102)),
                     seed=int(baseline.get("seed", 0)))


def run_fresh_fig3(baseline: dict) -> dict:
    """Replay the Figure 3 Pareto exploration at the committed seed."""
    _import_benchmarks()
    from benchmarks.bench_fig3_pareto import run_bench

    return run_bench(episodes=int(baseline.get("episodes", 6)),
                     seed=int(baseline.get("seed", 0)),
                     pretrain_epochs=int(baseline.get("pretrain_epochs", 6)))


def run_fresh_fig4(baseline: dict) -> dict:
    """Replay the Figure 4 pattern search at the committed seed."""
    _import_benchmarks()
    from benchmarks.bench_fig4_patterns import run_bench

    return run_bench(seed=int(baseline.get("seed", 0)),
                     pretrain_epochs=int(baseline.get("pretrain_epochs", 2)))


def run_fresh_fig5(baseline: dict) -> dict:
    """Replay the Figure 5 block-pruning curves at the committed config."""
    _import_benchmarks()
    from benchmarks.bench_fig5_bp import run_bench

    return run_bench(tasks=baseline.get("tasks"),
                     pretrain_epochs=int(baseline.get("pretrain_epochs", 6)),
                     finetune_epochs=int(baseline.get("finetune_epochs", 3)))


def run_fresh_table3(baseline: dict) -> dict:
    """Replay the Table III AutoML searches at the committed config."""
    _import_benchmarks()
    from benchmarks.bench_table3_automl import run_bench

    labels = list(baseline.get("experiments", {})) or None
    return run_bench(labels=labels,
                     episodes=int(baseline.get("episodes", 4)),
                     seed=int(baseline.get("seed", 0)))


def run_fresh_table4(baseline: dict) -> dict:
    """Replay the Table IV ablation studies at the committed config."""
    _import_benchmarks()
    from benchmarks.bench_table4_ablation import run_bench

    return run_bench(tasks=baseline.get("tasks"),
                     episodes=baseline.get("episodes"),
                     pretrain_epochs=int(baseline.get("pretrain_epochs", 6)),
                     finetune_epochs=int(baseline.get("finetune_epochs", 2)))


def run_fresh_ablations(baseline: dict) -> dict:
    """Replay the design-ablation sweeps at the committed config."""
    _import_benchmarks()
    from benchmarks.bench_design_ablations import run_bench

    return run_bench(episodes=int(baseline.get("episodes", 3)),
                     seed=int(baseline.get("seed", 0)),
                     pretrain_epochs=int(baseline.get("pretrain_epochs", 3)))


class BenchSpec:
    """One registered bench: its baseline file, runner and comparator."""

    def __init__(self, name: str, baseline_path: pathlib.Path,
                 fresh_path: pathlib.Path,
                 run: Callable[[dict], dict],
                 comparator: Callable[..., List[dict]]) -> None:
        self.name = name
        self.baseline_path = baseline_path
        self.fresh_path = fresh_path
        self.run = run
        self.comparator = comparator


BENCHES: Dict[str, BenchSpec] = {
    "serve": BenchSpec("serve", RESULTS / "BENCH_serve.json",
                       RESULTS / "BENCH_serve.fresh.json",
                       run_fresh_serve, compare),
    "stream": BenchSpec("stream", RESULTS / "BENCH_stream.json",
                        RESULTS / "BENCH_stream.fresh.json",
                        run_fresh_stream, compare_stream),
    "kernels": BenchSpec("kernels", RESULTS / "BENCH_kernels.json",
                         RESULTS / "BENCH_kernels.fresh.json",
                         run_fresh_kernels, compare_kernels),
    "table": BenchSpec("table", RESULTS / "BENCH_table.json",
                       RESULTS / "BENCH_table.fresh.json",
                       run_fresh_table, compare_table),
    "table2": BenchSpec("table2", RESULTS / "BENCH_table2.json",
                        RESULTS / "BENCH_table2.fresh.json",
                        run_fresh_table2, compare_table2),
    "forward": BenchSpec("forward", RESULTS / "BENCH_forward.json",
                         RESULTS / "BENCH_forward.fresh.json",
                         run_fresh_forward, compare_forward),
    "generate": BenchSpec("generate", RESULTS / "BENCH_generate.json",
                          RESULTS / "BENCH_generate.fresh.json",
                          run_fresh_generate, compare_generate),
    "faults": BenchSpec("faults", RESULTS / "BENCH_faults.json",
                        RESULTS / "BENCH_faults.fresh.json",
                        run_fresh_faults, compare_faults),
    "preempt": BenchSpec("preempt", RESULTS / "BENCH_preempt.json",
                         RESULTS / "BENCH_preempt.fresh.json",
                         run_fresh_preempt, compare_preempt),
    "fig3": BenchSpec("fig3", RESULTS / "BENCH_fig3.json",
                      RESULTS / "BENCH_fig3.fresh.json",
                      run_fresh_fig3, compare_fig3),
    "fig4": BenchSpec("fig4", RESULTS / "BENCH_fig4.json",
                      RESULTS / "BENCH_fig4.fresh.json",
                      run_fresh_fig4, compare_fig4),
    "fig5": BenchSpec("fig5", RESULTS / "BENCH_fig5.json",
                      RESULTS / "BENCH_fig5.fresh.json",
                      run_fresh_fig5, compare_fig5),
    "table3": BenchSpec("table3", RESULTS / "BENCH_table3.json",
                        RESULTS / "BENCH_table3.fresh.json",
                        run_fresh_table3, compare_table3),
    "table4": BenchSpec("table4", RESULTS / "BENCH_table4.json",
                        RESULTS / "BENCH_table4.fresh.json",
                        run_fresh_table4, compare_table4),
    "ablations": BenchSpec("ablations", RESULTS / "BENCH_ablations.json",
                           RESULTS / "BENCH_ablations.fresh.json",
                           run_fresh_ablations, compare_ablations),
}


def render(findings: List[dict], title: str = "") -> str:
    rows = []
    if title:
        rows.append(f"== {title} ==")
    rows += [f"{'metric':<48} {'baseline':>12} {'fresh':>12}  verdict",
             "-" * 88]
    for f in findings:
        base = "-" if f["baseline"] is None else f"{f['baseline']:.4g}"
        new = "-" if f["fresh"] is None else f"{f['fresh']:.4g}"
        verdict = ("PASS" if f["ok"] else "FAIL") if f["gated"] else "info"
        rows.append(f"{f['metric']:<48} {base:>12} {new:>12}  {verdict}")
    return "\n".join(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="all",
                        choices=["all", *BENCHES],
                        help="which bench(es) to gate")
    for name in BENCHES:
        # serve predates the registry; keep its historical short flags
        # as aliases so existing invocations keep working
        baseline_flags = (["--baseline", "--serve-baseline"]
                          if name == "serve" else [f"--{name}-baseline"])
        fresh_flags = (["--fresh-output", "--serve-fresh-output"]
                       if name == "serve" else [f"--{name}-fresh-output"])
        parser.add_argument(*baseline_flags, dest=f"{name}_baseline",
                            type=pathlib.Path, default=None,
                            help=f"override the {name} baseline digest path")
        parser.add_argument(*fresh_flags, dest=f"{name}_fresh_output",
                            type=pathlib.Path, default=None,
                            help=f"override the {name} fresh-digest path "
                                 "(committable as a new baseline)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_REPORT,
                        help="where to write the shared comparison report")
    parser.add_argument("--max-throughput-drop", type=float, default=0.15,
                        help="serve + stream: allowed fractional throughput "
                             "drop (serve sim-throughput, stream widest-"
                             "window service throughput)")
    parser.add_argument("--max-p95-increase", type=float, default=0.20,
                        help="serve + stream: allowed fractional latency "
                             "rise (serve sim-p95, stream widest-window p50)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="overwrite the selected baselines with the "
                             "fresh digests instead of gating (commit them)")
    args = parser.parse_args(argv)

    overrides = {
        name: (getattr(args, f"{name}_baseline"),
               getattr(args, f"{name}_fresh_output"))
        for name in BENCHES}
    selected = list(BENCHES) if args.bench == "all" else [args.bench]

    report: dict = {"ok": True, "benches": {}}
    total_failures = 0
    for name in selected:
        spec = BENCHES[name]
        baseline_path, fresh_path = overrides.get(name, (None, None))
        baseline_path = baseline_path or spec.baseline_path
        fresh_path = fresh_path or spec.fresh_path
        if not baseline_path.exists():
            print(f"error: no committed baseline at {baseline_path}",
                  file=sys.stderr)
            return 2
        # read the baseline before the bench overwrites the digest in place
        baseline = json.loads(baseline_path.read_text())
        fresh = spec.run(baseline)
        fresh_path.parent.mkdir(parents=True, exist_ok=True)
        fresh_path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")

        if args.update_baseline:
            baseline_path.write_text(
                json.dumps(fresh, indent=2, sort_keys=True) + "\n")
            print(f"[{name}] baseline updated -> {baseline_path}")
            continue

        if name in ("serve", "stream"):
            findings = spec.comparator(
                baseline, fresh,
                max_throughput_drop=args.max_throughput_drop,
                max_p95_increase=args.max_p95_increase)
        else:
            findings = spec.comparator(baseline, fresh)
        failures = [f for f in findings if f["gated"] and not f["ok"]]
        total_failures += len(failures)
        report["benches"][name] = {
            "ok": not failures,
            "baseline_path": str(baseline_path),
            "findings": findings,
        }
        report["ok"] = report["ok"] and not failures
        print(render(findings, title=name))
        print()

    if args.update_baseline:
        return 0

    report["registry"] = list(BENCHES)
    report["selected"] = selected
    report["failures"] = total_failures
    report["max_throughput_drop"] = args.max_throughput_drop
    report["max_p95_increase"] = args.max_p95_increase
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"report -> {args.output}")
    if total_failures:
        print(f"\nbench regression: {total_failures} gated metric(s) failed "
              "(if intentional, rerun with --update-baseline and commit)")
        return 1
    print("\nno bench regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
