#!/usr/bin/env python
"""CI regression gate over every committed ``BENCH_<name>.json`` digest.

``BENCHES`` below is the whole gate: one entry per bench names its entry
function, the recipe that replays it from the committed baseline, and the
rules the fresh digest must pass.  A ``BENCH_*.json`` with no entry fails
the gate.  Wall clock is reported, never gated.  ``docs/benchmarks.md``
explains every rule and how to add a bench.
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
import pathlib
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"
REPORT_NAME = "bench_regression_report.json"

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

EXACTNESS_TOL = 1e-9
MAX_THROUGHPUT_DROP = 0.15   # serve + stream: relative throughput drop allowed
MAX_P95_INCREASE = 0.20      # serve + stream: relative latency rise allowed
POWER_DRIFT = 0.01           # table: modelled power band
# drift budgets for the seeded search-driven benches
ACC_DRIFT = 0.02             # absolute weighted-accuracy / score floor slack
REWARD_DRIFT = 0.05          # absolute best-reward floor slack
RUNS_REL_DRIFT = 0.02        # relative #runs slack for Pareto-point coverage
SWITCH_MS_RISE = 0.10        # relative rise of the modelled switch cost

WALL = "informational (wall-clock / runner-dependent)"
COUNT = "deterministic count: must match baseline exactly"
SIM = "deterministic simulation: must match baseline exactly"
COST = "deterministic cost-model rows: must match exactly"
COUNTER_FIELDS = ("macs", "index_ops", "overhead_ops", "weighted_total")
FAULT_COUNTERS = ("submitted", "completed", "shed", "degraded", "failures",
                  "recoveries", "requeued_batches", "retried_batches")
PREEMPT_COUNTERS = ("submitted", "completed", "shed", "cancelled",
                    "preemptions", "requeued_batches", "retried_batches",
                    "victim_slo_misses", "hot_slo_misses")


# ---------------------------------------------------------------------------
# digest paths
#
# A path is dotted keys with optional list indices (``sweep[-1].p50``).
# Two segments expand over the *baseline*:
#   ``*``       every key of a dict (or index of a list);
#   ``{field}`` every row of a list of dicts, labelled by formatting the
#               row (``theta{theta}_m{m}``) and found in the fresh list
#               by that label.
# ``{0}``, ``{1}`` in a rule's ``name`` or limit path are the ``*`` keys.
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    fmt: str
    label: str


def _parse(path: str) -> list:
    parts: list = []
    for seg in path.split("."):
        name, *idx = seg.replace("]", "").split("[")
        if name:
            parts.append(name)
        parts.extend(int(i) for i in idx)
    return parts


def _label(fmt: str, row) -> Optional[str]:
    try:
        return fmt.format_map(row) if isinstance(row, dict) else None
    except (KeyError, ValueError):
        return None


def _step(node, part):
    if isinstance(part, _Row):
        rows = node if isinstance(node, list) else []
        return next((r for r in rows if _label(part.fmt, r) == part.label),
                    None)
    if isinstance(node, dict):
        return node.get(part)
    if isinstance(node, list) and isinstance(part, int) \
            and -len(node) <= part < len(node):
        return node[part]
    return None


def _resolve(node, steps: Sequence):
    for part in steps:
        node = _step(node, part)
    return node


def _name(steps: Sequence) -> str:
    out = ""
    for part in steps:
        text = part.label if isinstance(part, _Row) else part
        out += f"[{text}]" if isinstance(text, int) else \
            (f".{text}" if out else str(text))
    return out


def _expand(node, parts: list, done: tuple = (), keys: tuple = (),
            cuts: tuple = ()):
    """Yield ``(steps, star keys, star cut points)`` per baseline match."""
    if not parts:
        yield done, keys, cuts
        return
    head, rest = parts[0], parts[1:]
    if head == "*":
        items = (list(node) if isinstance(node, dict)
                 else range(len(node)) if isinstance(node, list) else ())
        for key in items:
            yield from _expand(node[key], rest, done + (key,), keys + (key,),
                               cuts + (len(done) + 1,))
    elif isinstance(head, str) and "{" in head:
        for row in node if isinstance(node, list) else ():
            label = _label(head, row)
            if label is not None:
                yield from _expand(row, rest, done + (_Row(head, label),),
                                   keys, cuts)
    else:
        yield from _expand(_step(node, head), rest, done + (head,), keys,
                           cuts)


def _num(value) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _lookup(digest: dict, path: str):
    return _resolve(digest, _parse(path))


def _finding(metric, baseline, fresh, ok, note, gated=True, **extra) -> dict:
    return {"metric": metric, "baseline": _num(baseline),
            "fresh": _num(fresh), "gated": gated, "ok": bool(ok),
            "note": note, **extra}


def _absent(metric, base, new, note) -> Optional[dict]:
    """The gate-wide missing-metric convention, or None when both exist:
    absent from the baseline passes (older baselines predate it), missing
    from the fresh run fails (the bench stopped reporting it)."""
    if base is None:
        return _finding(metric, base, new, True,
                        "metric absent from baseline; skipped")
    if new is None:
        return _finding(metric, base, new, False,
                        "metric missing from fresh run")
    return None


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

class Rule:
    """One check, applied at every baseline match of ``path``.

    Coverage is baseline-anchored: a ``*`` key of the baseline that the
    fresh run lacks fails once, named by the rule's deepest ``*`` key,
    and every later rule under that key stays silent.
    """

    gated = True

    def __init__(self, path: str, note: str = "", name: Optional[str] = None,
                 limit=None) -> None:
        self.path, self.note, self.name, self.limit = path, note, name, limit

    def findings(self, baseline: dict, fresh: dict, lost: set) -> List[dict]:
        out: List[dict] = []
        for steps, keys, cuts in _expand(baseline, _parse(self.path)):
            prefixes = [_name(steps[:cut]) for cut in cuts]
            if any(p in lost for p in prefixes):
                continue
            if cuts and _resolve(fresh, steps[:cuts[-1]]) is None:
                if self.gated:
                    lost.add(prefixes[-1])
                    out.append(_finding(prefixes[-1], None, None, False,
                                        "committed entry missing from fresh "
                                        "run"))
                continue
            metric = _name(steps) if self.name is None \
                else self.name.format(*keys)
            out += self.judge(metric, _resolve(baseline, steps),
                              _resolve(fresh, steps),
                              self._limit(baseline, fresh, keys))
        return out

    def _limit(self, baseline: dict, fresh: dict, keys: tuple):
        # the committed baseline's limit wins: a bench cannot loosen its
        # own gate by shipping a different acceptance constant; only a
        # baseline predating the field falls back to the fresh digest
        if not isinstance(self.limit, str):
            return self.limit
        path = self.limit.format(*keys)
        value = _lookup(baseline, path)
        return _lookup(fresh, path) if value is None else value

    def judge(self, metric, base, new, limit) -> List[dict]:
        raise NotImplementedError


class Flag(Rule):
    """The fresh value must be truthy."""

    def judge(self, metric, base, new, limit):
        fresh = None if new is None else float(bool(new))
        return [_finding(metric, 1.0, fresh, bool(new), self.note)]


class Exact(Rule):
    """The fresh value must equal the baseline's (or a fixed ``value``);
    ``of`` maps both sides first (``of=len`` compares lengths)."""

    def __init__(self, path, note, value=None, of=None, name=None) -> None:
        super().__init__(path, note, name)
        self.value, self.of = value, of

    def judge(self, metric, base, new, limit):
        if self.of is not None:
            base = None if base is None else self.of(base)
            new = None if new is None else self.of(new)
        if self.value is not None:
            base = self.value
        return [_absent(metric, base, new, self.note) or _finding(
            metric, base, new, float(new) == float(base), self.note)]


class _Bound(Rule):
    """The fresh value against a ``limit``: a number, or a digest path
    read from the committed baseline."""

    op = word = None

    def __init__(self, path, limit, note, name=None) -> None:
        super().__init__(path, note, name, limit)

    def judge(self, metric, base, new, limit):
        ok = new is not None and limit is not None and self.op(new, limit)
        return [_finding(metric, limit, new, ok,
                         f"{self.note} (must stay {self.word} {limit})")]


class Below(_Bound):
    op, word = operator.lt, "<"


class Floor(_Bound):
    op, word = operator.ge, ">="


class Ceiling(_Bound):
    op, word = operator.le, "<="


class Within(Rule):
    """Drift budget around the baseline value: ``floor`` fails below
    ``base - budget``, ``ceiling`` above ``base + budget``, ``band``
    outside ``base ± budget``; ``relative`` scales budget by ``|base|``."""

    def __init__(self, path, budget, kind, relative=False, note="") -> None:
        if kind not in ("floor", "ceiling", "band"):
            raise ValueError(f"unknown drift kind {kind!r}")
        super().__init__(path, note)
        self.budget, self.kind, self.relative = budget, kind, relative

    def judge(self, metric, base, new, limit):
        missing = _absent(metric, base, new, self.note)
        if missing:
            return [missing]
        base, new = float(base), float(new)
        span = abs(base) * self.budget if self.relative else self.budget
        if self.kind == "floor":
            limit, rule = base - span, ">="
            ok = new >= limit
        elif self.kind == "ceiling":
            limit, rule = base + span, "<="
            ok = new <= limit
        else:
            limit, rule = span, "within ±"
            ok = abs(new - base) <= span
        return [_finding(metric, base, new, ok,
                         self.note or f"must stay {rule} {limit:.4g}",
                         limit=limit)]


class RowSet(Rule):
    """Rows at ``path`` (``*`` keys prepended to each row's key tuple)
    must form the same set in both digests."""

    def __init__(self, path, fields, note, name=None) -> None:
        super().__init__(path, note, name or f"{path}.row_set")
        self.fields = fields

    def _rows(self, digest: dict) -> set:
        rows = set()
        for steps, keys, _ in _expand(digest, _parse(self.path)):
            for row in _resolve(digest, steps) or []:
                rows.add(keys + tuple(
                    tuple(v) if isinstance(v, list) else v
                    for v in (row.get(f) for f in self.fields)))
        return rows

    def findings(self, baseline, fresh, lost):
        base, new = self._rows(baseline), self._rows(fresh)
        return [_finding(self.name, len(base), len(new), base == new,
                         self.note)]


class Less(Rule):
    """Fresh ``path`` must be strictly below fresh ``other``."""

    def __init__(self, path, other, note, name) -> None:
        super().__init__(path, note, name)
        self.other = other

    def findings(self, baseline, fresh, lost):
        a, b = _lookup(fresh, self.path), _lookup(fresh, self.other)
        strict = a is not None and b is not None and a < b
        return [_finding(self.name, 1.0, float(strict), strict, self.note)]


class Info(Rule):
    """Reported, never gated."""

    gated = False

    def __init__(self, path, note=WALL) -> None:
        super().__init__(path, note)

    def judge(self, metric, base, new, limit):
        return [_finding(metric, base, new, True, self.note, gated=False)]


class Pareto(Rule):
    """Every committed front point must stay covered: some fresh point
    reaches its accuracy and #runs within the drift budgets."""

    def __init__(self, path, name, acc_budget, runs_rel_budget) -> None:
        super().__init__(path, name=name)
        self.acc_budget, self.runs_rel_budget = acc_budget, runs_rel_budget

    def judge(self, metric, base, new, limit):
        out = []
        for i, (aw, runs) in enumerate(base or []):
            covered = any(q_aw >= aw - self.acc_budget
                          and q_runs >= runs * (1.0 - self.runs_rel_budget)
                          for q_aw, q_runs in new or [])
            out.append(_finding(
                f"{metric}[{i}]", aw, None, covered,
                f"committed front point (Aw={aw:.4f}, runs={runs:.3e}) "
                "must stay covered by the replayed front"))
        return out


# ---------------------------------------------------------------------------
# the table: every gated bench, its replay recipe and its rules
# ---------------------------------------------------------------------------

class Bench(NamedTuple):
    module: str                 # benchmarks.<module>
    entry: str                  # its digest-returning entry function
    recipe: Sequence[str]       # "kwarg" or "kwarg=baseline.path"
    rules: Sequence[Rule]


CASE_SPEEDUP = Info("cases.*.speedup")
RUN_CONFIG = ("smoke", "seed", "repeats")

BENCHES: Dict[str, Bench] = {
    "serve": Bench("bench_serve", "run_comparison", (
        "num_requests=requests", "batch=batch_size", "seed",
        "devices=sharded.devices", "policy=sharded.policy"), [
        Within("sim_throughput_rps", MAX_THROUGHPUT_DROP, "floor", relative=True),
        Within("p95_latency_ms", MAX_P95_INCREASE, "ceiling", relative=True),
        Within("sharded.sim_rps_sharded", MAX_THROUGHPUT_DROP, "floor", relative=True),
        Within("sharded.p95_latency_ms", MAX_P95_INCREASE, "ceiling", relative=True),
        *[Below(p, EXACTNESS_TOL, "outputs must match per-request")
          for p in ("max_batch_vs_single_error", "max_cross_engine_error",
                    "sharded.max_verify_error")],
        *[Info(p) for p in ("baseline_throughput_rps",
                            "batched_throughput_rps", "speedup",
                            "sharded.scaling")]]),
    "stream": Bench("bench_stream", "run_bench", (
        "num_requests=requests", "windows_ms", "seed"), [
        Below("max_oracle_err", EXACTNESS_TOL,
              "streaming outputs must match the per-request oracle"),
        *[Flag(f"monotonic.{m}",
               "window sweep must keep its monotone tradeoff shape")
          for m in ("mean_batch_size", "service_throughput_rps",
                    "p50_latency_ms")],
        Exact("sweep.*.mean_batch_size",
              "deterministic admission: per-window batch sizes must match"),
        Within("sweep[-1].service_throughput_rps", MAX_THROUGHPUT_DROP, "floor",
               relative=True),
        Within("sweep[-1].p50_latency_ms", MAX_P95_INCREASE, "ceiling",
               relative=True),
        Info("tradeoff.efficiency_gain", "informational")]),
    "kernels": Bench("bench_kernels", "run_bench", RUN_CONFIG, [
        Below("cases.*.max_abs_err.*", EXACTNESS_TOL,
              "kernel outputs must agree"),
        *[Exact(f"cases.*.op_counters.*.{f}", COUNT)
          for f in COUNTER_FIELDS],
        Info("cases.*.wall_ms.pattern"),
        Floor("acceptance.speedup", "acceptance.min_speedup",
              "grouped pattern kernel over the loop reference")]),
    "table": Bench("bench_table1_dvfs", "run_bench",
                   ("lookups=governor.lookups",), [
        RowSet("levels", ("name", "freq_mhz", "voltage_mv"),
               "V/F rows are paper configuration: must match exactly"),
        Within("levels.{name}.power_w", POWER_DRIFT, "band", relative=True,
               note="modelled power must stay within 1% of baseline"),
        Info("governor.wall_ms")]),
    "table2": Bench("bench_table2_reconfig", "run_bench", (), [
        RowSet("rows", ("experiment", "level", "latency_ms",
                        "meets_deadline"),
               "reconfiguration-cost rows are deterministic: must match "
               "exactly"),
        Exact("total_runs.*", SIM),
        Info("wall_ms")]),
    "forward": Bench("bench_forward", "run_bench", RUN_CONFIG, [
        Exact("cases.*.max_abs_err", "compiled float64 forward must be "
              "bit-identical to the eager Tensor forward", value=0.0),
        Exact("cases.*.tensor_nodes", COUNT),
        Exact("cases.*.compiled_steady_allocs", COUNT),
        Below("cases.*.float32_max_rel_err", "acceptance.float32_tol",
              "float32 mode must stay within its documented tolerance"),
        CASE_SPEEDUP,
        Floor("acceptance.speedup", "acceptance.min_speedup",
              "compiled forward over eager on the acceptance case")]),
    "generate": Bench("bench_generate", "run_bench", RUN_CONFIG, [
        Flag("cases.*.exact", "compiled decode tokens + logprobs must be "
             "bit-identical to the eager loop"),
        Exact("cases.*.max_abs_err", "float64 logprobs must match exactly",
              value=0.0),
        Flag("cases.*.ragged_exact", "streams joining/leaving the rolling "
             "batch must stay bit-identical to their solo eager runs"),
        CASE_SPEEDUP,
        Floor("acceptance.speedup", "acceptance.min_speedup",
              "compiled decode over eager per token on the acceptance "
              "case"),
        Info("batching.speedup")]),
    "faults": Bench("bench_faults", "run_bench",
                    ("num_requests=requests", "seed"), [
        Flag("policies.*.conserved",
             "no request may be lost: completed + shed == submitted"),
        Flag("policies.*.exact", "completed outputs must be bit-identical "
             "to the fault-free serve of the surviving set"),
        *[Exact(f"policies.*.{c}", SIM) for c in FAULT_COUNTERS],
        Ceiling("policies.*.shed_rate", "acceptance.{0}_shed_rate_ceiling",
                "shed rate under the committed budget"),
        Ceiling("policies.*.recovery_lag_s", "acceptance.recovery_lag_budget_s",
                "downed-shard detection lag under the probe-backoff budget"),
        Info("policies.*.retry_penalty_ms", "informational (counters gate it)"),
        Info("policies.*.p95_latency_ms", "informational (simulated)"),
        Less("policies.degrade.shed", "policies.reject.shed",
             "graceful degradation must shed strictly fewer requests than "
             "deadline-aware rejection", name="separation.strict"),
        Info("wall_s")]),
    "preempt": Bench("bench_preempt", "run_bench",
                     ("num_requests=requests", "seed"), [
        Flag("policies.*.conserved", "no request may be lost: completed + "
             "shed + cancelled == submitted"),
        Flag("policies.*.exact", "completed outputs must be bit-identical "
             "to the clean serve of the surviving set"),
        *[Exact(f"policies.*.{c}", SIM) for c in PREEMPT_COUNTERS],
        Exact("policies.*.starved_tenants",
              "every tenant with traffic must complete something",
              value=0, of=len),
        Ceiling("policies.*.hot_shed_rate", "acceptance.hot_shed_rate_ceiling",
                "hot-tenant shed rate under the committed budget"),
        Info("policies.*.retry_penalty_ms", "informational (counters gate it)"),
        Info("policies.*.victim_p95_latency_ms", "informational (simulated)"),
        Less("policies.preempt.victim_slo_misses",
             "policies.fifo.victim_slo_misses",
             "preemption + fairness must strictly cut victim-tenant SLO "
             "misses vs fifo", name="separation.strict"),
        Floor("policies.fifo.victim_slo_misses",
              "acceptance.fifo_victim_miss_floor",
              "the fifo arm must keep hurting the victim",
              name="policies.fifo.victim_miss_floor"),
        Ceiling("policies.preempt.victim_slo_misses",
                "acceptance.preempt_victim_miss_ceiling",
                "the preemptive arm must keep victim misses low",
                name="policies.preempt.victim_miss_ceiling"),
        Info("wall_s")]),
    "fig3": Bench("bench_fig3_pareto", "run_bench",
                  ("episodes", "seed", "pretrain_epochs"), [
        Exact("searches.*.deadline_ms",
              "replayed configuration must match the committed digest"),
        Within("searches.*.num_feasible", 0, "floor",
               note="the replayed search must not lose feasible points"),
        Pareto("searches.*.pareto_front", "searches.{0}.pareto", ACC_DRIFT,
               RUNS_REL_DRIFT),
        Within("searches.*.best_weighted_accuracy", ACC_DRIFT, "floor"),
        Within("searches.*.best_reward", REWARD_DRIFT, "floor"),
        Exact("searches.*.min_sparsity.*",
              "the per-level sparsity grid is configuration"),
        *[Info(f"searches.*.{f}", "informational (tiny-scale training)")
          for f in ("original_accuracy", "backbone_accuracy",
                    "heuristic_weighted_accuracy")],
        Info("wall_s")]),
    "fig4": Bench("bench_fig4_patterns", "run_bench",
                  ("seed", "pretrain_epochs"), [
        RowSet("levels", ("level", "sparsity", "num_patterns",
                          "pattern_size", "pattern_digests"),
               "pattern rows replay deterministically from the seed"),
        Exact("overlap.shared_kept", SIM),
        Exact("overlap.chance", SIM),
        Info("wall_s")]),
    "fig5": Bench("bench_fig5_bp", "run_bench",
                  ("tasks", "pretrain_epochs", "finetune_epochs"), [
        RowSet("rows", ("task", "rate", "dense_score", "pruned_score",
                        "score_loss", "compression"),
               "BP rows replay deterministically from the seeds/epochs"),
        Exact("mean_score_loss", SIM),
        Info("wall_s")]),
    "table3": Bench("bench_table3_automl", "run_bench",
                    ("labels=experiments.*", "episodes", "seed"), [
        RowSet("experiments.*.levels", ("level", "meets_deadline"),
               "per-level deadline verdicts are the paper's timing claim",
               name="verdicts.row_set"),
        Within("experiments.*.best_reward", REWARD_DRIFT, "floor"),
        Exact("experiments.*.best_reward_trajectory",
              "the search must keep running the committed episode count",
              of=len, name="experiments.{0}.trajectory_len"),
        Within("experiments.*.levels.{level}.rt3_score", ACC_DRIFT, "floor"),
        Info("experiments.*.levels.{level}.latency_ms",
             "informational (verdict row set gates the claim)"),
        Within("experiments.*.rt3_switch_ms", SWITCH_MS_RISE, "ceiling",
               relative=True,
               note="modelled switch cost must not rise beyond 10%"),
        Floor("experiments.*.switch_speedup", "min_switch_speedup",
              "UB reload over RT3 switch (the paper's >1000x claim)"),
        Info("experiments.*.ub_reload_ms", "informational (modelled)"),
        Info("wall_s")]),
    "table4": Bench("bench_table4_ablation", "run_bench",
                    ("tasks", "episodes", "pretrain_epochs",
                     "finetune_epochs"), [
        RowSet("rows", ("task", "method", "avg_sparsity", "runs",
                        "improvement", "avg_accuracy", "accuracy_loss"),
               "ablation rows replay deterministically: must match "
               "exactly"),
        Info("wall_s")]),
    "ablations": Bench("bench_design_ablations", "run_bench",
                       ("episodes", "seed", "pretrain_epochs"), [
        RowSet("pattern_size", ("psize", "latency_ms", "overhead_cycles"),
               COST),
        RowSet("governor", ("thresholds", "low_energy_fraction",
                            "total_runs"), COST),
        RowSet("kernels", ("kernel", "macs", "index_ops", "weighted_total"),
               COST),
        Within("space_size.theta{theta}_m{m}.best_reward", REWARD_DRIFT,
               "floor"),
        Within("space_size.theta{theta}_m{m}.best_weighted_accuracy",
               REWARD_DRIFT, "floor"),
        Info("wall_s")]),
}


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------

def entry_function(name: str):
    bench = BENCHES[name]
    module = importlib.import_module(f"benchmarks.{bench.module}")
    return getattr(module, bench.entry)


def recipe_kwargs(name: str, baseline: dict) -> dict:
    """The entry function's kwargs, read from the committed baseline.

    A path the baseline lacks is left out, so the entry function's own
    default applies; ``path.*`` reads the list of that dict's keys.
    """
    kwargs = {}
    for item in BENCHES[name].recipe:
        kwarg, _, path = item.partition("=")
        path = path or kwarg
        if path.endswith(".*"):
            node = _lookup(baseline, path[:-2])
            value = list(node) if isinstance(node, dict) and node else None
        else:
            value = _lookup(baseline, path)
        if value is not None:
            kwargs[kwarg] = value
    return kwargs


def run_fresh(name: str, baseline: dict) -> dict:
    """Re-run one bench at the committed baseline's configuration."""
    return entry_function(name)(**recipe_kwargs(name, baseline))


def compare(name: str, baseline: dict, fresh: dict) -> List[dict]:
    """One finding per checked metric of bench ``name``."""
    lost: set = set()
    findings: List[dict] = []
    for rule in BENCHES[name].rules:
        findings += rule.findings(baseline, fresh, lost)
    return findings


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


def _write(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", nargs="+", default=["all"],
                        choices=["all", *BENCHES],
                        help="which bench(es) to gate (default: all)")
    parser.add_argument("--results-dir", type=pathlib.Path, default=RESULTS,
                        help="holds the BENCH_<name>.json baselines; the "
                             "BENCH_<name>.fresh.json digests and the "
                             f"{REPORT_NAME} report are written there")
    parser.add_argument("--update-baseline", action="store_true",
                        help="overwrite the selected baselines with the "
                             "fresh digests instead of gating (commit them)")
    args = parser.parse_args(argv)
    results = args.results_dir

    unknown = sorted(p.name for p in results.glob("BENCH_*.json")
                     if not p.name.endswith(".fresh.json")
                     and p.name[len("BENCH_"):-len(".json")] not in BENCHES)
    if unknown:
        print(f"error: no gate table entry for {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    selected = (list(BENCHES) if "all" in args.bench
                else list(dict.fromkeys(args.bench)))
    missing = [str(results / f"BENCH_{name}.json") for name in selected
               if not (results / f"BENCH_{name}.json").exists()]
    if missing:
        print(f"error: no committed baseline at {', '.join(missing)}",
              file=sys.stderr)
        return 2

    report: dict = {"benches": {}}
    total_failures = 0
    for name in selected:
        baseline_path = results / f"BENCH_{name}.json"
        baseline = json.loads(baseline_path.read_text())
        fresh = run_fresh(name, baseline)
        _write(results / f"BENCH_{name}.fresh.json", fresh)
        if args.update_baseline:
            _write(baseline_path, fresh)
            print(f"[{name}] baseline updated -> {baseline_path}")
            continue
        findings = compare(name, baseline, fresh)
        failures = sum(f["gated"] and not f["ok"] for f in findings)
        total_failures += failures
        report["benches"][name] = {"ok": not failures,
                                   "baseline_path": str(baseline_path),
                                   "findings": findings}
        print(render(findings, title=name))
        print()

    if args.update_baseline:
        return 0
    report.update(ok=not total_failures, registry=list(BENCHES),
                  selected=selected, failures=total_failures,
                  max_throughput_drop=MAX_THROUGHPUT_DROP,
                  max_p95_increase=MAX_P95_INCREASE)
    _write(results / REPORT_NAME, report)
    print(f"report -> {results / REPORT_NAME}")
    if total_failures:
        print(f"\nbench regression: {total_failures} gated metric(s) failed "
              "(if intentional, rerun with --update-baseline and commit)")
        return 1
    print("\nno bench regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
