"""Command-line interface: ``rt3 <command>``.

Commands:

- ``rt3 info``      — DVFS table, calibration constants, paper anchors
- ``rt3 simulate``  — Table-II-style discharge comparison (E1/E2/E3)
- ``rt3 search``    — run the RT3 search on a synthetic task, optionally
  exporting a deployment bundle and a JSON report
- ``rt3 ablation``  — the Table-IV six-way ablation on a synthetic task
- ``rt3 serve``     — batched serving of a synthetic traffic scenario
  through the masked model with mask/format caching (``--decode-streams``
  converts part of the trace into continuously-batched decode streams;
  ``--faults``/``--shed-policy`` inject shard failures and pick the
  overload defense: failover, deadline-aware shedding, degradation)
- ``rt3 generate``  — token-by-token generation through the compiled
  forward plan: staggered streams join and leave a rolling batch
  (``--check`` re-runs eagerly and demands ``==`` outputs)

All commands run offline on the synthetic substrates; sizes are laptop
scale by default and adjustable via flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


# ---------------------------------------------------------------------------
# task construction shared by search/ablation
# ---------------------------------------------------------------------------

def _build_task(args):
    from repro.core.tasks import GlueTask, LMTask
    from repro.core.trainer import train_plain
    from repro.data.glue import GlueTaskConfig, SyntheticGlueTask
    from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
    from repro.hardware.workload import paper_scale_distilbert, paper_scale_transformer
    from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
    from repro.nn.transformer import TransformerConfig, TransformerLM

    if args.task == "wikitext2":
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=args.dim, num_heads=2, ffn_dim=2 * args.dim,
            max_len=16, dropout=0.0, seed=args.seed))
        corpus = SyntheticWikiText(WikiTextConfig(vocab_size=60, num_tokens=6000))
        task = LMTask(model, corpus, seq_len=12, batch_size=8,
                      max_train_batches=20, max_eval_batches=6)
        workload = paper_scale_transformer()
    else:
        data = SyntheticGlueTask(GlueTaskConfig(
            task=args.task, vocab_size=80, num_train=128, num_eval=64, seq_len=16))
        cfg = DistilBertConfig(
            vocab_size=80, dim=args.dim, num_heads=2, ffn_dim=2 * args.dim,
            num_layers=2, max_len=24, dropout=0.0,
            num_labels=max(data.num_labels, 2),
            is_regression=data.is_regression, seed=args.seed)
        task = GlueTask(DistilBertForSequenceTask(cfg), data, batch_size=16,
                        max_train_batches=8)
        workload = paper_scale_distilbert()
    train_plain(task, epochs=args.pretrain_epochs, lr=3e-3)
    return task, workload


def _rt3_config(args):
    from repro.core.block_pruning import BlockPruningConfig
    from repro.core.controller import ControllerConfig
    from repro.core.rt3 import RT3Config
    from repro.core.search_space import SearchSpaceConfig
    from repro.core.trainer import TrainConfig

    return RT3Config(
        deadline_s=args.deadline_ms / 1e3,
        episodes=args.episodes,
        min_accuracy=-1.0 if args.task == "stsb" else 0.0,
        bp=BlockPruningConfig(num_blocks=2, rate=args.bp_rate, seed=args.seed),
        space=SearchSpaceConfig(pattern_size=args.pattern_size, theta=3,
                                patterns_per_set=3, seed=args.seed),
        controller=ControllerConfig(seed=args.seed),
        episode_train=TrainConfig(epochs=1, lr=2e-3),
        finetune_train=TrainConfig(epochs=2, lr=2e-3),
        backbone_finetune_epochs=2,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    from repro.hardware import calibration
    from repro.hardware.dvfs import ODROID_XU3_LEVELS
    from repro.hardware.power import PowerModel

    pm = PowerModel()
    print("Odroid-XU3 V/F levels (paper Table I):")
    for lv in ODROID_XU3_LEVELS:
        print(f"  {lv.name}: {lv.freq_mhz:6.0f} MHz  {lv.voltage_mv:8.2f} mV  "
              f"P={pm.power_w(lv):.3f} W")
    print("\ncalibration constants:")
    for name in ("CYCLES_PER_MAC", "BATTERY_BUDGET_J", "OFFCHIP_BANDWIDTH_BPS",
                 "KAPPA_EFF_F", "LEAKAGE_W_PER_V", "SWITCH_OVERHEAD_S"):
        print(f"  {name} = {getattr(calibration, name)}")
    return 0


def cmd_simulate(args) -> int:
    from repro.hardware.energy_sim import ModeAssignment
    from repro.hardware.latency import SparsityKind
    from repro.hardware.platform import OdroidXU3
    from repro.hardware.workload import paper_scale_transformer

    plat = OdroidXU3()
    wl = paper_scale_transformer()
    sim = plat.simulator(wl)
    deadline = args.deadline_ms / 1e3
    s_bp = args.bp_sparsity

    def m1(level):
        return ModeAssignment(level, s_bp, SparsityKind.BLOCK)

    e1 = sim.single_level_campaign(m1("l6"), deadline)
    e2 = sim.run_campaign([m1("l6"), m1("l4"), m1("l3")], deadline,
                          charge_switches=False)
    lat = plat.latency
    s4 = lat.sparsity_for_deadline(wl, plat.dvfs["l4"], deadline * 0.875,
                                   SparsityKind.PATTERN)
    s3 = lat.sparsity_for_deadline(wl, plat.dvfs["l3"], deadline * 0.788,
                                   SparsityKind.PATTERN)
    e3 = sim.run_campaign(
        [ModeAssignment("l6", s_bp, SparsityKind.BLOCK, num_patterns=8),
         ModeAssignment("l4", s4, SparsityKind.PATTERN, num_patterns=8),
         ModeAssignment("l3", s3, SparsityKind.PATTERN, num_patterns=8)],
        deadline)
    print(f"E1 (no reconfig)     : {e1.total_runs:.3e} runs")
    print(f"E2 (DVFS only)       : {e2.total_runs:.3e} runs "
          f"(+{100 * (e2.total_runs / e1.total_runs - 1):.1f}%), "
          f"deadlines: {[o.meets_deadline for o in e2.outcomes]}")
    print(f"E3 (DVFS + patterns) : {e3.total_runs:.3e} runs "
          f"({e3.total_runs / e1.total_runs:.2f}x), all deadlines met: "
          f"{e3.all_deadlines_met}")
    return 0


def cmd_search(args) -> int:
    from repro.core.rt3 import RT3
    from repro.deploy import export_bundle

    task, workload = _build_task(args)
    rt3 = RT3(task, workload, _rt3_config(args))
    print(f"searching ({args.episodes} episodes, T={args.deadline_ms} ms) ...")
    result = rt3.search()

    report = {
        "task": args.task,
        "deadline_ms": args.deadline_ms,
        "original_accuracy": result.original_accuracy,
        "backbone_accuracy": result.backbone_accuracy,
        "backbone_sparsity": result.backbone_report.overall_sparsity,
        "final_accuracies": result.final_accuracies,
        "final_latencies_ms": result.final_latencies_ms,
        "total_runs": result.final_total_runs,
        "switch_ms": result.switch_ms,
        "reload_ms": result.reload_ms,
        "pareto": result.pareto_points,
    }
    print(json.dumps(report, indent=2))
    if args.bundle:
        bundle = export_bundle(rt3, result)
        path = bundle.save(args.bundle)
        print(f"deployment bundle written to {path}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    return 0


def cmd_ablation(args) -> int:
    from repro.core.ablation import AblationConfig, AblationStudy, format_ablation_table

    task, workload = _build_task(args)
    cfg = AblationConfig(rt3=_rt3_config(args), finetune_epochs=2, seed=args.seed)
    study = AblationStudy(task, workload, cfg)
    rows = study.run_all()
    print(format_ablation_table(rows))
    if args.output:
        payload = [row.as_tuple() for row in rows]
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"rows written to {args.output}")
    return 0


def _validate_serve_args(args):
    """Parse the tenancy flags into ``tenant_weights``; ``SystemExit`` on
    a malformed ``--tenant-weight`` spec or a negative ``--decode-streams``.

    Only the string parsing and the tenant names (a weight for a tenant
    no request carries still shrinks every quota share) live here — the
    weights' values are checked with every other knob by
    ``ServeConfig``.  Returns ``None`` when single-tenant.
    """
    if args.decode_streams < 0:
        raise SystemExit(
            f"--decode-streams must be at least 0, got {args.decode_streams}")
    if args.tenants < 1:
        raise SystemExit(f"--tenants must be at least 1, got {args.tenants}")
    tenants = [f"t{i}" for i in range(args.tenants)]
    weights = {}
    for spec in args.tenant_weight or []:
        name, sep, txt = spec.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"bad --tenant-weight spec {spec!r} (expected name=weight)")
        if name not in tenants:
            raise SystemExit(f"bad --tenant-weight spec {spec!r}: no tenant "
                             f"{name!r} among t0..{tenants[-1]}")
        try:
            weights[name] = float(txt)
        except ValueError:
            raise SystemExit(
                f"bad --tenant-weight spec {spec!r}: {txt!r} is not a "
                "number") from None
    if args.tenants > 1 or weights:
        # every stamped tenant participates (weight 1 unless overridden),
        # so --tenants 2 alone already means equal fair shares
        tenant_weights = dict.fromkeys(tenants, 1.0)
        tenant_weights.update(weights)
        return tenant_weights
    return None


# the flag each config field is set from, to name it when a value is rejected
_SERVE_FLAGS = {
    "max_batch": "--batch-size", "window_s": "--window-ms",
    "devices": "--devices", "fairness_window": "--fairness-window",
    "adaptive_low_threshold": "--adaptive-low-threshold",
    "decode.max_new_tokens": "--decode-max-new-tokens",
    "decode.top_k": "--decode-top-k",
    "decode.temperature": "--decode-temperature",
    "faults": "--faults", "max_queue": "--max-queue",
    "probe_backoff_s": "--probe-backoff-ms",
    "cancel_after_s": "--cancel-after", "tenant_weights": "--tenant-weight",
    "cache_budget_bytes": "--cache-budget-kb", "num_requests": "--requests",
}
_GENERATE_FLAGS = {"max_new_tokens": "--max-new-tokens", "top_k": "--top-k",
                   "temperature": "--temperature"}


def _bad_flag(exc, flags) -> SystemExit:
    """A one-line exit naming the flag a rejected config value came from."""
    flag = flags.get(getattr(exc, "field", None))
    return SystemExit(f"{flag}: {exc}" if flag else str(exc))


def cmd_serve(args) -> int:
    import dataclasses

    from repro.serve import (
        DecodeOptions,
        FaultPlan,
        ScenarioConfig,
        ServeEngine,
        StackConfig,
        assign_tenants,
        build_scenario,
        build_serving_stack,
        flaky_fault_overlay,
        stream_scenario,
    )
    from repro.serve.invariants import check_exact, check_run

    tenant_weights = _validate_serve_args(args)
    try:
        scenario_cfg = ScenarioConfig(
            num_requests=args.requests, vocab_size=args.vocab_size,
            seq_len=args.seq_len, max_len=args.max_len, seed=args.seed)
        faults = (FaultPlan.parse(args.faults)
                  if args.faults and args.faults != "flaky" else None)
        cfg = StackConfig(
            dim=args.dim, vocab_size=args.vocab_size, seq_len=args.seq_len,
            max_len=args.max_len, pattern_size=args.pattern_size,
            seed=args.seed, max_batch=args.batch_size,
            window_s=args.window_ms / 1e3, use_cache=not args.no_cache,
            cache_budget_bytes=args.cache_budget_kb * 1024,
            devices=args.devices, policy=args.policy,
            time_sliced=not args.no_time_slice,
            drain_policy=args.drain_policy,
            fairness_window=args.fairness_window,
            adaptive_low_threshold=args.adaptive_low_threshold,
            decode=DecodeOptions(
                max_new_tokens=args.decode_max_new_tokens,
                top_k=args.decode_top_k,
                temperature=args.decode_temperature, seed=args.decode_seed,
                eos_id=args.decode_eos_id),
            faults=faults, shed_policy=args.shed_policy,
            max_queue=args.max_queue,
            probe_backoff_s=args.probe_backoff_ms / 1e3,
            preempt_policy=args.preempt_policy,
            cancel_after_s=(args.cancel_after / 1e3
                            if args.cancel_after is not None else None),
            tenant_weights=tenant_weights)
    except ValueError as exc:
        raise _bad_flag(exc, _SERVE_FLAGS) from None
    # the stack is built offline; sessions are handed out below via
    # engine.streaming()
    _, workload, engine = build_serving_stack(cfg)
    trace = None
    if (args.faults or args.decode_streams > 0 or not args.streaming
            or args.tenants > 1):
        trace = build_scenario(args.scenario, workload, scenario_cfg)
    if args.tenants > 1:
        # deterministic round-robin overlay: request i -> tenant t{i % N}
        assign_tenants(trace, args.tenants)
    if args.faults == "flaky":
        # the seeded overlay spans the trace, so it joins the config only
        # once the trace is materialized
        horizon = max((r.arrival_s for r in trace), default=0.0) or 1.0
        cfg = dataclasses.replace(cfg, faults=flaky_fault_overlay(
            args.devices, horizon, seed=args.fault_seed))
        engine = ServeEngine(engine.model, engine.adapter, cfg,
                             cache=engine.cache)
    if args.streaming and args.decode_streams == 0:
        # online path: the arrival stream is fed through the event loop
        # one request at a time (StreamingEngine.play owns the feeding
        # discipline), forming micro-batches at admission time; lazy
        # unless the flaky overlay already forced materialization
        core = engine.streaming()
        released = core.play(trace if trace is not None
                             else stream_scenario(args.scenario, workload,
                                                  scenario_cfg))
    else:
        # offline: submit the whole trace, then drain.  With mixed
        # traffic the first N arrivals become continuously-batched
        # decode streams (prompt continued token-by-token on the shard's
        # decode lane); the rest stay one-shot batch requests
        ordered = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        decode_ids = {r.req_id for r in ordered[:args.decode_streams]}
        core = engine.streaming()
        for req in ordered:
            if req.req_id in decode_ids:
                core.submit_decode(req)
            else:
                core.submit(req)
        released = core.drain()
    report = core.report()
    check_run(core, released)
    summary = {"scenario": args.scenario, "batch_size": args.batch_size,
               "cache_enabled": not args.no_cache,
               "streaming": args.streaming, **report.summary()}
    mismatch = None
    if args.verify:
        try:
            summary["max_verify_error"] = check_exact(core)
        except AssertionError as exc:
            mismatch = str(exc)
    print(json.dumps(summary, indent=2))
    if args.output:
        # written before the verify verdict so a mismatch still leaves
        # the diagnostic report behind
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"report written to {args.output}")
    if mismatch is not None:
        print(f"outputs vs eager recomputation: MISMATCH: {mismatch}")
        return 1
    if args.verify:
        print(f"batched outputs vs per-request: max |err| = "
              f"{summary['max_verify_error']:.3e} (OK)")
    return 0


def _run_decode_schedule(model, prompts, cfg, *, compiled):
    """Staggered continuous-batching schedule: one stream joins per step."""
    from repro.nn.generation import DecodeSession

    session = DecodeSession(model, cfg, compiled=compiled)
    sids = [session.submit_prompt(prompts[0])]
    queue = list(prompts[1:])
    steps = 0
    while queue or not session.finished():
        if not session.finished():
            session.step()
            steps += 1
        if queue:
            sids.append(session.submit_prompt(queue.pop(0)))
    return [session.result(sid) for sid in sids], steps


def _parse_prompt(args) -> List[int]:
    """The ``--prompt`` token ids; ``SystemExit`` naming the flag on an id
    that is not an integer or lies outside ``--vocab-size``."""
    try:
        tokens = [int(tok) for tok in args.prompt.split(",")]
    except ValueError:
        raise SystemExit(f"--prompt: expected comma-separated token ids, "
                         f"got {args.prompt!r}") from None
    bad = [tok for tok in tokens if not 0 <= tok < args.vocab_size]
    if bad:
        raise SystemExit(f"--prompt: token ids {bad} out of range for "
                         f"--vocab-size {args.vocab_size}")
    return tokens


def cmd_generate(args) -> int:
    import time

    import numpy as np

    from repro.nn.generation import GenerationConfig
    from repro.serve import StackConfig, build_serving_stack

    if args.num_streams < 1:
        raise SystemExit(
            f"--num-streams must be at least 1, got {args.num_streams}")
    prompt = _parse_prompt(args) if args.prompt else None
    try:
        cfg = GenerationConfig(
            max_new_tokens=args.max_new_tokens, top_k=args.top_k,
            temperature=args.temperature, seed=args.sample_seed,
            eos_id=args.eos_id).validate()
    except ValueError as exc:
        raise _bad_flag(exc, _GENERATE_FLAGS) from None
    model, _, _ = build_serving_stack(StackConfig(
        dim=args.dim, vocab_size=args.vocab_size, max_len=args.max_len,
        pattern_size=args.pattern_size, seed=args.seed))
    rng = np.random.default_rng(args.seed)
    if prompt is not None:
        prompts = [prompt]
    else:
        prompts = [rng.integers(0, args.vocab_size,
                                size=int(rng.integers(2, args.max_len))).tolist()
                   for _ in range(args.num_streams)]

    start = time.perf_counter()
    results, steps = _run_decode_schedule(model, prompts, cfg, compiled=True)
    wall = time.perf_counter() - start
    new_tokens = sum(len(r.generated) for r in results)

    summary = {
        "streams": len(results),
        "steps": steps,
        "new_tokens": new_tokens,
        "wall_ms": round(wall * 1e3, 3),
        "tokens_per_s": round(new_tokens / wall, 1) if wall > 0 else None,
        "outputs": [{"prompt_len": len(p),
                     "generated": [int(t) for t in r.generated]}
                    for p, r in zip(prompts, results)],
    }
    if args.check:
        ref, _ = _run_decode_schedule(model, prompts, cfg, compiled=False)
        exact = all(
            np.array_equal(a.tokens, b.tokens)
            and list(a.logprobs) == list(b.logprobs)
            for a, b in zip(results, ref))
        summary["check_exact"] = exact
    print(json.dumps(summary, indent=2))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"report written to {args.output}")
    if args.check and not summary["check_exact"]:
        print("compiled decode does not match eager generation", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_task_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", default="wikitext2",
                   choices=["wikitext2", "rte", "stsb", "sst2", "cola", "mrpc",
                            "qqp", "mnli", "qnli", "wnli"])
    p.add_argument("--deadline-ms", type=float, default=104.0)
    p.add_argument("--episodes", type=int, default=6)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--bp-rate", type=float, default=0.3)
    p.add_argument("--pattern-size", type=int, default=8)
    p.add_argument("--pretrain-epochs", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rt3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="DVFS table and calibration").set_defaults(fn=cmd_info)

    p_sim = sub.add_parser("simulate", help="E1/E2/E3 discharge comparison")
    p_sim.add_argument("--deadline-ms", type=float, default=115.0)
    p_sim.add_argument("--bp-sparsity", type=float, default=0.6426)
    p_sim.set_defaults(fn=cmd_simulate)

    p_search = sub.add_parser("search", help="run the RT3 search")
    _add_task_args(p_search)
    p_search.add_argument("--bundle", help="export a deployment bundle here")
    p_search.set_defaults(fn=cmd_search)

    p_abl = sub.add_parser("ablation", help="Table IV six-way ablation")
    _add_task_args(p_abl)
    p_abl.set_defaults(fn=cmd_ablation)

    p_serve = sub.add_parser("serve", help="batched serving of a traffic scenario")
    p_serve.add_argument("--scenario", default="steady",
                         choices=["steady", "bursty", "battery", "bandwidth"])
    p_serve.add_argument("--requests", type=int, default=96)
    p_serve.add_argument("--batch-size", type=int, default=8)
    p_serve.add_argument("--devices", type=int, default=1,
                         help="number of simulated device shards")
    p_serve.add_argument("--policy", default="round-robin",
                         choices=["round-robin", "least-loaded", "switch-aware"],
                         help="batch dispatch policy across shards "
                              "(switch-aware charges a placement for the "
                              "pattern swap it would trigger)")
    p_serve.add_argument("--drain-policy", default="fifo",
                         choices=["fifo", "level-affinity", "adaptive"],
                         help="per-shard queue drain order: global flush "
                              "order, one V/F level run-to-run, or adaptive "
                              "(each shard flips itself to level-affinity "
                              "when its observed switch rate crosses a "
                              "threshold)")
    p_serve.add_argument("--adaptive-low-threshold", type=float, default=None,
                         help="adaptive drain hysteresis band: flip a shard "
                              "back to fifo once its post-flip switch rate "
                              "over a full window falls to this value "
                              "(default: one-way flip)")
    p_serve.add_argument("--decode-streams", type=int, default=0,
                         help="serve the first N arrivals as decode streams: "
                              "each prompt is continued token-by-token on "
                              "its shard's continuously-batched decode lane")
    p_serve.add_argument("--decode-max-new-tokens", type=int, default=8,
                         help="token budget per decode stream")
    p_serve.add_argument("--decode-top-k", type=int, default=None,
                         help="decode sampling: top-k (default greedy)")
    p_serve.add_argument("--decode-temperature", type=float, default=1.0,
                         help="decode sampling temperature")
    p_serve.add_argument("--decode-seed", type=int, default=None,
                         help="decode sampling seed (per-stream RNG)")
    p_serve.add_argument("--decode-eos-id", type=int, default=None,
                         help="token id ending a decode stream early")
    p_serve.add_argument("--faults", default=None,
                         help="fault schedule: 'flaky' for the seeded "
                              "random overlay, or a spec like "
                              "'crash:1@0.2+0.3,slow:2@0.1+0.2x3' "
                              "(kind:shard@at[+duration][xfactor], times "
                              "in simulated seconds)")
    p_serve.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the 'flaky' fault overlay")
    p_serve.add_argument("--shed-policy", default="none",
                         choices=["none", "reject", "degrade"],
                         help="admission overload defense: reject sheds "
                              "requests whose estimated completion misses "
                              "the SLO; degrade first retries sparser "
                              "feasible patterns before shedding")
    p_serve.add_argument("--max-queue", type=int, default=None,
                         help="bounded admission queue: shed arrivals once "
                              "this many requests/batches are waiting")
    p_serve.add_argument("--probe-backoff-ms", type=float, default=5.0,
                         help="first re-probe interval for a downed shard "
                              "(doubles per missed probe)")
    p_serve.add_argument("--preempt-policy", default="off",
                         choices=["off", "queued", "running"],
                         help="deadline-driven preemption: queued lets a "
                              "tight-deadline admission pull a looser-"
                              "deadline batch back off its shard's queue; "
                              "running additionally retracts the in-flight "
                              "batch (charged like a pattern switch; "
                              "completed outputs stay bit-identical)")
    p_serve.add_argument("--cancel-after", type=float, default=None,
                         metavar="MS",
                         help="client timeout: cancel any request still "
                              "unfinished this many ms after its arrival "
                              "(a new terminal state; conservation becomes "
                              "completed + shed + cancelled == submitted)")
    p_serve.add_argument("--tenants", type=int, default=1,
                         help="stamp the trace with N round-robin tenant "
                              "ids (t0..tN-1) and enable weighted fair "
                              "admission shares of --max-queue")
    p_serve.add_argument("--tenant-weight", action="append", default=None,
                         metavar="NAME=W",
                         help="override one tenant's fair-share weight "
                              "(repeatable; unlisted tenants weigh 1)")
    p_serve.add_argument("--streaming", action="store_true",
                         help="feed the scenario arrival-by-arrival through "
                              "the online submit/tick/drain event loop "
                              "instead of serving the materialized trace")
    p_serve.add_argument("--fairness-window", type=int, default=4,
                         help="level-affinity: max consecutive batches from "
                              "one level while another level waits")
    p_serve.add_argument("--no-time-slice", action="store_true",
                         help="charge every batch member the full batch "
                              "service time (pre-sharding completion model)")
    p_serve.add_argument("--window-ms", type=float, default=50.0,
                         help="micro-batching window: max time a partial "
                              "micro-batch waits for compatible arrivals")
    p_serve.add_argument("--dim", type=int, default=32)
    p_serve.add_argument("--vocab-size", type=int, default=60)
    p_serve.add_argument("--seq-len", type=int, default=12)
    p_serve.add_argument("--max-len", type=int, default=16)
    p_serve.add_argument("--pattern-size", type=int, default=8)
    p_serve.add_argument("--cache-budget-kb", type=float, default=8192.0,
                         help="artifact-cache byte budget (size-aware LRU)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the mask/format artifact cache")
    p_serve.add_argument("--verify", action="store_true",
                         help="after the run, recompute every completed "
                              "output eagerly (batches, solo requests and "
                              "decode streams) and fail on a mismatch")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--output", help="write the JSON summary here")
    p_serve.set_defaults(fn=cmd_serve)

    p_gen = sub.add_parser(
        "generate", help="continuous-batching generation demo")
    p_gen.add_argument("--prompt", default=None,
                       help="comma-separated token ids for a single stream "
                            "(default: --num-streams random prompts)")
    p_gen.add_argument("--num-streams", type=int, default=4,
                       help="random decode streams joining one per step "
                            "(continuous batching: ragged joins/leaves)")
    p_gen.add_argument("--max-new-tokens", type=int, default=12)
    p_gen.add_argument("--top-k", type=int, default=None,
                       help="top-k sampling (default greedy argmax)")
    p_gen.add_argument("--temperature", type=float, default=1.0)
    p_gen.add_argument("--sample-seed", type=int, default=None,
                       help="per-stream sampling RNG seed")
    p_gen.add_argument("--eos-id", type=int, default=None,
                       help="token id that ends a stream early")
    p_gen.add_argument("--check", action="store_true",
                       help="re-run the same schedule eagerly and require "
                            "bit-identical tokens and logprobs")
    p_gen.add_argument("--dim", type=int, default=32)
    p_gen.add_argument("--vocab-size", type=int, default=60)
    p_gen.add_argument("--max-len", type=int, default=16)
    p_gen.add_argument("--pattern-size", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=0,
                       help="model weights + prompt RNG seed")
    p_gen.add_argument("--output", help="write the JSON summary here")
    p_gen.set_defaults(fn=cmd_generate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
