"""What a correct serving run is, checked in one place.

Every run of :class:`~repro.serve.streaming.StreamingEngine` promises

- **conservation** — each submitted request ends in exactly one terminal
  record (a result, a :class:`~repro.serve.faults.ShedRecord` or a
  :class:`~repro.serve.faults.CancelRecord`), so once the loop drained
  ``completed + shed + cancelled == submitted``;
- **exactness** — every completed output is what the eager Tensor path
  computes for it, whatever reconfiguration, batching, failover,
  preemption or cancellation happened on the way.

:func:`check_run` pins the structural identities behind conservation
and is cheap: the test suite runs it on every engine a test builds, and
the benches and ``rt3 serve`` run it after serving.  :func:`check_exact`
recomputes outputs eagerly, on a private copy of the model, so it moves
no counter a report shows (cache statistics, plan compiles); ``rt3
serve --verify``, the benches and the tests call it.  Both raise
``AssertionError`` naming the first broken identity.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.core.patterns import MaskManager
from repro.nn.generation import DecodeSession, GenerationConfig, GenerationResult
from repro.serve.batcher import RequestResult, run_padded
from repro.serve.streaming import StreamingEngine

__all__ = ["SOLO_TOLERANCE", "check_exact", "check_run"]

# how far a batched output may sit from the same request served alone: a
# padded mixed-length batch reduces over its rows in another order than
# a solo forward, so the two agree to float64 round-off, not bit for bit
SOLO_TOLERANCE = 1e-12


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _is_decode(result: RequestResult) -> bool:
    return isinstance(result.output, GenerationResult)


def _same_output(got, want) -> bool:
    if isinstance(got, GenerationResult):
        return (isinstance(want, GenerationResult)
                and np.array_equal(got.tokens, want.tokens)
                and got.logprobs == want.logprobs)
    return np.array_equal(got, want)


def check_run(engine: StreamingEngine,
              released: Optional[Sequence[RequestResult]] = None) -> None:
    """Check the accounting identities of ``engine``'s run so far.

    - no request id appears twice among the result, shed and cancel
      records;
    - given ``released`` (all the loop handed back), each result was
      released exactly once;
    - once the loop drained (no pending event, nothing parked) the
      report is conserved, and before that no more requests are
      terminal than were submitted;
    - no request completes before it arrived;
    - each shard's ``stats.requests`` equals its standing batch results,
      its ``stats.decode_streams`` its decode results, and none of them
      completes after its ``last_completion_s``.
    """
    report = engine.report()
    ids = ([r.request.req_id for r in report.results]
           + [rec.request.req_id for rec in report.shed]
           + [rec.request.req_id for rec in report.cancelled])
    _expect(len(ids) == len(set(ids)),
            f"a request has two terminal records: "
            f"{sorted(i for i in set(ids) if ids.count(i) > 1)}")
    if released is not None:
        _expect(sorted(r.request.req_id for r in released)
                == sorted(ids[:report.completed]),
                f"the loop released {len(released)} completions for "
                f"{report.completed} results")
    if engine.next_event_s() is None and not engine.parked:
        _expect(report.conserved,
                f"{report.completed} completed + {report.num_shed} shed + "
                f"{report.num_cancelled} cancelled != {report.submitted} "
                f"submitted")
    else:
        _expect(len(ids) <= report.submitted,
                f"{len(ids)} terminal records for {report.submitted} "
                f"submissions")
    for r in report.results:
        _expect(r.completion_s >= r.request.arrival_s,
                f"request {r.request.req_id} completes at {r.completion_s} "
                f"before its arrival at {r.request.arrival_s}")
    for stats in report.shard_stats:
        mine = [r for r in report.results if r.shard_id == stats.shard_id]
        streams = sum(1 for r in mine if _is_decode(r))
        _expect(stats.requests == len(mine) - streams,
                f"shard {stats.shard_id} counts {stats.requests} requests "
                f"but holds {len(mine) - streams} batch results")
        _expect(stats.decode_streams == streams,
                f"shard {stats.shard_id} counts {stats.decode_streams} "
                f"decode streams but holds {streams} decode results")
        late = [r.request.req_id for r in mine
                if r.completion_s > stats.last_completion_s]
        _expect(not late,
                f"shard {stats.shard_id} results {late} complete after its "
                f"last completion {stats.last_completion_s}")


def check_exact(engine: StreamingEngine, *,
                reference: Optional[StreamingEngine] = None,
                decode_config: Optional[GenerationConfig] = None) -> float:
    """Recompute every completed output of ``engine`` eagerly.

    Every result whose deadline resolves to a feasible rung ran at that
    rung, whatever its batch or device (an infeasible deadline keeps the
    device's installed rung).  Then, under the pattern set each result
    ran with:

    - a batch output whose whole batch completed is ``==`` the eager
      forward of that padded batch (members in execution order);
    - every batch output is within :data:`SOLO_TOLERANCE` of the eager
      forward of its request alone;
    - a decode stream's tokens and log-probabilities are ``==`` an
      uncompiled :class:`~repro.nn.generation.DecodeSession` re-decode
      of its prompt under ``decode_config`` (default: the engine's
      decode options).

    ``reference`` is a fresh session of a clean stack (same seed, none of
    the faults, shedding, preemption or cancels under test): the
    surviving requests are served through it, decode streams as decode
    streams, and every output must be ``==`` its clean counterpart.

    Returns the worst batch-vs-solo deviation.
    """
    decode_config = decode_config or engine.decode_options.generation_config()
    # emission order keeps each batch's members in their padded row order
    results = [r for r in engine._results if not r.canceled]
    for r in results:
        rung = engine._compat_key(r.request)[1]
        _expect(rung is None or r.sparsity == rung,
                f"request {r.request.req_id} ran at rung {r.sparsity}, not "
                f"at its feasible rung {rung}")
    model, manager = _eager_copy(engine)
    by_rung: dict = {}
    for r in results:
        by_rung.setdefault(r.sparsity, []).append(r)
    worst = 0.0
    for sparsity, rung in by_rung.items():
        if manager is not None:
            manager.apply(engine.ladder[sparsity])
        streams = [r for r in rung if _is_decode(r)]
        if streams:
            session = DecodeSession(model, decode_config, compiled=False)
            sids = [session.submit_prompt(r.request.tokens) for r in streams]
            session.run()
            for r, sid in zip(streams, sids):
                _expect(_same_output(r.output, session.result(sid)),
                        f"decode request {r.request.req_id} differs from "
                        f"its eager re-decode")
        batches: dict = {}
        for r in rung:
            if not _is_decode(r):
                batches.setdefault(r.batch_id, []).append(r)
        for members in batches.values():
            if len(members) == members[0].batch_size:
                eager = run_padded(model, [m.request for m in members])
                for m, want in zip(members, eager):
                    _expect(np.array_equal(m.output, want),
                            f"request {m.request.req_id} differs from the "
                            f"eager forward of its padded batch "
                            f"{m.batch_id}")
            for m in members:
                solo = run_padded(model, [m.request])[0]
                err = float(np.abs(m.output - solo).max())
                _expect(err <= SOLO_TOLERANCE,
                        f"request {m.request.req_id} is {err:.3g} away from "
                        f"its eager solo forward")
                worst = max(worst, err)
    if reference is not None:
        _check_reference(results, reference, decode_config)
    return worst


def _eager_copy(engine: StreamingEngine):
    """A private copy of the engine's model, with a cache-free mask
    manager over the same backbone masks when the engine has one.

    Installs on the copy derive masks afresh (the same bits: the
    artifact cache is exact), so neither the cache's statistics nor the
    engine's installed masks and plan move.
    """
    model = copy.deepcopy(engine.model)
    manager = engine.adapter.manager
    if manager is None:
        return model, None
    return model, MaskManager(model, manager.backbone_masks)


def _check_reference(results, reference: StreamingEngine,
                     decode_config: GenerationConfig) -> None:
    """Serve the survivors through ``reference``; outputs must match."""
    # copies, so the reference run cannot restamp the engine's requests
    for r in sorted(results,
                    key=lambda r: (r.request.arrival_s, r.request.req_id)):
        if _is_decode(r):
            reference.submit_decode(replace(r.request), config=decode_config)
        else:
            reference.submit(replace(r.request))
    reference.drain()
    want = {w.request.req_id: w.output for w in reference.report().results}
    _expect(set(want) == {r.request.req_id for r in results},
            "the clean serve of the survivors completed a different set")
    for r in results:
        _expect(_same_output(r.output, want[r.request.req_id]),
                f"request {r.request.req_id} differs from its clean serve")
