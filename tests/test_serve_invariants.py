"""The run checkers themselves: each identity fails on hand-broken state.

Every test that builds an engine already runs ``check_run`` at teardown
(the ``checked_runs`` fixture), so these tests break one identity at a
time, check that the checker names it, and put the state back.
"""

import numpy as np
import pytest

from repro.nn.generation import GenerationConfig
from repro.serve import InferenceRequest, StackConfig, build_serving_stack
from repro.serve.faults import CancelRecord
from repro.serve.invariants import check_exact, check_run


def served(**knobs):
    """A drained session over 24 requests, 8 in a burst at t=0."""
    _, _, engine = build_serving_stack(StackConfig(streaming=True, **knobs))
    for rid in range(24):
        engine.submit(InferenceRequest(
            rid, np.random.default_rng(rid).integers(1, 60, size=6 + rid % 5),
            arrival_s=1e-3 * (rid // 8), deadline_s=10.0, level_name="l6"))
    engine.drain()
    return engine


def drop_shed_record(engine):
    record = engine._shed.pop()
    return lambda: engine._shed.append(record)


def complete_before_arrival(engine):
    result = engine._results[-1]
    completion = result.completion_s
    result.completion_s = result.request.arrival_s - 1e-3
    return lambda: setattr(result, "completion_s", completion)


def overcount_requests(engine):
    engine.shards[0].stats.requests += 1
    return lambda: setattr(engine.shards[0].stats, "requests",
                           engine.shards[0].stats.requests - 1)


def cancel_a_completed_request(engine):
    engine._cancelled.append(CancelRecord(engine._results[0].request, 0.0,
                                          "inflight"))
    return engine._cancelled.pop


def complete_after_the_shard(engine):
    stats = engine.shards[0].stats
    last = stats.last_completion_s
    stats.last_completion_s = last - 1e-3
    return lambda: setattr(stats, "last_completion_s", last)


@pytest.mark.parametrize("breaker,message", [
    (drop_shed_record, "!= 24 submitted"),
    (complete_before_arrival, "before its arrival"),
    (overcount_requests, "batch results"),
    (cancel_a_completed_request, "two terminal records"),
    (complete_after_the_shard, "after its last completion"),
])
def test_check_run_names_the_broken_identity(breaker, message):
    engine = served(max_queue=1)
    assert engine.report().num_shed > 0
    check_run(engine)
    restore = breaker(engine)
    with pytest.raises(AssertionError, match=message):
        check_run(engine)
    restore()
    check_run(engine)


def test_check_run_holds_released_completions_to_the_results():
    _, _, engine = build_serving_stack(StackConfig(streaming=True))
    released = engine.play([InferenceRequest(rid, [1, 2, 3 + rid],
                                             arrival_s=1e-3 * rid)
                            for rid in range(6)])
    check_run(engine, released)
    with pytest.raises(AssertionError,
                       match="released 5 completions for 6 results"):
        check_run(engine, released[1:])
    with pytest.raises(AssertionError,
                       match="released 7 completions for 6 results"):
        check_run(engine, released + released[:1])


def test_check_run_allows_work_still_in_flight():
    _, _, engine = build_serving_stack(StackConfig(streaming=True))
    engine.submit(InferenceRequest(0, [1, 2, 3], arrival_s=0.0))
    engine.submit(InferenceRequest(1, [4, 5], arrival_s=1.0))
    engine.tick(0.5)
    check_run(engine)  # one terminal, one still to arrive


def test_check_exact_moves_no_counter():
    engine = served()
    cache = engine.cache.stats.as_dict()
    compiles = engine._plan.compiles
    tokens = [layer.cache_token
              for layer in engine.adapter.manager.layers.values()]
    assert check_exact(engine) <= 1e-12
    assert engine.cache.stats.as_dict() == cache
    assert engine._plan.compiles == compiles
    assert [layer.cache_token
            for layer in engine.adapter.manager.layers.values()] == tokens


def test_check_exact_catches_a_perturbed_output():
    engine = served()
    engine._results[3].output[0, 0] += 1e-9
    with pytest.raises(AssertionError, match="request 3 differs"):
        check_exact(engine)


def test_check_exact_catches_a_result_off_its_feasible_rung():
    engine = served()
    result = engine._results[3]
    other = next(s for s in engine.ladder if s != result.sparsity)
    result.sparsity = other
    with pytest.raises(AssertionError, match="request 3 ran at rung"):
        check_exact(engine)


def test_check_exact_catches_a_perturbed_decode_stream():
    cfg = GenerationConfig(max_new_tokens=3)
    _, _, engine = build_serving_stack(StackConfig(streaming=True))
    engine.submit_decode(InferenceRequest(0, [5, 6, 7], arrival_s=0.0),
                         config=cfg)
    engine.drain()
    check_exact(engine, decode_config=cfg)
    engine._results[0].output.logprobs[-1] += 1e-12
    with pytest.raises(AssertionError, match="eager re-decode"):
        check_exact(engine, decode_config=cfg)


def test_check_exact_compares_against_the_reference():
    engine = served()
    other_seed = build_serving_stack(StackConfig(streaming=True, seed=1))[2]
    with pytest.raises(AssertionError, match="clean serve"):
        check_exact(engine, reference=other_seed)
