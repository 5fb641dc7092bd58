"""In-memory span tracer that wraps each layer's public entry points.

The benchmark does not modify the program: :class:`Tracer` replaces a
handful of public methods with thin wrappers while a traced round runs
and restores them afterwards.  Every wrapped call records one span
``(id, parent, name, start_ns, end_ns, self_ns, note)``; a span's self
time is its duration minus the time of the spans nested inside it (the
loop is single-threaded, so nesting is a plain stack).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

import repro.serve.streaming as streaming_mod
from repro.core.patterns import MaskManager
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.latency import LatencyModel
from repro.nn.generation import DecodeSession
from repro.nn.inference import CompiledForward
from repro.serve.batcher import AdmissionQueue
from repro.serve.sharding import Dispatcher
from repro.serve.streaming import StreamingEngine

LOOP = "serve.streaming"


def _note_submit(args, result):
    return {"req_id": args[1].req_id}


def _note_padded(args, result):
    lengths = [r.length for r in args[1]]
    return {"batch": len(lengths), "real": sum(lengths),
            "slots": len(lengths) * max(lengths), "first_req": args[1][0].req_id}


def _note_step(args, result):
    return {"tokens": len(result)}


def _note_route(args, result):
    return {"batch_id": args[1].seq, "shard": result.shard_id}


# (owner, attribute, span name, note): the public calls each layer is
# entered through.  ``run_padded`` is patched where the loop looks it up.
TARGETS = [
    (StreamingEngine, "submit", LOOP, _note_submit),
    (StreamingEngine, "submit_decode", LOOP, _note_submit),
    (StreamingEngine, "tick", LOOP, None),
    (StreamingEngine, "drain", LOOP, None),
    (AdmissionQueue, "add", "serve.batcher.admit", None),
    (streaming_mod, "run_padded", "serve.batcher.run_padded", _note_padded),
    (MaskManager, "apply", "core.patterns.apply", None),
    (CompiledForward, "__call__", "nn.inference.forward", None),
    (DecodeSession, "step", "nn.generation.step", _note_step),
    (RuntimeAdapter, "plan", "core.runtime_policy.plan", None),
    (Dispatcher, "route", "serve.sharding.route", _note_route),
    (LatencyModel, "batch_completion_offsets_s", "hardware.latency.offsets",
     None),
]


class Tracer:
    """Collects spans while installed; ``plans`` lists every forward plan
    constructed meanwhile (their ``compiles`` counters are read later)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.plans: List[CompiledForward] = []
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: List[tuple] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, note in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))
        init = CompiledForward.__init__
        self._saved.append((CompiledForward, "__init__", init))
        plans = self.plans

        def register(plan, *args, **kwargs):
            init(plan, *args, **kwargs)
            plans.append(plan)

        CompiledForward.__init__ = register

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.plans = []

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        forward = name == "nn.inference.forward"

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1][0] if stack else -1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            before = args[0].compiles if forward else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
            info = note(args, result) if note is not None else None
            if forward and args[0].compiles != before:
                info = {"recompiled": True}
            spans.append((sid, parent, name, start, end, dur - frame[1], info))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_stats(spans: List[tuple]) -> Dict[str, dict]:
    """Per span name: calls, total and self ms, per-call ms samples."""
    out: Dict[str, dict] = {}
    for _, _, name, start, end, self_ns, info in spans:
        s = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                  "recompile_ms": 0.0, "per_call": [],
                                  "notes": []})
        ms = (end - start) / 1e6
        s["calls"] += 1
        s["ms"] += ms
        s["self_ms"] += self_ns / 1e6
        s["per_call"].append(ms)
        if info is not None:
            s["notes"].append(info)
            if info.get("recompiled"):
                s["recompile_ms"] += ms
    return out


def chrome_trace(spans: List[tuple], path: str, meta: Optional[dict] = None
                 ) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto)."""
    if not spans:
        return
    origin = min(s[3] for s in spans)
    events = []
    for sid, parent, name, start, end, self_ns, info in spans:
        args = {"id": sid, "parent": parent, "self_us": self_ns / 1e3}
        if info:
            args.update(info)
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": (start - origin) / 1e3,
                       "dur": (end - start) / 1e3, "pid": 1, "tid": 1,
                       "args": args})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta or {}}, fh)
