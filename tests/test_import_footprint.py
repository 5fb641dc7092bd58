"""Serving loads no scipy: only STS-B's Spearman metric imports it.

Both checks run in a fresh interpreter, since this test process may
already hold scipy (``tests/test_metrics.py`` imports it), and a module
already in ``sys.modules`` would hide an import made by the serving path.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_serving_imports_load_no_scipy():
    proc = run_python("""
        import sys
        import repro.serve, repro.cli
        loaded = sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
        print(len(loaded), loaded[:5])
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0 "), proc.stdout


def test_serving_and_decode_run_with_scipy_blocked():
    proc = run_python("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises

        from repro.nn.generation import GenerationConfig
        from repro.serve import InferenceRequest, StackConfig, build_serving_stack
        from repro.serve.invariants import check_exact, check_run
        from repro.serve.scenarios import ScenarioConfig, build_scenario

        _, workload, engine = build_serving_stack(StackConfig(streaming=True))
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=12, seed=1))
        results = engine.play(trace)
        assert len(results) == 12, len(results)
        check_run(engine)
        check_exact(engine)

        cfg = GenerationConfig(max_new_tokens=4)
        _, _, engine = build_serving_stack(StackConfig(streaming=True))
        for rid, prompt in enumerate(([5, 6, 7], [9, 3, 4, 8, 2])):
            engine.submit_decode(InferenceRequest(rid, prompt, arrival_s=0.0),
                                 config=cfg)
        results = engine.drain()
        assert len(results) == 2, len(results)
        check_run(engine)
        check_exact(engine, decode_config=cfg)
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok", proc.stdout
