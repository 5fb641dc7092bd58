"""CLI commands and ASCII plotting."""

import json

import pytest

from repro.cli import build_parser, main
from repro.utils.plot import ascii_line, ascii_scatter, format_si


class TestFormatSi:
    def test_millions(self):
        assert format_si(1_530_000) == "1.53M"

    def test_thousands(self):
        assert format_si(2_500) == "2.5k"

    def test_small(self):
        assert format_si(0.0875) == "87.5m"

    def test_plain(self):
        assert format_si(3.14159) == "3.14"


class TestAsciiPlots:
    def test_scatter_contains_markers_and_legend(self):
        out = ascii_scatter({"a": [(0, 0), (1, 1)], "b": [(0.5, 0.5)]},
                            width=20, height=8)
        assert "o" in out and "x" in out
        assert "o=a" in out and "x=b" in out

    def test_scatter_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_scatter({"a": []})

    def test_scatter_degenerate_single_point(self):
        out = ascii_scatter({"a": [(1.0, 1.0)]}, width=10, height=4)
        assert "o" in out

    def test_line_renders(self):
        out = ascii_line([0, 1, 2, 3, 2, 1, 0], width=20, height=6, label="bat")
        assert out.count("*") == 20
        assert "bat" in out

    def test_line_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_line([])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.fn.__name__ == "cmd_info"

    def test_search_args(self):
        args = build_parser().parse_args(
            ["search", "--task", "rte", "--deadline-ms", "200", "--episodes", "3"])
        assert args.task == "rte"
        assert args.deadline_ms == 200.0
        assert args.episodes == 3

    def test_invalid_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--task", "imagenet"])

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--scenario", "bursty", "--batch-size", "4", "--no-cache"])
        assert args.fn.__name__ == "cmd_serve"
        assert args.scenario == "bursty"
        assert args.batch_size == 4
        assert args.no_cache

    def test_serve_invalid_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scenario", "imagenet"])


class TestServeCommand:
    # fast enough for the default lane: tiny model, no training
    def test_serve_runs_and_writes_output(self, tmp_path, capsys):
        report_path = tmp_path / "serve.json"
        code = main(["serve", "--requests", "16", "--verify",
                     "--output", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max |err|" in out and "OK" in out
        report = json.loads(report_path.read_text())
        assert report["scenario"] == "steady"
        assert report["requests"] == 16
        assert report["cache_enabled"] is True
        assert report["cache"]["hits"] + report["cache"]["misses"] > 0
        assert report["max_verify_error"] < 1e-9

    def test_serve_verify_covers_decode_streams(self, tmp_path, monkeypatch):
        # --verify re-decodes every completed stream eagerly: a stream
        # whose logprobs drift fails the run
        from repro.serve.streaming import StreamingEngine

        report_path = tmp_path / "serve.json"
        args = ["serve", "--requests", "12", "--decode-streams", "3",
                "--decode-max-new-tokens", "3", "--verify",
                "--output", str(report_path)]
        assert main(args) == 0
        report = json.loads(report_path.read_text())
        assert report["decode_streams"] == 3
        assert report["max_verify_error"] < 1e-12

        emit = StreamingEngine._emit

        def drifting(engine, result):
            if hasattr(result.output, "logprobs"):
                result.output.logprobs[-1] += 1e-9
            emit(engine, result)

        monkeypatch.setattr(StreamingEngine, "_emit", drifting)
        assert main(args) == 1

    @pytest.mark.parametrize("tenants,spec", [("1", "t1=2"),
                                              ("2", "zz=2"),
                                              ("2", "t2=1")])
    def test_serve_rejects_a_weight_for_an_unknown_tenant(self, tenants,
                                                          spec):
        # a weight no request carries would still shrink every real
        # tenant's quota share, so it fails before anything is built
        with pytest.raises(SystemExit,
                           match=f"--tenant-weight spec '{spec}': no tenant"):
            main(["serve", "--requests", "8", "--tenants", tenants,
                  "--tenant-weight", spec])

    @pytest.mark.parametrize("mode", [[], ["--streaming"]],
                             ids=["offline", "streaming"])
    def test_serve_rejects_negative_decode_streams(self, mode):
        # offline, a negative count sliced the trace from the end; with
        # --streaming it reached a trace that was never built
        with pytest.raises(SystemExit, match="^--decode-streams must be at "
                                             "least 0, got -1$"):
            main(["serve", "--requests", "8", "--decode-streams", "-1",
                  *mode])

    def test_serve_no_cache_reports_flag(self, tmp_path):
        report_path = tmp_path / "serve.json"
        assert main(["serve", "--requests", "8", "--no-cache",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["cache_enabled"] is False
        assert "cache" not in report


class TestGenerateCommand:
    @pytest.mark.parametrize("flags,message", [
        (["--num-streams", "0"], "^--num-streams must be at least 1, got 0$"),
        (["--prompt", "999,1000"],
         r"^--prompt: token ids \[999, 1000\] out of range for "
         r"--vocab-size 60$"),
        (["--prompt=-1,2"], r"^--prompt: token ids \[-1\] out of range"),
        (["--prompt", "a,b"],
         "^--prompt: expected comma-separated token ids, got 'a,b'$"),
    ], ids=["no-streams", "prompt-beyond-vocab", "prompt-negative",
            "prompt-not-ids"])
    def test_generate_rejects_bad_input_naming_the_flag(self, flags,
                                                        message):
        with pytest.raises(SystemExit, match=message):
            main(["generate", *flags])

    def test_generate_runs_a_given_prompt(self, capsys):
        assert main(["generate", "--prompt", "3,7,59",
                     "--max-new-tokens", "2", "--check"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["streams"] == 1 and summary["check_exact"] is True
        assert summary["outputs"][0]["prompt_len"] == 3


@pytest.mark.slow
class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "l6" in out and "CYCLES_PER_MAC" in out

    def test_simulate_runs(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E3" in out

    def test_search_writes_outputs(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        bundle_path = tmp_path / "bundle"
        code = main([
            "search", "--task", "wikitext2", "--episodes", "1",
            "--pretrain-epochs", "1",
            "--output", str(report_path), "--bundle", str(bundle_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["task"] == "wikitext2"
        assert set(report["final_accuracies"]) == {"l3", "l4", "l6"}
        assert (bundle_path / "manifest.json").exists()

    def test_ablation_writes_rows(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        code = main([
            "ablation", "--task", "wikitext2", "--episodes", "1",
            "--pretrain-epochs", "1", "--output", str(out_path),
        ])
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 6
        assert rows[0][0] == "No-Opt"
