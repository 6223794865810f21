"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "FB"
        assert args.placement == "octopus"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "nope"])


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig06", "table03", "fig14", "overheads"):
            assert name in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--workload",
                "FB",
                "--scale",
                "0.05",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--workers",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out
        assert "jobs finished" in out

    def test_synthesize_writes_json(self, tmp_path, capsys):
        # Traces are written as JSONL only; other suffixes are rejected
        # before anything is synthesized or written.
        from repro.workload.external import ExternalTraceStream
        from repro.workload.jobs import TraceJob

        args = ["synthesize", "--workload", "CMU", "--scale", "0.05", "--out"]
        rejected = tmp_path / "trace.json"
        assert main(args + [str(rejected)]) == 2
        assert ".jsonl" in capsys.readouterr().err
        assert not rejected.exists()
        out_path = tmp_path / "trace.jsonl"
        assert main(args + [str(out_path)]) == 0
        stream = ExternalTraceStream(str(out_path))
        assert stream.name == "CMU"
        assert any(isinstance(e, TraceJob) for e in stream.events())


class TestListDiscovery:
    def test_list_all_dimensions(self, capsys):
        from repro.common.catalog import catalog

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind, names in catalog().items():
            assert f"{kind}:" in out
            for name in names:
                assert name in out

    def test_list_one_dimension(self, capsys):
        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenarios:")
        for name in ("fb", "cmu", "diurnal", "flashcrowd", "pipeline"):
            assert name in out

    def test_list_unknown_dimension_errors(self, capsys):
        assert main(["list", "flavours"]) == 2

    def test_catalog_matches_cli_choices(self):
        """The discovery helper and the argparse choices agree."""
        from repro.cluster.hardware import hierarchy_names
        from repro.common.catalog import catalog
        from repro.engine.iomodel import IO_MODEL_NAMES
        from repro.workload.scenarios import scenario_names

        names = catalog()
        assert names["tiers"] == sorted(hierarchy_names())
        assert names["io-models"] == sorted(IO_MODEL_NAMES)
        assert names["scenarios"] == scenario_names()


class TestScenarioCommands:
    def test_scenario_list(self, capsys):
        from repro.workload.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert f"{name}:" in out
        assert "params:" in out

    def test_scenario_stats(self, capsys):
        code = main(
            ["scenario", "stats", "mlscan", "--scale", "0.2", "--param", "shards=16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "jobs per bin:" in out

    def test_scenario_stats_max_events(self, capsys):
        code = main(["scenario", "stats", "oscillating", "--max-events", "5"])
        assert code == 0
        assert "events:           5" in capsys.readouterr().out

    def test_scenario_run(self, capsys):
        code = main(
            [
                "scenario",
                "run",
                "flashcrowd",
                "--scale",
                "0.05",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--workers",
                "4",
                "--perf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario:         flashcrowd" in out
        assert "jobs finished" in out
        assert "events/second" in out

    def test_scenario_run_external_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "small.jsonl.gz")
        assert (
            main(
                [
                    "synthesize",
                    "--workload",
                    "FB",
                    "--scale",
                    "0.05",
                    "--out",
                    trace_path,
                ]
            )
            == 0
        )
        code = main(["scenario", "run", "--events", trace_path, "--workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario:         FB" in out

    def test_scenario_name_and_events_conflict(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "fb", "--events", "x.jsonl"])

    def test_events_rejects_generator_knobs(self, capsys):
        """--scale/--param would be silently ignored on replays: error."""
        for extra in (["--scale", "0.1"], ["--param", "k=1"]):
            with pytest.raises(SystemExit):
                main(["scenario", "stats", "--events", "x.jsonl"] + extra)

    def test_reserved_param_redirected(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "stats", "fb", "--param", "seed=7"])
        assert "--seed" in capsys.readouterr().err

    def test_scenario_run_requires_source(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    def test_unknown_scenario_errors(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            main(["scenario", "stats", "nope"])

    def test_bad_param_errors(self):
        with pytest.raises(SystemExit):
            main(["scenario", "stats", "mlscan", "--param", "shards"])


class TestSimulateExtensions:
    def test_cache_mode_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--workload",
                "FB",
                "--scale",
                "0.03",
                "--placement",
                "hdfs",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--cache-mode",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs finished" in out

    def test_outages_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--workload",
                "FB",
                "--scale",
                "0.03",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--outages",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outages:" in out


class TestObservabilityFlags:
    def _simulate(self, *extra):
        return main(
            [
                "simulate",
                "--workload",
                "FB",
                "--scale",
                "0.03",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                *extra,
            ]
        )

    def test_trace_and_exports_written(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        chrome = str(tmp_path / "run_chrome.json")
        ts = str(tmp_path / "run_ts.json")
        code = self._simulate(
            "--trace", trace, "--chrome-trace", chrome, "--timeseries", ts
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace records" in err and "timeseries samples" in err
        records = [json.loads(line) for line in open(trace)]
        assert records and all("ev" in r and "seq" in r for r in records)
        assert json.load(open(chrome))["traceEvents"]
        assert len(json.load(open(ts))["t"]) >= 2

        assert main(["trace", "summarize", trace]) == 0
        out = capsys.readouterr().out
        assert "job_finish" in out

        path = next(r["path"] for r in records if r["ev"] == "file_create")
        assert main(["trace", "explain", trace, path]) == 0
        out = capsys.readouterr().out
        assert "placed on" in out

    def test_off_by_default(self, capsys):
        assert self._simulate() == 0
        assert "trace records" not in capsys.readouterr().err


class TestLiveCommands:
    def export(self, tmp_path, name="fb", out="stream.jsonl"):
        path = str(tmp_path / out)
        assert main(["scenario", "run", name, "--scale", "0.05", "--out", path]) == 0
        return path

    def test_scenario_run_out_exports_instead_of_running(self, tmp_path, capsys):
        path = self.export(tmp_path)
        err = capsys.readouterr().err
        assert "wrote" in err and path in err
        # The exported file ends with the end-of-stream sentinel.
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[-1])["kind"] == "end"

    def test_live_replays_exported_stream(self, tmp_path, capsys):
        path = self.export(tmp_path)
        code = main(
            [
                "live",
                path,
                "--workers",
                "4",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--perf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "live stream:      FB" in out
        assert "events received:" in out
        assert "jobs finished" in out
        assert "pump lead:" in out

    def test_live_gzip_export_round_trip(self, tmp_path, capsys):
        path = self.export(tmp_path, out="stream.jsonl.gz")
        assert main(["live", path, "--workers", "4"]) == 0
        assert "jobs finished" in capsys.readouterr().out

    def test_live_preset_by_scenario_flag(self, tmp_path, capsys):
        path = self.export(tmp_path, name="flashcrowd")
        code = main(
            [
                "live",
                path,
                "--workers",
                "4",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--scenario",
                "flashcrowd",
            ]
        )
        assert code == 0
        assert "preset:           flashcrowd" in capsys.readouterr().out


class TestPresetFlag:
    def run_flashcrowd(self, preset):
        return main(
            [
                "scenario",
                "run",
                "flashcrowd",
                "--scale",
                "0.05",
                "--downgrade",
                "lru",
                "--upgrade",
                "osa",
                "--workers",
                "4",
                "--preset",
                preset,
            ]
        )

    def test_preset_auto_reported(self, capsys):
        assert self.run_flashcrowd("auto") == 0
        assert "preset:           flashcrowd" in capsys.readouterr().out

    def test_preset_none_suppressed(self, capsys):
        assert self.run_flashcrowd("none") == 0
        assert "preset:" not in capsys.readouterr().out

    def test_preset_explicit(self, capsys):
        assert self.run_flashcrowd("mlscan") == 0
        assert "preset:           mlscan" in capsys.readouterr().out

    def test_unknown_preset_errors(self):
        with pytest.raises(ValueError, match="unknown preset"):
            self.run_flashcrowd("nope")

    def test_list_presets(self, capsys):
        from repro.core.presets import preset_names

        assert main(["list", "presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out


class TestSweepCommands:
    def spec_file(self, tmp_path):
        """A two-cell JSON spec (mlscan at tiny scale, two seeds)."""
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "tiny",
                    "scenarios": ["mlscan"],
                    "seeds": [1, 2],
                    "scales": [0.05],
                }
            )
        )
        return str(path)

    def test_sweep_cells_smoke_lists_twelve(self, capsys):
        assert main(["sweep", "cells", "--smoke"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 12
        # Each line: <16-hex cell id>  <label>
        for line in lines:
            cell_id, label = line.split(None, 1)
            assert len(cell_id) == 16
            assert int(cell_id, 16) >= 0
        assert "12 cell(s)" in captured.err

    def test_sweep_spec_and_smoke_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "cells", "smoke", "--smoke"])

    def test_sweep_unknown_spec_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "run", "no-such-spec"])
        assert "no such sweep spec" in capsys.readouterr().err

    def test_sweep_run_resume_and_report(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        store = str(tmp_path / "sweeps")
        out = str(tmp_path / "report.json")
        assert main(["sweep", "run", spec, "--store", store, "--out", out]) == 0
        captured = capsys.readouterr()
        assert "2/2 cells ok" in captured.out
        report = json.loads(open(out).read())
        assert report["summary"]["completed"] == 2

        # Resuming recomputes nothing.
        assert (
            main(
                ["sweep", "run", spec, "--store", store, "--out", out,
                 "--resume"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "reusing 2, running 0" in captured.err

        # The stored sweep re-merges into the same report.
        assert main(["sweep", "report", "tiny", "--store", store]) == 0
        assert "2/2 cells ok" in capsys.readouterr().out

    def test_sweep_report_without_store_errors(self, tmp_path, capsys):
        assert main(["sweep", "report", "ghost", "--store", str(tmp_path)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err

    def test_sweep_run_markdown(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path)
        assert main(["sweep", "run", spec, "--markdown"]) == 0
        assert "| cell |" in capsys.readouterr().out

    def test_list_sweeps(self, capsys):
        assert main(["list", "sweeps"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "scenario-matrix" in out


class TestProfileFlag:
    """--profile is one shared flag: simulate, scenario run, and live all
    route through the same cProfile wrapper."""

    def test_scenario_run_profile(self, capsys):
        code = main(
            ["scenario", "run", "mlscan", "--scale", "0.05", "--workers",
             "4", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- profile (top 25 by cumulative time)" in out
        assert "cumtime" in out

    def test_live_profile(self, tmp_path, capsys):
        path = str(tmp_path / "stream.jsonl")
        assert main(["scenario", "run", "fb", "--scale", "0.05", "--out", path]) == 0
        code = main(["live", path, "--workers", "4", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- profile (top 25 by cumulative time)" in out

    def test_simulate_profile(self, capsys):
        code = main(["simulate", "--workload", "FB", "--scale", "0.05", "--profile"])
        assert code == 0
        assert "-- profile (top 25 by cumulative time)" in capsys.readouterr().out
