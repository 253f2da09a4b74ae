"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import _COMMANDS, build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wide_deep" in out and "fig11" in out

    def test_info(self, capsys):
        assert main(["info", "siamese", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out and "params:" in out

    def test_print(self, capsys):
        assert main(["print", "siamese", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "fn siamese(" in out and "lstm" in out

    def test_optimize_tiny(self, capsys):
        assert main(["optimize", "siamese", "--tiny", "--runs", "50"]) == 0
        out = capsys.readouterr().out
        assert "DUET latency" in out and "P99" in out

    def test_optimize_full_wide_deep(self, capsys):
        assert main(["optimize", "wide_deep"]) == 0
        out = capsys.readouterr().out
        assert "fallback:         none" in out

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "Wide-and-Deep" in capsys.readouterr().out

    def test_bench_fig13(self, capsys):
        assert main(["bench", "fig13"]) == 0
        assert "Greedy+Correction" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "alexnet"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_tournament_smoke(self, capsys, tmp_path):
        artifact = tmp_path / "league.txt"
        assert main([
            "tournament", "--tiny",
            "--models", "siamese", "xfer_bound",
            "--policies", "dp", "greedy", "round_robin",
            "--output", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "Scheduler tournament" in out
        assert "league winners" in out
        assert "xfer_bound" in out
        written = artifact.read_text(encoding="utf-8")
        assert "overlap_gain_pct" in written

    def test_tournament_mesh_smoke(self, capsys):
        assert main([
            "tournament", "--tiny",
            "--mesh", "examples/mesh.json",
            "--models", "siamese",
            "--policies", "dp", "round_robin",
        ]) == 0
        out = capsys.readouterr().out
        assert "Scheduler tournament" in out

    def test_tournament_unknown_policy_errors(self, capsys):
        assert main(["tournament", "--tiny", "--models", "siamese",
                     "--policies", "alphazero"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_serve_smoke(self, capsys):
        assert main(["serve", "mtdnn", "--tiny", "--requests", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 requests to mtdnn" in out and "p50" in out

    def test_serve_mesh_smoke(self, capsys):
        assert main([
            "serve", "mtdnn", "--tiny", "--requests", "5",
            "--mesh", str(REPO / "examples" / "mesh.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "5 requests to mtdnn" in out and "p50" in out

    def test_serve_tenants_metrics(self, capsys):
        assert main([
            "serve", "wide_deep", "--tiny", "--requests", "6",
            "--tenants", str(REPO / "examples" / "tenants.json"), "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        for tenant in ("search", "ads", "batch_etl"):
            assert (
                'duet_tenant_requests_total{model="default",outcome="ok",'
                f'tenant="{tenant}"}} 2'
            ) in out

    def test_serve_bad_tenants_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "tenants.json"
        bad.write_text('[{"name": "a", "weight": "heavy"}]')
        assert main(["serve", "mtdnn", "--tiny", "--tenants", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCommandTable:
    def test_every_command_builds_and_parses_its_defaults(self):
        parser = build_parser()
        required = {
            "info": ["vgg"], "print": ["vgg"], "bench": ["fig13"], "serve": ["vgg"],
        }
        assert len(_COMMANDS) == 9
        for name, (run, _help, _arguments) in _COMMANDS.items():
            args = parser.parse_args([name, *required.get(name, [])])
            assert args.fn is run

    def test_removed_benchmark_flags_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos-serve", "--lose-device", "gpu"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["slo-bench", "--slo-ms", "100"])
        capsys.readouterr()

    def test_docs_list_every_command(self):
        listing = "{" + ",".join(_COMMANDS) + "}"
        for doc in ("README.md", "DESIGN.md"):
            assert listing in (REPO / doc).read_text(encoding="utf-8"), doc


class TestCLIProfileCache:
    def test_optimize_with_cache(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        assert main(["optimize", "siamese", "--tiny",
                     "--profile-cache", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        # Second run reuses the artifact without error.
        assert main(["optimize", "siamese", "--tiny",
                     "--profile-cache", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resident weights" in out


class TestCLIReport:
    def test_report_writes_all_tables(self, capsys, tmp_path, monkeypatch):
        # Shrink the heavy experiments so the report finishes quickly.
        from repro.bench import experiments

        seen_runs = []

        def sampled(n_runs=5000):
            seen_runs.append(n_runs)
            return [{"n_runs": n_runs}]

        slim = {
            name: experiments.EXPERIMENTS[name]
            for name in ("table1", "fig13", "table3")
        }
        slim["tail"] = sampled
        monkeypatch.setattr(experiments, "EXPERIMENTS", slim)
        out = tmp_path / "results"
        assert main(["report", "--output", str(out), "--runs", "100"]) == 0
        # --runs reaches the experiment whose table entry takes n_runs.
        assert seen_runs == [100] and (out / "tail.txt").exists()
        assert (out / "table1.txt").exists()
        assert (out / "fig13.txt").exists()
        assert (out / "table3.txt").exists()
        assert "Greedy+Correction" in (out / "fig13.txt").read_text()


class TestCLISpec:
    def test_optimize_from_spec(self, capsys, tmp_path):
        import json

        spec = {
            "name": "cli_spec",
            "inputs": [{"name": "x", "shape": [1, 16]}],
            "layers": [
                {"kind": "dense", "units": 8},
                {"kind": "softmax"},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        assert main(["optimize", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli_spec" in out and "DUET latency" in out

    def test_optimize_without_model_or_spec_errors(self, capsys):
        assert main(["optimize"]) == 2
        assert "provide a model name" in capsys.readouterr().err
