"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_fig6_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.part == "all"
        assert args.preset == "default"

    def test_fig6_options(self):
        args = build_parser().parse_args(
            ["fig6", "--part", "ab", "--preset", "smoke", "--duration", "2",
             "--graphs", "1", "--sims", "1", "--seed", "3", "--quiet"]
        )
        assert args.part == "ab"
        assert args.duration == 2.0
        assert args.quiet

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--preset", "huge"])

    def test_fig6_semantics_option(self):
        args = build_parser().parse_args(["fig6", "--semantics", "let"])
        assert args.semantics == "let"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--semantics", "banana"])

    def test_campaign_run_options(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--part", "ab", "--preset", "smoke",
             "--shard", "1/3", "--out", "s1.jsonl", "--jobs", "2"]
        )
        assert args.campaign_command == "run"
        assert args.shard == "1/3"
        assert args.out == "s1.jsonl"
        assert args.jobs == 2

    def test_campaign_run_requires_shard_and_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--part", "ab"])

    def test_campaign_merge_options(self):
        args = build_parser().parse_args(
            ["campaign", "merge", "--part", "ab", "a.jsonl", "b.jsonl",
             "--csv", "out.csv"]
        )
        assert args.campaign_command == "merge"
        assert args.shards == ["a.jsonl", "b.jsonl"]
        assert args.csv == "out.csv"


class TestCommands:
    def test_waters(self, capsys):
        assert main(["waters"]) == 0
        out = capsys.readouterr().out
        assert "ACET(us)" in out
        assert "200" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--tasks", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "P-diff" in out
        assert "S-diff" in out
        assert "chains into" in out

    def test_analyze_save_and_load(self, capsys, tmp_path):
        path = tmp_path / "workload.json"
        assert main(["analyze", "--tasks", "8", "--seed", "2",
                     "--output", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "S-diff" in out

    def test_report(self, capsys):
        assert main(["report", "--tasks", "8", "--seed", "2",
                     "--requirement", "k1=300"]) == 0
        out = capsys.readouterr().out
        assert "utilization per unit" in out
        assert "disparity bounds" in out

    def test_report_bad_requirement(self):
        with pytest.raises(SystemExit):
            main(["report", "--tasks", "6", "--requirement", "oops"])

    def test_diagnose(self, capsys):
        assert main(["diagnose", "--tasks", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "worst-case time disparity" in out
        assert "binding pair" in out

    def test_diagnose_with_optimize(self, capsys):
        assert main(
            ["diagnose", "--tasks", "6", "--seed", "3", "--optimize"]
        ) == 0
        out = capsys.readouterr().out
        assert "priority optimization" in out

    def test_fig6_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "fig6",
                "--part",
                "ab",
                "--preset",
                "smoke",
                "--duration",
                "2",
                "--graphs",
                "1",
                "--sims",
                "1",
                "--quiet",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "P-diff(ms)" in out

    def test_campaign_run_and_merge_match_direct_run(self, capsys, tmp_path):
        # Two shards run via the CLI, merged via the CLI (files passed
        # out of order), must reproduce the direct serial CSV bytes.
        from repro.experiments import preset_ab
        from repro.experiments.fig6 import run_fig6_ab
        from repro.experiments.reporting import csv_ab
        from repro.units import seconds

        scale = ["--preset", "smoke", "--duration", "2", "--graphs", "1",
                 "--sims", "1"]
        paths = []
        for index in range(2):
            path = tmp_path / f"shard-{index}.jsonl"
            assert main(
                ["campaign", "run", "--part", "ab", *scale,
                 "--shard", f"{index}/2", "--out", str(path), "--quiet"]
            ) == 0
            assert path.exists()
            paths.append(str(path))
        merged_csv = tmp_path / "merged.csv"
        capsys.readouterr()
        assert main(
            ["campaign", "merge", "--part", "ab", *scale,
             *reversed(paths), "--csv", str(merged_csv)]
        ) == 0
        assert "merged 2 shard file(s)" in capsys.readouterr().out
        config = preset_ab("smoke").scaled(
            sim_duration=seconds(2), graphs_per_point=1, sims_per_graph=1
        )
        # Byte-level read: the csv module's \r\n endings must survive.
        assert merged_csv.read_bytes().decode() == csv_ab(run_fig6_ab(config))

    def test_campaign_merge_prints_csv_without_path(self, capsys, tmp_path):
        path = tmp_path / "only.jsonl"
        scale = ["--preset", "smoke", "--duration", "2", "--graphs", "1",
                 "--sims", "1"]
        assert main(
            ["campaign", "run", "--part", "ab", *scale,
             "--shard", "0/1", "--out", str(path), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "merge", "--part", "ab", *scale, str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("n_tasks,")

    def test_campaign_run_rejects_bad_shard_spec(self):
        with pytest.raises(ValueError):
            main(["campaign", "run", "--part", "ab", "--preset", "smoke",
                  "--shard", "3/2", "--out", "x.jsonl", "--quiet"])


class TestBenchBaselines:
    """A quick run is filed and checked against quick-run entries only."""

    @staticmethod
    def _fake_run(monkeypatch, speedup):
        import repro.profile as profile

        def fake(*, quick=False, kernels=()):
            return {"schema": 1, "quick": quick,
                    "batch": {"speedup": speedup}}

        monkeypatch.setattr(profile, "run_benchmarks", fake)
        monkeypatch.setattr(profile, "format_benchmarks", lambda doc: "")

    def test_quick_check_compares_like_with_like(self):
        from repro.profile import compare_to_baseline

        baseline = {
            "batch": {"speedup": 40.0},
            "let": {"speedup": 100.0},
            "quick_baseline": {"batch": {"speedup": 20.0}},
        }
        quick = {"quick": True, "batch": {"speedup": 19.0},
                 "let": {"speedup": 60.0}}
        # batch against its quick entry; let has none and keeps the
        # full-run one.
        messages = compare_to_baseline(quick, baseline)
        assert len(messages) == 1 and messages[0].startswith("LET")
        full = {"quick": False, "batch": {"speedup": 19.0}}
        assert compare_to_baseline(full, baseline)[0].startswith("batch")

    def test_write_files_quick_runs_beside_full_ones(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        path = tmp_path / "bench.json"
        self._fake_run(monkeypatch, 40.0)
        assert main(["bench", "--kernel", "batch", "--write", str(path)]) == 0
        self._fake_run(monkeypatch, 20.0)
        assert main(["bench", "--quick", "--kernel", "batch",
                     "--write", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["batch"]["speedup"] == 40.0
        assert document["quick_baseline"]["batch"]["speedup"] == 20.0
        # A later full run keeps the quick entries.
        self._fake_run(monkeypatch, 41.0)
        assert main(["bench", "--kernel", "batch", "--write", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["batch"]["speedup"] == 41.0
        assert document["quick_baseline"]["batch"]["speedup"] == 20.0
        capsys.readouterr()
        self._fake_run(monkeypatch, 19.0)
        assert main(["bench", "--quick", "--kernel", "batch",
                     "--check", str(path)]) == 0
        assert "benchmark gate: OK" in capsys.readouterr().out
