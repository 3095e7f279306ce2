"""Tests for result reporting, the non-i.i.d. ablation and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentScale,
    ascii_chart,
    run_ablation_noniid,
    save_csv,
    save_json,
    series_from_rows,
    to_markdown,
)
from repro.experiments.cli import ARTIFACTS, build_parser, main

MICRO = ExperimentScale(
    name="micro",
    n_train=120,
    n_test=60,
    image_size=16,
    iterations=5,
    eval_every=5,
    num_workers=3,
    batch_size_small=4,
    batch_size_large=8,
    width_factor=0.1,
    classifier_epochs=1,
    eval_sample_size=32,
)


@pytest.fixture()
def sample_result():
    result = ExperimentResult(name="Demo", description="demo result")
    result.add_row(competitor="a", iteration=1, fid=10.0, score=1.0)
    result.add_row(competitor="a", iteration=2, fid=8.0, score=1.2)
    result.add_row(competitor="b", iteration=1, fid=12.0, score=0.9)
    result.add_note("a note")
    return result


class TestReporting:
    def test_save_json_roundtrip(self, sample_result, tmp_path):
        path = save_json(sample_result, tmp_path / "out" / "demo.json")
        payload = json.loads(Path(path).read_text())
        assert payload["name"] == "Demo"
        assert len(payload["rows"]) == 3
        assert payload["notes"] == ["a note"]

    def test_save_csv_contains_all_columns(self, sample_result, tmp_path):
        path = save_csv(sample_result, tmp_path / "demo.csv")
        text = Path(path).read_text()
        header = text.splitlines()[0]
        assert header.split(",") == ["competitor", "iteration", "fid", "score"]
        assert len(text.splitlines()) == 4

    def test_save_csv_empty_result(self, tmp_path):
        empty = ExperimentResult(name="Empty", description="")
        path = save_csv(empty, tmp_path / "empty.csv")
        assert Path(path).read_text() == ""

    def test_to_markdown_table(self, sample_result):
        md = to_markdown(sample_result)
        assert md.startswith("### Demo")
        assert "| competitor | iteration | fid | score |" in md
        assert "> a note" in md

    def test_to_markdown_row_limit(self, sample_result):
        md = to_markdown(sample_result, max_rows=1)
        assert "more rows omitted" in md

    def test_series_from_rows_groups_and_sorts(self, sample_result):
        series = series_from_rows(sample_result.rows, "competitor", "iteration", "fid")
        assert set(series) == {"a", "b"}
        assert series["a"] == [(1.0, 10.0), (2.0, 8.0)]

    def test_ascii_chart_renders_markers_and_legend(self, sample_result):
        series = series_from_rows(sample_result.rows, "competitor", "iteration", "fid")
        chart = ascii_chart(series, width=30, height=8, title="demo chart")
        assert "demo chart" in chart
        assert "o = a" in chart and "x = b" in chart
        assert "o" in chart.splitlines()[4]

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"


class TestNonIIDAblation:
    def test_runs_all_schemes(self):
        result = run_ablation_noniid(scale=MICRO, schemes=("iid", "label-skew"))
        schemes = {row["scheme"] for row in result.rows}
        assert schemes == {"iid", "label-skew"}
        algorithms = {row["algorithm"] for row in result.rows}
        assert algorithms == {"md-gan", "fl-gan"}
        assert all(np.isfinite(row["fid"]) for row in result.rows)
        # The per-label scheme really does concentrate classes on workers.
        skew_rows = [r for r in result.rows if r["scheme"] == "label-skew"]
        iid_rows = [r for r in result.rows if r["scheme"] == "iid"]
        assert skew_rows[0]["min_classes_per_shard"] < iid_rows[0]["min_classes_per_shard"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="Unknown partitioning scheme"):
            run_ablation_noniid(scale=MICRO, schemes=("striped",))


class TestCLI:
    def test_parser_knows_all_artifacts(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.artefact == "table2"
        assert set(ARTIFACTS) >= {"table2", "fig3", "fig6", "ablation-noniid"}

    def test_main_runs_analytic_artifact_and_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "table4",
                "--json",
                str(tmp_path / "t4.json"),
                "--csv",
                str(tmp_path / "t4.csv"),
                "--markdown",
                str(tmp_path / "t4.md"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table IV" in captured
        assert (tmp_path / "t4.json").exists()
        assert (tmp_path / "t4.csv").exists()
        assert (tmp_path / "t4.md").read_text().startswith("### Table IV")

    def test_main_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_parser_accepts_backend_selection(self):
        args = build_parser().parse_args(
            ["fig4", "--backend", "thread", "--max-workers", "2"]
        )
        assert args.backend == "thread"
        assert args.max_workers == 2

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--backend", "gpu"])

    def test_runtime_holds_only_the_flags_given(self):
        from repro.experiments.cli import _runtime

        parser = build_parser()
        assert _runtime(parser, parser.parse_args(["fig4"])) == {}
        args = parser.parse_args(["fig4", "--backend", "process"])
        assert _runtime(parser, args) == {"backend": "process"}
        args = parser.parse_args(
            ["fig5", "--backend", "resident", "--pipeline-depth", "2", "--no-shm-install"]
        )
        assert _runtime(parser, args) == {
            "backend": "resident",
            "pipeline_depth": 2,
            "shm_install": False,
        }

    def test_parser_accepts_pipeline_depth(self):
        args = build_parser().parse_args(["fig4", "--pipeline-depth", "3"])
        assert args.pipeline_depth == 3
        # The default lives in TrainingConfig, not in the parser.
        assert not hasattr(build_parser().parse_args(["fig4"]), "pipeline_depth")

    @staticmethod
    def _stub(monkeypatch, name):
        calls = []

        def runner(**kwargs):
            calls.append(kwargs)
            return ExperimentResult(name="stub", description="")

        monkeypatch.setitem(ARTIFACTS, name, runner)
        return calls

    def test_main_hands_the_runtime_to_a_training_artefact(self, monkeypatch, capsys):
        calls = self._stub(monkeypatch, "fig5")
        argv = ["fig5", "--backend", "resident", "--on-slot-loss", "degrade", "--min-workers", "3"]
        assert main(argv) == 0
        assert calls == [
            dict(
                dataset="mnist",
                architecture="mnist-mlp",
                scale="smoke",
                backend="resident",
                on_slot_loss="degrade",
                min_workers=3,
            )
        ]
        assert capsys.readouterr().err == ""

    def test_main_hands_no_runtime_to_an_analytic_artefact(self, monkeypatch):
        calls = self._stub(monkeypatch, "table2")
        assert main(["table2", "--backend", "thread"]) == 0
        assert calls == [{}]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--transport-address", "10.0.0.5:7000"],
            ["--transport", "pipe", "--transport-address", "10.0.0.5:7000"],
            ["--on-slot-loss", "degrade"],
            ["--min-workers", "0"],
        ],
    )
    def test_main_rejects_an_invalid_runtime_before_running(self, monkeypatch, capsys, flags):
        calls = self._stub(monkeypatch, "fig5")
        assert main(["fig5", *flags]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_main_restores_the_default_precision(self):
        from repro.nn.precision import get_default_precision

        before = get_default_precision()
        assert main(["table2", "--precision", "float64"]) == 0
        assert get_default_precision() == before
