"""Tests for the experiment runners and the evaluation report tool.

The heavyweight shape assertions live in ``benchmarks/``; here we check
the runners' contracts (determinism, structure) and the report rendering.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    run_baseline,
    run_fig10,
    run_light_control,
    run_mouse_clicks,
    run_table1,
)
from repro.experiments.report import build_report, main, render_report

#: ``build_report()`` as JSON, recorded once; every figure must repeat
#: exactly, so a kernel, codec or transport change that moves any sim
#: timestamp of the reproduced experiments fails here.
GOLDEN = Path(__file__).with_name("report_golden.json")
#: The committed text report, ``python -m repro.experiments`` output.
REPORT_TEXT = Path(__file__).resolve().parents[2] / "experiments_report.txt"


class TestRunners:
    def test_table1_matches_paper(self):
        chart, mismatches = run_table1()
        assert mismatches == []
        assert len(chart) == 56  # 8x8 minus the diagonal

    def test_baseline_is_deterministic(self):
        assert run_baseline() == run_baseline()

    def test_fig10_repeats_controls_sample_count(self):
        result = run_fig10(repeats=2)
        for samples in result.durations.values():
            assert len(samples) >= 2

    def test_light_control_action_count(self):
        result = run_light_control(actions=10)
        assert result.actions_served == 10
        assert result.mean_total > result.upnp_domain > 0

    def test_mouse_clicks_delivery_count(self):
        result = run_mouse_clicks(clicks=10)
        assert result.delivered == 10
        assert result.umiddle_overhead > 0


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return build_report()

    def test_structure(self, report):
        assert set(report) == {"table1", "fig10", "sec52", "fig11"}
        assert report["table1"]["matches_paper"]
        assert set(report["fig11"]) == {"baseline", "mb", "rmi", "rmi-mb"}

    def test_json_serializable(self, report):
        text = json.dumps(report)
        assert "fig11" in text

    def test_render_mentions_every_section(self, report):
        text = render_report(report)
        for token in ("Table 1", "Figure 10", "Section 5.2", "Figure 11"):
            assert token in text
        assert "matches the paper" in text

    def test_figures_equal_the_golden_report(self, report):
        golden = json.loads(GOLDEN.read_text())
        assert json.loads(json.dumps(report)) == golden

    def test_committed_text_report_renders_the_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert render_report(golden) + "\n" == REPORT_TEXT.read_text()

    def test_fig11_values_near_paper(self, report):
        for name, row in report["fig11"].items():
            assert row["mbps"] == pytest.approx(row["paper_mbps"], rel=0.12)

    def test_cli_json_mode(self, capsys, monkeypatch):
        # Reuse the cached report to keep the test fast? main() rebuilds;
        # run it once for the CLI contract.
        exit_code = main(["--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        parsed = json.loads(captured.out)
        assert parsed["table1"]["matches_paper"]
