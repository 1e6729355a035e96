"""The ``simty scenarios`` subcommand and the ``--scenario`` flags."""

import json

import pytest

from repro.analysis.cli import main
from repro.workloads.sources import canonical_scenario, scenario_to_dict


@pytest.fixture
def light_config(tmp_path):
    path = tmp_path / "light.json"
    path.write_text(json.dumps(scenario_to_dict(canonical_scenario("light"))))
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "scenario": {"name": "tiny", "horizon_ms": 600_000, "seed": 4},
                "source": [
                    {"use": "calendar", "times": ["00:02"]},
                    {"use": "background", "oneshots_per_hour": 6.0},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def broken_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "scenario": {"name": "broken"},
                "source": [
                    {"use": "calender"},
                    {"use": "background", "oneshots_per_hr": 1},
                ],
            }
        )
    )
    return str(path)


class TestScenariosCommand:
    def test_lists_sources_with_schemas(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("calendar", "network-gated", "trace-replay", "push-storm"):
            assert name in out
        assert "required" in out  # churn's at_ms
        assert "canonical scenarios" in out

    def test_single_source_schema(self, capsys):
        assert main(["scenarios", "--source", "push-storm"]) == 0
        out = capsys.readouterr().out
        assert "rate_per_hour" in out
        assert "background" not in out

    def test_unknown_source_suggests(self, capsys):
        assert main(["scenarios", "--source", "push-strom"]) == 1
        assert "did you mean 'push-storm'" in capsys.readouterr().err

    def test_check_valid_config(self, tiny_config, capsys):
        assert main(["scenarios", "--check", tiny_config]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "2 source(s)" in out

    def test_check_broken_config_reports_all_problems(
        self, broken_config, capsys
    ):
        assert main(["scenarios", "--check", broken_config]) == 1
        out = capsys.readouterr().out
        assert "2 problem(s)" in out
        assert "did you mean 'calendar'" in out
        assert "did you mean 'oneshots_per_hour'" in out

    def test_check_missing_file(self, tmp_path, capsys):
        assert main(["scenarios", "--check", str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().out

    def test_canonical_export_round_trips(self, capsys):
        assert main(["scenarios", "--canonical", "light"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["name"] == "light"
        assert {entry["use"] for entry in payload["source"]} == {
            "table3-apps",
            "background",
        }

    def test_canonical_unknown_name(self, capsys):
        assert main(["scenarios", "--canonical", "lihgt"]) == 1
        assert "did you mean 'light'" in capsys.readouterr().err


class TestScenarioFlag:
    def test_run_scenario_matches_named_workload(self, light_config, capsys):
        assert main(["run", "--scenario", light_config]) == 0
        scenario_line = capsys.readouterr().out.strip()
        assert main(["run", "--workload", "light"]) == 0
        named_line = capsys.readouterr().out.strip()
        assert scenario_line == named_line

    def test_run_broken_scenario_exits_with_problems(
        self, broken_config, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", broken_config])
        assert "did you mean 'calendar'" in str(excinfo.value)

    def test_compare_scenario(self, tiny_config, capsys):
        assert main(["compare", "--scenario", tiny_config]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "scenario" in out

    def test_sweep_scenario(self, tiny_config, capsys):
        assert main(
            ["sweep", "--kind", "duration", "--scenario", tiny_config]
        ) == 0
        assert "simty+dur" in capsys.readouterr().out

    def test_sweep_scale_rejects_scenario(self, tiny_config):
        with pytest.raises(SystemExit, match="not supported"):
            main(["sweep", "--kind", "scale", "--scenario", tiny_config])

    def test_requests_scenario(self, tiny_config, capsys):
        assert main(["requests", "--scenario", tiny_config]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        registers = [line for line in lines if line["op"] == "register"]
        assert registers
        assert any(
            line["alarm"]["label"].startswith("calendar@")
            for line in registers
        )

    def test_fuzz_vets_one_scenario(self, tiny_config, capsys):
        assert main(["fuzz", "--scenario", tiny_config]) == 0
        out = capsys.readouterr().out
        assert "survived every detector" in out
