"""End-to-end tests of the command-line interface and config handling."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import fflab.config as config_mod
from fflab.capacity import ResourceLimitError
from fflab.cli import main
from fflab.config import ConfigError, parse_config_text
from fflab.experiments import CheckResult, ExperimentResult, run_experiment
from fflab.measures import CubeMeasure
from fflab.spectral import read_spectrum


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigParsing:
    def test_sectioned_format(self):
        text = """
        [run]
        experiment = H_ZERO
        seed = 3
        [params]
        layers = 2
        """
        cfg = parse_config_text(text)
        assert cfg.experiment == "H_ZERO"
        assert cfg.seed == 3
        assert cfg.params == {"layers": 2}

    def test_json_format(self):
        cfg = parse_config_text('{"experiment": "RESL_SERIES", "params": {"n_max": 40}}')
        assert cfg.experiment == "RESL_SERIES"
        assert cfg.params == {"n_max": 40}

    def test_comment_and_tuple_values(self):
        text = """
        [run]
        experiment = NP_SWEEP  # fast sweep
        [params]
        M = 16, 64
        """
        cfg = parse_config_text(text)
        assert cfg.params == {"M": (16, 64)}

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("[run]\nexperiment = NOPE\n")

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_config_text("[run]\nexperiment = H_ZERO\n[params]\nbogus = 1\n")

    def test_unknown_run_key(self):
        with pytest.raises(ConfigError, match="unknown run key"):
            parse_config_text("[run]\nexperiment = H_ZERO\nthreads = 4\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="missing 'experiment'"):
            parse_config_text("[params]\nlayers = 2\n")

    def test_line_diagnostic(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("[run]\nnot a pair\n")

    def test_run_experiment_rejects_unknown_param(self):
        # a misspelt key would otherwise run the experiment at its defaults
        with pytest.raises(ValueError, match="unknown parameter 'n_sq' for LORNOR"):
            run_experiment("LORNOR", {"n_sq": 200}, 0)

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config_text("{broken")


class TestRunCommand:
    def test_run_writes_artifacts(self, runner, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[run]\nexperiment = H_ZERO\noutput = {out}\n[params]\nlayers = 2\n"
        )
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "H_ZERO"
        assert all(manifest["checks"].values())
        csvs = list(out.glob("*.csv"))
        assert csvs

    def test_run_is_deterministic(self, runner, tmp_path):
        outputs = []
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.cfg"
            out = tmp_path / name
            cfg.write_text(
                f"[run]\nexperiment = H_ZERO\noutput = {out}\n[params]\nlayers = 2\n"
            )
            assert runner.invoke(main, ["run", str(cfg)]).exit_code == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            )
        assert outputs[0] == outputs[1]

    def test_bad_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nexperiment = NOPE\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2
        assert "config error" in result.output

    @pytest.mark.parametrize(
        "name, text",
        [
            ("word.cfg", "[run]\nexperiment = H_ZERO\nseed = abc\n"),
            ("fraction.json", '{"experiment": "H_ZERO", "seed": 1.7}'),
        ],
    )
    def test_non_integer_seed_exits_2(self, runner, tmp_path, name, text):
        cfg = tmp_path / name
        cfg.write_text(text)
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2
        assert "config error" in result.output and "seed must be an integer" in result.output

    @pytest.mark.parametrize(
        "experiment, params, message",
        [
            ("RESL_SERIES", "n_max = abc", "invalid literal for int()"),
            ("RESL_SERIES", "q = 1,", "every q must lie in (1, inf), got 1"),
            ("FROSTMAN", "q = inf", "q must be finite"),
        ],
    )
    def test_bad_parameter_value_exits_2(self, runner, tmp_path, experiment, params, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[run]\nexperiment = {experiment}\n[params]\n{params}\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2
        assert result.output.startswith(f"config error: {experiment}: ")
        assert message in result.output and result.output.count("\n") == 1

    def test_lornor_at_q_inf(self, runner, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"[run]\nexperiment = LORNOR\noutput = {out}\n"
            "[params]\nn_seq = 200\nalphas = 1.0,\nqs = inf,\n"
        )
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "PASS lornor_band_alpha=1.0_q=inf" in result.output
        rows = (out / "lornor_bands.csv").read_text().splitlines()
        _, lo, hi = rows[1].split(",")[1:4]
        assert float(lo) < 1.0 < float(hi)
        default = run_experiment("LORNOR", {"n_seq": 200, "alphas": (1.0,)}, 0).tables["bands"][1]
        assert [(1.0, "inf", float(lo), float(hi))] == [r[:4] for r in default if r[1] == "inf"]

    def test_failed_check_exits_1(self, runner, tmp_path, monkeypatch):
        def fake_run(experiment, params, seed):
            return ExperimentResult(experiment, [CheckResult("always_fails", False, "synthetic")])

        monkeypatch.setattr(config_mod, "run_experiment", fake_run)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = H_ZERO\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 1
        assert "FAIL always_fails" in result.output

    def test_resource_limit_exits_3(self, runner, tmp_path, monkeypatch):
        def fake_run(experiment, params, seed):
            raise ResourceLimitError("synthetic budget hit")

        monkeypatch.setattr(config_mod, "run_experiment", fake_run)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = H_ZERO\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3
        assert "resource limit" in result.output


class TestConstructCommand:
    def test_construct_writes_measure(self, runner, tmp_path):
        out = tmp_path / "measure.json"
        result = runner.invoke(
            main,
            ["construct", "--preset", "norm-growth", "--depth", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        mu = CubeMeasure.from_json(out.read_text())
        assert mu.d == 1
        assert len(mu.atoms) == 3
        assert mu.total_mass == pytest.approx(1.0)

    def test_construct_deterministic_for_seed(self, runner, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["construct", "--preset", "norm-growth", "--seed", "7", "--out", str(out)],
            )
            assert result.exit_code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_unknown_preset(self, runner, tmp_path):
        result = runner.invoke(
            main, ["construct", "--preset", "nope", "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code != 0


class TestSpectrumCommand:
    def test_spectrum_on_constructed_measure(self, runner, tmp_path):
        measure = tmp_path / "measure.json"
        assert (
            runner.invoke(
                main,
                ["construct", "--preset", "norm-growth", "--depth", "1", "--out", str(measure)],
            ).exit_code
            == 0
        )
        field_path = tmp_path / "field.spec"
        result = runner.invoke(
            main,
            [
                "spectrum", "--measure", str(measure), "--p", "4", "--q", "2",
                "--extent", "16", "--samples", "64", "--out", str(field_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "lorentz_norm" in result.output
        field = read_spectrum(field_path)
        assert field.grid.samples == 64
        assert field.at_zero == pytest.approx(1.0)
        assert np.all(np.abs(field.values) <= 1.0 + 1e-12)

    def test_malformed_measure_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "something-else", "d": 1, "atoms": []}')
        result = runner.invoke(
            main,
            ["spectrum", "--measure", str(bad), "--p", "4", "--q", "2",
             "--extent", "4", "--samples", "16"],
        )
        assert result.exit_code == 2


class TestVerifyCommand:
    def test_single_fast_criterion_via_api(self):
        from fflab.acceptance import run_criterion

        res = run_criterion(1)
        assert res.passed, res.detail
        assert res.name == "layer_sum_law"

    def test_summary_json_shape(self):
        from fflab.acceptance import CriterionResult, summary_json

        doc = json.loads(
            summary_json([CriterionResult(1, "layer_sum_law", True, "ok", 0.1)])
        )
        assert doc == [
            {"criterion": 1, "name": "layer_sum_law", "passed": True, "detail": "ok"}
        ]
