"""End-to-end tests of the command-line interface and config handling."""

import errno
import inspect
import json
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

import fflab.cli as cli_mod
import fflab.config as config_mod
import fflab.experiments as experiments
from fflab.capacity import ResourceLimitError
from fflab.checks import CheckResult
from fflab.cli import main
from fflab.config import ConfigError, parse_config_text
from fflab.experiments import EXPERIMENTS, ExperimentResult, Size, Sizes, run_experiment
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
        # the slope bound of NP_SWEEP is fixed, as OOO_SWEEP's is
        with pytest.raises(ValueError, match="unknown parameter 'slope_tol' for NP_SWEEP"):
            run_experiment("NP_SWEEP", {"slope_tol": 0.3}, 0)

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
        (check,) = manifest["checks"]
        assert check["name"] == "layer_sum_law" and check["passed"] is True
        assert set(check) == {"name", "value", "bound", "margin", "passed"}
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

    @pytest.mark.parametrize(
        "name, text",
        [
            ("negative.cfg", "[run]\nexperiment = H_ZERO\nseed = -1\n"),
            ("negative.json", '{"experiment": "H_ZERO", "seed": -1}'),
        ],
    )
    def test_negative_seed_exits_2(self, runner, tmp_path, name, text):
        cfg = tmp_path / name
        cfg.write_text(text)
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2
        assert result.output == "config error: seed must be non-negative, got -1\n"

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
            ("RESL_SERIES", "n_max = abc", "parameter 'n_max' takes a whole number, got 'abc'"),
            ("RESL_SERIES", "q = 1,", "every q must lie in (1, inf), got 1"),
            ("FROSTMAN", "q = inf", "q must be finite"),
            ("LORNOR", "alphas = 1.0", "parameter 'alphas' takes a list, got 1.0"),
            ("RESL_SERIES", "q = 2.0", "parameter 'q' takes a list, got 2.0"),
            ("FROSTMAN", "q = 1, 2", "parameter 'q' takes a number, got (1, 2)"),
            ("LORNOR", "n_seq = 50\nalphas = 0.3,", "no recorded band at alpha = 0.3, q = 0.5; the bands cover"),
            ("LORNOR", "n_seq = 50\nqs = 3.0,", "no recorded band at alpha = 0.25, q = 3.0; the bands cover"),
            # JSON values that no key = value line can spell
            ("LORNOR", {"n_seq": None}, "parameter 'n_seq' takes a whole number, got None"),
            ("H_ZERO", {"layers": True}, "parameter 'layers' takes a whole number, got True"),
            ("H_ZERO", {"layers": 1.5}, "parameter 'layers' takes a whole number, got 1.5"),
            ("H_ZERO", {"layers": {"n": 2}}, "parameter 'layers' takes a whole number, got {'n': 2}"),
            ("FROSTMAN", {"alpha": False}, "parameter 'alpha' takes a number, got False"),
            ("SPECTRUM_NORM", {"extent": None}, "parameter 'extent' takes a number, got None"),
            ("CONSTRUCT", {"preset": ["norm-growth"]}, "parameter 'preset' takes a name, got ['norm-growth']"),
            ("NP_SWEEP", {"M": ["a"]}, "parameter 'M' takes a list of whole numbers, got ['a']"),
            ("NP_SWEEP", {"M": [16, 2.5]}, "parameter 'M' takes a list of whole numbers, got [16, 2.5]"),
            ("LORNOR", {"qs": [1.0, None]}, "parameter 'qs' takes a list of numbers, got [1.0, None]"),
            ("LORNOR", {"alphas": [True]}, "parameter 'alphas' takes a list of numbers, got [True]"),
        ],
    )
    def test_bad_parameter_value_exits_2(self, runner, tmp_path, experiment, params, message):
        cfg = tmp_path / "exp.cfg"
        if isinstance(params, dict):
            cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
        else:
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
            return ExperimentResult(experiment, [CheckResult("always_fails", 1.0, 0.0)])

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

    @pytest.mark.parametrize("existing", ["", "kept", "kept/out"], ids=["none", "parent", "output"])
    def test_rejected_run_removes_only_the_directories_it_made(self, runner, tmp_path, existing):
        # RESL_SERIES checks its q only when it runs, after the output
        # directory is made
        if existing:
            (tmp_path / existing).mkdir(parents=True)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[run]\nexperiment = RESL_SERIES\noutput = {tmp_path}/kept/out\n[params]\nq = 1,\n")
        before = sorted(tmp_path.rglob("*"))
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output == "config error: RESL_SERIES: every q must lie in (1, inf), got 1\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_h_zero_past_the_node_budget_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = H_ZERO\n[params]\nlayers = 5\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3, result.output
        assert "resource limit: the tree would hold 66314 nodes" in result.output

    def test_selection_budget_exits_3(self, runner, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = CONSTRUCT\n[params]\nbudget = 0\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3, result.output
        assert re.fullmatch(
            r"resource limit: no sample met both thresholds \([0-9.e+-]+, [0-9.e+-]+\) within budget 0\n", result.output
        )

    def test_spectrum_norm_past_the_grid_budget_exits_3(self, runner, tmp_path, monkeypatch):
        def norms(*args):
            raise AssertionError("transformed on an oversized grid")

        monkeypatch.setattr("fflab.experiments._spectrum_norms", norms)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[run]\nexperiment = SPECTRUM_NORM\n[params]\nsamples = 1000000000000\n")
        result = runner.invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3, result.output
        assert "resource limit: a grid of 1000000000000^1 cells is over the budget of 1048576" in result.output


def _run(name, text):
    def argv(tmp_path):
        cfg = tmp_path / name
        cfg.write_text(text.replace("{tmp}", str(tmp_path)))
        return ["run", str(cfg)]

    return argv


def _construct_into_a_missing_directory(tmp_path):
    return ["construct", "--preset", "norm-growth", "--depth", "1", "--out", str(tmp_path / "missing" / "m.json")]


def _spectrum_into_a_missing_directory(tmp_path):
    measure = tmp_path / "measure.json"
    measure.write_text(CubeMeasure(1, (((0.0,), 1.0, 1.0),)).to_json())
    return [
        "spectrum", "--measure", str(measure), "--p", "4", "--q", "2", "--extent", "4", "--samples", "16",
        "--out", str(tmp_path / "missing" / "field.spec"),
    ]


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (_construct_into_a_missing_directory, "No such file or directory"),
        (_spectrum_into_a_missing_directory, "No such file or directory"),
        (_run("exp.cfg", "[run]\nexperiment = H_ZERO\noutput = {tmp}/exp.cfg/out\n"), "Not a directory"),
        (_run("exp.json", '{"experiment": "H_ZERO", "params": 5}'), "params must be a table, got 5"),
        (_run("exp.json", '{"experiment": ["H_ZERO"]}'), "experiment must be a name, got ['H_ZERO']"),
        (_run("exp.json", '{"experiment": "H_ZERO", "output": 7}'), "output must be a non-empty path, got 7"),
        (_run("exp.cfg", "[run]\nexperiment = H_ZERO\noutput =\n"), "output must be a non-empty path, got ''"),
        (_run("exp.json", '{"experiment": "H_ZERO", "output": ""}'), "output must be a non-empty path, got ''"),
    ],
    ids=[
        "construct_out", "spectrum_out", "unwritable_output", "json_params", "json_experiment", "json_output",
        "empty_output", "json_empty_output",
    ],
)
def test_bad_input_exits_2_with_one_line(runner, tmp_path, monkeypatch, make_argv, message):
    # a bad input is exit 2, never exit 1, the verdict of a failed check;
    # lab run refuses before the experiment runs and writes nothing
    def run_experiment(*args):
        raise AssertionError("ran the experiment")

    monkeypatch.setattr(config_mod, "run_experiment", run_experiment)
    monkeypatch.chdir(tmp_path)
    argv = make_argv(tmp_path)
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("config error: ") and message in result.stderr
    assert result.stderr.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_closed_stdout_is_left_to_click(runner, monkeypatch):
    # a reader that has gone is no config error: click exits 1 and prints
    # nothing, as it does for any command
    def verify_all(seed):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli_mod, "verify_all", verify_all)
    result = runner.invoke(main, ["verify", "--json"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ""


# Each runner's signature is the one parameter schema: its list parameters
# and its sizes (annotated Size, or Sizes for a list of them) are read here.
_PARAMS = [
    (name, p)
    for name, runner in EXPERIMENTS.items()
    for p in inspect.signature(runner, eval_str=True).parameters.values()
    if p.kind is p.KEYWORD_ONLY
]
_LISTS = [(name, p.name) for name, p in _PARAMS if isinstance(p.default, tuple)]
_SIZES = [(name, p.name, p.default) for name, p in _PARAMS if p.annotation in (Size, Sizes)]


def test_the_sizes_are_the_corpus_counts():
    # their defaults fix the bounds, 100 times each
    assert _SIZES == [
        ("LORNOR", "n_seq", 10_000),
        ("HLP", "n_clouds", 20),
        ("H_ZERO", "layers", 4),
        ("NP_SWEEP", "M", (16, 64, 256)),
        ("NP_SWEEP", "trials", 40),
        ("DD_CORPUS", "n_families", 50),
        ("RESL_SERIES", "n_max", 200),
        ("TR_PPLUS", "n_instances", 10_000),
    ]


def _refused_run(runner, tmp_path, monkeypatch, experiment, params):
    """``lab run`` of a config with an output directory, where every corpus
    draw and every series fails the test: the run must refuse first, and
    make no directory."""
    def started(*args):
        raise AssertionError("started the work")

    monkeypatch.setattr(experiments, "_rng", started)
    monkeypatch.setattr(experiments, "resl_series", started)  # RESL_SERIES draws nothing
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"experiment": experiment, "output": str(tmp_path / "out"), "params": params}))
    result = runner.invoke(main, ["run", str(cfg)])
    assert not (tmp_path / "out").exists()
    return result


@pytest.mark.parametrize("experiment, key", _LISTS, ids=[f"{e}.{k}" for e, k in _LISTS])
def test_empty_list_exits_2(runner, tmp_path, monkeypatch, experiment, key):
    result = _refused_run(runner, tmp_path, monkeypatch, experiment, {key: []})
    assert result.exit_code == 2, result.output
    assert result.output == f"config error: {experiment}: parameter {key!r} takes a non-empty list, got []\n"


@pytest.mark.parametrize("past", [False, True], ids=["zero", "past_100x"])
@pytest.mark.parametrize("experiment, key, default", _SIZES, ids=[f"{e}.{k}" for e, k, _ in _SIZES])
def test_size_out_of_range_exits_before_any_work(runner, tmp_path, monkeypatch, experiment, key, default, past):
    # 0 is a config error (exit 2), 100 times the default + 1 a resource
    # limit (exit 3); a list of sizes is bounded by its largest default item
    many = isinstance(default, tuple)
    bound = 100 * (max(default) if many else default)
    size = bound + 1 if past else 0
    value = [size] if many else size
    result = _refused_run(runner, tmp_path, monkeypatch, experiment, {key: value})
    assert result.exit_code == (3 if past else 2), result.output
    prefix = "resource limit" if past else "config error"
    message = f"parameter {key!r} takes sizes from 1 to {bound}, 100 times its default, got {value!r}"
    assert result.output == f"{prefix}: {experiment}: {message}\n"


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

    def test_node_budget_exits_3(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("fflab.cantor._NODE_BUDGET", 27)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["construct", "--preset", "norm-growth", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "resource limit: the tree would hold 28 nodes" in result.output
        assert not out.exists()

    def test_deep_layer_law_exits_3_while_resolving_the_preset(self, runner, tmp_path):
        # the greedy branching passes the node budget at step 36
        out = tmp_path / "m.json"
        started = time.perf_counter()
        result = runner.invoke(main, ["construct", "--preset", "layer-law", "--depth", "5", "--out", str(out)])
        assert time.perf_counter() - started < 1.0
        assert result.exit_code == 3, result.output
        assert "resource limit: the tree would hold 66314 nodes" in result.output
        assert not out.exists()

    def test_negative_seed_exits_2(self, runner, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["construct", "--preset", "norm-growth", "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "-1 is not in the range x>=0" in result.output
        assert not out.exists()

    def test_unknown_preset(self, runner, tmp_path):
        result = runner.invoke(
            main, ["construct", "--preset", "nope", "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "name,depth,message",
        [
            ("norm-growth", "-1", "depth must be non-negative"),
            ("layer-law", "-1", "depth must be non-negative"),
            ("norm-growth", "5", "norm-growth preset supports depth <= 3"),
        ],
        ids=["norm-growth_-1", "layer-law_-1", "norm-growth_5"],
    )
    def test_bad_depth_exits_2(self, runner, tmp_path, name, depth, message):
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["construct", "--preset", name, "--depth", depth, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.output
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda doc: doc.update(version="something-else"), "unsupported measure format"),
            (lambda doc: doc.pop("d"), "lacks the key 'd'"),
            (lambda doc: doc.pop("atoms"), "lacks the key 'atoms'"),
            (lambda doc: doc["atoms"][1].pop("corner"), "lacks the key 'corner'"),
            (lambda doc: doc["atoms"][0].pop("side"), "lacks the key 'side'"),
            (lambda doc: doc["atoms"][1].pop("mass"), "lacks the key 'mass'"),
            (lambda doc: doc["atoms"][0].pop("mass_exact"), "mass_exact is given on 1 of 2 atoms"),
            ("[]", "must be a JSON object, not []"),  # the whole file
            (lambda doc: doc.update(atoms=[[0.0, 1.0, 1.0]]), "atoms must be a list of JSON objects"),
            (lambda doc: doc["atoms"][0].update(corner=0.0), "corner must be a list, not 0.0"),
            (lambda doc: doc.update(d=1.9), "d must be a JSON integer, not 1.9"),
            (lambda doc: doc.update(d=True), "d must be a JSON integer, not True"),
            (lambda doc: doc.update(d="1"), "d must be a JSON integer, not '1'"),
            (lambda doc: doc["atoms"][0].update(side=True), "corner, side and mass must be numbers"),
            (lambda doc: doc["atoms"][1].update(corner=[False]), "corner, side and mass must be numbers"),
            (lambda doc: doc["atoms"][1].update(mass=True), "corner, side and mass must be numbers"),
        ],
        ids=[
            "version", "d", "atoms", "corner", "side", "mass", "mass_exact", "list", "list_atoms", "scalar_corner",
            "float_d", "bool_d", "string_d", "bool_side", "bool_corner", "bool_mass",
        ],
    )
    def test_malformed_measure_exits_2(self, runner, tmp_path, spoil, message):
        doc = json.loads(CubeMeasure(1, (((0.0,), 0.5, 0.5), ((0.5,), 0.5, 0.5)), (0.5, 0.5)).to_json())
        if not isinstance(spoil, str):
            spoil(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(spoil if isinstance(spoil, str) else json.dumps(doc))
        result = runner.invoke(
            main,
            ["spectrum", "--measure", str(bad), "--p", "4", "--q", "2",
             "--extent", "4", "--samples", "16"],
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: ") and message in result.output

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--samples", "0", "at least 2"),
            ("--samples", "-2", "at least 2"),
            ("--p", "0", "p must be positive"),
        ],
        ids=["samples_0", "samples_-2", "p_0"],
    )
    def test_bad_grid_or_exponent_exits_2_before_the_transform(
        self, runner, tmp_path, monkeypatch, option, value, message
    ):
        def transform(*args):
            raise AssertionError("transformed a measure under a bad option")

        monkeypatch.setattr(cli_mod, "cube_measure_transform", transform)
        measure = tmp_path / "measure.json"
        measure.write_text(CubeMeasure(1, (((0.0,), 1.0, 1.0),)).to_json())
        args = {"--p": "4", "--q": "2", "--extent": "4", "--samples": "16"}
        args[option] = value
        result = runner.invoke(main, ["spectrum", "--measure", str(measure), *sum(args.items(), ())])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: ") and message in result.output

    def test_oversized_grid_exits_3_before_the_transform(self, runner, tmp_path, monkeypatch):
        def transform(*args):
            raise AssertionError("transformed a measure on an oversized grid")

        monkeypatch.setattr(cli_mod, "cube_measure_transform", transform)
        measure = tmp_path / "measure.json"
        measure.write_text(CubeMeasure(1, (((0.0,), 1.0, 1.0),)).to_json())
        result = runner.invoke(
            main,
            ["spectrum", "--measure", str(measure), "--p", "4", "--q", "2",
             "--extent", "4", "--samples", "1000000000000"],
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith("resource limit: a grid of 1000000000000^1 cells")


class TestVerifyCommand:
    def test_single_fast_criterion_via_api(self):
        from fflab.acceptance import run_criterion

        res = run_criterion(1)
        assert res.passed, res.detail
        assert res.name == "layer_sum_law"

    def test_negative_seed_exits_2(self, runner, monkeypatch):
        def verify_all(seed):
            raise AssertionError("ran the suite at a negative seed")

        monkeypatch.setattr(cli_mod, "verify_all", verify_all)
        result = runner.invoke(main, ["verify", "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "-1 is not in the range x>=0" in result.output

    def test_json_stdout_is_one_document(self, runner, monkeypatch):
        # under --json the progress lines go to stderr, so stdout parses
        from fflab.acceptance import run_criterion, summary_json

        results = [run_criterion(n) for n in (1, 4)]
        monkeypatch.setattr(cli_mod, "verify_all", lambda seed: results)
        result = runner.invoke(main, ["verify", "--json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout) == json.loads(summary_json(results))
        lines = r"PASS criterion  1 layer_sum_law \(\d+\.\d\ds\)\nPASS criterion  4 ooo_scaling \(\d+\.\d\ds\)\n"
        assert re.fullmatch(lines, result.stderr)

    def test_summary_json_shape(self):
        from fflab.acceptance import CriterionResult, summary_json

        check = CheckResult("layer_sum_law", 0.25, 0.5)
        doc = json.loads(
            summary_json([CriterionResult(1, "layer_sum_law", True, "ok", 0.1, (check,))])
        )
        assert doc == [
            {
                "criterion": 1, "name": "layer_sum_law", "passed": True, "detail": "ok",
                "checks": [{"name": "layer_sum_law", "value": 0.25, "bound": 0.5, "margin": 0.5, "passed": True}],
            }
        ]

    def test_summary_json_carries_each_check_record(self):
        from fflab.acceptance import run_criterion, summary_json

        texts = [summary_json([run_criterion(n) for n in (1, 7)]) for _ in range(2)]
        assert texts[0] == texts[1]
        records = [c for r in json.loads(texts[0]) for c in r["checks"]]
        assert [c["name"] for c in records] == [
            "layer_sum_law", "dd_l2_ratio_regression", "dd_sobolev_ratio_regression", "dd_two_bump_orthogonality",
        ]
        assert all(c["passed"] and c["margin"] >= 0 and c["value"] <= c["bound"] for c in records)
