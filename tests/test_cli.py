"""Config parsing, validation diagnostics, batch runs, output determinism."""

import configparser

import pytest

from chanauth.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, load_config, main, run, validate
from chanauth.detect import Regime
from chanauth.harness import SweepAxis

BASE = """
[scene]
dimensions = 10 8 3

[grid]
origin = 2.0 2.0
spacing = 0.4
counts = 3 3
height = 1.0

[bob]
position = 8.0 6.0 2.0

[budget]
P_T = 100

[channel]
f0 = 5e9
W = 1e7
M = 5
a = 0.9
B_c = 2e6
b_T = 0.5

[test]
alpha = 0.01
regime = low_bc

[sweep]
param = b_T
values = 0.1 1.0

[run]
trials = 2000
pair_budget = 6
seed = 3
"""


def write_cfg(tmp_path, text=BASE, name="exp.cfg", **overrides):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        if value is None:
            parser.remove_option(section, key)
        else:
            parser[section][key] = value
    path = tmp_path / name
    with open(path, "w") as fh:
        parser.write(fh)
    return path


class TestLoadConfig:
    def test_valid(self, tmp_path):
        config, diags = load_config(write_cfg(tmp_path))
        assert diags == []
        assert config.test.regime is Regime.LOW_BC_CLOSED_FORM
        assert config.sweep_param is SweepAxis.B_T
        assert config.sweep_values == (0.1, 1.0)
        assert config.trials == 2000 and config.pair_budget == 6 and config.seed == 3

    def test_defaults(self, tmp_path):
        config, diags = load_config(write_cfg(tmp_path, **{"run.trials": None, "run.seed": None}))
        assert diags == []
        assert config.trials == 10_000 and config.seed == 0
        assert config.scene.wall_reflectivity == -0.7 and config.budget.N_F == 10.0

    def test_missing_file(self, tmp_path):
        config, diags = load_config(tmp_path / "nope.cfg")
        assert config is None and "cannot read config" in diags[0]

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"test.alpha": "1.5"}, "test.alpha"),
            ({"channel.a": "1.2"}, "[channel]"),
            ({"channel.W": None}, "channel.W: missing required key"),
            ({"channel.M": "4.5"}, "channel.M"),
            ({"scene.dimensions": "10 8"}, "scene.dimensions"),
            ({"grid.origin": "-1 2"}, "[grid]"),
            ({"bob.position": "20 6 2"}, "bob.position"),
            ({"test.regime": "bogus"}, "test.regime"),
            ({"sweep.param": "bogus"}, "sweep.param"),
            ({"sweep.values": "  "}, "sweep.values"),
            ({"run.trials": "0"}, "run.trials"),
            ({"budget.P_T": "-1"}, "[budget]"),
        ],
    )
    def test_diagnostics_name_the_key(self, tmp_path, overrides, fragment):
        config, diags = load_config(write_cfg(tmp_path, **overrides))
        assert config is None
        assert any(fragment in d for d in diags), diags

    def test_unknown_key_and_section(self, tmp_path):
        path = write_cfg(tmp_path)
        with open(path, "a") as fh:
            fh.write("\n[mystery]\nx = 1\n")
        config, diags = load_config(path)
        assert config is None
        assert any("[mystery]: unknown section" in d for d in diags)
        config, diags = load_config(write_cfg(tmp_path, **{"channel.frequency": "1"}))
        assert any("channel.frequency: unknown key" in d for d in diags)

    def test_multiple_diagnostics_collected(self, tmp_path):
        _, diags = load_config(write_cfg(tmp_path, **{"channel.W": None, "test.alpha": "zzz"}))
        assert len(diags) >= 2

    def test_infinite_coherence_bandwidth(self, tmp_path):
        config, diags = load_config(write_cfg(tmp_path, **{"channel.B_c": "inf"}))
        assert diags == [] and config.channel.Bc == float("inf")

    def test_spatial_mode_values(self, tmp_path):
        config, diags = load_config(
            write_cfg(tmp_path, **{"sweep.param": "spatial_mode", "sweep.values": "independent fully_correlated"})
        )
        assert diags == [] and config.sweep_values == ("independent", "fully_correlated")
        _, diags = load_config(write_cfg(tmp_path, **{"sweep.param": "spatial_mode", "sweep.values": "sideways"}))
        assert any("sweep.values" in d for d in diags)


class TestValidate:
    def test_clean_config(self, tmp_path):
        assert validate(write_cfg(tmp_path)) == []

    def test_broken_config(self, tmp_path):
        assert validate(write_cfg(tmp_path, **{"test.alpha": "1.5"})) != []


class TestRun:
    def test_successful_run(self, tmp_path):
        out = tmp_path / "out"
        assert run(write_cfg(tmp_path), out) == EXIT_OK
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "sweep_param,value,beta_bar,std_err,pair_count,alpha,regime"
        assert len(sweep) == 3  # header + one row per swept value
        for line in sweep[1:]:
            cells = line.split(",")
            assert cells[0] == "b_T" and cells[4] == "6" and cells[6] == "low_bc"
            assert 0.0 <= float(cells[2]) <= 1.0
        calib = (out / "calibration.csv").read_text().splitlines()
        assert calib[0] == "regime,alpha_target,alpha_hat,std_err,trials"
        assert calib[1].startswith("low_bc,0.01,")
        assert "config_sha256:" in (out / "summary.txt").read_text()

    def test_config_error_exit(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(write_cfg(tmp_path, **{"test.alpha": "1.5"}), out) == EXIT_CONFIG
        assert "test.alpha" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_runtime_error_removes_partial_outputs(self, tmp_path, capsys):
        # unknown-params regime with no threshold passes validation but cannot run
        path = write_cfg(tmp_path, **{"test.regime": "unknown"})
        assert validate(path) == []
        out = tmp_path / "out"
        assert run(path, out) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_seed_reproducibility(self, tmp_path):
        path = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(path, out1, seed=11) == EXIT_OK
        assert run(path, out2, seed=11, threads=4) == EXIT_OK
        for name in ("sweep.csv", "calibration.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(path, out1, seed=11) == EXIT_OK
        assert run(path, out2, seed=12) == EXIT_OK
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()


class TestValidateMatchesRun:
    """A config that validate accepts must run; one that cannot run must be
    rejected up front with exit 2, naming the key."""

    def test_grid_needs_two_points(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **{"grid.counts": "1 1"})
        assert any("grid.counts" in d for d in validate(path))
        out = tmp_path / "out"
        assert run(path, out) == EXIT_CONFIG
        assert "grid.counts" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"sweep.param": "W", "sweep.values": "-5e6 1e7"}, "sweep.values"),
            ({"sweep.param": "W", "sweep.values": "1e7 nan"}, "sweep.values"),
            ({"sweep.param": "B_c", "sweep.values": "-1 2e6"}, "sweep.values"),
            ({"sweep.param": "P_T", "sweep.values": "0 100"}, "sweep.values"),
            ({"test.alpha": "1e-300"}, "test.alpha"),
        ],
    )
    def test_unrunnable_values_fail_validation(self, tmp_path, capsys, overrides, key):
        path = write_cfg(tmp_path, **overrides)
        assert any(key in d for d in validate(path))
        assert run(path, tmp_path / "out") == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestMain:
    def test_validate_subcommand(self, tmp_path):
        assert main(["validate", str(write_cfg(tmp_path))]) == EXIT_OK
        bad = write_cfg(tmp_path, name="bad.cfg", **{"channel.a": "1.2"})
        assert main(["validate", str(bad)]) == EXIT_CONFIG

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path)), "--out", str(out), "--seed", "7"])
        assert rc == EXIT_OK and (out / "sweep.csv").exists()

    def test_run_requires_out(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(write_cfg(tmp_path))])
