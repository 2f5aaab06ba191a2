"""Config parsing, validation diagnostics, batch runs, output determinism."""

import configparser
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanauth import cli, raytrace
from chanauth.cli import _SCHEMA, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, PRESETS, REGIME_NAMES, load_config, main, run, validate
from chanauth.detect import Regime
from chanauth.harness import SweepAxis, apply_sweep_value

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


# BASE sweeps b_T, the setting time_invariant fixes; under that name a test
# sweeps W instead.
OFF_AXIS = {"time_invariant": {"sweep.param": "W", "sweep.values": "5e6 1e7"}}
GOLDEN = Path(__file__).resolve().parent / "golden"

# The threshold is this pair's noncentrality, so the CDF sits at the mean of
# a Poisson mixture far past 2^20 terms (x/2 ~ 5.2e19).
TERM_CAP = {
    "test.regime": "time_invariant",
    "test.threshold_override": "1.043219786681157e20",
    "budget.P_T": "1e20",
    "grid.counts": "2 1",
    "sweep.param": "P_T",
    "sweep.values": "1e20",
}


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
        assert config.regime == "low_bc" and config.test.regime is Regime.GENERAL and config.channel.Bc == 0.0
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
            ({"scene.c": "0"}, "[scene]"),
            ({"scene.wall_reflectivity": "nan"}, "[scene]"),
            ({"scene.dimensions": "5 5 5"}, "scene.dimensions"),
            ({"channel.f0": "inf"}, "[channel]"),
            ({"channel.b_T": "1e300"}, "channel.b_T"),
            ({"test.threshold_override": "nan"}, "test.threshold_override"),
            ({"sweep.param": "M"}, "sweep.param"),
            ({"run.seed": "-1"}, "run.seed"),
            ({"channel.T": "1e-3"}, "channel.T: unknown key"),
            ({"grid.spacing": "nan"}, "[grid]"),
            ({"grid.height": "inf"}, "[grid]"),
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

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_are_general_on_a_fixed_channel(self, tmp_path, name):
        # A preset is the general detector with one sweep setting of the
        # channel fixed, once, for the sweep and the calibration alike.
        axis, value = PRESETS[name]
        overrides = {"sweep.param": "P_T", "sweep.values": "10 100"}
        config, diags = load_config(write_cfg(tmp_path, **overrides, **{"test.regime": name}))
        general, _ = load_config(write_cfg(tmp_path, name="general.cfg", **overrides, **{"test.regime": "general"}))
        assert diags == [] and config.regime == name
        assert config.test.regime is Regime.GENERAL and config.test == general.test
        fixed = {SweepAxis.B_C: config.channel.Bc, SweepAxis.B_T: config.b_T, SweepAxis.SPATIAL_MODE: config.channel.spatial_mode.value}
        assert fixed[axis] == value
        channel, _, b_T = apply_sweep_value(general.channel, general.budget, general.b_T, axis, value)
        assert config.channel == channel and config.b_T == b_T

    def test_regime_names(self):
        assert REGIME_NAMES == ["full_spatial", "general", "high_bc", "low_bc", "time_invariant", "unknown"]

    def test_infinite_coherence_bandwidth(self, tmp_path):
        config, diags = load_config(write_cfg(tmp_path, **{"channel.B_c": "inf", "test.regime": "general"}))
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

    @pytest.mark.parametrize("regime", ["general", "unknown"])
    def test_threshold_override_targets_exact_alpha(self, tmp_path, regime):
        # The override, not test.alpha, sets the size, so alpha_target is the
        # exact size that alpha_hat estimates; summary.txt keeps test.alpha.
        out = tmp_path / "out"
        path = write_cfg(tmp_path, **{"test.regime": regime, "test.threshold_override": "14"})
        assert run(path, out) == EXIT_OK
        _, calib = read_outputs(out)
        summary = (out / "summary.txt").read_text().splitlines()
        assert calib["alpha_target"] == next(line.removeprefix("exact_alpha: ") for line in summary if line.startswith("exact_alpha: "))
        assert float(calib["alpha_target"]) != 0.01 and "alpha: 0.01" in summary
        assert abs(float(calib["alpha_hat"]) - float(calib["alpha_target"])) <= 4.0 * float(calib["std_err"])

    def test_config_error_exit(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(write_cfg(tmp_path, **{"test.alpha": "1.5"}), out) == EXIT_CONFIG
        assert "test.alpha" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_runtime_error_removes_partial_outputs(self, tmp_path, capsys, monkeypatch):
        # A failure after sweep.csv is written must leave no partial outputs.
        def fail_after_sweep_csv(out_dir, *args):
            (out_dir / "sweep.csv").write_text("partial\n")
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "_write_outputs", fail_after_sweep_csv)
        path = write_cfg(tmp_path)
        assert validate(path) == []
        out = tmp_path / "out"
        assert run(path, out) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing_file", "under_a_file"])
    def test_unusable_out_dir(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("not a directory\n")
        assert main(["run", str(write_cfg(tmp_path)), "--out", str(tmp_path / out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and str(tmp_path / out) in err
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_seed_reproducibility(self, tmp_path):
        path = write_cfg(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(path, out1, seed=11) == EXIT_OK
        assert run(path, out2, seed=11, threads=4) == EXIT_OK
        for name in ("sweep.csv", "calibration.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_traces_grid_once(self, tmp_path, monkeypatch):
        # A P_T sweep keeps the tones, so the sweep and the calibration share one trace.
        calls = []
        real = raytrace.response_matrix
        monkeypatch.setattr(raytrace, "response_matrix", lambda *a: calls.append(1) or real(*a))
        path = write_cfg(tmp_path, **{"sweep.param": "P_T", "sweep.values": "1 10 100"})
        assert run(path, tmp_path / "out") == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, key, value", [("low_bc", "channel.B_c", "0"), ("high_bc", "channel.B_c", "inf"), ("time_invariant", "channel.b_T", "0")]
    )
    def test_preset_runs_its_channel_everywhere(self, tmp_path, name, key, value):
        # The sweep, the calibration and the exact size of a preset are those
        # of the general detector with the preset's setting written out; only
        # the echoed regime differs.  The spatial_mode sweep rebuilds the
        # channel for every row, and each row must keep the preset's setting.
        overrides = {"sweep.param": "spatial_mode", "sweep.values": "independent fully_correlated"}
        outs = []
        for cfg_name, extra in ((name, {}), ("general", {key: value})):
            path = write_cfg(tmp_path, name=f"{cfg_name}.cfg", **overrides, **extra, **{"test.regime": cfg_name})
            assert run(path, tmp_path / cfg_name) == EXIT_OK
            rows, calib = read_outputs(tmp_path / cfg_name)
            summary = (tmp_path / cfg_name / "summary.txt").read_text().splitlines()
            assert {row.pop("regime") for row in rows} == {calib.pop("regime")} == {cfg_name}
            outs.append((rows, calib, [line for line in summary if line.startswith("exact_alpha: ")]))
        assert outs[0] == outs[1]

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
            ({"test.regime": "unknown"}, "test.threshold_override"),
            # M kT N_F b / P_T underflows to 0, though every factor is in range.
            ({"budget.kT": "1e-100", "budget.N_F": "1e-100", "budget.b": "1e-100", "budget.P_T": "1e100"}, "[budget]"),
            ({"sweep.param": "b_T", "sweep.values": "-0.1 0.5"}, "sweep.values"),
            ({"sweep.param": "b_T", "sweep.values": "0.5 inf"}, "sweep.values"),
            # A calibration of 1e12 trials at M = 5 would run for weeks.
            ({"run.trials": "1000000000000"}, "run.trials"),
            # A 1e10-point grid would hold hundreds of GB.
            ({"grid.counts": "100000 100000", "grid.spacing": "0.00004"}, "grid.counts"),
            # A line of 1e7 tones, and ~5e6 image sources.
            ({"channel.M": "10000000"}, "channel.M"),
            ({"scene.max_order": "200"}, "scene.max_order"),
            # More tones than a float holds: noise_variance would overflow.
            ({"channel.M": "1" + "0" * 400}, "channel.M"),
            ({"sweep.param": "M", "sweep.values": "5 1" + "0" * 400}, "sweep.values"),
            # 1e11 of a million-point grid's 5e11 pairs: numpy draws them by
            # shuffling every rank, 8 B each.
            ({"grid.counts": "1000 1000", "grid.spacing": "0.004", "run.pair_budget": "100000000000"}, "run.pair_budget"),
        ],
    )
    def test_unrunnable_values_fail_validation(self, tmp_path, capsys, overrides, key):
        path = write_cfg(tmp_path, **overrides)
        assert any(key in d for d in validate(path))
        assert run(path, tmp_path / "out") == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, overrides",
        [
            (GOLDEN / "room_grid.cfg", {"grid.counts": "600 400", "grid.spacing": "0.01"}),
            (GOLDEN.parents[1] / "configs" / "fig4.cfg", {"run.pair_budget": "100000000"}),
            (GOLDEN.parents[1] / "configs" / "fig5.cfg", {"run.pair_budget": "100000000"}),
        ],
        ids=["room_grid_240000_points", "fig4_all_pairs", "fig5_all_pairs"],
    )
    def test_ci_sizes_are_under_the_caps(self, tmp_path, config, overrides):
        # The sizes CI runs: 240 000 points at b_T = 0, and all 32 640 pairs.
        assert validate(write_cfg(tmp_path, config.read_text(), **overrides)) == []

    def test_image_count_is_the_traced_count(self):
        # validate counts the images in closed form, without listing them.
        for n in range(23):
            images, _ = raytrace.image_sources(raytrace.RoomScene(max_order=n), (1.0, 2.0, 1.5))
            assert cli._image_count(n) == len(images), n
        assert cli._image_count(20) <= raytrace._BLOCK_ELEMENTS < cli._image_count(21)

    @pytest.mark.parametrize(
        "text, position",
        [(BASE, "2.0 2.0 1.0"), ((GOLDEN / "room_grid.cfg").read_text(), "3.5 3.5 1.0")],
        ids=["exp", "room_grid"],
    )
    def test_receiver_on_a_grid_point(self, tmp_path, capsys, text, position):
        # A transmitter on the receiver has no path length.  room_grid runs at
        # b_T = 0 and traces only its sampled pairs' rows, so a run alone
        # would fail or not depending on the pair sample.
        path = write_cfg(tmp_path, text, **{"bob.position": position})
        assert any("bob.position" in d for d in validate(path))
        assert run(path, tmp_path / "out") == EXIT_CONFIG
        assert "bob.position" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        spacing=st.sampled_from([0.1, 0.3, 0.4, 1 / 3, 0.7, 3e-16, 1e-17]),
        counts=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        pick=st.integers(0, 143),
        nudge=st.sampled_from([None, 0, 1, 2]),
        direction=st.sampled_from([-np.inf, np.inf]),
    )
    def test_on_grid_is_the_traced_distance_test(self, origin, spacing, counts, pick, nudge, direction):
        # validate's check reads one coordinate per axis; it must agree with
        # response_matrix's test over the whole grid at a grid point and one
        # step off it on any axis, also where the spacing is below a
        # coordinate's rounding step.
        grid = raytrace.GridSpec(origin=origin, spacing=spacing, counts=counts, height=1.0)
        positions = raytrace.grid_positions(grid)
        point = positions[pick % len(positions)].copy()
        if nudge is not None:
            point[nudge] = np.nextafter(point[nudge], direction)
        expected = bool(np.any(np.sum(np.square(positions - point), axis=1) == 0))
        assert cli._on_grid(grid, tuple(point)) == expected

    @pytest.mark.parametrize(
        "regime, param, values",
        [
            ("low_bc", "B_c", "0 2e6 inf"),
            ("high_bc", "B_c", "0 2e6 inf"),
            ("time_invariant", "b_T", "0 0.5 5"),
            ("full_spatial", "spatial_mode", "independent fully_correlated"),
        ],
    )
    def test_preset_setting_cannot_be_swept(self, tmp_path, capsys, regime, param, values):
        # The preset fixes the swept setting, so every row would repeat one
        # channel: the config is rejected naming both keys.
        path = write_cfg(tmp_path, **{"test.regime": regime, "sweep.param": param, "sweep.values": values})
        assert any("sweep.param" in d and "test.regime" in d for d in validate(path))
        out = tmp_path / "out"
        assert run(path, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep.param" in err and "test.regime" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "f0, beta_bar",
        [
            ("1e20", (0.0035165237231037593, 0.0033732219126545314)),
            ("1e60", (4.571638978749714e-06, 0.003268594077743086)),
            ("1e99", (4.569031185897117e-06, 0.0030298055360458453)),
        ],
    )
    def test_huge_carrier_frequency(self, tmp_path, capsys, f0, beta_bar):
        # Path phases reach ~1e93 rad, far past numerics._cos_sin's exact range
        # reduction, where it hands them to np.exp.  beta_bar are the values
        # of the trace that took every path phasor as np.exp(1j * phase).
        path = write_cfg(tmp_path, **{"channel.f0": f0})
        assert validate(path) == []
        assert run(path, tmp_path / "out") == EXIT_OK, capsys.readouterr().err
        rows, _ = read_outputs(tmp_path / "out")
        assert [float(row["beta_bar"]) for row in rows] == pytest.approx(beta_bar, rel=1e-12, abs=0.0)

    def test_noncentral_cdf_past_its_term_cap(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **TERM_CAP)
        assert validate(path) == []
        assert run(path, tmp_path / "out") == EXIT_OK, capsys.readouterr().err
        rows, _ = read_outputs(tmp_path / "out")
        assert [0.0 <= float(row["beta_bar"]) <= 1.0 for row in rows] == [True]

    @pytest.mark.parametrize("Bc", ["0", "2e6", "inf"])
    @pytest.mark.parametrize("P_T", ["1e16", "1e20", "1e100"])
    @pytest.mark.parametrize("regime", REGIME_NAMES)
    def test_high_snr(self, tmp_path, capsys, regime, P_T, Bc):
        # Noise far below the variation: a config is rejected naming [budget]
        # (its noise variance leaves the supported magnitudes) or it runs.
        overrides = {"run.trials": "300", "test.regime": regime, "budget.P_T": P_T, "channel.B_c": Bc}
        overrides.update(OFF_AXIS.get(regime, {}))
        if regime == "unknown":
            overrides["test.threshold_override"] = "40"
        path = write_cfg(tmp_path, **overrides)
        diags = validate(path)
        rc = run(path, tmp_path / "out")
        if diags:
            assert rc == EXIT_CONFIG and all("[budget]" in d for d in diags), diags
            return
        assert rc == EXIT_OK, capsys.readouterr().err
        rows, calib = read_outputs(tmp_path / "out")
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= float(row["beta_bar"]) <= 1.0 and math.isfinite(float(row["std_err"])), row
        assert math.isfinite(float(calib["alpha_hat"])) and math.isfinite(float(calib["std_err"])), calib

    @pytest.mark.parametrize("override", ["1e6", "1e100"])
    @pytest.mark.parametrize("regime", REGIME_NAMES)
    def test_large_threshold_override(self, tmp_path, capsys, time_limit, regime, override):
        # A threshold far above every score accepts every spoofer, and quickly:
        # the contour evaluator's panel count once grew without bound with it.
        overrides = {"run.trials": "300", "test.regime": regime, "test.threshold_override": override}
        path = write_cfg(tmp_path, **overrides, **OFF_AXIS.get(regime, {}))
        assert validate(path) == []
        with time_limit(60):
            rc = run(path, tmp_path / "out")
        assert rc == EXIT_OK, capsys.readouterr().err
        rows, _ = read_outputs(tmp_path / "out")
        assert all(abs(float(row["beta_bar"]) - 1.0) <= 1e-13 for row in rows), rows

    @pytest.mark.xfail(strict=True, reason="the contour's cost is unbounded near the mean (ROADMAP item 13)")
    def test_threshold_at_the_mean_of_a_huge_offset(self, tmp_path, capsys, time_limit):
        # The threshold is this pair's mean Z: the contour's panels follow
        # x and the offsets, not their difference, so the run never ends.
        overrides = {
            "test.regime": "general",
            "budget.P_T": "1e12",
            "grid.counts": "2 1",
            "sweep.values": "1e-6",
            "test.threshold_override": "1027787308701.9921",
        }
        path = write_cfg(tmp_path, **overrides)
        assert validate(path) == []
        with time_limit(1):
            rc = run(path, tmp_path / "out")
        assert rc == EXIT_OK, capsys.readouterr().err


def read_outputs(out: Path) -> tuple[list[dict], dict]:
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "calibration.csv") as fh:
        (calib,) = csv.DictReader(fh)
    return rows, calib


_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_TOKENS = [
    None,  # delete the key
    "", "abc", "0", "1", "-1", "2", "0.5", "inf", "-inf", "nan", "1e-300", "1e300",
    "1+1j", "nan+0j", "1 2", "1 2 3", "0 0 0", "nan 2 3", "1e300 1 1", "5 5 5",
    "independent fully_correlated", "general", "low_bc", "high_bc", "unknown", "full_spatial",
    "time_invariant", "b_T", "W", "M", "P_T", "B_c", "spatial_mode",
]
_RAW_VALUES = st.one_of(
    st.sampled_from(_TOKENS),
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.floats(-20.0, 20.0).map(repr), min_size=1, max_size=4).map(" ".join),
)


class TestMutatedConfig:
    """Any one-key mutation of a small valid config, low_bc or general:
    validate and run reject it with exit 2 naming the key, or run exits 0
    with finite, in-range CSVs."""

    @settings(max_examples=200, deadline=None)
    @given(base=st.sampled_from(["low_bc", "general"]), target=st.sampled_from(_KEYS), raw=_RAW_VALUES)
    # The receiver on one of two grid points, and one step above the first.
    @example(base="low_bc", target=("bob", "position"), raw="2.0 2.0 1.0")
    @example(base="general", target=("bob", "position"), raw="2.8 2.4 1.0")
    @example(base="general", target=("bob", "position"), raw="2.0 2.0 1.0000000000000002")
    def test_one_key_mutation(self, base, target, raw):
        # A general base sends every threshold through the contour evaluator,
        # a low_bc one through the equal-weight noncentral CDF.
        section, key = target
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = write_cfg(tmp, **{"run.trials": "300", "test.regime": base, f"{section}.{key}": raw})
            config, diags = load_config(path)
            rc = run(path, tmp / "out")
            if diags:
                assert rc == EXIT_CONFIG
                assert any(f"{section}.{key}" in d or f"[{section}]" in d for d in diags), diags
                return
            assert rc == EXIT_OK
            rows, calib = read_outputs(tmp / "out")
        assert len(rows) == len(config.sweep_values)
        for row in rows:
            assert 0.0 <= float(row["beta_bar"]) <= 1.0, row
            assert math.isfinite(float(row["std_err"])), row
        assert math.isfinite(float(calib["alpha_hat"])) and math.isfinite(float(calib["std_err"])), calib


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig7"])
def test_shipped_config_runs(config_run, name):
    # config_run shares the one run of each shipped config with tests/test_golden.py.
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    assert main(["validate", str(path)]) == EXIT_OK
    rows, calib = read_outputs(config_run(path))
    assert rows and all(math.isfinite(float(r["std_err"])) for r in rows)
    assert all(0.0 <= float(r["beta_bar"]) <= 1.0 for r in rows)
    alpha_hat, se = float(calib["alpha_hat"]), float(calib["std_err"])
    assert math.isfinite(alpha_hat) and math.isfinite(se)
    assert abs(alpha_hat - float(calib["alpha_target"])) <= 4.0 * se


def test_run_imports_no_scipy(tmp_path):
    # scipy is a test-only oracle: a run in a fresh interpreter must not load it, whatever the regime.
    # Nor numpy.polynomial (~1.5 MB of every process), whose Gauss-Legendre rule numerics keeps as constants,
    # nor numpy.ma, which np.unique imports (~13 ms and ~0.5 MB of a run).
    configs = [
        write_cfg(tmp_path, name=f"{regime}.cfg", **{"test.regime": regime}, **OFF_AXIS.get(regime, {}))
        for regime in ("low_bc", "high_bc", "general", "full_spatial", "time_invariant")
    ]
    code = (
        "import sys\n"
        "import chanauth\n"
        "from chanauth import cli\n"
        "for config in sys.argv[2:]:\n"
        "    assert cli.main(['run', config, '--out', sys.argv[1]]) == 0, config\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy' or name.split('.')[:2] in (['numpy', 'polynomial'], ['numpy', 'ma'])))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out"), *map(str, configs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestMain:
    def test_validate_subcommand(self, tmp_path):
        assert main(["validate", str(write_cfg(tmp_path))]) == EXIT_OK
        bad = write_cfg(tmp_path, name="bad.cfg", **{"channel.a": "1.2"})
        assert main(["validate", str(bad)]) == EXIT_CONFIG

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", str(write_cfg(tmp_path)), "--out", str(out), "--seed", "7"])
        assert rc == EXIT_OK and (out / "sweep.csv").exists()

    def test_negative_seed_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_cfg(tmp_path)), "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    def test_run_requires_out(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(write_cfg(tmp_path))])
