"""Batch front door: validate and run experiment configs, emit CSV tables.

Configs are INI files with sections mirroring the library modules (scene,
grid, bob, budget, channel, test, sweep, run).  A run writes sweep.csv,
calibration.csv, and summary.txt into the output directory; outputs are
deterministic for a fixed seed and locale-independent.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import harness, raytrace
from .channel import ChannelParams, SpatialMode
from .detect import Regime, TestConfig
from .harness import (
    LinkBudget,
    SweepAxis,
    apply_sweep_value,
    false_alarm_rate,
    noise_variance,
    resolve_variances,
    room_sweep,
    simulate_error_rates,
)
from .numerics import RngStream, chi2_inv
from .raytrace import GridSpec, RoomScene, RoomTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# test.regime's channel presets: the general detector with one sweep setting
# fixed, once, for the sweep, the calibration and the exact size alike.
PRESETS = {
    "low_bc": (SweepAxis.B_C, 0.0),
    "high_bc": (SweepAxis.B_C, math.inf),
    "time_invariant": (SweepAxis.B_T, 0.0),
    "full_spatial": (SweepAxis.SPATIAL_MODE, SpatialMode.FULLY_CORRELATED.value),
}
REGIME_NAMES = sorted([*(r.value for r in Regime), *PRESETS])

_SCHEMA = {
    "scene": {
        "dimensions": ("required", "floats3"),
        "wall_reflectivity": ("optional", "complex"),
        "max_order": ("optional", "int"),
        "c": ("optional", "float"),
        "amplitude_scale": ("optional", "float"),
    },
    "grid": {
        "origin": ("required", "floats2"),
        "spacing": ("required", "float"),
        "counts": ("required", "ints2"),
        "height": ("required", "float"),
    },
    "bob": {"position": ("required", "floats3")},
    "budget": {
        "P_T": ("required", "float"),
        "kT": ("optional", "float"),
        "N_F": ("optional", "float"),
        "b": ("optional", "float"),
    },
    "channel": {
        "f0": ("required", "float"),
        "W": ("required", "float"),
        "M": ("required", "int"),
        "a": ("required", "float"),
        "B_c": ("required", "float"),
        "b_T": ("required", "float"),
    },
    "test": {
        "alpha": ("required", "float"),
        "regime": ("required", "regime"),
        "threshold_override": ("optional", "float"),
    },
    "sweep": {"param": ("required", "sweep_axis"), "values": ("required", "values")},
    "run": {
        "trials": ("optional", "int"),
        "pair_budget": ("optional", "int"),
        "seed": ("optional", "int"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    scene: RoomScene
    grid: GridSpec
    bob: tuple[float, float, float]
    budget: LinkBudget
    channel: ChannelParams  # sigma_T/sigma_N2 are placeholders until the room is known
    b_T: float
    regime: str  # test.regime as written: a detector or a PRESETS name, echoed in the outputs
    test: TestConfig
    sweep_param: SweepAxis
    sweep_values: tuple
    trials: int
    pair_budget: int
    seed: int


# Nonzero finite inputs must have magnitudes in this range: a product or a
# square of a few of them (b_T times the room gain, tones / c, |h|^2) would
# otherwise overflow float64 in the middle of a run.
_MAGNITUDE_RANGE = (1e-100, 1e100)

# The calibration's cost in ns per trial x tone, an upper envelope of what
# README ("Limits") measured for M = 1 to 16384 at 1 and at M folded taps.
# validate rejects a run.trials whose calibration would take longer than an
# hour.  An integer, so the prediction is exact however large M and run.trials are.
_CALIBRATION_NS = 800
_CALIBRATION_LIMIT_NS = 3600 * 10**9

# What a run's room trace and pair sample hold, and the trace's cost: upper
# envelopes of what README ("Limits") measured.  validate rejects a grid or a
# pair sample that would hold over _MEMORY_LIMIT bytes or trace for over an hour.
_POINT_BYTES = 48  # a grid point's position: 24 B held, twice that while grid_positions builds it
_SLOT_BYTES = 8  # a grid point's slot in one tone grid
_TONE_BYTES = 16  # one traced response
_PAIR_BYTES = 200  # a sampled pair's ranks and indices
_PAIR_TONE_BYTES = 80  # a pair's two responses, its offset and the CDF's work, per tone
_PATH_TONE_NS, _PATH_NS, _POINT_TONE_NS = 4, 100, 80  # trace cost per path x tone, per path, per point x tone
_MEMORY_LIMIT = 2 * 2**30
_TRACE_LIMIT_NS = 3600 * 10**9


def _parse_float(raw: str) -> float:
    """A float ("inf" included); NaN and inf are left to the dataclass validators."""
    value = float(raw)
    low, high = _MAGNITUDE_RANGE
    if value != 0 and math.isfinite(value) and not low <= abs(value) <= high:
        raise ValueError(f"{raw.strip()} is outside the supported magnitudes [{low:g}, {high:g}]")
    return value


def _parse_value(kind: str, raw: str):
    if kind == "float":
        return _parse_float(raw)
    if kind == "int":
        return int(raw)
    if kind == "complex":
        return complex(raw.replace(" ", ""))
    if kind in ("floats2", "floats3", "ints2"):
        parts = raw.split()
        n = 3 if kind.endswith("3") else 2
        if len(parts) != n:
            raise ValueError(f"expected {n} whitespace-separated values")
        conv = int if kind.startswith("ints") else _parse_float
        return tuple(conv(p) for p in parts)
    if kind == "regime":
        if raw not in REGIME_NAMES:
            raise ValueError(f"unknown regime {raw!r}; choose from {REGIME_NAMES}")
        return raw
    if kind == "sweep_axis":
        try:
            return SweepAxis(raw)
        except ValueError:
            raise ValueError(f"unknown sweep axis {raw!r}; choose from {[a.value for a in SweepAxis]}")
    if kind == "values":
        return raw  # interpreted later, once the axis is known
    raise AssertionError(kind)


def _parse_sweep_values(axis: SweepAxis, raw: str) -> tuple:
    parts = raw.split()
    if not parts:
        raise ValueError("sweep values list is empty")
    if axis is SweepAxis.SPATIAL_MODE:
        allowed = ("independent", "fully_correlated")
        for p in parts:
            if p not in allowed:
                raise ValueError(f"spatial_mode value {p!r} not in {allowed}")
        return tuple(parts)
    if axis is SweepAxis.M:
        return tuple(int(p) for p in parts)
    return tuple(_parse_float(p) for p in parts)


def load_config(path: str | Path) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse and validate a config file.

    Returns (config, diagnostics); config is None whenever diagnostics is
    nonempty.  Every diagnostic names the offending section/key.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case (P_T, N_F, ...)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        return None, [f"cannot read config: {exc}"]
    except configparser.Error as exc:
        return None, [f"config syntax error: {exc}"]

    diags: list[str] = []
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            diags.append(f"[{section}]: unknown section")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                diags.append(f"{section}.{key}: unknown key")
    for section, keys in _SCHEMA.items():
        if section not in parser:
            missing = [k for k, (req, _) in keys.items() if req == "required"]
            if missing:
                diags.append(f"[{section}]: missing section (required keys: {', '.join(missing)})")
            continue
        values[section] = {}
        for key, (req, kind) in keys.items():
            if key not in parser[section]:
                if req == "required":
                    diags.append(f"{section}.{key}: missing required key")
                continue
            try:
                values[section][key] = _parse_value(kind, parser[section][key])
            except ValueError as exc:
                diags.append(f"{section}.{key}: {exc}")
    if diags:
        return None, diags

    # Config keys are the field names, so every omitted key takes its type's default.
    built = {}
    for section, cls in (("scene", RoomScene), ("grid", GridSpec), ("budget", LinkBudget)):
        try:
            built[section] = cls(**values[section])
        except ValueError as exc:
            diags.append(f"[{section}]: {exc}")
    ch = values["channel"]
    if not 0 <= ch["b_T"] < math.inf:
        diags.append("channel.b_T: must be nonnegative and finite")
    try:
        params = ChannelParams(
            f0=ch["f0"],
            W=ch["W"],
            M=ch["M"],
            a=ch["a"],
            Bc=ch["B_c"],
            sigma_T=0.0,
            sigma_N2=0.0,
        )
    except ValueError as exc:
        diags.append(f"[channel]: {exc}")
    else:
        if params.M > harness._BLOCK_ELEMENTS:
            diags.append(f"channel.M: {params.M} tones is above {harness._BLOCK_ELEMENTS}, the most one calibration block holds")
    tst = values["test"]
    name = tst["regime"]
    try:
        cfg = TestConfig(**{**tst, "regime": Regime.GENERAL if name in PRESETS else Regime(name)})
    except ValueError as exc:
        # alpha is checked only without an override, so one key is at fault.
        key = "alpha" if tst.get("threshold_override") is None else "threshold_override"
        diags.append(f"test.{key}: {exc}")
    else:
        if cfg.regime is Regime.UNKNOWN and cfg.threshold_override is None:
            diags.append("test.threshold_override: required when test.regime = unknown (its statistic has no nominal size)")
        try:
            if cfg.threshold_override is None:
                chi2_inv(1.0 - cfg.alpha, 2)
        except ValueError as exc:
            diags.append(f"test.alpha: threshold quantile at 1 - alpha = {1.0 - cfg.alpha!r}: {exc}")
    axis = values["sweep"]["param"]
    try:
        sweep_values = _parse_sweep_values(axis, values["sweep"]["values"])
    except ValueError as exc:
        diags.append(f"sweep.values: {exc} (sweep.param = {axis.value})")
        sweep_values = ()
    run = values.get("run", {})
    trials = run.get("trials", 10_000)
    pair_budget = run.get("pair_budget", 2000)
    seed = run.get("seed", 0)
    if trials < 1:
        diags.append("run.trials: must be >= 1")
    if pair_budget < 1:
        diags.append("run.pair_budget: must be >= 1")
    if seed < 0:
        diags.append("run.seed: must be >= 0")
    if diags:
        return None, diags

    # Cross-field checks that need the assembled objects.
    scene, grid, budget = built["scene"], built["grid"], built["budget"]
    b_T = ch["b_T"]
    if name in PRESETS:
        preset_axis, preset_value = PRESETS[name]
        if axis is preset_axis:
            diags.append(f"sweep.param: {axis.value} is fixed by test.regime = {name}; sweep another, or use general")
        params, budget, b_T = apply_sweep_value(params, budget, b_T, preset_axis, preset_value)
    low, high = _MAGNITUDE_RANGE
    # Each tone set the run traces, and whether its room gain is read (b_T > 0).
    tone_sets = {(params.f0, params.W, params.M): True} if b_T > 0 else {}  # the calibration's
    for value in sweep_values:
        try:
            val_params, val_budget, val_b_T = apply_sweep_value(params, budget, b_T, axis, value)
        except ValueError as exc:
            diags.append(f"sweep.values: {_fmt(value)}: {exc}")
            continue
        if val_params.M > harness._BLOCK_ELEMENTS:
            diags.append(f"sweep.values: M = {value} is above {harness._BLOCK_ELEMENTS} tones, the most one calibration block holds")
            continue
        key = (val_params.f0, val_params.W, val_params.M)
        tone_sets[key] = tone_sets.get(key, False) or val_b_T > 0
        sigma_N2 = noise_variance(val_budget, val_params.M)
        if not low <= sigma_N2 <= high:
            diags.append(
                f"[budget]: noise variance M * kT * N_F * b / P_T = {sigma_N2:g} at M = {val_params.M}, "
                f"P_T = {_fmt(val_budget.P_T)} is outside the supported magnitudes [{low:g}, {high:g}]"
            )
    trial_ns = params.M * _CALIBRATION_NS
    if trials * trial_ns > _CALIBRATION_LIMIT_NS:
        diags.append(
            f"run.trials: {trials} trials at M = {params.M} would calibrate for over an hour; "
            f"at most {_CALIBRATION_LIMIT_NS // trial_ns} fit (README, Limits)"
        )
    if _image_count(scene.max_order) > raytrace._BLOCK_ELEMENTS:
        diags.append(
            f"scene.max_order: {scene.max_order} bounces give over {raytrace._BLOCK_ELEMENTS} image sources, "
            "the most one trace block holds (README, Limits)"
        )
    if grid.n_points < 2:
        diags.append(f"grid.counts: {grid.counts[0]} x {grid.counts[1]} has fewer than 2 points, so no pair")
    elif _image_count(scene.max_order) <= raytrace._BLOCK_ELEMENTS:
        diags += _cost_diagnostics(scene, grid, pair_budget, tone_sets)
    dims = scene.dimensions
    bob = values["bob"]["position"]
    bob_inside = all(0 < p < d for p, d in zip(bob, dims))
    if not bob_inside:
        diags.append(f"bob.position: must be strictly inside the room (scene.dimensions = {dims})")
    gx = grid.origin[0] + grid.spacing * (grid.counts[0] - 1)
    gy = grid.origin[1] + grid.spacing * (grid.counts[1] - 1)
    if not (0 < grid.origin[0] and 0 < grid.origin[1] and gx < dims[0] and gy < dims[1] and 0 < grid.height < dims[2]):
        diags.append(f"[grid]: grid points must lie strictly inside the room (scene.dimensions = {dims})")
    elif bob_inside and _on_grid(grid, bob):
        diags.append("bob.position: coincides with a grid point, so that transmitter would sit on the receiver")
    if diags:
        return None, diags

    return (
        ExperimentConfig(
            scene=scene,
            grid=grid,
            bob=values["bob"]["position"],
            budget=budget,
            channel=params,
            b_T=b_T,
            regime=name,
            test=cfg,
            sweep_param=axis,
            sweep_values=sweep_values,
            trials=trials,
            pair_budget=pair_budget,
            seed=seed,
        ),
        [],
    )


def _image_count(max_order: int) -> int:
    """Image sources per endpoint up to ``max_order`` bounces, without listing them.

    Each image is a bounce vector (b_x, b_y, b_z) of signed integers with
    |b_x| + |b_y| + |b_z| <= max_order (raytrace._axis_images puts one
    image at each signed bounce count per axis), and that octahedron holds
    (2n + 1)(2n^2 + 2n + 3)/3 lattice points at n = max_order.
    """
    n = max_order
    return (2 * n + 1) * (2 * n * n + 2 * n + 3) // 3


def _cost_diagnostics(scene: RoomScene, grid: GridSpec, pair_budget: int, tone_sets: dict) -> list[str]:
    """A diagnostic for a grid or a pair sample over the caps, predicted without allocating.

    ``tone_sets`` maps each (f0, W, M) the run traces to whether its room
    gain is read, which traces every grid point; the other sets are traced
    at the sampled pairs' rows.  Tone sets that share a tone grid trace at
    most their tones together, so their sum bounds it.  Under the grid's cap
    n (n - 1) / 2 pairs fit an int64.
    """
    n, images = grid.n_points, _image_count(scene.max_order)

    def trace_ns(rows: int, M: int) -> int:
        return rows * (images * (M * _PATH_TONE_NS + _PATH_NS) + M * _POINT_TONE_NS)

    def over(held: int, ns: int) -> str | None:
        if held > _MEMORY_LIMIT or ns > _TRACE_LIMIT_NS:
            return f"would hold {held / 2**30:.3g} GiB and trace for {ns / 6e10:.3g} min; the caps are 2 GiB and 60 min (README, Limits)"
        return None

    whole = [M for (_, _, M), gain in tone_sets.items() if gain]
    held = n * (_POINT_BYTES + _SLOT_BYTES * len(tone_sets) + _TONE_BYTES * (sum(whole) + max(whole, default=0)))
    problem = over(held, sum(trace_ns(n, M) for M in whole))
    if problem:
        return [f"grid.counts: {grid.counts[0]} x {grid.counts[1]} points {problem}"]
    total = n * (n - 1) // 2
    pairs = min(pair_budget, total)
    # Generator.choice samples over total // 50 of more than 10 000 ranks by shuffling them all.
    draw = 8 * total if pairs == total or (total > 10_000 and pairs > total // 50) else 28 * pairs
    rows = min(n, 2 * pairs)
    parts = [M for (_, _, M), gain in tone_sets.items() if not gain]
    max_M = max((M for _, _, M in tone_sets), default=0)
    held = draw + pairs * (_PAIR_BYTES + _PAIR_TONE_BYTES * max_M) + rows * _TONE_BYTES * sum(parts)
    problem = over(held, sum(trace_ns(rows, M) for M in parts))
    if problem:
        return [f"run.pair_budget: {pairs} of {total} pairs {problem}"]
    return []


def _on_grid(grid: GridSpec, point) -> bool:
    """Whether ``point`` is a grid point by response_matrix's test, a squared distance of 0.

    Grid coordinates are computed as grid_positions does.  Only the one
    nearest to ``point`` on each axis is read, so the grid is not listed.
    """

    def nearest_square(origin: float, count: int, coord: float) -> float:
        k = min(max(round((coord - origin) / grid.spacing), 0), count - 1)
        return (origin + grid.spacing * k - coord) ** 2

    x, y, z = point
    dx2 = nearest_square(grid.origin[0], grid.counts[0], x)
    dy2 = nearest_square(grid.origin[1], grid.counts[1], y)
    return dx2 + dy2 + (grid.height - z) ** 2 == 0


def validate(config_path: str | Path) -> list[str]:
    """Full validation without execution; an empty list means runnable."""
    _, diags = load_config(config_path)
    return diags


def _fmt(x) -> str:
    """Shortest round-trip decimal representation, locale-independent."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_outputs(out_dir: Path, config: ExperimentConfig, config_path: Path, result, calibration):
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_param", "value", "beta_bar", "std_err", "pair_count", "alpha", "regime"])
        for value, beta, se in zip(result.values, result.beta_bar, result.std_err):
            writer.writerow(
                [
                    result.swept_param,
                    _fmt(value),
                    _fmt(beta),
                    _fmt(se),
                    result.pair_count,
                    _fmt(config.test.alpha),
                    config.regime,
                ]
            )
    with open(out_dir / "calibration.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "alpha_target", "alpha_hat", "std_err", "trials"])
        rates, exact_alpha = calibration
        # A threshold override sets the size, so alpha_hat estimates exact_alpha, not test.alpha.
        target = config.test.alpha if config.test.threshold_override is None else exact_alpha
        writer.writerow([config.regime, _fmt(target), _fmt(rates.alpha_hat), _fmt(rates.alpha_se), rates.trials])
    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write("chanauth sweep summary\n")
        fh.write(f"config: {config_path.name}\n")
        fh.write(f"config_sha256: {digest}\n")
        fh.write(f"seed: {config.seed}\n")
        fh.write(f"regime: {config.regime}\n")
        fh.write(f"alpha: {_fmt(config.test.alpha)}\n")
        fh.write(f"pair_count: {result.pair_count}\n")
        fh.write(f"trials: {config.trials}\n")
        fh.write(f"empirical_alpha_hat: {_fmt(rates.alpha_hat)}\n")
        fh.write(f"exact_alpha: {_fmt(exact_alpha)}\n")
        fh.write(f"sweep: {result.swept_param} = {' '.join(_fmt(v) for v in result.values)}\n")
        for value, beta, se in zip(result.values, result.beta_bar, result.std_err):
            fh.write(f"  {result.swept_param}={_fmt(value)}: beta_bar={_fmt(beta)} (se={_fmt(se)})\n")


def run(config_path: str | Path, out_dir: str | Path, seed: int | None = None, threads: int | None = None) -> int:
    """Execute a config and write sweep.csv, calibration.csv, summary.txt.

    Returns the process exit status.  ``threads`` is accepted for interface
    stability; execution is orchestrated deterministically regardless, so
    outputs never depend on it.
    """
    config_path = Path(config_path)
    config, diags = load_config(config_path)
    if config is None:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        if seed < 0:
            print("config error: --seed: must be >= 0", file=sys.stderr)
            return EXIT_CONFIG
        config = replace(config, seed=seed)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path, or one of its parents, is a file
        print(f"runtime error: --out {out_dir}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    outputs = [out_dir / "sweep.csv", out_dir / "calibration.csv", out_dir / "summary.txt"]
    try:
        rng = RngStream(config.seed)
        trace = RoomTrace(config.scene, config.grid, config.bob)
        result = room_sweep(
            trace,
            config.budget,
            config.channel,
            config.test,
            config.sweep_param,
            config.sweep_values,
            b_T=config.b_T,
            pair_budget=config.pair_budget,
            rng=rng,
        )
        # The fixed response cancels under H0, so the calibration reads the trace only
        # for the room gain; alpha_hat estimates the exact size, false_alarm_rate.
        params = resolve_variances(trace, config.channel, config.budget, config.b_T)
        rates = simulate_error_rates(params, config.test, config.trials, rng.substream(999))
        _write_outputs(out_dir, config, config_path, result, (rates, false_alarm_rate(params, config.test)))
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        for p in outputs:
            p.unlink(missing_ok=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chanauth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None)
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "validate":
        diags = validate(args.config)
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_OK if not diags else EXIT_CONFIG
    return run(args.config, args.out, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
