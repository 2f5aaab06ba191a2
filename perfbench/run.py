"""chanauth benchmark: end-to-end timings per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck [--seed N]

Run from the root of a chanauth checkout; the package is imported from its
``src`` directory.  One client runs one ``chanauth run`` at a time, each in
a fresh interpreter (a closed loop: the next repetition starts when the
previous one has exited), for ``--seconds`` seconds.  Every repetition's
CSVs are checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an op is one
repetition (one child interpreter) and it fails if the child exits non-zero
or its outputs fail a check.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  See perfbench/README.md for what each
workload loads and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Per workload: the config template (its run.seed is replaced by --seed)
#: and the seed-independent paper trend its sweep must show.
WORKLOADS = {
    "calib_longline": {"template": "calib_longline.cfg", "trend": "falls"},
    "sweep_mc": {"template": "sweep_mc.cfg", "trend": "nondecreasing"},
    "room_grid": {"template": "room_grid.cfg", "trend": "nonincreasing"},
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB"}

#: Counts derived by hand for the seed code (they do not depend on --seed);
#: ``--selfcheck`` compares the traced counts against them.
SEED_COUNTS = {
    "sweep_mc": {"detect.mc_trials": 1_600_000, "stats.calls": 1601},
    "calib_longline": {"channel.taps": 2199, "channel.tap_draws": 26_388_000, "harness.pair_evals": 6000},
    "room_grid": {"raytrace.calls": 9, "raytrace.rows": 16_802, "raytrace.repeat_rows": 14_402},
}

#: Share of the traced run_s the named self times must reach (``--selfcheck``).
SEED_SPLITS = {
    "room_grid": (("raytrace.self_s",), 0.8),
    "sweep_mc": (("detect.mc.self_s", "detect.statistic_batch.self_s"), 0.8),
    "calib_longline": (("channel.self_s",), 0.5),
}

MIN_RUNS = 2  # untraced repetitions per measured run, at the least
HARD_LIMIT_S = 160  # no repetition starts if it could end past this


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- inputs --------------------------------------------------------------------
def write_config(workload: str, seed: int, path: Path) -> configparser.ConfigParser:
    """Write the workload's config with run.seed = seed; return what was written."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(HERE / "workloads" / WORKLOADS[workload]["template"])
    parser["run"]["seed"] = str(seed)
    with open(path, "w") as fh:
        parser.write(fh)
    return parser


# -- output checks ---------------------------------------------------------------
def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def check_outputs(workload: str, cfg: configparser.ConfigParser, out_dir: Path) -> list[str]:
    """Problems with one repetition's CSVs; an empty list means they pass."""
    try:
        with open(out_dir / "sweep.csv", newline="") as fh:
            sweep = list(csv.DictReader(fh))
        with open(out_dir / "calibration.csv", newline="") as fh:
            calib = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"missing output: {exc}"]
    problems = []
    values = [float(v) for v in cfg["sweep"]["values"].split()]
    alpha = float(cfg["test"]["alpha"])
    nx, ny = (int(c) for c in cfg["grid"]["counts"].split())
    n_points = nx * ny
    pairs = min(int(cfg["run"]["pair_budget"]), n_points * (n_points - 1) // 2)
    trials = int(cfg["run"]["trials"])
    beta, se = [], []
    try:
        if len(sweep) != len(values):
            problems.append(f"sweep.csv has {len(sweep)} rows, expected {len(values)}")
        for row, value in zip(sweep, values):
            if row["sweep_param"] != cfg["sweep"]["param"] or _finite(row["value"]) != value:
                problems.append(f"sweep.csv row for {value} reads {row['sweep_param']}={row['value']}")
            b, s = _finite(row["beta_bar"]), _finite(row["std_err"])
            if not 0.0 <= b <= 1.0 or s < 0:
                problems.append(f"sweep.csv beta_bar={b} std_err={s} out of range")
            if int(row["pair_count"]) != pairs:
                problems.append(f"sweep.csv pair_count={row['pair_count']}, expected {pairs}")
            if _finite(row["alpha"]) != alpha:
                problems.append(f"sweep.csv alpha={row['alpha']}, expected {alpha}")
            beta.append(b)
            se.append(s)
        if len(calib) != 1:
            problems.append(f"calibration.csv has {len(calib)} rows, expected 1")
        else:
            alpha_hat = _finite(calib[0]["alpha_hat"])
            if int(calib[0]["trials"]) != trials:
                problems.append(f"calibration.csv trials={calib[0]['trials']}, expected {trials}")
            tolerance = 4.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
            if abs(alpha_hat - alpha) > tolerance:
                problems.append(f"calibration alpha_hat={alpha_hat} is more than 4 SE ({tolerance:.3g}) from {alpha}")
    except (KeyError, ValueError) as exc:
        return problems + [f"unparseable output: {exc!r}"]
    if len(beta) == len(values) and not problems:
        problems += check_trend(WORKLOADS[workload]["trend"], values, beta, se)
    return problems


def check_trend(trend: str, values, beta, se) -> list[str]:
    """The paper's seed-independent trend along the sweep."""
    if trend == "falls":  # last value below the first by >= 3 combined SE
        margin = 3.0 * math.hypot(se[0], se[-1])
        if not beta[0] - beta[-1] >= margin:
            return [f"beta_bar does not fall from {beta[0]} to {beta[-1]} by {margin:.3g}"]
        return []
    bad = []
    for i in range(len(beta) - 1):
        if trend == "nondecreasing":  # within 3 combined SE of the previous value
            ok = beta[i + 1] >= beta[i] - 3.0 * math.hypot(se[i], se[i + 1])
        else:  # nonincreasing; the closed form is exact, so no tolerance
            ok = beta[i + 1] <= beta[i]
        if not ok:
            bad.append(f"beta_bar {trend} fails between {values[i]} ({beta[i]}) and {values[i + 1]} ({beta[i + 1]})")
    return bad


# -- repetitions -------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in env and (not env[var].isdigit() or int(env[var]) > nproc):
            env[var] = str(nproc)
    return env


class Runner:
    """Runs child repetitions one at a time and keeps the op tally."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.machine: dict | None = None
        self.reference: dict[str, bytes] | None = None
        self.env = child_env()
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / f"{workload}.cfg"
        self.config = write_config(workload, seed, self.config_path)

    def room_for(self, seconds: float) -> bool:
        return time.perf_counter() - self.started + seconds <= HARD_LIMIT_S

    def child(self, mode: str, tag: str, count: bool = True) -> dict | None:
        """One repetition; returns its measurements, or None if it failed."""
        out_dir = self.dir / tag
        timeout = max(5.0, HARD_LIMIT_S + 10 - (time.perf_counter() - self.started))
        if count:
            self.attempted += 1
        problems = []
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(self.config_path), str(out_dir), mode],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"{tag}: timed out after {timeout:.0f} s")
            proc = None
        result = None
        if proc is not None:
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: exit {proc.returncode}, no result; stderr: {proc.stderr.strip()[-300:]}")
        if result is not None:
            self.machine = result["machine"]
            if not Path(result["chanauth"]).resolve().is_relative_to(ROOT / "src"):
                problems.append(f"{tag}: imported chanauth from {result['chanauth']}, not from src/")
            if not result["config_ok"]:
                problems.append(f"{tag}: the workload config does not validate")
            if mode != "setup":
                if result["exit"] != 0:
                    problems.append(f"{tag}: chanauth run exited {result['exit']}; stderr: {proc.stderr.strip()[-300:]}")
                else:
                    problems += [f"{tag}: {p}" for p in check_outputs(self.workload, self.config, out_dir)]
                    problems += self._check_identical(tag, out_dir)
        if problems:
            if count:
                self.failed += 1
            self.problems += problems
            return None
        return result

    def _check_identical(self, tag: str, out_dir: Path) -> list[str]:
        """Every repetition at one seed, traced or not, writes the same CSVs."""
        files = {}
        for name in ("sweep.csv", "calibration.csv"):
            files[name] = (out_dir / name).read_bytes()
        if self.reference is None:
            self.reference = files
            return []
        return [f"{tag}: {name} differs from the first repetition" for name in files if files[name] != self.reference[name]]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Runner, dict]:
    """One measured run; returns (metrics, runner, notes)."""
    started = time.perf_counter()
    runner = Runner(workload, seed, started)
    # Warm-up: compile bytecode and fill the file cache, which a user pays once.
    runner.child("setup", "warmup", count=False)
    window = time.perf_counter()
    rep_s = 0.0
    plain, traced, setups = [], [], []

    # Untraced runs alternate with set-up-only children (more set-up
    # samples); traced runs alternate with untraced ones (overhead baseline).
    i = 0
    while runner.room_for(rep_s) and (len(plain) < MIN_RUNS or time.perf_counter() - window + rep_s <= seconds):
        t0 = time.perf_counter()
        for mode in ("run", "trace") if trace else ("run", "setup"):
            result = runner.child(mode, f"{mode}{i}")
            if result is None:
                continue
            if mode == "run":
                plain.append(result)
            elif mode == "trace":
                traced.append(result)
            setups.append(result["setup_s"])
        rep_s = max(rep_s, time.perf_counter() - t0)
        i += 1
        if runner.failed:
            break  # the run is already incorrect; do not burn the budget

    notes = {"samples": {"run": len(plain), "trace": len(traced), "setup": len(setups)}}
    metrics: dict[str, float] = {}
    if not trace:
        if plain:
            metrics["run_s"] = statistics.median(r["run_s"] for r in plain)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
            notes["run_s_range"] = (min(r["run_s"] for r in plain), max(r["run_s"] for r in plain))
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        return metrics, runner, notes

    absent = []
    if traced:
        names = traced[0]["layers"].keys()
        for name in names:
            samples = [r["layers"][name] for r in traced]
            if samples[0] is None:
                absent.append(name)
            elif per_layer_unit(name) == "count":
                if any(s != samples[0] for s in samples):
                    runner.problems.append(f"count {name} differs between traced runs: {samples}")
                metrics[name] = samples[0]
            else:
                metrics[name] = statistics.median(samples)
        if plain:
            metrics["trace_overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
                r["run_s"] for r in plain
            )
        notes["traced_run_s"] = statistics.median(r["run_s"] for r in traced)
    notes["absent"] = absent
    return metrics, runner, notes


def result_line(metrics: dict, runner: Runner) -> dict:
    correct = runner.failed == 0 and not runner.problems
    return {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": END_TO_END.get(name) or per_layer_unit(name)}
            for name in metrics
        },
    }


def report(workload: str, metrics: dict, runner: Runner, notes: dict):
    """Human-readable lines that precede the result line."""
    print(f"workload: {workload}  seed: {runner.config['run']['seed']}  samples: {notes['samples']}")
    print(f"machine: {json.dumps(runner.machine)}")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or per_layer_unit(name)
        print(f"  {name:32s} {value:>16.10g} {unit}")
    if "run_s_range" in notes:
        print(f"  run_s min/max over {notes['samples']['run']} runs: {notes['run_s_range'][0]:.4f} / {notes['run_s_range'][1]:.4f} s")
    if "traced_run_s" in notes:
        print(f"  traced run_s (median): {notes['traced_run_s']:.4f} s")
    if notes.get("absent"):
        print(f"  absent (entry points not found): {', '.join(notes['absent'])}")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    sys.stdout.flush()


# -- self-check --------------------------------------------------------------------
def check_self_time() -> list[str]:
    """Self-time arithmetic on a toy nested call with a fake clock."""
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "toy.inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "toy.outer")
    outer()  # outer 0..10, inner 1..3 and 4..7: outer self = 10 - 2 - 3
    problems = []
    for got, want in (
        (tracer.self_times(), {"toy.outer": 5.0, "toy.inner": 5.0}),
        (tracer.inclusive_times(), {"toy.outer": 10.0, "toy.inner": 5.0}),
    ):
        if got != want:
            problems.append(f"toy span times {got}, expected {want}")
    return problems


def selfcheck(seed: int) -> int:
    problems = check_self_time()
    for workload in WORKLOADS:
        metrics, runner, notes = measure(workload, seed, 0, trace=True)
        report(workload, metrics, runner, notes)
        problems += [f"{workload}: {p}" for p in runner.problems]
        for name, want in SEED_COUNTS[workload].items():
            if metrics.get(name) != want:
                problems.append(f"{workload}: {name} = {metrics.get(name)}, expected {want}")
        if "traced_run_s" not in notes:
            problems.append(f"{workload}: no traced repetition succeeded")
            continue
        names, share = SEED_SPLITS[workload]
        got = sum(metrics.get(n, 0.0) for n in names) / notes["traced_run_s"]
        print(f"  split: {' + '.join(names)} = {got:.1%} of traced run_s (need >= {share:.0%})")
        if got < share:
            problems.append(f"{workload}: {' + '.join(names)} is {got:.1%} of run_s, expected >= {share:.0%}")
    for p in problems:
        print(f"SELFCHECK FAILED: {p}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--selfcheck", action="store_true", help="check seed counts, splits and self-time arithmetic")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chanauth" / "cli.py").is_file():
        print(f"error: no chanauth sources under {ROOT / 'src'}; run from a chanauth checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.all:
        results = {}
        for workload in WORKLOADS:
            for trace in (False, True):
                metrics, runner, notes = measure(workload, args.seed, args.seconds, trace)
                report(f"{workload} (trace {int(trace)})", metrics, runner, notes)
                results[f"{workload}/trace{int(trace)}"] = result_line(metrics, runner)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required unless --all or --selfcheck is given")
    metrics, runner, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, metrics, runner, notes)
    print(json.dumps(result_line(metrics, runner)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
