"""Span and count tracer that wraps chanauth's entry points from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each listed
function wherever the package binds it (its defining module and every
``from .x import name`` copy), records one span per call (name, start, end,
parent) plus per-layer counts, and ``uninstall`` puts the originals back.
An entry point that no longer exists is skipped, and every metric that
depends on it is reported as absent rather than failing the run.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (module, function) pairs wrapped by the tracer, grouped by layer.  RNG
# helpers (numerics.sample_complex_gaussian, RngStream) are deliberately
# not wrapped: a draw is charged to the layer that asked for it, so tap
# draws count as channel work.
ENTRY_POINTS = {
    "numerics": ("cholesky", "chi2_cdf", "chi2_inv", "noncentral_chi2_cdf"),
    "channel": (
        "build_delay_profile",
        "init_taps",
        "step_taps",
        "taps_to_frequency",
        "sample_response",
        "eve_variation",
    ),
    "stats": ("covariance_R", "covariance_G", "asymptotic_R_high_bc", "asymptotic_G_high_bc"),
    "detect": (
        "threshold_for",
        "statistic_batch",
        "miss_rate_general_numerical",
        "miss_rate_low_bc",
        "miss_rate_time_invariant",
        "miss_rate_full_spatial",
        "miss_rate_large_variation",
    ),
    "raytrace": ("response_matrix", "fixed_response", "room_average_gain", "grid_positions", "image_sources"),
    "harness": ("room_sweep", "miss_rate_for_pair", "simulate_error_rates", "pair_miss_rate"),
    "cli": ("main", "run", "load_config"),
}

CLOSED_FORMS = (
    "detect.miss_rate_low_bc",
    "detect.miss_rate_time_invariant",
    "detect.miss_rate_full_spatial",
    "detect.miss_rate_large_variation",
)
CHI2 = ("numerics.chi2_cdf", "numerics.chi2_inv", "numerics.noncentral_chi2_cdf")
COVARIANCES = tuple(f"stats.{n}" for n in ENTRY_POINTS["stats"])


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    """Records spans and counts for calls into wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index (-1: root)
        self.counts: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()  # spans whose counter hook no longer fits the code
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_rows: set = set()
        self._seen_stats: set = set()
        self._image_sources = None

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(bound_arguments, result)`` runs after the span closes, so its
        cost is charged to the caller, not to the traced layer.
        """
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self._count(name + ".calls")
            if hook is not None and name not in self.broken:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.broken.add(name)  # e.g. a renamed parameter: report the count as absent
            return result

        return traced

    def _count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- per-layer counters --------------------------------------------------
    def _on_response_matrix(self, args, result):
        scene, rx, params = args["scene"], args["rx"], args["params"]
        txs = np.atleast_2d(np.asarray(args["txs"], dtype=float))
        key = (scene, tuple(float(v) for v in rx), params.f0, params.W, params.M)
        repeats = 0
        for row in txs:
            row_key = (key, row.tobytes())
            if row_key in self._seen_rows:
                repeats += 1
            else:
                self._seen_rows.add(row_key)
        self._count("raytrace.rows", len(txs))
        self._count("raytrace.repeat_rows", repeats)
        if self._image_sources is not None:
            n_images = len(self._image_sources(scene, rx)[0])
            self._count("raytrace.phase_mb", len(txs) * n_images * params.M * 16 / 1e6)

    def _on_covariance(self, name):
        def hook(args, result):
            key = (name, tuple(args.values()))
            try:
                fresh = key not in self._seen_stats
                self._seen_stats.add(key)
            except TypeError:  # unhashable arguments are never recognised as repeats
                fresh = True
            self._count("stats.calls")
            if not fresh:
                self._count("stats.repeat_calls")

        return hook

    def _on_delay_profile(self, args, result):
        self.counts["channel.taps"] = max(self.counts.get("channel.taps", 0), len(result.profile))

    def _on_tap_draw(self, args, result):
        self._count("channel.tap_draws", result.amps.size)

    def _on_mc(self, args, result):
        self._count("detect.mc_trials", int(args["trials"]))

    def _hooks(self):
        hooks = {
            "raytrace.response_matrix": self._on_response_matrix,
            "channel.build_delay_profile": self._on_delay_profile,
            "channel.init_taps": self._on_tap_draw,
            "channel.step_taps": self._on_tap_draw,
            "detect.miss_rate_general_numerical": self._on_mc,
        }
        for name in COVARIANCES:
            hooks[name] = self._on_covariance(name)
        return hooks

    # -- installation ----------------------------------------------------------
    def install(self, package: str = "chanauth"):
        """Wrap every entry point that exists, wherever the package binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        hooks = self._hooks()
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                original = getattr(module, fname, None) if module is not None else None
                if not callable(original):
                    continue
                span = f"{layer}.{fname}"
                if span == "raytrace.image_sources":
                    self._image_sources = original
                traced = self.wrap(original, span, hooks.get(span))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, traced)
                self.wrapped.add(span)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - children
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Wall time per span name, counting only outermost calls of that name."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics; None marks a metric whose entry points are gone."""
        selft = self.self_times()
        incl = self.inclusive_times()
        have = self.wrapped

        def self_sum(names):
            names = [n for n in names if n in have]
            return sum(selft.get(n, 0.0) for n in names) if names else None

        def layer_self(layer):
            return self_sum([n for n in have if _layer(n) == layer])

        def count(key, needs):
            ok = any(n in have for n in needs) and not any(n in self.broken for n in needs)
            return self.counts.get(key, 0) if ok else None

        def inclusive(name):
            return incl.get(name, 0.0) if name in have else None

        return {
            "raytrace.calls": count("raytrace.response_matrix.calls", ["raytrace.response_matrix"]),
            "raytrace.rows": count("raytrace.rows", ["raytrace.response_matrix"]),
            "raytrace.repeat_rows": count("raytrace.repeat_rows", ["raytrace.response_matrix"]),
            "raytrace.phase_mb": (
                self.counts.get("raytrace.phase_mb", 0.0)
                if {"raytrace.response_matrix", "raytrace.image_sources"} <= have
                and "raytrace.response_matrix" not in self.broken
                else None
            ),
            "raytrace.self_s": layer_self("raytrace"),
            "channel.taps": count("channel.taps", ["channel.build_delay_profile"]),
            "channel.tap_draws": count("channel.tap_draws", ["channel.init_taps", "channel.step_taps"]),
            "channel.self_s": layer_self("channel"),
            "detect.mc_trials": count("detect.mc_trials", ["detect.miss_rate_general_numerical"]),
            "detect.mc.self_s": self_sum(["detect.miss_rate_general_numerical"]),
            "detect.statistic_batch.self_s": self_sum(["detect.statistic_batch"]),
            "detect.closed_form.calls": (
                sum(self.counts.get(n + ".calls", 0) for n in CLOSED_FORMS)
                if any(n in have for n in CLOSED_FORMS)
                else None
            ),
            "detect.closed_form.self_s": self_sum(CLOSED_FORMS),
            "numerics.chi2.calls": (
                sum(self.counts.get(n + ".calls", 0) for n in CHI2) if any(n in have for n in CHI2) else None
            ),
            "numerics.chi2.self_s": self_sum(CHI2),
            "stats.calls": count("stats.calls", COVARIANCES),
            "stats.repeat_calls": count("stats.repeat_calls", COVARIANCES),
            "stats.self_s": layer_self("stats"),
            "numerics.cholesky.calls": count("numerics.cholesky.calls", ["numerics.cholesky"]),
            "numerics.cholesky.self_s": self_sum(["numerics.cholesky"]),
            "harness.pair_evals": count("harness.miss_rate_for_pair.calls", ["harness.miss_rate_for_pair"]),
            "harness.sweep_s": inclusive("harness.room_sweep"),
            "harness.calibration_s": inclusive("harness.simulate_error_rates"),
            "harness.self_s": layer_self("harness"),
            "cli.load_config_s": inclusive("cli.load_config"),
            "cli.self_s": layer_self("cli"),
        }
