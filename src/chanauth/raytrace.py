"""Deterministic location-specific responses via the image-source method.

A rectangular room with flat complex wall reflectivity stands in for a full
building ray tracer: mirror images of one endpoint generate the multipath
components, each contributing gain/d * Gamma^bounces with the free-space
phase at every tone.  The output is frequency selective and decorrelates
over sub-wavelength displacements, which is all the detection math needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .numerics import _CIS_WORK, _cos_sin

# Transmitters traced together by response_matrix; bounds its work arrays
# (~1.3 MB at 377 images).  On a 2400-point grid with 377 images, 32 to 128
# rows ran alike (95-110 ms), and 16 and 256 rows 15-35 % slower.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class RoomScene:
    """Rectangular room geometry and propagation constants.

    ``wall_reflectivity`` is a single frequency-flat, angle-independent
    complex coefficient applied per bounce.  ``amplitude_scale`` is a
    dimensionless field-ratio constant folding in everything outside the
    geometry (antennas, penetration losses); the default places per-tone
    SNRs in a realistic indoor range for milliwatt transmit powers.
    """

    dimensions: tuple[float, float, float] = (10.0, 8.0, 3.0)
    wall_reflectivity: complex = -0.7  # 0.7 * e^{j pi}
    max_order: int = 4
    c: float = 2.998e8
    amplitude_scale: float = 1e-5

    def __post_init__(self):
        # Comparisons are written so that NaN fails them.
        if not all(0 < d < math.inf for d in self.dimensions):
            raise ValueError("room dimensions must be positive and finite")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")
        if not abs(self.wall_reflectivity) <= 1.0:
            raise ValueError("|wall_reflectivity| must not exceed 1")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if not 0 < self.amplitude_scale < math.inf:
            raise ValueError("amplitude_scale must be positive and finite")


@dataclass(frozen=True)
class GridSpec:
    """Uniform horizontal grid of candidate transmitter positions."""

    origin: tuple[float, float]
    spacing: float
    counts: tuple[int, int]
    height: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if any(c < 1 for c in self.counts):
            raise ValueError("grid counts must be >= 1")

    @property
    def n_points(self) -> int:
        return self.counts[0] * self.counts[1]


def grid_positions(grid: GridSpec) -> np.ndarray:
    """All grid points as an (n_points, 3) array, x-major then y."""
    xs = grid.origin[0] + grid.spacing * np.arange(grid.counts[0])
    ys = grid.origin[1] + grid.spacing * np.arange(grid.counts[1])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, grid.height)])
    return pts


def _axis_images(length: float, coord: float, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D mirror images of ``coord`` between walls at 0 and ``length``.

    Images sit at 2 n L + coord (2|n| bounces) and 2 n L - coord
    (|2n - 1| bounces); only those within the bounce budget are returned.
    """
    coords, bounces = [], []
    n_max = max_order // 2 + 1
    for n in range(-n_max, n_max + 1):
        b = abs(2 * n)
        if b <= max_order:
            coords.append(2 * n * length + coord)
            bounces.append(b)
        b = abs(2 * n - 1)
        if b <= max_order:
            coords.append(2 * n * length - coord)
            bounces.append(b)
    return np.array(coords), np.array(bounces, dtype=int)


def image_sources(scene: RoomScene, point) -> tuple[np.ndarray, np.ndarray]:
    """All mirror images of ``point`` with at most max_order total bounces.

    Returns (positions (K, 3), bounce counts (K,)); the zero-bounce entry
    is the point itself (the line-of-sight term).
    """
    point = np.asarray(point, dtype=float)
    per_axis = [_axis_images(L, c, scene.max_order) for L, c in zip(scene.dimensions, point)]
    cx, bx = per_axis[0]
    cy, by = per_axis[1]
    cz, bz = per_axis[2]
    total = bx[:, None, None] + by[None, :, None] + bz[None, None, :]
    keep = total <= scene.max_order
    ix, iy, iz = np.nonzero(keep)
    positions = np.column_stack([cx[ix], cy[iy], cz[iz]])
    return positions, total[keep]


def _check_inside(scene: RoomScene, points, name: str):
    """Raise naming the first of ``points`` (one or many) not strictly inside the room."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    outside = ~np.all((points > 0) & (points < np.asarray(scene.dimensions)), axis=1)
    if outside.any():
        raise ValueError(f"{name} position {points[np.argmax(outside)].tolist()} is not strictly inside the room")


def response_matrix(scene: RoomScene, txs, rx, params: ChannelParams) -> np.ndarray:
    """Fixed responses from many transmitter positions to one receiver.

    Returns shape (n_tx, M).  The receiver's image set is built once and
    shared across transmitters.  The tones are evenly spaced, so along a
    path of length d the M tone phasors form a geometric sequence: with
    k = -2 pi d / c, tone m is (gain/d) e^{j k f_1} (e^{j k delta_f})^m.
    Each path therefore costs two unit phasors (numerics.cis, in real
    arithmetic), and tone m is the image sum of the running phasor, which
    is advanced by one step multiply per tone; no (transmitter x image x
    tone) array is built.  Transmitters are traced _ROW_BLOCK at a time
    through (transmitter x image) work arrays that every block reuses, so
    the trace allocates nothing per block.  Each row is computed alone, so
    it does not depend on the block size or on the other transmitters.
    """
    txs = np.atleast_2d(np.asarray(txs, dtype=float))
    rx = np.asarray(rx, dtype=float)
    _check_inside(scene, rx, "receiver")
    _check_inside(scene, txs, "transmitter")
    images, bounces = image_sources(scene, rx)
    gains = scene.amplitude_scale * scene.wall_reflectivity ** bounces  # (K,)
    out = np.empty((len(txs), params.M), dtype=complex)
    size = min(_ROW_BLOCK, len(txs)) * len(images)
    work = np.empty((2 + _CIS_WORK, size))
    amplitudes = np.empty(size, dtype=np.result_type(gains, 1.0))  # complex if the walls are
    phasors = np.empty((2, size), dtype=complex)
    for start in range(0, len(txs), _ROW_BLOCK):
        block = txs[start : start + _ROW_BLOCK]
        shape = (len(block), len(images))
        dists, phase, *cis_work = (w[: shape[0] * shape[1]].reshape(shape) for w in work)
        amplitude, phasor, step = (a[: shape[0] * shape[1]].reshape(shape) for a in (amplitudes, *phasors))
        # The three squares summed in np.linalg.norm's order, so the same bits.
        np.square(np.subtract(block[:, 0, None], images[:, 0], out=phase), out=dists)
        dists += np.square(np.subtract(block[:, 1, None], images[:, 1], out=phase), out=phase)
        dists += np.square(np.subtract(block[:, 2, None], images[:, 2], out=phase), out=phase)
        np.sqrt(dists, out=dists)
        if np.any(dists == 0):
            raise ValueError("transmitter and receiver positions coincide")
        np.divide(gains, dists, out=amplitude)
        k = np.multiply(dists, -2.0 * np.pi / scene.c, out=dists)  # phase per Hz of each path
        _cos_sin(np.multiply(k, params.tones[0], out=phase), phasor.real, phasor.imag, cis_work)
        phasor *= amplitude
        _cos_sin(np.multiply(k, params.delta_f, out=phase), step.real, step.imag, cis_work)
        rows = out[start : start + len(block)]
        for m in range(params.M):
            rows[:, m] = phasor.sum(axis=1)
            if m + 1 < params.M:
                phasor *= step
    return out


def fixed_response(scene: RoomScene, tx, rx, params: ChannelParams) -> np.ndarray:
    """Length-M fixed response between a single transmitter and receiver."""
    return response_matrix(scene, np.asarray(tx, dtype=float)[None, :], rx, params)[0]


class RoomTrace:
    """Fixed responses of every grid point to one receiver, for one run.

    A response depends on the channel only through its tones, and
    ChannelParams.tones only on (f0, W, M), so the grid is traced once per
    distinct tone set and the stored (n_points, M) array is returned after
    that.  The arrays are read-only because every caller shares them.
    """

    def __init__(self, scene: RoomScene, grid: GridSpec, rx):
        self.scene = scene
        self.rx = tuple(float(v) for v in rx)
        self.positions = grid_positions(grid)
        self._responses: dict[tuple[float, float, int], np.ndarray] = {}

    def responses(self, params: ChannelParams) -> np.ndarray:
        """The grid's (n_points, M) fixed responses at the tones of ``params``."""
        key = (params.f0, params.W, params.M)
        if key not in self._responses:
            traced = response_matrix(self.scene, self.positions, self.rx, params)
            traced.flags.writeable = False
            self._responses[key] = traced
        return self._responses[key]


def rms_gain(responses: np.ndarray) -> float:
    """RMS magnitude of a block of fixed responses.

    Over a whole grid (RoomTrace.responses) it is the room-level scale that
    converts the relative variation index b_T into an absolute sigma_T.
    """
    return float(np.sqrt(np.mean(np.abs(responses) ** 2)))
