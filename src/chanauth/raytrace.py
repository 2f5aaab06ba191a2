"""Deterministic location-specific responses via the image-source method.

A rectangular room with flat complex wall reflectivity stands in for a full
building ray tracer: mirror images of one endpoint generate the multipath
components, each contributing gain/d * Gamma^bounces with the free-space
phase at every tone.  The output is frequency selective and decorrelates
over sub-wavelength displacements, which is all the detection math needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .numerics import _CIS_WORK, _cos_sin

# (transmitter x image) elements traced together by response_matrix; bounds
# its work arrays (~1.3 MB).  Most of a small block's cost is per-block
# overhead: one 60-tone trace of a 256-point grid with 129 images took 8.0 ms
# in 32-row blocks and 4.8 ms in 95-row blocks.  At 377 images a block is 32
# rows, where 32 to 128 rows ran alike on a 2400-point grid.
_BLOCK_ELEMENTS = 12_288


def _block_rows(n_images: int) -> int:
    """Transmitters per response_matrix block when each has ``n_images`` paths."""
    return max(1, _BLOCK_ELEMENTS // n_images)


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
        # Comparisons are written so that NaN fails them.
        if not 0 < self.spacing < math.inf:
            raise ValueError("grid spacing must be positive and finite")
        if not all(-math.inf < v < math.inf for v in (*self.origin, self.height)):
            raise ValueError("grid origin and height must be finite")
        if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in self.counts):
            raise ValueError("grid counts must be integers >= 1")

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
    Each path therefore costs two unit phasors (numerics._cos_sin, in real
    arithmetic), and tone m is the image sum of the running phasor, which
    is advanced by one step multiply per tone; no (transmitter x image x
    tone) array is built.  Transmitters are traced in blocks of about
    _BLOCK_ELEMENTS paths through (transmitter x image) work arrays that
    every block reuses, so the trace allocates nothing per block.  Each row
    is computed alone, so it does not depend on the block size or on the
    other transmitters.
    """
    txs = np.atleast_2d(np.asarray(txs, dtype=float))
    rx = np.asarray(rx, dtype=float)
    _check_inside(scene, rx, "receiver")
    _check_inside(scene, txs, "transmitter")
    images, bounces = image_sources(scene, rx)
    gains = scene.amplitude_scale * scene.wall_reflectivity ** bounces  # (K,)
    out = np.empty((len(txs), params.M), dtype=complex)
    block_rows = _block_rows(len(images))
    size = min(block_rows, len(txs)) * len(images)
    work = np.empty((2 + _CIS_WORK, size))
    amplitudes = np.empty(size, dtype=np.result_type(gains, 1.0))  # complex if the walls are
    phasors = np.empty((2, size), dtype=complex)
    for start in range(0, len(txs), block_rows):
        block = txs[start : start + block_rows]
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


class RoomTrace:
    """Fixed responses of grid points to one receiver, traced as a run reads them.

    A response depends on the channel only through its tones, and
    ChannelParams.tones only on (f0, W, M), so each grid point is traced at
    most once per distinct tone set and its stored row is returned after
    that.  Tone sets that share (f0, W) all lie on the tones of one grid of
    L = lcm of their M values: tone m of set M is grid tone m L / M.
    prepare() plans that grid when L is at most the sum of the M values, so
    a traced row costs no more tone steps than the separate traces and
    fewer paths' unit phasors.  Rows are traced only when responses() asks
    for them, or rms_gain() for the whole grid, and a tone grid holds just
    the rows traced, in the order they were traced, so a run at b_T = 0
    traces and stores just the points it reads.  response_matrix computes
    each row alone, so a row traced with a few others has the same bits as
    one traced with the whole grid.
    """

    def __init__(self, scene: RoomScene, grid: GridSpec, rx):
        self.scene = scene
        self.rx = tuple(float(v) for v in rx)
        self.positions = grid_positions(grid)
        # (f0, W, M) -> (traced tone grid, its rows, column stride of set M)
        self._grids: dict[tuple[float, float, int], tuple[ChannelParams, _TracedRows, int]] = {}

    def prepare(self, params_seq) -> None:
        """Plan the tone grids of every ChannelParams in ``params_seq`` not yet held.

        Per (f0, W), the new sets share one grid of their common tones if it
        has no more tones than they have together, and each has its own grid
        otherwise.  This traces nothing; responses() and rms_gain() trace the rows.
        """
        groups: dict[tuple[float, float], dict[int, ChannelParams]] = {}
        for params in params_seq:
            if (params.f0, params.W, params.M) not in self._grids:
                groups.setdefault((params.f0, params.W), {})[int(params.M)] = params
        for (f0, W), sets in groups.items():
            n_tones = math.lcm(*sets)
            if n_tones <= sum(sets):
                grid = replace(next(iter(sets.values())), M=n_tones)
                held = _TracedRows(len(self.positions), n_tones)
                for M in sets:
                    self._grids[(f0, W, M)] = (grid, held, n_tones // M)
            else:
                for M, params in sets.items():
                    self._grids[(f0, W, M)] = (params, _TracedRows(len(self.positions), M), 1)

    def responses(self, params: ChannelParams, rows) -> np.ndarray:
        """Fixed responses at the tones of ``params``, shape (len(rows), M).

        ``rows`` indexes the grid points, in any order and with repeats.
        Only the rows not traced yet are traced, in one response_matrix call.
        """
        held, stride = self._traced(params, rows)
        return held.rows[:, stride - 1 :: stride][held.slot[rows]]

    def rms_gain(self, params: ChannelParams) -> float:
        """RMS magnitude of the whole grid's fixed responses at the tones of ``params``.

        It is the room-level scale that converts the relative variation
        index b_T into an absolute sigma_T.  The rows are summed in the order
        they were traced, which is grid order when the grid is traced at once.
        """
        held, stride = self._traced(params)
        return float(np.sqrt(np.mean(np.abs(held.rows[:, stride - 1 :: stride]) ** 2)))

    def _traced(self, params: ChannelParams, rows=slice(None)) -> tuple[_TracedRows, int]:
        """Trace the grid points in ``rows`` (all by default) not yet held for the tones of ``params``.

        Returns the tone grid's held rows and the column stride of ``params`` in them.
        """
        self.prepare([params])
        grid, held, stride = self._grids[(params.f0, params.W, params.M)]
        # A boolean mask, not np.unique, which would import numpy.ma into every run.
        missing = np.zeros(len(held.slot), dtype=bool)
        missing[rows] = True
        missing &= held.slot < 0
        if missing.any():
            held.add(missing, response_matrix(self.scene, self.positions[missing], self.rx, grid))
        return held, stride


class _TracedRows:
    """One tone grid's traced rows, in the order they were traced.

    ``slot[p]`` is grid point p's row in ``rows``, or -1 until it is traced.
    """

    def __init__(self, n_points: int, n_tones: int):
        self.slot = np.full(n_points, -1, dtype=np.intp)
        self.rows = np.empty((0, n_tones), dtype=complex)

    def add(self, points: np.ndarray, rows: np.ndarray) -> None:
        """Hold ``rows``, traced at the grid points of the boolean mask ``points``."""
        self.slot[points] = np.arange(len(self.rows), len(self.rows) + len(rows))
        self.rows = np.concatenate([self.rows, rows]) if len(self.rows) else rows

