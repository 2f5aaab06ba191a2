"""Deterministic location-specific responses via the image-source method.

A rectangular room with flat complex wall reflectivity stands in for a full
building ray tracer: mirror images of one endpoint generate the multipath
components, each contributing gain/d * Gamma^bounces with the free-space
phase at every tone.  The output is frequency selective and decorrelates
over sub-wavelength displacements, which is all the detection math needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams


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
        if any(d <= 0 for d in self.dimensions):
            raise ValueError("room dimensions must be positive")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")
        if abs(self.wall_reflectivity) > 1.0:
            raise ValueError("|wall_reflectivity| must not exceed 1")


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


def _check_inside(scene: RoomScene, p, name: str):
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0) & (p < np.asarray(scene.dimensions))):
        raise ValueError(f"{name} position {p.tolist()} is not strictly inside the room")


def response_matrix(scene: RoomScene, txs, rx, params: ChannelParams) -> np.ndarray:
    """Fixed responses from many transmitter positions to one receiver.

    Returns shape (n_tx, M).  The receiver's image set is built once and
    shared across transmitters.
    """
    txs = np.atleast_2d(np.asarray(txs, dtype=float))
    rx = np.asarray(rx, dtype=float)
    _check_inside(scene, rx, "receiver")
    for t in txs:
        _check_inside(scene, t, "transmitter")
    images, bounces = image_sources(scene, rx)
    dists = np.linalg.norm(txs[:, None, :] - images[None, :, :], axis=-1)  # (n_tx, K)
    if np.any(dists == 0):
        raise ValueError("transmitter and receiver positions coincide")
    weights = scene.amplitude_scale * scene.wall_reflectivity ** bounces / dists  # (n_tx, K)
    phase = np.exp(-2j * np.pi * dists[:, :, None] * (params.tones / scene.c))  # (n_tx, K, M)
    return np.einsum("tk,tkm->tm", weights.astype(complex), phase)


def fixed_response(scene: RoomScene, tx, rx, params: ChannelParams) -> np.ndarray:
    """Length-M fixed response between a single transmitter and receiver."""
    return response_matrix(scene, np.asarray(tx, dtype=float)[None, :], rx, params)[0]


def room_average_gain(scene: RoomScene, grid: GridSpec, bob, params: ChannelParams) -> float:
    """RMS response magnitude over all grid points and tones.

    The room-level scale that converts the relative variation index b_T
    into an absolute sigma_T.
    """
    return rms_gain(response_matrix(scene, grid_positions(grid), bob, params))


def rms_gain(responses: np.ndarray) -> float:
    """RMS magnitude of a block of fixed responses."""
    return float(np.sqrt(np.mean(np.abs(responses) ** 2)))
