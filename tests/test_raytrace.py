"""Image-source fixed responses: enumeration, reciprocity, selectivity."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import image_source_sum_longdouble
from chanauth import raytrace
from chanauth.channel import ChannelParams
from chanauth.numerics import RngStream
from chanauth.raytrace import (
    GridSpec,
    RoomScene,
    RoomTrace,
    _block_rows,
    grid_positions,
    image_sources,
    response_matrix,
)


def make_params(**overrides) -> ChannelParams:
    base = dict(f0=5e9, W=1e7, M=10, a=0.9, Bc=2e6, sigma_T=0.0, sigma_N2=0.0)
    base.update(overrides)
    return ChannelParams(**base)


def brute_force_images(scene: RoomScene, point):
    """Independent lattice enumeration of mirror images.

    Per axis, candidate 1-D images are 2nL + c (even, 2|n| bounces) and
    2nL - c (odd, |2n-1| bounces); a 3-D image keeps the combination if the
    total bounce count fits the budget.
    """
    out = []
    k = scene.max_order
    for axis_choices in itertools.product(*(
        _axis_candidates(L, c, k) for L, c in zip(scene.dimensions, point)
    )):
        coords = [c for c, _ in axis_choices]
        total = sum(b for _, b in axis_choices)
        if total <= k:
            out.append((tuple(coords), total))
    return sorted(out)


def _axis_candidates(length, coord, max_order):
    cands = []
    for n in range(-max_order - 1, max_order + 2):
        b = abs(2 * n)
        if b <= max_order:
            cands.append((2 * n * length + coord, b))
        b = abs(2 * n - 1)
        if b <= max_order:
            cands.append((2 * n * length - coord, b))
    return cands


class TestGrid:
    def test_positions_layout(self):
        g = GridSpec(origin=(1.0, 2.0), spacing=0.5, counts=(3, 2), height=1.5)
        pts = grid_positions(g)
        assert pts.shape == (6, 3)
        assert np.allclose(pts[0], [1.0, 2.0, 1.5])
        assert np.allclose(pts[-1], [2.0, 2.5, 1.5])
        assert g.n_points == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), spacing=0.0, counts=(2, 2), height=1.0)
        with pytest.raises(ValueError):
            GridSpec(origin=(0, 0), spacing=0.1, counts=(0, 2), height=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("spacing", math.nan), ("spacing", math.inf), ("origin", (math.nan, 0.0)), ("origin", (0.0, -math.inf)),
         ("height", math.nan), ("height", math.inf), ("counts", (2.5, 2)), ("counts", (2, 2.0))],
        ids=["spacing_nan", "spacing_inf", "origin_nan", "origin_inf", "height_nan", "height_inf", "counts_fraction",
             "counts_float"],
    )
    def test_rejects_non_finite_or_fractional(self, field, value):
        # A fractional count would make n_points disagree with grid_positions.
        with pytest.raises(ValueError):
            GridSpec(**{"origin": (0.0, 0.0), "spacing": 0.1, "counts": (2, 2), "height": 1.0, field: value})

    def test_numpy_integer_counts(self):
        g = GridSpec(origin=(0.0, 0.0), spacing=0.1, counts=(np.int64(3), np.int32(2)), height=1.0)
        assert g.n_points == len(grid_positions(g)) == 6


class TestImageSources:
    def test_order_zero_is_los_only(self):
        scene = RoomScene(max_order=0)
        pos, bounces = image_sources(scene, (2.0, 3.0, 1.0))
        assert pos.shape == (1, 3)
        assert np.allclose(pos[0], [2.0, 3.0, 1.0])
        assert bounces[0] == 0

    def test_order_one_has_seven_images(self):
        scene = RoomScene(max_order=1)
        pos, bounces = image_sources(scene, (2.0, 3.0, 1.0))
        assert len(pos) == 7
        assert np.count_nonzero(bounces == 0) == 1
        assert np.count_nonzero(bounces == 1) == 6

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_matches_brute_force_enumeration(self, order):
        scene = RoomScene(max_order=order)
        point = (2.7, 1.9, 1.3)
        pos, bounces = image_sources(scene, point)
        got = sorted((tuple(p), int(b)) for p, b in zip(pos, bounces))
        assert got == brute_force_images(scene, point)


class TestFixedResponse:
    def test_free_space(self):
        # The room constants, as README gives them: Gamma = -0.7, c = 2.998e8 m/s, amplitude scale 1e-5.
        scene = RoomScene(max_order=0)
        tx, rx = (2.0, 2.0, 1.0), (5.0, 6.0, 1.0)
        p = make_params(M=4)
        h = response_matrix(scene, [tx], rx, p)[0]
        d = np.linalg.norm(np.subtract(tx, rx))
        tones = p.f0 - p.W / 2 + np.arange(1, p.M + 1) * p.delta_f
        expected = 1e-5 * np.exp(-2j * np.pi * tones * d / 2.998e8) / d
        assert np.abs(h - expected).max() < 1e-5 * 1e-12

    def test_reciprocity(self):
        scene = RoomScene()
        p = make_params()
        a, b = (2.0, 2.5, 1.0), (7.0, 5.0, 2.0)
        assert np.abs(response_matrix(scene, [a], b, p)[0] - response_matrix(scene, [b], a, p)[0]).max() < 1e-12

    def test_first_order_against_mirror_sum(self):
        scene = RoomScene(max_order=1)
        tx, rx = (3.0, 2.0, 1.0), (6.0, 5.0, 2.0)
        p = make_params(M=6)
        h = response_matrix(scene, [tx], rx, p)[0]
        tones = p.f0 - p.W / 2 + np.arange(1, p.M + 1) * p.delta_f
        expected = np.zeros(p.M, dtype=complex)
        for coords, bounces in brute_force_images(scene, rx):
            d = np.linalg.norm(np.subtract(tx, coords))
            expected += 1e-5 * (-0.7) ** bounces / d * np.exp(-2j * np.pi * tones * d / 2.998e8)
        assert np.abs(h - expected).max() < 1e-12 * np.abs(expected).max()

    def test_rejects_coincident_endpoints(self):
        scene = RoomScene(max_order=0)
        with pytest.raises(ValueError):
            response_matrix(scene, [(2.0, 2.0, 1.0)], (2.0, 2.0, 1.0), make_params())

    def test_rejects_outside_positions(self):
        scene = RoomScene()
        with pytest.raises(ValueError):
            response_matrix(scene, [(-1.0, 2.0, 1.0)], (5.0, 5.0, 1.0), make_params())
        with pytest.raises(ValueError):
            response_matrix(scene, [(1.0, 2.0, 1.0)], (5.0, 9.0, 1.0), make_params())

    def test_names_first_outside_transmitter(self):
        block = _block_rows(len(image_sources(RoomScene(), (5.0, 5.0, 1.0))[0]))
        txs = np.full((2 * block, 3), 1.0)
        txs[block + 5] = (1.0, 8.5, 1.0)
        txs[block + 9] = (-1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match=r"transmitter position \[1\.0, 8\.5, 1\.0\]"):
            response_matrix(RoomScene(), txs, (5.0, 5.0, 1.0), make_params())

    def test_response_matrix_consistency(self):
        # Row blocks change no bits: every row equals its single-row trace.
        scene = RoomScene()
        p = make_params()
        rx = (8.0, 6.0, 2.0)
        n_tx = 2 * _block_rows(len(image_sources(scene, rx)[0])) + 3
        gen = RngStream(61).generator
        txs = np.array([[2.0, 2.0, 1.0], [3.0, 4.0, 1.0]])
        txs = np.vstack([txs, gen.uniform((0.5, 0.5, 0.5), (9.5, 7.5, 2.5), size=(n_tx - 2, 3))])
        batch = response_matrix(scene, txs, rx, p)
        assert batch.shape == (n_tx, p.M)
        for i, tx in enumerate(txs):
            assert np.array_equal(batch[i], response_matrix(scene, [tx], rx, p)[0])

    def test_work_arrays_are_bounded_by_one_block(self):
        p = make_params(M=20)
        rx = (8.0, 6.0, 2.0)
        grid = GridSpec(origin=(1.0, 1.0), spacing=0.1, counts=(80, 50), height=1.0)
        txs = grid_positions(grid)
        output_bytes = 2000 * p.M * 16
        for max_order, n_images in ((4, 129), (6, 377)):
            scene = RoomScene(max_order=max_order)
            assert len(image_sources(scene, rx)[0]) == n_images
            block_bytes = _block_rows(n_images) * n_images * p.M * 16
            peaks = []
            for n_tx in (2000, 4000):
                tracemalloc.start()
                try:
                    response_matrix(scene, txs[:n_tx], rx, p)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # The tones are built by recurrence, so not even one block's
            # (block x images x M) phase tensor is ever held; the whole tensor
            # would be 2000 / _block_rows(n_images) blocks.  Only the output
            # grows with the transmitter count.
            assert peaks[0] < block_bytes, (n_images, peaks[0], block_bytes)
            assert peaks[1] - peaks[0] <= output_bytes, (n_images, peaks, output_bytes)

    @pytest.mark.parametrize("M, W", [(1, 1e7), (2, 1e7), (20, 2e7), (30, 1e7), (1000, 1e8)])
    def test_matches_long_double_image_sum(self, M, W):
        # The tone recurrence stays within 1e-12 of the rms response of an
        # image sum that takes every tone's phase directly in extended precision.
        scene = RoomScene(max_order=6)
        p = make_params(M=M, W=W)
        rx = (8.0, 6.0, 2.0)
        grid = GridSpec(origin=(1.5, 1.5), spacing=0.1, counts=(60, 40), height=1.0)
        txs = grid_positions(grid)[::150]
        expected = image_source_sum_longdouble(scene, txs, rx, p)
        got = response_matrix(scene, txs, rx, p)
        rms = np.sqrt(np.mean(np.abs(expected) ** 2))
        assert np.abs(got - expected).max() <= 1e-12 * rms


class TestRoomAverageGain:
    def test_unit_distance_free_space(self):
        scene = RoomScene(max_order=0)
        grid = GridSpec(origin=(4.0, 4.0), spacing=0.1, counts=(1, 1), height=1.0)
        gain = RoomTrace(scene, grid, (4.0, 4.0, 2.0)).rms_gain(make_params())
        assert gain == pytest.approx(1e-5, abs=1e-5 * 1e-12)  # the amplitude scale

    def test_against_two_loop_recomputation(self):
        scene = RoomScene()
        grid = GridSpec(origin=(2.0, 2.0), spacing=0.2, counts=(5, 5), height=1.0)
        p = make_params(M=4)
        bob = (8.0, 6.0, 2.0)
        gain = RoomTrace(scene, grid, bob).rms_gain(p)
        total = 0.0
        count = 0
        for pt in grid_positions(grid):
            h = response_matrix(scene, [pt], bob, p)[0]
            for m in range(p.M):
                total += abs(h[m]) ** 2
                count += 1
        assert gain == pytest.approx(math.sqrt(total / count), rel=1e-12)


class TestRoomTrace:
    def test_shared_tone_grid_matches_each_set(self):
        # M = 5, 10, 20 and 30 are every 12th, 6th, 3rd and 2nd tone of one
        # 60-tone grid; its columns match each set's own trace and the image
        # sum taken in extended precision.
        scene = RoomScene(max_order=6)
        rx = (8.0, 6.0, 2.0)
        grid = GridSpec(origin=(1.5, 1.5), spacing=0.7, counts=(4, 4), height=1.0)
        trace = RoomTrace(scene, grid, rx)
        sets = [make_params(M=M) for M in (5, 10, 20, 30)]
        trace.prepare(sets)
        for p in sets:
            got = trace.responses(p, np.arange(grid.n_points))
            own = response_matrix(scene, trace.positions, rx, p)
            expected = image_source_sum_longdouble(scene, trace.positions, rx, p)
            rms = np.sqrt(np.mean(np.abs(expected) ** 2))
            assert np.abs(got - own).max() <= 1e-12 * rms
            assert np.abs(got - expected).max() <= 1e-12 * rms


class TestRowsOnDemand:
    # M = 5, 10, 20 and 30 share one 60-tone grid when they are planned
    # together (lcm views), and each has its own grid otherwise (plain).
    SCENE = RoomScene(max_order=3)
    GRID = GridSpec(origin=(1.5, 1.5), spacing=0.7, counts=(4, 3), height=1.0)
    RX = (8.0, 6.0, 2.0)
    SETS = {M: make_params(M=M) for M in (5, 10, 20, 30)}

    def trace(self, shared: bool) -> RoomTrace:
        trace = RoomTrace(self.SCENE, self.GRID, self.RX)
        if shared:
            trace.prepare(self.SETS.values())
        return trace

    @settings(max_examples=60, deadline=None)
    @given(
        shared=st.booleans(),
        requests=st.lists(
            st.tuples(st.sampled_from([5, 10, 20, 30]), st.lists(st.integers(0, 11), max_size=16)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_any_rows_match_the_full_trace(self, shared, requests):
        # Rows asked for in any order, with repeats, and in any sequence of
        # tone sets have the bits of a whole-grid trace and are never NaN.
        fresh = self.trace(shared)
        every = np.arange(self.GRID.n_points)
        full = {M: fresh.responses(params, every) for M, params in self.SETS.items()}
        trace = self.trace(shared)
        for M, rows in requests:
            rows = np.array(rows, dtype=np.intp)
            got = trace.responses(self.SETS[M], rows)
            assert got.shape == (len(rows), M)
            assert not np.isnan(got).any()
            assert np.array_equal(got, full[M][rows])
        for M in self.SETS:
            whole = trace.responses(self.SETS[M], every)
            assert not np.isnan(whole).any()
            assert np.array_equal(whole, full[M])

    def test_traces_only_the_rows_not_held(self, monkeypatch):
        traced = []
        real = response_matrix
        monkeypatch.setattr(
            raytrace, "response_matrix", lambda scene, txs, rx, params: traced.append(len(txs)) or real(scene, txs, rx, params)
        )
        trace = self.trace(shared=True)
        trace.responses(self.SETS[5], [3, 1, 3])
        trace.responses(self.SETS[30], [1, 3])  # held: the same 60-tone grid
        trace.responses(self.SETS[10], [0, 3, 11])
        trace.responses(self.SETS[20], np.arange(self.GRID.n_points))
        assert traced == [2, 2, 8]

    def test_holds_only_the_rows_traced(self):
        # 10 rows of a 30 000-point grid at M = 20: the trace keeps those rows
        # and one slot per point (8 B), not a (points x M) complex array (9.6 MB).
        grid = GridSpec(origin=(0.5, 0.5), spacing=0.04, counts=(200, 150), height=1.0)
        trace = RoomTrace(self.SCENE, grid, self.RX)
        params = make_params(M=20)
        rows = np.arange(0, grid.n_points, grid.n_points // 10)
        tracemalloc.start()
        try:
            got = trace.responses(params, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, response_matrix(self.SCENE, trace.positions[rows], self.RX, params))
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("first_rows", [None, [11, 2, 7]], ids=["whole", "rows_first"])
    def test_rms_gain_is_the_whole_grid_rms(self, first_rows):
        # The gain is the RMS of every grid point's response, whether the
        # whole grid was traced at once or some rows were traced before it,
        # out of grid order (then the sum runs in traced order).
        trace = self.trace(shared=False)
        if first_rows is not None:
            trace.responses(self.SETS[10], first_rows)
        every = response_matrix(self.SCENE, trace.positions, self.RX, self.SETS[10])
        expected = np.sqrt(np.mean(np.abs(every) ** 2))
        assert trace.rms_gain(self.SETS[10]) == pytest.approx(expected, rel=1e-15, abs=0)


class TestPhysicalPremises:
    def test_spatial_decorrelation_trend(self):
        # Median normalized correlation should fall with displacement:
        # 1 mm >> lambda/2 >> 2 lambda separations.
        scene = RoomScene(max_order=3)
        p = make_params(M=10)
        bob = (8.0, 6.0, 2.0)
        lam = raytrace.SPEED_OF_LIGHT / p.f0
        gen = RngStream(60).generator
        corrs = {delta: [] for delta in (1e-3, lam / 2, 2 * lam)}
        for _ in range(100):
            base = np.array([
                1.0 + 7.0 * gen.random(),
                1.0 + 5.5 * gen.random(),
                0.5 + 2.0 * gen.random(),
            ])
            theta = 2 * np.pi * gen.random()
            direction = np.array([np.cos(theta), np.sin(theta), 0.0])
            h0 = response_matrix(scene, [base], bob, p)[0]
            for delta in corrs:
                shifted = base + delta * direction
                if not np.all((shifted > 0) & (shifted < scene.dimensions)):
                    continue
                h1 = response_matrix(scene, [shifted], bob, p)[0]
                c = abs(np.vdot(h0, h1)) / (np.linalg.norm(h0) * np.linalg.norm(h1))
                corrs[delta].append(c)
        m1, m2, m3 = (np.median(corrs[d]) for d in (1e-3, lam / 2, 2 * lam))
        assert m1 > m2 > m3

    def test_frequency_selectivity(self):
        scene = RoomScene()
        p = make_params(W=1e8, M=32)
        mags = np.abs(response_matrix(scene, [(2.5, 3.0, 1.0)], (8.0, 6.0, 2.0), p)[0])
        assert mags.max() / mags.min() > 1.1
