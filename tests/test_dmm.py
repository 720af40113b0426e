import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import ALL, ContractError
from dmmaction.dmm import (
    Clip,
    DmmTemplate,
    accumulate_ramdmm,
    jet_rgb,
    render_grid,
    render_template,
    stack_clip,
)
from dmmaction.geometry import ProjectedMap
from dmmaction.motion import MagnitudeMap
from oracles import dmm_oracle


def _maps(values, plane="xy"):
    return [ProjectedMap(plane, np.asarray(v, dtype=np.float64)) for v in values]


def _unit_weights(n, shape):
    return [MagnitudeMap(np.ones(shape), normalized=True) for _ in range(n)]


def _dmm(maps, t, window, floor=0.0):
    """The unweighted map: accumulate_ramdmm with unit weights (d * 1.0 == d)."""
    weights = _unit_weights(len(maps) - 1, maps[0].grid.shape)
    return accumulate_ramdmm(maps, weights, t=t, window=window, floor=floor)


class TestAccumulateDmm:
    def test_scalar_example(self):
        maps = _maps([[[0.0]], [[3.0]], [[5.0]]])
        tpl = _dmm(maps, t=0, window=2)
        assert tpl.grid[0, 0] == 5.0
        assert tpl.plane == "xy"
        assert tpl.start == 0
        assert tpl.window == 2

    def test_constant_sequence_is_zero(self, rng):
        grid = rng.random((4, 5)) * 100.0
        maps = _maps([grid] * 6)
        tpl = _dmm(maps, t=0, window=ALL)
        assert np.all(tpl.grid == 0.0)

    def test_all_window_spans_remaining(self):
        maps = _maps([[[0.0]], [[1.0]], [[4.0]], [[9.0]]])
        tpl = _dmm(maps, t=0, window=ALL)
        assert tpl.grid[0, 0] == 9.0
        assert tpl.window == ALL

    def test_window_exceeding_sequence_rejected(self):
        maps = _maps([[[0.0]], [[1.0]], [[2.0]]])
        with pytest.raises(ContractError, match="3 maps"):
            _dmm(maps, t=0, window=5)

    def test_single_difference_window_rejected(self):
        maps = _maps([[[0.0]], [[1.0]], [[2.0]]])
        with pytest.raises(ContractError):
            _dmm(maps, t=0, window=1)

    @given(st.integers(0, 400), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_telescoping_split(self, seed, a, b):
        # Integer-valued grids make the split identity float-exact.
        local = np.random.default_rng(seed)
        frames = local.integers(0, 50, size=(a + b + 1, 3, 4)).astype(np.float64)
        maps = _maps(list(frames))
        left = _dmm(maps, t=0, window=a).grid
        right = _dmm(maps, t=a, window=b).grid
        whole = _dmm(maps, t=0, window=a + b).grid
        assert np.array_equal(left + right, whole)

    def test_noise_floor_drops_small_differences(self):
        maps = _maps([[[0.0]], [[0.5]], [[4.5]]])
        plain = _dmm(maps, t=0, window=2)
        floored = _dmm(maps, t=0, window=2, floor=1.0)
        assert plain.grid[0, 0] == 4.5
        assert floored.grid[0, 0] == 4.0

    def test_mismatched_planes_rejected(self):
        maps = [
            ProjectedMap("xy", np.zeros((2, 2))),
            ProjectedMap("yz", np.zeros((2, 2))),
            ProjectedMap("xy", np.zeros((2, 2))),
        ]
        with pytest.raises(ContractError):
            _dmm(maps, t=0, window=2)


    @given(
        st.integers(0, 400),
        st.integers(3, 9),
        st.sampled_from([0.0, 5.0, 20.0]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_weights_match_oracle(self, seed, n, floor, data):
        frames = np.random.default_rng(seed).random((n, 3, 4)) * 40.0
        maps = _maps(list(frames))
        t = data.draw(st.integers(0, n - 3))
        window = data.draw(st.sampled_from([ALL, *range(2, n - t)]))
        got = _dmm(maps, t, window, floor=floor).grid
        assert got.tobytes() == dmm_oracle(frames, t, window, floor=floor).tobytes()


class TestAccumulateRamdmm:
    def test_scalar_example(self):
        maps = _maps([[[0.0]], [[3.0]], [[5.0]]])
        weights = [
            MagnitudeMap(np.array([[0.5]]), normalized=True),
            MagnitudeMap(np.array([[1.0]]), normalized=True),
        ]
        tpl = accumulate_ramdmm(maps, weights, t=0, window=2)
        assert tpl.grid[0, 0] == 3.5

    def test_unit_weights_reduce_to_dmm(self, rng):
        frames = rng.integers(0, 30, size=(5, 4, 4)).astype(np.float64)
        maps = _maps(list(frames))
        weights = _unit_weights(4, (4, 4))
        weighted = accumulate_ramdmm(maps, weights, t=0, window=4)
        assert weighted.grid.tobytes() == dmm_oracle(frames, 0, 4).tobytes()

    def test_zero_weights_give_zero(self, rng):
        frames = rng.random((4, 3, 3)) * 50.0
        maps = _maps(list(frames))
        weights = [MagnitudeMap(np.zeros((3, 3)), normalized=True) for _ in range(3)]
        tpl = accumulate_ramdmm(maps, weights, t=0, window=3)
        assert np.all(tpl.grid == 0.0)

    def test_weighted_bounded_by_unweighted(self, rng):
        frames = rng.random((6, 4, 5)) * 80.0
        maps = _maps(list(frames))
        weights = [
            MagnitudeMap(rng.random((4, 5)), normalized=True) for _ in range(5)
        ]
        weighted = accumulate_ramdmm(maps, weights, t=0, window=ALL)
        plain = dmm_oracle(frames, 0, ALL)
        assert np.all(weighted.grid <= plain + 1e-12)

    def test_misaligned_weights_rejected(self):
        maps = _maps([[[0.0]], [[1.0]], [[2.0]]])
        weights = _unit_weights(1, (1, 1))
        with pytest.raises(ContractError, match="1 weight"):
            accumulate_ramdmm(maps, weights, t=0, window=2)

    def test_unnormalized_weights_rejected(self):
        maps = _maps([[[0.0]], [[1.0]], [[2.0]]])
        weights = [
            MagnitudeMap(np.array([[2.0]]), normalized=False),
            MagnitudeMap(np.array([[1.0]]), normalized=True),
        ]
        with pytest.raises(ContractError, match="not normalized"):
            accumulate_ramdmm(maps, weights, t=0, window=2)

    def test_angle_tag_copied(self):
        maps = _maps([[[0.0]], [[1.0]], [[2.0]]])
        weights = _unit_weights(2, (1, 1))
        tpl = accumulate_ramdmm(maps, weights, t=0, window=2, angle=-30.0)
        assert tpl.angle == -30.0


class TestJetColormap:
    def test_endpoints_and_waypoints(self):
        out = np.rint(255.0 * jet_rgb(np.array([0.0, 0.25, 0.5, 0.75, 1.0])))
        expected = [
            [0, 0, 128],
            [0, 128, 255],
            [128, 255, 128],
            [255, 128, 0],
            [128, 0, 0],
        ]
        assert np.array_equal(out, expected)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_channels_within_unit_interval(self, u):
        rgb = jet_rgb(np.array([u]))[0]
        assert np.all(rgb >= 0.0)
        assert np.all(rgb <= 1.0)


class TestRenderTemplate:
    def test_zero_template_is_solid_darkest_blue(self):
        tpl = DmmTemplate("xy", 5, 0.0, 0, np.zeros((16, 16)))
        img = render_template(tpl, (16, 16))
        assert np.all(img == np.array([0, 0, 128], dtype=np.uint8))

    def test_max_pixel_is_formula_red(self):
        grid = np.zeros((16, 16))
        grid[7, 7] = 9.0
        img = render_grid(grid, (16, 16))
        assert tuple(img[7, 7]) == (128, 0, 0)

    def test_wide_grid_gets_vertical_bands(self):
        # 16:9 grid in a square output: black bands above and below.
        grid = np.ones((9, 16))
        grid[0, 0] = 2.0
        img = render_grid(grid, (32, 32))
        assert np.all(img[:6] == 0)
        assert np.all(img[-6:] == 0)
        assert np.any(img[16] != 0)

    def test_scale_invariance_pixel_exact(self, rng):
        grid = rng.random((12, 20)) * 40.0
        a = render_grid(grid, (28, 28))
        b = render_grid(grid * 7.3, (28, 28))
        assert np.array_equal(a, b)

    def test_output_shape_and_dtype(self, rng):
        img = render_grid(rng.random((5, 7)), (24, 40))
        assert img.shape == (24, 40, 3)
        assert img.dtype == np.uint8

    def test_small_output_rejected(self):
        with pytest.raises(ContractError):
            render_grid(np.ones((4, 4)), (7, 16))


class TestStackClip:
    def _frames(self, n):
        return [np.full((8, 8, 3), i, dtype=np.uint8) for i in range(n)]

    def test_two_of_three(self):
        clip = stack_clip(self._frames(3), t=2, lam=2)
        assert len(clip) == 2
        assert clip.frames[0, 0, 0, 0] == 1
        assert clip.frames[1, 0, 0, 0] == 2

    def test_single_frame(self):
        clip = stack_clip(self._frames(1), t=0, lam=1)
        assert len(clip) == 1
        assert clip.frames[0, 0, 0, 0] == 0

    def test_sixteen_of_twenty(self):
        clip = stack_clip(self._frames(20), t=19, lam=16)
        assert len(clip) == 16
        assert [int(f[0, 0, 0]) for f in clip.frames] == list(range(4, 20))

    def test_insufficient_history_rejected(self):
        with pytest.raises(ContractError, match="needs index"):
            stack_clip(self._frames(3), t=1, lam=3)

    def test_contiguous_slice_property(self, rng):
        frames = self._frames(12)
        t = 9
        lam = 5
        clip = stack_clip(frames, t=t, lam=lam)
        expected = [int(f[0, 0, 0]) for f in frames[t - lam + 1 : t + 1]]
        assert [int(f[0, 0, 0]) for f in clip.frames] == expected

    def test_clip_shape_validation(self):
        with pytest.raises(ContractError):
            Clip(np.zeros((2, 4, 4), dtype=np.uint8))
