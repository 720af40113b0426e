import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import ContractError, motion
from dmmaction.motion import estimate_flow, flow_magnitude, normalize_magnitude
from oracles import horn_schunck_oracle


def _square_frame(h, w, top, left, size=4, value=200.0):
    frame = np.zeros((h, w))
    frame[top : top + size, left : left + size] = value
    return frame


def _smooth_texture(gy, gx):
    return 120.0 + 60.0 * np.sin(2 * np.pi * gx / 8.0) * np.sin(2 * np.pi * gy / 8.0)


def _textured_pair(dy, dx, h=24, w=24, top=8, left=8, size=8):
    # Smooth sinusoid texture; a one-pixel shift stays in the linear range.
    gy, gx = np.mgrid[0:size, 0:size].astype(np.float64)
    a = np.full((h, w), 120.0)
    b = np.full((h, w), 120.0)
    a[top : top + size, left : left + size] = _smooth_texture(gy, gx)
    b[top : top + size, left : left + size] = _smooth_texture(gy - dy, gx - dx)
    mask = np.zeros((h, w), dtype=bool)
    mask[top + 1 : top + size - 1, left + 1 : left + size - 1] = True
    return a, b, mask


class TestEstimateFlow:
    def test_identical_frames_give_zero_flow(self, rng):
        frame = rng.random((12, 12)) * 255.0
        ox, oy = estimate_flow(frame, frame, iterations=50)
        assert float(np.abs(ox).max()) < 1e-6
        assert float(np.abs(oy).max()) < 1e-6

    def test_uniform_frames_give_zero_flow(self):
        a = np.full((10, 10), 80.0)
        b = np.full((10, 10), 80.0)
        ox, oy = estimate_flow(a, b, iterations=50)
        assert float(np.abs(ox).max()) < 1e-6
        assert float(np.abs(oy).max()) < 1e-6

    def test_unit_x_shift_recovered(self):
        a, b, moving = _textured_pair(0, 1)
        ox, oy = estimate_flow(a, b, iterations=100, smoothness=0.02)
        assert 0.8 <= float(ox[moving].mean()) <= 1.2
        assert -0.2 <= float(oy[moving].mean()) <= 0.2

    def test_unit_y_shift_recovered(self):
        a, b, moving = _textured_pair(1, 0)
        ox, oy = estimate_flow(a, b, iterations=100, smoothness=0.02)
        assert 0.8 <= float(oy[moving].mean()) <= 1.2
        assert -0.2 <= float(ox[moving].mean()) <= 0.2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            estimate_flow(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_tiny_frame_rejected(self):
        with pytest.raises(ContractError):
            estimate_flow(np.zeros((1, 4)), np.zeros((1, 4)))

    def test_tiny_frames_in_a_stack_rejected(self):
        with pytest.raises(ContractError):
            estimate_flow(np.zeros((3, 4, 1)), np.zeros((3, 4, 1)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ContractError):
            estimate_flow(np.zeros(8), np.zeros(8))

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            estimate_flow(np.zeros((3, 4, 4)), np.zeros((2, 4, 4)))

    def test_negative_iterations_rejected(self):
        with pytest.raises(ContractError, match="iterations must be >= 0, got -3"):
            estimate_flow(np.zeros((6, 6)), np.ones((6, 6)), iterations=-3)

    @pytest.mark.parametrize(
        "smoothness",
        [0.0, -0.02, np.nan, np.inf, -np.inf, 1e-30, 1e20],
        ids=["zero", "negative", "nan", "inf", "-inf", "square-underflows", "square-overflows"],
    )
    def test_smoothness_out_of_range_rejected(self, smoothness):
        # Zero smoothness alone made every pixel of a 6x6 pair NaN; an
        # infinite or NaN one was blamed on the frames.
        with pytest.raises(ContractError, match="smoothness must be finite and > 0"):
            estimate_flow(np.zeros((6, 6)), np.ones((6, 6)), iterations=3, smoothness=smoothness)

    def test_horizontal_mirror_negates_ox(self):
        a = _square_frame(16, 16, 6, 5) + np.arange(16) * 3.0
        b = _square_frame(16, 16, 6, 6) + np.arange(16) * 3.0
        plain_ox, plain_oy = estimate_flow(a, b, iterations=100)
        mirrored_ox, mirrored_oy = estimate_flow(np.fliplr(a), np.fliplr(b), iterations=100)
        assert float(np.abs(mirrored_ox + np.fliplr(plain_ox)).max()) < 1e-3
        assert float(np.abs(mirrored_oy - np.fliplr(plain_oy)).max()) < 1e-3

    def test_finite_everywhere(self, rng):
        a = rng.random((10, 10)) * 255.0
        b = rng.random((10, 10)) * 255.0
        ox, oy = estimate_flow(a, b)
        assert np.all(np.isfinite(ox))
        assert np.all(np.isfinite(oy))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_frame_rejected(self, bad, side):
        # The bad pixel sits in the second chunk, after one has been solved.
        frames = {"a": np.zeros((4, 6, 6)), "b": np.ones((4, 6, 6))}
        frames[side][3, 2, 4] = bad
        with mock.patch.object(motion, "FLOW_CHUNK_PIXELS", 2 * 6 * 6):
            with pytest.raises(ContractError, match="finite"):
                estimate_flow(frames["a"], frames["b"], iterations=3)

    @pytest.mark.parametrize("value", [3.5e38, -1e39, 1e300])
    def test_frame_beyond_float32_range_rejected(self, value):
        a = np.zeros((2, 6, 6))
        b = np.zeros((2, 6, 6))
        b[1, 0, 0] = value
        with pytest.raises(ContractError, match="float32 range"):
            estimate_flow(a, b, iterations=3)

    @pytest.mark.parametrize(
        "a_value, b_value",
        [
            (np.finfo(np.float32).max, np.finfo(np.float32).max),  # a + b overflows
            (np.finfo(np.float32).max, -np.finfo(np.float32).max),  # b - a overflows
            (1e20, 1e20),  # a squared gradient overflows
        ],
        ids=["sum", "difference", "squared-gradient"],
    )
    def test_frames_overflowing_the_solver_rejected(self, a_value, b_value):
        # Finite in float32, yet the solver's float32 arithmetic overflows,
        # which would make the flow NaN or wrong.
        a = np.zeros((2, 6, 6))
        b = np.zeros((2, 6, 6))
        a[1, 2, 3] = a_value
        b[1, 2, 3] = b_value
        with pytest.raises(ContractError, match="overflow"):
            estimate_flow(a, b, iterations=3)

    def test_u32_depth_range_solves_to_finite_flow(self):
        # The largest step a depth map can hold, moving one pixel right.
        a = np.zeros((2, 6, 6))
        a[:, 1:4, 1:3] = 2**32 - 1
        b = np.roll(a, 1, axis=-1)
        ox, oy = estimate_flow(a, b, iterations=5)
        assert np.isfinite(ox).all() and np.isfinite(oy).all()
        assert np.abs(ox).max() > 0


def _assert_matches_oracle(a, b, iterations, smoothness=0.02):
    ox, oy = estimate_flow(a, b, iterations=iterations, smoothness=smoothness)
    assert ox.shape == oy.shape == a.shape
    for idx in np.ndindex(a.shape[:-2]):
        want_ox, want_oy = horn_schunck_oracle(
            a[idx], b[idx], iterations, smoothness, dtype=np.float32
        )
        assert ox[idx].tobytes() == want_ox.tobytes()
        assert oy[idx].tobytes() == want_oy.tobytes()


def _level_frames(seed, shape):
    # Depth-like frames: a few coarse levels, so static and zero regions
    # (where signed zeros could differ) are common.
    local = np.random.default_rng(seed)
    a = local.integers(0, 4, size=shape) * 50.0
    b = np.where(local.random(a.shape) < 0.5, a, local.integers(0, 4, size=a.shape) * 50.0)
    return a, b


class TestBatchedFlow:
    """Stacked pairs give byte-for-byte the per-pair float32 Horn-Schunck result."""

    @given(
        st.integers(0, 10_000),
        st.integers(2, 7),
        st.integers(2, 7),
        st.sampled_from([(), (1,), (5,), (2, 3)]),
        st.integers(1, 3),
        st.sampled_from([1, 30]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pair_oracle(self, seed, h, w, lead, chunk_pairs, iterations):
        a, b = _level_frames(seed, lead + (h, w))
        with mock.patch.object(motion, "FLOW_CHUNK_PIXELS", chunk_pairs * h * w):
            _assert_matches_oracle(a, b, iterations)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_real_chunk_boundary(self, rng, offset):
        h, w = 48, 64
        pairs = motion.FLOW_CHUNK_PIXELS // (h * w) + offset
        a = rng.random((pairs, h, w)) * 255.0
        b = a + rng.normal(size=a.shape)
        _assert_matches_oracle(a, b, iterations=30)

    def test_frame_larger_than_chunk(self, rng):
        a = rng.random((2, 3, 130, 130))
        b = rng.random((2, 3, 130, 130))
        _assert_matches_oracle(a, b, iterations=1)

    def test_empty_stack(self):
        ox, oy = estimate_flow(np.zeros((0, 4, 5)), np.zeros((0, 4, 5)))
        assert ox.shape == oy.shape == (0, 4, 5)

    def test_zero_iterations_give_zero_flow(self, rng):
        ox, oy = estimate_flow(rng.random((3, 4, 4)), rng.random((3, 4, 4)), iterations=0)
        assert not ox.any() and not oy.any()


class _AllocationRecorder:
    """numpy as the motion module sees it, recording the dtype of every
    array that an allocation function hands back."""

    ALLOCATORS = frozenset({"empty", "zeros", "ones", "empty_like", "zeros_like", "ones_like"})

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in self.ALLOCATORS:
            return real

        def allocate(*args, **kwargs):
            out = real(*args, **kwargs)
            self.dtypes.append(out.dtype)
            return out

        return allocate


class TestFlowFloat32:
    """The solver iterates in float32 and hands back float64."""

    # Measured worst |float32 - float64| over the frames below: 1.9e-6
    # (flow values up to about 150).
    FLOW_ATOL = 4e-6

    def test_near_the_float64_oracle(self):
        worst = 0.0
        for seed in range(20):
            a, b = _level_frames(seed, (6, 12, 16))
            for iterations in (1, 30, 100):
                ox, oy = estimate_flow(a, b, iterations=iterations)
                for i in range(len(a)):
                    want_ox, want_oy = horn_schunck_oracle(a[i], b[i], iterations, 0.02)
                    worst = max(worst, np.abs(ox[i] - want_ox).max())
                    worst = max(worst, np.abs(oy[i] - want_oy).max())
        assert worst <= self.FLOW_ATOL

    @pytest.mark.parametrize("smoothness", [0.3, np.float64(0.3)], ids=["float", "np.float64"])
    def test_every_buffer_is_float32_and_flow_float64(self, smoothness):
        a, b = _level_frames(5, (7, 9, 11))
        recorder = _AllocationRecorder()
        with mock.patch.object(motion, "FLOW_CHUNK_PIXELS", 3 * 9 * 11):
            with mock.patch.object(motion, "np", recorder):
                ox, oy = estimate_flow(a, b, iterations=4, smoothness=smoothness)
        # ox and oy are the only float64 arrays; three chunks of solver buffers.
        assert recorder.dtypes[:2] == [np.float64, np.float64]
        assert len(recorder.dtypes) > 2
        assert all(dtype == np.float32 for dtype in recorder.dtypes[2:])
        assert all(type(weight) is np.float32 for weight, _, _ in motion._AVG_TERMS)
        assert ox.dtype == oy.dtype == np.float64
        # A float64 operand anywhere in a step would change these bytes.
        for i in range(len(a)):
            want_ox, want_oy = horn_schunck_oracle(a[i], b[i], 4, smoothness, dtype=np.float32)
            assert ox[i].tobytes() == want_ox.tobytes()
            assert oy[i].tobytes() == want_oy.tobytes()

    def test_peak_memory_is_the_outputs_and_fifteen_float32_chunks(self, rng):
        a = rng.random((200, 48, 64)) * 255.0
        b = a + rng.normal(size=a.shape)
        tracemalloc.start()
        try:
            ox, oy = estimate_flow(a, b, iterations=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = ox.nbytes + oy.nbytes
        assert peak < outputs + 15 * 4 * motion.FLOW_CHUNK_PIXELS + 2**16


class TestFlowMagnitude:
    def test_squared_norm_no_sqrt(self):
        g = flow_magnitude((np.array([[3.0]]), np.array([[4.0]])))
        assert g[0, 0] == 25.0
        assert g.dtype == np.float64

    def test_zero_flow(self):
        flow = (np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.all(flow_magnitude(flow) == 0.0)

    def test_unit_x_flow(self):
        flow = (np.ones((2, 2)), np.zeros((2, 2)))
        assert np.all(flow_magnitude(flow) == 1.0)

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_elementwise_definition(self, seed):
        local = np.random.default_rng(seed)
        ox = local.normal(size=(5, 6))
        oy = local.normal(size=(5, 6))
        g = flow_magnitude((ox, oy))
        assert np.allclose(g, ox * ox + oy * oy, atol=0.0)
        assert np.all((g == 0.0) == ((ox == 0.0) & (oy == 0.0)))


class TestNormalizeMagnitude:
    def test_peak_division(self):
        out = normalize_magnitude(np.array([[1.0, 4.0], [2.0, 0.0]]))
        assert np.array_equal(out, [[0.25, 1.0], [0.5, 0.0]])

    def test_all_zero_passthrough(self):
        out = normalize_magnitude(np.zeros((2, 2)))
        assert np.all(out == 0.0)

    def test_idempotent(self, rng):
        once = normalize_magnitude(rng.random((4, 4)) * 9.0)
        twice = normalize_magnitude(once)
        assert np.array_equal(twice, once)

    @given(st.integers(0, 200), st.integers(-6, 6))
    @settings(max_examples=30, deadline=None)
    def test_dyadic_scale_invariance(self, seed, exp):
        # Power-of-two scaling is exact in binary floating point.
        local = np.random.default_rng(seed)
        base = local.random((4, 5)) + 0.01
        scale = 2.0**exp
        a = normalize_magnitude(base)
        b = normalize_magnitude(base * scale)
        assert np.array_equal(a, b)

    def test_negative_values_rejected(self):
        with pytest.raises(ContractError, match="finite and non-negative"):
            normalize_magnitude(np.array([[-1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ContractError, match="finite and non-negative"):
            normalize_magnitude(np.array([[0.5, bad]]))

    def test_range_in_unit_interval(self, rng):
        out = normalize_magnitude(rng.random((6, 6)) * 100.0)
        assert out.min() >= 0.0
        assert out.max() == 1.0
