import ast
import dataclasses
import hashlib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmmaction import ContractError, neural
from dmmaction.neural import (
    Conv3d,
    Dense,
    MaxPool3d,
    NetworkSpec,
    c3d_network,
    clip_to_tensor,
    conv3d_forward,
    dense_forward,
    desk_network,
    draw_once,
    extract_features,
    infer_shapes,
    maxpool3d,
    run_layers,
    stream_rng,
)
from oracles import (
    conv3d_oracle,
    conv3d_shift_oracle,
    dense_oracle,
    draw_oracle,
    maxpool3d_oracle,
)


def _identity_layer():
    return Conv3d(
        "ident",
        weights=np.ones((1, 1, 1, 1, 1)),
        bias=np.zeros(1),
    )


class TestConv3dForward:
    def test_identity_kernel_is_tanh(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        out = conv3d_forward(x, _identity_layer())
        assert np.allclose(out, np.tanh(x), atol=0.0)

    def test_zero_weights_give_zero(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        layer = Conv3d("z", weights=np.zeros((3, 2, 2, 2, 2)), bias=np.zeros(3))
        out = conv3d_forward(x, layer)
        assert np.all(out == 0.0)

    def test_matches_oracle_2map(self):
        local = np.random.default_rng(11)
        x = local.normal(size=(2, 4, 6, 6))
        w = local.normal(size=(3, 2, 3, 3, 3)) * 0.2
        b = local.normal(size=3) * 0.1
        layer = Conv3d("c", weights=w, bias=b)
        out = conv3d_forward(x, layer)
        ref = conv3d_oracle(x, w, b, stride=(1, 1, 1), padding=(0, 0, 0))
        assert out.shape == ref.shape == (3, 2, 4, 4)
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_stride_and_padding_match_oracle(self):
        local = np.random.default_rng(12)
        x = local.normal(size=(1, 5, 7, 7))
        w = local.normal(size=(2, 1, 3, 3, 3)) * 0.3
        b = np.zeros(2)
        layer = Conv3d("c", weights=w, bias=b, stride=(2, 2, 2), padding=(1, 1, 1))
        out = conv3d_forward(x, layer)
        ref = conv3d_oracle(x, w, b, stride=(2, 2, 2), padding=(1, 1, 1))
        assert np.max(np.abs(out - ref)) < 1e-6

    def test_channel_mismatch_rejected(self):
        layer = Conv3d("c", weights=np.zeros((1, 3, 1, 1, 1)), bias=np.zeros(1))
        with pytest.raises(ContractError):
            conv3d_forward(np.zeros((2, 2, 2, 2)), layer)

    def test_kernel_larger_than_input_rejected(self):
        layer = Conv3d("c", weights=np.zeros((1, 1, 5, 1, 1)), bias=np.zeros(1))
        with pytest.raises(ContractError):
            conv3d_forward(np.zeros((1, 3, 4, 4)), layer)

    def test_output_strictly_inside_unit_interval(self, rng):
        net = desk_network(stream_rng(8, "range"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        for name, acts in run_layers(clip_to_tensor(frames), net):
            if name.startswith("conv"):
                assert np.max(np.abs(acts)) < 1.0

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_seeded_cases_match_oracle(self, seed):
        local = np.random.default_rng(seed)
        cin = int(local.integers(1, 3))
        cout = int(local.integers(1, 3))
        d, h, w_ = (int(v) for v in local.integers(2, 5, size=3))
        kd = int(local.integers(1, d + 1))
        kh = int(local.integers(1, h + 1))
        kw = int(local.integers(1, w_ + 1))
        x = local.normal(size=(cin, d, h, w_))
        w = local.normal(size=(cout, cin, kd, kh, kw)) * 0.3
        b = local.normal(size=cout) * 0.1
        layer = Conv3d("c", weights=w, bias=b)
        assert np.max(np.abs(conv3d_forward(x, layer) - conv3d_oracle(x, w, b))) < 1e-6


def _f32_uniform(rng, scale, shape):
    return rng.uniform(-scale, scale, shape).astype(np.float32).astype(np.float64)


# Largest difference allowed between a float32 activation and the float64
# oracle's.  Measured: 8.3e-7 over 1,500 random layers with fan-in-scaled
# weights (as the builders draw them), 5.1e-7 on c3d's conv1 at 112x112.
F32_ATOL = 2e-6
# A budget no test layer reaches: every conv and dense layer runs as one chunk.
UNCHUNKED = 2**40


def _conv(x, layer, budget):
    with mock.patch.object(neural, "CONV_COLUMN_ELEMENTS", budget):
        return conv3d_forward(x, layer)


def _assert_chunked_conv(x, layer, budget):
    """Under a chunk budget, conv3d_forward gives the unchunked float32
    bytes, and those are within F32_ATOL of the float64 oracle's."""
    out = _conv(x, layer, UNCHUNKED)
    assert out.dtype == np.float32
    assert _conv(x, layer, budget).tobytes() == out.tobytes()
    ref = conv3d_shift_oracle(
        x,
        np.asarray(layer.weights, dtype=np.float64),
        layer.bias.astype(np.float64),
        layer.stride,
        layer.padding,
    )
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) < F32_ATOL


def _chunks(layer, shape):
    """Output positions per chunk and per layer, at the patched budget."""
    maps, od, oh, ow = neural._layer_output_shape(shape, layer)
    taps = int(np.prod(layer.weights.shape[1:]))
    frames, rows = neural._conv_chunk(maps, taps, od, oh, ow)
    return frames * rows * ow, od * oh * ow


@st.composite
def _conv_cases(draw):
    """A layer with fan-in-scaled weights, an input and a chunk budget; half
    the cases are shapes whose frames pass the GEMM size bound, under a
    budget of one or more whole frames, so that they chunk, and half store
    their weights float32 as the builders do."""
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(3))
    padding = tuple(draw(st.integers(0, 1)) for _ in range(3))
    kvol = int(np.prod(kernel))
    big = draw(st.booleans())
    if big:
        od = draw(st.integers(2, 6))
        oh, ow = draw(st.sampled_from([(4, 4), (2, 8), (16, 1), (4, 12), (8, 8)]))
        out_maps = draw(st.integers(48, 128))
        floor = neural.CONV_GEMM_MIN_MACS // (out_maps * kvol * oh * ow) + 1
        in_maps = draw(st.integers(floor, floor + 8))
    else:
        od, oh, ow = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
        out_maps, in_maps = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dims = [
        (o - 1) * s + k - 2 * p
        for o, s, k, p in zip((od, oh, ow), stride, kernel, padding)
    ]
    assume(min(dims) >= 1)
    taps = in_maps * kvol
    budget = draw(st.integers(taps * oh * ow if big else 1, taps * od * oh * ow))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    local = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(taps)
    layer = Conv3d(
        "c",
        weights=_f32_uniform(local, scale, (out_maps, in_maps, *kernel)).astype(dtype),
        bias=_f32_uniform(local, scale, out_maps).astype(dtype),
        stride=stride,
        padding=padding,
    )
    return local.uniform(0.0, 1.0, (in_maps, *dims)), layer, budget


class TestConv3dChunked:
    """The chunked float32 conv3d_forward gives the unchunked bytes, within
    F32_ATOL of the float64 shift-and-accumulate oracle."""

    @given(_conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_chunked_bytes_equal_unchunked(self, case):
        _assert_chunked_conv(*case)

    @pytest.mark.parametrize(
        "in_maps, out_maps, depth, side",
        # conv1 runs in bands only above a 160-pixel side; two frames keep
        # the unchunked reference cheap.
        [(3, 64, 2, 168), (64, 128, 16, 56)],
        ids=["c3d-conv1", "c3d-conv2"],
    )
    def test_c3d_layers_chunk_and_match(self, in_maps, out_maps, depth, side):
        local = np.random.default_rng(in_maps)
        scale = 1.0 / np.sqrt(27 * in_maps)
        layer = Conv3d(
            "c3d",
            weights=_f32_uniform(local, scale, (out_maps, in_maps, 3, 3, 3)).astype(np.float32),
            bias=_f32_uniform(local, scale, out_maps).astype(np.float32),
            padding=(1, 1, 1),
        )
        x = local.uniform(0.0, 1.0, (in_maps, depth, side, side))
        chunk, whole = _chunks(layer, x.shape)
        assert chunk < side * side < whole  # bands of rows
        _assert_chunked_conv(x, layer, neural.CONV_COLUMN_ELEMENTS)

    def test_desk_layers_chunk_and_match(self):
        # 64x64 frames: at 32x32 each desk conv's 16 frames fit one chunk.
        net = desk_network(stream_rng(13, "desk-bytes"), height=64, width=64)
        x = np.random.default_rng(13).uniform(0.0, 1.0, net.input_shape)
        for layer in net.layers:
            if isinstance(layer, Conv3d):
                chunk, whole = _chunks(layer, x.shape)
                assert chunk < whole and chunk % (x.shape[2] * x.shape[3]) == 0  # whole frames
                _assert_chunked_conv(x, layer, neural.CONV_COLUMN_ELEMENTS)
                x = conv3d_forward(x, layer)
            elif isinstance(layer, MaxPool3d):
                x = maxpool3d(x, layer.kernel, layer.stride)

    @pytest.mark.parametrize(
        "out_maps, in_maps, side, budget, chunked",
        [
            (64, 80, 16, 2**15, True),  # one-row bands of 64 * 2160 * 16 MACs
            (2, 80, 16, 2**15, False),  # two output maps: a band is under the bound
            (1, 480, 48, 2**12, False),  # one output map: a matrix-vector product
            (8, 80, 16, 2160 * 16 * 15, False),  # 15-row bands leave a one-row tail under it
        ],
        ids=["bands", "small-gemm", "one-map", "small-tail"],
    )
    def test_only_chunks_above_the_gemm_bound(self, out_maps, in_maps, side, budget, chunked):
        local = np.random.default_rng(out_maps * in_maps)
        scale = 1.0 / np.sqrt(27 * in_maps)
        layer = Conv3d(
            "c",
            weights=_f32_uniform(local, scale, (out_maps, in_maps, 3, 3, 3)).astype(np.float32),
            bias=_f32_uniform(local, scale, out_maps).astype(np.float32),
            padding=(1, 1, 1),
        )
        x = local.uniform(0.0, 1.0, (in_maps, 3, side, side))
        with mock.patch.object(neural, "CONV_COLUMN_ELEMENTS", budget):
            chunk, whole = _chunks(layer, x.shape)
        assert (chunk < whole) == chunked
        _assert_chunked_conv(x, layer, budget)


class TestConvScratch:
    """conv3d_forward allocates its float32 output, one column buffer of at
    most CONV_COLUMN_ELEMENTS elements and one GEMM block, and nothing more:
    no padded copy of its input and no float64 array.  A layer whose
    weights are drawn, as a builder's are, also holds them, and one draw
    chunk, while it runs."""

    @pytest.mark.parametrize(
        "in_maps, out_maps, depth, side",
        [(3, 64, 16, 112), (256, 256, 8, 28)],
        ids=["c3d-conv1", "c3d-conv3b"],
    )
    def test_allocates_output_columns_and_one_gemm_block(self, in_maps, out_maps, depth, side):
        local = np.random.default_rng(0)
        w, b = neural._draw(local, out_maps, in_maps, 3, 3, 3)
        layer = Conv3d("c3d", w, b, padding=(1, 1, 1))
        x = local.uniform(0.0, 1.0, (in_maps, depth, side, side)).astype(np.float32)
        chunk, _ = _chunks(layer, x.shape)
        columns = in_maps * 27 * chunk
        assert columns <= neural.CONV_COLUMN_ELEMENTS
        out_nbytes = out_maps * depth * side * side * 4
        allowed = out_nbytes + 4 * columns + 4 * out_maps * chunk
        if isinstance(w, neural.DrawnMatrix):
            allowed += 4 * w.size + 8 * neural.DRAW_CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            out = conv3d_forward(x, layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32 and out.nbytes == out_nbytes
        assert peak < allowed + 2**16  # 64 KiB for Python objects and array views

    def test_activations_are_float32_and_features_float64(self):
        net = desk_network(stream_rng(9, "dtypes"), clip_len=8, height=16, width=16)
        frames = np.random.default_rng(9).integers(0, 256, (8, 16, 16, 3), dtype=np.uint8)
        x = clip_to_tensor(frames)
        assert x.dtype == np.float32 and x.flags.c_contiguous
        for name, acts in run_layers(x, net):
            assert acts.dtype == np.float32, name
        feats = extract_features(frames, net)
        assert feats.dtype == np.float64
        assert feats.tobytes() == acts.astype(np.float64).tobytes()


class TestMaxPool3d:
    def test_constant_tensor(self):
        out = maxpool3d(np.full((2, 4, 4, 4), 3.5), (2, 2, 2), (2, 2, 2))
        assert out.shape == (2, 2, 2, 2)
        assert np.all(out == 3.5)

    def test_eight_values_single_max(self):
        x = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        out = maxpool3d(x, (2, 2, 2), (2, 2, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8.0

    def test_first_pool_shape(self):
        out = maxpool3d(np.zeros((4, 16, 8, 8)), (1, 2, 2), (1, 2, 2))
        assert out.shape == (4, 16, 4, 4)

    def test_kernel_exceeding_input_rejected(self):
        with pytest.raises(ContractError):
            maxpool3d(np.zeros((1, 1, 4, 4)), (2, 2, 2), (2, 2, 2))

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_seeded_cases_match_oracle(self, seed):
        local = np.random.default_rng(seed)
        c = int(local.integers(1, 4))
        d, h, w = (int(v) for v in local.integers(2, 6, size=3))
        x = local.normal(size=(c, d, h, w))
        kernel = tuple(int(local.integers(1, s + 1)) for s in (d, h, w))
        stride = tuple(int(local.integers(1, 3)) for _ in range(3))
        out = maxpool3d(x, kernel, stride)
        assert np.array_equal(out, maxpool3d_oracle(x, kernel, stride))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_signed_zero_and_nan_match_oracle_bytes(self, data):
        # One sign of zero per input: a window holding both has no one
        # right answer, since np.maximum's choice on a tie is the kernel's.
        zero = data.draw(st.sampled_from([0.0, -0.0]))
        values = st.one_of(
            st.sampled_from([zero, np.nan, -np.inf, np.inf]),
            st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: v or zero),
        )
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(4))
        size = int(np.prod(shape))
        x = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
        kernel = tuple(data.draw(st.integers(1, n)) for n in shape[1:])
        stride = tuple(data.draw(st.integers(1, 2)) for _ in range(3))
        out = maxpool3d(x, kernel, stride)
        assert out.flags.c_contiguous
        assert out.tobytes() == maxpool3d_oracle(x, kernel, stride).tobytes()


def _dense_layer(seed, out_units, in_units, dtype=np.float32):
    local = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(in_units)
    return Dense(
        "fc",
        weights=_f32_uniform(local, scale, (out_units, in_units)).astype(dtype),
        bias=_f32_uniform(local, scale, out_units).astype(dtype),
    ), local.uniform(-1.0, 1.0, in_units)


def _dense(x, layer, budget):
    with mock.patch.object(neural, "DENSE_BLOCK_ELEMENTS", budget):
        return dense_forward(x, layer)


def _assert_blocked_dense(x, layer, budget):
    """Under a block budget, dense_forward gives the one-block float32
    bytes, and those are within F32_ATOL of the float64 oracle's."""
    out = _dense(x, layer, UNCHUNKED)
    assert out.dtype == np.float32
    assert _dense(x, layer, budget).tobytes() == out.tobytes()
    assert np.max(np.abs(out - dense_oracle(x, np.asarray(layer.weights), layer.bias))) < F32_ATOL


class TestDenseForward:
    """The row-blocked float32 dense layer gives the one-block bytes, within
    F32_ATOL of the float64 oracle."""

    @given(
        st.one_of(st.integers(1, 40).map(lambda n: 8 * n), st.integers(1, 330)),
        st.sampled_from([1, 7, 64, 513, 4608]),
        st.sampled_from([np.float32, np.float64]),
        st.one_of(st.none(), st.integers(1, 72)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocked_bytes_equal_one_block(self, out_units, in_units, dtype, rows, seed):
        # rows patches the block budget down to about that many rows, so
        # that several blocks and a tail run.
        layer, x = _dense_layer(seed, out_units, in_units, dtype)
        _assert_blocked_dense(x, layer, rows * in_units if rows else neural.DENSE_BLOCK_ELEMENTS)

    @pytest.mark.parametrize(
        "out_units, in_units, chunk, rows",
        [
            (1024, 4608, None, 112),  # c3d's fc6 input width: 9 blocks and a 16-row tail
            (64, 8192, None, 64),  # a desk fc layer fits one block
            (104, 50, 24 * 50, 24),  # 4 blocks and an 8-row tail
            (100, 4608, 8 * 4608, 100),  # no multiple of 8: one block
        ],
    )
    def test_blocks_and_tails_match(self, out_units, in_units, chunk, rows):
        layer, x = _dense_layer(out_units, out_units, in_units)
        budget = chunk or neural.DENSE_BLOCK_ELEMENTS
        with mock.patch.object(neural, "DENSE_BLOCK_ELEMENTS", budget):
            assert neural._dense_rows(out_units, in_units) == rows
        _assert_blocked_dense(x, layer, budget)

    def test_peak_memory_is_the_output_and_its_input(self):
        # float32 weights are read in place: no block is copied.
        layer, x = _dense_layer(0, 1024, 4608)
        x = x.astype(np.float32)
        tracemalloc.start()
        try:
            dense_forward(x, layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 4 + 2**12


class TestDrawnMatrix:
    """Every weight array is drawn again on each read; every row keeps the
    bits of the stored draw, and a dense layer the bytes of the stored
    float32 matrix run as one block."""

    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(2, 40).map(lambda n: 8 * n), st.integers(1, 330)),
        st.sampled_from([1, 7, 64, 513]),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_and_output_match_oracle_bytes(self, seed, out_units, in_units, eights, data):
        # The block budget is patched down to 8 * eights rows, so that
        # several blocks and a tail run.
        rows = 8 * eights
        with mock.patch.object(neural, "DENSE_BLOCK_ELEMENTS", rows * in_units):
            w, b = neural._draw(np.random.default_rng(seed), out_units, in_units)
            ref_w, ref_b = draw_oracle(np.random.default_rng(seed), out_units, in_units)
            assert isinstance(w, neural.DrawnMatrix)
            assert w.shape == ref_w.shape and w.size == ref_w.size and w.ndim == 2
            assert w.dtype == np.float32
            assert b.astype(np.float64).tobytes() == ref_b.tobytes()
            i = data.draw(st.integers(0, out_units), label="first row")
            j = data.draw(st.integers(i, out_units), label="stop row")
            assert w[i:j].dtype == np.float32
            assert w[i:j].astype(np.float64).tobytes() == ref_w[i:j].tobytes()
            x = np.random.default_rng(seed).uniform(-1.0, 1.0, in_units)
            out = dense_forward(x, Dense("fc", w, b))
        stored = Dense("fc", ref_w.astype(np.float32), ref_b.astype(np.float32))
        assert out.tobytes() == _dense(x, stored, UNCHUNKED).tobytes()

    def test_whole_matrix_is_the_stored_draw(self):
        with mock.patch.object(neural, "DENSE_BLOCK_ELEMENTS", 8 * 40):
            w, _ = neural._draw(np.random.default_rng(3), 64, 40)
        ref_w, _ = draw_oracle(np.random.default_rng(3), 64, 40)
        assert isinstance(w, neural.DrawnMatrix)
        assert np.asarray(w).dtype == np.float32
        assert np.asarray(w, dtype=np.float64).tobytes() == ref_w.tobytes()

    def test_strided_rows_rejected(self):
        w, _ = neural._draw(np.random.default_rng(0), 4096, 4608)
        with pytest.raises(ContractError, match="step 2"):
            w[0:16:2]

    @pytest.mark.parametrize(
        "key, kind",
        [(0, "int"), (np.int64(3), "int64"), ((slice(0, 2), 0), "tuple"), (..., "ellipsis")],
        ids=["int", "numpy-int", "tuple", "ellipsis"],
    )
    @pytest.mark.parametrize("shape", [(4096, 4608), (256, 128, 3, 3, 3)], ids=["dense", "conv"])
    def test_keys_other_than_a_row_slice_rejected(self, key, kind, shape):
        w, _ = neural._draw(np.random.default_rng(0), *shape)
        assert isinstance(w, neural.DrawnMatrix)
        with pytest.raises(ContractError, match=f"reads a slice of rows, got {kind}$"):
            w[key]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.data())
    @settings(max_examples=20, deadline=None)
    def test_conv_rows_match_oracle_bytes(self, seed, out_maps, data):
        # A conv-shaped array: a row is one output map's (in, 3, 3, 3) block.
        in_maps = data.draw(st.integers(1, 12), label="input maps")
        with mock.patch.object(neural, "DENSE_BLOCK_ELEMENTS", 27 * in_maps):
            w, b = neural._draw(np.random.default_rng(seed), out_maps, in_maps, 3, 3, 3)
        ref_w, ref_b = draw_oracle(np.random.default_rng(seed), out_maps, in_maps, 3, 3, 3)
        assert isinstance(w, neural.DrawnMatrix)
        assert w.shape == ref_w.shape and w.ndim == 5 and w.size == ref_w.size
        assert w.dtype == np.float32
        assert b.astype(np.float64).tobytes() == ref_b.tobytes()
        i = data.draw(st.integers(0, out_maps), label="first row")
        j = data.draw(st.integers(i, out_maps), label="stop row")
        assert w[i:j].astype(np.float64).tobytes() == ref_w[i:j].tobytes()
        assert np.asarray(w, dtype=np.float64).tobytes() == ref_w.tobytes()

    def test_other_bit_generators_rejected(self):
        with pytest.raises(ContractError, match="PCG64"):
            neural._draw(np.random.Generator(np.random.MT19937(0)), 4096, 4608)

    def test_dense_step_holds_no_matrix(self):
        # fc6's shape: the step, build included, holds a few row blocks,
        # not the 75.5 MB float32 matrix.
        matrix_nbytes = 4096 * 4608 * np.dtype(np.float32).itemsize
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 4608)
        tracemalloc.start()
        try:
            w, b = neural._draw(stream_rng(0, "fc6"), 4096, 4608)
            dense_forward(x, Dense("fc6", w, b))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_nbytes / 4


class TestDrawnNetworkMemory:
    """A c3d network stores only its biases, and a forward pass holds at
    most one drawn conv layer at a time."""

    def test_building_a_112_c3d_network_allocates_under_2_mib(self):
        rng = stream_rng(0, "build-memory")
        tracemalloc.start()
        try:
            net = c3d_network(rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weighted = [l for l in net.layers if isinstance(l, (Conv3d, Dense))]
        stored = sum(
            l.weights.nbytes + l.bias.nbytes
            for l in weighted
            if not isinstance(l.weights, neural.DrawnMatrix)
        )
        assert stored < peak < 2 * 2**20
        assert sum(4 * (l.weights.size + l.bias.size) for l in weighted) > 100 * stored

    def test_a_pass_holds_one_drawn_conv_layer_at_a_time(self):
        # A 32x32 network's conv weights are those of the 112x112 network.
        net = c3d_network(stream_rng(0, "pass-memory"), height=32, width=32)
        drawn = sorted(
            4 * l.weights.size
            for l in net.layers
            if isinstance(l, Conv3d) and isinstance(l.weights, neural.DrawnMatrix)
        )
        assert len(drawn) == 8 and sum(drawn) == 4 * (5_184 + 221_184 + 27_426_816)
        # A layer's input, its output and its GEMM block, each at most the
        # largest activation.
        activations = 3 * 4 * max(int(np.prod(shape)) for _, shape in infer_shapes(net))
        allowed = (
            drawn[-1] + activations + 4 * neural.CONV_COLUMN_ELEMENTS + 8 * neural.DRAW_CHUNK_ELEMENTS
        )
        assert allowed < drawn[-1] + drawn[-2]
        frames = np.random.default_rng(0).integers(0, 256, (16, 32, 32, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            extract_features(frames, net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drawn[-1] < peak < allowed


class TestBadLayerSettings:
    """A zero kernel or stride, or a negative padding, raises ContractError
    before any layer runs, with the layer rule that infer_shapes uses."""

    @pytest.mark.parametrize(
        "kernel, stride, what",
        [((0, 2, 2), (1, 1, 1), "kernel"), ((2, 2, 2), (1, 0, 1), "stride")],
    )
    def test_direct_pool_call_rejected(self, kernel, stride, what):
        with pytest.raises(ContractError, match=what):
            maxpool3d(np.ones((1, 4, 4, 4)), kernel, stride)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Conv3d("c", np.ones((1, 1, 1, 1, 1)), np.zeros(1), stride=(0, 1, 1)),
            lambda: Conv3d("c", np.ones((1, 1, 1, 1, 1)), np.zeros(1), padding=(0, -1, 0)),
            lambda: MaxPool3d("p", (2, 2, 2), (2, 0, 2)),
            lambda: MaxPool3d("p", (2, 2, 0), (1, 1, 1)),
        ],
        ids=["conv-stride", "conv-padding", "pool-stride", "pool-kernel"],
    )
    def test_network_layer_rejected_before_any_layer_runs(self, make):
        x = np.ones((1, 4, 4, 4))
        with mock.patch.object(neural, "conv3d_forward") as conv, mock.patch.object(
            neural, "maxpool3d"
        ) as pool, pytest.raises(ContractError):
            layers = run_layers(x, NetworkSpec("n", x.shape, (make(),)))
            next(layers)
        assert conv.call_count == pool.call_count == 0


class TestNetworks:
    def test_c3d_stack_shapes(self):
        net = c3d_network(stream_rng(0, "shape-check"))
        shapes = dict(infer_shapes(net))
        conv_maps = [
            shapes[n][0]
            for n in ("conv1", "conv2", "conv3a", "conv3b", "conv4a", "conv4b", "conv5a", "conv5b")
        ]
        assert conv_maps == [64, 128, 256, 256, 512, 512, 512, 512]
        assert shapes["pool1"][1:] == (16, 56, 56)
        assert shapes["fc6"] == (4096,)
        assert net.layers[-1].name == "fc6"
        weights = [l.weights.size for l in net.layers if isinstance(l, (Conv3d, Dense))]
        assert sum(weights) == 46_527_552

    def test_desk_inference_agrees_with_execution(self, rng):
        net = desk_network(stream_rng(1, "desk"), clip_len=8, height=32, width=32)
        inferred = infer_shapes(net)
        assert inferred[0] == ("input", net.input_shape)
        x = rng.random(net.input_shape)
        executed = list(run_layers(x, net))
        assert [n for n, _ in inferred[1:]] == [n for n, _ in executed]
        for (_, shape), (_, arr) in zip(inferred[1:], executed):
            assert shape == arr.shape

    def test_desk_fc_width_override(self, rng):
        net = desk_network(stream_rng(2, "fc32"), clip_len=8, height=32, width=32, fc_units=32)
        frames = (np.clip(rng.random((8, 32, 32, 3)) * 255, 0, 255)).astype(np.uint8)
        feats = extract_features(frames, net)
        assert len(feats) == 32

    def test_identical_clips_identical_features(self, rng):
        net = desk_network(stream_rng(3, "det"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        a = extract_features(frames.copy(), net)
        b = extract_features(frames.copy(), net)
        assert np.array_equal(a, b)

    def test_frame_permutation_changes_features(self, rng):
        net = desk_network(stream_rng(4, "time"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        fwd = extract_features(frames, net)
        rev = extract_features(frames[::-1].copy(), net)
        assert not np.array_equal(fwd, rev)

    def test_wrong_clip_shape_names_layer(self, rng):
        net = desk_network(stream_rng(5, "shape"), clip_len=4, height=16, width=16)
        frames = np.zeros((4, 12, 16, 3), dtype=np.uint8)
        with pytest.raises(ContractError, match="input"):
            extract_features(frames, net)

    @pytest.mark.parametrize(
        "shape", [(4, 16, 16), (4, 16, 16, 4)], ids=["three-dims", "four-channels"]
    )
    def test_clip_not_lam_h_w_3_rejected(self, shape):
        net = desk_network(stream_rng(5, "clip-shape"), clip_len=4, height=16, width=16)
        with mock.patch.object(neural, "run_layers") as run, pytest.raises(
            ContractError, match=r"clip must be \(lam, h, w, 3\)"
        ):
            extract_features(np.zeros(shape, dtype=np.uint8), net)
        assert run.call_count == 0

    def test_same_seed_same_weights(self):
        a = desk_network(stream_rng(6, "s"), clip_len=4, height=16, width=16)
        b = desk_network(stream_rng(6, "s"), clip_len=4, height=16, width=16)
        wa = a.layers[0].weights
        wb = b.layers[0].weights
        assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("preset", ["desk", "c3d"])
    def test_features_are_first_dense_activations(self, preset, rng):
        if preset == "desk":
            net = desk_network(stream_rng(7, "fc-stop"), clip_len=4, height=16, width=16)
        else:
            # 32x32 is the smallest frame the five c3d pools leave 1x1 of.
            net = c3d_network(stream_rng(7, "fc-stop"), height=32, width=32, fc_units=8)
        _, depth, height, width = net.input_shape
        frames = (rng.random((depth, height, width, 3)) * 255).astype(np.uint8)
        first_dense = next(l.name for l in net.layers if isinstance(l, Dense))
        full = dict(run_layers(clip_to_tensor(frames), net))
        feats = extract_features(frames, net)
        assert isinstance(feats, np.ndarray) and feats.dtype == np.float64
        assert feats.tobytes() == full[first_dense].astype(np.float64).tobytes()

    def test_layers_after_first_dense_never_run(self, rng):
        net = desk_network(stream_rng(7, "fc-tail"), clip_len=4, height=16, width=16, fc_units=8)
        # A network must end at its feature layer; one that goes on past it
        # is refused before any layer runs.
        after = MaxPool3d("after_fc", (1, 1, 1), (1, 1, 1))
        net = NetworkSpec(net.name, net.input_shape, net.layers + (after,))
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        with mock.patch.object(neural, "run_layers") as run, pytest.raises(
            ContractError, match="does not end at a fully-connected layer"
        ):
            extract_features(frames, net)
        assert run.call_count == 0

    @pytest.mark.parametrize(
        "place",
        [
            lambda layers, misfit: layers + (misfit,),
            # Straight after pool2, whose 16x2x4x4 output has 512 elements.
            lambda layers, misfit: layers[:-1] + (misfit,),
        ],
        ids=["after-fc", "after-pool"],
    )
    def test_misfit_dense_rejected_before_any_layer_runs(self, place, rng):
        net = desk_network(stream_rng(7, "fc-next"), clip_len=4, height=16, width=16, fc_units=8)
        misfit = Dense("fc_next", np.zeros((2, 5)), np.zeros(2))
        net = NetworkSpec(net.name, net.input_shape, place(net.layers, misfit))
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        with mock.patch.object(neural, "conv3d_forward") as conv, pytest.raises(
            ContractError, match="fc_next"
        ):
            extract_features(frames, net)
        assert conv.call_count == 0

    def test_run_layers_computes_one_layer_per_step(self, rng):
        net = desk_network(stream_rng(7, "lazy"), clip_len=4, height=16, width=16)
        x = rng.random(net.input_shape)
        with mock.patch.object(neural, "conv3d_forward", wraps=conv3d_forward) as conv:
            layers = run_layers(x, net)
            assert conv.call_count == 0
            name, acts = next(layers)
            assert conv.call_count == 1
            assert name == "conv1"
            assert acts.shape == dict(infer_shapes(net))["conv1"]
            assert [n for n, _ in layers] == [l.name for l in net.layers[1:]]
        assert conv.call_count == 2

    def test_run_layers_rejects_misfit_before_first_step(self, rng):
        net = desk_network(stream_rng(7, "lazy-misfit"), clip_len=4, height=16, width=16)
        misfit = Dense("fc_next", np.zeros((2, 5)), np.zeros(2))
        net = NetworkSpec(net.name, net.input_shape, net.layers + (misfit,))
        with mock.patch.object(neural, "conv3d_forward") as conv, pytest.raises(
            ContractError, match="fc_next"
        ):
            run_layers(rng.random(net.input_shape), net)
        assert conv.call_count == 0

    def test_extract_features_runs_whole_network_once(self, rng):
        # The traced run names its pool spans from this one call.
        net = desk_network(stream_rng(7, "spy"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        with mock.patch.object(neural, "run_layers", wraps=run_layers) as run:
            feats = extract_features(frames, net)
        assert run.call_count == 1
        (x, passed), _ = run.call_args
        assert passed is net
        assert x.tobytes() == clip_to_tensor(frames).tobytes()
        assert len(feats) == 64

    # sha256 over every layer's name and the float64 bytes of its weights and
    # bias.  The weights are those of the hand-written builders these presets
    # replaced (fc7, the last draw of the old c3d stack, left out).  The
    # digests were re-recorded when the flatten layer went: each equals the
    # old builder's digest with the flatten layer's name skipped.
    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: desk_network(stream_rng(42, "golden/desk")),
                "bbbcb1c890d2619d5beff112ce37b4cc3bff904887044927e987a0b642539129",
            ),
            (
                lambda: desk_network(
                    stream_rng(42, "golden/desk"), clip_len=8, height=16, width=24,
                    conv_maps=(4, 6), fc_units=10,
                ),
                "52cc166a7f8b26e332d1885202ec6f56c27b964b292d5939d49d75a1a4d30b27",
            ),
            (
                lambda: c3d_network(stream_rng(42, "golden/c3d"), height=32, width=32, fc_units=8),
                "36a1490156e267e558bf3ffee06b17b1af4d54815b7454ce57a06d83d7631f42",
            ),
        ],
        ids=["desk-default", "desk-custom", "c3d-32"],
    )
    def test_weights_match_golden_digest(self, build, digest):
        h = hashlib.sha256()
        for layer in build().layers:
            h.update(layer.name.encode())
            if isinstance(layer, (Conv3d, Dense)):
                h.update(np.asarray(layer.weights, dtype=np.float64).tobytes())
                h.update(layer.bias.astype(np.float64).tobytes())
        assert h.hexdigest() == digest

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.lists(st.integers(1, 40), min_size=1, max_size=3),
        st.sampled_from([7, 64, 1000]),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_matches_oracle_bytes(self, seed, out_dim, in_shape, chunk):
        # Chunk sizes that rarely divide the weight count: the draws must
        # not depend on where the chunks fall.
        with mock.patch.object(neural, "DRAW_CHUNK_ELEMENTS", chunk):
            w, b = neural._draw(np.random.default_rng(seed), out_dim, *in_shape)
        ref_w, ref_b = draw_oracle(np.random.default_rng(seed), out_dim, *in_shape)
        assert w.shape == ref_w.shape and w.dtype == b.dtype == np.float32
        assert np.asarray(w, dtype=np.float64).tobytes() == ref_w.tobytes()
        assert b.astype(np.float64).tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: desk_network(stream_rng(5, "upcast/desk")),
            lambda: c3d_network(stream_rng(5, "upcast/c3d"), height=32, width=32, fc_units=8),
        ],
        ids=["desk", "c3d-32"],
    )
    def test_features_equal_those_of_the_float64_upcast(self, build):
        net = build()
        upcast = NetworkSpec(
            net.name,
            net.input_shape,
            tuple(
                dataclasses.replace(
                    l,
                    weights=np.asarray(l.weights, dtype=np.float64),
                    bias=l.bias.astype(np.float64),
                )
                if isinstance(l, (Conv3d, Dense))
                else l
                for l in net.layers
            ),
        )
        assert all(
            l.weights.dtype == l.bias.dtype == np.float64
            for l in upcast.layers
            if isinstance(l, (Conv3d, Dense))
        )
        frames = np.random.default_rng(5).integers(0, 256, (16, 32, 32, 3), dtype=np.uint8)
        x = clip_to_tensor(frames)
        for (name, a), (_, b) in zip(run_layers(x, net), run_layers(x, upcast)):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize(
        "build",
        [
            lambda: desk_network(stream_rng(5, "float64/desk")),
            # fc6 drawn: 4,096 outputs of 512 inputs
            lambda: c3d_network(stream_rng(5, "float64/c3d"), height=32, width=32),
        ],
        ids=["desk", "c3d-32"],
    )
    def test_features_are_near_the_float64_network(self, build):
        # Every layer of the float64 network: the shift-and-accumulate conv
        # and the one-product dense oracles, and maxpool3d, which is exact
        # in any precision.  Measured: 1.1e-7 on desk's fc and 6.8e-9 on
        # c3d's fc6 here, 1.0e-8 on fc6 at 112x112.
        net = build()
        frames = np.random.default_rng(5).integers(0, 256, net.input_shape[1:] + (3,), dtype=np.uint8)
        x = frames.transpose(3, 0, 1, 2) / 255.0
        for layer in net.layers:
            if isinstance(layer, Conv3d):
                x = conv3d_shift_oracle(
                    x, np.asarray(layer.weights, dtype=np.float64), layer.bias.astype(np.float64),
                    layer.stride, layer.padding,
                )
            elif isinstance(layer, MaxPool3d):
                x = maxpool3d(x, layer.kernel, layer.stride)
            else:
                x = dense_oracle(x.reshape(-1), np.asarray(layer.weights, dtype=np.float64), layer.bias)
        assert np.max(np.abs(extract_features(frames, net) - x)) < 5e-7

    def test_c3d_has_46_534_400_float32_parameters(self):
        net = c3d_network(stream_rng(0, "params"))
        params = sum(
            l.weights.size + l.bias.size for l in net.layers if isinstance(l, (Conv3d, Dense))
        )
        assert all(
            l.weights.dtype == l.bias.dtype == np.float32
            for l in net.layers
            if isinstance(l, (Conv3d, Dense))
        )
        # Every weight array is drawn, not stored.
        assert isinstance(net.layers[-1].weights, neural.DrawnMatrix)
        assert params == 46_534_400

    @pytest.mark.parametrize(
        "preset, kwargs",
        [
            ("desk", {}),  # fc 64 x 8192: exactly one block
            ("desk", dict(clip_len=10, height=24, width=40, conv_maps=(4, 6), fc_units=10)),
            ("c3d", dict(clip_len=25, height=32, width=32, fc_units=8)),
            ("c3d", dict(height=32, width=32)),  # fc6: 4,096 outputs of 512 inputs
            ("c3d", {}),
        ],
    )
    def test_every_weight_array_is_drawn(self, preset, kwargs):
        build = {"desk": desk_network, "c3d": c3d_network}[preset]
        net = build(stream_rng(0, "layout"), **kwargs)
        layers = [l for l in net.layers if isinstance(l, (Conv3d, Dense))]
        assert len(layers) == (3 if preset == "desk" else 9)
        assert all(isinstance(l.weights, neural.DrawnMatrix) for l in layers)
        # draw_once draws exactly the arrays of at most one block.
        once = draw_once(net).layers
        stored = {l.name for l in once if isinstance(getattr(l, "weights", None), np.ndarray)}
        assert stored == {l.name for l in layers if l.weights.size <= neural.DENSE_BLOCK_ELEMENTS}
        small = {"conv1", "conv2"} | ({"fc6"} if "fc_units" in kwargs else set())
        assert stored == ({"conv1", "conv2", "fc"} if preset == "desk" else small)

    def test_different_stream_different_weights(self):
        a = desk_network(stream_rng(6, "s1"), clip_len=4, height=16, width=16)
        b = desk_network(stream_rng(6, "s2"), clip_len=4, height=16, width=16)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


class TestNetworkSpecValidation:
    def test_conv_weight_rank_enforced(self):
        with pytest.raises(ContractError):
            Conv3d("bad", weights=np.zeros((2, 3, 3, 3)), bias=np.zeros(2))

    def test_bias_length_enforced(self):
        with pytest.raises(ContractError):
            Conv3d("bad", weights=np.zeros((2, 1, 3, 3, 3)), bias=np.zeros(3))

    def test_spec_is_immutable(self):
        net = NetworkSpec("n", (1, 2, 4, 4), ())
        with pytest.raises(AttributeError):
            net.name = "other"


def test_neural_imports_no_sibling_but_errors():
    """The network layer takes plain arrays: of the package's own modules it
    imports only errors, so it never depends on the motion-map layer."""
    source = Path(neural.__file__).read_text()
    siblings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            siblings.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dmmaction"):
            siblings.add(node.module)
        elif isinstance(node, ast.Import):
            siblings.update(a.name for a in node.names if a.name.startswith("dmmaction"))
    assert siblings <= {"errors", "dmmaction.errors"}
