import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmmaction import ContractError, neural
from dmmaction.dmm import Clip
from dmmaction.neural import (
    Conv3d,
    Dense,
    Flatten,
    NetworkSpec,
    c3d_network,
    clip_to_tensor,
    conv3d_forward,
    desk_network,
    extract_features,
    infer_shapes,
    maxpool3d,
    run_layers,
    stream_rng,
)
from oracles import conv3d_oracle, conv3d_shift_oracle, draw_oracle, maxpool3d_oracle


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
        for name, acts in run_layers(clip_to_tensor(Clip(frames)), net):
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


def _assert_shift_identical(x, layer):
    out = conv3d_forward(x, layer)
    ref = conv3d_shift_oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@st.composite
def _conv_cases(draw):
    """A layer, an input and a chunk bound; half the cases are shapes that chunk."""
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 2)) for _ in range(3))
    padding = tuple(draw(st.integers(0, 1)) for _ in range(3))
    od = draw(st.integers(1, 6))
    if draw(st.booleans()):
        oh, ow = draw(st.sampled_from([(4, 4), (2, 8), (16, 1), (4, 12), (8, 8)]))
        out_maps = draw(st.integers(48, 128))
        floor = neural.CONV_GEMM_MIN_MACS // (out_maps * oh * ow) + 1
        in_maps = draw(st.integers(floor, floor + 8))
    else:
        oh, ow = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        out_maps, in_maps = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dims = [
        (o - 1) * s + k - 2 * p
        for o, s, k, p in zip((od, oh, ow), stride, kernel, padding)
    ]
    assume(min(dims) >= 1)
    chunk = draw(st.integers(1, max(out_maps, in_maps) * od * oh * ow))
    seed = draw(st.integers(0, 2**32 - 1))
    local = np.random.default_rng(seed)
    layer = Conv3d(
        "c",
        weights=_f32_uniform(local, 0.3, (out_maps, in_maps, *kernel)),
        bias=_f32_uniform(local, 0.3, out_maps),
        stride=stride,
        padding=padding,
    )
    return local.uniform(0.0, 1.0, (in_maps, *dims)), layer, chunk


class TestConv3dChunked:
    """The chunked conv3d_forward keeps the shift-and-accumulate bits exactly."""

    @given(_conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_shift_oracle_bytes(self, case):
        x, layer, chunk = case
        with mock.patch.object(neural, "CONV_CHUNK_ELEMENTS", chunk):
            _assert_shift_identical(x, layer)

    @pytest.mark.parametrize(
        "in_maps, out_maps, depth, side",
        [(3, 64, 16, 112), (64, 128, 16, 56)],
        ids=["c3d-conv1", "c3d-conv2"],
    )
    def test_c3d_layers_chunk_and_match(self, in_maps, out_maps, depth, side):
        local = np.random.default_rng(in_maps)
        scale = 1.0 / np.sqrt(27 * in_maps)
        layer = Conv3d(
            "c3d",
            weights=_f32_uniform(local, scale, (out_maps, in_maps, 3, 3, 3)),
            bias=_f32_uniform(local, scale, out_maps),
            padding=(1, 1, 1),
        )
        assert neural._chunk_frames(out_maps, in_maps, depth, side * side) < depth
        _assert_shift_identical(local.uniform(0.0, 1.0, (in_maps, depth, side, side)), layer)

    def test_desk_layers_match(self):
        net = desk_network(stream_rng(13, "desk-bytes"))
        x = np.random.default_rng(13).uniform(0.0, 1.0, net.input_shape)
        for layer in net.layers:
            if isinstance(layer, Conv3d):
                _assert_shift_identical(x, layer)
                x = conv3d_forward(x, layer)
            elif isinstance(layer, neural.MaxPool3d):
                x = maxpool3d(x, layer.kernel, layer.stride)

    def test_untiled_frames_run_as_one_chunk(self):
        # A 7x7 frame is no whole number of 16-column tiles, and a desk conv1
        # frame is under the small-matrix cut-off, whatever the chunk bound.
        assert neural._chunk_frames(512, 512, 4, 49) == 4
        assert neural._chunk_frames(8, 3, 16, 1024) == 16


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
            lambda: neural.MaxPool3d("p", (2, 2, 2), (2, 0, 2)),
            lambda: neural.MaxPool3d("p", (2, 2, 0), (1, 1, 1)),
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
        feats = extract_features(Clip(frames), net)
        assert len(feats) == 32

    def test_identical_clips_identical_features(self, rng):
        net = desk_network(stream_rng(3, "det"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        a = extract_features(Clip(frames.copy()), net)
        b = extract_features(Clip(frames.copy()), net)
        assert np.array_equal(a, b)

    def test_frame_permutation_changes_features(self, rng):
        net = desk_network(stream_rng(4, "time"), clip_len=4, height=16, width=16)
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        fwd = extract_features(Clip(frames), net)
        rev = extract_features(Clip(frames[::-1].copy()), net)
        assert not np.array_equal(fwd, rev)

    def test_wrong_clip_shape_names_layer(self, rng):
        net = desk_network(stream_rng(5, "shape"), clip_len=4, height=16, width=16)
        frames = np.zeros((4, 12, 16, 3), dtype=np.uint8)
        with pytest.raises(ContractError, match="input"):
            extract_features(Clip(frames), net)

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
        full = dict(run_layers(clip_to_tensor(Clip(frames)), net))
        feats = extract_features(Clip(frames), net)
        assert isinstance(feats, np.ndarray) and feats.dtype == np.float64
        assert feats.tobytes() == full[first_dense].tobytes()

    def test_layers_after_first_dense_never_run(self, rng):
        net = desk_network(stream_rng(7, "fc-tail"), clip_len=4, height=16, width=16, fc_units=8)
        # A network must end at its feature layer; one that goes on past it
        # is refused before any layer runs.
        net = NetworkSpec(net.name, net.input_shape, net.layers + (Flatten("after_fc"),))
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        with mock.patch.object(neural, "run_layers") as run, pytest.raises(
            ContractError, match="does not end at a fully-connected layer"
        ):
            extract_features(Clip(frames), net)
        assert run.call_count == 0

    def test_misfit_dense_rejected_before_any_layer_runs(self, rng):
        net = desk_network(stream_rng(7, "fc-next"), clip_len=4, height=16, width=16, fc_units=8)
        misfit = Dense("fc_next", np.zeros((2, 5)), np.zeros(2))
        net = NetworkSpec(net.name, net.input_shape, net.layers + (misfit,))
        frames = (rng.random((4, 16, 16, 3)) * 255).astype(np.uint8)
        with mock.patch.object(neural, "conv3d_forward") as conv, pytest.raises(
            ContractError, match="fc_next"
        ):
            extract_features(Clip(frames), net)
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
            feats = extract_features(Clip(frames), net)
        assert run.call_count == 1
        (x, passed), _ = run.call_args
        assert passed is net
        assert x.tobytes() == clip_to_tensor(Clip(frames)).tobytes()
        assert len(feats) == 64

    # sha256 over every layer's name, weights and bias bytes, taken from the
    # hand-written builders these presets replaced (fc7, the last draw of the
    # old c3d stack, left out).
    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: desk_network(stream_rng(42, "golden/desk")),
                "a738473607d079c2b086a51ac28a69bcf5a599f0b035a933348f963f88bd05bc",
            ),
            (
                lambda: desk_network(
                    stream_rng(42, "golden/desk"), clip_len=8, height=16, width=24,
                    conv_maps=(4, 6), fc_units=10,
                ),
                "1d92bd6579e347b80adb18728b2e26aa52dfc5f6c6780ce9812b9288b496691b",
            ),
            (
                lambda: c3d_network(stream_rng(42, "golden/c3d"), height=32, width=32, fc_units=8),
                "2f2c34a977f4dbc20a72662d8b02c87f17932bbac57c2490b37c909e24a282e3",
            ),
        ],
        ids=["desk-default", "desk-custom", "c3d-32"],
    )
    def test_weights_match_golden_digest(self, build, digest):
        h = hashlib.sha256()
        for layer in build().layers:
            h.update(layer.name.encode())
            if isinstance(layer, (Conv3d, Dense)):
                h.update(layer.weights.tobytes())
                h.update(layer.bias.tobytes())
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
        assert w.shape == ref_w.shape and w.dtype == ref_w.dtype == np.float64
        assert w.tobytes() == ref_w.tobytes()
        assert b.tobytes() == ref_b.tobytes()

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
