import concurrent.futures
import contextlib
import ctypes
import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import (
    ConfigError,
    ContractError,
    DmmActionError,
    FormatError,
    ParseError,
    PipelineConfig,
    ProtocolError,
    StateError,
    SynthSpec,
    build_streams,
    classify,
    evaluate,
    extract_sample,
    generate_synthetic_dataset,
    load_plan,
    read_manifest,
    resolve_split,
    save_plan,
    train,
)
from dmmaction import dmm, neural, pipeline
from dmmaction.dmm import render_grid, stack_clip, template_count
from dmmaction.geometry import ProjectedMap, synthesize_view
from dmmaction.learn import PcaModel, SvmModel, pca_fit
from dmmaction.motion import estimate_flow, flow_magnitude
from dmmaction.neural import Conv3d, Dense, DrawnMatrix, extract_features, stream_rng
from dmmaction.pipeline import (
    SampleRecord,
    Split,
    StreamPlan,
    _flow_weights,
)
from dmmaction.videoio import DepthSequence, read_depth_bin, read_rgb_sequence, write_depth_bin
from conftest import _assert_reaped, _pool_workers, desk_config
from oracles import draw_oracle, horn_schunck_oracle


@pytest.fixture(scope="module")
def split(small_dataset):
    return resolve_split(small_dataset, "cross-subject")


@pytest.fixture(scope="module")
def trained(small_dataset, split):
    return train(small_dataset, split, desk_config())


class TestBuildStreams:
    def test_default_config_has_132_streams(self):
        plan = build_streams(PipelineConfig())
        assert len(plan.streams) == 132

    def test_minimal_config_single_stream(self):
        cfg = desk_config(
            poses=("standing",), planes=("xy",), angles=(0.0,),
            depth_windows=(5,), rgb_windows=(),
        )
        assert len(build_streams(cfg).streams) == 1

    def test_benchmark_style_count(self):
        cfg = desk_config(
            angles=(-30.0, 0.0, 30.0), depth_windows=(5, "all"), rgb_windows=(10, 16)
        )
        assert len(build_streams(cfg).streams) == 1 * (3 * 3 * 2 + 2)

    def test_enumeration_deterministic_and_unique(self):
        a = build_streams(desk_config())
        b = build_streams(desk_config())
        ids = [s.id for s in a.streams]
        assert ids == [s.id for s in b.streams]
        assert len(set(ids)) == len(ids)

    def test_stream_ids_carry_coordinates(self):
        plan = build_streams(desk_config())
        dmm = [s for s in plan.streams if s.kind == "dmm"]
        rgb = [s for s in plan.streams if s.kind == "rgb"]
        assert len(dmm) == 6 and len(rgb) == 1
        assert all(s.id.startswith("standing/dmm/") for s in dmm)
        assert rgb[0].id == "standing/rgb/r10"
        assert rgb[0].rgb_len == 10

    @given(
        st.integers(1, 2),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_count_formula(self, n_poses, n_planes, n_angles, n_windows, n_rgb):
        cfg = desk_config(
            poses=("sitting", "standing")[:n_poses],
            planes=("xy", "yz", "xz")[:n_planes],
            angles=tuple(15.0 * i for i in range(n_angles)),
            depth_windows=tuple(range(5, 5 + n_windows)),
            rgb_windows=tuple(range(10, 10 + n_rgb)),
        )
        expected = n_poses * (n_planes * n_angles * n_windows + n_rgb)
        assert len(build_streams(cfg).streams) == expected


class TestTemplateCount:
    def test_finite_window(self):
        assert template_count(20, 5) == 15

    def test_all_window(self):
        assert template_count(20, "all") == 18

    def test_too_short_gives_zero(self):
        assert template_count(5, 10) == 0

    @given(st.integers(3, 60), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_formula(self, n, w):
        assert template_count(n, w) == max(0, n - w)
        assert template_count(n, "all") == n - 2


def _moving_square_maps(n, h=9, w=11):
    maps = []
    for i in range(n):
        grid = np.zeros((h, w))
        grid[2 : 6, 1 + i : 5 + i] = 900.0 + 10.0 * i
        maps.append(ProjectedMap("xy", grid))
    return maps


def _noisy_depth_maps(seed, n=6, h=24, w=32):
    """A noisy near block sliding two pixels a frame across a noisy far wall."""
    local = np.random.default_rng(seed)
    maps = []
    for i in range(n):
        grid = 2800.0 + local.normal(scale=40.0, size=(h, w))
        grid[6:16, 4 + 2 * i : 14 + 2 * i] = 1500.0 + local.normal(scale=40.0, size=(10, 10))
        maps.append(ProjectedMap("xy", grid))
    return maps


def _per_pair_weights(maps, cfg, dtype=np.float32):
    """Flow weights pair by pair from the Horn-Schunck oracle run in dtype."""
    raw = []
    for a, b in zip(maps, maps[1:]):
        ox, oy = horn_schunck_oracle(
            a.grid, b.grid, cfg.flow_iterations, cfg.flow_smoothness, dtype=dtype
        )
        raw.append(ox**2 + oy**2)
    if cfg.flow_normalization == "pair":
        peaks = [float(np.max(g)) for g in raw]
        return [g / p if p >= 1e-12 else np.zeros_like(g) for g, p in zip(raw, peaks)]
    peak = max((float(np.max(g)) for g in raw), default=0.0)
    return [g / peak if peak >= 1e-12 else np.zeros_like(g) for g in raw]


def _assert_weights_array(weights, n, shape):
    """_flow_weights gives one float64 (n - 1, h, w) array for n maps."""
    assert isinstance(weights, np.ndarray)
    assert weights.dtype == np.float64
    assert weights.shape == (max(0, n - 1), *shape)


class TestFlowWeights:
    @pytest.fixture(params=["pair", "global"])
    def cfg(self, request):
        return desk_config(flow_normalization=request.param)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_matches_per_pair_loop(self, cfg, n):
        maps = _moving_square_maps(n)
        weights = _flow_weights(maps, cfg)
        expected = _per_pair_weights(maps, cfg)
        assert len(weights) == len(expected) == max(0, n - 1)
        _assert_weights_array(weights, n, (9, 11) if n else (0, 0))
        for got, want in zip(weights, expected):
            assert ((got >= 0) & (got <= 1)).all()
            assert got.tobytes() == want.tobytes()

    def test_near_the_float64_oracle(self, cfg):
        # Measured worst |float32 - float64| weight over these maps: 8.6e-4,
        # where a near pixel's flow is ill-conditioned against the noise.
        worst = 0.0
        for seed in range(20):
            maps = _noisy_depth_maps(seed)
            weights = _flow_weights(maps, cfg)
            _assert_weights_array(weights, len(maps), (24, 32))
            expected = _per_pair_weights(maps, cfg, dtype=np.float64)
            for got, want in zip(weights, expected):
                worst = max(worst, np.abs(got - want).max())
        assert worst <= 2e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, cfg, bad):
        maps = _noisy_depth_maps(0, n=3)
        maps[2].grid[5, 5] = bad
        with pytest.raises(ContractError, match="finite"):
            _flow_weights(maps, cfg)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_invalid_magnitude_rejected(self, cfg, bad):
        # Squares of a finite flow are finite and non-negative; the check
        # guards the weights should that ever fail.  A NaN peak would
        # otherwise give all-zero weights under "global" normalization.
        def bad_magnitude(flow):
            g = flow_magnitude(flow)
            g[1, 2, 3] = bad
            return g

        maps = _noisy_depth_maps(0, n=4)
        with mock.patch("dmmaction.pipeline.flow_magnitude", bad_magnitude):
            with pytest.raises(ContractError, match="finite and non-negative"):
                _flow_weights(maps, cfg)

    def test_peak_below_eps_gives_zero_maps(self, cfg):
        # Both normalizations follow normalize_magnitude: a peak below 1e-12
        # gives all-zero weights, not a division by that peak.
        maps = _noisy_depth_maps(0, n=4)
        with mock.patch(
            "dmmaction.pipeline.flow_magnitude", lambda flow: np.full(flow[0].shape, 1e-14)
        ):
            weights = _flow_weights(maps, cfg)
        _assert_weights_array(weights, 4, (24, 32))
        assert weights.tobytes() == np.zeros_like(weights).tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_static_sequence_gives_zero_maps(self, cfg, n):
        maps = [ProjectedMap("xy", np.zeros((6, 5))) for _ in range(n)]
        weights = _flow_weights(maps, cfg)
        assert len(weights) == n - 1
        _assert_weights_array(weights, n, (6, 5))
        for m in weights:
            assert m.shape == (6, 5)
            assert m.tobytes() == np.zeros((6, 5)).tobytes()

    def test_mismatched_shapes_rejected(self, cfg):
        maps = [ProjectedMap("xy", np.zeros((6, 5))), ProjectedMap("xy", np.zeros((6, 6)))]
        with pytest.raises(ContractError):
            _flow_weights(maps, cfg)

    def test_frames_below_two_by_two_rejected(self, cfg):
        maps = [ProjectedMap("xy", np.zeros((1, 5))) for _ in range(3)]
        with pytest.raises(ContractError):
            _flow_weights(maps, cfg)

    def test_one_dimensional_maps_rejected(self, cfg):
        maps = [ProjectedMap("xy", np.zeros(5)) for _ in range(3)]
        with pytest.raises(ContractError):
            _flow_weights(maps, cfg)


class TestExtractSample:
    def test_determinism(self, small_dataset):
        cfg = desk_config(angles=(0.0,))
        rec = small_dataset[0]
        a = extract_sample(rec, build_streams(cfg))
        b = extract_sample(rec, build_streams(cfg))
        assert a.features.keys() == b.features.keys()
        for sid in a.features:
            fa, fb = a.features[sid], b.features[sid]
            assert len(fa) == len(fb)
            for va, vb in zip(fa, fb):
                assert np.array_equal(va, vb)

    def test_unconfigured_pose_rejected(self, small_dataset):
        cfg = desk_config(poses=("sitting",))
        with pytest.raises(ContractError, match="pose"):
            extract_sample(small_dataset[0], build_streams(cfg))

    def test_too_short_sequence_skips_with_warning(self, small_dataset):
        cfg = desk_config(angles=(0.0,), clip_len=30)
        result = extract_sample(small_dataset[0], build_streams(cfg))
        dmm_sids = [sid for sid in result.features if "/dmm/" in sid]
        assert dmm_sids
        assert all(result.features[sid] == [] for sid in dmm_sids)
        assert any("too short" in w or "skip" in w for w in result.warnings)

    def test_too_short_sequence_runs_no_flow(self, small_dataset):
        cfg = desk_config(clip_len=30)
        with mock.patch(
            "dmmaction.pipeline.estimate_flow", wraps=estimate_flow
        ) as flow, mock.patch(
            "dmmaction.pipeline.synthesize_view", wraps=synthesize_view
        ) as view:
            result = extract_sample(small_dataset[0], build_streams(cfg))
        assert flow.call_count == 0
        assert view.call_count == 0
        assert all(f == [] for sid, f in result.features.items() if "/dmm/" in sid)

    def test_renders_only_templates_a_clip_covers(self, small_dataset):
        # 20 frames give 15 window-5 and 18 whole-sequence templates; clips
        # of 8 cover 8 and 16 of them.
        cfg = desk_config(angles=(0.0,), depth_windows=(5, "all"), rgb_windows=())
        with mock.patch(
            "dmmaction.dmm.render_template", wraps=dmm.render_template
        ) as render:
            result = extract_sample(small_dataset[0], build_streams(cfg))
        assert render.call_count == 3 * (8 + 16)
        assert [len(result.features[f"standing/dmm/w{w}/a0"]) for w in (5, "all")] == [1, 2]

    def test_accumulates_then_renders_each_covered_template_once(self, small_dataset):
        # The benchmark counts one accumulate_ramdmm and one render_template
        # call per template; batching either would move its counters.
        cfg = desk_config(angles=(0.0,), depth_windows=(5, "all"), rgb_windows=())
        calls = []
        real_accumulate, real_render = dmm.accumulate_ramdmm, dmm.render_template

        def accumulate(maps, weights, t, window, floor=0.0):
            grid = real_accumulate(maps, weights, t, window, floor=floor)
            calls.append(("accumulate", window, t, grid))
            return grid

        def render(grid, out_size):
            calls.append(("render", grid))
            return real_render(grid, out_size)

        with mock.patch("dmmaction.dmm.accumulate_ramdmm", side_effect=accumulate), mock.patch(
            "dmmaction.dmm.render_template", side_effect=render
        ):
            extract_sample(small_dataset[0], build_streams(cfg))
        assert len(calls) == 2 * 3 * (8 + 16)
        pairs = list(zip(calls[::2], calls[1::2]))
        assert all(a[0] == "accumulate" and r[0] == "render" and r[1] is a[3] for a, r in pairs)
        per_plane = [(5, t) for t in range(8)] + [("all", t) for t in range(16)]
        assert [a[1:3] for a, _ in pairs] == 3 * per_plane

    @pytest.mark.parametrize("depth_as_rgb", [False, True])
    def test_appearance_clips_tile_by_window(self, small_dataset, depth_as_rgb):
        cfg = desk_config(angles=(0.0,), rgb_windows=(6, 10), depth_as_rgb=depth_as_rgb)
        rec = small_dataset[0]
        if depth_as_rgb:
            depth = read_depth_bin(rec.depth_path)
            frames = [render_grid(f, cfg.render_size) for f in depth.frames]
        else:
            rgb = read_rgb_sequence(rec.rgb_path)
            frames = [dmm.resize_rgb(f, cfg.render_size) for f in rgb]
        assert len(frames) == 20
        plan = build_streams(cfg)
        result = extract_sample(rec, plan)
        for lam, ends in ((6, [5, 11, 17]), (10, [9, 19])):
            sid = f"standing/rgb/r{lam}"
            got = result.features[sid]
            assert len(got) == len(ends)
            for f, end in zip(got, ends):
                clip = np.stack(frames[end - lam + 1 : end + 1])
                want = extract_features(clip, plan.network(sid))
                assert f.dtype == np.float64
                assert f.tobytes() == want.tobytes()

    def test_missing_rgb_marks_stream_absent(self, small_dataset):
        cfg = desk_config(angles=(0.0,))
        rec = dataclasses.replace(small_dataset[0], rgb_path=None)
        result = extract_sample(rec, build_streams(cfg))
        assert result.features["standing/rgb/r10"] == []
        assert any("rgb" in w.lower() for w in result.warnings)

    def test_depth_as_rgb_fills_appearance_stream(self, small_dataset):
        cfg = desk_config(angles=(0.0,), depth_as_rgb=True)
        rec = dataclasses.replace(small_dataset[0], rgb_path=None)
        result = extract_sample(rec, build_streams(cfg))
        assert result.features["standing/rgb/r10"]

    def test_alpha_zero_equals_bypass_variant(self, small_dataset):
        cfg = desk_config()
        bypass = desk_config(bypass_view_synthesis=True)
        rec = small_dataset[1]
        a = extract_sample(rec, build_streams(cfg))
        b = extract_sample(rec, build_streams(bypass))
        got, want = a.features["standing/dmm/w5/a0"], b.features["standing/dmm/w5/a0"]
        assert len(got) == len(want) >= 1
        for va, vb in zip(got, want):
            assert np.array_equal(va, vb)

    def test_only_the_record_pose_bank_appears(self, small_dataset):
        cfg = desk_config(poses=("sitting", "standing"))
        plan = build_streams(cfg)
        result = extract_sample(small_dataset[0], plan)
        bank = [s for s in plan.streams if s.pose == "standing"]
        assert list(result.features) == list(dict.fromkeys(s.slot for s in bank))
        assert all(result.features.values())
        assert sorted(plan._networks) == sorted(s.id for s in bank)

    @pytest.mark.parametrize("planes", [("xy", "yz", "xz"), ("xz", "xy"), ("yz",)])
    def test_slot_features_concatenate_plane_outputs_in_plane_order(
        self, small_dataset, planes
    ):
        # 20 frames give 15 window-5 and 18 whole-sequence templates, so
        # clips of 8 end at 7, and at 7 and 15.
        cfg = desk_config(
            planes=planes, angles=(0.0, 30.0), depth_windows=(5, "all"), rgb_windows=()
        )
        plan = build_streams(cfg)
        clips = {}  # stream id -> the clips its network ran on, in order

        def record(clip, net):
            clips.setdefault(net.name, []).append(clip)
            return extract_features(clip, net)

        with mock.patch.object(pipeline, "extract_features", record), mock.patch.object(
            pipeline, "stack_clip", wraps=stack_clip
        ) as stack:
            result = extract_sample(small_dataset[0], plan)
        ends = {5: [7], "all": [7, 15]}
        slots = [(w, a) for w in (5, "all") for a in ("0", "30")]
        assert list(result.features) == [f"standing/dmm/w{w}/a{a}" for w, a in slots]
        # one (angle, plane) at a time, each over every window
        assert [c.args[1:] for c in stack.call_args_list] == [
            (end, cfg.clip_len) for _ in ("0", "30") for _ in planes for w in (5, "all")
            for end in ends[w]
        ]
        for w, a in slots:
            got = result.features[f"standing/dmm/w{w}/a{a}"]
            sids = [f"standing/dmm/{p}/w{w}/a{a}" for p in planes]
            assert len(got) == len(ends[w])
            assert [len(clips[sid]) for sid in sids] == [len(ends[w])] * len(planes)
            for j, vector in enumerate(got):
                want = [extract_features(clips[sid][j], plan.network(sid)) for sid in sids]
                assert vector.dtype == np.float64
                assert vector.shape == (len(planes) * cfg.fc_units_effective,)
                assert vector.tobytes() == np.concatenate(want).tobytes()

    def test_static_scene_features_equal_zero_template_network_output(self, tmp_path):
        cfg = desk_config(angles=(0.0,))
        spec = SynthSpec(
            actions=("slide", "static"), subjects=2, cameras=1,
            frames=20, width=48, height=36,
        )
        manifest = generate_synthetic_dataset(tmp_path, spec, seed=6)
        rec = next(r for r in read_manifest(manifest) if r.label == "static")
        plan = build_streams(cfg)
        result = extract_sample(rec, plan)
        plane_shapes = {"xy": (36, 48), "yz": (64, 36), "xz": (48, 64)}
        segments = []
        for plane in ("xy", "yz", "xz"):
            sid = f"standing/dmm/{plane}/w5/a0"
            frame = render_grid(np.zeros(plane_shapes[plane]), cfg.render_size)
            clip = stack_clip([frame] * cfg.clip_len, cfg.clip_len - 1, cfg.clip_len)
            segments.append(extract_features(clip, plan.network(sid)))
        expected = np.concatenate(segments)
        got = result.features["standing/dmm/w5/a0"]
        assert len(got) >= 1
        for f in got:
            assert np.array_equal(f, expected)


class TestSplits:
    def test_cross_subject_default(self, small_dataset, split):
        train_subjects = {small_dataset[i].subject for i in split.train_indices}
        test_subjects = {small_dataset[i].subject for i in split.test_indices}
        assert train_subjects == {"s00", "s02"}
        assert test_subjects == {"s01", "s03"}
        assert "cross-subject" in split.description

    def test_cross_subject_explicit(self, small_dataset):
        s = resolve_split(
            small_dataset, "cross-subject", train_subjects=("s00", "s01", "s02")
        )
        assert {small_dataset[i].subject for i in s.test_indices} == {"s03"}

    def test_cross_subject_unknown_subject(self, small_dataset):
        with pytest.raises(ProtocolError, match="unknown train subjects"):
            resolve_split(small_dataset, "cross-subject", train_subjects=("s99",))

    def test_cross_subject_empty_test(self, small_dataset):
        everyone = tuple(sorted({r.subject for r in small_dataset}))
        with pytest.raises(ProtocolError, match="test side would be empty"):
            resolve_split(small_dataset, "cross-subject", train_subjects=everyone)

    def test_cross_view_two_cameras(self, tmp_path):
        spec = SynthSpec(actions=("slide", "bob"), subjects=2, cameras=2, frames=6)
        records = read_manifest(generate_synthetic_dataset(tmp_path, spec, seed=0))
        s = resolve_split(records, "cross-view")
        assert {records[i].camera for i in s.train_indices} == {"c0"}
        assert {records[i].camera for i in s.test_indices} == {"c1"}

    def test_cross_view_single_camera_rejected(self, small_dataset):
        with pytest.raises(ProtocolError):
            resolve_split(small_dataset, "cross-view")

    @pytest.mark.parametrize(
        "protocol, attr, kwarg, description, shared",
        [
            ("cross-subject", "subject", "train_subjects", "cross-subject: train=s0;s2 test=s1",
             "s1"),
            ("cross-view", "camera", "train_cameras", "cross-view: train=c0 test=c1;c2", "c1"),
        ],
    )
    def test_held_out_texts(self, protocol, attr, kwarg, description, shared):
        records = [
            SampleRecord(Path(f"{s}{c}.bin"), None, "slide", s, c, "standing")
            for s in ("s0", "s1", "s2")
            for c in ("c0", "c1", "c2")
        ]
        split = resolve_split(records, protocol)
        assert split.description == description
        with pytest.raises(ProtocolError, match=rf"^unknown train {attr}s \['x'\]$"):
            resolve_split(records, protocol, **{kwarg: ("x",)})
        everyone = tuple(sorted({getattr(r, attr) for r in records}))
        with pytest.raises(
            ProtocolError, match=rf"^every {attr} is in train; test side would be empty$"
        ):
            resolve_split(records, protocol, **{kwarg: everyone})
        # train s0/c0 and s1/c1, test s1/c2 and s2/c1: one value on both sides
        leaky = Split(protocol, (0, 4), (5, 7), "leak")
        with pytest.raises(
            ProtocolError,
            match=rf"^{attr}s \['{shared}'\] appear on both sides of a {protocol} split$",
        ):
            train(records, leaky, desk_config())

    @pytest.mark.parametrize(
        "protocol, kwargs, unused",
        [
            ("cross-subject", dict(train_cameras=("c0",)), "train_cameras"),
            ("cross-subject", dict(train_indices=(0,), test_indices=(1,)),
             "train_indices, test_indices"),
            ("cross-view", dict(train_subjects=("s00",)), "train_subjects"),
            ("cross-view", dict(train_cameras=("c0",), test_indices=(1,)), "test_indices"),
            ("one-third", dict(train_subjects=("s00",)), "train_subjects"),
            ("one-third", dict(train_cameras=("c0",)), "train_cameras"),
            ("two-thirds", dict(train_subjects=("s00",), train_cameras=("c0",)),
             "train_subjects, train_cameras"),
            ("two-thirds", dict(train_indices=(0,)), "train_indices"),
            ("manual", dict(train_indices=(0,), test_indices=(1,), train_subjects=("s00",)),
             "train_subjects"),
            ("manual", dict(train_indices=(0,), test_indices=(1,), train_cameras=("c0",)),
             "train_cameras"),
        ],
    )
    def test_argument_the_protocol_does_not_use_rejected(
        self, small_dataset, protocol, kwargs, unused
    ):
        with pytest.raises(
            ProtocolError, match=rf"^the {protocol} protocol does not use {unused}$"
        ):
            resolve_split(small_dataset, protocol, **kwargs)

    def test_repetition_splits(self, small_dataset):
        tripled = [r for r in small_dataset for _ in range(3)]
        one = resolve_split(tripled, "one-third")
        two = resolve_split(tripled, "two-thirds")
        assert len(one.train_indices) == len(small_dataset)
        assert len(one.test_indices) == 2 * len(small_dataset)
        assert len(two.train_indices) == 2 * len(small_dataset)
        assert len(two.test_indices) == len(small_dataset)

    def test_repetition_split_needs_repetitions(self, small_dataset):
        with pytest.raises(ProtocolError, match="repetition"):
            resolve_split(small_dataset, "one-third")

    def test_manual_split(self, small_dataset):
        s = resolve_split(
            small_dataset, "manual", train_indices=(0, 1, 2), test_indices=(3,)
        )
        assert s.train_indices == (0, 1, 2)
        assert s.test_indices == (3,)

    def test_manual_overlap_rejected(self, small_dataset):
        with pytest.raises(ProtocolError, match="overlap"):
            resolve_split(
                small_dataset, "manual", train_indices=(0, 1), test_indices=(1, 2)
            )

    @pytest.mark.parametrize(
        "train_idx, test_idx, side",
        [((0, 0, 1), (2, 3), "train"), ((0, 1), (2, 2), "test")],
        ids=["train", "test"],
    )
    def test_manual_repeated_index_rejected(self, small_dataset, train_idx, test_idx, side):
        # A repeated index would train on, or count in the report, one
        # record twice.
        with pytest.raises(ProtocolError, match=f"{side} indices name a record more than once"):
            resolve_split(
                small_dataset, "manual", train_indices=train_idx, test_indices=test_idx
            )

    def test_manual_out_of_bounds_rejected(self, small_dataset):
        with pytest.raises(ProtocolError, match="outside"):
            resolve_split(
                small_dataset, "manual", train_indices=(0,), test_indices=(99,)
            )

    def test_unknown_protocol_rejected(self, small_dataset):
        with pytest.raises(ProtocolError, match="unknown split protocol"):
            resolve_split(small_dataset, "leave-one-out")

    def test_leaky_split_rejected_by_train(self, small_dataset):
        by_subject = {}
        for i, r in enumerate(small_dataset):
            by_subject.setdefault(r.subject, []).append(i)
        leak = by_subject["s00"]
        leaky = Split(
            "cross-subject",
            tuple(leak[:1]) + tuple(by_subject["s01"]),
            tuple(leak[1:]) + tuple(by_subject["s02"]),
            "hand-built leak",
        )
        with pytest.raises(ProtocolError, match="both sides"):
            train(small_dataset, leaky, desk_config())


class TestTrain:
    def test_streams_reach_training_accuracy(self, trained):
        report = trained.train_report
        assert report.per_stream
        for sid, acc in report.per_stream.items():
            assert acc >= 0.95, f"{sid}: {acc}"

    def test_all_streams_trained(self, trained):
        assert trained.trained
        assert set(trained.svm) == {s.id for s in trained.streams}
        assert trained.labels == ("bob", "slide")

    def test_missing_class_raises_protocol_error(self, small_dataset):
        slide = tuple(i for i, r in enumerate(small_dataset) if r.label == "slide")
        rest = tuple(i for i in range(len(small_dataset)) if i not in slide)
        s = resolve_split(
            small_dataset, "manual", train_indices=slide, test_indices=rest
        )
        with pytest.raises(ProtocolError, match="absent"):
            train(small_dataset, s, desk_config())

    @pytest.mark.parametrize(
        "records, train_idx, test_idx, bad",
        [(3, (0, 1, 4), (2, 5), "[4, 5]"), (8, (0, -1), (1,), "[-1]")],
    )
    def test_split_index_outside_records_rejected_before_extracting(
        self, small_dataset, records, train_idx, test_idx, bad
    ):
        s = Split("manual", train_idx, test_idx, "manual")
        with mock.patch("dmmaction.pipeline.extract_sample", wraps=extract_sample) as extract:
            with pytest.raises(
                ProtocolError, match=re.escape(f"indices {bad} outside the {records}-record")
            ):
                train(small_dataset[:records], s, desk_config(angles=(0.0,)))
        assert extract.call_count == 0

    def test_one_label_set_rejected_before_extracting(self, small_dataset):
        records = [r for r in small_dataset if r.label == "slide"]
        s = resolve_split(records, "cross-subject")
        with mock.patch(
            "dmmaction.pipeline.extract_sample", wraps=extract_sample
        ) as extract, pytest.raises(ContractError, match="at least 2 classes"):
            train(records, s, desk_config())
        assert extract.call_count == 0

    @pytest.mark.parametrize("line_break", ["\n", "\r", "\x85", "\u2028"])
    def test_label_with_line_break_rejected_before_extracting(
        self, small_dataset, split, line_break
    ):
        # labels.txt is split with str.splitlines, so it cannot carry such a label.
        label = f"sl{line_break}ide"
        records = [
            dataclasses.replace(r, label=label) if r.label == "slide" else r
            for r in small_dataset
        ]
        with mock.patch(
            "dmmaction.pipeline.extract_sample", wraps=extract_sample
        ) as extract, pytest.raises(ContractError, match=re.escape(repr(label))):
            train(records, split, desk_config())
        assert extract.call_count == 0

    def test_stream_missing_a_class_is_skipped(self, tmp_path):
        spec = SynthSpec(actions=("slide", "bob", "arc"), subjects=2, cameras=1, frames=20)
        records = read_manifest(generate_synthetic_dataset(tmp_path, spec, seed=1))
        for rec in records:
            if rec.label == "arc":
                seq = read_depth_bin(rec.depth_path)
                write_depth_bin(rec.depth_path, DepthSequence(seq.frames[:11]))
        # 11 frames give 6 window-5 templates, short of clip_len 8, but 9
        # whole-sequence templates: the w5 stream never sees arc.
        cfg = desk_config(planes=("xy",), angles=(0.0,), depth_windows=(5, "all"), rgb_windows=())
        plan = train(records, resolve_split(records, "cross-subject"), cfg)
        assert plan.labels == ("arc", "bob", "slide")
        assert set(plan.svm) == {"standing/dmm/xy/wall/a0"}
        assert plan.svm["standing/dmm/xy/wall/a0"].labels == plan.labels
        assert any(
            "standing/dmm/xy/w5/a0" in w and "'arc'" in w for w in plan.train_report.warnings
        )
        for rec in records:
            predicted, fused, row = classify(rec, plan)
            assert len(fused.values) == 3
            assert list(row.stream_predictions) == ["standing/dmm/xy/wall/a0"]

    def test_one_pca_fit_per_depth_slot(self, small_dataset, split, tmp_path):
        cfg = desk_config(angles=(0.0,))
        with mock.patch("dmmaction.pipeline.pca_fit", wraps=pca_fit) as fit:
            plan = train(small_dataset, split, cfg)
        # three plane streams share one (pose, window, angle) slot; the
        # appearance stream has its own input
        assert fit.call_count == 2
        save_plan(plan, tmp_path / "plan")
        for p in (plan, load_plan(tmp_path / "plan")):
            assert list(p.pca) == ["standing/dmm/w5/a0", "standing/rgb/r10"]
            assert [s.slot for s in p.streams] == ["standing/dmm/w5/a0"] * 3 + ["standing/rgb/r10"]
            assert len(p.svm) == 4

    def test_retrain_bit_identical_model_files(self, small_dataset, split, tmp_path):
        cfg = desk_config(angles=(0.0,))
        save_plan(train(small_dataset, split, cfg), tmp_path / "a")
        save_plan(train(small_dataset, split, cfg), tmp_path / "b")
        files_a = sorted((tmp_path / "a" / "streams").iterdir())
        files_b = sorted((tmp_path / "b" / "streams").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        assert files_a
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name



def _rigged_plan(dmm_scores, rgb_scores=None, labels=("bob", "slide")):
    """Plan whose streams ignore features: zero weights, biases = ln(score)."""
    cfg = desk_config(planes=("xy",), angles=(0.0,))
    plan = build_streams(cfg)
    plan.labels = tuple(labels)
    dim = cfg.fc_units_effective
    pca = PcaModel(
        mean=np.zeros(dim),
        components=np.eye(1, dim),
        variance_fractions=np.array([1.0]),
    )
    def svm_for(scores):
        return SvmModel(
            weights=np.zeros((len(labels), 1)),
            biases=np.array([math.log(s) for s in scores]),
            labels=tuple(labels),
            regularization=1e-3,
        )
    plan.pca["standing/dmm/w5/a0"] = pca
    plan.svm["standing/dmm/xy/w5/a0"] = svm_for(dmm_scores)
    if rgb_scores is not None:
        plan.pca["standing/rgb/r10"] = pca
        plan.svm["standing/rgb/r10"] = svm_for(rgb_scores)
    return plan


class TestClassify:
    def test_untrained_plan_rejected(self, small_dataset):
        with pytest.raises(StateError):
            classify(small_dataset[0], build_streams(desk_config()))

    def test_correct_on_training_samples(self, small_dataset, split, trained):
        for i in split.train_indices:
            predicted, fused, row = classify(small_dataset[i], trained)
            assert predicted == small_dataset[i].label
            assert row.truth == small_dataset[i].label
            assert abs(float(fused.values.sum()) - 1.0) < 1e-6

    def test_two_sided_fusion_arithmetic(self, small_dataset):
        plan = _rigged_plan(dmm_scores=(0.6, 0.4), rgb_scores=(0.2, 0.8))
        predicted, fused, _ = classify(small_dataset[0], plan)
        assert np.allclose(fused.values, [0.4, 0.6], atol=1e-9)
        assert predicted == "slide"

    def test_tie_breaks_to_lowest_class(self, small_dataset):
        plan = _rigged_plan(dmm_scores=(0.5, 0.5), rgb_scores=(0.5, 0.5))
        predicted, fused, _ = classify(small_dataset[0], plan)
        assert np.allclose(fused.values, [0.5, 0.5], atol=1e-12)
        assert predicted == "bob"

    def test_no_rgb_falls_back_to_depth_side(self, small_dataset):
        plan = _rigged_plan(dmm_scores=(0.6, 0.4), rgb_scores=None)
        predicted, fused, _ = classify(small_dataset[0], plan)
        assert np.allclose(fused.values, [0.6, 0.4], atol=1e-9)
        assert predicted == "bob"

    def test_extracted_result_scores_as_a_standalone_classify(
        self, small_dataset, split, trained
    ):
        rec = small_dataset[split.test_indices[0]]
        label, fused, row = classify(rec, trained)
        given = classify(rec, trained, extracted=extract_sample(rec, trained))
        assert given[0] == label and given[2] == row
        assert given[1].values.tobytes() == fused.values.tobytes()

    def test_stream_order_invariance(self, small_dataset):
        plan = _rigged_plan(dmm_scores=(0.3, 0.7), rgb_scores=(0.9, 0.1))
        reordered = StreamPlan(
            cfg=plan.cfg,
            streams=tuple(reversed(plan.streams)),
            labels=plan.labels,
            pca=plan.pca,
            svm=plan.svm,
        )
        _, a, _ = classify(small_dataset[0], plan)
        _, b, _ = classify(small_dataset[0], reordered)
        assert np.array_equal(a.values, b.values)


class TestEvaluate:
    def test_cross_subject_report(self, small_dataset, split, trained):
        report = evaluate(small_dataset, split, trained)
        assert report.n_test == len(split.test_indices)
        assert report.labels == ("bob", "slide")
        assert int(report.counts.sum()) == report.n_test
        for i in range(len(report.labels)):
            row = float(report.confusion[i].sum())
            assert row == pytest.approx(100.0, abs=0.5) or row == 0.0
        assert 0.0 <= report.overall <= 1.0
        assert report.per_stream_accuracy

    def test_perfect_on_training_side(self, small_dataset, split, trained):
        back = Split("manual", split.test_indices, split.train_indices, "train side")
        report = evaluate(small_dataset, back, trained)
        assert report.overall == 1.0
        assert np.allclose(np.diag(report.confusion), 100.0)
        assert np.allclose(report.confusion - np.diag(np.diag(report.confusion)), 0.0)

    def test_untrained_plan_rejected(self, small_dataset, split):
        with pytest.raises(StateError):
            evaluate(small_dataset, split, build_streams(desk_config()))

    def test_empty_test_side_rejected(self, small_dataset, trained):
        empty = Split("manual", tuple(range(len(small_dataset))), (), "no test")
        with pytest.raises(ProtocolError, match="empty test"):
            evaluate(small_dataset, empty, trained)

    def test_unknown_test_label_rejected(self, small_dataset, trained):
        stranger = dataclasses.replace(small_dataset[0], label="arc")
        records = list(small_dataset) + [stranger]
        s = Split("manual", (0, 1), (len(records) - 1,), "stranger")
        with pytest.raises(ProtocolError, match="not in the training set"):
            evaluate(records, s, trained)

    def test_unknown_test_label_rejected_before_classifying(self, small_dataset, trained):
        stranger = dataclasses.replace(small_dataset[0], label="arc")
        records = list(small_dataset) + [stranger]
        s = Split("manual", (0, 1), (2, 3, len(records) - 1), "stranger last")
        with mock.patch("dmmaction.pipeline.extract_sample", wraps=extract_sample) as extract:
            with pytest.raises(
                ProtocolError, match="^test label 'arc' was not in the training set$"
            ):
                evaluate(records, s, trained)
        assert extract.call_count == 0

    @pytest.mark.parametrize("n, test_idx, bad", [(3, (2, 5, 1), "[5]"), (8, (-1, 3), "[-1]")])
    def test_split_index_outside_records_rejected_before_pooling(
        self, small_dataset, trained, n, test_idx, bad
    ):
        s = Split("manual", (0,), test_idx, "manual")
        with mock.patch.object(pipeline, "_extracted", wraps=pipeline._extracted) as pool:
            with pytest.raises(
                ProtocolError, match=re.escape(f"indices {bad} outside the {n}-record dataset")
            ):
                evaluate(small_dataset[:n], s, trained)
        assert pool.call_count == 0

    def test_repeated_index_rejected_before_pooling(self, small_dataset, trained):
        # A hand-made split is checked as resolve_split checks one: a
        # repeated test index would count one record twice in the report.
        s = Split("manual", (0,), (2, 3, 2), "manual")
        with mock.patch.object(pipeline, "_extracted", wraps=pipeline._extracted) as pool:
            with pytest.raises(ProtocolError, match="test indices name a record more than once"):
                evaluate(small_dataset, s, trained)
        assert pool.call_count == 0

    def test_report_determinism(self, small_dataset, split, trained):
        a = evaluate(small_dataset, split, trained)
        b = evaluate(small_dataset, split, trained)
        assert a.to_csv() == b.to_csv()

    def test_csv_layout(self, small_dataset, split, trained):
        csv = evaluate(small_dataset, split, trained).to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("overall_accuracy,")
        assert lines[1] == f"n_test,{len(split.test_indices)}"
        assert lines[2].startswith("split,cross-subject")
        assert lines[3] == "truth\\prediction,bob,slide"
        assert any(line.startswith("per_class_accuracy,bob,") for line in lines)
        assert any(line.startswith("stream_accuracy,") for line in lines)

    def test_text_report_mentions_split(self, small_dataset, split, trained):
        text = evaluate(small_dataset, split, trained).to_text()
        assert "cross-subject" in text
        assert "overall accuracy" in text


# Report bytes and model files of train + evaluate on small_dataset with
# desk_config(), cross-subject.  A refactor must leave them unchanged; a
# change that moves them must say so and record the new values here.
_GOLDEN_CSV = (
    "overall_accuracy,1.000000\n"
    "n_test,4\n"
    "split,cross-subject: train=s00;s02 test=s01;s03\n"
    "truth\\prediction,bob,slide\n"
    "bob,100.000000,0.000000\n"
    "slide,0.000000,100.000000\n"
    "per_class_accuracy,bob,1.000000\n"
    "per_class_accuracy,slide,1.000000\n"
    "stream_accuracy,standing/dmm/xy/w5/a0,1.000000\n"
    "stream_accuracy,standing/dmm/xy/w5/a30,1.000000\n"
    "stream_accuracy,standing/dmm/xz/w5/a0,1.000000\n"
    "stream_accuracy,standing/dmm/xz/w5/a30,1.000000\n"
    "stream_accuracy,standing/dmm/yz/w5/a0,1.000000\n"
    "stream_accuracy,standing/dmm/yz/w5/a30,1.000000\n"
    "stream_accuracy,standing/rgb/r10,1.000000\n"
)
_GOLDEN_MODELS_SHA256 = {
    "standing__dmm__w5__a0.models": "c8af0374051faab19fdd6ff6ffc9a3013f850195aa8afa736861200a60bb9c45",
    "standing__dmm__w5__a30.models": "5c563f58e2b5236ea8de318c0bebbedf982902ad30a23f1138da8b716de3b2f8",
    "standing__rgb__r10.models": "06ef6950ea6bbc1133ea0d79bee1967e1bcb04209e9e60116ea45846b724b7b8",
}


class TestGoldenReport:
    def test_report_csv_bytes(self, small_dataset, split, trained):
        assert evaluate(small_dataset, split, trained).to_csv() == _GOLDEN_CSV

    def test_model_file_sha256(self, trained, tmp_path):
        streams = save_plan(trained, tmp_path / "plan") / "streams"
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(streams.glob("*.models"))
        }
        assert got == _GOLDEN_MODELS_SHA256


# Runs the TestGoldenReport computation on a fresh copy of small_dataset,
# one 32x32 c3d forward pass (fc6 drawn: 4,096 outputs of 512 inputs) and
# the conv3b layer of a 112x112 c3d pass (280-column GEMMs), printing the
# report CSV, each model file's sha256, the features' sha256 and conv3b's.
_THREADS_SCRIPT = """
import hashlib, sys
from pathlib import Path
import numpy as np
from conftest import desk_config
from dmmaction import (
    SynthSpec, evaluate, generate_synthetic_dataset, read_manifest, resolve_split,
    save_plan, train,
)
from dmmaction.neural import (
    Conv3d, DrawnMatrix, _conv_chunk, _draw, c3d_network, conv3d_forward,
    extract_features, stream_rng,
)

root = Path(sys.argv[1])
spec = SynthSpec(actions=("slide", "bob"), subjects=4, cameras=1, frames=20)
records = read_manifest(generate_synthetic_dataset(root / "data", spec, seed=1))
split = resolve_split(records, "cross-subject")
plan = train(records, split, desk_config())
print(evaluate(records, split, plan).to_csv(), end="")
for p in sorted((save_plan(plan, root / "plan") / "streams").glob("*.models")):
    print(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
net = c3d_network(stream_rng(0, "threads"), height=32, width=32)
assert isinstance(net.layers[-1].weights, DrawnMatrix)
frames = np.random.default_rng(0).integers(0, 256, (16, 32, 32, 3), dtype=np.uint8)
print("c3d", hashlib.sha256(extract_features(frames, net).tobytes()).hexdigest())
w, b = _draw(stream_rng(0, "threads/conv3b"), 256, 256, 3, 3, 3)
assert _conv_chunk(256, np.asarray(w, dtype=np.float32)[0].size, 8, 28, 28) == (1, 10)
x = np.random.default_rng(0).uniform(0.0, 1.0, (256, 8, 28, 28)).astype(np.float32)
out = conv3d_forward(x, Conv3d("conv3b", w, b, padding=(1, 1, 1)))
print("conv3b", hashlib.sha256(out.tobytes()).hexdigest())
"""


def _run_threads_script(workdir, **env):
    """The lines _THREADS_SCRIPT prints, and its stderr, run in a fresh
    process under env."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    )
    run = subprocess.run(
        [sys.executable, "-c", _THREADS_SCRIPT, str(workdir)],
        env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines(keepends=True), run.stderr


def _dynamic_arch_openblas():
    """Whether numpy links an OpenBLAS that picks its kernels at run time,
    so that OPENBLAS_CORETYPE selects them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


class TestBlasThreadCount:
    """Report bytes, model bytes, c3d features and conv3b's output do not
    depend on how many threads OpenBLAS runs, on one machine and BLAS
    kernel; the report bytes do not depend on the kernel either."""

    def test_one_and_two_threads_give_the_golden_bytes(self, tmp_path):
        outputs = [
            _run_threads_script(tmp_path / threads, OPENBLAS_NUM_THREADS=threads)[0]
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]
        lines = outputs[0]
        assert "".join(lines[:-5]) == _GOLDEN_CSV
        assert dict(line.split() for line in lines[-5:-2]) == _GOLDEN_MODELS_SHA256
        assert lines[-2].startswith("c3d ")
        assert lines[-1].startswith("conv3b ")

    # Model files and features are pinned on the default kernel only: since
    # the CNN computes in float32 they move under each of these.
    @pytest.mark.skipif(not _dynamic_arch_openblas(), reason="BLAS kernels are fixed at build")
    # Each case is named after the kernels OpenBLAS loads for it, which it
    # prints under OPENBLAS_VERBOSE=2: OPENBLAS_CORETYPE=Prescott, for one,
    # loads Katmai's.
    @pytest.mark.parametrize("coretype", ["Haswell", "Katmai", "Sandybridge"])
    def test_other_kernels_give_the_golden_report(self, tmp_path, coretype):
        lines, log = _run_threads_script(
            tmp_path, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2"
        )
        assert {l for l in log.splitlines() if l.startswith("Core:")} == {f"Core: {coretype}"}
        assert "".join(lines[:-5]) == _GOLDEN_CSV


class TestPlanPersistence:
    def test_save_load_round_trip_preserves_report(
        self, small_dataset, split, trained, tmp_path
    ):
        save_plan(trained, tmp_path / "plan")
        loaded = load_plan(tmp_path / "plan")
        assert loaded.labels == trained.labels
        assert set(loaded.svm) == set(trained.svm)
        a = evaluate(small_dataset, split, trained)
        b = evaluate(small_dataset, split, loaded)
        assert a.to_csv() == b.to_csv()

    def test_labels_with_spaces_round_trip(self, tmp_path):
        plan = _rigged_plan([0.7, 0.3], labels=("wave hand", "bob"))
        save_plan(plan, tmp_path / "plan")
        loaded = load_plan(tmp_path / "plan")
        assert loaded.labels == ("wave hand", "bob")
        assert loaded.svm["standing/dmm/xy/w5/a0"].labels == ("wave hand", "bob")

    @pytest.mark.parametrize("labels", [("bob", "bob"), ("bob",)], ids=["repeated", "one"])
    def test_labels_train_cannot_write_rejected(self, tmp_path, labels):
        # labels.txt and the model file agree, but train writes two or more
        # distinct labels.
        save_plan(_rigged_plan([0.7, 0.3][: len(labels)], labels=labels), tmp_path / "plan")
        with pytest.raises(FormatError, match=r"^labels\.txt lists \['bob'"):
            load_plan(tmp_path / "plan")

    @pytest.mark.parametrize("text", ["slide\nbob\n", "", "bob\n"])
    def test_labels_file_disagreeing_with_models_rejected(self, tmp_path, text):
        save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        (tmp_path / "plan" / "labels.txt").write_text(text)
        with pytest.raises(FormatError, match="labels.txt"):
            load_plan(tmp_path / "plan")

    def test_save_untrained_rejected(self, tmp_path):
        with pytest.raises(StateError):
            save_plan(build_streams(desk_config()), tmp_path / "plan")
        assert not (tmp_path / "plan").exists()

    def test_save_load_save_identical_directory(self, trained, tmp_path):
        save_plan(trained, tmp_path / "a")
        save_plan(load_plan(tmp_path / "a"), tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
        assert Path("streams/standing__dmm__w5__a30.models") in files
        for f in files:
            if (tmp_path / "a" / f).is_file():
                assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f

    def test_resave_deletes_stale_model_files(self, tmp_path):
        save_plan(_rigged_plan([0.7, 0.3], rgb_scores=[0.4, 0.6]), tmp_path / "plan")
        (tmp_path / "plan" / "streams" / "notes.txt").write_text("kept")
        save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        assert sorted(p.name for p in (tmp_path / "plan" / "streams").iterdir()) == [
            "notes.txt",
            "standing__dmm__w5__a0.models",
        ]
        assert "standing/rgb/r10" not in load_plan(tmp_path / "plan").svm

    def test_model_io_paths_cover_every_model_byte(self, trained, tmp_path):
        """The benchmark's learn.models_bytes sums the sizes of the paths
        save_models and load_models receive; they must cover streams/."""
        sizes = {"save": [], "load": []}

        def spy(kind, real):
            def call(path, *args):
                result = real(path, *args)
                sizes[kind].append(Path(path).stat().st_size)
                return result
            return call

        with mock.patch.object(pipeline, "save_models", spy("save", pipeline.save_models)):
            save_plan(trained, tmp_path / "plan")
        with mock.patch.object(pipeline, "load_models", spy("load", pipeline.load_models)):
            load_plan(tmp_path / "plan")
        total = sum(p.stat().st_size for p in (tmp_path / "plan" / "streams").iterdir())
        assert sum(sizes["save"]) == sum(sizes["load"]) == total > 0
        assert len(sizes["save"]) == len(sizes["load"]) == 3

    @pytest.mark.parametrize("value", ["none", "runs/exp1"])
    def test_load_config_with_an_out_dir_line_rejected(self, tmp_path, value):
        # A plan saved while the config still had out_dir: its line must be
        # deleted before the plan loads.
        root = save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        with open(root / "config.txt", "a", encoding="utf-8") as f:
            f.write(f"out_dir = {value}\n")
        with pytest.raises(ConfigError, match="'out_dir'"):
            load_plan(root)

    @pytest.mark.parametrize("name", ["config.txt", "labels.txt"])
    def test_missing_plan_file_rejected_naming_its_path(self, tmp_path, name):
        root = save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        (root / name).unlink()
        with pytest.raises(FormatError, match=re.escape(f"plan file {root / name} is missing")):
            load_plan(root)

    def test_load_missing_models_rejected(self, tmp_path):
        root = tmp_path / "plan"
        (root / "streams").mkdir(parents=True)
        from dmmaction.config import config_to_text
        (root / "config.txt").write_text(config_to_text(desk_config()))
        (root / "labels.txt").write_text("bob\nslide\n")
        with pytest.raises(StateError, match="no stream models"):
            load_plan(root)

    def test_load_old_per_stream_layout_names_the_file(self, tmp_path):
        # Before model format 2 a plan kept one file per stream, named after
        # the stream id, plane included; no slot file of the config matches.
        root = tmp_path / "plan"
        (root / "streams").mkdir(parents=True)
        from dmmaction.config import config_to_text
        cfg = desk_config(planes=("xy",), angles=(0.0,), rgb_windows=())
        (root / "config.txt").write_text(config_to_text(cfg))
        (root / "labels.txt").write_text("bob\nslide\n")
        (root / "streams" / "standing__dmm__xy__w5__a0.models").write_bytes(b"DMM1")
        with pytest.raises(FormatError, match=r"standing__dmm__xy__w5__a0\.models.*retrained"):
            load_plan(root)


# Manifest fields, with the characters that delimit or end one made common.
_MANIFEST_TEXT = st.text(
    st.sampled_from("-\0\t\r /") | st.characters(blacklist_categories=("Cs",)), max_size=8
)


class TestTextReadersNeverMisparse:
    """Any text given to read_manifest, or to load_plan as labels.txt, either
    parses or raises a DmmActionError."""

    @pytest.fixture(scope="class")
    def plan_dir(self, tmp_path_factory):
        return save_plan(_rigged_plan([0.7, 0.3]), tmp_path_factory.mktemp("plan"))

    @given(
        st.text()
        | st.lists(
            st.lists(_MANIFEST_TEXT, min_size=5, max_size=8).map("\t".join), max_size=4
        ).map("\n".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_manifest(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("m") / "manifest.tsv"
        path.write_text(text, encoding="utf-8")
        try:
            records = read_manifest(path)
        except DmmActionError:
            return
        for rec in records:
            for p in (rec.depth_path, rec.rgb_path, rec.crop_path):
                assert "\0" not in str(p)

    @given(st.text() | st.lists(st.sampled_from(["bob", "slide", ""]) | st.text()).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_plan_labels(self, plan_dir, text):
        (plan_dir / "labels.txt").write_text(text, encoding="utf-8")
        try:
            plan = load_plan(plan_dir)
        except DmmActionError:
            return
        assert plan.labels == ("bob", "slide")

    @pytest.mark.parametrize("field", [0, 1, 6])
    def test_manifest_path_with_nul_names_the_line(self, tmp_path, field):
        row = ["d.bin", "rgb", "slide", "s0", "c0", "standing", "crop.txt"]
        row[field] = row[field][:1] + "\0" + row[field][1:]
        path = tmp_path / "manifest.tsv"
        path.write_text("d.bin\t-\tslide\ts0\tc0\tstanding\n" + "\t".join(row) + "\n")
        with pytest.raises(FormatError, match="line 2.*NUL"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "field, name",
        [
            (0, "depth path"),
            (1, "rgb path"),
            (2, "label"),
            (3, "subject"),
            (4, "camera"),
            (5, "pose"),
            (6, "crop path"),
        ],
    )
    def test_manifest_empty_field_names_the_line(self, tmp_path, field, name):
        # An empty path would resolve to the manifest's directory, and an
        # empty label would be a class of its own; '-' marks no rgb or crop.
        row = ["d.bin", "rgb", "slide", "s0", "c0", "standing", "crop.txt"]
        row[field] = ""
        path = tmp_path / "manifest.tsv"
        path.write_text("d.bin\t-\tslide\ts0\tc0\tstanding\n" + "\t".join(row) + "\n")
        with pytest.raises(FormatError, match=f"^line 2: empty {name} field$"):
            read_manifest(path)


class TestNetworkCache:
    def test_c3d_stream_built_once_for_train_and_evaluate(self, small_dataset):
        # 32x32 is the smallest frame the five c3d pools leave 1x1 of, and
        # 16 frames the shortest clip; each 20-frame record gives one clip.
        cfg = desk_config(
            planes=("xy",), angles=(0.0,), depth_windows=("all",), rgb_windows=(),
            clip_len=16, network_preset="c3d", fc_units=8, pca_target=1,
        )
        split = _one_record_per_class_split(small_dataset)
        with mock.patch.object(pipeline, "c3d_network", wraps=pipeline.c3d_network) as build:
            plan = train(small_dataset, split, cfg)
            report = evaluate(small_dataset, split, plan)
        assert build.call_count == 1
        assert report.n_test == 2
        assert list(plan.svm) == ["standing/dmm/xy/wall/a0"]


# The criterion-7 acceptance config: 3 angles x windows 5 and all x 3
# planes, and RGB windows 10 and 16, 20 desk streams.
_CRITERION7 = dict(
    angles=(-30.0, 0.0, 30.0), depth_windows=(5, "all"), rgb_windows=(10, 16),
    pca_target=3, svm_epochs=45,
)


def _arrays(obj, seen=None):
    """Every numpy array reachable from obj through containers and
    instance attributes, each once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = vars(obj).values()
    else:
        return []
    return [a for child in children for a in _arrays(child, seen)]


class TestNetworkMemory:
    """A built network stores only its biases and draws every weight array
    where it is read, so a plan that keeps every network it builds holds
    no weights."""

    @staticmethod
    def _build_every_network(cfg):
        """The plan of cfg with every network built, and the tracemalloc
        peak of the builds, after a first build outside the trace has made
        the imports it needs."""
        plan = build_streams(cfg)
        pipeline._build_network(cfg, plan.streams[0])
        tracemalloc.start()
        try:
            for s in plan.streams:
                plan.network(s.id)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return plan, peak

    def test_criterion_7_desk_networks_allocate_under_1_mib(self):
        # They stored 22.4 MiB when arrays of at most 2**19 values were kept.
        plan, peak = self._build_every_network(desk_config(**_CRITERION7))
        assert len(plan._networks) == len(plan.streams) == 20
        assert peak < 2**20

    def test_default_networks_without_r10_allocate_under_8_mib(self):
        # r10's clip reaches depth 1 before pool5, so it does not build.
        # These stored 117.6 MiB when arrays of at most 2**19 values were
        # kept.
        plan, peak = self._build_every_network(PipelineConfig(rgb_windows=(16, 25)))
        assert len(plan._networks) == len(plan.streams) == 130
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "cfg",
        [desk_config(**_CRITERION7), PipelineConfig(poses=("standing",), rgb_windows=(16,))],
        ids=["desk", "c3d"],
    )
    def test_a_built_network_stores_only_its_biases(self, cfg):
        plan = build_streams(cfg)
        for s in plan.streams:
            net = plan.network(s.id)
            weighted = [l for l in net.layers if isinstance(l, (Conv3d, Dense))]
            assert all(isinstance(l.weights, DrawnMatrix) for l in weighted)
            assert {id(a) for a in _arrays(net)} == {id(l.bias) for l in weighted}
            assert all(l.bias.shape == (l.weights.shape[0],) for l in weighted)


class TestClipFeatures:
    """_clip_features draws each weight array of a desk network once for all
    of a stream's clips, runs extract_features once per clip, and gives the
    bytes of a network that stores its weights."""

    @pytest.mark.parametrize("clips", [1, 2, 3])
    def test_desk_stream_draws_each_weight_array_once(self, clips):
        cfg = desk_config(**_CRITERION7)
        plan = build_streams(cfg)
        sid = plan.streams[0].id
        net = plan.network(sid)
        lam = cfg.clip_len
        frames = list(
            np.random.default_rng(clips).integers(
                0, 256, (clips * lam, *cfg.render_size, 3), dtype=np.uint8
            )
        )
        real_draw, drawn = neural._uniform_f32, []

        def draw(rng, s, shape):
            drawn.append(shape)
            return real_draw(rng, s, shape)

        with mock.patch.object(neural, "_uniform_f32", draw), mock.patch.object(
            pipeline, "extract_features", wraps=extract_features
        ) as extract:
            features = pipeline._clip_features(frames, lam, net)
        weighted = [l for l in net.layers if isinstance(l, (Conv3d, Dense))]
        assert drawn == [l.weights.shape for l in weighted]
        assert extract.call_count == len(features) == clips

        rng = stream_rng(cfg.seed, sid)
        stored = {}
        for l in weighted:
            w, b = draw_oracle(rng, *l.weights.shape)
            stored[l.name] = dataclasses.replace(
                l, weights=w.astype(np.float32), bias=b.astype(np.float32)
            )
        ref = dataclasses.replace(net, layers=tuple(stored.get(l.name, l) for l in net.layers))
        expected = [
            extract_features(stack_clip(frames, end, lam), ref)
            for end in range(lam - 1, len(frames), lam)
        ]
        assert [f.tobytes() for f in features] == [e.tobytes() for e in expected]


def _one_record_per_class_split(records):
    """A manual split with one record of each class on each side, which
    keeps c3d forward passes few."""
    per_class = {}
    for i, rec in enumerate(records):
        per_class.setdefault(rec.label, []).append(i)
    train_idx = tuple(ids[0] for ids in per_class.values())
    test_idx = tuple(ids[1] for ids in per_class.values())
    return resolve_split(records, "manual", train_indices=train_idx, test_indices=test_idx)


def _fail_render_on(monkeypatch, rec, cfg):
    """Make render_templates raise on the (0, xy) maps of rec; forked
    workers inherit the patch."""
    seq = read_depth_bin(rec.depth_path)
    if rec.crop_path is not None:
        seq = pipeline._apply_crop(seq, rec.crop_path)
    ((_, projected),) = pipeline._views(seq, cfg, [0.0])
    mark = pipeline._plane_maps(projected, "xy")[0].grid.tobytes()
    real = pipeline.render_templates

    def render(maps, weights, window, cfg, starts):
        if maps[0].grid.tobytes() == mark:
            raise ContractError(f"cannot render window {window} at angle 0")
        return real(maps, weights, window, cfg, starts)

    monkeypatch.setattr(pipeline, "render_templates", render)


def _break_records(monkeypatch, tmp_path, records, indices, cfg, fail_unit, malformed):
    """records, with the (0, xy) maps of records[indices[1]] made to raise
    (fail_unit) and the depth file of records[indices[2]] a header of zero
    frames (malformed), a record the pool runs while it joins the other."""
    records = list(records)
    if fail_unit:
        _fail_render_on(monkeypatch, records[indices[1]], cfg)
    if malformed:
        bad = tmp_path / "bad.bin"
        bad.write_bytes(struct.pack("<3I", 0, 4, 4))
        records[indices[2]] = dataclasses.replace(records[indices[2]], depth_path=bad)
    return records


# (fail_unit, malformed) and the error train or evaluate raises, pooled or not.
# Under _eight_cpus each of a loop's 4 records has its own worker, so the
# record after the failing one runs while the failing one is joined.
_BROKEN = [
    (True, False, (ContractError, "cannot render window 5 at angle 0")),
    # the next record fails in its worker before the failing one is
    # joined: the failing record's error still wins
    (True, True, (ContractError, "cannot render window 5 at angle 0")),
    # the next record's error is held until its turn
    (False, True, (FormatError, "invalid dimensions in header: frames=0 width=4 height=4")),
]


def _eight_cpus(pid):
    return set(range(8))


def _c3d_config(size, **overrides):
    """Two streams, planes xy and xz, on the c3d preset."""
    base = dict(
        angles=(0.0,), planes=("xy", "xz"), depth_windows=("all",), rgb_windows=(),
        clip_len=16, render_size=(size, size), network_preset="c3d",
    )
    return desk_config(**{**base, **overrides})


# A small c3d plan: 32x32 is the smallest frame the five c3d pools leave
# 1x1 of; 20-frame records give window 5 too few templates for clips of
# 16, so every record adds a warning.
_C3D_SMALL = dict(depth_windows=(5, "all"), fc_units=8, pca_target=1, svm_epochs=5)


def _openblas_threads(action):
    """The get_num_threads or set_num_threads function ("get" or "set") of
    the scipy_openblas build that numpy's wheels link; skips without it."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return getattr(lib, f"scipy_openblas_{action}_num_threads64_")
    except (AttributeError, OSError):
        pytest.skip("numpy links no scipy_openblas build")


def _plan_bytes(plan):
    """Every fitted array, per-stream accuracy and warning of a trained plan, in order."""
    report = plan.train_report
    return (
        [
            (key, p.mean.tobytes(), p.components.tobytes(), p.variance_fractions.tobytes())
            for key, p in plan.pca.items()
        ],
        [
            (sid, m.weights.tobytes(), m.biases.tobytes(), m.labels, m.regularization)
            for sid, m in plan.svm.items()
        ],
        list(report.per_stream.items()),
        report.warnings,
        report.n_train,
    )


class TestTrainPool:
    """train runs each whole record in a fork pool of one worker per core
    and record when that is 2 or more and every network of the bank
    builds; the plan is byte-identical to a serial run's, which the serial
    fixture forces."""

    # 20-frame records give window-5 too few templates for clips of 16, and
    # too few RGB frames for r30: every record adds warnings.
    CFG = dict(angles=(0.0,), depth_windows=(5, "all"), rgb_windows=(10, 30), clip_len=16)

    @pytest.mark.parametrize("preset, cpus", [("desk", None), ("desk", 8), ("c3d", None)])
    def test_pooled_plan_equals_serial_plan(
        self, small_dataset, split, forks, serial, monkeypatch, preset, cpus
    ):
        cfg = desk_config(**self.CFG) if preset == "desk" else _c3d_config(32, **_C3D_SMALL)
        if cpus is not None:  # more workers than cores: results arrive out of order
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pooled = train(small_dataset, split, cfg)
        assert len(forks) == _pool_workers(len(split.train_indices))
        with serial():
            unpooled = train(small_dataset, split, cfg)
        assert len(forks) == _pool_workers(len(split.train_indices))
        assert _plan_bytes(pooled) == _plan_bytes(unpooled)
        assert pooled.train_report.per_stream
        # warnings name the records in split order
        warned = [w.split(": ")[0] for w in pooled.train_report.warnings]
        records = [str(small_dataset[i].depth_path) for i in split.train_indices]
        assert [w for w in dict.fromkeys(warned) if not w.startswith("stream ")] == records

    def test_workers_split_the_blas_threads(
        self, small_dataset, split, forks, monkeypatch, tmp_path
    ):
        # Each worker runs max(1, min(parent's threads, cores // workers))
        # OpenBLAS threads: 1 for 2 workers on 2 cores whose parent runs 2.
        get, set_threads = _openblas_threads("get"), _openblas_threads("set")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = pipeline.extract_features

        def extract(clip, net):  # forked workers inherit the patch
            (tmp_path / str(os.getpid())).write_text(str(get()))
            return real(clip, net)

        monkeypatch.setattr(pipeline, "extract_features", extract)
        before = get()
        set_threads(2)
        try:
            train(small_dataset, split, desk_config(angles=(0.0,)))
            assert get() == 2
        finally:
            set_threads(before)
        reported = {int(p.name): int(p.read_text()) for p in tmp_path.iterdir()}
        assert len(forks) == 2 and reported and set(reported) <= set(forks)
        assert set(reported.values()) == {1}

    def test_no_child_outlives_train(self, small_dataset, split, forks):
        cfg = desk_config(angles=(0.0,))
        train(small_dataset, split, cfg)
        assert len(forks) == _pool_workers(len(split.train_indices))
        _assert_reaped(forks)

    def test_malformed_depth_file_raises_the_serial_error(
        self, small_dataset, split, forks, serial, tmp_path
    ):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x02\x00\x00\x00\x04\x00")  # a truncated header
        records = list(small_dataset)
        i = split.train_indices[1]
        records[i] = dataclasses.replace(records[i], depth_path=bad)
        cfg = desk_config(angles=(0.0,))
        errors = []
        for run in (contextlib.nullcontext, serial):
            with run(), pytest.raises(DmmActionError) as info:
                train(records, split, cfg)
            errors.append((type(info.value), str(info.value)))
        assert len(forks) == _pool_workers(len(split.train_indices))
        assert errors[0] == errors[1]
        assert errors[0][0] is ParseError

    @pytest.mark.parametrize("fail_unit, malformed, want", _BROKEN)
    def test_error_in_a_unit_raises_the_serial_error_and_leaves_no_child(
        self, small_dataset, split, forks, serial, monkeypatch, tmp_path, fail_unit, malformed,
        want,
    ):
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        cfg = desk_config()
        records = _break_records(
            monkeypatch, tmp_path, small_dataset, split.train_indices, cfg, fail_unit, malformed
        )
        errors = []
        for run in (contextlib.nullcontext, serial):
            with run(), pytest.raises(DmmActionError) as info:
                train(records, split, cfg)
            errors.append((type(info.value), str(info.value)))
            _assert_reaped(forks)
        assert len(forks) == _pool_workers(len(split.train_indices))
        assert errors[0] == errors[1] == want

    def test_every_record_is_submitted_before_the_first_join(
        self, small_dataset, split, forks, monkeypatch
    ):
        # The pool is given the loop's records in split order before the
        # loop joins the first of them.
        events = []
        submit, result = (
            concurrent.futures.ProcessPoolExecutor.submit,
            concurrent.futures.Future.result,
        )

        def spy_submit(pool, fn, rec):
            events.append(rec.depth_path)
            return submit(pool, fn, rec)

        def spy_result(future, timeout=None):
            events.append("joined")
            return result(future, timeout)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy_submit)
        monkeypatch.setattr(concurrent.futures.Future, "result", spy_result)
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        train(small_dataset, split, desk_config(angles=(0.0,), planes=("xy",), rgb_windows=()))
        assert len(forks) == len(split.train_indices)
        paths = [small_dataset[i].depth_path for i in split.train_indices]
        assert events == [*paths, *["joined"] * len(paths)]

    def test_pose_outside_the_plan_raises_before_anything_is_extracted(
        self, small_dataset, split, forks, serial, monkeypatch
    ):
        # The last training record's pose has no bank: train raises the
        # error extract_sample raises for it, before a record is read or a
        # pool opens.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        cfg = desk_config(angles=(0.0,))
        records = list(small_dataset)
        i = split.train_indices[-1]
        records[i] = dataclasses.replace(records[i], pose="sitting")
        with pytest.raises(ContractError) as want:
            extract_sample(records[i], build_streams(cfg))
        for run in (contextlib.nullcontext, serial):
            with (
                run(),
                mock.patch.object(pipeline, "read_depth_bin", wraps=read_depth_bin) as read,
                pytest.raises(DmmActionError) as info,
            ):
                train(records, split, cfg)
            assert (type(info.value), str(info.value)) == (ContractError, str(want.value))
            assert read.call_count == 0
        assert forks == []

    def test_parent_neither_reads_nor_projects(
        self, small_dataset, split, forks, serial, monkeypatch
    ):
        # Workers read and project every record; the plan still equals a
        # serial run's, which reads and projects here.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        cfg = desk_config(angles=(0.0, 30.0))
        with (
            mock.patch.object(pipeline, "read_depth_bin", wraps=read_depth_bin) as read,
            mock.patch.object(
                pipeline, "project_cartesian", wraps=pipeline.project_cartesian
            ) as project,
        ):
            pooled = train(small_dataset, split, cfg)
            assert read.call_count == project.call_count == 0
            assert len(forks) == len(split.train_indices)
            with serial():
                unpooled = train(small_dataset, split, cfg)
            assert read.call_count == len(split.train_indices) and project.call_count
        assert _plan_bytes(pooled) == _plan_bytes(unpooled)

    def test_equal_records_keep_their_places(self, small_dataset, split, forks, serial):
        # Two equal manifest lines make two equal records, each of which
        # the pool joins in its own place.
        records = [*small_dataset, dataclasses.replace(small_dataset[split.train_indices[0]])]
        twin = resolve_split(
            records,
            "manual",
            train_indices=(*split.train_indices, len(records) - 1),
            test_indices=split.test_indices,
        )
        cfg = desk_config(angles=(0.0,))
        pooled = train(records, twin, cfg)
        assert len(forks) == _pool_workers(len(split.train_indices))
        with serial():
            assert _plan_bytes(pooled) == _plan_bytes(train(records, twin, cfg))

    def test_replaced_extract_sample_sees_every_call_in_process(
        self, small_dataset, split, forks
    ):
        with mock.patch(
            "dmmaction.pipeline.extract_sample", wraps=extract_sample
        ) as extract:
            train(small_dataset, split, desk_config(angles=(0.0,)))
        assert [c.args[0] for c in extract.call_args_list] == [
            small_dataset[i] for i in split.train_indices
        ]
        assert forks == []

    def test_pool_size_is_one_worker_per_core_and_record(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        assert [pipeline._pool_size(n) for n in (1, 2, 7, 12)] == [1, 2, 7, 8]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pipeline._pool_size(12) == 1  # the cores are unknown: serially

    def test_bank_network_that_does_not_build_opens_no_pool(
        self, small_dataset, split, forks, serial, monkeypatch
    ):
        # Depth clips of 16 frames build at 32x32, RGB clips of 10 do not:
        # pool5 has no depth left.  No pool opens, and train raises the
        # error of a serial run.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        cfg = _c3d_config(32, planes=("xy",), rgb_windows=(10,), fc_units=8)
        errors = []
        for run in (contextlib.nullcontext, serial):
            with run(), pytest.raises(ContractError) as info:
                train(small_dataset, split, cfg)
            errors.append(str(info.value))
        assert _pool_workers(len(split.train_indices)) >= 2 and forks == []
        assert errors[0] == errors[1]
        assert "pool5" in errors[0]

    @pytest.mark.parametrize(
        "angles, planes",
        [((0.0,), ("xy", "xz")), ((0.0, 30.0), ("xy", "yz", "xz"))],
        ids=["2-streams", "6-streams"],
    )
    def test_c3d_plan_builds_each_network_once_and_pooled_equals_serial(
        self, small_dataset, forks, serial, monkeypatch, angles, planes
    ):
        # Every network is built once, in this process, before train's pool
        # forks, and evaluate reuses them all.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        cfg = _c3d_config(32, angles=angles, planes=planes, fc_units=8, pca_target=1, svm_epochs=5)
        split = _one_record_per_class_split(small_dataset)
        with mock.patch.object(pipeline, "c3d_network", wraps=pipeline.c3d_network) as build:
            plan = train(small_dataset, split, cfg)
            report = evaluate(small_dataset, split, plan).to_csv()
        assert build.call_count == len(plan.streams) == len(angles) * len(planes)
        assert len(forks) == 2 * _pool_workers(2) == 4  # train's pool, then evaluate's
        _assert_reaped(forks)
        with serial():
            unpooled = train(small_dataset, split, cfg)
            assert evaluate(small_dataset, split, unpooled).to_csv() == report
        assert len(forks) == 4
        assert _plan_bytes(plan) == _plan_bytes(unpooled)
        assert "n_test,2\n" in report

class TestEvaluatePool:
    """evaluate runs each whole record in a fork pool that is open for its
    loop; the report is byte-identical to a serial run's, which the serial
    fixture forces."""

    @pytest.mark.parametrize("preset, cpus", [("desk", None), ("desk", 8), ("c3d", None)])
    def test_pooled_report_equals_serial_report(
        self, small_dataset, split, trained, forks, serial, monkeypatch, preset, cpus
    ):
        if cpus is not None:  # more workers than cores: records finish out of order
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if preset == "desk":
            plan = trained
        else:
            plan = train(small_dataset, split, _c3d_config(32, **_C3D_SMALL))
            forks.clear()
        pooled = evaluate(small_dataset, split, plan).to_csv()
        assert len(forks) == _pool_workers(len(split.test_indices))
        _assert_reaped(forks)
        with serial():
            unpooled = evaluate(small_dataset, split, plan).to_csv()
        assert len(forks) == _pool_workers(len(split.test_indices))
        assert pooled == unpooled
        assert preset != "desk" or pooled == _GOLDEN_CSV

    @pytest.mark.parametrize("fail_unit, malformed, want", _BROKEN)
    def test_error_in_a_unit_raises_the_serial_error_and_leaves_no_child(
        self, small_dataset, split, trained, forks, serial, monkeypatch, tmp_path,
        fail_unit, malformed, want,
    ):
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        records = _break_records(
            monkeypatch, tmp_path, small_dataset, split.test_indices, trained.cfg,
            fail_unit, malformed,
        )
        errors = []
        for run in (contextlib.nullcontext, serial):
            with run(), pytest.raises(DmmActionError) as info:
                evaluate(records, split, trained)
            errors.append((type(info.value), str(info.value)))
            _assert_reaped(forks)
        assert len(forks) == _pool_workers(len(split.test_indices))
        assert errors[0] == errors[1] == want

    def test_error_in_the_loop_body_closes_the_pool_and_leaves_no_child(
        self, small_dataset, split, trained, forks, serial, monkeypatch, tmp_path
    ):
        # The first test record is too short for every stream and has no
        # RGB input, so its classify raises while the pool still runs the
        # other records; the pool is shut down, its queued records
        # cancelled, before evaluate's error leaves it.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        records = list(small_dataset)
        i = split.test_indices[0]
        short = tmp_path / "short.bin"
        write_depth_bin(short, DepthSequence(read_depth_bin(records[i].depth_path).frames[:3]))
        records[i] = dataclasses.replace(records[i], depth_path=short, rgb_path=None)
        shutdowns = []
        real = concurrent.futures.ProcessPoolExecutor.shutdown

        def shutdown(pool, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            return real(pool, wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "shutdown", shutdown)
        errors = []
        for run in (contextlib.nullcontext, serial):
            with run(), pytest.raises(DmmActionError) as info:
                evaluate(records, split, trained)
            errors.append((type(info.value), str(info.value)))
            _assert_reaped(forks)
        assert len(forks) == _pool_workers(len(split.test_indices))
        assert shutdowns == [True]  # the pooled run's, with its queue cancelled
        assert errors[0] == errors[1] == (
            ContractError, f"no stream produced a score for {short}; sequence too short"
        )

    def test_pose_without_trained_streams_raises_before_anything_is_extracted(
        self, small_dataset, split, trained, forks, serial, monkeypatch
    ):
        # The last test record's pose has no trained stream: evaluate raises
        # the error classify raises for it, before a record is read or a
        # pool opens.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        records = list(small_dataset)
        i = split.test_indices[-1]
        records[i] = dataclasses.replace(records[i], pose="sitting")
        with pytest.raises(StateError) as want:
            classify(records[i], trained)
        for run in (contextlib.nullcontext, serial):
            with (
                run(),
                mock.patch.object(pipeline, "read_depth_bin", wraps=read_depth_bin) as read,
                pytest.raises(DmmActionError) as info,
            ):
                evaluate(records, split, trained)
            assert (type(info.value), str(info.value)) == (StateError, str(want.value))
            assert read.call_count == 0
        assert forks == []

    def test_standalone_classify_forks_nothing(self, small_dataset, split, trained, forks):
        classify(small_dataset[split.test_indices[0]], trained)
        assert forks == []

    def test_parent_neither_reads_nor_projects(
        self, small_dataset, split, trained, forks, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        with (
            mock.patch.object(pipeline, "read_depth_bin", wraps=read_depth_bin) as read,
            mock.patch.object(
                pipeline, "project_cartesian", wraps=pipeline.project_cartesian
            ) as project,
        ):
            report = evaluate(small_dataset, split, trained).to_csv()
        assert read.call_count == project.call_count == 0
        assert len(forks) == len(split.test_indices)
        assert report == _GOLDEN_CSV  # the serial report

    def test_loop_over_one_record_runs_serially(
        self, small_dataset, split, trained, forks, monkeypatch
    ):
        # A pool of one worker would only add a fork: the loop runs here,
        # as a standalone classify does.
        monkeypatch.setattr(os, "sched_getaffinity", _eight_cpus)
        one = resolve_split(
            small_dataset,
            "manual",
            train_indices=split.train_indices,
            test_indices=split.test_indices[:1],
        )
        with mock.patch.object(pipeline, "read_depth_bin", wraps=read_depth_bin) as read:
            assert evaluate(small_dataset, one, trained).n_test == 1
        assert forks == [] and read.call_count == 1

    def test_replaced_extract_sample_sees_every_record_in_process(
        self, small_dataset, split, trained, forks
    ):
        with mock.patch(
            "dmmaction.pipeline.extract_sample", wraps=extract_sample
        ) as extract:
            report = evaluate(small_dataset, split, trained)
        assert [c.args[0] for c in extract.call_args_list] == [
            small_dataset[i] for i in split.test_indices
        ]
        assert forks == []
        assert report.to_csv() == _GOLDEN_CSV


class TestNonUtf8Text:
    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"d.bin\t-\tslide\ts0\tc0\tstand\xffing\n")
        with pytest.raises(ParseError):
            read_manifest(path)

    def test_crop_file(self, small_dataset, tmp_path):
        crop = tmp_path / "crop.txt"
        crop.write_bytes(b"0 0 4 4\n\xff\n")
        rec = dataclasses.replace(small_dataset[0], crop_path=crop)
        with pytest.raises(ParseError):
            extract_sample(rec, build_streams(desk_config(angles=(0.0,))))

    def test_plan_labels(self, tmp_path):
        save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        (tmp_path / "plan" / "labels.txt").write_bytes(b"bob\nsl\xffide\n")
        with pytest.raises(ParseError):
            load_plan(tmp_path / "plan")
