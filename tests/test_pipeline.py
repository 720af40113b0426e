import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import (
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
from dmmaction import dmm, pipeline
from dmmaction.dmm import Clip, render_grid, stack_clip, template_count
from dmmaction.geometry import ProjectedMap, synthesize_view
from dmmaction.learn import PcaModel, SvmModel, pca_fit
from dmmaction.motion import estimate_flow
from dmmaction.neural import extract_features
from dmmaction.pipeline import (
    SampleRecord,
    Split,
    StreamPlan,
    _flow_weights,
    _resize_rgb,
)
from dmmaction.videoio import DepthSequence, read_depth_bin, read_rgb_sequence, write_depth_bin
from conftest import desk_config
from oracles import horn_schunck_oracle


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


def _per_pair_weights(maps, cfg):
    """Flow weights pair by pair from the Horn-Schunck oracle."""
    raw = []
    for a, b in zip(maps, maps[1:]):
        ox, oy = horn_schunck_oracle(a.grid, b.grid, cfg.flow_iterations, cfg.flow_smoothness)
        raw.append(ox**2 + oy**2)
    if cfg.flow_normalization == "pair":
        peaks = [float(np.max(g)) for g in raw]
        return [g / p if p >= 1e-12 else np.zeros_like(g) for g, p in zip(raw, peaks)]
    peak = max((float(np.max(g)) for g in raw), default=0.0)
    return [g / peak if peak > 0.0 else np.zeros_like(g) for g in raw]


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
        for got, want in zip(weights, expected):
            assert got.normalized
            assert got.g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_static_sequence_gives_zero_maps(self, cfg, n):
        maps = [ProjectedMap("xy", np.zeros((6, 5))) for _ in range(n)]
        weights = _flow_weights(maps, cfg)
        assert len(weights) == n - 1
        for m in weights:
            assert m.normalized
            assert m.g.shape == (6, 5)
            assert m.g.tobytes() == np.zeros((6, 5)).tobytes()

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
        a = extract_sample(rec, cfg)
        b = extract_sample(rec, cfg)
        assert a.features.keys() == b.features.keys()
        for sid in a.features:
            fa, fb = a.features[sid], b.features[sid]
            assert (fa is None) == (fb is None)
            if fa:
                for va, vb in zip(fa, fb):
                    assert np.array_equal(va, vb)

    def test_unconfigured_pose_rejected(self, small_dataset):
        cfg = desk_config(poses=("sitting",))
        with pytest.raises(ContractError, match="pose"):
            extract_sample(small_dataset[0], cfg)

    def test_too_short_sequence_skips_with_warning(self, small_dataset):
        cfg = desk_config(angles=(0.0,), clip_len=30)
        result = extract_sample(small_dataset[0], cfg)
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
            result = extract_sample(small_dataset[0], cfg)
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
            result = extract_sample(small_dataset[0], cfg)
        assert render.call_count == 3 * (8 + 16)
        assert [len(result.features[f"standing/dmm/w{w}/a0"]) for w in (5, "all")] == [1, 2]

    @pytest.mark.parametrize("depth_as_rgb", [False, True])
    def test_appearance_clips_tile_by_window(self, small_dataset, depth_as_rgb):
        cfg = desk_config(angles=(0.0,), rgb_windows=(6, 10), depth_as_rgb=depth_as_rgb)
        rec = small_dataset[0]
        if depth_as_rgb:
            depth = read_depth_bin(rec.depth_path)
            frames = [render_grid(f.depth, cfg.render_size) for f in depth.frames]
        else:
            rgb = read_rgb_sequence(rec.rgb_path)
            frames = [_resize_rgb(f.pixels, cfg.render_size) for f in rgb.frames]
        assert len(frames) == 20
        plan = build_streams(cfg)
        result = extract_sample(rec, cfg, plan)
        for lam, ends in ((6, [5, 11, 17]), (10, [9, 19])):
            sid = f"standing/rgb/r{lam}"
            got = result.features[sid]
            assert len(got) == len(ends)
            for f, end in zip(got, ends):
                clip = Clip(np.stack(frames[end - lam + 1 : end + 1]))
                want = extract_features(clip, plan.network(sid))
                assert f.dtype == np.float64
                assert f.tobytes() == want.tobytes()

    def test_missing_rgb_marks_stream_absent(self, small_dataset):
        cfg = desk_config(angles=(0.0,))
        rec = dataclasses.replace(small_dataset[0], rgb_path=None)
        result = extract_sample(rec, cfg)
        assert result.features["standing/rgb/r10"] is None
        assert any("rgb" in w.lower() for w in result.warnings)

    def test_depth_as_rgb_fills_appearance_stream(self, small_dataset):
        cfg = desk_config(angles=(0.0,), depth_as_rgb=True)
        rec = dataclasses.replace(small_dataset[0], rgb_path=None)
        result = extract_sample(rec, cfg)
        assert result.features["standing/rgb/r10"]

    def test_alpha_zero_equals_bypass_variant(self, small_dataset):
        cfg = desk_config()
        bypass = desk_config(bypass_view_synthesis=True)
        rec = small_dataset[1]
        a = extract_sample(rec, cfg)
        b = extract_sample(rec, bypass)
        got, want = a.features["standing/dmm/w5/a0"], b.features["standing/dmm/w5/a0"]
        assert len(got) == len(want) >= 1
        for va, vb in zip(got, want):
            assert np.array_equal(va, vb)

    def test_only_the_record_pose_bank_appears(self, small_dataset):
        cfg = desk_config(poses=("sitting", "standing"))
        plan = build_streams(cfg)
        result = extract_sample(small_dataset[0], cfg, plan)
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
            result = extract_sample(small_dataset[0], cfg, plan)
        ends = {5: [7], "all": [7, 15]}
        slots = [(w, a) for w in (5, "all") for a in ("0", "30")]
        assert list(result.features) == [f"standing/dmm/w{w}/a{a}" for w, a in slots]
        assert [c.args[1:] for c in stack.call_args_list] == [
            (end, cfg.clip_len) for w, _ in slots for _ in planes for end in ends[w]
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
        result = extract_sample(rec, cfg, plan)
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
        cfg_a = desk_config(angles=(0.0,), out_dir=str(tmp_path / "a"))
        cfg_b = desk_config(angles=(0.0,), out_dir=str(tmp_path / "b"))
        train(small_dataset, split, cfg_a)
        train(small_dataset, split, cfg_b)
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
    "standing__dmm__w5__a0.models": "36b5adab958a9dcb97139f7d888a8abb85f91d42bfcc9ec952dfa76a8e1b7e4a",
    "standing__dmm__w5__a30.models": "f511599c277d1d15a5253752d7d1f9aca4da30432cd69b087026758a07a7e5ba",
    "standing__rgb__r10.models": "c06ed4cdb8844a2757811f275800dc7df46ee1c1ee5e2581b52ed4a7305731e7",
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


class TestNetworkCache:
    def test_c3d_stream_built_once_for_train_and_evaluate(self, small_dataset):
        # 32x32 is the smallest frame the five c3d pools leave 1x1 of, and
        # 16 frames the shortest clip; each 20-frame record gives one clip.
        cfg = desk_config(
            planes=("xy",), angles=(0.0,), depth_windows=("all",), rgb_windows=(),
            clip_len=16, network_preset="c3d", fc_units=8, pca_target=1,
        )
        per_class = {}
        for i, rec in enumerate(small_dataset):
            per_class.setdefault(rec.label, []).append(i)
        train_idx = tuple(ids[0] for ids in per_class.values())
        test_idx = tuple(ids[1] for ids in per_class.values())
        split = resolve_split(small_dataset, "manual", train_indices=train_idx, test_indices=test_idx)
        with mock.patch.object(pipeline, "c3d_network", wraps=pipeline.c3d_network) as build:
            plan = train(small_dataset, split, cfg)
            report = evaluate(small_dataset, split, plan)
        assert build.call_count == 1
        assert report.n_test == 2
        assert list(plan.svm) == ["standing/dmm/xy/wall/a0"]

    def test_over_budget_plan_rebuilds_with_identical_features(self, small_dataset, monkeypatch):
        cfg = desk_config(angles=(0.0,))
        cached = build_streams(cfg)
        want = [extract_sample(rec, cfg, cached).features for rec in small_dataset[:2]]
        assert len(cached._networks) == len(cached.streams)
        monkeypatch.setattr(pipeline, "NETWORK_CACHE_BYTES", 0)
        uncached = build_streams(cfg)
        with mock.patch.object(pipeline, "desk_network", wraps=pipeline.desk_network) as build:
            got = [extract_sample(rec, cfg, uncached).features for rec in small_dataset[:2]]
        assert uncached._networks == {}
        # every stream's network is rebuilt for every sample
        assert build.call_count == 2 * len(uncached.streams)
        for a, b in zip(want, got):
            assert list(a) == list(b)
            for slot in a:
                assert [f.tobytes() for f in a[slot]] == [f.tobytes() for f in b[slot]]

    def test_cache_keeps_networks_while_they_fit(self, monkeypatch):
        plan = build_streams(desk_config(angles=(0.0,)))
        one = pipeline._build_network(plan.cfg, plan.streams[0]).nbytes
        monkeypatch.setattr(pipeline, "NETWORK_CACHE_BYTES", 2 * one)
        for s in plan.streams:
            plan.network(s.id)
        # two of the three equal depth networks fit; the appearance one is larger
        assert list(plan._networks) == [s.id for s in plan.streams[:2]]


@pytest.fixture
def forks(monkeypatch):
    """Pids of the child processes forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _pool_workers(n_records):
    """Children a pooled train of a small desk plan forks: one per core and record."""
    cores = len(os.sched_getaffinity(0))
    return min(cores, n_records) if cores >= 2 else 0


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
    """train extracts its records in a fork pool when the cached networks
    leave room for 2 or more workers; the plan is byte-identical to a
    serial run's.  A zero NETWORK_CACHE_BYTES keeps no network, which
    forces the serial path."""

    # 20-frame records give window-5 too few templates for clips of 16, and
    # too few RGB frames for r30: every record adds warnings.
    CFG = dict(angles=(0.0,), depth_windows=(5, "all"), rgb_windows=(10, 30), clip_len=16)

    @pytest.mark.parametrize("cpus", [None, 8])
    def test_pooled_plan_equals_serial_plan(
        self, small_dataset, split, forks, monkeypatch, cpus
    ):
        n = len(split.train_indices)
        if cpus is not None:  # more workers than cores: results arrive out of order
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pooled = train(small_dataset, split, desk_config(**self.CFG))
        assert len(forks) == _pool_workers(n)
        monkeypatch.setattr(pipeline, "NETWORK_CACHE_BYTES", 0)
        serial = train(small_dataset, split, desk_config(**self.CFG))
        assert len(forks) == _pool_workers(n)
        assert _plan_bytes(pooled) == _plan_bytes(serial)
        assert pooled.train_report.per_stream
        # warnings name the records in split order
        warned = [w.split(": ")[0] for w in pooled.train_report.warnings]
        records = [str(small_dataset[i].depth_path) for i in split.train_indices]
        assert [w for w in dict.fromkeys(warned) if not w.startswith("stream ")] == records

    def test_no_child_outlives_train(self, small_dataset, split, forks):
        train(small_dataset, split, desk_config(angles=(0.0,)))
        assert len(forks) == _pool_workers(len(split.train_indices))
        assert multiprocessing.active_children() == []
        for pid in forks:
            with pytest.raises(ChildProcessError):  # already reaped
                os.waitpid(pid, os.WNOHANG)

    def test_malformed_depth_file_raises_the_serial_error(
        self, small_dataset, split, forks, monkeypatch, tmp_path
    ):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x02\x00\x00\x00\x04\x00")  # a truncated header
        records = list(small_dataset)
        i = split.train_indices[1]
        records[i] = dataclasses.replace(records[i], depth_path=bad)
        errors = []
        for budget in (pipeline.NETWORK_CACHE_BYTES, 0):
            monkeypatch.setattr(pipeline, "NETWORK_CACHE_BYTES", budget)
            with pytest.raises(DmmActionError) as info:
                train(records, split, desk_config(angles=(0.0,)))
            errors.append((type(info.value), str(info.value)))
        assert len(forks) == _pool_workers(len(split.train_indices))
        assert errors[0] == errors[1]
        assert errors[0][0] is ParseError

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

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_pool_needs_room_for_two_copies_of_the_networks(
        self, small_dataset, split, forks, monkeypatch, spare
    ):
        cfg = desk_config(angles=(0.0,))
        plan = build_streams(cfg)
        bank = sum(pipeline._build_network(cfg, s).nbytes for s in plan.streams)
        monkeypatch.setattr(pipeline, "NETWORK_CACHE_BYTES", 2 * bank + spare)
        with mock.patch.object(pipeline, "desk_network", wraps=pipeline.desk_network) as build:
            plan = train(small_dataset, split, cfg)
        # every network fits once: each is built once, in this process, and kept
        assert build.call_count == len(plan.streams)
        assert list(plan._networks) == [s.id for s in plan.streams]
        assert len(forks) == (0 if spare < 0 else _pool_workers(len(split.train_indices)))


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
            extract_sample(rec, desk_config(angles=(0.0,)))

    def test_plan_labels(self, tmp_path):
        save_plan(_rigged_plan([0.7, 0.3]), tmp_path / "plan")
        (tmp_path / "plan" / "labels.txt").write_bytes(b"bob\nsl\xffide\n")
        with pytest.raises(ParseError):
            load_plan(tmp_path / "plan")
