from pathlib import Path

import numpy as np
import pytest

from dmmaction import ContractError, SynthSpec, generate_synthetic_dataset
from dmmaction.dmm import accumulate_ramdmm
from dmmaction.geometry import (
    Intrinsics,
    ProjectedMap,
    RotationSpec,
    sequence_centroid,
    synthesize_view,
)
from dmmaction.pipeline import read_manifest
from dmmaction.videoio import read_depth_bin, read_rgb_sequence
from conftest import run_python_in_c_locale


def _unit_weights(maps):
    """Unit flow weights, under which accumulate_ramdmm gives the unweighted map."""
    return np.ones((len(maps) - 1, *maps[0].grid.shape))


def _tiny_spec(**overrides):
    base = dict(
        actions=("slide", "bob"),
        subjects=2,
        cameras=1,
        frames=6,
        width=48,
        height=36,
    )
    base.update(overrides)
    return SynthSpec(**base)


def _tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestSpecValidation:
    def test_single_action_rejected(self):
        with pytest.raises(ContractError):
            _tiny_spec(actions=("slide",))

    def test_single_subject_rejected(self):
        with pytest.raises(ContractError):
            _tiny_spec(subjects=1)

    def test_unknown_action_rejected(self):
        with pytest.raises(ContractError):
            _tiny_spec(actions=("slide", "moonwalk"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise", float("inf")),
            ("noise", 1e30),
            ("noise", 2.0**63),
            ("noise", 1e18),
            ("noise", 2.0**32 - 2**12),
            ("noise", float("nan")),
            ("noise", -1.0),
            ("jitter", float("nan")),
            ("camera_step_deg", float("inf")),
            ("pose_cycle", ()),
            ("pose_cycle", ("sit\tting",)),
            ("pose_cycle", ("",)),
            ("subjects", 2.5),
            ("frames", "6"),
            ("actions", ("slide", "bob", "slide")),
        ],
    )
    def test_bad_field_rejected_by_name(self, field, value):
        # Unchecked, an infinite or huge noise fails the integer draw, a
        # noise of 2**32 - 2**12 or more can push a depth past the
        # container's u32, a NaN or negative one adds none, and an empty
        # pose cycle or a fractional count fails deep in generation.
        with pytest.raises(ContractError, match=f"^{field}"):
            _tiny_spec(**{field: value})

    def test_largest_noise_in_range_writes_and_reads_back(self, tmp_path):
        # The farthest box points: the narrowest frame (the coarsest face
        # grid), the most motion and side views.
        noise = np.nextafter(2.0**32 - 2**12, 0)
        spec = _tiny_spec(noise=noise, width=16, height=16, jitter=0.9, cameras=3,
                          camera_step_deg=90.0)
        records = read_manifest(generate_synthetic_dataset(tmp_path, spec, seed=5))
        top = max(read_depth_bin(r.depth_path).frames.max() for r in records)
        assert 2**31 < top < 2**32

    def test_noise_past_the_container_creates_no_directory(self, tmp_path):
        with pytest.raises(ContractError, match=r"^noise must lie in \[0, 2\*\*32 - 2\*\*12\)"):
            generate_synthetic_dataset(tmp_path / "d", _tiny_spec(noise=1e18), seed=0)
        assert not (tmp_path / "d").exists()


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        spec = _tiny_spec()
        generate_synthetic_dataset(a, spec, seed=11)
        generate_synthetic_dataset(b, spec, seed=11)
        ta = _tree_bytes(a)
        tb = _tree_bytes(b)
        assert list(ta) == list(tb)
        for rel in ta:
            assert ta[rel] == tb[rel], rel

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        spec = _tiny_spec()
        generate_synthetic_dataset(a, spec, seed=11)
        generate_synthetic_dataset(b, spec, seed=12)
        ta = _tree_bytes(a)
        tb = _tree_bytes(b)
        assert any(ta[rel] != tb[rel] for rel in ta if rel.suffix == ".bin")


class TestManifest:
    def test_record_grid_complete(self, tmp_path):
        spec = _tiny_spec(subjects=3, cameras=2)
        manifest = generate_synthetic_dataset(tmp_path, spec, seed=0)
        records = read_manifest(manifest)
        assert len(records) == 2 * 3 * 2
        keys = {(r.label, r.subject, r.camera) for r in records}
        assert ("slide", "s02", "c1") in keys
        assert all(r.pose == "standing" for r in records)

    def test_written_as_utf8_under_c_locale(self, tmp_path):
        # The pose names no file, so it may be any text; "\u00e5" keeps the
        # command line ASCII.
        code = (
            "import sys; from dmmaction import SynthSpec, generate_synthetic_dataset; "
            "generate_synthetic_dataset(sys.argv[1], SynthSpec(actions=('slide', 'bob'), "
            "subjects=2, frames=6, width=32, height=24, pose_cycle=('st\\u00e5nding',)))"
        )
        done = run_python_in_c_locale("-c", code, str(tmp_path))
        assert done.returncode == 0, done.stderr
        records = read_manifest(tmp_path / "manifest.tsv")
        assert {r.pose for r in records} == {"st\u00e5nding"}

    def test_files_exist_and_parse(self, tmp_path):
        manifest = generate_synthetic_dataset(tmp_path, _tiny_spec(), seed=3)
        rec = read_manifest(manifest)[0]
        seq = read_depth_bin(rec.depth_path)
        assert len(seq.frames) == 6
        assert all(np.count_nonzero(f) > 0 for f in seq.frames)
        rgb = read_rgb_sequence(rec.rgb_path)
        assert len(rgb) == 6
        assert rgb[0].shape == (36, 48, 3)


class TestMotionSignatures:
    def test_static_action_yields_zero_templates(self, tmp_path):
        spec = _tiny_spec(actions=("slide", "static"))
        manifest = generate_synthetic_dataset(tmp_path, spec, seed=2)
        rec = next(r for r in read_manifest(manifest) if r.label == "static")
        seq = read_depth_bin(rec.depth_path)
        maps = [ProjectedMap("xy", f) for f in seq.frames]
        grid = accumulate_ramdmm(maps, _unit_weights(maps), t=0, window=len(maps) - 1)
        assert np.all(grid == 0.0)

    def test_moving_action_yields_nonzero_templates(self, tmp_path):
        manifest = generate_synthetic_dataset(tmp_path, _tiny_spec(), seed=2)
        rec = next(r for r in read_manifest(manifest) if r.label == "slide")
        seq = read_depth_bin(rec.depth_path)
        maps = [ProjectedMap("xy", f) for f in seq.frames]
        grid = accumulate_ramdmm(maps, _unit_weights(maps), t=0, window=len(maps) - 1)
        assert np.count_nonzero(grid) > 0

    def test_subject_jitter_varies_sequences(self, tmp_path):
        manifest = generate_synthetic_dataset(tmp_path, _tiny_spec(), seed=4)
        records = [r for r in read_manifest(manifest) if r.label == "slide"]
        seqs = [read_depth_bin(r.depth_path) for r in records]
        assert not np.array_equal(seqs[0].frames[3], seqs[1].frames[3])


class TestCameraGeometry:
    def test_camera_yaw_matches_view_synthesis(self, tmp_path):
        spec = _tiny_spec(
            subjects=2, cameras=2, frames=8, width=64, height=48, camera_step_deg=30.0
        )
        manifest = generate_synthetic_dataset(tmp_path, spec, seed=5)
        by = {(r.label, r.subject, r.camera): r for r in read_manifest(manifest)}
        base = read_depth_bin(by[("slide", "s00", "c0")].depth_path)
        rotated = read_depth_bin(by[("slide", "s00", "c1")].depth_path)
        intr = Intrinsics.default_for(64, 48)
        pivot = sequence_centroid(base, intr)
        synthesized = synthesize_view(base, RotationSpec(30.0), intr, pivot=pivot)
        diffs = []
        for fs, fc in zip(synthesized.frames, rotated.frames):
            valid = (fs > 0) & (fc > 0)
            assert valid.sum() > 50
            diffs.append(float(np.abs(fs[valid] - fc[valid]).mean()))
        assert float(np.mean(diffs)) < 20.0  # 2x the default 10 mm depth bin
