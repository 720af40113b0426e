import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmmaction import ContractError
from dmmaction.geometry import (
    BinParams,
    Intrinsics,
    ProjectedMap,
    RotationSpec,
    depth_to_points,
    fill_depth_holes,
    points_to_depth,
    project_cartesian,
    rotate_points,
    rotation_matrix,
    sequence_centroid,
    synthesize_view,
)
from dmmaction.videoio import DepthSequence
from oracles import fill_holes_oracle, occupancy_oracle

ANGLE_SET = (-45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0)


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(rotation_matrix(RotationSpec(0.0, 0.0)), np.eye(3))

    def test_yaw_90(self):
        p = rotation_matrix(RotationSpec(90.0)) @ np.array([0.0, 0.0, 1000.0])
        assert np.allclose(p, [1000.0, 0.0, 0.0], atol=1e-9)

    def test_yaw_30_closed_form(self):
        p = rotation_matrix(RotationSpec(30.0)) @ np.array([0.0, 0.0, 1000.0])
        assert np.allclose(p, [500.0, 0.0, 866.0254], atol=1e-4)

    def test_angle_range_enforced(self):
        with pytest.raises(ContractError):
            RotationSpec(181.0)

    @given(st.sampled_from(ANGLE_SET), st.sampled_from((-30.0, 0.0, 15.0)))
    @settings(max_examples=25, deadline=None)
    def test_orthogonality(self, alpha, beta):
        r = rotation_matrix(RotationSpec(alpha, beta))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)


class TestDepthToPoints:
    def test_principal_point_ray(self):
        frame = np.pad([[1000.0]], 1)
        intr = Intrinsics(focal_px=100.0, cx=1.0, cy=1.0)
        points = depth_to_points(frame, intr)
        assert len(points) == 1
        assert np.allclose(points[0], [0.0, 0.0, 1000.0])

    def test_all_zero_frame(self):
        points = depth_to_points(np.zeros((4, 4)), Intrinsics(100.0, 1.5, 1.5))
        assert len(points) == 0

    def test_closed_form_2x2(self):
        frame = np.full((2, 2), 100.0)
        points = depth_to_points(frame, Intrinsics(focal_px=100.0, cx=0.0, cy=0.0))
        expected = {(0.0, 0.0, 100.0), (1.0, 0.0, 100.0), (0.0, 1.0, 100.0), (1.0, 1.0, 100.0)}
        assert {tuple(p) for p in points} == expected

    def test_point_count_is_nonzero_count(self, rng):
        depth = rng.integers(0, 3, size=(6, 7)).astype(np.float64) * 500.0
        points = depth_to_points(depth, Intrinsics.default_for(7, 6))
        assert len(points) == np.count_nonzero(depth)

    def test_bad_focal(self):
        with pytest.raises(ContractError):
            depth_to_points(np.array([[1.0]]), Intrinsics(0.0, 0.0, 0.0))


class TestRotatePoints:
    def test_identity_returns_same_points(self, rng):
        points = rng.normal(size=(10, 3)) * 100.0
        out = rotate_points(points, RotationSpec(0.0, 0.0))
        assert np.array_equal(out, points)

    def test_yaw_90_example(self):
        out = rotate_points(np.array([[0.0, 0.0, 1000.0]]), RotationSpec(90.0))
        assert np.allclose(out[0], [1000.0, 0.0, 0.0], atol=1e-9)

    @given(st.integers(0, 1000), st.sampled_from(ANGLE_SET))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, alpha):
        pts = np.random.default_rng(seed).normal(scale=800.0, size=(20, 3))
        fwd = rotate_points(pts, RotationSpec(alpha))
        back = rotate_points(fwd, RotationSpec(-alpha))
        assert np.max(np.abs(back - pts)) < 1e-6

    @given(st.integers(0, 1000), st.sampled_from(ANGLE_SET))
    @settings(max_examples=40, deadline=None)
    def test_norm_preservation(self, seed, alpha):
        pts = np.random.default_rng(seed).normal(scale=800.0, size=(20, 3)) + 1.0
        out = rotate_points(pts, RotationSpec(alpha, beta=10.0))
        before = np.linalg.norm(pts, axis=1)
        after = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(after - before) / before) < 1e-9


class TestPointsToDepth:
    def test_z_buffer_keeps_nearest(self):
        intr = Intrinsics(100.0, 2.0, 2.0)
        pts = np.array([[0.0, 0.0, 500.0], [0.0, 0.0, 800.0]])
        frame = points_to_depth(pts, intr, (5, 5))
        assert frame[2, 2] == 500.0

    def test_lift_reproject_identity_alpha0(self):
        depth = np.zeros((6, 8))
        depth[2:5, 3:6] = 1500.0
        intr = Intrinsics.default_for(8, 6)
        points = depth_to_points(depth, intr)
        back = points_to_depth(points, intr, (8, 6), fill_holes=False)
        nz = depth > 0
        assert np.array_equal(back[nz], depth[nz])

    def test_synthesized_45_has_holes_then_fewer(self):
        # Front-facing plane rotated 45 degrees about its own center.
        depth = np.full((24, 32), 1600.0)
        intr = Intrinsics.default_for(32, 24)
        points = depth_to_points(depth, intr)
        center = points.mean(axis=0)
        pts = rotate_points(points - center, RotationSpec(45.0)) + center
        raw = points_to_depth(pts, intr, (32, 24), fill_holes=False)
        filled = points_to_depth(pts, intr, (32, 24), fill_holes=True)
        # Count holes inside the projected footprint.
        footprint = raw > 0
        cols = np.where(footprint.any(axis=0))[0]
        rows = np.where(footprint.any(axis=1))[0]
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        holes_before = np.count_nonzero(raw[box] == 0)
        holes_after = np.count_nonzero(filled[box] == 0)
        assert holes_before >= 1
        assert holes_after < holes_before


class TestFillDepthHoles:
    def test_supported_hole_filled_with_median(self):
        grid = np.full((3, 3), 10.0)
        grid[1, 1] = 0.0
        out = fill_depth_holes(grid)
        assert out[1, 1] == 10.0

    def test_weakly_supported_hole_untouched(self):
        grid = np.zeros((3, 3))
        grid[0, :] = 10.0  # only 3 nonzero neighbors for the center
        out = fill_depth_holes(grid)
        assert out[1, 1] == 0.0

    def test_nonzero_pixels_never_change(self, rng):
        grid = rng.integers(0, 3, size=(8, 8)).astype(np.float64) * 700.0
        out = fill_depth_holes(grid)
        nz = grid > 0
        assert np.array_equal(out[nz], grid[nz])

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            elements=st.one_of(
                st.just(0.0),
                st.integers(1, 4).map(float),  # ties, and even counts of them
                st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_nanmedian_oracle_bytes(self, grid):
        assert fill_depth_holes(grid).tobytes() == fill_holes_oracle(grid).tobytes()


class TestProjectCartesian:
    def test_all_zero_frame(self):
        frame = np.zeros((3, 4))
        m_xy, m_yz, m_xz = project_cartesian(frame, BinParams(500.0, 4))
        assert np.all(m_xy.grid == 0)
        assert np.all(m_yz.grid == 0)
        assert np.all(m_xz.grid == 0)

    def test_single_pixel_binning(self):
        depth = np.zeros((4, 5))
        depth[2, 3] = 1000.0
        m_xy, m_yz, m_xz = project_cartesian(depth, BinParams(500.0, 4))
        assert m_yz.grid[2, 2] == 1.0
        assert np.count_nonzero(m_yz.grid) == 1
        assert m_xz.grid[3, 2] == 1.0
        assert np.count_nonzero(m_xz.grid) == 1

    def test_xy_is_input_grid(self, rng):
        depth = rng.integers(0, 2000, size=(5, 6)).astype(np.float64)
        m_xy, _, _ = project_cartesian(depth)
        assert np.array_equal(m_xy.grid, depth)

    def test_occupancy_binary_and_idempotent(self, rng):
        depth = rng.integers(0, 1200, size=(6, 6)).astype(np.float64)
        params = BinParams(100.0, 12)
        _, yz1, xz1 = project_cartesian(depth, params)
        _, yz2, xz2 = project_cartesian(depth, params)
        for grid in (yz1.grid, xz1.grid):
            assert set(np.unique(grid)) <= {0.0, 1.0}
        assert np.array_equal(yz1.grid, yz2.grid)
        assert np.array_equal(xz1.grid, xz2.grid)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_matches_oracle(self, seed):
        local = np.random.default_rng(seed)
        depth = local.integers(0, 800, size=(7, 9)).astype(np.float64)
        params = BinParams(75.0, 10)
        _, m_yz, m_xz = project_cartesian(depth, params)
        yz, xz = occupancy_oracle(depth, 75.0, 10)
        assert np.array_equal(m_yz.grid, yz)
        assert np.array_equal(m_xz.grid, xz)


class TestProjectedMap:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_grid_rejected(self, bad):
        grid = np.zeros((3, 4))
        grid[1, 2] = bad
        with pytest.raises(ContractError, match="finite and non-negative"):
            ProjectedMap("xy", grid)


class TestSynthesizeView:
    def _sequence(self):
        depth = np.zeros((10, 12))
        depth[3:8, 4:9] = 1500.0
        depth[5, 6] = 1450.0
        return DepthSequence(np.stack([depth, depth]))

    def test_identity_reproduces_nonzero_pixels(self):
        seq = self._sequence()
        intr = Intrinsics.default_for(12, 10)
        out = synthesize_view(seq, RotationSpec(0.0, 0.0), intr)
        for a, b in zip(seq.frames, out.frames):
            nz = a > 0
            assert np.array_equal(b[nz], a[nz])

    @pytest.mark.parametrize("alpha", [0.0, 30.0])
    def test_frames_are_float64_of_input_shape(self, alpha):
        seq = DepthSequence(np.stack([np.pad([[1500.0]], ((3, 3), (4, 4)))] * 3))
        out = synthesize_view(seq, RotationSpec(alpha), Intrinsics.default_for(9, 7))
        assert out.frames.shape == (3, 7, 9)
        assert out.frames.dtype == np.float64

    def test_rotation_moves_content(self):
        seq = self._sequence()
        intr = Intrinsics.default_for(12, 10)
        out = synthesize_view(seq, RotationSpec(30.0), intr)
        assert not np.array_equal(out.frames[0], seq.frames[0])
        assert np.count_nonzero(out.frames[0]) > 0

    def test_centroid_is_content_mean(self):
        seq = self._sequence()
        intr = Intrinsics.default_for(12, 10)
        c = sequence_centroid(seq, intr)
        assert 1400.0 < c[2] < 1600.0


class TestIntrinsics:
    def test_reference_width(self):
        assert Intrinsics.default_for(320, 240).focal_px == pytest.approx(285.63)

    def test_width_scaling(self):
        assert Intrinsics.default_for(640, 480).focal_px == pytest.approx(571.26)

    def test_principal_point_center(self):
        intr = Intrinsics.default_for(320, 240)
        assert intr.cx == pytest.approx(159.5)
        assert intr.cy == pytest.approx(119.5)
