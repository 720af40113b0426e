"""Point-cloud lifting, virtual-view rotation, reprojection, and plane projections.

Coordinates are camera-centered and right-handed: x right, y down, z
forward, all in millimeters.  Yaw (alpha) rotates about the vertical
axis, pitch (beta) about the horizontal axis; the composed rotation is
applied pitch-after-yaw.  Angles are always degrees.

A depth frame is an (h, w) float64 array in millimeters, 0 = no reading;
a view of a sequence is a DepthSequence of such frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .videoio import DepthSequence

# Kinect-v1-scale default focal length, stated for 320x240 frames and
# scaled proportionally for other widths.
KINECT_FOCAL_PX = 285.63
KINECT_REF_WIDTH = 320

PLANES = ("xy", "yz", "xz")


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole model: focal length and principal point, in pixels."""

    focal_px: float
    cx: float
    cy: float

    @classmethod
    def default_for(cls, width: int, height: int, focal_px: float | None = None) -> "Intrinsics":
        """Kinect-scale intrinsics with the principal point at the frame center."""
        f = KINECT_FOCAL_PX * width / KINECT_REF_WIDTH if focal_px is None else focal_px
        return cls(focal_px=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0)


@dataclass(frozen=True)
class RotationSpec:
    """Virtual-camera rotation: yaw alpha and pitch beta, degrees."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        for name, angle in (("alpha", self.alpha), ("beta", self.beta)):
            if not -180.0 <= angle <= 180.0:
                raise ContractError(f"{name}={angle} outside [-180, 180] degrees")

    @property
    def is_identity(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0


@dataclass(frozen=True)
class BinParams:
    """Depth-axis quantization for the side and top occupancy maps."""

    bin_mm: float = 10.0
    bin_count: int = 512

    def __post_init__(self) -> None:
        if self.bin_mm <= 0:
            raise ContractError(f"bin_mm must be positive, got {self.bin_mm}")
        if self.bin_count < 1:
            raise ContractError(f"bin_count must be >= 1, got {self.bin_count}")


@dataclass(frozen=True)
class ProjectedMap:
    """One Cartesian projection of a depth frame.

    xy is the depth map itself; yz and xz are binary occupancy over
    (zbin, y) and (x, zbin) respectively.
    """

    plane: str
    grid: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.plane not in PLANES:
            raise ContractError(f"plane must be one of {PLANES}, got {self.plane!r}")
        # Written so that NaN, which fails every comparison, fails too.
        if not ((self.grid >= 0).all() and np.isfinite(self.grid).all()):
            raise ContractError("projected map values must be finite and non-negative")


def rotation_matrix(spec: RotationSpec) -> np.ndarray:
    """Composed rotation: pitch(beta) @ yaw(alpha)."""
    a = np.deg2rad(spec.alpha)
    b = np.deg2rad(spec.beta)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    yaw = np.array([[ca, 0.0, sa], [0.0, 1.0, 0.0], [-sa, 0.0, ca]])
    pitch = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return pitch @ yaw


def depth_to_points(depth: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """Back-project every nonzero depth pixel through the pinhole model.

    Args:
        depth: (h, w) source depth frame.
        intrinsics: focal length must be positive.

    Returns:
        (n, 3) float64 points (x, y, z), one per nonzero pixel, in row-major
        pixel scan order: x = (u - cx) * z / f, y = (v - cy) * z / f.
    """
    if intrinsics.focal_px <= 0:
        raise ContractError(f"focal length must be positive, got {intrinsics.focal_px}")
    vs, us = np.nonzero(depth)
    z = depth[vs, us]
    x = (us - intrinsics.cx) * z / intrinsics.focal_px
    y = (vs - intrinsics.cy) * z / intrinsics.focal_px
    return np.column_stack([x, y, z])


def rotate_points(
    points: np.ndarray, spec: RotationSpec, pivot: np.ndarray | None = None
) -> np.ndarray:
    """Apply the composed rotation to every (n, 3) point about pivot.

    pivot defaults to the camera origin.  The identity rotation returns a
    copy of the points, bit for bit, whatever the pivot.
    """
    if spec.is_identity:
        return points.copy()
    rot = rotation_matrix(spec).T
    if pivot is None:
        return points @ rot
    return (points - pivot) @ rot + pivot


def fill_depth_holes(grid: np.ndarray) -> np.ndarray:
    """One 3x3 median pass over reprojection holes.

    Only 0-pixels with at least 5 nonzero neighbors are filled, with the
    median of those neighbors; everything else is untouched.  Restricting
    the pass to well-supported holes avoids inventing structure outside
    object boundaries.
    """
    padded = np.pad(grid, 1, mode="constant")
    h, w = grid.shape
    neighbors = np.empty((8, h, w))
    k = 0
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            neighbors[k] = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
            k += 1
    support = np.count_nonzero(neighbors, axis=0)
    fill_mask = (grid == 0) & (support >= 5)
    if not np.any(fill_mask):
        return grid.copy()
    # The median of each hole's nonzero neighbors, taken as np.ma.median
    # takes it: sort with the zeros as NaN, which sort last, then halve the
    # sum of the middle pair (the middle value twice when k is odd).
    cols = neighbors[:, fill_mask]
    cols[cols == 0] = np.nan
    cols.sort(axis=0)
    k = support[fill_mask]
    at = np.arange(k.size)
    out = grid.copy()
    out[fill_mask] = (cols[(k - 1) // 2, at] + cols[k // 2, at]) / 2
    return out


def points_to_depth(
    points: np.ndarray,
    intrinsics: Intrinsics,
    out_dims: tuple[int, int],
    fill_holes: bool = True,
) -> np.ndarray:
    """Forward-project (n, 3) points into a depth frame with z-buffering.

    Args:
        points: metric points; points with z <= 0 are discarded.
        intrinsics: pinhole parameters for the target frame.
        out_dims: (width, height) of the synthesized frame, each >= 1.
        fill_holes: apply the single hole-filling pass (see
            fill_depth_holes); disable to inspect the raw z-buffer.

    Returns:
        (height, width) float64 depth frame where each pixel holds the
        nearest projected z, 0 where no point lands.
    """
    width, height = out_dims
    if width < 1 or height < 1:
        raise ContractError(f"out_dims must be >= 1x1, got {out_dims}")
    grid = np.zeros((height, width))
    if len(points):
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        front = z > 0
        x, y, z = x[front], y[front], z[front]
        u = np.rint(x * intrinsics.focal_px / z + intrinsics.cx).astype(np.int64)
        v = np.rint(y * intrinsics.focal_px / z + intrinsics.cy).astype(np.int64)
        inside = (u >= 0) & (u < width) & (v >= 0) & (v < height)
        u, v, z = u[inside], v[inside], z[inside]
        zbuf = np.full((height, width), np.inf)
        np.minimum.at(zbuf, (v, u), z)
        hit = np.isfinite(zbuf)
        grid[hit] = zbuf[hit]
    if fill_holes:
        grid = fill_depth_holes(grid)
    return grid


def project_cartesian(
    depth: np.ndarray, bin_params: BinParams = BinParams()
) -> tuple[ProjectedMap, ProjectedMap, ProjectedMap]:
    """Project an (h, w) depth frame onto the three orthogonal Cartesian planes.

    Returns:
        (m_xy, m_yz, m_xz): the depth map itself, side occupancy indexed
        (zbin, y), and top occupancy indexed (x, zbin).  Pixels whose
        depth bin falls outside bin_count are ignored; 0-depth pixels
        never occupy a bin.
    """
    height, width = depth.shape
    m_xy = ProjectedMap("xy", depth.copy())
    yz = np.zeros((bin_params.bin_count, height))
    xz = np.zeros((width, bin_params.bin_count))
    vs, us = np.nonzero(depth)
    if len(vs):
        bins = np.floor(depth[vs, us] / bin_params.bin_mm).astype(np.int64)
        ok = bins < bin_params.bin_count
        yz[bins[ok], vs[ok]] = 1.0
        xz[us[ok], bins[ok]] = 1.0
    return m_xy, ProjectedMap("yz", yz), ProjectedMap("xz", xz)


def sequence_centroid(seq: DepthSequence, intrinsics: Intrinsics) -> np.ndarray:
    """Mean 3D position of every valid reading across a sequence.

    Used as the rotation pivot for view synthesis: rotating about the
    camera origin would sweep distant content out of the frame for
    |alpha| >= ~30 degrees, so the virtual camera orbits the scene
    content instead.
    """
    total = np.zeros(3)
    count = 0
    for depth in seq.frames:
        points = depth_to_points(depth, intrinsics)
        if len(points):
            total += points.sum(axis=0)
            count += len(points)
    if count == 0:
        return np.zeros(3)
    return total / count


def synthesize_view(
    seq: DepthSequence,
    spec: RotationSpec,
    intrinsics: Intrinsics,
    pivot: np.ndarray | None = None,
) -> DepthSequence:
    """Render a depth sequence from a rotated virtual viewpoint.

    Each frame is lifted to points, rotated about a shared pivot (see
    rotate_points), and reprojected with z-buffering and hole filling.

    Args:
        seq: source depth sequence.
        spec: yaw/pitch of the virtual camera.
        intrinsics: shared by source and synthesized frames.
        pivot: rotation center; defaults to the sequence centroid.
    """
    if pivot is None and not spec.is_identity:
        pivot = sequence_centroid(seq, intrinsics)
    dims = (seq.width, seq.height)
    frames = np.empty(seq.frames.shape, dtype=np.float64)
    for i, depth in enumerate(seq.frames):
        points = rotate_points(depth_to_points(depth, intrinsics), spec, pivot)
        frames[i] = points_to_depth(points, intrinsics, dims)
    return DepthSequence(frames)
