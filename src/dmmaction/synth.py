"""Synthetic depth + RGB action dataset generator.

Renders a rigid textured box moving in front of a static camera.  Each
action class is a distinct motion profile of the same box, so the only
discriminative signal is motion, which is what the pipeline measures.
Camera viewpoints are realized by rotating the scene points about the
sequence-fixed box center before projection, matching the convention the
view-synthesis stage uses, so a real side camera and a synthesized view
of the frontal camera land near each other.

Output layout per sequence directory:
    depth.bin      packed depth container
    rgb/f_###.ppm  color frames
and one manifest.tsv at the dataset root.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError
from .geometry import Intrinsics, RotationSpec, points_to_depth, rotate_points
from .videoio import DepthSequence, write_depth_bin, write_image

log = logging.getLogger(__name__)

ACTIONS = ("slide", "bob", "arc", "static")


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a generated dataset.

    noise adds zero-mean uniform sensor jitter: integer mm (+-noise) on
    nonzero depth pixels and integer intensity levels (+-noise, clamped)
    on RGB.  jitter is the half-range of per-sequence motion
    amplitude variation around 1.0, so subjects move with scale drawn
    from [1 - jitter, 1 + jitter].  camera_step_deg separates adjacent
    camera yaw stations.
    """

    actions: tuple[str, ...] = ("slide", "bob", "arc")
    subjects: int = 6
    cameras: int = 2
    frames: int = 24
    width: int = 64
    height: int = 48
    noise: float = 0.0
    jitter: float = 0.15
    camera_step_deg: float = 30.0
    pose_cycle: tuple[str, ...] = ("standing",)

    def __post_init__(self) -> None:
        if any(a not in ACTIONS for a in self.actions):
            raise ContractError(f"actions must be a subset of {ACTIONS}")
        if len(self.actions) < 2:
            raise ContractError(f"need at least 2 actions, got {len(self.actions)}")
        if self.subjects < 2:
            raise ContractError(f"need at least 2 subjects, got {self.subjects}")
        if self.cameras < 1:
            raise ContractError("need at least one camera")
        if self.frames < 2:
            raise ContractError("need at least 2 frames per sequence")
        if self.width < 16 or self.height < 16:
            raise ContractError("frame must be at least 16x16")
        if not 0.0 <= self.jitter <= 0.9:
            raise ContractError(f"jitter must lie in [0, 0.9], got {self.jitter}")


_BOX_W_MM = 420.0
_BOX_H_MM = 520.0
_BOX_Z_MM = 1600.0


def _box_points(width: int, height: int) -> np.ndarray:
    """Dense front-face sample grid of the box, in camera mm at rest pose.

    Sampled finer than the pixel pitch at the rest depth so projection
    leaves no holes inside the face.
    """
    intr = Intrinsics.default_for(width, height)
    step = 0.75 * _BOX_Z_MM / intr.focal_px
    xs = np.arange(-_BOX_W_MM / 2, _BOX_W_MM / 2 + step, step)
    ys = np.arange(-_BOX_H_MM / 2, _BOX_H_MM / 2 + step, step)
    gx, gy = np.meshgrid(xs, ys)
    gz = np.full_like(gx, _BOX_Z_MM)
    # Shallow convex bulge so the face spans several depth bins.
    gz = gz - 60.0 * (1.0 - (gx / (_BOX_W_MM / 2)) ** 2) * (1.0 - (gy / (_BOX_H_MM / 2)) ** 2)
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _motion_offset(action: str, t: int, n: int, jitter: float) -> np.ndarray:
    """Rigid translation of the box at frame t, in mm."""
    u = t / (n - 1)
    if action == "slide":
        return np.array([320.0 * jitter * (2.0 * u - 1.0), 0.0, 0.0])
    if action == "bob":
        return np.array([0.0, 260.0 * jitter * np.sin(2.0 * np.pi * t / 12.0), 0.0])
    if action == "arc":
        return np.array(
            [320.0 * jitter * (2.0 * u - 1.0), 240.0 * jitter * np.sin(np.pi * u), 0.0]
        )
    return np.zeros(3)  # static


def _checker_colors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    a = rng.integers(60, 200, size=3).astype(np.uint8)
    b = rng.integers(60, 200, size=3).astype(np.uint8)
    return a, b


def _backdrop(rng: np.random.Generator, dims: tuple[int, int]) -> np.ndarray:
    """Smooth per-camera color field standing in for scene clutter."""
    width, height = dims
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((height, width, 3))
    for c in range(3):
        fy, fx = rng.uniform(0.5, 2.5, 2)
        py, px = rng.uniform(0.0, 2.0 * np.pi, 2)
        wave = np.sin(2.0 * np.pi * fy * gy / height + py) + np.sin(
            2.0 * np.pi * fx * gx / width + px
        )
        img[:, :, c] = 55.0 + 17.5 * wave
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _render_rgb(
    points: np.ndarray,
    base: np.ndarray,
    intr: Intrinsics,
    dims: tuple[int, int],
    colors: tuple[np.ndarray, np.ndarray],
    backdrop: np.ndarray,
) -> np.ndarray:
    """Z-buffered checkerboard rendering of the box over the backdrop."""
    width, height = dims
    img = backdrop.copy()
    z = points[:, 2]
    keep = z > 0
    pts, ref = points[keep], base[keep]
    u = np.rint(pts[:, 0] * intr.focal_px / pts[:, 2] + intr.cx).astype(np.int64)
    v = np.rint(pts[:, 1] * intr.focal_px / pts[:, 2] + intr.cy).astype(np.int64)
    inside = (u >= 0) & (u < width) & (v >= 0) & (v < height)
    u, v, pts, ref = u[inside], v[inside], pts[inside], ref[inside]
    order = np.argsort(-pts[:, 2], kind="stable")  # far first, near overwrites
    u, v, ref = u[order], v[order], ref[order]
    cell = 64.0
    checker = ((np.floor(ref[:, 0] / cell) + np.floor(ref[:, 1] / cell)) % 2).astype(bool)
    img[v, u] = np.where(checker[:, None], colors[0], colors[1])
    return img


def _sequence_frames(
    action: str,
    spec: SynthSpec,
    cam: int,
    jitter: float,
    noise_rng: np.random.Generator,
    colors: tuple[np.ndarray, np.ndarray],
    backdrop: np.ndarray,
) -> tuple[DepthSequence, list[np.ndarray]]:
    intr = Intrinsics.default_for(spec.width, spec.height)
    base = _box_points(spec.width, spec.height)
    center = np.array([0.0, 0.0, _BOX_Z_MM])
    cam_rot = RotationSpec(alpha=cam * spec.camera_step_deg)
    depth_frames, rgb_frames = [], []
    for t in range(spec.frames):
        moved = base + _motion_offset(action, t, spec.frames, jitter)
        points = rotate_points(moved, cam_rot, pivot=center)
        grid = np.rint(points_to_depth(points, intr, (spec.width, spec.height)))
        if spec.noise > 0:
            bump = noise_rng.integers(
                -int(spec.noise), int(spec.noise) + 1, size=grid.shape
            ).astype(np.float64)
            grid = np.where(grid > 0, np.maximum(grid + bump, 1.0), 0.0)
        depth_frames.append(grid)
        rgb = _render_rgb(points, base, intr, (spec.width, spec.height), colors, backdrop)
        if spec.noise > 0:
            speckle = noise_rng.integers(
                -int(spec.noise), int(spec.noise) + 1, size=rgb.shape
            )
            rgb = np.clip(rgb.astype(np.int64) + speckle, 0, 255).astype(np.uint8)
        rgb_frames.append(rgb)
    return DepthSequence(np.stack(depth_frames)), rgb_frames


def generate_synthetic_dataset(
    out_dir: str | Path, spec: SynthSpec | None = None, seed: int = 0
) -> Path:
    """Write a full dataset and its manifest; returns the manifest path.

    Deterministic per (spec, seed): every byte on disk reproduces.
    """
    spec = spec or SynthSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    backdrops = {
        cam: _backdrop(
            np.random.default_rng([seed, 9001, cam]), (spec.width, spec.height)
        )
        for cam in range(spec.cameras)
    }
    rows = []
    for ai, action in enumerate(spec.actions):
        for subject in range(spec.subjects):
            seq_rng = np.random.default_rng([seed, ai, subject])
            jitter = 1.0 - spec.jitter + 2.0 * spec.jitter * seq_rng.random()
            colors = _checker_colors(seq_rng)
            pose = spec.pose_cycle[subject % len(spec.pose_cycle)]
            for cam in range(spec.cameras):
                noise_rng = np.random.default_rng([seed, ai, subject, cam, 7])
                rel = Path(action) / f"s{subject:02d}" / f"c{cam}"
                seq_dir = out / rel
                (seq_dir / "rgb").mkdir(parents=True, exist_ok=True)
                depth_seq, rgb_frames = _sequence_frames(
                    action, spec, cam, jitter, noise_rng, colors, backdrops[cam]
                )
                write_depth_bin(seq_dir / "depth.bin", depth_seq)
                for t, img in enumerate(rgb_frames):
                    write_image(img, seq_dir / "rgb" / f"f_{t:03d}.ppm")
                rows.append(
                    "\t".join(
                        [
                            str(rel / "depth.bin"),
                            str(rel / "rgb"),
                            action,
                            f"s{subject:02d}",
                            f"c{cam}",
                            pose,
                            "-",
                        ]
                    )
                )
    manifest = out / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    log.info("wrote %d sequences under %s", len(rows), out)
    return manifest
