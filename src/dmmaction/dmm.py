"""Depth-motion-map accumulation and rendering into fixed-size network inputs.

A template accumulates absolute frame-to-frame differences of one
Cartesian projection over a time window, each weighted by its normalized
motion magnitude (region-adaptive); unit weights give the plain depth
motion map.  Windows are
counted in difference terms: a window w starting at t consumes maps
t .. t+w, so t + w must not exceed the last map index.  The ALL window
means every remaining difference from t to the end of the sequence.

Rendering scales a template to [0, 1], applies the jet colormap defined
bit-exactly below, bilinearly resizes preserving aspect, and zero-pads
symmetrically to the requested size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError
from .motion import MagnitudeMap
from .geometry import ProjectedMap

#: Whole-remaining-sequence window marker.
ALL = "all"

Window = int | str


def effective_window(n_maps: int, t: int, window: Window) -> int:
    """Number of difference terms for a window starting at t."""
    if window == ALL:
        return n_maps - 1 - t
    if not isinstance(window, int):
        raise ContractError(f"window must be an int or {ALL!r}, got {window!r}")
    return window


def template_count(n_maps: int, window: Window) -> int:
    """How many templates a window setting yields on an n_maps sequence."""
    if window == ALL:
        return max(0, n_maps - 2)
    return max(0, n_maps - int(window))


def _check_window(maps: Sequence[ProjectedMap], t: int, window: Window) -> int:
    if len(maps) < 2:
        raise ContractError(f"need at least 2 maps, got {len(maps)}")
    plane = maps[0].plane
    shape = maps[0].grid.shape
    for i, m in enumerate(maps):
        if m.plane != plane or m.grid.shape != shape:
            raise ContractError(
                f"map {i} is plane {m.plane} shape {m.grid.shape}; "
                f"expected plane {plane} shape {shape}"
            )
    if t < 0:
        raise ContractError(f"start index must be >= 0, got {t}")
    if t >= len(maps) - 1:
        raise ContractError(f"start index {t} is past the last map pair of {len(maps)} maps")
    w = effective_window(len(maps), t, window)
    if w < 2:
        raise ContractError(
            f"window must cover at least 2 differences, got {w} "
            f"(start {t}, {len(maps)} maps)"
        )
    if t + w > len(maps) - 1:
        raise ContractError(
            f"window of {w} differences starting at {t} needs map index "
            f"{t + w}, but only {len(maps)} maps are available"
        )
    return w


def accumulate_ramdmm(
    maps: Sequence[ProjectedMap],
    weights: Sequence[MagnitudeMap],
    t: int,
    window: Window,
    floor: float = 0.0,
) -> np.ndarray:
    """Accumulate absolute consecutive differences weighted by motion magnitude.

    Args:
        maps: ordered projections of one plane, identical shapes.
        weights: weights[k] is the normalized magnitude of the flow between
            maps k and k+1, one per consecutive pair.
        t: start index of the window.
        window: difference count, or ALL for everything from t onward.
        floor: optional noise floor; per-pixel differences below it are
            dropped before weighting (default 0 applies no threshold).

    Returns:
        The float64 grid sum(|maps[i+1] - maps[i]| * weights[i]) for i in
        [t, t + window).  Unit weights give the unweighted map exactly.
    """
    w = _check_window(maps, t, window)
    shape = maps[0].grid.shape
    if len(weights) != len(maps) - 1:
        raise ContractError(
            f"got {len(weights)} weight maps for {len(maps)} frames; "
            f"expected one per consecutive pair ({len(maps) - 1})"
        )
    for i, g in enumerate(weights[t : t + w], start=t):
        if not g.normalized:
            raise ContractError(f"weight map {i} is not normalized")
        if g.g.shape != shape:
            raise ContractError(
                f"weight map {i} shape {g.g.shape} does not match maps {shape}"
            )
    acc = np.zeros(shape, dtype=np.float64)
    for i in range(t, t + w):
        d = np.abs(maps[i + 1].grid - maps[i].grid)
        if floor > 0.0:
            d = np.where(d >= floor, d, 0.0)
        acc += d * weights[i].g
    return acc


def jet_rgb(u: np.ndarray) -> np.ndarray:
    """Jet colormap over [0, 1], defined bit-exactly for reproducible renders.

    r = clamp(1.5 - |4u - 3|), g = clamp(1.5 - |4u - 2|),
    b = clamp(1.5 - |4u - 1|), each clamped to [0, 1].  Returned as float
    channels in [0, 1]; quantization happens at the end of rendering.
    """
    u = np.asarray(u, dtype=np.float64)
    r = np.clip(1.5 - np.abs(4.0 * u - 3.0), 0.0, 1.0)
    g = np.clip(1.5 - np.abs(4.0 * u - 2.0), 0.0, 1.0)
    b = np.clip(1.5 - np.abs(4.0 * u - 1.0), 0.0, 1.0)
    return np.stack([r, g, b], axis=-1)


def _resize_bilinear(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resample with pixel-center alignment."""
    in_h, in_w = img.shape[:2]
    out_h, out_w = out_hw
    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def render_grid(grid: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Min-max scale, colormap, aspect-preserving resize, pad; returns uint8.

    Args:
        grid: 2D non-negative map; a constant grid maps to colormap(0).
        out_size: (height, width), each >= 8.

    Returns:
        (height, width, 3) uint8 image; padding bands are black.
    """
    out_h, out_w = out_size
    if out_h < 8 or out_w < 8:
        raise ContractError(f"output size must be at least 8x8, got {out_size}")
    if grid.ndim != 2 or grid.size == 0:
        raise ContractError(f"grid must be a non-empty 2D map, got shape {grid.shape}")
    lo = float(np.min(grid))
    hi = float(np.max(grid))
    u = np.zeros_like(grid, dtype=np.float64) if hi == lo else (grid - lo) / (hi - lo)
    colored = jet_rgb(u)
    scale = min(out_h / grid.shape[0], out_w / grid.shape[1])
    new_h = max(1, round(grid.shape[0] * scale))
    new_w = max(1, round(grid.shape[1] * scale))
    resized = _resize_bilinear(colored, (new_h, new_w))
    canvas = np.zeros((out_h, out_w, 3))
    top = (out_h - new_h) // 2
    left = (out_w - new_w) // 2
    canvas[top : top + new_h, left : left + new_w] = resized
    return np.rint(255.0 * canvas).astype(np.uint8)


# The name the benchmark tracer counts renders under; the pipeline calls it.
render_template = render_grid


def stack_clip(rendered: Sequence[np.ndarray], t: int, lam: int) -> np.ndarray:
    """Stack the lam most recent rendered frames ending at index t, oldest
    first, into one (lam, h, w, 3) uint8 clip."""
    if lam < 1:
        raise ContractError(f"clip length must be >= 1, got {lam}")
    if not 0 <= t < len(rendered):
        raise ContractError(f"index {t} outside the {len(rendered)}-frame stream")
    if t - lam + 1 < 0:
        raise ContractError(
            f"clip of {lam} frames ending at {t} needs index {t - lam + 1}; "
            f"only {t + 1} frames are available at or before t"
        )
    window = rendered[t - lam + 1 : t + 1]
    shape = window[0].shape
    for i, f in enumerate(window):
        if f.shape != shape:
            raise ContractError(
                f"clip frame {i} has shape {f.shape}, expected {shape}"
            )
    return np.stack([np.asarray(f, dtype=np.uint8) for f in window])
