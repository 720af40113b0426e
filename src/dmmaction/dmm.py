"""Depth-motion-map accumulation and rendering into fixed-size network inputs.

A template accumulates absolute frame-to-frame differences of one
Cartesian projection over a time window, each weighted by its normalized
motion magnitude (region-adaptive); unit weights give the plain depth
motion map.  Windows are
counted in difference terms: a window w starting at t consumes maps
t .. t+w, so t + w must not exceed the last map index.  The ALL window
means every remaining difference from t to the end of the sequence.

Each term |maps[i+1] - maps[i]| * weights[i], of n maps and (n - 1, h, w)
weights, is formed in one float64 buffer reused across the window and
added to the sum in order of i.

Rendering scales a template to [0, 1], applies the jet colormap defined
bit-exactly below, bilinearly resizes preserving aspect, and zero-pads
symmetrically to the requested size.  Which input pixels a resize reads
and how it weighs them depend only on the input shape and the output
size, so they are computed once per (shape, size) into a cached plan: the
flat indices of the four corners around each output pixel, the row and
column weights, and the box the resized image fills in the zero canvas.
The jet colormap is computed channels-first, as one (3, ...) array of
r, g, b planes, so each ufunc runs over whole planes rather than an
innermost axis of 3 channels.  A shrinking render gathers the four
corners of the grid with one take, then scales and colors only those; an
enlarging one colors the grid and gathers the colored planes.  Both give
the bits of coloring the grid and then blending it: scaling and coloring
act on each value alone, so every output value goes through the same
operations in the same order.  RGB frames are resized through the same
plans, without the padding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
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
    weights: np.ndarray,
    t: int,
    window: Window,
    floor: float = 0.0,
) -> np.ndarray:
    """Accumulate absolute consecutive differences weighted by motion magnitude.

    Args:
        maps: ordered projections of one plane, identical shapes.
        weights: the (len(maps) - 1, h, w) normalized flow magnitudes, or a
            sequence of (h, w) ones; weights[k], in [0, 1], weighs the
            difference of maps k and k+1.  normalize_magnitude checks them.
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
    weights = np.asarray(weights)
    if weights.shape != (len(maps) - 1, *shape):
        raise ContractError(
            f"weights of shape {weights.shape} do not match {len(maps)} maps of shape "
            f"{shape}; expected one per consecutive pair, {(len(maps) - 1, *shape)}"
        )
    acc = np.zeros(shape, dtype=np.float64)
    term = np.empty(shape, dtype=np.float64)
    for i in range(t, t + w):
        np.subtract(maps[i + 1].grid, maps[i].grid, out=term)
        np.abs(term, out=term)
        if floor > 0.0:
            np.copyto(term, 0.0, where=~(term >= floor))
        np.multiply(term, weights[i], out=term)
        acc += term
    return acc


#: Jet channel offsets, red, green, blue: channel c is clamp(1.5 - |4u - k_c|).
_JET_OFFSETS = np.array([3.0, 2.0, 1.0])


def _jet_planes(u: np.ndarray) -> np.ndarray:
    """The jet colormap channels-first: a (3, *u.shape) float64 array of
    r, g, b planes, each ufunc running over all three planes at once."""
    planes = np.subtract(4.0 * u, _JET_OFFSETS.reshape((3,) + (1,) * u.ndim))
    np.abs(planes, out=planes)
    np.subtract(1.5, planes, out=planes)
    return np.clip(planes, 0.0, 1.0, out=planes)


@dataclass(frozen=True)
class _ResizePlan:
    """Where a bilinear resize of an (in_h, in_w) image reads and how it
    weighs what it reads, placed in a box of a zero canvas.

    corners[r, c] holds the flat input index of corner (y_r, x_c) of every
    output pixel (y0/y1 the rows above and below its center, x0/x1 the
    columns left and right); col_weights is (1 - wx, wx) shaped (2, 1, w)
    and row_weights (1 - wy, wy) shaped (2, h, 1).
    """

    corners: np.ndarray
    col_weights: np.ndarray
    row_weights: np.ndarray
    box: tuple[slice, slice]


def _axis_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper source index and upper weight of each output sample,
    with pixel-center alignment."""
    pos = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
    lower = np.floor(pos).astype(np.int64)
    return lower, np.minimum(lower + 1, n_in - 1), pos - lower


# A run needs one plan per plane shape and frame size; the bound keeps
# callers that vary shapes from holding an index array for each.
@functools.lru_cache(maxsize=32)
def _resize_plan(
    in_hw: tuple[int, int], out_hw: tuple[int, int], keep_aspect: bool
) -> _ResizePlan:
    """The plan resizing in_hw to out_hw, or, with keep_aspect, to the
    largest same-aspect size that fits, centered between zero bands."""
    in_h, in_w = in_hw
    out_h, out_w = out_hw
    new_h, new_w = out_h, out_w
    if keep_aspect:
        scale = min(out_h / in_h, out_w / in_w)
        new_h = max(1, round(in_h * scale))
        new_w = max(1, round(in_w * scale))
    top = (out_h - new_h) // 2
    left = (out_w - new_w) // 2
    y0, y1, wy = _axis_taps(in_h, new_h)
    x0, x1, wx = _axis_taps(in_w, new_w)
    rows = np.stack([y0, y1])[:, None, :, None] * in_w
    cols = np.stack([x0, x1])[None, :, None, :]
    plan = _ResizePlan(
        corners=rows + cols,
        col_weights=np.stack([1 - wx, wx])[:, None, :],
        row_weights=np.stack([1 - wy, wy])[:, :, None],
        box=(slice(top, top + new_h), slice(left, left + new_w)),
    )
    for a in (plan.corners, plan.col_weights, plan.row_weights):
        a.flags.writeable = False
    return plan


def _blend(corners: np.ndarray, plan: _ResizePlan) -> np.ndarray:
    """Bilinear blend of float64 (..., 2, 2, h, w) corner values, which it
    overwrites, into (..., h, w): top = v00 (1 - wx) + v01 wx, bottom
    likewise, then top (1 - wy) + bottom wy."""
    corners *= plan.col_weights
    rows = np.add(corners[..., 0, :, :], corners[..., 1, :, :])
    rows *= plan.row_weights
    return np.add(rows[..., 0, :, :], rows[..., 1, :, :])


def resize_rgb(pixels: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinearly resize an (h, w, c) image to out_hw, pixel-center aligned,
    rounded and clamped to uint8."""
    in_h, in_w, channels = pixels.shape
    plan = _resize_plan((in_h, in_w), tuple(out_hw), False)
    planes = pixels.reshape(in_h * in_w, channels).T.astype(np.float64)
    resized = _blend(np.take(planes, plan.corners, axis=-1), plan)
    np.rint(resized, out=resized)
    np.clip(resized, 0, 255, out=resized)
    return np.moveaxis(resized, 0, -1).astype(np.uint8, order="C")


def _render_float(
    grid: np.ndarray, out_size: tuple[int, int]
) -> tuple[np.ndarray, tuple[slice, slice]]:
    """render_grid before quantization: the resized jet image as float64
    (3, h, w) planes in [0, 1], and the box of the canvas they fill."""
    out_h, out_w = out_size
    if out_h < 8 or out_w < 8:
        raise ContractError(f"output size must be at least 8x8, got {out_size}")
    if grid.ndim != 2 or grid.size == 0:
        raise ContractError(f"grid must be a non-empty 2D map, got shape {grid.shape}")
    lo = float(np.min(grid))
    hi = float(np.max(grid))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ContractError(f"grid of shape {grid.shape} holds a non-finite value")
    plan = _resize_plan(grid.shape, (out_h, out_w), True)
    # Color whichever is smaller: the gathered corners when shrinking, the
    # grid before gathering when enlarging.  Either gives the same bits.
    gather_first = plan.corners.size <= grid.size
    if hi == lo:
        u = np.zeros(plan.corners.shape if gather_first else grid.shape)
    else:
        u = (np.take(grid, plan.corners) if gather_first else grid) - lo
        u /= hi - lo
        u = u.astype(np.float64, copy=False)
    colored = _jet_planes(u)
    if not gather_first:
        colored = np.take(colored.reshape(3, -1), plan.corners, axis=-1)
    return _blend(colored, plan), plan.box


def render_grid(grid: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Min-max scale, colormap, aspect-preserving resize, pad; returns uint8.

    Args:
        grid: finite 2D map; a constant grid maps to colormap(0).
        out_size: (height, width), each >= 8.

    Returns:
        (height, width, 3) uint8 image; padding bands are black.
    """
    resized, box = _render_float(grid, out_size)
    resized *= 255.0
    np.rint(resized, out=resized)
    canvas = np.zeros((*out_size, 3), dtype=np.uint8)
    canvas[box] = np.moveaxis(resized, 0, -1)
    return canvas


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
