"""Dense optical flow between consecutive frames and motion-magnitude weighting.

Flow is estimated with Horn-Schunck (Horn & Schunck, "Determining Optical
Flow", 1981): brightness constancy plus a smoothness term, solved by
fixed-point Jacobi iteration.  estimate_flow takes stacks of frames with
any leading pair axes, so all pairs of a sequence go through one call.
It walks the pairs in chunks of FLOW_CHUNK_PIXELS pixels to bound its
working set; each pair's result is bit-identical to solving that pair
alone.  The solver iterates in float32: each chunk of frames is cast as it
is solved, and frames that are not finite in float32, or whose sums or
squared gradients overflow it, are rejected.  The flow comes back as the
float64 array pair (ox, oy), so everything downstream stays float64.  The
magnitude is the array g = ox^2 + oy^2, normalized per frame pair by its
maximum so it can weight motion-template accumulation.  Magnitudes are
checked once, where weights are made from them: normalize_magnitude, which
pipeline._flow_weights calls on each pair or on the whole sequence, rejects
NaN, infinite and negative values, so every weight lies in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

DEFAULT_ITERATIONS = 100
DEFAULT_SMOOTHNESS = 0.02

# Pixels per batch of frame pairs solved together.  The Jacobi working
# set is fifteen float32 buffers of this size, about 1 MB, so it stays
# within a per-core L2 cache and peak memory stays flat however long the
# sequence.
FLOW_CHUNK_PIXELS = 1 << 14

# Horn-Schunck neighborhood average: 8-connected, corners at half the
# weight of edge neighbors.  float32, like every solver operand: a float64
# scalar would promote a whole step to float64.
_AVG_WEIGHTS = np.array(
    (
        (1 / 12, 1 / 6, 1 / 12),
        (1 / 6, 0.0, 1 / 6),
        (1 / 12, 1 / 6, 1 / 12),
    ),
    dtype=np.float32,
)
# (weight, dy, dx) of each nonzero weight, in row-major order.
_AVG_TERMS = tuple(
    (weight, dy, dx)
    for dy, row in enumerate(_AVG_WEIGHTS)
    for dx, weight in enumerate(row)
    if weight
)


def _refresh_border(padded: np.ndarray) -> None:
    """Rewrite the one-pixel frame of (..., h+2, w+2) as an edge pad of its interior."""
    padded[..., 0, 1:-1] = padded[..., 1, 1:-1]
    padded[..., -1, 1:-1] = padded[..., -2, 1:-1]
    padded[..., :, 0] = padded[..., :, 1]
    padded[..., :, -1] = padded[..., :, -2]


def _neighbor_average(flat, width, scaled, out):
    """Weighted 8-neighbor mean over a flattened edge-padded stack.

    flat is an (..., h+2, w+2) stack raveled, width is w+2.  Neighbor
    (dy, dx) of the output at flat index width+1+q sits at q + dy*width + dx,
    so every term is one contiguous slice of a scaled copy; scaled maps each
    weight to a buffer that receives weight * flat.  The terms are added in
    _AVG_WEIGHTS row-major order starting from 0.0, exactly as a
    per-neighbor multiply-accumulate would.  Interior entries of out are
    exact; border entries get sums that wrap across a row or frame end.
    """
    span = flat.size - 2 * width - 2
    for weight, buf in scaled.items():
        np.multiply(flat, weight, out=buf)
    terms = [scaled[weight][dy * width + dx :][:span] for weight, dy, dx in _AVG_TERMS]
    target = out[width + 1 :][:span]
    np.add(0.0, terms[0], out=target)
    for term in terms[1:]:
        target += term


def _padded_terms(a, b, smoothness):
    """Gradients (2, n, h+2, w+2), temporal derivative and denominator of a
    (n, h, w) stack of pairs, cast to float32, on the edge-padded grid.

    The border entries carry no flow: the gradients are zero and the
    denominator one there.  Only these three arrays outlive the call, so
    the cast frames and their mean stay out of the Jacobi working set.
    ContractError if ft or denom is not finite: ft = b - a is not when a
    frame value is NaN, infinite or beyond float32's range, and denom, which
    holds the squared gradients, is not when they or a + b overflow.
    """
    n, h, w = a.shape
    inner = (..., slice(1, h + 1), slice(1, w + 1))
    mean = np.empty((n, h + 2, w + 2), dtype=np.float32)
    ft = np.zeros_like(mean)
    denom = np.ones_like(mean)
    with np.errstate(over="ignore", invalid="ignore"):
        a = a.astype(np.float32)
        b = b.astype(np.float32)
        np.multiply(0.5, a + b, out=mean[inner])
        _refresh_border(mean)
        fx = 0.5 * (mean[..., 1 : 1 + h, 2:] - mean[..., 1 : 1 + h, :w])
        fy = 0.5 * (mean[..., 2:, 1 : 1 + w] - mean[..., :h, 1 : 1 + w])
        ft[inner] = b - a
        denom[inner] = smoothness**2 + fx**2 + fy**2
    if not (np.isfinite(ft).all() and np.isfinite(denom).all()):
        raise ContractError(
            "flow frames must be finite and within float32 range, and must not "
            "overflow it in their sums or squared gradients"
        )
    grad = np.zeros((2,) + mean.shape, dtype=np.float32)
    grad[0][inner] = fx
    grad[1][inner] = fy
    return grad, ft, denom


def _horn_schunck(a, b, iterations, smoothness, ox, oy) -> None:
    """Jacobi iterations on a (n, h, w) stack of pairs, written to ox and oy.

    smoothness is float32, and so is every buffer: fifteen of the padded
    (n, h+2, w+2) grid, with u and v stacked on a leading axis, so each
    step is a few whole-array ufuncs.  The zero-flow border keeps the
    wrapped border sums of _neighbor_average finite, and the border of
    (u, v) is rewritten from the interior before every use, so no pair's
    interior reads another's.
    """
    n, h, w = a.shape
    grad, ft, denom = _padded_terms(a, b, smoothness)
    uv = np.zeros_like(grad)
    avg = np.zeros_like(grad)
    prod = np.empty_like(grad)
    shared = np.empty_like(ft)
    flat = uv.reshape(-1)
    # One buffer per distinct weight, each allocated once.
    scaled = {weight: np.empty_like(flat) for weight in {t[0] for t in _AVG_TERMS}}
    for _ in range(iterations):
        _refresh_border(uv)
        _neighbor_average(flat, w + 2, scaled, avg.reshape(-1))
        np.multiply(grad, avg, out=prod)
        np.add(prod[0], prod[1], out=shared)
        shared += ft
        shared /= denom
        np.multiply(grad, shared, out=prod)
        np.subtract(avg, prod, out=uv)
    ox[...] = uv[0, :, 1 : h + 1, 1 : w + 1]
    oy[...] = uv[1, :, 1 : h + 1, 1 : w + 1]


def smoothness_in_range(smoothness: float) -> bool:
    """Whether a Horn-Schunck smoothness is > 0 with a float32 square that
    is finite and nonzero, as the update needs (estimate_flow's rule, which
    PipelineConfig applies to flow_smoothness when it is made)."""
    with np.errstate(over="ignore", under="ignore"):
        square = np.float32(smoothness) ** 2
    return bool(smoothness > 0 and 0 < square < np.inf)


def estimate_flow(
    a: np.ndarray,
    b: np.ndarray,
    iterations: int = DEFAULT_ITERATIONS,
    smoothness: float = DEFAULT_SMOOTHNESS,
) -> tuple[np.ndarray, np.ndarray]:
    """Horn-Schunck flow from frame a to frame b, for one pair or a stack.

    Args:
        a, b: scalar frames of identical shape (..., h, w), h and w at
            least 2.  Leading axes index independent frame pairs, so a
            sequence's flows come from one call on (frames[:-1], frames[1:]).
        iterations: fixed Jacobi iteration count, at least 0; output is
            deterministic given this and the regularizer.
        smoothness: regularization weight, > 0; it enters the update as
            its square, which must be finite and nonzero in float32.

    Returns:
        The pair (ox, oy) of per-pixel displacements in pixels/frame, ox
        horizontal and oy vertical, each a float64 array shaped like a.
        Each pair's flow is bit-identical to a call on that pair alone.
        Pairs are solved in float32, in chunks of at most FLOW_CHUNK_PIXELS
        pixels (one pair when a frame is larger), and returned as float64.

    Raises:
        ContractError: on a negative iteration count or a smoothness out of
            range, on mismatched or smaller than 2x2 frames, on a frame
            value that is NaN, infinite or beyond float32's range, or on
            frames whose sum, difference or squared gradients overflow
            float32.
    """
    if iterations < 0:
        raise ContractError(f"iterations must be >= 0, got {iterations}")
    if not smoothness_in_range(smoothness):
        raise ContractError(
            f"smoothness must be finite and > 0, and so must its float32 square, got {smoothness}"
        )
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if a.ndim < 2 or min(a.shape[-2:]) < 2:
        raise ContractError(f"frames must be at least 2x2, got {a.shape}")
    h, w = a.shape[-2:]
    a3 = a.reshape(-1, h, w)
    b3 = b.reshape(-1, h, w)
    ox = np.empty_like(a3)
    oy = np.empty_like(a3)
    smoothness = np.float32(smoothness)
    step = max(1, FLOW_CHUNK_PIXELS // (h * w))
    for start in range(0, len(a3), step):
        chunk = slice(start, start + step)
        _horn_schunck(a3[chunk], b3[chunk], iterations, smoothness, ox[chunk], oy[chunk])
    return ox.reshape(a.shape), oy.reshape(a.shape)


def flow_magnitude(flow: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Squared flow magnitude g = ox^2 + oy^2 (no square root) of flow = (ox, oy)."""
    ox, oy = flow
    return ox**2 + oy**2


def normalize_magnitude(g: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """g divided by its maximum, so in [0, 1]; a map whose maximum is below
    eps, all-zero included, gives all zeros.  ContractError if g holds a
    NaN, an infinity or a negative value."""
    # Written so that NaN, which fails every comparison, fails too.
    if not ((g >= 0).all() and np.isfinite(g).all()):
        raise ContractError("magnitude values must be finite and non-negative")
    peak = float(np.max(g)) if g.size else 0.0
    if peak < eps:
        return np.zeros_like(g)
    return g / peak
