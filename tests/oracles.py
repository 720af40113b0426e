"""Independent reference implementations used to check the fast paths.

Everything here is written as directly as possible from the defining
formulas: nested loops, no vectorization, no shared code with the
package under test.
"""

import math

import numpy as np


def conv3d_oracle(x, weights, bias, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Direct six-loop valid convolution with tanh, from the value formula.

    out(j, z, y, x) = tanh(b_j + sum over m, r, p, q of
    w(j, m, r, p, q) * in(m, z*sz + r, y*sy + p, x*sx + q)) computed on
    the zero-padded input.
    """
    j_count, m_count, kr, kp, kq = weights.shape
    pd, ph, pw = padding
    padded = np.zeros(
        (
            x.shape[0],
            x.shape[1] + 2 * pd,
            x.shape[2] + 2 * ph,
            x.shape[3] + 2 * pw,
        )
    )
    padded[:, pd : pd + x.shape[1], ph : ph + x.shape[2], pw : pw + x.shape[3]] = x
    sd, sh, sw = stride
    od = (padded.shape[1] - kr) // sd + 1
    oh = (padded.shape[2] - kp) // sh + 1
    ow = (padded.shape[3] - kq) // sw + 1
    out = np.zeros((j_count, od, oh, ow))
    for j in range(j_count):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    acc = bias[j]
                    for m in range(m_count):
                        for r in range(kr):
                            for p in range(kp):
                                for q in range(kq):
                                    acc += (
                                        weights[j, m, r, p, q]
                                        * padded[m, z * sd + r, y * sh + p, xx * sw + q]
                                    )
                    out[j, z, y, xx] = math.tanh(acc)
    return out


def conv3d_shift_oracle(x, weights, bias, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Shift-and-accumulate 3D convolution with tanh, as the package first shipped it.

    One tensordot GEMM per kernel offset over the whole output, added in
    (r, p, q) order into an accumulator that starts at 0.0, then the bias
    and tanh.  It fixes the floating-point summation order, so fast paths
    that keep that order must match it byte for byte.
    """
    _, _, kr, kp, kq = weights.shape
    pd, ph, pw = padding
    x = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    _, d, h, w = x.shape
    sd, sh, sw = stride
    od = (d - kr) // sd + 1
    oh = (h - kp) // sh + 1
    ow = (w - kq) // sw + 1
    acc = np.zeros((weights.shape[0], od, oh, ow))
    for r in range(kr):
        for p in range(kp):
            for q in range(kq):
                sub = x[
                    :,
                    r : r + sd * (od - 1) + 1 : sd,
                    p : p + sh * (oh - 1) + 1 : sh,
                    q : q + sw * (ow - 1) + 1 : sw,
                ]
                acc += np.tensordot(weights[:, :, r, p, q], sub, axes=([1], [0]))
    return np.tanh(acc + bias[:, None, None, None])


def maxpool3d_oracle(x, kernel, stride):
    """Direct windowed max, channel by channel."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    c = x.shape[0]
    od = (x.shape[1] - kd) // sd + 1
    oh = (x.shape[2] - kh) // sh + 1
    ow = (x.shape[3] - kw) // sw + 1
    out = np.empty((c, od, oh, ow))
    for ch in range(c):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    best = -np.inf
                    for r in range(kd):
                        for p in range(kh):
                            for q in range(kw):
                                v = x[ch, z * sd + r, y * sh + p, xx * sw + q]
                                if v > best:
                                    best = v
                    out[ch, z, y, xx] = best
    return out


def occupancy_oracle(depth, bin_mm, bin_count):
    """Direct per-pixel binning into the side and top occupancy maps."""
    h, w = depth.shape
    yz = np.zeros((bin_count, h))
    xz = np.zeros((w, bin_count))
    for v in range(h):
        for u in range(w):
            d = depth[v, u]
            if d <= 0:
                continue
            b = math.floor(d / bin_mm)
            if b < bin_count:
                yz[b, v] = 1.0
                xz[u, b] = 1.0
    return yz, xz


def horn_schunck_oracle(a, b, iterations, smoothness):
    """Horn-Schunck flow for one frame pair, one edge-padded Jacobi step at a time.

    Gradients are central differences of the pair mean, the temporal
    derivative is b - a, and each step replaces (u, v) by the 8-neighbor
    weighted mean (corners 1/12, edges 1/6) minus the brightness-constancy
    correction.  Returns (ox, oy).
    """
    weights = ((1 / 12, 1 / 6, 1 / 12), (1 / 6, 0.0, 1 / 6), (1 / 12, 1 / 6, 1 / 12))
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h, w = a.shape

    def neighbor_average(f):
        padded = np.pad(f, 1, mode="edge")
        out = np.zeros_like(f)
        for dy in range(3):
            for dx in range(3):
                if weights[dy][dx]:
                    out += weights[dy][dx] * padded[dy : dy + h, dx : dx + w]
        return out

    mean = np.pad(0.5 * (a + b), 1, mode="edge")
    fx = 0.5 * (mean[1 : 1 + h, 2:] - mean[1 : 1 + h, :w])
    fy = 0.5 * (mean[2:, 1 : 1 + w] - mean[:h, 1 : 1 + w])
    ft = b - a
    denom = smoothness**2 + fx**2 + fy**2
    u = np.zeros_like(a)
    v = np.zeros_like(a)
    for _ in range(iterations):
        u_avg = neighbor_average(u)
        v_avg = neighbor_average(v)
        shared = (fx * u_avg + fy * v_avg + ft) / denom
        u = u_avg - fx * shared
        v = v_avg - fy * shared
    return u, v


def draw_oracle(rng, out_dim, *in_shape):
    """Weights (out_dim, *in_shape) then bias as the first network builders
    drew them: uniform in +-1/sqrt(fan-in), rounded to float32, one whole
    array per call."""
    s = 1.0 / np.sqrt(np.prod(in_shape))
    w = rng.uniform(-s, s, (out_dim, *in_shape)).astype(np.float32).astype(np.float64)
    b = rng.uniform(-s, s, out_dim).astype(np.float32).astype(np.float64)
    return w, b


def dmm_oracle(grids, t, window, floor=0.0):
    """Unweighted depth motion map, pixel by pixel from the defining sum.

    out(y, x) = sum over i in [t, t + w) of |g[i+1](y, x) - g[i](y, x)|,
    counting a difference only when it is >= floor, added in order of i
    to 0.0.  window "all" means w = len(grids) - 1 - t.
    """
    w = len(grids) - 1 - t if window == "all" else window
    height, width = grids[0].shape
    out = np.zeros((height, width))
    for y in range(height):
        for x in range(width):
            acc = 0.0
            for i in range(t, t + w):
                d = abs(float(grids[i + 1][y, x]) - float(grids[i][y, x]))
                if d >= floor:
                    acc += d
            out[y, x] = acc
    return out
