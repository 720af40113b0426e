"""Forward-only 3D convolutional feature extraction, in float32.

Tensors are dense float32 arrays laid out (channels, depth, height,
width).  Convolution is valid (no padding) unless a layer declares an
explicit zero padding; every conv output passes through tanh, so values
are strictly inside (-1, 1).  Every network ends at its one
fully-connected layer, which reads the last pool's output flat; features
are its activations, upcast (exactly) to float64 for the learning stage.

The canonical deep stack follows the eight-conv/five-pool C3D shape
(3x3x3 kernels, stride 1, first pool 1x2x2, remaining pools 2x2x2) and
ends at fc6.  Those conv layers carry 1x1x1 zero padding:
without it the temporal axis of a 16-frame clip collapses below kernel
size before the fifth conv layer, so the published layer list is only
realizable with same-padding.

Weights and biases are float32, and every layer computes in float32 from
them, as C3D's reference weights and Caffe forward pass do.  No weight
array a builder makes is stored: each is a `DrawnMatrix`, which draws it
again, with the same bits, when it is read, a dense layer one block of
weight rows at a time (see `_dense_rows`), a conv layer whole.  So a
network stores only its biases, 26.8 KiB for a 112x112 c3d network, and
a plan, which keeps every network it builds, holds no weights.
`draw_once` draws the arrays of at most DENSE_BLOCK_ELEMENTS values into
a copy of the network, which a caller running several clips reads
instead: a desk network is then drawn once per stream's clips, and a c3d
pass still draws conv3a to conv5b and fc6 on each read, holding at most
one drawn conv layer (27 MiB) at a time.

Each convolution is one BLAS GEMM per chunk of output positions: the
weights, as a (maps, input maps * kernel volume) matrix, times a column
buffer that holds every input value each output position of the chunk
reads.  The buffer is bounded by CONV_COLUMN_ELEMENTS (8 MiB of float32)
and reused across chunks, so memory beyond the output stays within that
bound plus one GEMM block; where chunking could change a bit of the
result the layer runs as one chunk (see `_conv_chunk`).
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import ContractError

Triple = tuple[int, int, int]


def _check_triple(name: str, what: str, values: Triple, low: int) -> None:
    if len(values) != 3 or any(v < low for v in values):
        raise ContractError(f"{name}: {what} must be three ints >= {low}, got {values}")


class DrawnMatrix:
    """float32 array, (rows, ...), of uniform draws in [-s, s) that is
    drawn again each time it is read, instead of being stored; _draw
    makes every weight array a DrawnMatrix.

    It keeps a PCG64 generator's state at the array's first draw and
    advances the generator past the array, as drawing it would.  A row
    slice [i:i+k] restores that state, advances it past the i * (size /
    rows) doubles of the rows before, and draws as _uniform_f32 does, so
    every element has the bits it would have had stored.  It reads only row
    slices; any other key raises ContractError.  It holds no array:
    np.asarray gives the whole array.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, rng: np.random.Generator, s: float, shape: tuple[int, ...]):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise ContractError(
                f"a drawn matrix needs a PCG64 generator, got {type(rng.bit_generator).__name__}"
            )
        self.shape = shape
        self.ndim = len(shape)
        self.size = int(np.prod(shape))
        self._row = int(np.prod(shape[1:]))
        self._s = s
        self._state = rng.bit_generator.state
        rng.bit_generator.advance(self.size)

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice):
            raise ContractError(f"a drawn matrix reads a slice of rows, got {type(rows).__name__}")
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ContractError(f"a drawn matrix reads contiguous rows, got step {step}")
        shape = (max(stop - start, 0), *self.shape[1:])
        bits = np.random.PCG64()
        bits.state = self._state
        bits.advance(start * self._row)
        return _uniform_f32(np.random.Generator(bits), self._s, shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:].astype(dtype or self.dtype, copy=False)


@dataclass(frozen=True)
class Conv3d:
    """3D convolution layer: weights (out, in, r, p, q), tanh activation.

    weights is a DrawnMatrix as the builders make it (see _draw), which
    conv3d_forward draws whole once per call, or an array, as draw_once
    makes it for a layer of at most DENSE_BLOCK_ELEMENTS values.
    """

    name: str
    weights: np.ndarray | DrawnMatrix = field(repr=False)
    bias: np.ndarray = field(repr=False)
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)

    def __post_init__(self) -> None:
        if self.weights.ndim != 5:
            raise ContractError(
                f"{self.name}: weights must be (out, in, r, p, q), "
                f"got shape {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise ContractError(
                f"{self.name}: bias shape {self.bias.shape} does not match "
                f"{self.weights.shape[0]} output maps"
            )
        _check_triple(self.name, "stride", self.stride, 1)
        _check_triple(self.name, "padding", self.padding, 0)


@dataclass(frozen=True)
class MaxPool3d:
    name: str
    kernel: Triple
    stride: Triple

    def __post_init__(self) -> None:
        _check_triple(self.name, "kernel", self.kernel, 1)
        _check_triple(self.name, "stride", self.stride, 1)


@dataclass(frozen=True)
class Dense:
    """Fully-connected layer with tanh activation.  It reads its input flat,
    in C order, as Caffe's InnerProduct does (C3D's fc6 follows pool5), so
    any input with as many elements as weights has columns fits.

    weights is a DrawnMatrix as the builders make it (see _draw), which
    dense_forward reads only by row blocks, or a float32 or float64 array,
    as draw_once makes it for a layer of at most DENSE_BLOCK_ELEMENTS
    values.
    """

    name: str
    weights: np.ndarray | DrawnMatrix = field(repr=False)  # (out, in)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ContractError(
                f"{self.name}: weights must be (out, in) with matching bias, "
                f"got {self.weights.shape} and {self.bias.shape}"
            )


Layer = Union[Conv3d, MaxPool3d, Dense]


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer stack with its declared input shape (c, d, h, w)."""

    name: str
    input_shape: tuple[int, int, int, int]
    layers: tuple[Layer, ...]


# Elements of conv3d_forward's column buffer, 8 MiB of float32, so that
# c3d's deep convs run GEMMs of 98 to 280 columns, which OpenBLAS runs
# faster than narrower ones.  A chunk always holds at least one output row.
CONV_COLUMN_ELEMENTS = 2**21
# The GEMM size above which a chunked conv gives the same bits as the
# whole-output one; see _conv_chunk.
CONV_GEMM_MIN_MACS = 2**20


def _conv_chunk(out_maps: int, taps: int, depth: int, height: int, width: int) -> tuple[int, int]:
    """(frames, rows) of output per conv3d_forward chunk, where `taps` =
    input maps * kernel volume is the column-buffer values per output
    position.

    A chunk is as many whole output frames as fit the column buffer, or,
    when one frame does not fit, a band of that many output rows.
    Chunking changes only the column count of the GEMM, and BLAS does not
    promise a column the same bits whatever that count is.  With OpenBLAS
    0.3.31's sgemm (measured on its SkylakeX kernels with 1 to 4 threads,
    2 to 512 output maps, 1 to 13,824 taps, any column count and offset) a
    column comes out the same when the call is above the small-matrix
    cut-off of 1e6 multiply-adds (2**20 here, for margin); below it the
    small-matrix kernel sums in another order.  One output map is a
    matrix-vector product, whose outputs differ with the column count.
    So a layer with one output map, or whose smallest chunk misses the
    bound, runs as one chunk, which is the unchunked computation.  The
    rule was checked again at the widths of CONV_COLUMN_ELEMENTS = 2**21
    under 1 and 2 threads: every conv of a 112x112 c3d pass, from conv1's
    25,088-column chunks to conv4b's 140, gives the bytes of one chunk.
    """
    frame = height * width
    if taps * frame <= CONV_COLUMN_ELEMENTS:
        frames, rows = min(depth, CONV_COLUMN_ELEMENTS // (taps * frame)), height
        smallest = (depth % frames or frames) * frame
    else:
        frames, rows = 1, min(height, max(1, CONV_COLUMN_ELEMENTS // (taps * width)))
        smallest = (height % rows or rows) * width
    if out_maps == 1 or out_maps * taps * smallest <= CONV_GEMM_MIN_MACS:
        return depth, height
    return frames, rows


def _valid_taps(first: int, count: int, stride: int, tap: int, pad: int, size: int):
    """(output slice, input slice) along one axis: the outputs first ..
    first + count - 1 whose kernel tap lands inside the unpadded input of
    `size`, relative to first, and the inputs they read; None if none do."""
    lo = max(first, -((tap - pad) // stride))
    hi = min(first + count, (size - 1 - tap + pad) // stride + 1)
    if lo >= hi:
        return None
    start = lo * stride + tap - pad
    return slice(lo - first, hi - first), slice(start, start + (hi - 1 - lo) * stride + 1, stride)


def conv3d_forward(x: np.ndarray, layer: Conv3d) -> np.ndarray:
    """Valid 3D convolution (plus the layer's declared zero padding) with
    tanh, in float32.

    out(j, z, y, x) = tanh(b_j + sum over m, r, p, q of
    w(j, m, r, p, q) * in(m, z*sd + r, y*sh + p, x*sw + q)), indices taken
    in the zero-padded input.

    Each chunk of output positions (see _conv_chunk) is one GEMM: the
    (j, m*r*p*q) weights times a column buffer that holds, for every
    output position of the chunk, the m*r*p*q input values it reads (zero
    where a tap falls in the padding).  Then the bias is added and tanh
    written into the output.  The buffer and the GEMM block are reused
    across chunks, so memory beyond the output is those two, and the
    weights while the call runs if they are a DrawnMatrix.
    """
    j_maps, od, oh, ow = _layer_output_shape(x.shape, layer)
    m_maps, kr, kp, kq = layer.weights.shape[1:]
    taps = m_maps * kr * kp * kq
    _, depth, height, width = x.shape
    x = np.asarray(x, dtype=np.float32)
    weights = np.asarray(layer.weights, dtype=np.float32).reshape(j_maps, taps)
    bias = np.asarray(layer.bias, dtype=np.float32)[:, None]
    sr, sh, sw = layer.stride
    pr, pp, pq = layer.padding
    frames, rows = _conv_chunk(j_maps, taps, od, oh, ow)
    col_buf = np.empty(taps * frames * rows * ow, dtype=np.float32)
    gemm_buf = np.empty(j_maps * frames * rows * ow, dtype=np.float32)
    out = np.empty((j_maps, od, oh, ow), dtype=np.float32)
    along_x = [_valid_taps(0, ow, sw, q, pq, width) for q in range(kq)]
    for z0 in range(0, od, frames):
        k = min(frames, od - z0)
        along_z = [_valid_taps(z0, k, sr, r, pr, depth) for r in range(kr)]
        for y0 in range(0, oh, rows):
            n = min(rows, oh - y0)
            along_y = [_valid_taps(y0, n, sh, p, pp, height) for p in range(kp)]
            cols = col_buf[: taps * k * n * ow].reshape(m_maps, kr, kp, kq, k, n, ow)
            if pr or pp or pq:
                cols.fill(0.0)
            for (r, zs), (p, ys), (q, xs) in itertools.product(
                enumerate(along_z), enumerate(along_y), enumerate(along_x)
            ):
                if zs and ys and xs:
                    cols[:, r, p, q, zs[0], ys[0], xs[0]] = x[:, zs[1], ys[1], xs[1]]
            gemm = gemm_buf[: j_maps * k * n * ow].reshape(j_maps, k * n * ow)
            np.dot(weights, cols.reshape(taps, k * n * ow), out=gemm)
            gemm += bias
            np.tanh(gemm.reshape(j_maps, k, n, ow), out=out[:, z0 : z0 + k, y0 : y0 + n])
    return out


def maxpool3d(x: np.ndarray, kernel: Triple, stride: Triple) -> np.ndarray:
    """Per-channel windowed maximum, in the input's dtype (float32 in a network)."""
    c, od, oh, ow = _layer_output_shape(x.shape, MaxPool3d("pool", kernel, stride))
    kr, kp, kq = kernel
    sr, sh, sw = stride
    windows = (
        x[
            :,
            r : r + sr * (od - 1) + 1 : sr,
            p : p + sh * (oh - 1) + 1 : sh,
            q : q + sw * (ow - 1) + 1 : sw,
        ]
        for r in range(kr)
        for p in range(kp)
        for q in range(kq)
    )
    # The first window is the start: max(-inf, v) is v, -0.0 and NaN
    # included, so a -inf start would add nothing.
    out = next(windows).copy()
    for sub in windows:
        np.maximum(out, sub, out=out)
    return out


# Elements of a dense_forward weight block, 2 MiB of float32.  draw_once
# draws a weight array of at most this many values once for all of a
# stream's clips; a larger one is drawn again on each read: a dense layer
# one block at a time, a conv layer whole, once per call.
DENSE_BLOCK_ELEMENTS = 2**19


def _dense_rows(out_units: int, in_units: int) -> int:
    """Weight rows per dense_forward block.

    Blocking changes only the row count of each matrix-vector product, and
    BLAS does not promise an output the same bits whatever that count is.
    With OpenBLAS 0.3.31's sgemv (measured with 1 to 4 threads) every
    output comes out the same when the output count is a multiple of 8 and
    every block, tail included, is a whole number of 8-row tiles; output
    counts such as 100 or 250 change bits under 2 or more threads.  So a
    layer whose output count is no multiple of 8 runs as one block, which
    is the unblocked computation.
    """
    if out_units % 8:
        return out_units
    return max(8, DENSE_BLOCK_ELEMENTS // max(in_units, 1) // 8 * 8)


def dense_forward(x: np.ndarray, layer: Dense) -> np.ndarray:
    """tanh(W x + b) in float32 with x read flat, one block of weight rows
    at a time.

    Each block (see _dense_rows) is multiplied with x into its slice of the
    output, so a DrawnMatrix is drawn one block at a time.
    """
    out_units, in_units = layer.weights.shape
    rows = _dense_rows(out_units, in_units)
    x = np.asarray(x, dtype=np.float32).reshape(-1)
    y = np.empty(out_units, dtype=np.float32)
    for i in range(0, out_units, rows):
        block = np.asarray(layer.weights[i : i + rows], dtype=np.float32)
        np.dot(block, x, out=y[i : i + rows])
    y += np.asarray(layer.bias, dtype=np.float32)
    return np.tanh(y, out=y)


def _layer_output_shape(shape: tuple[int, ...], layer: Layer) -> tuple[int, ...]:
    """A layer's output shape for an input shape; raises if the input does not fit."""
    if isinstance(layer, (Conv3d, MaxPool3d)):
        if len(shape) != 4:
            raise ContractError(f"{layer.name}: input must be 4D, got shape {shape}")
        c, *size = shape
        if isinstance(layer, Conv3d):
            maps, m, *kernel = layer.weights.shape
            padding = layer.padding
            if c != m:
                raise ContractError(
                    f"{layer.name}: input has {c} channels, layer expects {m}"
                )
        else:
            maps, kernel, padding = c, layer.kernel, (0, 0, 0)
        dims = [(n + 2 * p - k) // s + 1 for n, k, s, p in zip(size, kernel, layer.stride, padding)]
        if min(dims) < 1:
            raise ContractError(
                f"{layer.name}: input {'x'.join(map(str, size))} too small for "
                f"kernel {'x'.join(map(str, kernel))}"
            )
        return (maps, *dims)
    if isinstance(layer, Dense):
        out, inp = layer.weights.shape
        if np.prod(shape) != inp:
            raise ContractError(
                f"{layer.name}: input shape {shape} does not have the {inp} elements it reads"
            )
        return (out,)
    raise ContractError(f"unknown layer type {type(layer).__name__}")


def infer_shapes(net: NetworkSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Symbolic per-layer output shapes, starting from the declared input."""
    shape: tuple[int, ...] = net.input_shape
    out = [("input", shape)]
    for layer in net.layers:
        shape = _layer_output_shape(shape, layer)
        out.append((layer.name, shape))
    return out


def run_layers(x: np.ndarray, net: NetworkSpec) -> Iterator[tuple[str, np.ndarray]]:
    """Check every layer against its input, then run the stack lazily.

    The checks raise before any layer runs; the returned iterator yields
    (layer name, activation) as each layer is computed, so a caller that
    keeps only the latest activation holds one at a time.
    """
    if x.shape != net.input_shape:
        raise ContractError(
            f"input: clip tensor shape {x.shape} does not match network "
            f"input {net.input_shape}"
        )
    infer_shapes(net)
    return _forward(x, net.layers)


def _forward(x: np.ndarray, layers: Sequence[Layer]) -> Iterator[tuple[str, np.ndarray]]:
    for layer in layers:
        if isinstance(layer, Conv3d):
            x = conv3d_forward(x, layer)
        elif isinstance(layer, MaxPool3d):
            x = maxpool3d(x, layer.kernel, layer.stride)
        else:
            x = dense_forward(x, layer)
        yield layer.name, x


def draw_once(net: NetworkSpec) -> NetworkSpec:
    """net with each weight DrawnMatrix of at most DENSE_BLOCK_ELEMENTS
    values drawn into a float32 array, so that passes over several clips
    draw it once; the larger ones stay drawn on each read.  The features
    keep their bytes, since a drawn array has the bits of its DrawnMatrix."""
    return replace(
        net,
        layers=tuple(
            replace(l, weights=np.asarray(l.weights))
            if isinstance(getattr(l, "weights", None), DrawnMatrix)
            and l.weights.size <= DENSE_BLOCK_ELEMENTS
            else l
            for l in net.layers
        ),
    )


def clip_to_tensor(clip: np.ndarray) -> np.ndarray:
    """Clip frames (lam, h, w, 3) uint8 -> float32 network tensor (3, lam, h, w) in [0, 1]."""
    if clip.ndim != 4 or clip.shape[3] != 3:
        raise ContractError(f"clip must be (lam, h, w, 3), got {clip.shape}")
    x = clip.transpose(3, 0, 1, 2).astype(np.float32, order="C")
    x /= np.float32(255.0)
    return x


def extract_features(clip: np.ndarray, net: NetworkSpec) -> np.ndarray:
    """Run the whole stack on a clip and return its last, dense layer's
    activations, upcast (exactly) to float64."""
    if not net.layers or not isinstance(net.layers[-1], Dense):
        raise ContractError(f"network {net.name} does not end at a fully-connected layer")
    for _, acts in run_layers(clip_to_tensor(clip), net):
        pass
    return acts.astype(np.float64)


def stream_rng(seed: int, stream_id: str) -> np.random.Generator:
    """Deterministic per-stream generator, independent of enumeration order."""
    return np.random.default_rng([seed, zlib.crc32(stream_id.encode())])


# Conv groups of the canonical stack, as output maps per conv; a group of
# several convs names them a, b, ... (conv3a, conv3b).
_C3D_GROUPS = ((64,), (128,), (256, 256), (512, 512), (512, 512))


# Elements per _draw chunk: a float64 buffer that stays in cache.
DRAW_CHUNK_ELEMENTS = 2**15


def _uniform_f32(rng: np.random.Generator, s: float, shape: tuple[int, ...]) -> np.ndarray:
    """float32 array of uniform draws in [-s, s).

    The bits equal rng.uniform(-s, s, shape).astype(float32): uniform is
    -s + 2s * u over the same stream of doubles u, computed in float64,
    then rounded to float32 as the sum is written out.  It runs chunk by
    chunk through one float64 buffer.
    """
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, DRAW_CHUNK_ELEMENTS))
    for i in range(0, flat.size, DRAW_CHUNK_ELEMENTS):
        part = buf[: min(DRAW_CHUNK_ELEMENTS, flat.size - i)]
        rng.random(out=part)
        part *= 2 * s
        np.add(part, -s, out=flat[i : i + part.size], casting="same_kind")
    return out


def _draw(
    rng: np.random.Generator, out_dim: int, *in_shape: int
) -> tuple[DrawnMatrix, np.ndarray]:
    """float32 weights (out_dim, *in_shape) then bias, uniform in +-1/sqrt(fan-in).

    The weights are not stored: they are a DrawnMatrix, which skips the
    generator past them, so the bias gets the same draws.
    """
    s = 1.0 / np.sqrt(np.prod(in_shape))
    w = DrawnMatrix(rng, s, (out_dim, *in_shape))
    return w, _uniform_f32(rng, s, (out_dim,))


def _build(
    rng: np.random.Generator,
    name: str,
    clip_shape: tuple[int, int, int],
    groups: Sequence[Sequence[int]],
    fc_name: str,
    fc_units: int,
) -> NetworkSpec:
    """Padded 3x3x3 conv groups, each closed by a pool (1x2x2 after the
    first, 2x2x2 after the rest), then one dense layer that reads the last
    pool's output flat, drawn from rng in layer order (see _draw)."""
    input_shape = (3, *clip_shape)  # clip_to_tensor yields three channels
    layers: list[Layer] = []
    channels = input_shape[0]
    for g, maps in enumerate(groups, start=1):
        for i, out_maps in enumerate(maps):
            suffix = chr(ord("a") + i) if len(maps) > 1 else ""
            w, b = _draw(rng, out_maps, channels, 3, 3, 3)
            layers.append(Conv3d(f"conv{g}{suffix}", w, b, padding=(1, 1, 1)))
            channels = out_maps
        pool = (1, 2, 2) if g == 1 else (2, 2, 2)
        layers.append(MaxPool3d(f"pool{g}", pool, pool))
    net = NetworkSpec(name, input_shape, tuple(layers))
    _, pooled = infer_shapes(net)[-1]
    w, b = _draw(rng, fc_units, int(np.prod(pooled)))
    return replace(net, layers=net.layers + (Dense(fc_name, w, b),))


def c3d_network(
    rng: np.random.Generator,
    name: str = "c3d",
    clip_len: int = 16,
    height: int = 112,
    width: int = 112,
    fc_units: int = 4096,
) -> NetworkSpec:
    """The canonical eight-conv/five-pool stack, ending at fc6."""
    return _build(rng, name, (clip_len, height, width), _C3D_GROUPS, "fc6", fc_units)


def desk_network(
    rng: np.random.Generator,
    name: str = "desk",
    clip_len: int = 16,
    height: int = 32,
    width: int = 32,
    conv_maps: tuple[int, int] = (8, 16),
    fc_units: int = 64,
) -> NetworkSpec:
    """Small two-conv/two-pool stack for synthetic-data runs."""
    return _build(rng, name, (clip_len, height, width), [(m,) for m in conv_maps], "fc", fc_units)

