"""Forward-only 3D convolutional feature extraction.

Tensors are dense float64 arrays laid out (channels, depth, height,
width).  Convolution is valid (no padding) unless a layer declares an
explicit zero padding; every conv output passes through tanh, so values
are strictly inside (-1, 1).  Every network ends at its one
fully-connected layer, and features are that layer's activations.

The canonical deep stack follows the eight-conv/five-pool C3D shape
(3x3x3 kernels, stride 1, first pool 1x2x2, remaining pools 2x2x2) and
ends at fc6.  Those conv layers carry 1x1x1 zero padding:
without it the temporal axis of a 16-frame clip collapses below kernel
size before the fifth conv layer, so the published layer list is only
realizable with same-padding.

Each convolution is one BLAS GEMM per kernel offset, added in a fixed
order.  It runs over chunks of output depth with three scratch buffers
reused across chunks and offsets, so memory beyond the output stays
cache-sized; where chunking could change a bit of the result it runs as
one chunk (see `_chunk_frames`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence, Union

import numpy as np

from .dmm import Clip
from .errors import ContractError

Triple = tuple[int, int, int]


def _check_triple(name: str, what: str, values: Triple, low: int) -> None:
    if len(values) != 3 or any(v < low for v in values):
        raise ContractError(f"{name}: {what} must be three ints >= {low}, got {values}")


@dataclass(frozen=True)
class Conv3d:
    """3D convolution layer: weights (out, in, r, p, q), tanh activation."""

    name: str
    weights: np.ndarray = field(repr=False)
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
class Flatten:
    name: str


@dataclass(frozen=True)
class Dense:
    """Fully-connected layer with tanh activation."""

    name: str
    weights: np.ndarray = field(repr=False)  # (out, in)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ContractError(
                f"{self.name}: weights must be (out, in) with matching bias, "
                f"got {self.weights.shape} and {self.bias.shape}"
            )


Layer = Union[Conv3d, MaxPool3d, Flatten, Dense]


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer stack with its declared input shape (c, d, h, w)."""

    name: str
    input_shape: tuple[int, int, int, int]
    layers: tuple[Layer, ...]

    @property
    def nbytes(self) -> int:
        """Bytes of every weight and bias array."""
        return sum(
            l.weights.nbytes + l.bias.nbytes for l in self.layers if isinstance(l, (Conv3d, Dense))
        )


# Elements per conv3d_forward scratch buffer (window copy, GEMM result,
# accumulator); a chunk always holds at least one output frame.
CONV_CHUNK_ELEMENTS = 2**19
# When a chunked GEMM gives the same bits as the whole-output one; see
# _chunk_frames.
CONV_GEMM_TILE = 16
CONV_GEMM_MIN_MACS = 2**20


def _chunk_frames(out_maps: int, in_maps: int, depth: int, frame: int) -> int:
    """Output frames per conv3d_forward chunk, for `frame` = height * width.

    Chunking changes only the column count of each offset's GEMM, and BLAS
    does not promise a column the same bits whatever that count is.  With
    OpenBLAS (measured on its SkylakeX kernels) a column comes out the same
    when every call covers whole 16-column tiles and is above the
    small-matrix cut-off of 1e6 multiply-adds (2**20 here, for margin);
    narrower tails and the small-matrix kernel sum in another order.
    Layers that miss either bound run as one chunk, which is the
    unchunked computation.
    """
    if frame % CONV_GEMM_TILE or out_maps * in_maps * frame <= CONV_GEMM_MIN_MACS:
        return depth
    return min(depth, max(1, CONV_CHUNK_ELEMENTS // (max(out_maps, in_maps) * frame)))


def conv3d_forward(x: np.ndarray, layer: Conv3d) -> np.ndarray:
    """Valid 3D convolution (plus the layer's declared zero padding) with tanh.

    out(j, z, y, x) = tanh(b_j + sum over m, r, p, q of
    w(j, m, r, p, q) * in(m, z*sd + r, y*sh + p, x*sw + q)), indices taken
    in the zero-padded input.

    The arithmetic is fixed: per kernel offset (r, p, q), in that order,
    one GEMM of w(:, :, r, p, q) with the input window is added into an
    accumulator that starts at 0.0, then the bias is added and tanh taken.
    The work runs over chunks of output depth (see _chunk_frames) so that
    its buffers stay cache-sized instead of output-sized.
    """
    j_maps, od, oh, ow = _layer_output_shape(x.shape, layer)
    m_maps, kr, kp, kq = layer.weights.shape[1:]
    pr, pp, pq = layer.padding
    if pr or pp or pq:
        x = np.pad(x, ((0, 0), (pr, pr), (pp, pp), (pq, pq)))
    sr, sh, sw = layer.stride
    n = oh * ow
    frames = _chunk_frames(j_maps, m_maps, od, n)
    # Three scratch buffers serve every chunk and offset; per-chunk views are
    # contiguous prefixes, since np.dot(out=) needs a C-contiguous target.
    window_buf = np.empty(m_maps * frames * n)
    gemm_buf = np.empty(j_maps * frames * n)
    acc_buf = np.empty(j_maps * frames * n)
    # np.dot copies each strided (j, m) weight matrix before its GEMM; when
    # several chunks would repeat that copy, one contiguous copy up front
    # gives the same bits.  A single output map is a vector that BLAS reads
    # in place, stride and all, so it always stays a view.
    weights = layer.weights.transpose(2, 3, 4, 0, 1)
    if j_maps > 1 and frames < od:
        weights = np.ascontiguousarray(weights)
    bias = layer.bias[:, None]
    out = np.empty((j_maps, od, oh, ow))
    for z0 in range(0, od, frames):
        k = min(frames, od - z0)
        window = window_buf[: m_maps * k * n].reshape(m_maps, k, oh, ow)
        gemm = gemm_buf[: j_maps * k * n].reshape(j_maps, k * n)
        acc = acc_buf[: j_maps * k * n].reshape(j_maps, k * n)
        acc.fill(0.0)
        z = z0 * sr
        for r in range(kr):
            for p in range(kp):
                for q in range(kq):
                    np.copyto(
                        window,
                        x[
                            :,
                            z + r : z + r + sr * (k - 1) + 1 : sr,
                            p : p + sh * (oh - 1) + 1 : sh,
                            q : q + sw * (ow - 1) + 1 : sw,
                        ],
                    )
                    np.dot(
                        weights[r, p, q],
                        window.reshape(m_maps, k * n),
                        out=gemm,
                    )
                    acc += gemm
        acc += bias
        np.tanh(acc, out=acc)
        out[:, z0 : z0 + k] = acc.reshape(j_maps, k, oh, ow)
    return out


def maxpool3d(x: np.ndarray, kernel: Triple, stride: Triple) -> np.ndarray:
    """Per-channel windowed maximum."""
    c, od, oh, ow = _layer_output_shape(x.shape, MaxPool3d("pool", kernel, stride))
    kr, kp, kq = kernel
    sr, sh, sw = stride
    out = np.full((c, od, oh, ow), -np.inf)
    for r in range(kr):
        for p in range(kp):
            for q in range(kq):
                sub = x[
                    :,
                    r : r + sr * (od - 1) + 1 : sr,
                    p : p + sh * (oh - 1) + 1 : sh,
                    q : q + sw * (ow - 1) + 1 : sw,
                ]
                np.maximum(out, sub, out=out)
    return out


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
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(layer, Dense):
        out, inp = layer.weights.shape
        if shape != (inp,):
            raise ContractError(
                f"{layer.name}: input shape {shape} does not match "
                f"expected ({inp},)"
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
        elif isinstance(layer, Flatten):
            x = x.reshape(-1)
        else:
            x = np.tanh(layer.weights @ x + layer.bias)
        yield layer.name, x


def clip_to_tensor(clip: Clip) -> np.ndarray:
    """Clip frames (lam, h, w, 3) uint8 -> network tensor (3, lam, h, w) in [0, 1]."""
    return np.ascontiguousarray(clip.frames.transpose(3, 0, 1, 2)).astype(np.float64) / 255.0


def extract_features(clip: Clip, net: NetworkSpec) -> np.ndarray:
    """Run the whole stack on a clip and return its last, dense layer's activations."""
    if not net.layers or not isinstance(net.layers[-1], Dense):
        raise ContractError(f"network {net.name} does not end at a fully-connected layer")
    for _, acts in run_layers(clip_to_tensor(clip), net):
        pass
    return acts


def stream_rng(seed: int, stream_id: str) -> np.random.Generator:
    """Deterministic per-stream generator, independent of enumeration order."""
    return np.random.default_rng([seed, zlib.crc32(stream_id.encode())])


# Conv groups of the canonical stack, as output maps per conv; a group of
# several convs names them a, b, ... (conv3a, conv3b).
_C3D_GROUPS = ((64,), (128,), (256, 256), (512, 512), (512, 512))


# Elements per _draw chunk: a float64 and a float32 buffer that stay in cache.
DRAW_CHUNK_ELEMENTS = 2**15


def _uniform_f32(rng: np.random.Generator, s: float, shape: tuple[int, ...]) -> np.ndarray:
    """float64 array of uniform draws in [-s, s), each rounded to float32.

    The bits equal rng.uniform(-s, s, shape).astype(float32).astype(float64):
    uniform is -s + 2s * u over the same stream of doubles u, and the float32
    round trip fixes the weights' bits.  It runs in place, chunk by chunk.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    f32 = np.empty(min(flat.size, DRAW_CHUNK_ELEMENTS), dtype=np.float32)
    for i in range(0, flat.size, DRAW_CHUNK_ELEMENTS):
        part = flat[i : i + DRAW_CHUNK_ELEMENTS]
        rng.random(out=part)
        part *= 2 * s
        part += -s
        rounded = f32[: part.size]
        np.copyto(rounded, part, casting="same_kind")
        np.copyto(part, rounded)
    return out


def _draw(rng: np.random.Generator, out_dim: int, *in_shape: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights (out_dim, *in_shape) then bias, uniform in +-1/sqrt(fan-in)."""
    s = 1.0 / np.sqrt(np.prod(in_shape))
    return _uniform_f32(rng, s, (out_dim, *in_shape)), _uniform_f32(rng, s, (out_dim,))


def _build(
    rng: np.random.Generator,
    name: str,
    input_shape: tuple[int, int, int, int],
    groups: Sequence[Sequence[int]],
    fc_name: str,
    fc_units: int,
) -> NetworkSpec:
    """Padded 3x3x3 conv groups, each closed by a pool (1x2x2 after the
    first, 2x2x2 after the rest), then one dense layer."""
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
    layers.append(Flatten("flatten"))
    net = NetworkSpec(name, input_shape, tuple(layers))
    _, (flat,) = infer_shapes(net)[-1]
    w, b = _draw(rng, fc_units, flat)
    return replace(net, layers=net.layers + (Dense(fc_name, w, b),))


def c3d_network(
    rng: np.random.Generator,
    name: str = "c3d",
    in_channels: int = 3,
    clip_len: int = 16,
    height: int = 112,
    width: int = 112,
    fc_units: int = 4096,
) -> NetworkSpec:
    """The canonical eight-conv/five-pool stack, ending at fc6."""
    shape = (in_channels, clip_len, height, width)
    return _build(rng, name, shape, _C3D_GROUPS, "fc6", fc_units)


def desk_network(
    rng: np.random.Generator,
    name: str = "desk",
    in_channels: int = 3,
    clip_len: int = 16,
    height: int = 32,
    width: int = 32,
    conv_maps: tuple[int, int] = (8, 16),
    fc_units: int = 64,
) -> NetworkSpec:
    """Small two-conv/two-pool stack for synthetic-data runs."""
    shape = (in_channels, clip_len, height, width)
    return _build(rng, name, shape, [(m,) for m in conv_maps], "fc", fc_units)
