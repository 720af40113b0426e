"""Readers and writers for depth containers, PPM images, and image sequences.

Depth sequences use a fixed binary container: a 12-byte header of three
u32 little-endian fields (frameCount, width, height) followed by
frameCount * height * width u32 little-endian depth values in millimeters,
row-major with top-left origin.  A depth value of 0 means "no reading".
A container reads into one DepthSequence, which holds the frames as a
single (n, height, width) float64 array.

Images are binary PPM (P6, maxval 255), which round-trips bit-exactly;
every other magic or maxval is rejected.  A directory of
PPM frames reads into one (n, height, width, 3) uint8 array.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, FormatError, ParseError

_DEPTH_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class DepthSequence:
    """Time-ordered depth frames in millimeters, 0 = no reading."""

    frames: np.ndarray = field(repr=False)  # (n, height, width) float64, >= 0

    def __post_init__(self) -> None:
        if self.frames.ndim != 3:
            raise FormatError(
                f"depth frames must be an (n, height, width) array, "
                f"got shape {self.frames.shape}"
            )
        if not len(self.frames):
            raise EmptyInputError("sequence contains no frames")
        if np.any(self.frames < 0):
            raise FormatError("depth values must be non-negative")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]


def read_depth_bin(path: str | Path) -> DepthSequence:
    """Read a binary depth container.

    Args:
        path: file with the u32le (frameCount, width, height) header
            described in the module docstring.

    Returns:
        DepthSequence with frameCount frames of width x height.

    Raises:
        ParseError: the file is shorter than its header declares.
        FormatError: the header declares a zero dimension, or bytes follow
            the declared payload.
    """
    data = Path(path).read_bytes()
    if len(data) < _DEPTH_HEADER.size:
        raise ParseError(
            f"truncated header: expected {_DEPTH_HEADER.size} bytes, "
            f"got {len(data)}"
        )
    count, width, height = _DEPTH_HEADER.unpack_from(data)
    if count < 1 or width < 1 or height < 1:
        raise FormatError(
            f"invalid dimensions in header: frames={count} "
            f"width={width} height={height}"
        )
    expected = _DEPTH_HEADER.size + count * width * height * 4
    if len(data) < expected:
        raise ParseError(
            f"truncated file: expected {expected} bytes, got {len(data)}"
        )
    if len(data) > expected:
        raise FormatError(
            f"{len(data) - expected} bytes after the declared payload of {expected}"
        )
    raw = np.frombuffer(
        data, dtype="<u4", count=count * width * height, offset=_DEPTH_HEADER.size
    )
    return DepthSequence(raw.reshape(count, height, width).astype(np.float64))


def write_depth_bin(path: str | Path, seq: DepthSequence) -> None:
    """Write a DepthSequence in the binary container format.

    Values must be integral and fit in u32; fractional depths have no
    representation in the container.
    """
    grids = seq.frames
    if np.any(grids != np.floor(grids)) or np.any(grids > 0xFFFFFFFF):
        raise FormatError("depth values must be integers in [0, 2^32)")
    payload = grids.astype("<u4").tobytes()
    header = _DEPTH_HEADER.pack(len(seq), seq.width, seq.height)
    Path(path).write_bytes(header + payload)


def _read_netpbm_tokens(data: bytes, n_tokens: int) -> tuple[list[bytes], int]:
    """Read whitespace-delimited header tokens, honoring '#' comments.

    Returns the tokens and the offset of the first payload byte (one
    whitespace after the last token, per the format).
    """
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < n_tokens:
        if i >= len(data):
            raise ParseError(
                f"truncated header: expected {n_tokens} fields, "
                f"found {len(tokens)}"
            )
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise ParseError("missing whitespace after header")
    return tokens, i + 1


def read_image(path: str | Path) -> np.ndarray:
    """Read a binary PPM (P6) image with maxval 255.

    Returns:
        (h, w, 3) uint8.

    Raises:
        ParseError: a header field that is not ASCII decimal digits, or a
            file shorter than its header declares.
        FormatError: a magic other than P6, or a maxval other than 255.
        Either error's message starts with the file's name.
    """
    path = Path(path)
    try:
        return _parse_ppm(path.read_bytes())
    except (ParseError, FormatError) as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def _parse_ppm(data: bytes) -> np.ndarray:
    if len(data) < 2:
        raise ParseError(f"truncated header: expected magic, got {len(data)} bytes")
    if data[:2] != b"P6":
        raise FormatError(f"unsupported magic {data[:2]!r}; expected P6")
    tokens, offset = _read_netpbm_tokens(data[2:], 3)
    # int() would also take a sign, underscores and non-ASCII digits.
    if not all(t.isdigit() for t in tokens):
        raise ParseError(f"header fields must be decimal digits, got {tokens}")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; expected 255")
    offset += 2
    expected = offset + width * height * 3
    if len(data) < expected:
        raise ParseError(f"truncated payload: expected {expected} bytes, got {len(data)}")
    flat = np.frombuffer(data, dtype=np.uint8, count=width * height * 3, offset=offset)
    return flat.reshape(height, width, 3).copy()


def write_image(grid: np.ndarray, path: str | Path) -> None:
    """Write an (h, w, 3) color grid as PPM (P6, maxval 255).

    Values must be integral and in [0, 255], so the file round-trips
    bit-exactly through read_image.
    """
    arr = np.asarray(grid)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(f"unsupported grid shape {arr.shape}; expected (h, w, 3)")
    if arr.size == 0:
        raise FormatError("empty grid")
    if np.any(arr != np.floor(arr)):
        raise FormatError("grid values must be integral for lossless interchange")
    if np.any(arr < 0) or np.any(arr > 255):
        raise FormatError("color values must lie in [0, 255]")
    h, w = arr.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + arr.astype("u1").tobytes())


def read_rgb_sequence(directory: str | Path) -> np.ndarray:
    """Read every .ppm file in a directory, ordered lexicographically.

    Returns:
        (n, h, w, 3) uint8 frames, one per file.

    Raises:
        EmptyInputError: no .ppm files present.
        FormatError: a file is not a P6 image with maxval 255, or its
            size differs from the first file's.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix == ".ppm")
    if not paths:
        raise EmptyInputError(f"no .ppm files in {directory}")
    frames = []
    for p in paths:
        arr = read_image(p)
        if frames and arr.shape != frames[0].shape:
            raise FormatError(
                f"{p.name} has shape {arr.shape}, {paths[0].name} has {frames[0].shape}"
            )
        frames.append(arr)
    return np.stack(frames)


def read_text(path: str | Path) -> str:
    """Read a UTF-8 text file; bytes that do not decode raise ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
