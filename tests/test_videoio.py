import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import DmmActionError, EmptyInputError, FormatError, ParseError
from dmmaction.dmm import render_grid
from dmmaction.videoio import (
    DepthSequence,
    read_depth_bin,
    read_image,
    read_rgb_sequence,
    write_depth_bin,
    write_image,
)


def depth_container(count, width, height, values):
    header = struct.pack("<III", count, width, height)
    return header + np.asarray(values, dtype="<u4").tobytes()


class TestReadDepthBin:
    def test_minimal_container(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(depth_container(2, 1, 1, [7, 9]))
        seq = read_depth_bin(path)
        assert len(seq.frames) == 2
        assert seq.frames[0][0, 0] == 7.0
        assert seq.frames[1][0, 0] == 9.0

    def test_zero_frame(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(depth_container(1, 2, 2, [0, 0, 0, 0]))
        seq = read_depth_bin(path)
        assert len(seq.frames) == 1
        assert np.all(seq.frames[0] == 0.0)
        assert seq.frames[0].shape == (2, 2)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"\x00" * 11)
        with pytest.raises(ParseError, match="truncated header"):
            read_depth_bin(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(depth_container(2, 2, 2, [1, 2, 3, 4]))  # half missing
        with pytest.raises(ParseError, match="expected 44 bytes, got 28"):
            read_depth_bin(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(struct.pack("<III", 1, 0, 4))
        with pytest.raises(FormatError):
            read_depth_bin(path)

    def test_frame_count_matches_header(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(depth_container(5, 3, 2, list(range(30))))
        assert len(read_depth_bin(path).frames) == 5

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 4, b"junk"])
    def test_bytes_after_payload_rejected(self, tmp_path, extra):
        path = tmp_path / "d.bin"
        path.write_bytes(depth_container(1, 2, 2, [1, 2, 3, 4]) + extra)
        with pytest.raises(FormatError, match=f"{len(extra)} bytes after"):
            read_depth_bin(path)


class TestDepthRoundTrip:
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_write_read_identity(self, tmp_path_factory, count, w, h, seed):
        values = np.random.default_rng(seed).integers(0, 5000, size=(count, h, w))
        frames = values.astype(np.float64)
        path = tmp_path_factory.mktemp("rt") / "d.bin"
        write_depth_bin(path, DepthSequence(frames))
        back = read_depth_bin(path)
        assert np.array_equal(back.frames, frames)


class TestSequenceChecks:
    def test_dimensions_and_length(self):
        seq = DepthSequence(np.zeros((4, 2, 3)))
        assert (len(seq), seq.width, seq.height) == (4, 3, 2)

    def test_negative_depth_rejected(self):
        with pytest.raises(FormatError, match="non-negative"):
            DepthSequence(np.array([[[0.0, -1.0]]]))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3, 1)], ids=["2d", "4d"])
    def test_non_3d_array_rejected(self, shape):
        with pytest.raises(FormatError, match=r"\(n, height, width\) array"):
            DepthSequence(np.zeros(shape))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError, match="no frames"):
            DepthSequence(np.zeros((0, 2, 3)))


def write_ppm(path, pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape[:2]
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + pixels.tobytes())


class TestReadRgbSequence:
    def test_ordered_frames(self, tmp_path):
        write_ppm(tmp_path / "f000.ppm", np.zeros((4, 4, 3)))
        write_ppm(tmp_path / "f001.ppm", np.full((4, 4, 3), 9))
        frames = read_rgb_sequence(tmp_path)
        assert frames.shape == (2, 4, 4, 3)
        assert frames.dtype == np.uint8
        assert np.all(frames[0] == 0)
        assert np.all(frames[1] == 9)

    def test_mixed_dimensions_rejected(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((4, 4, 3)))
        write_ppm(tmp_path / "b.ppm", np.zeros((8, 6, 3)))
        match = r"b.ppm has shape \(8, 6, 3\), a.ppm has \(4, 4, 3\)"
        with pytest.raises(FormatError, match=match):
            read_rgb_sequence(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyInputError):
            read_rgb_sequence(tmp_path)

    def test_truncated_frame_error_names_its_file(self, tmp_path):
        write_ppm(tmp_path / "f0.ppm", np.zeros((1, 2, 3)))
        (tmp_path / "f1.ppm").write_bytes(b"P6\n2 1\n255\n" + bytes(5))
        match = "f1.ppm: truncated payload: expected 17 bytes, got 16"
        with pytest.raises(ParseError, match=match):
            read_rgb_sequence(tmp_path)

    def test_scalar_image_rejected(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 3)))
        (tmp_path / "b.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="b.ppm: unsupported magic b'P5'"):
            read_rgb_sequence(tmp_path)


def _netpbm(path, magic, maxval, payload):
    path.write_bytes(f"{magic}\n2 1\n{maxval}\n".encode() + payload)
    return path


class TestReadImageMaxval:
    @pytest.mark.parametrize("maxval", [0, 1, 70000])
    def test_maxval_outside_range_rejected(self, tmp_path, maxval):
        path = _netpbm(tmp_path / "x.ppm", "P6", maxval, bytes(2 * 2 * 3))
        with pytest.raises(FormatError, match=f"x.ppm: unsupported maxval {maxval}; expected 255"):
            read_image(path)

    def test_sixteen_bit_colour_rejected(self, tmp_path):
        pixels = np.full((1, 2, 3), 300, dtype=">u2")
        path = _netpbm(tmp_path / "x.ppm", "P6", 65535, pixels.tobytes())
        with pytest.raises(FormatError, match="unsupported maxval 65535; expected 255"):
            read_image(path)

    def test_sixteen_bit_colour_frame_rejected_by_sequence(self, tmp_path):
        write_ppm(tmp_path / "f000.ppm", np.zeros((1, 2, 3)))
        _netpbm(tmp_path / "f001.ppm", "P6", 65535, np.full((1, 2, 3), 300, ">u2").tobytes())
        with pytest.raises(FormatError, match="f001.ppm: unsupported maxval 65535"):
            read_rgb_sequence(tmp_path)

    @pytest.mark.parametrize("maxval", [255])
    def test_maxval_bounds_accepted(self, tmp_path, maxval):
        path = _netpbm(tmp_path / "x.ppm", "P6", maxval, bytes(2 * 3))
        assert read_image(path).dtype == np.uint8


class TestReadImageHeaderDigits:
    @pytest.mark.parametrize(
        "header",
        [b"P6 1_0 1 255\n", b"P6 +2 1 255\n", b"P6 2 -1 255\n", b"P6 2 1 0x1\n",
         b"P6 \xd9\xa2 1 255\n", b"P6 2 1 2.5e2\n"],
    )
    def test_non_digit_field_rejected(self, tmp_path, header):
        path = tmp_path / "x.ppm"
        path.write_bytes(header + bytes(30))
        with pytest.raises(ParseError, match="decimal digits"):
            read_image(path)

    def test_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6 002 01 0255\n" + bytes(range(6)))
        assert read_image(path).tolist() == [[[0, 1, 2], [3, 4, 5]]]


def _parses_or_raises_typed(reader, path, data):
    path.write_bytes(data)
    try:
        reader(path)
    except DmmActionError:
        pass


def _corruptions(valid: bytes):
    """Arbitrary bytes, or a valid file with one byte replaced, dropped or added."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 255), st.sampled_from("sdi"))

    def apply(e):
        at, byte, kind = e
        if kind == "s" and at < len(valid):
            return valid[:at] + bytes([byte]) + valid[at + 1 :]
        if kind == "d":
            return valid[:at] + valid[at + 1 :]
        return valid[:at] + bytes([byte]) + valid[at:]

    return st.one_of(st.binary(max_size=64), edit.map(apply))


_VALID_DEPTH = depth_container(2, 3, 2, list(range(12)))
_VALID_PPM = b"P6\n# c\n2 1\n255\n" + bytes(range(6))
# A well-formed PGM, which read_image rejects: P6 is its one image format.
_VALID_PGM = b"P5 2 1 65535\n" + bytes(range(4))


class TestReadersNeverMisparse:
    """Any bytes either parse or raise a DmmActionError."""

    @given(_corruptions(_VALID_DEPTH))
    @settings(max_examples=200, deadline=None)
    def test_depth_bin(self, tmp_path_factory, data):
        _parses_or_raises_typed(read_depth_bin, tmp_path_factory.mktemp("d") / "d.bin", data)

    @given(st.one_of(_corruptions(_VALID_PPM), _corruptions(_VALID_PGM)))
    @settings(max_examples=300, deadline=None)
    def test_image(self, tmp_path_factory, data):
        _parses_or_raises_typed(read_image, tmp_path_factory.mktemp("i") / "x.pnm", data)


class TestWriteImage:
    def test_single_color_pixel_payload(self, tmp_path):
        path = tmp_path / "p.ppm"
        write_image(np.array([[[255, 0, 0]]], dtype=np.uint8), path)
        data = path.read_bytes()
        header_end = data.index(b"255\n") + 4
        assert data[header_end:] == b"\xff\x00\x00"

    def test_p5_file_and_scalar_grid_rejected(self, tmp_path):
        path = _netpbm(tmp_path / "g.pgm", "P5", 255, bytes(2))
        with pytest.raises(FormatError, match="g.pgm: unsupported magic b'P5'; expected P6"):
            read_image(path)
        with pytest.raises(FormatError, match=r"unsupported grid shape \(2, 2\)"):
            write_image(np.zeros((2, 2)), tmp_path / "g.ppm")
        assert not (tmp_path / "g.ppm").exists()

    def test_jet_render_round_trip(self, tmp_path):
        grid = np.arange(64, dtype=np.float64).reshape(8, 8)
        rendered = render_grid(grid, (16, 16))
        path = tmp_path / "tpl.ppm"
        write_image(rendered, path)
        assert np.array_equal(read_image(path), rendered)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_color_round_trip(self, tmp_path_factory, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, size=(5, 3, 3))
        path = tmp_path_factory.mktemp("img") / "x.ppm"
        write_image(pixels.astype(np.uint8), path)
        assert np.array_equal(read_image(path), pixels)
