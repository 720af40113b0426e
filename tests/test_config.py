import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmaction import (
    ALL,
    ConfigError,
    DmmActionError,
    ParseError,
    PipelineConfig,
    build_streams,
    load_config,
)
from dmmaction.config import config_to_text, parse_config_text
from dmmaction.geometry import PLANES


class TestDefaults:
    def test_default_angle_set(self):
        cfg = PipelineConfig()
        assert cfg.angles == (-45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0)

    def test_default_windows(self):
        cfg = PipelineConfig()
        assert cfg.depth_windows == (5, 10, ALL)
        assert cfg.rgb_windows == (10, 16, 25)

    def test_fc_units_follow_preset(self):
        assert PipelineConfig().fc_units_effective == 4096
        desk = dataclasses.replace(PipelineConfig(), network_preset="desk")
        assert desk.fc_units_effective == 64
        fixed = dataclasses.replace(PipelineConfig(), fc_units=128)
        assert fixed.fc_units_effective == 128


class TestValidation:
    def test_empty_poses_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), poses=())

    def test_slash_in_pose_rejected(self):
        # '/' separates stream id fields and maps to '__' in model file
        # names, so poses a/b and a__b would write one model file.
        with pytest.raises(ConfigError, match=r"pose 'a/b' holds '/'"):
            dataclasses.replace(PipelineConfig(), poses=("standing", "a/b"))
        with pytest.raises(ConfigError, match=r"pose 'a/b' holds '/'"):
            parse_config_text("poses = [standing, a/b]\n")

    def test_double_underscore_pose_accepted(self):
        cfg = dataclasses.replace(PipelineConfig(), poses=("standing", "a__b"))
        assert cfg.poses == ("standing", "a__b")
        assert parse_config_text("poses = [standing, a__b]\n").poses == ("standing", "a__b")

    def test_angles_sharing_a_stream_id_rejected(self):
        # Stream ids name an angle by its :g text, and 15.0 and 15.000001
        # both read "15": one stream would overwrite the other's models.
        with pytest.raises(ConfigError, match="collide in stream ids"):
            PipelineConfig(
                angles=(15.0, 15.000001), network_preset="desk",
                poses=("standing",), rgb_windows=(),
            )
        with pytest.raises(ConfigError, match="collide in stream ids"):
            parse_config_text("angles = [15, 15.000001]\n")

    def test_angles_with_distinct_stream_ids_accepted(self):
        cfg = dataclasses.replace(PipelineConfig(), angles=(15.0, 15.0001))
        ids = [s.id for s in build_streams(cfg).streams]
        assert len(set(ids)) == len(ids)
        assert any(i.endswith("/a15.0001") for i in ids)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), planes=("xy", "uv"))

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), angles=(0.0, 200.0))

    def test_tiny_depth_window_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), depth_windows=(1,))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), network_preset="resnet")

    def test_unknown_score_mode_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), score_mode="votes")

    def test_unknown_flow_normalization_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), flow_normalization="zscore")

    def test_small_render_size_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), render_size=(4, 112))

    @pytest.mark.parametrize("smoothness", [1e-30, 1e20], ids=["underflows", "overflows"])
    def test_smoothness_with_no_float32_square_rejected(self, smoothness, tmp_path):
        # Flow squares the smoothness in float32; this one gives 0 or inf.
        with pytest.raises(ConfigError, match="flow_smoothness must have a float32 square"):
            PipelineConfig(flow_smoothness=smoothness)
        path = tmp_path / "cfg.txt"
        path.write_text(f"flow_smoothness = {smoothness!r}\n")
        with pytest.raises(ConfigError, match="flow_smoothness must have a float32 square"):
            load_config(path)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == PipelineConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# leading comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown config key"):
            parse_config_text("seed = 1\nseeed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_window_all_token(self):
        cfg = parse_config_text("depth_windows = [5, all]\n")
        assert cfg.depth_windows == (5, ALL)

    def test_list_fields(self):
        cfg = parse_config_text(
            "poses = [standing]\nangles = [-30, 0, 30]\nrender_size = [64, 48]\n"
        )
        assert cfg.poses == ("standing",)
        assert cfg.angles == (-30.0, 0.0, 30.0)
        assert cfg.render_size == (64, 48)

    def test_none_token(self):
        cfg = parse_config_text("fc_units = none\nfocal_px = none\n")
        assert cfg.fc_units is None
        assert cfg.focal_px is None

    def test_boolean_values(self):
        cfg = parse_config_text("depth_as_rgb = true\nbypass_view_synthesis = false\n")
        assert cfg.depth_as_rgb is True
        assert cfg.bypass_view_synthesis is False

    def test_invalid_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("clip_len = 0\n")

    def test_keys_left_out_keep_their_defaults(self):
        cfg = parse_config_text("seed = 6\n")
        assert cfg == dataclasses.replace(PipelineConfig(), seed=6)


    @pytest.mark.parametrize(
        "line",
        [
            "clip_len = 2.5",
            "clip_len = true",
            "seed = abc",
            "seed = -1",
            "desk_conv_maps = [8]",
            "desk_conv_maps = [8, 16, 32]",
            "render_size = [32]",
            "render_size = [32, 32.5]",
            "pca_target = 0",
            "pca_target = 1.5",
            "pca_target = -0.5",
            "flow_iterations = -1",
            "svm_epochs = 0",
            "fc_units = 0",
            "depth_bin_mm = 0",
            "flow_smoothness = fast",
            "noise_floor = -0.1",
            "depth_as_rgb = 1",
            "poses = [a, a]",
            "planes = [xy, xy]",
            "angles = [0, 0]",
            "angles = [0, -0.0]",
            "depth_windows = [5, 5]",
            "depth_windows = [all, ALL]",
            "rgb_windows = [10, 10]",
            "depth_windows = [5, x]",
            "focal_px = nan",
            "focal_px = inf",
            "depth_bin_mm = nan",
            "depth_bin_mm = inf",
            "flow_smoothness = nan",
            "flow_smoothness = inf",
            "noise_floor = nan",
            "noise_floor = inf",
            "svm_regularization = nan",
            "svm_regularization = inf",
        ],
    )
    def test_ill_typed_values_rejected(self, line, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "line, field, value",
        [
            ("pca_target = 1", "pca_target", 1),
            ("pca_target = 1.0", "pca_target", 1.0),
            ("pca_target = 0.5", "pca_target", 0.5),
            ("flow_iterations = 0", "flow_iterations", 0),
            ("depth_bin_mm = 25", "depth_bin_mm", 25),
            ("focal_px = none", "focal_px", None),
        ],
    )
    def test_boundary_values_accepted(self, line, field, value):
        assert getattr(parse_config_text(line + "\n"), field) == value


class TestRoundTrip:
    def test_default_round_trip_exact(self):
        cfg = PipelineConfig()
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_modified_round_trip_exact(self):
        cfg = dataclasses.replace(
            PipelineConfig(),
            poses=("standing",),
            angles=(-30.0, 0.0, 30.0),
            depth_windows=(5, ALL),
            rgb_windows=(10, 16),
            clip_len=8,
            render_size=(32, 32),
            focal_px=200.0,
            network_preset="desk",
            fc_units=48,
            pca_target=12,
            score_mode="raw",
            depth_as_rgb=True,
            seed=1234,
        )
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_non_utf8_file_raises_parse_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"seed = 1  # caf\xff\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_file_round_trip(self, tmp_path):
        cfg = dataclasses.replace(PipelineConfig(), seed=42, network_preset="desk")
        path = tmp_path / "cfg.txt"
        path.write_text(config_to_text(cfg))
        assert load_config(path) == cfg


# Names the text format carries: one line, no surrounding whitespace, none
# of the comment, list or quote characters, and no NUL.
_NAMES = st.text(
    st.characters(blacklist_characters="#,[]\"'\0", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
).filter(lambda s: s == s.strip() and s.splitlines() == [s])

# Pose names also hold no '/', which separates stream id fields.
_POSE_NAMES = _NAMES.filter(lambda s: "/" not in s)


# Angles are unique by value and by the :g text that names them in stream ids.
# Adding 0.0 turns -0.0 into 0.0, which equals it as a value but prints "-0".
def _angle_id(a):
    return f"{a + 0.0:g}"


@st.composite
def _valid_configs(draw):
    planes = draw(st.permutations(PLANES))
    return PipelineConfig(
        poses=tuple(draw(st.lists(_POSE_NAMES, min_size=1, max_size=3, unique=True))),
        planes=tuple(planes[: draw(st.integers(1, 3))]),
        angles=tuple(
            draw(st.lists(st.floats(-180, 180), min_size=1, max_size=4, unique_by=_angle_id))
        ),
        depth_windows=tuple(
            draw(st.lists(st.just(ALL) | st.integers(2, 60), min_size=1, max_size=3, unique=True))
        ),
        rgb_windows=tuple(draw(st.lists(st.integers(2, 60), max_size=3, unique=True))),
        clip_len=draw(st.integers(1, 64)),
        render_size=(draw(st.integers(8, 256)), draw(st.integers(8, 256))),
        focal_px=draw(st.none() | st.floats(1e-3, 1e6)),
        depth_bin_mm=draw(st.floats(1e-3, 1e3) | st.integers(1, 100)),
        depth_bin_count=draw(st.integers(1, 2048)),
        flow_iterations=draw(st.integers(0, 500)),
        flow_smoothness=draw(st.floats(1e-6, 10)),
        flow_normalization=draw(st.sampled_from(("pair", "global"))),
        noise_floor=draw(st.floats(0, 100)),
        network_preset=draw(st.sampled_from(("c3d", "desk"))),
        desk_conv_maps=(draw(st.integers(1, 64)), draw(st.integers(1, 64))),
        fc_units=draw(st.none() | st.integers(1, 8192)),
        pca_target=draw(st.integers(1, 50) | st.floats(0, 1, exclude_min=True)),
        svm_regularization=draw(st.floats(1e-9, 10)),
        svm_epochs=draw(st.integers(1, 1000)),
        score_mode=draw(st.sampled_from(("softmax", "raw"))),
        depth_as_rgb=draw(st.booleans()),
        bypass_view_synthesis=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64)),
    )


_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)]


class TestConfigTextNeverMisparsed:
    """A saved plan reloads its own config: what config_to_text writes,
    parse_config_text reads back, and any other text raises a typed error."""

    @given(_valid_configs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, cfg):
        assert parse_config_text(config_to_text(cfg)) == cfg

    @given(
        st.lists(
            st.text()
            | st.builds("{} = {}".format, st.sampled_from(_KEYS), st.text())
            | st.builds("{} = [{}]".format, st.sampled_from(_KEYS), st.text()),
            max_size=4,
        ).map("\n".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_raises_typed(self, text):
        try:
            parse_config_text(text)
        except DmmActionError:
            pass

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 1\nseed = 2\n", "line 2: repeated config key 'seed'"),
            ("angles = [0, , 30]\n", "line 1: bad value for 'angles': empty list item"),
            ("\nposes = [standing,]\n", "line 2: bad value for 'poses': empty list item"),
        ],
        ids=["repeated-key", "empty-middle-item", "trailing-comma"],
    )
    def test_silent_misreadings_rejected_naming_the_line(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["[]", "[ ]"])
    def test_empty_list_reads_as_empty_tuple(self, text):
        assert parse_config_text(f"rgb_windows = {text}\n").rgb_windows == ()

    @pytest.mark.parametrize(
        "line, field, value",
        [
            ("network_preset = desk", "network_preset", "desk"),
            ("poses = [2024, true]", "poses", ("2024", "true")),
        ],
    )
    def test_string_fields_read_literally(self, line, field, value):
        assert getattr(parse_config_text(line + "\n"), field) == value

    @pytest.mark.parametrize(
        "line, text",
        [
            ("network_preset = 2024", "'2024'"),
            ("flow_normalization = 1.5e3", "'1.5e3'"),
            ("score_mode = true", "'true'"),
        ],
    )
    def test_string_fields_read_literally_in_errors(self, line, text):
        # Read as a number or a boolean, the value would print unquoted.
        with pytest.raises(ConfigError) as exc:
            parse_config_text(line + "\n")
        assert text in str(exc.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("poses", ("a#b",)),
            ("poses", ("a,b",)),
            ("poses", ("[a",)),
            ("poses", ("a]",)),
            ("poses", ('"a"',)),
            ("poses", ("it's",)),
            ("poses", (" a",)),
            ("poses", ("a\n",)),
            ("poses", ("a\x85b",)),
            ("poses", ("",)),
            ("poses", (5,)),
            ("angles", ("a",)),
            ("angles", (None,)),
            ("depth_bin_mm", 10**400),
            ("focal_px", 10**400),
        ],
    )
    def test_values_the_text_cannot_carry_rejected(self, field, value):
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), **{field: value})
