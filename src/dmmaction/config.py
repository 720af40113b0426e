"""Pipeline configuration and its flat key/value file format.

Config files are TOML-style flat text: one `key = value` per line, `#`
comments, ints/floats/booleans/strings, and comma-separated lists in
square brackets.  A string field is read as written, never as a number or
a boolean; `none` is the None token.  Window lists accept the token `all`
for the whole-remaining-sequence window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dmm import ALL, Window
from .errors import ConfigError
from .geometry import PLANES
from .videoio import read_text

DEFAULT_ANGLES = (-45.0, -30.0, -15.0, 0.0, 15.0, 30.0, 45.0)
DEFAULT_DEPTH_WINDOWS: tuple[Window, ...] = (5, 10, ALL)
DEFAULT_RGB_WINDOWS = (10, 16, 25)
DEFAULT_POSES = ("sitting", "standing")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines stream enumeration and extraction.

    network_preset selects the extractor family: "c3d" is the canonical
    eight-conv stack, "desk" the small two-conv stack for synthetic runs.
    """

    poses: tuple[str, ...] = DEFAULT_POSES
    planes: tuple[str, ...] = PLANES
    angles: tuple[float, ...] = DEFAULT_ANGLES
    depth_windows: tuple[Window, ...] = DEFAULT_DEPTH_WINDOWS
    rgb_windows: tuple[int, ...] = DEFAULT_RGB_WINDOWS
    clip_len: int = 16
    render_size: tuple[int, int] = (112, 112)
    focal_px: float | None = None  # None = Kinect default scaled to frame width
    depth_bin_mm: float = 10.0
    depth_bin_count: int = 512
    flow_iterations: int = 100
    flow_smoothness: float = 0.02
    flow_normalization: str = "pair"  # "pair" | "global"
    noise_floor: float = 0.0
    network_preset: str = "c3d"
    desk_conv_maps: tuple[int, int] = (8, 16)
    fc_units: int | None = None  # default: 4096 for c3d, 64 for desk
    pca_target: float | int = 0.95
    svm_regularization: float = 1e-3
    # PCA projections of tanh features have small scale; the subgradient
    # loop needs a few hundred passes to place the boundary reliably.
    svm_epochs: int = 300
    score_mode: str = "softmax"  # "softmax" | "raw"
    depth_as_rgb: bool = False
    bypass_view_synthesis: bool = False
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.poses:
            raise ConfigError("at least one pose is required")
        for name in self.poses:
            if not _text_safe(name):
                raise ConfigError(f"pose {name!r} cannot be written to a config file")
            # Model file names map '/' to '__': poses a/b and a__b would share files.
            if "/" in name:
                raise ConfigError(f"pose {name!r} holds '/', which separates stream id fields")
        if self.out_dir is not None and (not _text_safe(self.out_dir) or self.out_dir == "none"):
            raise ConfigError(f"out_dir {self.out_dir!r} cannot be written to a config file")
        if not self.planes or any(p not in PLANES for p in self.planes):
            raise ConfigError(f"planes must be a non-empty subset of {PLANES}")
        if not self.angles:
            raise ConfigError("angle set must not be empty")
        for a in self.angles:
            if not (_is_real(a) and -180.0 <= a <= 180.0):
                raise ConfigError(f"angle {a!r} is not a number of degrees in [-180, 180]")
        if not self.depth_windows:
            raise ConfigError("depth window set must not be empty")
        for w in self.depth_windows:
            if w != ALL and (not isinstance(w, int) or w < 2):
                raise ConfigError(f"depth window must be an int >= 2 or {ALL!r}, got {w!r}")
        for r in self.rgb_windows:
            if not isinstance(r, int) or r < 2:
                raise ConfigError(f"rgb window must be an int >= 2, got {r!r}")
        for name in ("poses", "planes", "angles", "depth_windows", "rgb_windows"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values!r}")
        # Stream ids name an angle by its :g text, so two angles must not share one.
        angle_ids = [f"{a:g}" for a in self.angles]
        if len(set(angle_ids)) != len(angle_ids):
            raise ConfigError(
                f"angles {self.angles!r} collide in stream ids, which name them {angle_ids!r}"
            )
        for name, low in _INT_MINIMUM.items():
            value = getattr(self, name)
            if not (value is None and name in _OPTIONAL) and not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
        for name, low in _PAIR_MINIMUM.items():
            pair = getattr(self, name)
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(_is_int(v) and v >= low for v in pair)
            ):
                raise ConfigError(f"{name} must be two ints >= {low}, got {pair!r}")
        for name, positive in _REAL_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in _OPTIONAL:
                continue
            if not _is_finite(value) or value < 0 or (positive and value == 0):
                bound = "> 0" if positive else ">= 0"
                raise ConfigError(f"{name} must be a finite number {bound}, got {value!r}")
        target = self.pca_target
        if not ((_is_int(target) and target >= 1) or (_is_real(target) and 0 < target <= 1)):
            raise ConfigError(
                f"pca_target must be an int >= 1 or a fraction in (0, 1], got {target!r}"
            )
        for name in ("depth_as_rgb", "bypass_view_synthesis"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.flow_normalization not in ("pair", "global"):
            raise ConfigError(f"unknown flow normalization {self.flow_normalization!r}")
        if self.network_preset not in ("c3d", "desk"):
            raise ConfigError(f"unknown network preset {self.network_preset!r}")
        if self.score_mode not in ("softmax", "raw"):
            raise ConfigError(f"unknown score mode {self.score_mode!r}")

    @property
    def fc_units_effective(self) -> int:
        if self.fc_units is not None:
            return self.fc_units
        return 4096 if self.network_preset == "c3d" else 64


# Int fields with their least value, pairs of ints likewise, and number
# fields (finite; True: must be > 0, False: >= 0).  Optional fields may be None.
_INT_MINIMUM = {
    "clip_len": 1,
    "depth_bin_count": 1,
    "flow_iterations": 0,
    "svm_epochs": 1,
    "seed": 0,
    "fc_units": 1,
}
_PAIR_MINIMUM = {"render_size": 8, "desk_conv_maps": 1}
_REAL_FIELDS = {
    "focal_px": True,
    "depth_bin_mm": True,
    "flow_smoothness": True,
    "noise_floor": False,
    "svm_regularization": True,
}
_OPTIONAL = {"fc_units", "focal_px"}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _text_safe(name) -> bool:
    """Whether config_to_text writes a name that parse_config_text reads back
    unchanged: one line, no surrounding whitespace, and none of the comment,
    list and quote characters.  NUL is refused too: names end up in paths."""
    return (
        isinstance(name, str)
        and name.splitlines() == [name]
        and name == name.strip()
        and not any(c in name for c in "#,[]\"'\0")
    )


_LIST_FIELDS = {
    "poses": str,
    "planes": str,
    "angles": float,
    "depth_windows": "window",
    "rgb_windows": int,
    "desk_conv_maps": int,
    "render_size": int,
}


def _parse_scalar(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text.strip("\"'")


def parse_window(token: str) -> Window:
    """A depth window token: an int, or `all` in any case."""
    token = token.strip()
    if token.lower() == ALL:
        return ALL
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"bad window {token!r}: expected an int or {ALL!r}") from None


def _parse_value(key: str, kind: str, text: str):
    text = text.strip()
    if key in _LIST_FIELDS:
        inner = text[1:-1] if text.startswith("[") and text.endswith("]") else text
        items = [t.strip() for t in inner.split(",") if t.strip()]
        caster = _LIST_FIELDS[key]
        if caster == "window":
            return tuple(parse_window(t) for t in items)
        if caster is str:
            return tuple(t.strip("\"'") for t in items)
        return tuple(caster(t) for t in items)
    if kind in ("str", "str | None"):
        value = text.strip("\"'")
    else:
        value = _parse_scalar(text)
    return None if value == "none" else value


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse flat key = value lines into a PipelineConfig.

    Unknown keys are rejected rather than ignored so typos fail loudly.
    """
    base = base or PipelineConfig()
    kinds = {f.name: f.type for f in fields(PipelineConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            updates[key] = _parse_value(key, kinds[key], value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return replace(base, **updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    return parse_config_text(read_text(path), base)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: PipelineConfig) -> str:
    """Serialize a config so parse_config_text reproduces it exactly."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"
