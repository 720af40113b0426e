"""End-to-end orchestration: stream plans, extraction, training, evaluation.

A stream is one (pose, plane, window, angle) depth pipeline or one
(pose, rgb window) appearance pipeline, each owning a network and an SVM
bank; the plane streams of one slot share its features and PCA basis,
which are extracted and kept once per slot.  The orchestrator
runs samples through every stream of their pose bank and fuses per-stream
scores by averaging, depth streams first, then depth with appearance.

A plan's config (StreamPlan.cfg) is the one source of its settings:
extraction reads it from the plan, and only save_plan writes a plan to
disk.  Everything here is deterministic: stream weights derive from (seed,
stream id), so a plan rebuilds bit-identically from its saved config.
train, evaluate and the CLI's extract and classify loop over their
records through one generator, _extracted, which yields each record with
its ExtractResult in order.  It opens one fork pool for the loop, whose
work item is one whole record: a worker reads it and runs extract_sample
on it, from the depth file to the features.  All of the loop's records
are submitted before the first is joined.  Each record's extraction is
the serial one, so plans, features, warnings, errors and reports are
byte-identical to a serial run's.  A loop over one record, and a
standalone classify, run wholly in the calling process.  Report
aggregation is a single ordered reduction.
"""

from __future__ import annotations

import ctypes
import logging
import os
import sys
import zlib
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dmm as dmm_mod
from .config import PipelineConfig, config_to_text, load_config
from .dmm import Window, render_grid, stack_clip, template_count
from .errors import (
    ContractError,
    EmptyInputError,
    FormatError,
    ProtocolError,
    StateError,
)
from .geometry import (
    PLANES,
    BinParams,
    Intrinsics,
    ProjectedMap,
    RotationSpec,
    project_cartesian,
    sequence_centroid,
    synthesize_view,
)
from .learn import (
    PcaModel,
    ScoreVector,
    SvmModel,
    fuse_scores,
    load_models,
    pca_fit,
    pca_project,
    save_models,
    svm_score,
    svm_train,
)
from .motion import estimate_flow, flow_magnitude, normalize_magnitude
from .neural import (
    NetworkSpec,
    c3d_network,
    desk_network,
    draw_once,
    extract_features,
    stream_rng,
)
from .videoio import DepthSequence, read_depth_bin, read_rgb_sequence, read_text

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Stream enumeration


@dataclass(frozen=True)
class Stream:
    """One classifier slot in the plan."""

    id: str
    pose: str
    kind: str  # "dmm" | "rgb"
    plane: str | None = None
    window: Window | None = None
    angle: float | None = None
    rgb_len: int | None = None

    @property
    def slot(self) -> str:
        """Key of the features this stream shares with others: its id without the plane."""
        if self.kind == "rgb":
            return self.id
        return _dmm_slot_id(self.pose, self.window, self.angle)


def _dmm_slot_id(pose: str, window: Window, angle: float) -> str:
    return f"{pose}/dmm/w{window}/a{angle:g}"


def _dmm_stream_id(pose: str, plane: str, window: Window, angle: float) -> str:
    return f"{pose}/dmm/{plane}/w{window}/a{angle:g}"


def _rgb_stream_id(pose: str, rgb_len: int) -> str:
    return f"{pose}/rgb/r{rgb_len}"


@dataclass
class TrainReport:
    """Per-stream training accuracy and anything skipped along the way."""

    per_stream: dict[str, float] = field(default_factory=dict)
    n_train: int = 0
    warnings: tuple[str, ...] = ()


@dataclass
class StreamPlan:
    """All streams of a config plus their trained models.

    Network weights are a pure function of (cfg.seed, stream id), so each
    stream's network is built on its first use and kept for the plan's
    life.  A network stores only its biases and draws its weights where
    they are read (see neural), so a canonical 112x112 stack keeps 26.8 KiB.
    pca is keyed by Stream.slot, svm by stream id.
    """

    cfg: PipelineConfig
    streams: tuple[Stream, ...]
    labels: tuple[str, ...] | None = None
    pca: dict[str, PcaModel] = field(default_factory=dict)
    svm: dict[str, SvmModel] = field(default_factory=dict)
    train_report: TrainReport | None = None
    _networks: dict[str, NetworkSpec] = field(default_factory=dict, repr=False)

    def stream(self, stream_id: str) -> Stream:
        for s in self.streams:
            if s.id == stream_id:
                return s
        raise ContractError(f"unknown stream id {stream_id!r}")

    def network(self, stream_id: str) -> NetworkSpec:
        if stream_id not in self._networks:
            self._networks[stream_id] = _build_network(self.cfg, self.stream(stream_id))
        return self._networks[stream_id]

    def _check_trained_for(self, pose: str) -> None:
        bank = [s.id for s in self.streams if s.pose == pose]
        if self.labels is None or not any(sid in self.svm for sid in bank):
            raise StateError(f"plan has no trained streams for pose {pose!r}; train it first")

    @property
    def trained(self) -> bool:
        return self.labels is not None and bool(self.svm)


def build_streams(cfg: PipelineConfig) -> StreamPlan:
    """Enumerate every classifier stream of a config, in a fixed order.

    Order is pose-major: all depth streams of a pose (plane, then window,
    then angle), then its appearance streams, then the next pose.

    Returns:
        An untrained StreamPlan whose stream count equals
        poses * (planes * angles * windows + rgb windows).
    """
    streams: list[Stream] = []
    for pose in cfg.poses:
        for plane in cfg.planes:
            for window in cfg.depth_windows:
                for angle in cfg.angles:
                    streams.append(
                        Stream(
                            id=_dmm_stream_id(pose, plane, window, angle),
                            pose=pose,
                            kind="dmm",
                            plane=plane,
                            window=window,
                            angle=angle,
                        )
                    )
        for r in cfg.rgb_windows:
            streams.append(
                Stream(id=_rgb_stream_id(pose, r), pose=pose, kind="rgb", rgb_len=r)
            )
    return StreamPlan(cfg=cfg, streams=tuple(streams))


def _build_network(cfg: PipelineConfig, s: Stream) -> NetworkSpec:
    height, width = cfg.render_size
    args = dict(
        name=s.id,
        clip_len=s.rgb_len if s.kind == "rgb" else cfg.clip_len,
        height=height,
        width=width,
        fc_units=cfg.fc_units_effective,
    )
    if cfg.network_preset == "desk":
        return desk_network(stream_rng(cfg.seed, s.id), conv_maps=cfg.desk_conv_maps, **args)
    return c3d_network(stream_rng(cfg.seed, s.id), **args)


# ---------------------------------------------------------------------------
# Dataset records


@dataclass(frozen=True)
class SampleRecord:
    """One sequence of the dataset, as described by the manifest."""

    depth_path: Path
    rgb_path: Path | None
    label: str
    subject: str
    camera: str
    pose: str
    crop_path: Path | None = None


# The fields of a manifest line, as its errors name them.
_MANIFEST_FIELDS = ("depth path", "rgb path", "label", "subject", "camera", "pose", "crop path")


def read_manifest(path: str | Path) -> list[SampleRecord]:
    """Parse a tab-separated dataset manifest.

    Each line: depth path, rgb path or '-', label, subject id, camera id,
    pose, and optionally a crop-box file path or '-'.  Paths are resolved
    relative to the manifest's directory.  No field may be empty.
    """
    path = Path(path)
    root = path.parent
    records: list[SampleRecord] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) not in (6, 7):
            raise FormatError(
                f"line {lineno}: expected 6 or 7 tab-separated fields, got {len(parts)}"
            )
        for name, value in zip(_MANIFEST_FIELDS, parts):
            if not value:
                raise FormatError(f"line {lineno}: empty {name} field")
        depth, rgb, label, subject, camera, pose = parts[:6]
        crop = parts[6] if len(parts) == 7 else "-"
        if any("\0" in p for p in (depth, rgb, crop)):
            raise FormatError(f"line {lineno}: a path field holds a NUL byte")
        records.append(
            SampleRecord(
                depth_path=root / depth,
                rgb_path=None if rgb == "-" else root / rgb,
                label=label,
                subject=subject,
                camera=camera,
                pose=pose,
                crop_path=None if crop == "-" else root / crop,
            )
        )
    if not records:
        raise EmptyInputError(f"manifest {path} has no records")
    return records


def _apply_crop(seq: DepthSequence, crop_path: Path) -> DepthSequence:
    """Zero out everything outside the per-frame person box.

    The crop file holds one `x y w h` line per frame.  Masking instead of
    slicing keeps frame dimensions uniform across the sequence.
    """
    lines = [ln for ln in read_text(crop_path).splitlines() if ln.strip()]
    if len(lines) != len(seq):
        raise FormatError(
            f"crop file {crop_path} has {len(lines)} boxes for {len(seq)} frames"
        )
    frames = np.zeros_like(seq.frames)
    for i, line in enumerate(lines):
        try:
            x, y, w, h = (int(tok) for tok in line.split())
        except ValueError as exc:
            raise FormatError(f"bad crop line {line!r} in {crop_path}") from exc
        if x < 0 or y < 0 or w < 1 or h < 1 or x + w > seq.width or y + h > seq.height:
            raise FormatError(
                f"crop box {(x, y, w, h)} outside {seq.width}x{seq.height} frame"
            )
        frames[i, y : y + h, x : x + w] = seq.frames[i, y : y + h, x : x + w]
    return DepthSequence(frames)


# ---------------------------------------------------------------------------
# Feature extraction


@dataclass
class ExtractResult:
    """Per-slot clip features for one sample.

    features maps Stream.slot to a list of float64 feature arrays (one per
    clip), empty when the sequence was too short for that slot or the slot
    needs RGB input the sample does not have (a warning says which).  A
    depth slot's arrays are its planes' features concatenated in cfg.planes
    order; an appearance slot is its stream's id.  Only the slots of the
    sample's pose bank appear.
    """

    features: dict[str, list[np.ndarray]]
    warnings: tuple[str, ...] = ()


def _flow_weights(maps: list[ProjectedMap], cfg: PipelineConfig) -> np.ndarray:
    """The (n - 1, h, w) float64 weights of n maps, one per consecutive pair,
    each in [0, 1]: all pairs' flows come from one batched call, and
    normalize_magnitude divides each pair's magnitude by its own peak
    ("pair") or the sequence's ("global").  ContractError on maps not 2-D
    and of one shape, or on a NaN, infinite or negative magnitude.
    """
    if len(maps) < 2:
        return np.zeros((0, *(maps[0].grid.shape if maps else (0, 0))))
    shapes = sorted({m.grid.shape for m in maps})
    if len(shapes) != 1 or len(shapes[0]) != 2:
        raise ContractError(f"a sequence needs 2-D maps of one shape, got {shapes}")
    grids = np.stack([m.grid for m in maps])
    flow = estimate_flow(
        grids[:-1], grids[1:], iterations=cfg.flow_iterations, smoothness=cfg.flow_smoothness
    )
    raw = flow_magnitude(flow)
    if cfg.flow_normalization == "global":
        return normalize_magnitude(raw)
    # Each pair's result goes back into raw, so the weights take no second
    # (n - 1, h, w) array.
    for g in raw:
        g[...] = normalize_magnitude(g)
    return raw


def _views(
    seq: DepthSequence, cfg: PipelineConfig, angles: Iterable[float]
) -> Iterator[tuple[float, list[tuple[ProjectedMap, ...]]]]:
    """Each view angle with its frames' three projections, one angle at a time.

    Each view angle is synthesized about the sequence centroid (the
    original frames stand in for angle 0, and for every angle when
    cfg.bypass_view_synthesis is set) and projected onto the three planes.
    A synthesized view is dropped once it is projected.
    """
    intr = Intrinsics.default_for(seq.width, seq.height, cfg.focal_px)
    bins = BinParams(cfg.depth_bin_mm, cfg.depth_bin_count)
    pivot = None

    def view(alpha: float) -> DepthSequence:
        nonlocal pivot
        if alpha == 0.0 or cfg.bypass_view_synthesis:
            return seq
        if pivot is None:
            pivot = sequence_centroid(seq, intr)
        return synthesize_view(seq, RotationSpec(alpha), intr, pivot=pivot)

    for alpha in angles:
        yield alpha, [project_cartesian(f, bins) for f in view(alpha).frames]


def _plane_maps(projected: list[tuple[ProjectedMap, ...]], plane: str) -> list[ProjectedMap]:
    return [per_frame[PLANES.index(plane)] for per_frame in projected]


def render_templates(
    maps: list[ProjectedMap],
    weights: np.ndarray,
    window: Window,
    cfg: PipelineConfig,
    starts: Iterable[int],
) -> list[np.ndarray]:
    """Accumulate and render the weighted motion map starting at each t in starts."""
    return [
        dmm_mod.render_template(
            dmm_mod.accumulate_ramdmm(maps, weights, t, window, floor=cfg.noise_floor),
            cfg.render_size,
        )
        for t in starts
    ]


def _clip_features(frames: list[np.ndarray], lam: int, net: NetworkSpec) -> list[np.ndarray]:
    """Features of the stride-lam clips of frames, ending at lam-1, 2*lam-1,
    ..., on net with its weight arrays of at most one block drawn once for
    all the clips (see neural.draw_once)."""
    net = draw_once(net)
    return [
        extract_features(stack_clip(frames, end, lam), net)
        for end in range(lam - 1, len(frames), lam)
    ]


def _plane_features(
    plan: StreamPlan,
    pose: str,
    angle: float,
    plane: str,
    maps: list[ProjectedMap],
    windows: list[Window],
) -> list[list[np.ndarray]]:
    """For one (angle, plane): the flow weights of maps, then for each
    window the clip features of its rendered templates on that stream's
    network."""
    cfg = plan.cfg
    weights = _flow_weights(maps, cfg)
    per_window = []
    for window in windows:
        # The clips tile only the first k * clip_len templates.
        covered = range(template_count(len(maps), window) // cfg.clip_len * cfg.clip_len)
        rendered = render_templates(maps, weights, window, cfg, covered)
        net = plan.network(_dmm_stream_id(pose, plane, window, angle))
        per_window.append(_clip_features(rendered, cfg.clip_len, net))
    return per_window


def _check_pose(rec: SampleRecord, cfg: PipelineConfig) -> None:
    if rec.pose not in cfg.poses:
        raise ContractError(
            f"sample pose {rec.pose!r} is not one of the configured poses {cfg.poses}"
        )


def extract_sample(rec: SampleRecord, plan: StreamPlan) -> ExtractResult:
    """Run one sample through every stream of its pose bank.

    Depth side: crop mask, synthesize each view angle (the original maps
    stand in for angle 0), project onto the configured planes, weight
    consecutive differences by normalized flow magnitude, accumulate
    over each window setting, render, stack clips, extract and
    concatenate per-plane features.  Appearance side: tile the RGB (or
    jet-rendered depth) frames into window-length clips and extract.
    Views are made one angle at a time, in this process; a loop over
    records runs this function in a fork pool's workers (see _extracted).

    Args:
        rec: manifest record; its pose must be one of plan.cfg.poses.
        plan: the streams to run, their configuration (plan.cfg) and their
            cached networks; build_streams(cfg) makes one from a config.

    Returns:
        ExtractResult keyed by Stream.slot; slots the sequence is too
        short for, and appearance slots without RGB input, get an empty
        list and a warning.
    """
    cfg = plan.cfg
    _check_pose(rec, cfg)
    bank = [s for s in plan.streams if s.pose == rec.pose]
    warnings: list[str] = []

    depth_seq = read_depth_bin(rec.depth_path)
    if rec.crop_path is not None:
        depth_seq = _apply_crop(depth_seq, rec.crop_path)
    n = len(depth_seq)
    angles = sorted({s.angle for s in bank if s.kind == "dmm"})

    windows = []  # the depth windows with at least one clip
    for window in cfg.depth_windows:
        n_templates = template_count(n, window)
        if n_templates >= cfg.clip_len:
            windows.append(window)
            continue
        skip = (
            f"{rec.depth_path}: {n} frames give {n_templates} templates "
            f"for window {window}, need {cfg.clip_len}; skipping"
        )
        warnings.extend([skip] * len(angles))  # one per (window, angle) slot

    features: dict[str, list[np.ndarray]] = {
        _dmm_slot_id(rec.pose, w, a): [] for w in cfg.depth_windows for a in angles
    }
    for alpha, projected in _views(depth_seq, cfg, angles if windows else []):
        per_plane = [
            _plane_features(plan, rec.pose, alpha, p, _plane_maps(projected, p), windows)
            for p in cfg.planes
        ]
        del projected  # before the next view is made
        for window, *planes in zip(windows, *per_plane):
            features[_dmm_slot_id(rec.pose, window, alpha)] = [
                np.concatenate(c) for c in zip(*planes, strict=True)
            ]

    rgb_streams = [s for s in bank if s.kind == "rgb"]
    rgb_frames = _appearance_frames(rec, cfg, depth_seq, warnings) if rgb_streams else None
    for s in rgb_streams:
        if rgb_frames is None:
            features[s.slot] = []
        elif len(rgb_frames) < s.rgb_len:
            warnings.append(
                f"{rec.depth_path}: {len(rgb_frames)} appearance frames, "
                f"need {s.rgb_len}; skipping {s.id}"
            )
            features[s.slot] = []
        else:
            features[s.slot] = _clip_features(rgb_frames, s.rgb_len, plan.network(s.id))
    return ExtractResult(features=features, warnings=tuple(warnings))


# _extracted pools only while pipeline.extract_sample is still this
# function: a replacement (a test spy, a tracer) must see every call, and
# every record run in this process.
_EXTRACT_SAMPLE = extract_sample


def _appearance_frames(rec, cfg, depth_seq, warnings) -> list[np.ndarray] | None:
    """RGB frames resized to the render size, or jet-rendered depth."""
    if cfg.depth_as_rgb:
        return [render_grid(depth, cfg.render_size) for depth in depth_seq.frames]
    if rec.rgb_path is None:
        warnings.append(f"{rec.depth_path}: no RGB input, appearance streams absent")
        return None
    return [dmm_mod.resize_rgb(f, cfg.render_size) for f in read_rgb_sequence(rec.rgb_path)]


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class Split:
    """Index partition of a dataset plus how it was derived."""

    protocol: str
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    description: str


def _repetition_index(records: list[SampleRecord]) -> list[int]:
    """Occurrence order within each (label, subject, camera) group.

    Manifest row order defines repetition order; the dataset preparer is
    responsible for listing repetitions chronologically.
    """
    seen: dict[tuple[str, str, str], int] = {}
    out = []
    for r in records:
        key = (r.label, r.subject, r.camera)
        out.append(seen.get(key, 0))
        seen[key] = out[-1] + 1
    return out


# Protocols that hold out whole values of one record attribute: the
# attribute, and which of its sorted values train by default.
_HELD_OUT = {
    "cross-subject": ("subject", slice(None, None, 2)),
    "cross-view": ("camera", slice(None, 1)),
}

# The resolve_split arguments each protocol reads; any other one is rejected.
_READS = {
    "cross-subject": ("train_subjects",),
    "cross-view": ("train_cameras",),
    "one-third": (),
    "two-thirds": (),
    "manual": ("train_indices", "test_indices"),
}


def resolve_split(
    records: list[SampleRecord],
    protocol: str,
    train_subjects: tuple[str, ...] | None = None,
    train_cameras: tuple[str, ...] | None = None,
    train_indices: tuple[int, ...] | None = None,
    test_indices: tuple[int, ...] | None = None,
) -> Split:
    """Partition dataset indices under a named protocol.

    cross-subject holds out whole subjects (default: odd positions in
    the sorted subject list test); cross-view holds out whole cameras
    (default: all but the first camera test); one-third and two-thirds
    put the first one or two repetitions of each (label, subject,
    camera) group in train; manual takes explicit index lists, each
    record at most once.  An
    argument the protocol does not read is rejected, not ignored.
    """
    if protocol not in _READS:
        raise ProtocolError(f"unknown split protocol {protocol!r}")
    given = dict(
        train_subjects=train_subjects,
        train_cameras=train_cameras,
        train_indices=train_indices,
        test_indices=test_indices,
    )
    unread = [k for k, v in given.items() if v is not None and k not in _READS[protocol]]
    if unread:
        raise ProtocolError(f"the {protocol} protocol does not use {', '.join(unread)}")
    n = len(records)
    if protocol == "manual":
        if train_indices is None or test_indices is None:
            raise ProtocolError("manual protocol needs explicit train and test indices")
        train, test = tuple(train_indices), tuple(test_indices)
        _check_indices(n, train, test)
        desc = f"manual: {len(train)} train / {len(test)} test"
    elif protocol in _HELD_OUT:
        attr, default = _HELD_OUT[protocol]
        values = sorted({getattr(r, attr) for r in records})
        given = train_subjects if attr == "subject" else train_cameras
        chosen = set(values[default] if given is None else given)
        unknown = chosen - set(values)
        if unknown:
            raise ProtocolError(f"unknown train {attr}s {sorted(unknown)}")
        if chosen == set(values):
            raise ProtocolError(f"every {attr} is in train; test side would be empty")
        train = tuple(i for i, r in enumerate(records) if getattr(r, attr) in chosen)
        test = tuple(i for i, r in enumerate(records) if getattr(r, attr) not in chosen)
        desc = (
            f"{protocol}: train="
            + ";".join(sorted(chosen))
            + " test="
            + ";".join(v for v in values if v not in chosen)
        )
    else:
        reps = _repetition_index(records)
        keep = 1 if protocol == "one-third" else 2
        train = tuple(i for i in range(n) if reps[i] < keep)
        test = tuple(i for i in range(n) if reps[i] >= keep)
        if not test:
            raise ProtocolError(
                f"{protocol} split leaves no test samples; "
                "records need more repetitions per (label, subject, camera)"
            )
        desc = f"{protocol}: first {keep} repetition(s) per group train"
    _check_disjoint(records, protocol, train, test)
    return Split(protocol, train, test, desc)


def _check_disjoint(records, protocol, train, test):
    if protocol in _HELD_OUT:
        attr = _HELD_OUT[protocol][0]
        train_values = {getattr(records[i], attr) for i in train}
        shared = train_values & {getattr(records[i], attr) for i in test}
        if shared:
            raise ProtocolError(
                f"{attr}s {sorted(shared)} appear on both sides of a {protocol} split"
            )


# ---------------------------------------------------------------------------
# Training


def _pool_size(n_records: int) -> int:
    """Worker processes for a pool over a loop of n_records records: one
    per core and record; below 2 means serially, here.

    A loop also runs serially when extract_sample has been replaced (see
    _EXTRACT_SAMPLE) or when the platform cannot tell its cores.
    """
    if extract_sample is not _EXTRACT_SAMPLE or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_records)


def _blas_threads():
    """(get_num_threads, set_num_threads) of the OpenBLAS that numpy links,
    as numpy's wheels name them (scipy_openblas with 64-bit ints) or as a
    plain build does; None if numpy links no library that exports them."""
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        try:
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The plan of the _extracted loop that forked this worker.
_worker_plan: StreamPlan | None = None


def _init_worker(plan: StreamPlan, blas_threads: int | None) -> None:
    """Keep plan for this worker's records and, unless blas_threads is
    None, run this worker's OpenBLAS with that many threads."""
    global _worker_plan
    _worker_plan = plan
    if blas_threads is not None:
        _blas_threads()[1](blas_threads)


def _extract_in_worker(rec: SampleRecord) -> ExtractResult:
    return extract_sample(rec, _worker_plan)


def _extracted(
    plan: StreamPlan, records: list[SampleRecord]
) -> Iterator[tuple[SampleRecord, ExtractResult]]:
    """Each of records, in order, with its extract_sample result.

    With _pool_size workers of 2 or more, the records' bank networks are
    built here first, in stream order, so that workers inherit them by fork
    and build none; then every record is submitted to a fork pool before
    the first is joined.  Results are matched to records by position, so
    two equal manifest lines each keep their own, and a worker's error is
    raised at its own record, as a serial run raises it.  Otherwise, or if
    a bank network does not build or the platform cannot fork, each record
    runs here through pipeline.extract_sample, so that a replacement sees
    every call.  The pool is shut down, its queued records cancelled, when
    the generator ends or is closed; callers iterate it under
    contextlib.closing, so that a loop body that raises closes it too.
    """
    workers = _pool_size(len(records))
    if workers >= 2:
        # Imported here, so that a process that never pools (such as a CLI
        # classify of one record) does not pay the ~10 ms import.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        poses = {r.pose for r in records}
        try:
            for s in plan.streams:
                if s.pose in poses:
                    plan.network(s.id)
        except ContractError:
            workers = 1  # the serial loop raises it where a record needs it
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        for rec in records:
            yield rec, extract_sample(rec, plan)
        return
    # Each worker runs its share of the cores' BLAS threads, at most the
    # parent's: one GEMM per conv chunk is large enough for OpenBLAS to
    # thread, and with every worker running the parent's 2 threads on 2
    # cores desk-bench trained at 0.93 samples/s instead of 2.27.
    blas, threads = _blas_threads(), None
    if blas is not None:
        threads = max(1, min(blas[0](), len(os.sched_getaffinity(0)) // workers))
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(plan, threads),
    )
    try:
        futures = [pool.submit(_extract_in_worker, rec) for rec in records]
        for rec, future in zip(records, futures):
            yield rec, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _check_indices(n: int, train: tuple[int, ...], test: tuple[int, ...]) -> None:
    """Every index names one of the n records, and no record twice."""
    bad = [i for i in train + test if not 0 <= i < n]
    if bad:
        raise ProtocolError(f"indices {bad} outside the {n}-record dataset")
    for side, indices in (("train", train), ("test", test)):
        if len(set(indices)) < len(indices):
            raise ProtocolError(f"{side} indices name a record more than once")
    if set(train) & set(test):
        raise ProtocolError("train and test indices overlap")


def train(
    records: list[SampleRecord], split: Split, cfg: PipelineConfig
) -> StreamPlan:
    """Fit every stream's PCA + SVM on the training side of a split.

    Every index, label and training pose is checked before anything is
    extracted.  The training records are extracted in split order through
    _extracted, in a fork pool open for this loop only.

    Args:
        records: full dataset.
        split: resolved index partition; every label must occur in train.
        cfg: pipeline configuration.

    Returns:
        The trained StreamPlan; plan.train_report carries per-stream
        training accuracy and skip warnings.  Nothing is written to disk:
        save_plan persists a plan.
    """
    plan = build_streams(cfg)
    _check_indices(len(records), split.train_indices, split.test_indices)
    _check_disjoint(records, split.protocol, split.train_indices, split.test_indices)
    labels = tuple(sorted({r.label for r in records}))
    if len(labels) < 2:
        raise ContractError(f"need at least 2 classes, got {labels}")
    for label in labels:
        if "".join(label.splitlines()) != label:
            raise ContractError(
                f"label {label!r} holds a line break, which labels.txt cannot carry"
            )
    train_labels = {records[i].label for i in split.train_indices}
    missing = [lab for lab in labels if lab not in train_labels]
    if missing:
        raise ProtocolError(f"classes {missing} absent from the training split")
    train_records = [records[i] for i in split.train_indices]
    for rec in train_records:
        _check_pose(rec, cfg)
    plan.labels = labels

    per_slot_feats: dict[str, list[np.ndarray]] = {s.slot: [] for s in plan.streams}
    per_slot_labels: dict[str, list[str]] = {s.slot: [] for s in plan.streams}
    warnings: list[str] = []
    with closing(_extracted(plan, train_records)) as results:
        for rec, result in results:
            warnings.extend(result.warnings)
            for slot, feats in result.features.items():
                if not feats:
                    continue
                per_slot_feats[slot].extend(feats)
                per_slot_labels[slot].extend([rec.label] * len(feats))

    report = TrainReport(n_train=len(split.train_indices))
    train_poses = {records[i].pose for i in split.train_indices}
    projected: dict[str, np.ndarray] = {}
    for s in plan.streams:
        key = s.slot
        feats = per_slot_feats[key]
        if len(feats) < 2:
            if s.pose in train_poses:
                warnings.append(f"stream {s.id}: {len(feats)} training clips, skipped")
            continue
        stream_labels = per_slot_labels[key]
        # classify reads every stream's scores in plan.labels order, so a
        # stream's SVM must know every class.
        absent = sorted(set(labels) - set(stream_labels))
        if absent:
            warnings.append(f"stream {s.id}: no training clips of classes {absent}, skipped")
            continue
        if key not in plan.pca:
            plan.pca[key] = pca_fit(feats, cfg.pca_target)
            projected[key] = np.stack([pca_project(plan.pca[key], f) for f in feats])
        svm = svm_train(
            projected[key],
            stream_labels,
            regularization=cfg.svm_regularization,
            epochs=cfg.svm_epochs,
            seed=[cfg.seed, zlib.crc32(s.id.encode()), 1],
        )
        plan.svm[s.id] = svm
        predictions = [
            svm.labels[int(np.argmax(svm_score(svm, x, normalize=False).values))]
            for x in projected[key]
        ]
        correct = sum(p == y for p, y in zip(predictions, stream_labels))
        report.per_stream[s.id] = correct / len(stream_labels)
    report.warnings = tuple(warnings)
    plan.train_report = report
    for w in warnings:
        log.warning("%s", w)
    return plan


# ---------------------------------------------------------------------------
# Classification and evaluation


@dataclass(frozen=True)
class ReportRow:
    """One classified sample, as consumed by evaluate."""

    truth: str
    predicted: str
    stream_predictions: dict[str, str]


def classify(
    rec: SampleRecord, plan: StreamPlan, extracted: ExtractResult | None = None
) -> tuple[str, ScoreVector, ReportRow]:
    """Fuse every trained stream of the sample's pose bank into one label.

    Depth stream scores are averaged into one vector, appearance stream
    scores into another, and the final vector is the mean of the two
    (depth alone when no appearance stream produced a score).  The label
    is the argmax, ties broken toward the lowest class index.

    extracted is rec's extract_sample result, as evaluate passes it from
    its loop.  When it is None, classify extracts rec in this process: a
    pool forked for one sample costs more than it saves.
    """
    cfg = plan.cfg
    plan._check_trained_for(rec.pose)
    if extracted is None:
        extracted = extract_sample(rec, plan)
    normalize = cfg.score_mode == "softmax"
    dmm_scores: list[ScoreVector] = []
    rgb_scores: list[ScoreVector] = []
    stream_predictions: dict[str, str] = {}
    projected: dict[str, list[np.ndarray]] = {}
    for s in plan.streams:
        if s.pose != rec.pose:
            continue
        feats = extracted.features.get(s.slot)
        if not feats or s.id not in plan.svm:
            continue
        if s.slot not in projected:
            projected[s.slot] = [pca_project(plan.pca[s.slot], f) for f in feats]
        clip_scores = [
            svm_score(plan.svm[s.id], x, normalize=normalize) for x in projected[s.slot]
        ]
        score = fuse_scores(clip_scores)
        stream_predictions[s.id] = plan.labels[int(np.argmax(score.values))]
        (dmm_scores if s.kind == "dmm" else rgb_scores).append(score)
    if not dmm_scores and not rgb_scores:
        raise ContractError(
            f"no stream produced a score for {rec.depth_path}; sequence too short"
        )
    sides = []
    if rgb_scores:
        sides.append(fuse_scores(rgb_scores))
    if dmm_scores:
        sides.append(fuse_scores(dmm_scores))
    fused = fuse_scores(sides)
    predicted = plan.labels[int(np.argmax(fused.values))]
    return predicted, fused, ReportRow(rec.label, predicted, stream_predictions)


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary over the test side of a split.

    confusion is row-stochastic in percent (rows = truth); rows of
    classes with no test samples are all zero.
    """

    labels: tuple[str, ...]
    counts: np.ndarray
    confusion: np.ndarray
    per_class: tuple[float, ...]
    overall: float
    split_description: str
    per_stream_accuracy: dict[str, float]
    n_test: int

    def to_csv(self) -> str:
        lines = [f"overall_accuracy,{self.overall:.6f}", f"n_test,{self.n_test}"]
        lines.append(f"split,{self.split_description}")
        lines.append("truth\\prediction," + ",".join(self.labels))
        for i, lab in enumerate(self.labels):
            lines.append(
                f"{lab}," + ",".join(f"{v:.6f}" for v in self.confusion[i])
            )
        for lab, acc in zip(self.labels, self.per_class):
            lines.append(f"per_class_accuracy,{lab},{acc:.6f}")
        for sid, acc in self.per_stream_accuracy.items():
            lines.append(f"stream_accuracy,{sid},{acc:.6f}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        width = max(len(lab) for lab in self.labels) + 2
        lines = [
            f"split: {self.split_description}",
            f"test samples: {self.n_test}",
            f"overall accuracy: {self.overall:.4f}",
            "",
            " " * width + "".join(f"{lab:>{width}}" for lab in self.labels),
        ]
        for i, lab in enumerate(self.labels):
            row = "".join(f"{v:>{width}.1f}" for v in self.confusion[i])
            lines.append(f"{lab:<{width}}" + row)
        lines.append("")
        for lab, acc in zip(self.labels, self.per_class):
            lines.append(f"{lab}: {acc:.4f}")
        return "\n".join(lines) + "\n"

    @property
    def best_stream_accuracy(self) -> float:
        return max(self.per_stream_accuracy.values(), default=0.0)


def evaluate(
    records: list[SampleRecord], split: Split, plan: StreamPlan
) -> EvalReport:
    """Classify the test side of a split and tabulate the results.

    Every index, test label and test pose is checked before anything is
    classified.  The test records are extracted in split order through
    _extracted, in a fork pool open for this loop only, and each record's
    result is passed to one pipeline.classify call made here, which scores
    it.
    """
    if not plan.trained:
        raise StateError("plan is untrained; run train first")
    if not split.test_indices:
        raise ProtocolError("split has an empty test side")
    _check_indices(len(records), split.train_indices, split.test_indices)
    labels = plan.labels
    index = {lab: i for i, lab in enumerate(labels)}
    test_records = [records[i] for i in split.test_indices]
    for rec in test_records:
        if rec.label not in index:
            raise ProtocolError(f"test label {rec.label!r} was not in the training set")
        plan._check_trained_for(rec.pose)
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    stream_hits: dict[str, int] = {}
    stream_totals: dict[str, int] = {}
    with closing(_extracted(plan, test_records)) as results:
        for rec, result in results:
            _, _, row = classify(rec, plan, extracted=result)
            counts[index[row.truth], index[row.predicted]] += 1
            for sid, pred in row.stream_predictions.items():
                stream_totals[sid] = stream_totals.get(sid, 0) + 1
                stream_hits[sid] = stream_hits.get(sid, 0) + (pred == row.truth)
    row_sums = counts.sum(axis=1)
    confusion = np.zeros_like(counts, dtype=np.float64)
    nonzero = row_sums > 0
    confusion[nonzero] = 100.0 * counts[nonzero] / row_sums[nonzero, None]
    per_class = tuple(
        float(counts[i, i] / row_sums[i]) if row_sums[i] else 0.0
        for i in range(len(labels))
    )
    overall = float(np.trace(counts) / counts.sum())
    per_stream = {
        sid: stream_hits[sid] / stream_totals[sid]
        for sid in sorted(stream_totals)
    }
    return EvalReport(
        labels=labels,
        counts=counts,
        confusion=confusion,
        per_class=per_class,
        overall=overall,
        split_description=split.description,
        per_stream_accuracy=per_stream,
        n_test=len(split.test_indices),
    )


# ---------------------------------------------------------------------------
# Plan persistence


def _model_filename(slot: str) -> str:
    return slot.replace("/", "__") + ".models"


def save_plan(plan: StreamPlan, out_dir: str | Path) -> Path:
    """Persist config, labels, and one model file per trained slot under out_dir.

    A slot's file holds its PCA once and the SVM of each of its streams.
    Model files left in out_dir by an earlier save are deleted.  Network
    weights are not stored; they rebuild from (seed, stream id).
    """
    if plan.labels is None:
        raise StateError("cannot save an untrained plan")
    files = {
        _model_filename(key): (pca, [plan.svm[s.id] for s in plan.streams if s.slot == key])
        for key, pca in plan.pca.items()
    }
    out = Path(out_dir)
    streams_dir = out / "streams"
    streams_dir.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(plan.cfg), encoding="utf-8")
    (out / "labels.txt").write_text("\n".join(plan.labels) + "\n", encoding="utf-8")
    for name, (pca, svms) in files.items():
        save_models(streams_dir / name, pca, svms)
    for stale in streams_dir.glob("*.models"):
        if stale.name not in files:
            stale.unlink()
    return out


def load_plan(plan_dir: str | Path) -> StreamPlan:
    """Rebuild a trained plan saved by save_plan."""
    root = Path(plan_dir)
    for path in (root / "config.txt", root / "labels.txt"):
        if not path.is_file():
            raise FormatError(f"plan file {path} is missing")
    cfg = load_config(root / "config.txt")
    plan = build_streams(cfg)
    plan.labels = tuple(read_text(root / "labels.txt").splitlines())
    if len(plan.labels) < 2 or len(set(plan.labels)) < len(plan.labels):
        raise FormatError(
            f"labels.txt lists {list(plan.labels)}; a trained plan has 2 or more distinct labels"
        )
    for key in dict.fromkeys(s.slot for s in plan.streams):
        path = root / "streams" / _model_filename(key)
        if path.exists():
            pca, svms = load_models(path)
            members = [s.id for s in plan.streams if s.slot == key]
            if len(svms) != len(members) or svms[0].labels != plan.labels:
                raise FormatError(
                    f"{path.name} holds {len(svms)} SVMs of classes {list(svms[0].labels)}, "
                    f"but slot {key} has {len(members)} streams and labels.txt lists "
                    f"{list(plan.labels)}"
                )
            plan.pca[key] = pca
            plan.svm.update(zip(members, svms))
    if not plan.svm:
        strays = sorted((root / "streams").glob("*.models"))
        if strays:
            raise FormatError(
                f"{strays[0].name} is not a model file of this config: the plan was "
                "saved before model format 2 and must be retrained"
            )
        raise StateError(f"no stream models found under {root}")
    return plan
