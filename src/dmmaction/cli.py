"""Command-line entry points for the action recognition pipeline.

Subcommands cover the whole workflow: generate a synthetic dataset,
extract features, train a plan, evaluate it under a split protocol,
classify individual samples, and export rendered motion-map images.
Each subcommand accepts only the flags it reads: eval and classify take
their config from the plan, and only extract and train build one.
"""

from __future__ import annotations

import argparse
import io
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, load_config, parse_window
from .errors import ConfigError, DmmActionError, EmptyInputError
from .pipeline import (
    _flow_weights,
    _plane_maps,
    _views,
    build_streams,
    classify,
    evaluate,
    extract_sample,
    load_plan,
    read_manifest,
    render_templates,
    resolve_split,
    save_plan,
    train,
)
from .synth import SynthSpec, generate_synthetic_dataset
from .videoio import read_depth_bin, write_image

log = logging.getLogger(__name__)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The flags _load_cfg reads, for the subcommands that build a plan."""
    parser.add_argument("--config", type=Path, help="pipeline config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--pose-bank", help="restrict to one pose bank")
    parser.add_argument("--angles", help="comma-separated view angles, e.g. -30,0,30")
    parser.add_argument("--windows", help="comma-separated depth windows, e.g. 5,10,all")


def _angle(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"bad angle {token!r}: expected a number of degrees") from None


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.pose_bank is not None:
        updates["poses"] = (args.pose_bank,)
    if args.angles is not None:
        updates["angles"] = tuple(_angle(a) for a in args.angles.split(","))
    if args.windows is not None:
        updates["depth_windows"] = tuple(parse_window(w) for w in args.windows.split(","))
    return replace(cfg, **updates) if updates else cfg


def _filter_pose(records, args):
    if args.pose_bank is not None:
        records = [r for r in records if r.pose == args.pose_bank]
        if not records:
            raise EmptyInputError(
                f"manifest {args.manifest} has no record in pose bank {args.pose_bank!r}"
            )
    return records


def _resolve(args, records):
    subjects, cameras = args.train_subjects, args.train_cameras
    return resolve_split(
        records,
        args.split,
        train_subjects=None if subjects is None else tuple(subjects.split(",")),
        train_cameras=None if cameras is None else tuple(cameras.split(",")),
    )


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--split",
        default="cross-subject",
        choices=["cross-subject", "cross-view", "one-third", "two-thirds"],
    )
    parser.add_argument("--train-subjects", help="comma-separated subject ids for train")
    parser.add_argument("--train-cameras", help="comma-separated camera ids for train")


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        actions=tuple(args.actions.split(",")),
        subjects=args.subjects,
        cameras=args.cameras,
        frames=args.frames,
        width=args.width,
        height=args.height,
        noise=args.noise,
        jitter=args.jitter,
    )
    manifest = generate_synthetic_dataset(args.out, spec, seed=args.seed)
    print(manifest)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    records = _filter_pose(read_manifest(args.manifest), args)
    plan = build_streams(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(records):
        result = extract_sample(rec, plan)
        arrays = {}
        for slot, feats in result.features.items():
            for j, f in enumerate(feats):
                arrays[f"{slot}|{j}"] = f
        np.savez(out / f"sample_{i:04d}.npz", **arrays)
        for w in result.warnings:
            log.warning("%s", w)
        log.info("sample %d: %d clip features", i, len(arrays))
    print(out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    records = _filter_pose(read_manifest(args.manifest), args)
    split = _resolve(args, records)
    plan = train(records, split, cfg)
    save_plan(plan, args.out)
    report = plan.train_report
    for sid in sorted(report.per_stream):
        log.info("stream %s: train accuracy %.3f", sid, report.per_stream[sid])
    print(
        f"trained {len(plan.svm)} of {len(plan.streams)} streams "
        f"on {report.n_train} samples -> {args.out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    records = _filter_pose(read_manifest(args.manifest), args)
    split = _resolve(args, records)
    report = evaluate(records, split, plan)
    if args.out:
        Path(args.out).write_text(report.to_csv(), encoding="utf-8")
        log.info("wrote %s", args.out)
    print(report.to_text(), end="")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    records = _filter_pose(read_manifest(args.manifest), args)
    if args.index is not None and not 0 <= args.index < len(records):
        raise ConfigError(f"--index must be in [0, {len(records)}), got {args.index}")
    chosen = records if args.index is None else [records[args.index]]
    for rec in chosen:
        label, score, _ = classify(rec, plan)
        peak = float(np.max(score.values))
        print(f"{rec.depth_path}\t{label}\t{peak:.4f}")
    return 0


def _cmd_render_dmm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    window = parse_window(args.window)
    seq = read_depth_bin(args.depth)
    # The steps an (angle, plane) unit of extract_sample runs, for one template.
    ((_, projected),) = _views(seq, cfg, [args.angle])
    maps = _plane_maps(projected, args.plane)
    (image,) = render_templates(maps, _flow_weights(maps, cfg), window, cfg, [args.t])
    write_image(image, args.out)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmmaction",
        description="Multi-view motion-map action recognition pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SynthSpec()
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--actions", default=",".join(spec.actions))
    p.add_argument("--subjects", type=int, default=spec.subjects)
    p.add_argument("--cameras", type=int, default=spec.cameras)
    p.add_argument("--frames", type=int, default=spec.frames)
    p.add_argument("--width", type=int, default=spec.width)
    p.add_argument("--height", type=int, default=spec.height)
    p.add_argument("--noise", type=float, default=spec.noise)
    p.add_argument("--jitter", type=float, default=spec.jitter)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract per-slot clip features to .npz files")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a stream plan")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path, help="plan output directory")
    _add_config_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained plan")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--plan", required=True, type=Path)
    p.add_argument("--out", type=Path, help="CSV report path")
    p.add_argument("--pose-bank", help="evaluate only this pose bank's records")
    _add_split_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="classify manifest samples")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--plan", required=True, type=Path)
    p.add_argument("--index", type=int, help="classify only this record")
    p.add_argument("--pose-bank", help="classify only this pose bank's records")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("render-dmm", help="export one rendered motion map")
    p.add_argument("--depth", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--plane", default="xy", choices=["xy", "yz", "xz"])
    p.add_argument("--window", default="all")
    p.add_argument("--angle", type=float, default=0.0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--config", type=Path, help="pipeline config file")
    p.set_defaults(func=_cmd_render_dmm)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    # Labels come from user files; a terminal that cannot show them gets
    # escapes instead of an encoding error.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DmmActionError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
