"""The benchmark's workloads: generated inputs, set-up and one unit of work.

Every input comes from `generate_synthetic_dataset` under the workload
seed; the pipeline only ever sees the generated files.  Sizes are chosen
so that a run fits the benchmark's time budget on a 2-core machine while
each workload keeps the layer mix it was chosen for (see README.md).

Two kinds of workload share one interface:
  * train-eval (`desk-bench`, `c3d-clip`): set-up synthesizes the data;
    a cycle is `train()` then `evaluate()` in memory.
  * cold classify (`classify-cold`): set-up synthesizes the data, trains
    on a pinned train side and saves the plan; a cycle is one held-out
    record classified by `load_plan()` and `classify()` on a fresh plan.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from dmmaction import (
    ALL,
    DmmActionError,
    PipelineConfig,
    SynthSpec,
    generate_synthetic_dataset,
    read_manifest,
    resolve_split,
)
from dmmaction import pipeline


def desk_config(**overrides) -> PipelineConfig:
    """The small `desk` config the acceptance suite builds on."""
    base = dict(
        poses=("standing",),
        angles=(0.0, 30.0),
        depth_windows=(5,),
        rgb_windows=(10,),
        clip_len=8,
        render_size=(32, 32),
        depth_bin_mm=40.0,
        depth_bin_count=64,
        flow_iterations=30,
        network_preset="desk",
        svm_epochs=300,
    )
    base.update(overrides)
    return PipelineConfig(**base)


# Acceptance criterion 7: dataset shape and config of the synthetic benchmark.
CRITERION7_SPEC = SynthSpec(
    actions=("slide", "bob", "arc"),
    subjects=6,
    cameras=2,
    noise=40.0,
    jitter=0.5,
    camera_step_deg=45.0,
)
CRITERION7_CFG = desk_config(
    poses=("standing",),
    angles=(-30.0, 0.0, 30.0),
    depth_windows=(5, ALL),
    rgb_windows=(10, 16),
    pca_target=3,
    svm_epochs=45,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train-eval" | "cold"
    why: str
    spec: SynthSpec
    cfg: PipelineConfig
    # Train subjects of the split; None means the default cross-subject halves.
    train_subjects: tuple[str, ...] | None = None
    # Cold classify: fewest latency samples a run takes, and the tail
    # percentile it reports (at least 10 samples lie beyond it).
    min_samples: int = 1
    tail_pct: int = 50

    def inputs(self) -> dict:
        return {
            "spec": _plain(asdict(self.spec)),
            "config": _plain(asdict(self.cfg)),
            "train_subjects": self.train_subjects,
        }


def _plain(d: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}


def _workloads(size: str) -> dict[str, Workload]:
    """Workload table for one size: "bench" (timed runs) or "tiny" (smoke tests)."""
    tiny = size == "tiny"
    desk_spec = replace(CRITERION7_SPEC, subjects=2)
    desk_cfg = CRITERION7_CFG
    c3d_spec = replace(CRITERION7_SPEC, actions=("slide", "bob"), subjects=2, cameras=1, frames=20)
    c3d_cfg = replace(
        CRITERION7_CFG,
        angles=(0.0,),
        planes=("xy",),
        depth_windows=(ALL,),
        rgb_windows=(),
        clip_len=16,
        pca_target=1,
        network_preset="c3d",
        render_size=(112, 112),
    )
    cold_spec = replace(CRITERION7_SPEC, subjects=8, cameras=1, frames=32, width=32, height=24)
    cold_cfg = replace(CRITERION7_CFG, angles=(0.0,), depth_windows=(ALL,), rgb_windows=())
    min_samples, tail_pct = 40, 75
    if tiny:
        desk_spec = replace(desk_spec, cameras=1, frames=12)
        desk_cfg = replace(
            desk_cfg, rgb_windows=(4,), clip_len=4, flow_iterations=5, pca_target=2, svm_epochs=5
        )
        c3d_spec = replace(c3d_spec, frames=18)
        c3d_cfg = replace(c3d_cfg, render_size=(32, 32), fc_units=16, svm_epochs=5)
        cold_spec = replace(cold_spec, subjects=3, frames=12)
        cold_cfg = replace(cold_cfg, clip_len=4, flow_iterations=5, svm_epochs=5)
        min_samples, tail_pct = 6, 50
    return {
        "desk-bench": Workload(
            "desk-bench",
            "train-eval",
            "criterion-7 config on a 12-record roster; flow-bound (~70 %), so "
            "flow, render and PCA-dedupe gains show here",
            desk_spec,
            desk_cfg,
        ),
        "c3d-clip": Workload(
            "c3d-clip",
            "train-eval",
            "canonical c3d network at 112x112; CNN and network rebuilds dominate "
            "and flow is ~3 %, so flow changes must not move it",
            c3d_spec,
            c3d_cfg,
        ),
        "classify-cold": Workload(
            "classify-cold",
            "cold",
            "one record per fresh load_plan + classify, as `dmmaction classify "
            "--index i` does; single-sample latency and plan I/O, no batching",
            cold_spec,
            cold_cfg,
            train_subjects=("s00",),
            min_samples=min_samples,
            tail_pct=tail_pct,
        ),
    }


WORKLOADS = _workloads("bench")
TINY_WORKLOADS = _workloads("tiny")
# `--full`: criterion 7 exactly, for the report fingerprint and its gates.
FULL_DESK = replace(WORKLOADS["desk-bench"], spec=CRITERION7_SPEC)


# --- set-up -----------------------------------------------------------------


@dataclass
class Prepared:
    """What set-up leaves for the timed part."""

    records: list
    split: object
    plan_dir: Path | None = None
    train_s: float | None = None
    plan_sha256: str | None = None


def _split(w: Workload, records):
    if w.train_subjects is None:
        return resolve_split(records, "cross-subject")
    return resolve_split(records, "cross-subject", train_subjects=w.train_subjects)


def setup(w: Workload, seed: int, work_dir: Path) -> Prepared:
    """Synthesize the inputs; for cold classify also train and save the plan."""
    records = read_manifest(generate_synthetic_dataset(work_dir / "data", w.spec, seed=seed))
    split = _split(w, records)
    if w.kind != "cold":
        return Prepared(records, split)
    t0 = time.perf_counter()
    plan = pipeline.train(records, split, w.cfg)
    train_s = time.perf_counter() - t0
    plan_dir = pipeline.save_plan(plan, work_dir / "plan")
    return Prepared(records, split, plan_dir, train_s, _tree_sha256(plan_dir))


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --- one unit of work -------------------------------------------------------


@dataclass
class Cycle:
    """Result of one unit of work."""

    output: bytes
    seconds: float
    latencies: list[float] = field(default_factory=list)
    train_s: float = 0.0
    eval_s: float = 0.0
    n_train: int = 0
    n_test: int = 0
    correct: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@contextmanager
def _timing(attr: str, sink: list[float]):
    """Patch pipeline.<attr> to record each call's seconds in sink."""
    inner = getattr(pipeline, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(pipeline, attr, timed)
    try:
        yield
    finally:
        setattr(pipeline, attr, inner)


def train_eval_cycle(w: Workload, prep: Prepared) -> Cycle:
    """train() then evaluate(), in memory; the output is the report CSV."""
    latencies: list[float] = []
    t0 = time.perf_counter()
    plan = pipeline.train(prep.records, prep.split, w.cfg)
    t1 = time.perf_counter()
    with _timing("classify", latencies):
        report = pipeline.evaluate(prep.records, prep.split, plan)
    t2 = time.perf_counter()
    n_test = len(prep.split.test_indices)
    train_poses = {prep.records[i].pose for i in prep.split.train_indices}
    skipped = [s.id for s in plan.streams if s.pose in train_poses and s.id not in plan.svm]
    cycle = Cycle(
        output=report.to_csv().encode(),
        seconds=t2 - t0,
        latencies=latencies,
        train_s=t1 - t0,
        eval_s=t2 - t1,
        n_train=len(prep.split.train_indices),
        n_test=n_test,
        correct=int(np.trace(report.counts)),
        attempted=len(plan.streams) + n_test,
        failed=len(skipped),
        problems=[f"stream {sid} skipped in training" for sid in skipped],
    )
    cycle.problems += check_report(report, n_test, set(plan.svm))
    return cycle


def check_report(report, n_test: int, trained: set[str]) -> list[str]:
    """Structural checks that hold for any seed."""
    problems = []
    if report.n_test != n_test or int(report.counts.sum()) != n_test:
        problems.append(f"report covers {int(report.counts.sum())} of {n_test} test records")
    rows = report.counts.sum(axis=1) > 0
    if not np.allclose(report.confusion[rows].sum(axis=1), 100.0):
        problems.append("confusion rows do not sum to 100 %")
    if not 0.0 <= report.overall <= 1.0:
        problems.append(f"overall accuracy {report.overall} outside [0, 1]")
    if not set(report.per_stream_accuracy) <= trained:
        problems.append("report scores streams the plan never trained")
    return problems


def criterion7_gates(report_csv: bytes) -> list[str]:
    """Acceptance gates: accuracy >= 0.90, fused strictly above the best stream."""
    lines = report_csv.decode().splitlines()
    overall = float(lines[0].split(",")[1])
    streams = [float(l.rsplit(",", 1)[1]) for l in lines if l.startswith("stream_accuracy,")]
    problems = []
    if overall < 0.90:
        problems.append(f"overall accuracy {overall:.3f} below 0.90")
    if streams and overall <= max(streams):
        problems.append(f"fused {overall:.3f} not above best stream {max(streams):.3f}")
    return problems


def classify_once(w: Workload, prep: Prepared, index: int) -> Cycle:
    """Cold path for one held-out record: load the plan, then classify."""
    rec = prep.records[prep.split.test_indices[index]]
    t0 = time.perf_counter()
    try:
        plan = pipeline.load_plan(prep.plan_dir)
        label, fused, _ = pipeline.classify(rec, plan)
    except DmmActionError as exc:
        seconds = time.perf_counter() - t0
        return Cycle(
            b"", seconds, [seconds], n_test=1, attempted=1, failed=1, problems=[repr(exc)]
        )
    seconds = time.perf_counter() - t0
    problems = []
    values = fused.values
    if not np.all(np.isfinite(values)) or (
        w.cfg.score_mode == "softmax" and abs(float(values.sum()) - 1.0) > 1e-9
    ):
        problems.append(f"{rec.depth_path}: malformed fused scores {values}")
    if label != plan.labels[int(np.argmax(values))]:
        problems.append(f"{rec.depth_path}: label {label} is not the fused argmax")
    return Cycle(
        output=label.encode() + b"\0" + values.tobytes(),
        seconds=seconds,
        latencies=[seconds],
        n_test=1,
        correct=int(label == rec.label),
        attempted=1,
        problems=problems,
    )


def cold_pass(w: Workload, prep: Prepared) -> Cycle:
    """Train and save the plan, then every held-out record once.

    This is the unit of work of a traced cold run, where training must show
    in the per-layer numbers too.
    """
    t0 = time.perf_counter()
    pipeline.save_plan(pipeline.train(prep.records, prep.split, w.cfg), prep.plan_dir)
    parts = [classify_once(w, prep, i) for i in range(len(prep.split.test_indices))]
    return Cycle(
        output=b"".join(p.output for p in parts),
        seconds=time.perf_counter() - t0,
        attempted=sum(p.attempted for p in parts),
        failed=sum(p.failed for p in parts),
        problems=[m for p in parts for m in p.problems],
    )
