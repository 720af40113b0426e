"""Acceptance suite: eight release criteria, one verdict line apiece.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest outcome.  The synthetic benchmark
(criteria 7 and 8) dominates the runtime; everything else finishes in
well under a minute.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from dmmaction import (
    ALL,
    PipelineConfig,
    SynthSpec,
    build_streams,
    evaluate,
    generate_synthetic_dataset,
    read_manifest,
    resolve_split,
    train,
)
from dmmaction.dmm import accumulate_ramdmm
from dmmaction.geometry import (
    Intrinsics,
    PointCloud,
    ProjectedMap,
    RotationSpec,
    depth_to_points,
    points_to_depth,
    rotate_points,
)
from dmmaction.learn import (
    ScoreVector,
    fuse_scores,
    pca_fit,
    pca_project,
    svm_margins,
    svm_score,
    svm_train,
)
from dmmaction.motion import MagnitudeMap, estimate_flow, normalize_magnitude
from dmmaction.neural import (
    Conv3d,
    c3d_network,
    conv3d_forward,
    infer_shapes,
    maxpool3d,
    run_layers,
    stream_rng,
)
from dmmaction.videoio import DepthFrame
from oracles import conv3d_oracle, dmm_oracle, maxpool3d_oracle
from conftest import desk_config

ANGLE_SET = PipelineConfig().angles


@contextmanager
def criterion(num, name, limit_s):
    """Time one criterion and print a single PASS/FAIL line for it."""
    t0 = time.perf_counter()
    info = {}
    try:
        yield info
        elapsed = time.perf_counter() - t0
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s:.0f}s limit"
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL after {time.perf_counter() - t0:.1f}s")
        raise
    detail = info.get("detail", "")
    sep = " " if detail else ""
    print(f"\ncriterion {num} ({name}): PASS {detail}{sep}[{elapsed:.1f}s]")


def test_criterion_1_stream_topology():
    with criterion(1, "stream topology", 1.0) as info:
        cfg = PipelineConfig()
        plan = build_streams(cfg)
        assert len(plan.streams) == 132
        assert len(cfg.angles) == 7
        info["detail"] = f"streams={len(plan.streams)} angles={len(cfg.angles)}"


def test_criterion_2_motion_map_algebra():
    with criterion(2, "motion map algebra", 10.0) as info:
        rng = np.random.default_rng(202)
        # Unit weights give the unweighted map exactly (d * 1.0 == d).
        static = [ProjectedMap("xy", np.full((5, 6), 7.0)) for _ in range(6)]
        ones = [MagnitudeMap(np.ones((5, 6)), normalized=True) for _ in range(5)]
        assert np.array_equal(accumulate_ramdmm(static, ones, 0, ALL).grid, np.zeros((5, 6)))
        assert np.array_equal(accumulate_ramdmm(static, ones, 1, 3).grid, np.zeros((5, 6)))

        cases = 0
        for _ in range(1000):
            n = int(rng.integers(5, 14))
            maps = [
                ProjectedMap("xy", rng.integers(0, 10, (6, 7)).astype(np.float64))
                for _ in range(n)
            ]
            t = int(rng.integers(0, n - 4))
            w = int(rng.integers(4, n - t))
            cut = int(rng.integers(2, w - 1))
            ones = [MagnitudeMap(np.ones((6, 7)), normalized=True) for _ in range(n - 1)]
            whole = accumulate_ramdmm(maps, ones, t, w).grid
            split = (
                accumulate_ramdmm(maps, ones, t, cut).grid
                + accumulate_ramdmm(maps, ones, t + cut, w - cut).grid
            )
            assert np.array_equal(whole, split)
            cases += 1

        frames = rng.integers(0, 30, (7, 6, 7)).astype(np.float64)
        maps = [ProjectedMap("xy", f) for f in frames]
        unit = [MagnitudeMap(np.ones((6, 7)), normalized=True) for _ in range(6)]
        rand = [
            normalize_magnitude(MagnitudeMap(rng.uniform(0.0, 5.0, (6, 7))))
            for _ in range(6)
        ]
        plain = dmm_oracle(frames, 0, ALL)
        assert np.array_equal(accumulate_ramdmm(maps, unit, 0, ALL).grid, plain)
        assert np.all(accumulate_ramdmm(maps, rand, 0, ALL).grid <= plain)
        info["detail"] = f"partitions={cases}"


def test_criterion_3_geometry_round_trip():
    with criterion(3, "geometry round trip", 30.0) as info:
        rng = np.random.default_rng(303)
        for alpha in ANGLE_SET:
            pts = PointCloud(rng.uniform(-2000.0, 2000.0, (500, 3)))
            rotated = rotate_points(pts, RotationSpec(alpha))
            back = rotate_points(rotated, RotationSpec(-alpha))
            assert np.max(np.abs(back.points - pts.points)) < 1e-6
            norms = np.linalg.norm(pts.points, axis=1)
            rel = np.abs(np.linalg.norm(rotated.points, axis=1) - norms) / norms
            assert np.max(rel) < 1e-9

        depth = rng.integers(800, 3000, (24, 32)).astype(np.float64)
        depth[rng.uniform(size=(24, 32)) < 0.4] = 0.0
        frame = DepthFrame(32, 24, depth)
        intr = Intrinsics.default_for(32, 24)
        cloud = rotate_points(depth_to_points(frame, intr), RotationSpec(0.0, 0.0))
        redone = points_to_depth(cloud, intr, (32, 24), fill_holes=False)
        assert np.array_equal(redone.depth[depth > 0], depth[depth > 0])
        info["detail"] = f"angles={len(ANGLE_SET)}"


def test_criterion_4_optical_flow():
    with criterion(4, "optical flow", 30.0) as info:
        gy, gx = np.mgrid[0:24, 0:24].astype(np.float64)
        texture = 120.0 + 60.0 * np.sin(2 * np.pi * gx / 8) * np.sin(2 * np.pi * gy / 8)
        still = estimate_flow(texture, texture)
        assert max(np.max(np.abs(still.ox)), np.max(np.abs(still.oy))) < 1e-6

        a = np.full((24, 24), 120.0)
        b = np.full((24, 24), 120.0)
        a[8:16, 8:16] = texture[8:16, 8:16]
        b[8:16, 8:16] = (120.0 + 60.0 * np.sin(2 * np.pi * (gx - 1) / 8)
                         * np.sin(2 * np.pi * gy / 8))[8:16, 8:16]
        moved = estimate_flow(a, b, iterations=100, smoothness=0.02)
        inner = moved.ox[9:15, 9:15]
        assert 0.8 <= float(np.mean(inner)) <= 1.2

        m = MagnitudeMap(np.random.default_rng(404).uniform(0.0, 9.0, (12, 12)))
        once = normalize_magnitude(m)
        assert np.array_equal(normalize_magnitude(once).g, once.g)
        scaled = normalize_magnitude(MagnitudeMap(m.g * 8.0))
        assert np.array_equal(scaled.g, once.g)
        info["detail"] = f"mean_ox={float(np.mean(inner)):.3f}"


def test_criterion_5_neural_oracles():
    with criterion(5, "neural oracle equivalence", 120.0) as info:
        rng = np.random.default_rng(505)
        conv_cases = 0
        for _ in range(60):
            c_in, c_out = (int(v) for v in rng.integers(1, 5, 2))
            kernel = tuple(int(v) for v in rng.integers(1, 4, 3))
            dims = tuple(int(rng.integers(k, 9)) for k in kernel)
            stride = tuple(int(v) for v in rng.integers(1, 3, 3))
            padding = tuple(int(v) for v in rng.integers(0, 2, 3))
            x = rng.uniform(-1.0, 1.0, (c_in,) + dims)
            w = rng.normal(0.0, 0.3, (c_out, c_in) + kernel)
            b = rng.normal(0.0, 0.1, c_out)
            out = conv3d_forward(x, Conv3d("probe", w, b, stride, padding))
            assert np.max(np.abs(out - conv3d_oracle(x, w, b, stride, padding))) < 1e-6
            assert np.all(np.abs(out) < 1.0)
            conv_cases += 1

        pool_cases = 0
        for _ in range(40):
            c = int(rng.integers(1, 5))
            kernel = tuple(int(v) for v in rng.integers(1, 4, 3))
            dims = tuple(int(rng.integers(k, 9)) for k in kernel)
            stride = tuple(int(v) for v in rng.integers(1, 3, 3))
            x = rng.uniform(-1.0, 1.0, (c,) + dims)
            assert np.array_equal(maxpool3d(x, kernel, stride), maxpool3d_oracle(x, kernel, stride))
            pool_cases += 1

        net = c3d_network(stream_rng(0, "acceptance"))
        x = rng.uniform(0.0, 1.0, (3, 16, 112, 112))
        inferred = infer_shapes(net)
        assert inferred[0] == ("input", (3, 16, 112, 112))
        executed = [(name, out.shape) for name, out in run_layers(x, net)]
        assert inferred[1:] == executed
        info["detail"] = f"conv={conv_cases} pool={pool_cases} layers={len(executed)}"


def test_criterion_6_learning_components():
    with criterion(6, "learning components", 60.0) as info:
        rng = np.random.default_rng(606)
        basis, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        data = rng.normal(size=(40, 3)) * np.array([5.0, 2.0, 1.0]) @ basis.T + 3.0
        model = pca_fit(data, target=3)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6
        recon = pca_project(model, data[7]) @ model.components + model.mean
        assert np.max(np.abs(recon - data[7])) < 1e-6

        cluster = np.random.default_rng(7)
        xs = np.vstack([
            cluster.normal(0.0, 0.3, (20, 4)) + np.array([2.0, 0, 0, 0]),
            cluster.normal(0.0, 0.3, (20, 4)) - np.array([2.0, 0, 0, 0]),
        ])
        ys = ["right"] * 20 + ["left"] * 20
        svm = svm_train(xs, ys, epochs=50, seed=7)
        hits = sum(
            svm.labels[int(np.argmax(svm_margins(svm, x)))] == y
            for x, y in zip(xs, ys)
        )
        assert hits == len(ys)

        agree = 0
        for _ in range(1000):
            v = rng.uniform(-4.0, 4.0, 4)
            soft = int(np.argmax(svm_score(svm, v).values))
            raw = int(np.argmax(svm_margins(svm, v)))
            assert soft == raw
            agree += 1

        one = ScoreVector(np.array([0.2, 0.8]), ("a", "b"))
        two = ScoreVector(np.array([0.4, 0.6]), ("a", "b"))
        assert np.array_equal(fuse_scores([one]).values, one.values)
        assert np.array_equal(fuse_scores([one, two]).values, fuse_scores([two, one]).values)
        fused = fuse_scores([one, two])
        assert np.array_equal(fused.values, np.array([(0.2 + 0.4) / 2, (0.8 + 0.6) / 2]))
        info["detail"] = f"svm_train_acc={hits}/{len(ys)} argmax_cases={agree}"


_BENCH = {}


def _bench_run(tag, factory):
    """Synth + train + evaluate one full benchmark round; cached per tag."""
    if tag not in _BENCH:
        root = factory.mktemp(f"bench_{tag}")
        spec = SynthSpec(
            actions=("slide", "bob", "arc"),
            subjects=6,
            cameras=2,
            noise=40.0,
            jitter=0.5,
            camera_step_deg=45.0,
        )
        records = read_manifest(generate_synthetic_dataset(root, spec, seed=42))
        cfg = desk_config(
            poses=("standing",),
            angles=(-30.0, 0.0, 30.0),
            depth_windows=(5, ALL),
            rgb_windows=(10, 16),
            pca_target=3,
            svm_epochs=45,
        )
        split = resolve_split(records, "cross-subject")
        plan = train(records, split, cfg)
        _BENCH[tag] = evaluate(records, split, plan)
    return _BENCH[tag]


def test_criterion_7_synthetic_benchmark(tmp_path_factory):
    with criterion(7, "synthetic benchmark", 600.0) as info:
        report = _bench_run("a", tmp_path_factory)
        assert report.overall >= 0.90
        assert report.overall > report.best_stream_accuracy
        info["detail"] = (
            f"overall={report.overall:.3f} "
            f"best_stream={report.best_stream_accuracy:.3f}"
        )


def test_criterion_8_determinism(tmp_path_factory):
    with criterion(8, "determinism", 600.0) as info:
        first = _bench_run("a", tmp_path_factory).to_csv()
        second = _bench_run("b", tmp_path_factory).to_csv()
        assert first == second
        info["detail"] = f"csv_bytes={len(first.encode())}"
