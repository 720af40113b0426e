"""Smoke tests of the benchmark itself: tiny workloads, metric names and
units, tracer restoration, and the refusal to run without sources.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _check_payload(payload, lines, expected):
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True, [l for l in lines if l.startswith("PROBLEM")]
    assert payload["failed"] == 0 and payload["attempted"] >= 1
    assert list(payload["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        metric = payload["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert f"{name} {metric['value']!r} {unit}" in lines


@pytest.mark.parametrize("workload", run.NAMES)
def test_tiny_untraced_prints_every_end_to_end_metric(workload):
    payload, lines = _result("--workload", workload, "--tiny", "--seconds", "0", "--trace", "0")
    _check_payload(payload, lines, run.END_TO_END)
    for name, _ in run.END_TO_END:
        assert payload["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", run.NAMES)
def test_tiny_traced_prints_every_per_layer_metric(workload):
    payload, lines = _result("--workload", workload, "--tiny", "--seconds", "0", "--trace", "1")
    _check_payload(payload, lines, run.PER_LAYER)
    for name, unit in run.PER_LAYER:
        if unit != "ratio":
            assert payload["metrics"][name]["value"] > 0, name
    assert any(l.startswith("self time per module") for l in lines)
    preset = "c3d" if workload == "c3d-clip" else "desk"
    assert any(l.startswith(f"neural.{preset}.conv2_s ") for l in lines)


def test_tracer_restores_every_wrapped_name():
    targets = [(m, a) for m, a, _, _ in spans.TARGETS] + [
        ("dmmaction.neural", "conv3d_forward"),
        ("dmmaction.neural", "maxpool3d"),
        ("dmmaction.neural", "run_layers"),
    ]
    before = {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert tracer.missing == []
            for (module, attr), original in before.items():
                assert getattr(importlib.import_module(module), attr) is not original
            1 / 0
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_spans_nest_and_self_times_add_up():
    from dmmaction import dmm, pipeline
    from dmmaction.geometry import ProjectedMap

    rng = np.random.default_rng(0)
    maps = [ProjectedMap("xy", rng.uniform(0, 9, (6, 7))) for _ in range(6)]
    tracer = spans.Tracer()
    with tracer:
        weights = [
            pipeline.normalize_magnitude(
                pipeline.flow_magnitude(pipeline.estimate_flow(a.grid, b.grid, iterations=3))
            )
            for a, b in zip(maps, maps[1:])
        ]
        dmm.accumulate_ramdmm(maps, weights, 1, dmm.ALL)
    assert tracer.counts["motion.flow_pairs"] == 5
    assert tracer.counts["motion.flow_pixel_iters"] == 5 * 42 * 3
    assert tracer.counts["dmm.accumulate_terms"] == 4
    assert all(s[spans.PARENT] == -1 for s in tracer.spans)
    total = sum(s[spans.END] - s[spans.START] for s in tracer.spans)
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(total)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-bench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
