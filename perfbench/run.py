#!/usr/bin/env python3
"""Run one benchmark workload of dmmaction and print its metrics.

    python3 perfbench/run.py --workload desk-bench --seed 42 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`.  `--trace 0` measures the end-to-end metrics,
`--trace 1` wraps every layer's public functions and reports per-layer
metrics, the tracing overhead, and checks that tracing leaves the output
bytes unchanged.  `--workload all` runs each workload in its own process.
`--full` runs desk-bench on the full criterion-7 dataset once and enforces
its gates.  `--tiny` shrinks every workload for smoke tests.

Human-readable lines go first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results and,
for traced runs, the spans are also written under `.perfbench_out/` in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = BENCH_DIR / "expected_sha256.json"
NAMES = ("desk-bench", "c3d-clip", "classify-cold")
SETUP_REPS = 3
# BLAS threads: at most two, whatever the machine, so runs stay comparable.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

# (name, unit) of every metric in the JSON line.  End-to-end metrics come
# from untraced runs; per-layer metrics from traced runs, and only those
# that every workload's code path produces (the rest are printed too).
END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("eval_samples_per_s", "1/s"),
    ("classify_p50_s", "s"),
    ("classify_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("videoio.read_s", "s"),
    ("videoio.read_calls", "count"),
    ("geometry.project_s", "s"),
    ("geometry.project_frames", "count"),
    ("motion.flow_s", "s"),
    ("motion.flow_pairs", "count"),
    ("motion.flow_pixel_iters", "count"),
    ("dmm.accumulate_s", "s"),
    ("dmm.accumulate_terms", "count"),
    ("dmm.render_s", "s"),
    ("dmm.render_templates", "count"),
    ("dmm.clip_s", "s"),
    ("neural.build_s", "s"),
    ("neural.builds", "count"),
    ("neural.build_useful_ratio", "ratio"),
    ("neural.forward_s", "s"),
    ("neural.forward_clips", "count"),
    ("neural.conv1_s", "s"),
    ("neural.pool1_s", "s"),
    ("neural.conv2_s", "s"),
    ("neural.pool2_s", "s"),
    ("neural.tensor_s", "s"),
    ("neural.dense_s", "s"),
    ("neural.conv_flops", "flop"),
    ("neural.conv_bytes", "B"),
    ("learn.pca_fit_s", "s"),
    ("learn.pca_fits", "count"),
    ("learn.pca_fit_useful_ratio", "ratio"),
    ("learn.svm_train_s", "s"),
    ("learn.score_s", "s"),
    ("pipeline.extract_s", "s"),
    ("pipeline.extract_self_s", "s"),
    ("pipeline.trace_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
)
# Counters that must repeat exactly from one traced cycle to the next.
EXACT_COUNTERS = (
    "motion.flow_pixel_iters",
    "dmm.accumulate_terms",
    "neural.conv_flops",
    "neural.conv_bytes",
    "neural.builds",
    "neural.build_distinct",
    "learn.pca_fits",
    "learn.pca_fit_distinct",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--full", action="store_true", help="desk-bench on the criterion-7 dataset")
    args = p.parse_args(argv)
    if args.full and (args.workload != "desk-bench" or args.tiny):
        p.error("--full applies to desk-bench only, without --tiny")
    return args


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- untraced: end-to-end metrics --------------------------------------------


def measure(wl, w, prep, seconds, full):
    """Repeat whole units of work while the next is expected to end within
    `seconds` (at least one; cold classify also needs its minimum sample
    count and every held-out record once).

    Returns the cycles, the output bytes, and whether repeats reproduced them.
    """
    start = time.perf_counter()

    def time_left(last: float) -> bool:
        return time.perf_counter() - start + last <= seconds

    cycles = []
    if w.kind == "train-eval":
        while True:
            cycles.append(wl.train_eval_cycle(w, prep))
            if full or not time_left(cycles[-1].seconds):
                break
        output = cycles[0].output
        return cycles, output, all(c.output == output for c in cycles)
    n = len(prep.split.test_indices)
    while True:
        cycles.append(wl.classify_once(w, prep, len(cycles) % n))
        if len(cycles) >= max(n, w.min_samples) and not time_left(cycles[-1].seconds):
            break
    # Repeat visits of a record must reproduce its first-pass bytes.
    first = [c.output for c in cycles[:n]]
    return cycles, b"".join(first), all(c.output == first[i % n] for i, c in enumerate(cycles))


# --- traced: per-layer metrics -----------------------------------------------


def run_cycle(wl, w, prep):
    if w.kind == "train-eval":
        return wl.train_eval_cycle(w, prep)
    return wl.cold_pass(w, prep)


def layer_metrics(sp, tracer, wall, preset):
    """Per-layer numbers of one traced cycle, from its spans and counters."""
    total = defaultdict(float)
    own_by = defaultdict(float)
    calls = Counter()
    for span, own in zip(tracer.spans, sp.self_times(tracer.spans)):
        name = span[sp.NAME]
        total[name] += span[sp.END] - span[sp.START]
        own_by[name] += own
        calls[name] += 1
    c = tracer.counts
    builds, fits = c["neural.builds"], c["learn.pca_fits"]
    m = {
        "videoio.read_s": total["videoio.read"],
        "videoio.read_calls": calls["videoio.read"],
        # The rotation pivot is part of view synthesis.
        "geometry.synthesize_view_s": (
            total["geometry.synthesize_view"] + total["geometry.centroid"]
        ),
        "geometry.synthesize_view_frames": c["geometry.synthesize_view_frames"],
        "geometry.project_s": total["geometry.project"],
        "geometry.project_frames": c["geometry.project_frames"],
        "motion.flow_s": total["motion.flow"],
        "motion.flow_pairs": c["motion.flow_pairs"],
        "motion.flow_pixel_iters": c["motion.flow_pixel_iters"],
        "motion.magnitude_s": total["motion.magnitude"],
        "dmm.accumulate_s": total["dmm.accumulate"],
        "dmm.accumulate_terms": c["dmm.accumulate_terms"],
        "dmm.render_s": total["dmm.render"],
        "dmm.render_templates": c["dmm.render_templates"],
        "dmm.clip_s": total["dmm.clip"],
        "neural.build_s": total["neural.build"],
        "neural.builds": builds,
        "neural.build_distinct": len(tracer.build_names),
        "neural.build_useful_ratio": len(tracer.build_names) / builds if builds else 0.0,
        "neural.forward_s": total["neural.forward"],
        "neural.forward_clips": c["neural.forward_clips"],
        "neural.tensor_s": total["neural.tensor"],
        # The forward span's self time: dense layers, flatten and glue.
        "neural.dense_s": own_by["neural.forward"],
        "neural.conv_flops": c["neural.conv_flops"],
        "neural.conv_bytes": c["neural.conv_bytes"],
        "learn.pca_fit_s": total["learn.pca_fit"],
        "learn.pca_fits": fits,
        "learn.pca_fit_distinct": len(tracer.pca_inputs),
        "learn.pca_fit_useful_ratio": len(tracer.pca_inputs) / fits if fits else 0.0,
        "learn.svm_train_s": total["learn.svm_train"],
        "learn.score_s": total["learn.score"],
        "learn.models_io_s": total["learn.models_io"],
        "learn.models_bytes": c["learn.models_bytes"],
        "pipeline.extract_s": total["pipeline.extract"],
        "pipeline.extract_self_s": own_by["pipeline.extract"],
        "pipeline.load_plan_s": total["pipeline.load_plan"],
        "pipeline.trace_coverage": sum(
            v for k, v in own_by.items() if sp.layer_of(k) != "pipeline"
        ) / wall,
    }
    for name in total:
        layer = name.split(".", 1)[1]
        if name.startswith("neural.") and layer[:4] in ("conv", "pool"):
            m[f"neural.{preset}.{layer}_s"] = total[name]
    # The layers both presets share also go by a preset-free name.
    for layer in ("conv1", "pool1", "conv2", "pool2"):
        m[f"neural.{layer}_s"] = total[f"neural.{layer}"]
    module_self = defaultdict(float)
    for name, own in own_by.items():
        module_self[sp.layer_of(name)] += own
    module_self["(untraced)"] = wall - sum(own_by.values())
    return m, dict(module_self)


def traced(wl, sp, w, prep) -> dict:
    """Traced, untraced, traced cycle; per-layer metrics and checks.

    The untraced cycle sits between the traced ones, so drift in machine
    speed cancels from the overhead and warm-up counts against tracing.
    """
    tracer = sp.Tracer()

    def traced_cycle():
        tracer.reset()
        with tracer:
            cycle = run_cycle(wl, w, prep)
        metrics, module_self = layer_metrics(sp, tracer, cycle.seconds, w.cfg.network_preset)
        return cycle, metrics, module_self, tracer.spans

    first = traced_cycle()
    base = run_cycle(wl, w, prep)
    runs = [first, traced_cycle()]
    problems = list(base.problems)
    for cycle, _, _, _ in runs:
        problems += cycle.problems
        if cycle.output != base.output:
            problems.append("traced output differs from the untraced output")
    for name in EXACT_COUNTERS:
        values = [r[1][name] for r in runs]
        if len(set(values)) != 1:
            problems.append(f"counter {name} did not repeat: {values}")
    # Times: mean over traced cycles; counters: identical, take the first.
    values = {
        k: statistics.fmean(r[1][k] for r in runs) if isinstance(v, float) else v
        for k, v in runs[0][1].items()
    }
    traced_s = statistics.fmean(r[0].seconds for r in runs)
    values["bench.trace_overhead"] = traced_s / base.seconds - 1.0
    lines = [
        f"trace: untraced cycle {base.seconds:.3f} s, traced cycle {traced_s:.3f} s, "
        f"overhead {values['bench.trace_overhead']:+.2%}"
    ]
    if tracer.missing:
        lines.append(f"WARNING: not traced, name no longer exists: {tracer.missing}")
    lines.append("self time per module (mean traced cycle):")
    module_self = {k: statistics.fmean(r[2].get(k, 0.0) for r in runs) for k in runs[0][2]}
    for module, secs in sorted(module_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:12s} {secs:10.4f} s  {secs / traced_s:6.1%}")
    return {
        "values": values,
        "reported": PER_LAYER,
        "lines": lines,
        "problems": problems,
        "output": base.output,
        "attempted": base.attempted + sum(r[0].attempted for r in runs),
        "failed": base.failed + sum(r[0].failed for r in runs),
        "spans": [r[3] for r in runs],
    }


def untraced(wl, w, prep, args, setup_s, setup_train_rates) -> dict:
    """End-to-end metrics of one measured stretch of whole cycles."""
    cycles, output, deterministic = measure(wl, w, prep, args.seconds, args.full)
    lat = [x for c in cycles for x in c.latencies]
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    problems = [m for c in cycles for m in c.problems]
    if not deterministic:
        problems.append("repeated cycles gave different outputs")
    if args.full:
        problems += wl.criterion7_gates(output)
    if w.kind == "train-eval":
        train_rate = statistics.median(c.n_train / c.train_s for c in cycles)
        eval_rate = statistics.median(c.n_test / c.eval_s for c in cycles)
    else:
        train_rate = statistics.median(setup_train_rates)
        eval_rate = len(cycles) / sum(c.seconds for c in cycles)
    tail = percentile(lat, w.tail_pct)
    values = {
        "setup_s": setup_s,
        "train_samples_per_s": train_rate,
        "eval_samples_per_s": eval_rate,
        "classify_p50_s": statistics.median(lat),
        "classify_tail_s": tail,
        "peak_rss_mb": peak_rss_mb(),
        "accuracy": sum(c.correct for c in cycles) / sum(c.n_test for c in cycles),
        "error_rate": failed / attempted,
    }
    lines = [
        f"cycles {len(cycles)}; classify latency: p50 and p{w.tail_pct} over {len(lat)} "
        f"samples, {sum(x > tail for x in lat)} beyond p{w.tail_pct}"
    ]
    return {
        "values": values,
        "reported": END_TO_END,
        "lines": lines,
        "problems": problems,
        "output": output,
        "attempted": attempted,
        "failed": failed,
        "cycles": [
            {"train_s": c.train_s, "eval_s": c.eval_s, "latencies": c.latencies} for c in cycles
        ],
    }


# --- reporting ----------------------------------------------------------------


def environment(np, args, w, prep) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": w.name,
        "size": "tiny" if args.tiny else "full" if args.full else "bench",
        "seed": args.seed,
        "seconds": args.seconds,
        "records": len(prep.records),
        "train_records": len(prep.split.train_indices),
        "test_records": len(prep.split.test_indices),
        "inputs": w.inputs(),
    }


def recorded_sha(key: str, seed: int) -> str | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(key, {}).get(str(seed))


def _unit(name: str) -> str:
    units = dict(END_TO_END + PER_LAYER)
    if name in units:
        return units[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if name in ("accuracy", "error_rate") else "count"


def run_one(args) -> int:
    t0 = time.perf_counter()
    import numpy as np

    import spans as sp
    import workloads as wl

    import_s = time.perf_counter() - t0
    # Skipped streams are counted from the plan; keep stderr for real errors.
    logging.getLogger("dmmaction").setLevel(logging.ERROR)
    table = wl.TINY_WORKLOADS if args.tiny else wl.WORKLOADS
    w = wl.FULL_DESK if args.full else table[args.workload]

    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup_times, plan_shas, train_rates = [], set(), []
        for k in range(SETUP_REPS):
            t = time.perf_counter()
            prep = wl.setup(w, args.seed, work / f"setup{k}")
            setup_times.append(time.perf_counter() - t)
            if prep.train_s is not None:
                plan_shas.add(prep.plan_sha256)
                train_rates.append(len(prep.split.train_indices) / prep.train_s)
            if k:
                shutil.rmtree(work / f"setup{k - 1}")
        if args.trace:
            res = traced(wl, sp, w, prep)
        else:
            setup_s = import_s + statistics.median(setup_times)
            res = untraced(wl, w, prep, args, setup_s, train_rates)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(np, args, w, prep)
    problems = res["problems"] + (["set-up trained different plans"] if len(plan_shas) > 1 else [])
    digest = hashlib.sha256(res["output"]).hexdigest()
    flag = " --full" if args.full else " --tiny" if args.tiny else ""
    expected = recorded_sha(w.name + flag, args.seed)
    if args.full and expected != digest:
        problems.append("criterion-7 report differs from the recorded fingerprint")
    values, reported = res["values"], [name for name, _ in res["reported"]]
    match = "not recorded" if expected is None else "yes" if expected == digest else "NO"
    lines = ["env " + json.dumps(env, sort_keys=True), *res["lines"]]
    lines.append(f"output sha256 {digest} (matches recorded: {match})")
    lines += [f"{n} {values[n]!r} {_unit(n)}" for n in reported]
    lines += [f"{n} {values[n]!r} {_unit(n)}" for n in sorted(values) if n not in reported]
    lines += [f"PROBLEM: {msg}" for msg in problems]
    payload = {
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": _unit(n)} for n in reported},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}{flag.replace(' --', '-')}-seed{args.seed}"
    record = dict(payload, env=env, sha256=digest, sha256_recorded=expected,
                  problems=problems, all_metrics=values, cycles=res.get("cycles"))
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans_doc = {"fields": ["name", "start", "end", "parent", "sample"], "cycles": res["spans"]}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans_doc))
    print("\n".join(lines))
    print(json.dumps(payload), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dmmaction" / "__init__.py").is_file():
        print(f"error: no dmmaction sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
