"""The benchmark tracer (perfbench/spans.py) patches pipeline functions by
module attribute name; a renamed or removed name would leave that stage
untraced.  This checks every name it wraps still resolves to a callable."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _tracer_targets():
    spans = _load_spans()
    named = [(module, attr) for module, attr, _span, _count in spans.TARGETS]
    layers = [("dmmaction.neural", n) for n in ("conv3d_forward", "maxpool3d", "run_layers")]
    return named + layers


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_evaluate_calls_classify_through_module_per_test_record(monkeypatch):
    """The benchmark times `classify` by patching `dmmaction.pipeline.classify`
    around `evaluate`; its latency percentiles come from those calls, each
    given its own record's extraction."""
    from dmmaction import PipelineConfig, pipeline
    from dmmaction.pipeline import ExtractResult, ReportRow, SampleRecord, Split

    records = [
        SampleRecord(Path(f"d{i}.bin"), None, "ab"[i % 2], f"s{i}", "c0", "sitting")
        for i in range(6)
    ]
    split = Split("manual", (0, 1), (5, 2, 4), "manual")
    plan = pipeline.build_streams(PipelineConfig())
    plan.labels = ("a", "b")
    plan.svm = {plan.streams[0].id: None}  # a stream of the records' pose
    seen = []

    # The records have no files: each one's result is a stand-in that names it.
    def extract_sample(rec, p):
        assert p is plan
        return ExtractResult(features={}, warnings=(str(rec.depth_path),))

    def classify(rec, p, extracted=None):
        assert p is plan
        seen.append((rec, extracted.warnings))
        return rec.label, None, ReportRow(rec.label, rec.label, {})

    monkeypatch.setattr(pipeline, "extract_sample", extract_sample)
    monkeypatch.setattr(pipeline, "classify", classify)
    report = pipeline.evaluate(records, split, plan)
    test = [records[i] for i in split.test_indices]
    assert seen == [(rec, (str(rec.depth_path),)) for rec in test]
    assert report.n_test == 3


def test_tracer_sees_every_training_extraction(small_dataset):
    """train pools extraction only while `pipeline.extract_sample` is its own;
    under the tracer it extracts in this process, so every record's spans,
    and the counters under them, are recorded."""
    from dmmaction import pipeline, resolve_split
    from conftest import desk_config

    spans = _load_spans()
    split = resolve_split(small_dataset, "cross-subject")
    ids = [spans._sample_id(small_dataset[i]) for i in split.train_indices]
    with spans.Tracer() as tracer:
        pipeline.train(small_dataset, split, desk_config(angles=(0.0,)))
    assert tracer.missing == []
    extracts = [s[spans.SAMPLE] for s in tracer.spans if s[spans.NAME] == "pipeline.extract"]
    assert extracts == ids
    flows = [s[spans.SAMPLE] for s in tracer.spans if s[spans.NAME] == "motion.flow"]
    assert sorted(set(flows)) == sorted(ids)


def test_tracer_sees_every_evaluated_record_in_process(small_dataset):
    """evaluate pools records only while `pipeline.extract_sample` is its
    own; under the tracer each test record runs in this process, so the
    flow span of each of its views and planes is recorded, in split order."""
    from dmmaction import pipeline, resolve_split
    from conftest import desk_config

    spans = _load_spans()
    cfg = desk_config()
    split = resolve_split(small_dataset, "cross-subject")
    plan = pipeline.train(small_dataset, split, cfg)
    ids = [spans._sample_id(small_dataset[i]) for i in split.test_indices]
    with spans.Tracer() as tracer:
        pipeline.evaluate(small_dataset, split, plan)
    assert tracer.missing == []
    flows = [s[spans.SAMPLE] for s in tracer.spans if s[spans.NAME] == "motion.flow"]
    assert len(set(ids)) == len(ids)
    assert flows == [i for i in ids for _ in range(len(cfg.angles) * len(cfg.planes))]


_DESK_LAYERS = ("conv1", "pool1", "conv2", "pool2")
_C3D_LAYERS = (
    *_DESK_LAYERS,
    *("conv3a", "conv3b", "pool3", "conv4a", "conv4b", "pool4", "conv5a", "conv5b", "pool5"),
)


@pytest.mark.parametrize(
    "preset, kwargs, names",
    [
        ("desk_network", {}, _DESK_LAYERS),
        ("c3d_network", dict(height=32, width=32, fc_units=8), _C3D_LAYERS),
    ],
    ids=["desk", "c3d-32"],
)
def test_tracer_names_each_conv_and_pool_once_in_layer_order(preset, kwargs, names):
    """The benchmark reports `neural.<layer>_s` for each conv and pool from
    these spans: conv spans take the layer's name, and pool spans take the
    names of the network's MaxPool3d layers, in order."""
    from dmmaction import neural

    spans = _load_spans()
    net = getattr(neural, preset)(neural.stream_rng(0, f"spans/{preset}"), **kwargs)
    clip = np.zeros((*net.input_shape[1:], 3), dtype=np.uint8)
    with spans.Tracer() as tracer:
        neural.extract_features(clip, net)
    assert tracer.missing == []
    traced = [s[spans.NAME] for s in tracer.spans]
    layers = [n for n in traced if n.startswith(("neural.conv", "neural.pool"))]
    assert layers == [f"neural.{name}" for name in names]


def test_views_count_synthesized_and_projected_frames():
    """_count_view reads `len(seq.frames)` from synthesize_view's first
    argument and _count_project counts project_cartesian calls, so n frames
    viewed at angles (0, 30) count n synthesized and 2n projected frames."""
    from dmmaction import pipeline
    from dmmaction.videoio import DepthSequence
    from conftest import desk_config

    spans = _load_spans()
    n = 5
    frames = np.zeros((n, 12, 16))
    frames[:, 4:8, 5:10] = 1500.0
    with spans.Tracer() as tracer:
        views = list(pipeline._views(DepthSequence(frames), desk_config(), (0.0, 30.0)))
    assert tracer.missing == []
    assert [alpha for alpha, _ in views] == [0.0, 30.0]
    assert tracer.counts["geometry.synthesize_view_frames"] == n
    assert tracer.counts["geometry.project_frames"] == 2 * n


# Leading parameters the tracer's counters and wrappers read, by position or
# by keyword (perfbench/spans.py): (module, function, names).
_READ_PARAMETERS = [
    ("dmmaction.dmm", "accumulate_ramdmm", ("maps", "weights", "t", "window")),
    ("dmmaction.motion", "estimate_flow", ("a", "b", "iterations")),
    ("dmmaction.geometry", "synthesize_view", ("seq",)),
    ("dmmaction.neural", "conv3d_forward", ("x", "layer")),
    ("dmmaction.neural", "maxpool3d", ("x", "kernel", "stride")),
    ("dmmaction.neural", "run_layers", ("x", "net")),
    ("dmmaction.learn", "pca_fit", ("samples",)),
    ("dmmaction.learn", "save_models", ("path",)),
    ("dmmaction.learn", "load_models", ("path",)),
]


@pytest.mark.parametrize(
    "module, attr, names", _READ_PARAMETERS, ids=[attr for _, attr, _ in _READ_PARAMETERS]
)
def test_traced_arguments_keep_their_place(module, attr, names):
    params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    assert tuple(params[: len(names)]) == names


@pytest.mark.parametrize("attr", ["desk_network", "c3d_network"])
def test_network_presets_take_name_keyword(attr):
    """The build counter reads the stream name from the `name` keyword."""
    preset = getattr(importlib.import_module("dmmaction.neural"), attr)
    param = inspect.signature(preset).parameters["name"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
