"""In-memory span tracing around the public functions of each dmmaction layer.

A Tracer replaces module attributes with thin wrappers at the names their
callers resolve (for example `dmmaction.pipeline.estimate_flow`, which the
pipeline imported by name, or `dmmaction.neural.conv3d_forward`, which
`run_layers` looks up in its own module).  Each wrapped call appends one
span (name, start, end, parent index, sample id) to a list and bumps the
exact counters derived from its arguments and result.  Nothing is written
while tracing; `restore()` puts every original attribute back.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter

from dmmaction.dmm import effective_window
from dmmaction.motion import DEFAULT_ITERATIONS
from dmmaction.neural import MaxPool3d

# Span fields, in order.
NAME, START, END, PARENT, SAMPLE = range(5)


def _sample_id(rec) -> str:
    """Short record id: action/subject/camera of the depth file's directory."""
    return "/".join(Path(rec.depth_path).parts[-4:-1])


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


# --- exact counters, computed after the wrapped call returns ---------------


def _count_view(t, result, seq, *_a, **_k):
    t.counts["geometry.synthesize_view_frames"] += len(seq.frames)


def _count_project(t, result, *_a, **_k):
    t.counts["geometry.project_frames"] += 1


def _count_flow(t, result, a, *args, **kwargs):
    iterations = args[1] if len(args) > 1 else kwargs.get("iterations", DEFAULT_ITERATIONS)
    t.counts["motion.flow_pairs"] += 1
    t.counts["motion.flow_pixel_iters"] += int(a.size) * int(iterations)


def _count_accumulate(t, result, *args, **kwargs):
    maps = _arg(args, kwargs, 0, "maps")
    start = _arg(args, kwargs, 2, "t")
    window = _arg(args, kwargs, 3, "window")
    t.counts["dmm.accumulate_terms"] += effective_window(len(maps), start, window)


def _count_render(t, result, *_a, **_k):
    t.counts["dmm.render_templates"] += 1


def _count_build(t, result, *_a, **kwargs):
    t.counts["neural.builds"] += 1
    t.build_names.add(kwargs.get("name", result.name))


def _count_forward(t, result, *_a, **_k):
    t.counts["neural.forward_clips"] += 1


def _count_conv(t, out, x, layer):
    j, m, kr, kp, kq = layer.weights.shape
    t.counts["neural.conv_flops"] += 2 * int(out.size) * m * kr * kp * kq
    elements = x.size + layer.weights.size + layer.bias.size + out.size
    t.counts["neural.conv_bytes"] += 8 * int(elements)


def _count_pca(t, result, samples, *_a, **_k):
    digest = hashlib.sha1()
    for s in samples:
        digest.update(getattr(s, "values", s).tobytes())
    t.counts["learn.pca_fits"] += 1
    t.pca_inputs.add(digest.hexdigest())


def _count_models_io(t, result, path, *_a, **_k):
    t.counts["learn.models_bytes"] += Path(path).stat().st_size


# (module, attribute, span name, counter): every name the pipeline resolves.
# The neural layer spans ("neural.conv1", "neural.pool2", ...) are named
# after the layer and created by the conv/pool wrappers below.
TARGETS = (
    ("dmmaction.pipeline", "read_depth_bin", "videoio.read", None),
    ("dmmaction.pipeline", "read_rgb_sequence", "videoio.read", None),
    ("dmmaction.pipeline", "sequence_centroid", "geometry.centroid", None),
    ("dmmaction.pipeline", "synthesize_view", "geometry.synthesize_view", _count_view),
    ("dmmaction.pipeline", "project_cartesian", "geometry.project", _count_project),
    ("dmmaction.pipeline", "estimate_flow", "motion.flow", _count_flow),
    ("dmmaction.pipeline", "flow_magnitude", "motion.magnitude", None),
    ("dmmaction.pipeline", "normalize_magnitude", "motion.magnitude", None),
    ("dmmaction.dmm", "accumulate_ramdmm", "dmm.accumulate", _count_accumulate),
    ("dmmaction.dmm", "render_template", "dmm.render", _count_render),
    ("dmmaction.pipeline", "stack_clip", "dmm.clip", None),
    ("dmmaction.pipeline", "desk_network", "neural.build", _count_build),
    ("dmmaction.pipeline", "c3d_network", "neural.build", _count_build),
    ("dmmaction.pipeline", "extract_features", "neural.forward", _count_forward),
    ("dmmaction.neural", "clip_to_tensor", "neural.tensor", None),
    ("dmmaction.pipeline", "pca_fit", "learn.pca_fit", _count_pca),
    ("dmmaction.pipeline", "svm_train", "learn.svm_train", None),
    ("dmmaction.pipeline", "pca_project", "learn.score", None),
    ("dmmaction.pipeline", "svm_score", "learn.score", None),
    ("dmmaction.pipeline", "fuse_scores", "learn.score", None),
    ("dmmaction.pipeline", "save_models", "learn.models_io", _count_models_io),
    ("dmmaction.pipeline", "load_models", "learn.models_io", _count_models_io),
    ("dmmaction.pipeline", "extract_sample", "pipeline.extract", None),
    ("dmmaction.pipeline", "train", "pipeline.train", None),
    ("dmmaction.pipeline", "evaluate", "pipeline.evaluate", None),
    ("dmmaction.pipeline", "classify", "pipeline.classify", None),
    ("dmmaction.pipeline", "save_plan", "pipeline.save_plan", None),
    ("dmmaction.pipeline", "load_plan", "pipeline.load_plan", None),
)

# Spans that carry a record as their first argument and set the sample id.
_PER_SAMPLE = {"pipeline.extract", "pipeline.classify"}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.build_names: set[str] = set()
        self.pca_inputs: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sample: str | None = None
        self._pool_names: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a fresh cycle: drop spans and counters, keep the wrappers."""
        self.spans = []
        self.counts = Counter()
        self.build_names = set()
        self.pca_inputs = set()

    # -- span recording -----------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        """Call fn inside a new span that is a child of the open one."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._sample]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        per_sample = name in _PER_SAMPLE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._sample
            if per_sample:
                self._sample = _sample_id(args[0])
            try:
                result = self._call(name, fn, args, kwargs)
            finally:
                self._sample = outer
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    def _wrap_conv(self, fn):
        @functools.wraps(fn)
        def conv3d_forward(x, layer):
            out = self._call(f"neural.{layer.name}", fn, (x, layer), {})
            _count_conv(self, out, x, layer)
            return out

        return conv3d_forward

    def _wrap_pool(self, fn):
        @functools.wraps(fn)
        def maxpool3d(x, kernel, stride):
            name = self._pool_names.pop(0) if self._pool_names else "pool"
            return self._call(f"neural.{name}", fn, (x, kernel, stride), {})

        return maxpool3d

    def _wrap_run_layers(self, fn):
        # No span of its own: it only tells the pool wrapper the layer names,
        # since maxpool3d receives a kernel and stride but no layer.
        @functools.wraps(fn)
        def run_layers(x, net):
            self._pool_names = [l.name for l in net.layers if isinstance(l, MaxPool3d)]
            return fn(x, net)

        return run_layers

    # -- installation -------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name, count in TARGETS:
            self._patch(module_name, attr, lambda f, n=name, c=count: self._wrap(f, n, c))
        self._patch("dmmaction.neural", "conv3d_forward", self._wrap_conv)
        self._patch("dmmaction.neural", "maxpool3d", self._wrap_pool)
        self._patch("dmmaction.neural", "run_layers", self._wrap_run_layers)
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
