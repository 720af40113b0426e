"""Multi-view motion-map action recognition.

Depth sequences are projected onto three Cartesian planes, differenced
over several temporal windows with flow-magnitude weighting, rendered
through a jet colormap, and classified by per-stream 3D convolutional
features + PCA + linear SVMs whose scores are fused by averaging,
together with appearance streams over raw RGB clips.

The package root holds the workflow API and the error types; every other
name is imported from its own module (geometry, motion, dmm, neural,
learn, videoio, config, pipeline, synth).
"""

from .config import PipelineConfig, load_config
from .dmm import ALL
from .errors import (
    ConfigError,
    ContractError,
    DmmActionError,
    EmptyInputError,
    FormatError,
    ParseError,
    ProtocolError,
    RankError,
    StateError,
)
from .pipeline import (
    build_streams,
    classify,
    evaluate,
    extract_sample,
    load_plan,
    read_manifest,
    resolve_split,
    save_plan,
    train,
)
from .synth import SynthSpec, generate_synthetic_dataset

__version__ = "0.1.0"
