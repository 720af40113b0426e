"""Multi-view motion-map action recognition.

Depth sequences are projected onto three Cartesian planes, differenced
over several temporal windows with flow-magnitude weighting, rendered
through a jet colormap, and classified by per-stream 3D convolutional
features + PCA + linear SVMs whose scores are fused by averaging,
together with appearance streams over raw RGB clips.
"""

from .config import PipelineConfig, config_to_text, load_config, parse_config_text
from .dmm import (
    ALL,
    Clip,
    DmmTemplate,
    accumulate_dmm,
    accumulate_ramdmm,
    effective_window,
    jet_rgb,
    render_grid,
    render_template,
    stack_clip,
)
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
from .geometry import (
    BinParams,
    Intrinsics,
    PointCloud,
    ProjectedMap,
    RotationSpec,
    depth_to_points,
    fill_depth_holes,
    points_to_depth,
    project_cartesian,
    rotation_matrix,
    rotate_points,
    sequence_centroid,
    synthesize_view,
)
from .learn import (
    PcaModel,
    ScoreVector,
    SvmModel,
    fuse_scores,
    jacobi_eigh,
    load_models,
    pca_fit,
    pca_project,
    save_models,
    svm_margins,
    svm_score,
    svm_train,
)
from .motion import (
    FlowField,
    MagnitudeMap,
    estimate_flow,
    flow_magnitude,
    normalize_magnitude,
)
from .neural import (
    Conv3d,
    Dense,
    FeatureVector,
    Flatten,
    MaxPool3d,
    NetworkSpec,
    Provenance,
    c3d_network,
    clip_to_tensor,
    concat_views,
    conv3d_forward,
    desk_network,
    extract_features,
    infer_shapes,
    maxpool3d,
    run_layers,
    stream_rng,
)
from .pipeline import (
    EvalReport,
    ExtractResult,
    SampleRecord,
    Split,
    Stream,
    StreamPlan,
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
from .videoio import (
    DepthFrame,
    DepthSequence,
    RgbFrame,
    RgbSequence,
    read_depth_bin,
    read_image,
    read_rgb_sequence,
    write_depth_bin,
    write_image,
)

__version__ = "0.1.0"
