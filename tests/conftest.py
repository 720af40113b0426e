import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmmaction import PipelineConfig, SynthSpec, generate_synthetic_dataset, read_manifest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def desk_config(**overrides):
    """Small fast config shared by the pipeline-level tests."""
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


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Two-action, four-subject, one-camera dataset; session cached."""
    root = tmp_path_factory.mktemp("synthdata")
    spec = SynthSpec(actions=("slide", "bob"), subjects=4, cameras=1, frames=20)
    manifest = generate_synthetic_dataset(root, spec, seed=1)
    return read_manifest(manifest)


def run_python_in_c_locale(*args: str) -> subprocess.CompletedProcess:
    """Run python with args under the C locale, without UTF-8 mode or locale
    coercion, so that text written without an explicit encoding, stdout
    included, is ASCII."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
