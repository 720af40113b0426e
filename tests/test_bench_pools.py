"""How many workers the benchmark's workloads pool with (perfbench/workloads.py),
and that importing the package and its CLI loads no pool machinery."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from dmmaction import pipeline
from conftest import run_python_in_c_locale

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize(
    "name, units",
    [
        ("desk-bench", 11),  # 3 angles x 3 planes + 2 RGB windows
        ("c3d-clip", 1),  # 1 angle x 1 plane
        ("classify-cold", 3),  # training: 1 angle x 3 planes
    ],
)
def test_workload_pool_size(name, units):
    # Each workload's loops run over 2 or more records: two samples in flight.
    cfg = _load_workloads().WORKLOADS[name].cfg
    cores = len(os.sched_getaffinity(0))
    assert pipeline._pool_size(pipeline.build_streams(cfg), 2) == min(cores, 2 * units)


def test_import_loads_no_pool_machinery():
    run = run_python_in_c_locale(
        "-c",
        "import sys, dmmaction, dmmaction.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))",
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
