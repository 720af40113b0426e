"""How many workers the benchmark's workloads pool with (perfbench/workloads.py),
and that importing the package and its CLI loads no pool machinery."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from dmmaction import generate_synthetic_dataset, pipeline, read_manifest
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
    "name, loops",
    [
        # the records of train's loop, then of evaluate's
        pytest.param("desk-bench", (6, 6), id="desk-bench"),
        pytest.param("c3d-clip", (2, 2), id="c3d-clip"),
        # set-up's train only: a timed classify is one record, run serially
        pytest.param("classify-cold", (3,), id="classify-cold"),
    ],
)
def test_workload_pool_size(name, loops, tmp_path):
    # Each loop pools one worker per core and record, and every loop has 2
    # or more records, so each pools on a machine of 2 or more cores.
    workloads = _load_workloads()
    w = workloads.WORKLOADS[name]
    records = read_manifest(generate_synthetic_dataset(tmp_path, w.spec, seed=42))
    split = workloads._split(w, records)
    assert (len(split.train_indices), len(split.test_indices))[: len(loops)] == loops
    cores = len(os.sched_getaffinity(0))
    assert [pipeline._pool_size(n) for n in loops] == [min(cores, n) for n in loops]


def test_import_loads_no_pool_machinery():
    run = run_python_in_c_locale(
        "-c",
        "import sys, dmmaction, dmmaction.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))",
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
