"""Replay part of the benchmark's byte reference in the Tier-1 suite.

perfbench/reference.json holds the sha256 of every result file the
benchmark's workloads can produce, recorded on a commit whose results are
known to be right.  Replaying the first few pool seeds of every workload
configuration here makes byte drift fail the test suite directly, without a
benchmark run.  The files under perfbench/ are only read.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from noncomm.cli import main, parse_set_options
from noncomm.scenarios import memory_limit, peak_bytes, validate_params

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEEDS_PER_CONFIG = 4


def _workloads():
    # workloads.py imports neither numpy nor noncomm; load it by path
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["sha256"]
CASES = [WORKLOADS.Case(config, WORKLOADS.pool_seed(i))
         for workload in WORKLOADS.WORKLOADS.values()
         for config in workload.configs
         for i in range(SEEDS_PER_CONFIG)]


@pytest.mark.parametrize("case", CASES, ids=[case.key for case in CASES])
def test_result_bytes_match_benchmark_reference(tmp_path, case):
    out = tmp_path / f"result.{case.config.fmt}"
    assert main(case.argv(str(out))) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE[case.key]


def test_benchmark_configs_fit_in_memory():
    for workload in WORKLOADS.WORKLOADS.values():
        for c in workload.configs:
            params = validate_params(c.scenario, parse_set_options(c.settings and [c.settings]))
            need = peak_bytes(c.scenario, params, c.trials, c.snapshots)
            assert need < min(64 << 20, memory_limit()), (c.label, need)
