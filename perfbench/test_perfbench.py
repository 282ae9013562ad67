"""Self-tests of the benchmark: python3 -m pytest -q perfbench

They run the benchmark for about a second per workload, so they are kept
out of the package's own test suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNT_SUFFIXES = (".count", "_ratio", ".draws", ".output_bytes", ".perform_per_trial", ".spans")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def bench_result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload, of different lengths, with one seed."""
    return {name: [bench_result("--workload", name, "--seed", "3", "--seconds", str(s),
                                "--trace", "1") for s in (1, 3)]
            for name in WORKLOADS}


def test_benchmark_json_matches_the_code(traced_pairs):
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    for runs in traced_pairs.values():
        assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == per_layer
    for layer in LAYERS:
        assert {f"{layer}.count", f"{layer}.self_ms"} <= per_layer.keys()


def test_untraced_run_reports_every_end_to_end_metric():
    doc = benchmark_json()
    result = bench_result("--workload", "records_mix", "--seed", "5", "--seconds", "1",
                          "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_are_correct(traced_pairs):
    for runs in traced_pairs.values():
        for result in runs:
            assert result["correct"] and result["failed"] == 0


def test_count_metrics_repeat_exactly(traced_pairs):
    for name, (short, longer) in traced_pairs.items():
        counts = {k: v["value"] for k, v in short["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        assert counts, name
        assert counts == {k: longer["metrics"][k]["value"] for k in counts}, name


def test_self_times_fit_in_traced_wall_time(traced_pairs):
    for name, runs in traced_pairs.items():
        for result in runs:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            total = sum(v for k, v in metrics.items()
                        if k.endswith(".self_ms") and not k.startswith("trace."))
            assert 0 < total <= metrics["trace.wall_ms"], name


def test_traced_result_files_match_untraced_ones():
    # the worker compares the sha256 of each traced invocation with the
    # untraced run of the same case, besides checking both against reference.json
    workdir = os.path.join(ROOT, ".perfbench_out", "selftest")
    os.makedirs(workdir, exist_ok=True)
    report = os.path.join(workdir, "report.json")
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        "--workload", "records_mix", "--seed", "9", "--seconds", "1",
                        "--trace", "1", "--workdir", workdir, "--report", report],
                       check=True, timeout=170)
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
    finally:
        shutil.rmtree(workdir)
    assert doc["traced_results_identical"] and doc["failed"] == 0


def test_reference_mismatch_counts_as_failure(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import noncomm.cli
    import noncomm.schema
    import worker

    case = next(WORKLOADS["records_mix"].cases(0))
    good = worker.Runner(noncomm.cli, noncomm.schema, str(tmp_path), worker.load_reference())
    assert good.invoke(case)[1] is None
    wrong = {case.key: "0" * 64}
    assert "sha256 mismatch" in worker.Runner(noncomm.cli, noncomm.schema, str(tmp_path),
                                              wrong).invoke(case)[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "zeno_precise_bulk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
