"""Benchmark for noncomm: closed-loop `noncomm run` invocations, checked and timed.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; noncomm is imported from its `src/`, and
scratch files go to `.perfbench_out/` there.  Each workload run starts one
measuring worker process (worker.py) that calls `noncomm.cli.main(argv)` in
a closed loop for --seconds and checks every result file against the
reference sha256 recorded at the seed commit (reference.json) and every JSON
document against noncomm.schema.  SETUP_PROBES more fresh workers only set
up, so the set-up time is a median.

--trace 0 reports the end-to-end metrics:
  setup_s       median time from `import noncomm` to the end of one warm-up
                invocation, in a fresh worker
  trials_per_s  trials over the summed time of the timed invocations
  run_ms_p50, run_ms_p90   invocation time percentiles
  success_rate  1 - failed/attempted; a failure is a nonzero exit, a result
                whose sha256 differs from the reference, or a document that
                fails RESULT_SCHEMA / MANIFEST_SCHEMA
  peak_rss_mb   the measuring worker's peak resident memory
Every time is scaled to a reference host speed: multiplied by
CALIBRATION_REF_NS over the time of worker.calibrate() measured next to it,
because the host's own speed drifts by up to 1.7x within a run.

--trace 1 reports the per-layer metrics (tracing.py).  Either way the last
line of standard output is one JSON object,
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
after a line with the environment and provenance.  `--workload all` runs
every workload in turn and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 6
# worker.calibrate()'s wall time on an unloaded 2-core Xeon (Python 3.11,
# numpy 2.4 with scipy-openblas); times are reported at this host speed
CALIBRATION_REF_NS = 1.3e6
SETUP_TIMEOUT_S = 20
# ten samples beyond the 90th percentile
MIN_TIMED = 100

# one BLAS thread per worker, which is at most nproc on any machine
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "run_ms_p50": "ms",
                    "run_ms_p90": "ms", "success_rate": "ratio", "peak_rss_mb": "MiB"}


class BenchmarkError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.output_bytes":
        return "bytes"
    return "count"


def run_worker(workload, seed, seconds, trace, workdir, setup_only=False) -> dict:
    report = os.path.join(workdir, "report.json")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir,
           "--report", report]
    if trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else seconds + 60
    proc = subprocess.run(cmd, env={**os.environ, **WORKER_ENV}, cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited with {proc.returncode}")
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)


def scaled(seconds: float, calibration_ns: float) -> float:
    """A time scaled to the reference host speed."""
    return seconds * CALIBRATION_REF_NS / calibration_ns


def end_to_end(main_report: dict, reports: list) -> dict:
    times_ms = [scaled(ns / 1e6, cal) for ns, cal in
                zip(main_report["times_ns"], main_report["calibration_ns"])]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_calibration_ns"])
                                     for r in reports),
        "trials_per_s": sum(main_report["trials"]) / (sum(times_ms) / 1e3),
        "run_ms_p50": statistics.median(times_ms),
        "run_ms_p90": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": main_report["peak_rss_kib"] / 1024,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        main_report = run_worker(name, seed, seconds, trace, workdir)
        reports = [main_report]
        if trace:
            metrics = {k: (v, layer_unit(k)) for k, v in main_report["layers"].items()}
            samples = (f"{main_report['trace_rounds']} traced rounds of "
                       f"{main_report['trace_round_invocations']} invocations, results "
                       f"identical to untraced: {main_report['traced_results_identical']}")
        else:
            reports += [run_worker(name, seed, seconds, 0, workdir, setup_only=True)
                        for _ in range(SETUP_PROBES)]
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(main_report, reports).items()}
            timed = len(main_report["times_ns"])
            samples = f"{timed} timed invocations, {len(reports)} set-ups"
            if timed < MIN_TIMED:
                print(f"warning: {name} made {timed} timed invocations; run_ms_p90 has "
                      f"fewer than ten samples beyond it", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for report in reports:
        for reason, count in report["failures"].items():
            print(f"  FAILED x{count}: {reason}", file=sys.stderr)
    return {"attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics, "samples": samples, "env": main_report["env"]}


def src_lines() -> int:
    pkg = os.path.join(ROOT, "src", "noncomm")
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def git_commit():
    """HEAD's commit from .git, without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "noncomm", "__init__.py")):
        print(f"error: no noncomm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    provenance = {**next(iter(results.values()))["env"], "commit": git_commit(),
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "src_lines": src_lines()}
    print("environment: " + json.dumps(provenance, sort_keys=True))
    metrics = {}
    for name, res in results.items():
        print(f"{name}: {res['samples']}, {res['failed']}/{res['attempted']} failed")
        for metric, (value, unit) in res["metrics"].items():
            print(f"  {metric:48s} {value:14.6g} {unit}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
