"""One benchmark worker process: set-up timing, then a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR --report PATH [--spans PATH]
                                [--setup-only]

The worker imports noncomm from the checkout's `src/`, makes one untimed
warm-up invocation, and records the set-up time from before `import noncomm`
to the end of that invocation.  It then calls `noncomm.cli.main(argv)` in
a closed loop: one caller, the next invocation only after the previous one
has written its result file, which is checked before moving on.  It writes
its measurements as JSON to --report; run.py turns them into metrics.

With --trace 1 the loop is a fixed round of invocations, run once untraced
and then traced (tracing.py) until --seconds have passed.  Count metrics
come from the first traced round, so they repeat exactly; times average
over every traced round.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import jsonschema

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


class Runner:
    """Makes invocations and checks what each one wrote."""

    def __init__(self, cli, schema, workdir: str, reference: dict | None):
        self.cli = cli
        self.workdir = workdir
        self.reference = reference
        self.result_validator = jsonschema.Draft202012Validator(schema.RESULT_SCHEMA)
        self.manifest_validator = jsonschema.Draft202012Validator(schema.MANIFEST_SCHEMA)

    def invoke(self, case):
        """Run one invocation; return (wall ns, failure reason or None, result bytes,
        sha256 of the result file or None)."""
        out = os.path.join(self.workdir, "result." + case.config.fmt)
        manifest = out + ".manifest.json"
        for path in (out, manifest):
            if os.path.exists(path):
                os.remove(path)
        argv = case.argv(out)
        # garbage left by earlier invocations is not this one's cost
        gc.collect()
        start = time.perf_counter_ns()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is one failed invocation
            rc = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
        if rc != 0:
            return ns, f"exit {rc}", 0, None
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            with open(manifest, "rb") as fh:
                manifest_doc = json.loads(fh.read())
        except (OSError, ValueError) as exc:
            return ns, f"unreadable output: {exc}", 0, None
        digest = hashlib.sha256(data).hexdigest()
        return ns, self.check(case, out, data, digest, manifest_doc), len(data), digest

    def check(self, case, out, data, digest, manifest_doc):
        if self.reference is not None and digest != self.reference.get(case.key):
            return f"sha256 mismatch for {case.key}"
        if case.config.fmt == "json":
            try:
                doc = json.loads(data)
            except ValueError as exc:
                return f"result is not JSON: {exc}"
            error = jsonschema.exceptions.best_match(self.result_validator.iter_errors(doc))
            if error is not None:
                return f"result fails RESULT_SCHEMA: {error.message}"
        error = jsonschema.exceptions.best_match(self.manifest_validator.iter_errors(manifest_doc))
        if error is not None:
            return f"manifest fails MANIFEST_SCHEMA: {error.message}"
        expected = {"scenario": case.config.scenario, "seed": case.seed,
                    "trials": case.config.trials, "outputs": [out]}
        for key, value in expected.items():
            if manifest_doc.get(key) != value:
                return f"manifest {key} is {manifest_doc.get(key)!r}, expected {value!r}"
        return None


class Tally:
    """Attempted and failed invocations, with the distinct failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.reasons = collections.Counter()

    def add(self, failure):
        self.attempted += 1
        if failure is not None:
            self.reasons[failure] += 1

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": sum(self.reasons.values()),
                "failures": dict(self.reasons.most_common(10))}


def environment(np) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibrate() -> int:
    """Wall ns of a fixed kernel: Python object churn plus small LAPACK calls.

    The host's speed drifts by up to 1.7x between stretches of a few seconds
    (other tenants), and this kernel slows in step with noncomm's own work.
    Timed next to each invocation, it lets run.py scale that drift out.
    """
    import numpy as np  # noncomm has imported it by now

    k = np.arange(16)
    symmetric = np.cos(np.add.outer(k, k) * 0.7)
    start = time.perf_counter_ns()
    records = [{"a": i, "b": str(i), "c": (i, i + 1)} for i in range(1500)]
    records.sort(key=lambda r: -r["a"])
    json.dumps(records[:300])
    for _ in range(10):
        np.linalg.eigh(symmetric)
        np.linalg.norm(symmetric, 2)
    return time.perf_counter_ns() - start


def run_untraced(runner, cases, seconds, tally) -> dict:
    """Closed loop for `seconds`; each invocation's calibration is the mean of
    the kernel timed just before and just after it."""
    times_ns, calibration_ns, trials = [], [], []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while time.perf_counter() < deadline:
        case = next(cases)
        ns, failure, _, _ = runner.invoke(case)
        after = calibrate()
        tally.add(failure)
        times_ns.append(ns)
        calibration_ns.append((before + after) / 2)
        trials.append(case.config.trials)
        before = after
    return {"times_ns": times_ns, "calibration_ns": calibration_ns, "trials": trials}


def run_traced(runner, workload, cases, seconds, tally, spans_path) -> dict:
    deadline = time.perf_counter() + seconds
    round_cases = [next(cases) for _ in range(workload.trace_round)]
    untraced_ns, untraced_digests = [], []
    for case in round_cases:
        ns, failure, _, digest = runner.invoke(case)
        tally.add(failure)
        untraced_ns.append(ns)
        untraced_digests.append(digest)

    tracer = Tracer()
    tracer.install()
    traced_ns = []
    first_round_bytes = 0
    first_round_end = 0
    identical = True
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        tracer.observing = rounds == 0
        for case, untraced_digest in zip(round_cases, untraced_digests):
            tracer.begin_invocation()
            ns, failure, nbytes, digest = runner.invoke(case)
            tally.add(failure)
            traced_ns.append(ns)
            identical &= digest is not None and digest == untraced_digest
            if rounds == 0:
                first_round_bytes += nbytes
        if rounds == 0:
            first_round_end = len(tracer.span_start)
        rounds += 1
    if spans_path:
        tracer.write(spans_path)

    per_round = len(round_cases)
    counts = tracer.counts(first_round_end)
    self_ns = tracer.self_ns()
    metrics = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.count"] = counts[i] / per_round
        metrics[f"{layer}.self_ms"] = self_ns[i] / len(traced_ns) / 1e6
    for layer in ("algebra.spectral_projection", "dynamics.propagator", "dynamics.flow_at"):
        metrics[f"{layer}.distinct_ratio"] = tracer.distinct_ratio(layer)
    performs, forced = tracer.performs, tracer.forced
    metrics["measurement.perform.forced_ratio"] = forced / performs if performs else 0.0
    metrics["measurement.draws"] = (performs - forced) / per_round
    metrics["scenarios.perform_per_trial"] = (
        performs / sum(c.config.trials for c in round_cases))
    metrics["cli.output_bytes"] = first_round_bytes / per_round
    metrics["trace.spans"] = first_round_end / per_round
    traced_ms = sum(traced_ns) / len(traced_ns) / 1e6
    metrics["trace.wall_ms"] = traced_ms
    metrics["trace.overhead_ms"] = traced_ms - sum(untraced_ns) / len(untraced_ns) / 1e6
    return {"layers": {k: float(v) for k, v in metrics.items()},
            "trace_rounds": rounds, "trace_round_invocations": per_round,
            "traced_results_identical": identical}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", help="where a traced run saves its spans (.npz)")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    cases = workload.cases(args.seed)
    tally = Tally()

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import noncomm.cli
    import noncomm.schema

    imported = time.perf_counter()
    if not noncomm.cli.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"noncomm was imported from {noncomm.cli.__file__}, not {SRC}")
    runner = Runner(noncomm.cli, noncomm.schema, args.workdir, reference)
    # set-up is the import plus the warm-up's own call, not the checks around it
    ns, failure, _, _ = runner.invoke(next(cases))
    setup_s = imported - start + ns / 1e9
    tally.add(failure)

    import numpy as np

    report = {"setup_s": setup_s,
              "setup_calibration_ns": statistics.median(calibrate() for _ in range(5)),
              "env": environment(np)}
    if not args.setup_only:
        if args.trace:
            report.update(run_traced(runner, workload, cases, args.seconds, tally, args.spans))
        else:
            report.update(run_untraced(runner, cases, args.seconds, tally))
    report.update(tally.report())
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
