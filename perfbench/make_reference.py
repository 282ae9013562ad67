"""Record the reference sha256 of every result file the benchmark can produce.

    python3 perfbench/make_reference.py

Runs every case in every workload's seed pool once, in this process, and
writes perfbench/reference.json.  Run it only on a commit whose result files
are known to be right (it was generated at the seed commit): the benchmark
counts every later mismatch as a failed invocation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import git_commit
from worker import REFERENCE, ROOT, SRC, Runner
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, SRC)
    import noncomm.cli
    import noncomm.schema

    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        runner = Runner(noncomm.cli, noncomm.schema, workdir, reference=None)
        for workload in WORKLOADS.values():
            for case in workload.pool():
                _, failure, _, digest = runner.invoke(case)
                if failure is not None:
                    print(f"error: {case.key}: {failure}", file=sys.stderr)
                    return 1
                digests[case.key] = digest
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "sha256": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(REFERENCE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
