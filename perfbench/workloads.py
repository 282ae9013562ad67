"""The benchmark's workloads: which `noncomm run` invocations each one makes.

A workload is a list of configurations (scenario, parameters, trials,
format) that a closed loop cycles through round-robin.  Each invocation also
gets a seed from a fixed pool of POOL_SIZE seeds per configuration; the
benchmark seed only fixes the order in which the pool is visited.  The pool
is fixed so that every result file the benchmark can produce has a reference
sha256 in reference.json, recorded from the seed commit.

Why each workload was chosen is recorded in BENCHMARK.json at the root.
This module imports nothing from numpy or noncomm, so a worker can import it
before its set-up timer starts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

POOL_SIZE = 256

_GOLDEN = 0x9E3779B97F4A7C15


def pool_seed(index: int) -> int:
    """The index-th invocation seed of every pool: spread over all 64 bits."""
    return ((index + 1) * _GOLDEN) % 2**64


@dataclass(frozen=True)
class Config:
    """One kind of invocation: `noncomm run <scenario> [--set ...]`."""

    label: str
    scenario: str
    settings: str | None
    trials: int
    fmt: str = "csv"
    snapshots: bool = False


@dataclass(frozen=True)
class Case:
    config: Config
    seed: int

    @property
    def key(self) -> str:
        return f"{self.config.label}/{self.seed}"

    def argv(self, out: str) -> list:
        c = self.config
        argv = ["run", c.scenario]
        if c.settings:
            argv += ["--set", c.settings]
        argv += ["--trials", str(c.trials), "--seed", str(self.seed),
                 "--out", out, "--format", c.fmt]
        if c.snapshots:
            argv.append("--snapshots")
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    # invocations per round of the traced run; one untraced round takes
    # about a second at the seed commit
    trace_round: int

    def cases(self, seed: int):
        """The endless invocation sequence of a run with benchmark seed `seed`:
        configs round-robin, each visiting the seed pool in a seeded order."""
        order = list(range(POOL_SIZE))
        random.Random(seed).shuffle(order)
        n = len(self.configs)
        for k in itertools.count():
            yield Case(self.configs[k % n], pool_seed(order[(k // n) % POOL_SIZE]))

    def pool(self) -> list:
        """Every case any run of this workload can make."""
        return [Case(c, pool_seed(i)) for c in self.configs for i in range(POOL_SIZE)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zeno_precise_bulk",
            (Config("zeno_precise", "zeno_precise", "n=100", 16),),
            20,
        ),
        Workload(
            "zeno_coarse_ladder",
            (Config("zeno_coarse", "zeno_coarse", "num_levels=16,steps=48", 1),),
            10,
        ),
        Workload(
            "classical_cycle",
            (Config("classical_zeno", "classical_control",
                    "scenario=zeno,num_points=16,steps=64", 1),),
            10,
        ),
        Workload(
            "records_mix",
            (
                Config("polarization", "polarization_sequence",
                       "angles=[0,10,20,30,40,50,60,70,80,90]", 40, "json", True),
                Config("epr", "epr", None, 40, "json", True),
                Config("two_slit", "two_slit",
                       "amp_l=[1,1,1,1,1,1,1,1],amp_r=[1,-1,1,-1,1,-1,1,-1]",
                       40, "json", True),
                Config("three_observer", "three_observer", None, 40, "json", True),
                Config("classical_epr", "classical_control", "scenario=epr",
                       40, "json", True),
            ),
            50,
        ),
    )
}
