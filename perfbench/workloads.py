"""The benchmark's workloads: the config each one hands to the rangelab CLI.

Every input is a function of the benchmark's --seed; the program only
ever sees the generated config file.  Sizes are fixed here so that one
repetition (a fresh process running setup, `run` and `report`) takes a
few seconds and a run can take the median of several.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Spot replicas whose ranges the checks recount from regenerated walks.
SPOT_REPLICAS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    replicas: int
    params: dict
    work_unit: str  # what work_per_s counts, per second of `run`

    def config(self, seed: int) -> dict:
        return {"kind": self.kind, "distribution": "srw",
                "master_seed": seed, "replicas": self.replicas,
                "params": dict(self.params)}

    def work(self) -> int:
        """Units of work one `run` does, the numerator of work_per_s."""
        p = self.params
        if self.kind == "deviations":
            return self.replicas * sum(p["n_ladder"])
        if self.kind == "identities":
            return self.replicas
        if self.kind == "exact":
            return p["n"]
        return self.replicas * p["n_max"]

    def spot(self, seed: int) -> list:
        """Replicas the checks recount, drawn from the seed."""
        if self.kind == "exact":
            return []
        rng = random.Random(f"{self.name}:{seed}")
        return sorted(rng.sample(range(self.replicas), SPOT_REPLICAS))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="deviations-ladder",
        why="Monte Carlo ranges on the n = 100/1000/10000 ladder: step "
            "sampling and batched site counting dominate",
        kind="deviations", replicas=4096,
        params={"side": "upper", "n_ladder": [100, 1000, 10000],
                "b_schedule": [2.0, 2.0, 2.0], "thresholds": [1.0]},
        work_unit="replica steps (replicas x sum of the ladder)"),
    Workload(
        name="identities-checks",
        why="dyadic, binary and shift-kernel identities per record: "
            "decompositions dominate, batched counting and big tables are bypassed",
        kind="identities", replicas=128,
        params={"n": 1024, "t": 256.0, "b_t": 4.0,
                "checks": ["dyadic", "binary", "q-kernel"]},
        work_unit="records"),
    Workload(
        name="exact-table",
        why="exact renewal table and 9-step enumeration with no sampling: "
            "power sums, Toeplitz solves and the table.csv writer dominate",
        kind="exact", replicas=1,
        params={"n": 1 << 16, "enumerate": True, "enumerate_n": 9},
        work_unit="table steps (n)"),
    Workload(
        name="lil-trajectories",
        why="long single paths with running prefix counts, one CSV per "
            "replica and a mid-size table plus variational solve in report",
        kind="lil", replicas=96,
        params={"n_max": 1 << 16},
        work_unit="path steps (replicas x n_max)"),
)}
