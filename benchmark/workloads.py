"""The benchmark's workloads: generated inputs and the CLI steps of one job.

A job is one pass of a workload's invocation sequence.  Each step is one
``kerneltower`` CLI invocation; its name is the stage it is timed under.
The workload seed reaches the program only through the generated config
and the ``--seed`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from checks import tree_oracle_failures

# The README model scaled up: at README size the tower invocation lasts
# about 0.6 s, too little against noise to resolve a tower change.
# feature_levels 7: at 10 the boundary invocation took 142 s and 2.96 GB.
TREE_CONFIG = {
    "model": {"kind": "word-tree", "m": 2, "r": 0.5, "c": 0.5, "eta": 1.0},
    "base_points": ["", "1", "2"],
    "closure_depth": 1,
    "horizon": 10,
    "max_levels": 12,
    "boundary": {"feature_levels": 7},
}

FS_STATES = 40
FS_MAPS = 3
FS_SINK = 0
FS_STRUCTURE_SEED = 0


@dataclass
class Step:
    stage: str          # tower | diagonal | gaussian | boundary | verify
    args: list          # CLI arguments after ``kerneltower``
    expect_exit: int = 0
    expect_stderr: str = ""  # required prefix of stderr, for an expected refusal


@dataclass
class Workload:
    steps: list
    config: Path | None
    # Check of job 0's bundles run after the timed loop: job dir -> failures.
    final_check: Callable[[Path], list] | None = None


def finite_state_tables(seed: int, S: int = FS_STATES, m: int = FS_MAPS):
    """Seeded maps and kernel table of a model that is subinvariant by construction.

    phi_1 is a permutation fixing the kernel-null sink; phi_2..phi_m send
    about half the states to the sink and the rest uniformly to the other
    states.  K = diag(d) + u u^T with d and u constant on the cycles of
    phi_1 and zero at the sink, so K o (phi_1 x phi_1) = K and
    LK - K = sum_{i>=2} P_i^T K P_i is PSD.

    The maps are one fixed draw, relabelled by a seeded permutation of the
    non-sink states: pair-orbit sizes, and so the work, are the same for
    every seed (fresh draws of the maps changed them by 2x).  The seed also
    draws d and u.
    """
    structure = np.random.default_rng(FS_STRUCTURE_SEED)
    drawn = [np.concatenate(([FS_SINK], 1 + structure.permutation(S - 1)))]
    for _ in range(m - 1):
        row = np.full(S, FS_SINK)
        for s in range(1, S):
            if structure.random() >= 0.5:
                row[s] = structure.integers(1, S)
        drawn.append(row)

    rng = np.random.default_rng(seed)
    relabel = np.concatenate(([FS_SINK], 1 + rng.permutation(S - 1)))
    maps = []
    for row in drawn:
        new = np.empty(S, dtype=int)
        new[relabel] = relabel[row]
        maps.append([int(x) for x in new])

    phi1 = maps[0]
    cycle = np.full(S, -1)
    n_cycles = 0
    for s in range(1, S):
        if cycle[s] >= 0:
            continue
        t = s
        while cycle[t] < 0:
            cycle[t] = n_cycles
            t = phi1[t]
        n_cycles += 1
    d_cycle = rng.uniform(0.5, 1.5, n_cycles)
    u_cycle = rng.uniform(0.1, 1.0, n_cycles)
    d = np.zeros(S)
    u = np.zeros(S)
    d[1:] = d_cycle[cycle[1:]]
    u[1:] = u_cycle[cycle[1:]]
    return maps, np.diag(d) + np.outer(u, u)


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg, default_flow_style=None, sort_keys=True))
    return path


def verify_workload(seed: int, work: Path) -> Workload:
    return Workload([Step("verify", ["verify", "--seed", str(seed)])], None)


def tree_workload(seed: int, work: Path) -> Workload:
    cfg = dict(TREE_CONFIG, seed=seed)
    path = _write_config(work / "tree.yaml", cfg)
    c = ["--config", str(path)]
    steps = [
        Step("tower", ["tower", *c]),
        Step("diagonal", ["diagonal", *c]),
        Step("gaussian", ["gaussian", *c, "--max-level", "3"]),
        Step("boundary", ["boundary", *c]),
    ]
    return Workload(steps, path,
                    lambda job: tree_oracle_failures(job / "tower", cfg["model"]))


def finite_state_workload(seed: int, work: Path) -> Workload:
    maps, K = finite_state_tables(seed)
    cfg = {
        "model": {"kind": "finite-state", "name": f"generated-{seed}",
                  "maps": maps, "kernel": K.tolist()},
        "horizon": 10,
        "max_levels": 10,
        "nsamples": 3000,
        "seed": seed,
    }
    path = _write_config(work / "finite-state.yaml", cfg)
    c = ["--config", str(path)]
    steps = [
        Step("tower", ["tower", *c]),
        Step("diagonal", ["diagonal", *c]),
        Step("gaussian", ["gaussian", *c]),
        # The diagonal diverges (phi_1 preserves K and the other maps add
        # mass), so no harmonic gauge exists: the program must refuse.
        Step("boundary", ["boundary", *c], expect_exit=3,
             expect_stderr="error[model]: gauge not harmonic"),
    ]
    return Workload(steps, path)


WORKLOADS = {
    "verify": verify_workload,
    "tree": tree_workload,
    "finite-state": finite_state_workload,
}
