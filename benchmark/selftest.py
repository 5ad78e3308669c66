"""Self-test of the finite-state workload generator.

    python3 benchmark/selftest.py [SEEDS...]      (from the checkout root)

For each seed: FiniteStateModel accepts the generated tables, phi_1
preserves the kernel exactly, the config written for the CLI parses back
to the same tables, subinvariance_check is PSD on all states, and
build_tower passes its per-level defect certification.  Exits 1 on any
failure.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from kerneltower.config import load_config  # noqa: E402
from kerneltower.models import FiniteStateModel, build_model  # noqa: E402
from kerneltower.tower import build_tower, subinvariance_check  # noqa: E402
from workloads import finite_state_tables, finite_state_workload  # noqa: E402


def check_seed(seed: int) -> list[str]:
    failures = []
    maps, K = finite_state_tables(seed)
    model = FiniteStateModel(maps, K.tolist(), name=f"generated-{seed}")
    phi1 = np.asarray(maps[0])
    if not np.array_equal(K[np.ix_(phi1, phi1)], K):
        failures.append("K o (phi_1 x phi_1) != K")

    with tempfile.TemporaryDirectory() as tmp:
        workload = finite_state_workload(seed, Path(tmp))
        cfg = load_config(workload.config)
    parsed = build_model(cfg.model_kind, cfg.model_params)
    if parsed.maps_table != model.maps_table or not np.array_equal(parsed.table, model.table):
        failures.append("written config does not parse back to the generated tables")

    states = model.all_states()
    defect = subinvariance_check(model.kernel, model.branch, states)
    if not defect.psd:
        failures.append(f"one-step defect not PSD: {defect.summary()}")
    tower = build_tower(model.kernel, model.branch, states, 6)
    worst = min(r.min_eigenvalue for r in tower.defect_reports)
    print(f"seed {seed}: defect min eig {defect.min_eigenvalue:.3e}, "
          f"tower defects min eig {worst:.3e}, "
          f"telescoping residual {tower.telescoping_residual:.1e}")
    return failures


def main(argv) -> int:
    seeds = [int(s) for s in argv] or list(range(1, 8))
    failed = 0
    for seed in seeds:
        for failure in check_seed(seed):
            print(f"FAILED seed {seed}: {failure}")
            failed += 1
    print("selftest: ok" if not failed else f"selftest: {failed} failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
