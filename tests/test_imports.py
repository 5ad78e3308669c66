"""Each command loads only the modules it runs.

Every case runs in a fresh interpreter and reads ``sys.modules``: the
package exports its names lazily, and the CLI imports the gaussian,
boundary and verify modules inside the commands that run them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

README_EX = """\
model: {kind: word-tree, m: 2, r: 0.5, c: 0.5, eta: 1.0}
base_points: ["", "1", "2"]
horizon: 8
seed: 42
max_levels: 12
"""
SMALL = README_EX + "nsamples: 50\nboundary: {cylinder_levels: 3, feature_levels: 2}\n"

# The names ``kerneltower`` exported when it imported every module eagerly.
EXPORTED = """
BlowupWitness BoundaryGram BranchSystem ContractError CylinderTable DiagonalTrace DivergenceError
DivergentDeltaModel DoobChain Embedding FieldBatch FiniteStateModel GENERATOR_NAME Gram InputError
KInfinityEstimate Kernel KernelBatch KernelTowerError LayerCakeResult LimitFields LyapunovRefutation
MartingaleReport MinimalityReport ModelError NumericalError ProductCylinderWeights PsdReport ResourceError
TailBound TailCertificate Tower TowerSampler WordTreeModel apply_L_tilde apply_Q blowup_detect
boundary_feature_gram boundedness_probe build_doob build_model build_tower cylinder_measure
defect_embedding diagonal_trace empirical_covariance enumerate_words estimate_K_infinity export_batch_csv
feeder_model gauge_from_tower gram h_normalize intertwining_check invariance_residual iterate_Q
layer_cake_check level_set_count level_via_words limit_fields lyapunov_verify make_rng martingale_checks
minimality_check normalization_commutes orbit_closure orbit_points_by_level point_label psd_check psd_leq
sample_path sqrt_factor subinvariance_check tail_bound tilde_word_expansion
""".split()

SETUP = """
from kerneltower.config import load_config
from kerneltower.models import build_model
from kerneltower.points import orbit_closure
cfg = load_config("ex.yaml")
model = build_model(cfg.model_kind, cfg.model_params)
orbit_closure(model.branch, model.points(cfg.base_points), 1, cfg.pair_cap)
"""


def _loaded(tmp_path, code: str) -> set:
    """The kerneltower submodules loaded once ``code`` has run in a fresh interpreter."""
    (tmp_path / "ex.yaml").write_text(README_EX)
    (tmp_path / "small.yaml").write_text(SMALL)
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('kerneltower'))))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    return {name.removeprefix("kerneltower.") for name in json.loads(run.stdout.splitlines()[-1])}


def _cli(command: str, config: str) -> str:
    return f"from kerneltower.cli import main\nassert main([{command!r}, '--config', {config!r}]) == 0"


@pytest.mark.parametrize("code, absent", [
    ("import kerneltower", {"boundary", "config", "diagonal", "gaussian", "models", "tower", "verify"}),
    (SETUP, {"boundary", "gaussian", "diagonal", "verify"}),
    (_cli("tower", "ex.yaml"), {"boundary", "gaussian", "verify"}),
    (_cli("diagonal", "ex.yaml"), {"boundary", "gaussian", "verify"}),
    (_cli("gaussian", "small.yaml"), {"boundary", "verify"}),
    (_cli("boundary", "small.yaml"), {"gaussian", "verify"}),
], ids=["import", "setup", "tower", "diagonal", "gaussian", "boundary"])
def test_each_path_loads_only_the_modules_it_runs(tmp_path, code, absent):
    loaded = _loaded(tmp_path, code)
    assert "kerneltower" in loaded
    assert not loaded & absent


def test_exact_certificate_arithmetic_stays_off_the_setup_path(tmp_path):
    # fractions loads with the diagonal module, which decides certificates;
    # the set-up path (config, models, points, tower, kernels) never loads it.
    (tmp_path / "ex.yaml").write_text(README_EX)
    script = SETUP + "\nimport sys\nprint('fractions' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"]


def test_every_exported_name_still_imports_from_the_package():
    import kerneltower

    assert set(EXPORTED) <= set(dir(kerneltower))
    namespace = {}
    exec(f"from kerneltower import {', '.join(EXPORTED)}", namespace)
    everything = {}
    exec("from kerneltower import *", everything)
    assert all(everything[name] is namespace[name] for name in EXPORTED)
    from kerneltower.models import build_model  # one name checked against its module
    assert namespace["build_model"] is build_model
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        kerneltower.nonesuch
