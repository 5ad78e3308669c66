"""Each library default and pinned tolerance has one definition that every site reads.

The config schema, the verify context and the Doob chain restate the
library defaults; the CLI echoes into summary.json the tolerances the
verify criteria enforce, each defined beside the identity it pins.  A
change to one definition must move them all.
"""

import inspect
import json

from kerneltower import boundary, config, diagonal, kernels, points, rngs, tower, verify
from kerneltower.cli import main

README_EX = """\
model: {kind: word-tree, m: 2, r: 0.5, c: 0.5, eta: 1.0}
base_points: ["", "1", "2"]
horizon: 8
seed: 42
max_levels: 12
"""


def test_config_verify_and_doob_defaults_are_the_library_constants():
    library = {"tol": kernels.DEFAULT_PSD_TOL, "ceiling": tower.DEFAULT_CEILING,
               "nsamples": rngs.DEFAULT_NSAMPLES, "max_levels": tower.DEFAULT_MAX_LEVELS,
               "pair_cap": points.DEFAULT_WORD_CAP}
    assert {key: config.SCHEMA[key].default for key in library} == library
    ctx = verify.VerifyContext()
    assert (ctx.tol, ctx.ceiling, ctx.nsamples) == (library["tol"], library["ceiling"], library["nsamples"])
    for fn in (boundary.DoobChain, boundary.build_doob):
        assert inspect.signature(fn).parameters["tol"].default == kernels.DEFAULT_PSD_TOL


def test_summary_tolerances_are_the_ones_verify_enforces(tmp_path, capsys):
    cfg = tmp_path / "ex.yaml"
    cfg.write_text(README_EX)
    results = {}
    for command in ("tower", "diagonal", "boundary"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        results[command] = json.loads((tmp_path / command / "summary.json").read_text())["results"]
    capsys.readouterr()
    assert results["tower"]["tower"]["telescoping_tolerance"] == tower.TELESCOPE_RTOL
    assert results["tower"]["word_expansion"]["tolerance"] == tower.WORD_ROUTE_TOL
    assert results["diagonal"]["layer_cake"]["tolerance"] == diagonal.LAYER_CAKE_TOL
    assert results["boundary"]["cylinders"]["tolerance"] == boundary.CYLINDER_SUM_TOL
    assert results["boundary"]["intertwining"]["tolerance"] == boundary.INTERTWINING_TOL
    assert results["boundary"]["boundary_gram"]["tolerances"] == {
        "residual": boundary.BOUNDARY_RESIDUAL_TOL, "nu_invariance": boundary.NU_INVARIANCE_TOL}
    # verify enforces the same definitions.
    for module, names in ((tower, ["WORD_ROUTE_TOL"]), (diagonal, ["LAYER_CAKE_TOL"]),
                          (boundary, ["CYLINDER_SUM_TOL", "INTERTWINING_TOL", "BOUNDARY_RESIDUAL_TOL",
                                      "NU_INVARIANCE_TOL"])):
        assert all(getattr(verify, name) is getattr(module, name) for name in names)


def test_verify_details_print_the_pinned_tolerances():
    ctx = verify.VerifyContext()
    telescoping, layer_cake = verify.check_telescoping(ctx), verify.check_layer_cake(ctx)
    assert telescoping.metrics["tolerance"] == tower.TELESCOPE_RTOL
    assert layer_cake.metrics["tolerance"] == diagonal.LAYER_CAKE_TOL
    assert layer_cake.detail.endswith("(tol 1e-12)")
    assert "(tol 1e-12, worst on " in telescoping.detail
