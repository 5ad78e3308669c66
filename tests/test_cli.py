import filecmp
import json
import warnings
from pathlib import Path

import pytest

from kerneltower.cli import _check_cylinder_table, main
from kerneltower.config import parse_config
from kerneltower.errors import ResourceError

from oracles import break_telescoping


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EX25_YAML = """\
model:
  kind: word-tree
  m: 2
  r: 0.5
  c: 0.5
  eta: 1.0
base_points: ["", "1", "2"]
horizon: 6
seed: 42
nsamples: 20000
max_levels: 10
"""


def read_summary(outdir):
    return json.loads((Path(outdir) / "summary.json").read_text())


def assert_dirs_byte_identical(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only
    match, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    assert not mismatch and not errors


def test_tower_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    out = tmp_path / "out"
    assert main(["tower", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    results = summary["results"]
    assert results["subinvariance"]["defect_psd"] is True
    assert results["word_expansion"]["max_abs_residual"] <= 1e-12
    assert results["completion"]["bound_label"] == "certified"
    assert (out / "gram_level_00.csv").exists()
    assert (out / "gram_defect_05.csv").exists()
    assert (out / "config_resolved.yaml").exists()


def test_tower_bundle_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["tower", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["tower", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert_dirs_byte_identical(out1, out2)


def test_diagonal_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    out = tmp_path / "out"
    assert main(["diagonal", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["results"]["traces"]["<>"]["verdict"] == "converging"
    assert summary["results"]["layer_cake"]["max_rel_residual"] <= 1e-12
    lines = (out / "diagonal_traces.csv").read_text().splitlines()
    assert lines[0] == "point,level,u_n"
    assert len(lines) == 1 + 3 * 7  # three points, levels 0..6


def test_diagonal_blowup_search(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: delta\nbase_points: [\"\"]\nhorizon: 6\ncertificate: none\n",
    )
    out = tmp_path / "out"
    assert main(["diagonal", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["results"]["traces"]["<>"]["verdict"] == "diverging"
    assert summary["results"]["blowup_witness"]["valid"] is True


_NEAR_PSD = "model: {kind: finite-state, kernel: [[1.0, 1.00000001], [1.00000001, 1.0]], maps: [[0, 1]]}\n"


@pytest.mark.parametrize("command", ["tower", "diagonal"])
def test_tol_sets_the_finite_state_table_check(tmp_path, capsys, command):
    # min eig -1e-8 at scale 1: not PSD at the default tolerance, PSD at --tol 1e-6.
    cfg = write_config(tmp_path, _NEAR_PSD)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "default")]) == 2
    assert capsys.readouterr().err.startswith("error[input]: finite-state kernel table is not PSD: ")
    assert main([command, "--config", cfg, "--tol", "1e-6", "--out", str(tmp_path / "loose")]) == 0


def test_a_visibly_asymmetric_table_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, "model: {kind: finite-state, kernel: [[2.0, 1.0], [1.000005, 2.0]], maps: [[0, 1]]}\n")
    assert main(["tower", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error[input]: finite-state kernel table must be symmetric: K[0, 1] = 1.0 but K[1, 0] = 1.000005")


_ONE_LEVEL = {
    "word-tree": "model: {kind: word-tree}\ncertificate: none\n",
    "delta": "model: {kind: delta}\n",
    "feeder": "model: {kind: feeder}\n",
    "finite-state": "model: {kind: finite-state, maps: [[0, 1], [1, 1]], kernel: [[1.0, 0.0], [0.0, 2.0]]}\n",
}


@pytest.mark.parametrize("kind", list(_ONE_LEVEL))
def test_horizon_zero_diagonal_runs_and_gaussian_names_horizon(tmp_path, capsys, kind):
    # At horizon 0 no blow-up witness exists (it needs a level n >= 1), and
    # gaussian has no defect to sample: it is refused before any work.
    cfg = write_config(tmp_path, _ONE_LEVEL[kind])
    out = tmp_path / "out"
    assert main(["diagonal", "--config", cfg, "--max-level", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert "blowup_witness" not in read_summary(out)["results"]
    gaussian = tmp_path / "gaussian"
    assert main(["gaussian", "--config", cfg, "--max-level", "0", "--seed", "1", "--out", str(gaussian)]) == 2
    assert capsys.readouterr().err.startswith("error[input]: config horizon: ")
    assert not gaussian.exists()


def test_one_map_diagonal_asks_for_no_witness(tmp_path, capsys):
    # A witness needs rho = m > 1.  Its defect [[1, 2], [2, 0]] passes only the
    # loose tol 1, so this one-map diagonal grows at state 0: inconclusive.
    cfg = write_config(tmp_path, "model: {kind: finite-state, maps: [[1, 1]], kernel: [[1, 0], [0, 2]]}\n"
                                 "certificate: none\nhorizon: 1\ntol: 1.0\n")
    out = tmp_path / "out"
    assert main(["diagonal", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    results = read_summary(out)["results"]
    assert results["traces"]["0"]["verdict"] == "inconclusive"
    assert "blowup_witness" not in results


def test_gaussian_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    out = tmp_path / "out"
    assert main(["gaussian", "--config", cfg, "--max-level", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["results"]["generator"] == "philox4x64-10"
    assert summary["results"]["martingale"]["passed"] is True
    assert summary["results"]["top_level_max_z"] <= 5.0


def test_gaussian_sample_export(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: feeder\nhorizon: 2\nseed: 3\nnsamples: 50\n"
        "gaussian:\n  export_samples: true\n",
    )
    out = tmp_path / "out"
    assert main(["gaussian", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "seed,sample,level,point_label,value"
    assert len(lines) == 1 + 50 * 3 * 2  # samples x levels x base points


def test_gaussian_requires_seed(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "model:\n  kind: word-tree\nbase_points: [\"\"]\nhorizon: 3\n"
    )
    code = main(["gaussian", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "seed" in captured.err


def test_boundary_command(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML + "boundary:\n  cylinder_levels: 8\n  feature_levels: 6\n")
    out = tmp_path / "out"
    assert main(["boundary", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    res = summary["results"]
    assert res["cylinders"]["max_level_sum_error"] <= 1e-12
    assert res["boundary_gram"]["residual"] <= 1e-10
    assert res["boundary_gram"]["nu_invariance"] <= 1e-12
    assert (out / "cylinders.csv").exists()


def test_delta_tower_exits_with_model_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: delta\nbase_points: [\"\"]\nhorizon: 4\nceiling: 1.0e4\n"
        "max_levels: 30\ncertificate: none\n",
    )
    code = main(["tower", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "error[model]" in captured.err
    assert "ceiling" in captured.err


@pytest.mark.parametrize("m, longest", [(2, 28), (3, 17)])
def test_word_codes_past_the_int64_pair_keys_exit_5_naming_base_points(tmp_path, capsys, m, longest):
    # The tower reads a word as its bijective base-m integer, and its pair
    # keys square the codes: at m = 2 they hold words of up to 30 symbols,
    # at m = 3 up to 19.  `tower` reaches words 2 symbols longer than
    # base_points at level 1 (the subinvariance check on the one-step closure).
    for length, code in ((longest, 0), (longest + 1, 5)):
        cfg = write_config(tmp_path, f'model: {{kind: word-tree, m: {m}}}\nbase_points: ["{"1" * length}"]\n'
                           "horizon: 1\nmax_levels: 2\n")
        assert main(["tower", "--config", cfg, "--out", str(tmp_path / f"out-{length}")]) == code
        err = capsys.readouterr().err
    assert err == "error[resource]: level 1 tower pair keys exceed int64: shorten base_points\n"


def test_missing_config_is_input_error(tmp_path, capsys):
    code = main(["tower", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error[input]" in captured.err


def test_nonexistent_config_file(tmp_path, capsys):
    code = main(["tower", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 2


def test_bad_tol_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    for tol in ("-1", "nan", "inf"):  # NaN fails every comparison, so it is named too
        code = main(["tower", "--config", cfg, "--tol", tol, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error[input]: --tol must be finite and positive\n"


def test_bad_seed_flag(tmp_path, capsys):
    # 2**128 is past the generator's key range: named, not a traceback.
    cfg = write_config(tmp_path, EX25_YAML)
    for seed in ("-1", str(2**128)):
        code = main(["gaussian", "--config", cfg, "--seed", seed, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error[input]: --seed must be at least 0 and below 2**128\n")


def test_resource_cap_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML + "pair_cap: 100\nhorizon: 12\n")
    code = main(["tower", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 5
    assert "error[resource]" in captured.err


def test_tower_subinvariance_step_honours_the_pair_cap(tmp_path, capsys):
    # The tower (horizon 2 on three points) fits 100 pairs; the one-step
    # defect on the 15-point depth-2 closure does not.
    cfg = write_config(tmp_path, 'model: {kind: word-tree}\nbase_points: ["", "1", "2"]\n'
                                 "horizon: 2\nmax_levels: 1\npair_cap: 100\ncertificate: none\n")
    assert main(["tower", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err.startswith(
        "error[resource]: tower pair orbit exceeded the cap of 100 pairs")


@pytest.mark.parametrize("model, code", [
    ("{kind: word-tree, m: 101}\ncertificate: none", 5),
    ("{kind: word-tree, m: 100}\ncertificate: none", 0),
    ("{kind: delta, m: 101}", 5),
    ("{kind: delta, m: 100}", 0),
])
def test_more_maps_than_pair_cap_are_refused_by_the_config(tmp_path, capsys, model, code):
    cfg = write_config(tmp_path, f"model: {model}\npair_cap: 100\nhorizon: 0\n")
    assert main(["diagonal", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == ("error[resource]: config model.m: 101 maps exceed pair_cap = 100, "
                   "so one pair's first orbit layer could not fit\n" if code else "")


FINITE_STATE_YAML = """\
model:
  kind: finite-state
  maps: [[0, 1, 2, 3], [1, 0, 3, 3], [2, 2, 0, 1]]
  kernel: [[2.0, 1.0, 0.0, 0.5], [1.0, 2.0, 0.5, 0.0], [0.0, 0.5, 2.0, 1.0], [0.5, 0.0, 1.0, 2.0]]
horizon: 10
"""


@pytest.mark.parametrize("cap, named", [(1000, "3^7 = 2187"), (3000, "3^8 = 6561")])
def test_tower_word_cap_names_the_first_level_past_it(tmp_path, capsys, cap, named):
    # The tower fits the pair cap; the word expansion (levels 0..8) does not,
    # and the error names its first level past the cap.
    cfg = write_config(tmp_path, FINITE_STATE_YAML + f"pair_cap: {cap}\n")
    code = main(["tower", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 5
    assert capsys.readouterr().err == (
        f"error[resource]: enumerating {named} words exceeds the cap {cap}\n")


def test_diagonal_names_the_word_cap_before_the_tower_route_runs(tmp_path, capsys, monkeypatch):
    # At horizon 25 the tower route on one word-tree point would hold 2^24
    # pairs before its own cap; the word cap refuses the horizon first.
    import kerneltower.diagonal

    def tower_route(*args, **kwargs):
        raise AssertionError("the tower route ran")

    monkeypatch.setattr(kerneltower.diagonal, "tower_gram_iter", tower_route)
    cfg = write_config(tmp_path, 'model: {kind: word-tree}\nbase_points: [""]\nhorizon: 25\n')
    assert main(["diagonal", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err == (
        "error[resource]: enumerating 2^25 = 33554432 words exceeds the cap 16777216\n")


def test_out_of_memory_is_a_resource_error(tmp_path, capsys, monkeypatch):
    import kerneltower.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(kerneltower.cli, "build_tower", exhausted)
    cfg = write_config(tmp_path, EX25_YAML)
    code = main(["tower", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err == "error[resource]: tower ran out of memory\n"


def test_format_flag_csv_only(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    out = tmp_path / "out"
    assert main(["diagonal", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "diagonal_traces.csv").exists()
    assert not (out / "summary.json").exists()
    assert (out / "config_resolved.yaml").exists()


def test_feeder_tower_converges(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: feeder\nhorizon: 4\nmax_levels: 10\n",
    )
    out = tmp_path / "out"
    assert main(["tower", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = read_summary(out)
    assert summary["results"]["completion"]["converged_by_trace"] is True


def test_verify_fault_injection_exit_and_naming(tmp_path, capsys, monkeypatch):
    break_telescoping(monkeypatch)
    cfg = write_config(tmp_path, "model:\n  kind: word-tree\nseed: 20250809\nnsamples: 2000\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert "telescoping" in captured.err
    summary = read_summary(out)
    assert summary["results"]["checks"]["telescoping-identity"]["passed"] is False
    assert summary["results"]["all_passed"] is False


def test_verify_unknown_fault_check_is_input_error(tmp_path, capsys):
    # The config has no fault key: one would be a no-op that looks like success.
    cfg = write_config(tmp_path, "model:\n  kind: word-tree\n"
                                 "fault_injection: {check: telescoping, delta: 1}\n")
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[input]: config fault_injection: unknown key (expected one of ")
    assert captured.out == ""


def test_short_lyapunov_table_is_input_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: finite-state\n  maps: [[0, 1], [1, 1]]\n"
        "  kernel: [[1.0, 0.0], [0.0, 0.0]]\n"
        "  lyapunov: {C: 1, beta: 0.5, r: [1.0]}\nhorizon: 2\n",
    )
    code = main(["tower", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[input]")
    assert "lyapunov.r" in err


def test_finite_state_certificate_reads_the_computed_defect_diagonal(tmp_path, capsys):
    # The feeder tables: the one-step defect diagonal is (0, 0, 0.5), so
    # C = 0.25 is refuted at state 2 with the computed value in the status.
    cfg = write_config(
        tmp_path,
        "model:\n  kind: finite-state\n  maps: [[0, 1, 0], [1, 1, 0]]\n"
        "  kernel: [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.5]]\n"
        "  lyapunov: {C: 0.25, beta: 0.5, r: [1, 1, 1]}\nhorizon: 2\n",
    )
    assert main(["diagonal", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    status = read_summary(tmp_path / "out")["results"]["certificate"]["status"]
    assert status == "refuted: premise diag <= C*r fails at 2: 0.5 > 0.25"


def test_boundary_without_positive_gauge_is_input_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model:\n  kind: finite-state\n  maps: [[1, 2, 3, 3]]\n"
        "  kernel: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]\n"
        "  lyapunov: {C: 1, beta: 0.5, r: [1, 0.4, 0.1, 0.01]}\n"
        "base_points: [0]\nhorizon: 0\n",
    )
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[input]")


@pytest.mark.parametrize("boundary, key", [
    ("{cylinder_levels: -1}", "cylinder_levels"),
    ("{feature_levels: -1}", "feature_levels"),
    ("{feature_levels: 0}", "feature_levels"),
    ("{nu: 5}", "nu"),
    ("{nu: [a, b]}", "nu[0]"),
    ("{nu: []}", "nu"),
    ("{nu: [0.5, 0.6]}", "nu"),
    ("{nu_alt: [0, 1]}", "nu_alt"),
    ("{nu: [0.2, 0.3, 0.5]}", "nu"),
    ("{nu_alt: [1.0]}", "nu_alt"),
    ("{cylinder_level: 3}", "cylinder_level"),
])
def test_bad_boundary_keys_are_input_errors(tmp_path, capsys, boundary, key):
    cfg = write_config(tmp_path, EX25_YAML + f"boundary: {boundary}\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error[input]: config boundary.{key}: ")


_CERT = "certificate: {C: 1, beta: 0.5, r: %s}\n"


def _bad(text, key, id, command="tower"):
    return pytest.param(text, key, command, id=id)


_FS = "model: {kind: finite-state, maps: %s, kernel: %s%s}\n"


@pytest.mark.parametrize("text, key, command", [
    _bad(_CERT % "{kind: table}", "certificate.r.values", "table-no-values"),
    _bad(_CERT % "{kind: length-decay}", "certificate.r.base", "decay-no-base"),
    _bad("certificate: {C: abc, beta: 0.5, r: {kind: length-decay, base: 0.25}}\n",
                 "certificate.C", "C-not-number"),
    _bad(_CERT % "{kind: length-decay, base: abc}", "certificate.r.base", "base-not-number"),
    _bad(_CERT % "{kind: table, values: {'': 1}}", "certificate.r.values", "table-misses-a-point"),
    _bad(_CERT % "{kind: table, values: [1, 2]}", "certificate.r.values", "values-not-mapping"),
    _bad("model: {kind: feeder}\n" + _CERT % "{kind: length-decay, base: 0.25}",
                 "certificate.r.kind", "decay-on-integer-states"),
    _bad("model: {kind: word-tree, m: x}\n", "model.m", "m-not-integer"),
    _bad("model: {kind: word-tree, r: abc}\n", "model.r", "r-not-number"),
    _bad("model: {kind: delta, m: 2.5}\n", "model.m", "m-fractional"),
    # NaN passes every later range check unless the number parse refuses it.
    _bad("tol: .nan\n", "tol", "tol-nan"),
    _bad("tol: .inf\n", "tol", "tol-inf"),
    _bad("certificate: {C: .nan, beta: 0.5, r: {kind: length-decay, base: 0.25}}\n"
                 "max_levels: 8\n", "certificate.C", "C-nan"),
    _bad("model: {kind: delta}\nceiling: .nan\nmax_levels: 30\n", "ceiling", "ceiling-nan"),
    _bad("model: {kind: word-tree, eta: .nan}\n", "model.eta", "eta-nan"),
    # Values that were accepted, truncated, or failed with a traceback before the schema table.
    _bad("seed: -1\n", "seed", "seed-negative", "gaussian"),
    _bad("seed: 1\nnsamples: 1\n", "nsamples", "nsamples-one", "gaussian"),
    _bad(_FS % ("[[0, 1], [1, 0]]", "[[1.0], [0.0, 1.0]]", ""), "model.kernel", "kernel-ragged"),
    _bad(_FS % ("[[0.5, 1], [1, 0]]", "[[1, 0], [0, 1]]", ""), "model.maps", "maps-fractional"),
    _bad(_FS % ("[[0, true], [1, 0]]", "[[1, 0], [0, 1]]", ""), "model.maps", "maps-bool"),
    _bad("max_levels: -1\n", "max_levels", "max-levels-negative"),
    _bad("closure_depth: -1\n", "closure_depth", "closure-depth-negative"),
    _bad("trace_eps: -1\n", "trace_eps", "trace-eps-negative"),
    _bad("ceiling: -1\n", "ceiling", "ceiling-negative"),
    _bad("pair_cap: 0\n", "pair_cap", "pair-cap-zero"),
    _bad("pair_cap: -5\n", "pair_cap", "pair-cap-negative"),
    _bad("gaussian: {export_samples: 'no'}\n", "gaussian.export_samples", "export-samples-string"),
    _bad("model: {kind: word-tree, eta: .inf}\n", "model.eta", "eta-inf"),
    _bad(_FS % ("[[0, 1], [1, 0]]", "[[1, 0], [0, 1]]", ", lyapunov: {C: .nan, beta: 0.5, r: [1, 1]}"),
         "model.lyapunov.C", "lyapunov-C-nan"),
    # Unknown keys are refused at every level.
    _bad("model: {kind: word-tree, foo: 1}\n", "model.foo", "unknown-word-tree-key"),
    _bad("model: {kind: delta, r: 0.5}\n", "model.r", "unknown-delta-key"),
    _bad("model: {kind: feeder, m: 2}\n", "model.m", "unknown-feeder-key"),
    _bad(_FS % ("[[0, 1], [1, 0]]", "[[1, 0], [0, 1]]", ", colour: red"), "model.colour",
         "unknown-finite-state-key"),
    _bad("gaussian: {export: true}\n", "gaussian.export", "unknown-gaussian-key"),
    _bad("output: {format: [csv]}\n", "output.format", "unknown-output-key"),
    _bad("certificate: {C: 1, beta: 0.5, r: {kind: length-decay, base: 0.25}, D: 1}\n",
         "certificate.D", "unknown-certificate-key"),
    _bad(_CERT % "{kind: length-decay, base: 0.25, step: 2}", "certificate.r.step",
         "unknown-certificate-r-key"),
])
def test_bad_config_values_are_input_errors(tmp_path, capsys, text, key, command):
    if not text.startswith("model:"):
        text = "model: {kind: word-tree}\n" + text
    cfg = write_config(tmp_path, text + "horizon: 2\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error[input]: config {key}: ")


def test_boundary_weight_count_is_checked_before_the_closure(tmp_path, capsys):
    # With a closed-form gauge the count is refused before any walk: at this
    # cap the depth-12 cylinder walk would itself exit 5.
    cfg = write_config(tmp_path, "model: {kind: word-tree, m: 3}\nbase_points: ['']\n"
                                 "horizon: 4\npair_cap: 50\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[input]: config boundary.nu: expected 3 weights")


def test_boundary_refuses_a_reference_measure_that_vanishes_on_a_cylinder(tmp_path, capsys):
    # Each weight is positive, but 1e-200 squared underflows at length 2.
    cfg = write_config(tmp_path, EX25_YAML + "boundary: {nu: [1.0e-200, 1.0]}\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error[input]: reference measure vanishes on cylinder (1, 1)\n"


def test_boundary_nonharmonic_tower_gauge_is_refused_before_the_weight_count(tmp_path, capsys):
    # Three maps and the default two weights, but the doubling diagonal is
    # not harmonic, which is reported first.
    cfg = write_config(
        tmp_path,
        "model:\n  kind: finite-state\n  maps: [[0, 1, 2], [0, 1, 2], [0, 0, 0]]\n"
        "  kernel: [[0, 0, 0], [0, 1, 0], [0, 0, 1]]\nhorizon: 2\n",
    )
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error[model]: gauge not harmonic")


def test_boundary_section_pairs_are_capped(tmp_path, capsys):
    # The cylinders and tower fit under the cap; the 127 section points
    # (16256 level-1 pairs) do not.
    cfg = write_config(tmp_path, EX25_YAML + "pair_cap: 2000\n"
                       "boundary: {cylinder_levels: 3, feature_levels: 6}\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error[resource]: boundary section Gram: 127 section points")
    assert "config boundary.feature_levels" in err


def test_boundary_section_cap_refuses_before_any_cylinder_walk(tmp_path, capsys, monkeypatch):
    # Three maps at the default cylinder_levels (12): the section pair cap
    # refuses first, so no depth-12 walk runs and no cylinders.csv is written.
    import kerneltower.cli

    def walk(*args, **kwargs):
        raise AssertionError("cylinder walk before the section pair cap")

    monkeypatch.setattr(kerneltower.cli, "cylinder_measure", walk)
    cfg = write_config(tmp_path, "model: {kind: word-tree, m: 3}\nbase_points: ['', '1', '2']\n"
                                 "horizon: 4\nboundary: {nu: [0.2, 0.3, 0.5], nu_alt: [0.5, 0.25, 0.25]}\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error[resource]: boundary section Gram: ")
    assert "config boundary.feature_levels" in err
    assert not (tmp_path / "out" / "cylinders.csv").exists()


def test_boundary_reads_only_the_rows_its_walks_reach(tmp_path, capsys, monkeypatch):
    # The benchmark tree config at a cap just over its 57337-entry cylinder
    # table (7 anchors by the 8191 words of length <= 12): the chain reads
    # the rows the depth-12 walks reach and builds no orbit closure deeper
    # than closure_depth, such as the 32767-point one of depth 12.
    import kerneltower.cli

    closure = kerneltower.cli.orbit_closure

    def shallow_closure(branch, points, depth, cap):
        assert depth <= 1, f"orbit closure of depth {depth}"
        return closure(branch, points, depth, cap)

    monkeypatch.setattr(kerneltower.cli, "orbit_closure", shallow_closure)
    cfg = write_config(tmp_path, "model: {kind: word-tree}\nbase_points: ['', '1', '2']\n"
                                 "closure_depth: 1\nhorizon: 10\nmax_levels: 12\npair_cap: 60000\n"
                                 "boundary: {feature_levels: 3}\n")
    assert main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    res = read_summary(tmp_path / "out")["results"]
    assert res["gauge"] == {"harmonicity_residual": 0.0, "source": "closed-form"}
    assert res["cylinders"]["max_level_sum_error"] <= 1e-12


@pytest.mark.parametrize("m, levels, cap", [(2, 16, 65536), (3, 2**64, 20000)])
def test_boundary_cylinder_table_is_capped(tmp_path, capsys, monkeypatch, m, levels, cap):
    # 7 anchors by the words of length <= 16 is 917497 entries, 14 times the
    # cap; a huge cylinder_levels is refused as fast.  No walk runs first.
    import kerneltower.cli

    def walk(*args, **kwargs):
        raise AssertionError("walk before the cylinder table cap")

    monkeypatch.setattr(kerneltower.cli, "boundary_feature_gram", walk)
    monkeypatch.setattr(kerneltower.cli, "cylinder_measure", walk)
    cfg = write_config(tmp_path, f"model: {{kind: word-tree, m: {m}}}\n"
                                 "base_points: ['', '1']\nclosure_depth: 1\nhorizon: 10\n"
                                 f"max_levels: 12\npair_cap: {cap}\n"
                                 f"boundary: {{cylinder_levels: {levels}, feature_levels: 3, "
                                 f"nu: {[1.0 / m] * m}, nu_alt: {[1.0 / m] * m}}}\n")
    code = main(["boundary", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error[resource]: boundary cylinder table: ")
    assert "config boundary.cylinder_levels" in err


@pytest.mark.parametrize("m, anchors, levels, refused", [
    (2, 7, 12, False), (2, 7, 13, True), (3, 1, 2**64, True),
    (1, 4, 4999, False), (1, 4, 5000, True), (1, 1, 2**64, True),
])
def test_cylinder_table_cap_counts_to_the_first_level_past_it(m, anchors, levels, refused):
    # 7 x 8191 = 57337 <= 60000 < 7 x 16383; one map adds one word a level.
    cfg = parse_config({"model": {"kind": "word-tree"}, "pair_cap": 60000 if m > 1 else 20000,
                        "boundary": {"cylinder_levels": levels}})
    if refused:
        with pytest.raises(ResourceError, match="config boundary.cylinder_levels"):
            _check_cylinder_table(cfg, m, anchors)
    else:
        _check_cylinder_table(cfg, m, anchors)


def test_boundary_bundle_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML + "boundary: {cylinder_levels: 6, feature_levels: 5}\n")
    for out in ("a", "b"):
        assert main(["boundary", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    assert_dirs_byte_identical(tmp_path / "a", tmp_path / "b")


def test_verbose_reports_each_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path, EX25_YAML)
    for command in ("tower", "diagonal", "gaussian", "boundary"):
        out = tmp_path / command
        args = [command, "--config", cfg, "--out", str(out), "--verbose"]
        if command == "gaussian":
            args += ["--max-level", "3"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: wrote {out} in ")


OVERFLOW_YAML = """\
model: {kind: finite-state, maps: [[0, 1], [0, 1]], kernel: [[1.0e308, 0.0], [0.0, 1.0e308]]}
horizon: 2
seed: 1
"""


@pytest.mark.parametrize("command", ["tower", "diagonal", "gaussian", "boundary"])
def test_overflowing_kernel_exits_by_the_contract(tmp_path, capsys, command):
    # Level 1 overflows: a numerical error naming the level, no traceback and
    # no numpy warning.
    cfg = write_config(tmp_path, OVERFLOW_YAML)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error[numerical]: level 1 ")
    assert not caught
