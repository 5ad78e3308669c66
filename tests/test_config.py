
import pytest
import yaml

from kerneltower import InputError
from kerneltower.config import load_config, parse_config


def test_defaults_applied():
    cfg = parse_config({"model": {"kind": "word-tree"}})
    assert cfg.horizon == 8
    assert cfg.tol == 1e-9
    assert cfg.base_points == ["", "1", "2"]
    assert cfg.boundary["nu"] == [0.5, 0.5]
    assert cfg.formats == ["csv", "json"]
    assert cfg.seed is None


def test_round_trip_is_identity():
    raw = {
        "model": {"kind": "word-tree", "m": 3, "r": 0.3, "c": 0.2, "eta": 2.0},
        "base_points": ["", "1"],
        "horizon": 5,
        "seed": 7,
        "certificate": "none",
        "boundary": {"cylinder_levels": 6, "nu": [0.4, 0.6]},
    }
    cfg = parse_config(raw)
    echoed = yaml.safe_load(cfg.echo_yaml())
    cfg2 = parse_config(echoed)
    assert cfg2.resolved() == cfg.resolved()
    assert cfg2.echo_yaml() == cfg.echo_yaml()


def test_unknown_top_key():
    with pytest.raises(InputError, match="config horizont: unknown key"):
        parse_config({"model": {"kind": "delta"}, "horizont": 3})


def test_missing_model():
    with pytest.raises(InputError, match="model"):
        parse_config({})


def test_bad_model_kind():
    with pytest.raises(InputError, match="model.kind"):
        parse_config({"model": {"kind": "magic"}})


def test_path_qualified_type_errors():
    with pytest.raises(InputError, match="horizon"):
        parse_config({"model": {"kind": "delta"}, "horizon": "deep"})
    with pytest.raises(InputError, match="tol"):
        parse_config({"model": {"kind": "delta"}, "tol": -1.0})
    with pytest.raises(InputError, match="nsamples"):
        parse_config({"model": {"kind": "delta"}, "nsamples": 0})
    with pytest.raises(InputError, match="output.formats"):
        parse_config({"model": {"kind": "delta"}, "output": {"formats": ["xml"]}})


def test_certificate_mapping_requires_keys():
    with pytest.raises(InputError, match="certificate.beta"):
        parse_config({
            "model": {"kind": "word-tree"},
            "certificate": {"C": 1.0, "r": {"kind": "length-decay", "base": 0.25}},
        })


def test_load_config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  kind: delta\n  m: 3\nhorizon: 4\n")
    cfg = load_config(path)
    assert cfg.model_kind == "delta"
    assert cfg.model_params["m"] == 3
    assert cfg.horizon == 4


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [unclosed\n")
    with pytest.raises(InputError, match="invalid YAML"):
        load_config(path)


def test_finite_state_csv_tables(tmp_path):
    (tmp_path / "kernel.csv").write_text("1.0,0.0\n0.0,1.0\n")
    (tmp_path / "maps.csv").write_text("0,0\n1,1\n")
    path = tmp_path / "run.yaml"
    path.write_text(
        "model:\n  kind: finite-state\n  kernel_csv: kernel.csv\n  maps_csv: maps.csv\n"
        "base_points: [0, 1]\n"
    )
    cfg = load_config(path)
    assert cfg.model_params["kernel"] == [[1.0, 0.0], [0.0, 1.0]]
    assert cfg.model_params["maps"] == [[0, 0], [1, 1]]


def _write_fs_csv(tmp_path, kernel, maps):
    (tmp_path / "kernel.csv").write_text(kernel)
    (tmp_path / "maps.csv").write_text(maps)
    path = tmp_path / "run.yaml"
    path.write_text("model:\n  kind: finite-state\n  kernel_csv: kernel.csv\n  maps_csv: maps.csv\n")
    return path


def test_finite_state_csv_bad_cell_names_the_key_and_file(tmp_path):
    path = _write_fs_csv(tmp_path, "1.0,x\n0.0,1.0\n", "0,0\n1,1\n")
    with pytest.raises(InputError, match=r"^config model\.kernel_csv: file .*kernel\.csv: "
                                         r"expected a rectangular table of finite numbers$"):
        load_config(path)


def test_finite_state_maps_csv_cells_are_not_truncated(tmp_path):
    # int(float("0.5")) would send state 0 to state 0; the cell is refused.
    for cell in ("0.5", "1.0", "true"):
        path = _write_fs_csv(tmp_path, "1.0,0.0\n0.0,1.0\n", f"{cell},1\n1,0\n")
        with pytest.raises(InputError, match=r"^config model\.maps_csv: file .*maps\.csv: "
                                             r"expected map tables of 2 integer states in 0\.\.1$"):
            load_config(path)


def test_echo_keeps_nested_values_as_written():
    # Integer kernel cells, integer certificate constants and numeric
    # strings under model, certificate and boundary echo as written; the
    # top-level numbers echo as the floats they are read as.
    raw = {
        "model": {"kind": "finite-state", "maps": [[0, 1], [1, 1]], "kernel": [[1, 0], [0, 0]],
                  "lyapunov": {"C": 1, "beta": 0.5, "r": [1, "1.0e0"]}},
        "tol": 1,
        "boundary": {"nu": [0.5, "5e-1"]},
    }
    cfg = parse_config(raw)
    echoed = yaml.safe_load(cfg.echo_yaml())
    assert echoed["model"] == {"kind": "finite-state", **{k: v for k, v in raw["model"].items()
                                                          if k != "kind"}}
    assert [type(x) for x in echoed["model"]["kernel"][0]] == [int, int]
    assert echoed["boundary"]["nu"] == [0.5, "5e-1"]
    assert echoed["tol"] == 1.0 and type(echoed["tol"]) is float
    # The program reads the checked values.
    assert cfg.model_params["kernel"] == [[1.0, 0.0], [0.0, 0.0]]
    assert cfg.model_params["lyapunov"] == {"C": 1.0, "beta": 0.5, "r": [1.0, 1.0]}
    assert cfg.boundary["nu"] == [0.5, 0.5]
    assert parse_config(echoed).echo_yaml() == cfg.echo_yaml()


@pytest.mark.parametrize("section", ["model", "gaussian", "output", "certificate", "boundary",
                                     "lyapunov", "certificate.r"])
def test_unknown_keys_are_refused_at_every_level(section):
    raw = {"model": {"kind": "finite-state", "maps": [[0]], "kernel": [[1.0]],
                     "lyapunov": {"C": 1, "beta": 1, "r": [1]}},
           "gaussian": {}, "output": {}, "boundary": {},
           "certificate": {"C": 1, "beta": 1, "r": {"kind": "table", "values": {}}}}
    parse_config(raw)
    node = raw["model"]["lyapunov"] if section == "lyapunov" else \
        raw["certificate"]["r"] if section == "certificate.r" else raw[section]
    node["extra"] = 1
    path = {"lyapunov": "model.lyapunov", "certificate.r": "certificate.r"}.get(section, section)
    with pytest.raises(InputError, match=rf"^config {path}\.extra: unknown key \(expected one of "):
        parse_config(raw)
