import json
import math

import numpy as np

from kerneltower.boundary import sorted_words
from kerneltower.points import point_label
from kerneltower.reports import Bundle, RunReport, fmt, jsonable, write_csv


def test_fmt_shortest_round_trip():
    for x in (0.1, 1 / 3, 1.9375000000000004, 2.0**-45):
        assert float(fmt(x)) == x
    assert fmt(np.float64(0.25)) == "0.25"
    assert fmt(7) == "7"
    assert fmt(np.True_) == fmt(True) == "1"
    assert fmt(np.False_) == fmt(False) == "0"
    assert fmt("<>") == "<>"
    assert fmt(np.str_("12")) == "12"
    assert fmt(None) == "None"


def test_gram_csv_bytes(tmp_path):
    # Grams of any dtype are written as float cells, one row per entry.
    Bundle(tmp_path).add_gram_csv("g.csv", ["", "1"], np.array([[1, 2], [3, 4]]))
    assert (tmp_path / "g.csv").read_bytes() == \
        b"point_a,point_b,value\n<>,<>,1.0\n<>,1,2.0\n1,<>,3.0\n1,1,4.0\n"


def test_gram_csv_matches_the_csv_module(tmp_path):
    # Labels quoted by the csv module's rules, and every float cell (nan,
    # inf, -0.0, subnormals) as fmt writes it through csv.writer.
    points = ["", "a,b", 'say "x"', "line\nbreak", (1, 2), 7, " pad "]
    rng = np.random.default_rng(3)
    G = rng.standard_normal((len(points), len(points))) * 10.0 ** rng.integers(-300, 300)
    G.flat[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
    Bundle(tmp_path).add_gram_csv("g.csv", points, G)
    labels = [point_label(s) for s in points]
    rows = [(la, lb, v) for la, row in zip(labels, G.tolist()) for lb, v in zip(labels, row)]
    write_csv(tmp_path / "ref.csv", ["point_a", "point_b", "value"], rows)
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert not (tmp_path / "json-only").exists()
    Bundle(tmp_path / "json-only", formats=("json",)).add_gram_csv("g.csv", points, G)
    assert not (tmp_path / "json-only" / "g.csv").exists()


def test_cylinder_csv_matches_the_csv_module(tmp_path):
    # cylinders.csv as cmd_boundary writes it: the shared sorted words as
    # columns, one text; against csv.writer rows with fmt on every cell.
    anchors = ["a,b", 'say "x"', "line\nbreak"]
    words = sorted_words(2, 3)[0]
    rng = np.random.default_rng(5)
    masses = rng.random((len(anchors), len(words)))
    masses[:, :3] = [0.0, 5e-324, 1.0]
    Bundle(tmp_path).add_gram_csv("c.csv", anchors, masses, columns=[w or "-" for w in words],
                                  header="anchor_label,word,probability")
    rows = [(point_label(s), w or "-", p) for s, row in zip(anchors, masses.tolist())
            for w, p in zip(words, row)]
    write_csv(tmp_path / "ref.csv", ["anchor_label", "word", "probability"], rows)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_cells_keep_the_text_of_fmt(tmp_path):
    cells = [0.1, np.float64(1 / 3), 7, np.int64(-2), True, np.True_, "a,b", "<>", 2.0**-1074]
    write_csv(tmp_path / "t.csv", ["x"] * len(cells), [cells])
    text = (tmp_path / "t.csv").read_text().splitlines()[1]
    assert text == "0.1,0.3333333333333333,7,-2,1,1,\"a,b\",<>,5e-324"


def test_jsonable_handles_numpy_and_nonfinite():
    obj = {
        "a": np.float64(1.5),
        "b": np.arange(3),
        "c": [np.int64(2), np.bool_(True)],
        "d": math.inf,
    }
    out = jsonable(obj)
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": [2, True], "d": "inf"}
    json.dumps(out)


def test_run_report_summary_stable():
    report = RunReport("demo", {"seed": 1}, {"x": np.float64(0.5)})
    a = report.summary_json()
    b = report.summary_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["command"] == "demo"
    assert parsed["results"]["x"] == 0.5
    assert "timings" not in parsed


def test_bundle_formats(tmp_path):
    bundle = Bundle(tmp_path / "csv-only", formats=("csv",))
    bundle.add_csv("t.csv", ["a"], [[1.0]])
    bundle.finish(RunReport("demo", {}, {}).summary_json(), "x: 1\n")
    assert (tmp_path / "csv-only" / "t.csv").exists()
    assert not (tmp_path / "csv-only" / "summary.json").exists()
    assert (tmp_path / "csv-only" / "config_resolved.yaml").exists()
