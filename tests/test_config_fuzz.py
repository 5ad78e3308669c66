"""Mutated configs exit by the contract: 0, 2, 3, 4 or 5, never a traceback.

The mutations are drawn from the config schema (``config.SCHEMA``): any key
it names, present or not, may be deleted, set to a value of the wrong type
or out of range, or joined by an unknown sibling; list values may lose a
cell or take a bad one.  Each example runs one command in-process.

Cost pins: ``pair_cap`` is 20000 and is never deleted or enlarged, and
``nsamples`` is 50 and never deleted; ``gaussian`` runs at ``--max-level 2``.
Huge values go only to the map count and the level counts that the small
cap refuses before it allocates much.  On the saturating finite-state
orbits the cap never refuses ``horizon`` or ``boundary.feature_levels``,
and a tower costs time linear in its level count, so those two take huge
values on the word tree only.
"""

import contextlib
import copy
import io
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerneltower import config
from kerneltower.cli import main

FEEDER_MAPS = [[0, 1, 0], [1, 1, 0]]
FEEDER_KERNEL = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.5]]
PINS = {"pair_cap": 20000, "nsamples": 50}

BASES = {
    "readme": {  # the README ex.yaml
        "model": {"kind": "word-tree", "m": 2, "r": 0.5, "c": 0.5, "eta": 1.0},
        "base_points": ["", "1", "2"], "horizon": 8, "seed": 42, "max_levels": 12, **PINS,
    },
    "feeder": {"model": {"kind": "feeder"}, **PINS},
    "finite-state": {
        "model": {"kind": "finite-state", "maps": FEEDER_MAPS, "kernel": FEEDER_KERNEL,
                  "lyapunov": {"C": 0.5, "beta": 0.5, "r": [1.0, 1.0, 1.0]}},
        "horizon": 4, "seed": 3, **PINS,
    },
    "csv": {
        "model": {"kind": "finite-state", "kernel_csv": "kernel.csv", "maps_csv": "maps.csv"},
        "horizon": 4, "seed": 3, **PINS,
        # Not a config key: the CSV files, written next to the config.
        "files": {"kernel.csv": FEEDER_KERNEL, "maps.csv": FEEDER_MAPS},
    },
}

BAD = ["no", True, None, -1, 0, 0.5, math.nan, math.inf, -math.inf, "x", [], {}, {"k": 1},
       [1.0], [[1.0], [0.0, 1.0]], [["x"]]]
HUGE = [10**9, 2**64]
HUGE_KEYS = {("model", "m"), ("horizon",), ("max_levels",), ("closure_depth",),
             ("boundary", "cylinder_levels"), ("boundary", "feature_levels")}
SATURATING = {("horizon",), ("boundary", "feature_levels")}  # huge on the word tree only
COMMANDS = ["tower", "diagonal", "gaussian", "boundary"]


def schema_paths(table, prefix=()):
    """Key paths of a (sub-)table, nested sub-tables included."""
    for key, entry in table.items():
        yield prefix + (key,)
        if isinstance(entry, dict):
            yield from schema_paths(entry, prefix + (key,))


def value_paths(node, prefix=()):
    """Paths to every key and list cell of a config tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


def mapping_paths(node, prefix=()):
    """Paths to every mapping of a config tree, the top level included."""
    if isinstance(node, dict):
        yield prefix
        for key, value in node.items():
            yield from mapping_paths(value, prefix + (key,))


def parent_of(cfg, path):
    node = cfg
    for key in path[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return None
        if not isinstance(node, (dict, list)):
            return None
    return node


def bad(values):
    # Copies: a later mutation may edit a drawn list or mapping in place.
    return st.sampled_from(values).map(copy.deepcopy)


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    cfg = copy.deepcopy(BASES[name])
    kind = cfg["model"]["kind"]
    for _ in range(draw(st.integers(1, 3))):
        paths = sorted(set(value_paths(cfg)) | set(schema_paths(config.SCHEMA))
                       | {("model", key) for key in config._MODELS[kind]}, key=repr)
        op = draw(st.sampled_from(["delete", "replace", "replace", "extra"]))
        if op == "extra":
            at = draw(st.sampled_from(sorted(mapping_paths(cfg), key=repr)))
            parent_of(cfg, at + ("extra_key",))["extra_key"] = draw(bad(BAD))
            continue
        path = draw(st.sampled_from(paths))
        parent = parent_of(cfg, path)
        if parent is None or path[0] in PINS and op == "delete":
            continue
        values = BAD
        if path in HUGE_KEYS and (kind == "word-tree" or path not in SATURATING):
            values = BAD + HUGE
        if isinstance(parent, dict):
            if op == "delete":
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = draw(bad(values))
        elif isinstance(path[-1], int) and path[-1] < len(parent):
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(bad(values))
    return cfg, draw(st.sampled_from(COMMANDS))


def run(cfg, command):
    files = cfg.pop("files", {})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, rows in files.items() if isinstance(files, dict) else ():
            rows = rows if isinstance(rows, list) else [[rows]]
            (tmp / name).write_text("".join(
                ",".join(map(str, row if isinstance(row, list) else [row])) + "\n" for row in rows))
        path = tmp / "run.yaml"
        path.write_text(yaml.safe_dump(cfg))
        args = [command, "--config", str(path), "--out", str(tmp / "out")]
        if command == "gaussian":
            args += ["--max-level", "2"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    return code, err.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_configs_exit_by_the_contract(case):
    cfg, command = case
    code, err = run(cfg, command)
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code:
        assert err.startswith("error["), err
    else:
        assert err == ""
