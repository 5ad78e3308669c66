"""Experiment configuration: one YAML key-tree per run.

``SCHEMA`` is the schema: for each key, the type, the default, the range
and the message that names a value outside it.  A nested mapping is a
sub-table, and ``model`` has one sub-table per ``kind``.  ``parse_config``
walks it, and ``override`` checks a command-line flag by the same entry.
Unknown keys are refused at every level, and every error names its key
path (``config <path>: ...``) or its flag.  This module is the one place
that decides whether a config value is valid; each library default it
restates is read from the module that owns it.
"""

from __future__ import annotations

import csv as _csv
import math
from contextlib import suppress
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Mapping, NamedTuple

import yaml

from .boundary import symbol_weights_ok
from .errors import InputError, ResourceError
from .gaussian import DEFAULT_NSAMPLES
from .kernels import DEFAULT_PSD_TOL
from .points import DEFAULT_WORD_CAP
from .tower import DEFAULT_CEILING, DEFAULT_MAX_LEVELS

# libyaml where PyYAML has it: the same data and text, several times faster.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_REQUIRED = object()


def _error(path: str, message: str) -> InputError:
    # A path is a config key path, or a command-line flag such as "--tol".
    return InputError(f"{path} {message}" if path.startswith("--") else f"config {path}: {message}")


def _type_error(path: str, expected: str, value) -> InputError:
    return _error(path, f"expected {expected}, got {value!r}")


def _exactly(kind: type, expected: str) -> Callable:
    def check(value, path: str):
        if type(value) is not kind:  # so a bool is not an integer
            raise _type_error(path, expected, value)
        return value

    return check


_as_int = _exactly(int, "an integer")
_as_bool = _exactly(bool, "true or false")
_as_str = _exactly(str, "a string")
_as_list = _exactly(list, "a list")


def _as_float(value, path: str) -> float:
    # YAML 1.1 reads exponents without a sign ("1.0e4") as strings, so
    # numeric strings are accepted.  NaN passes here; every range refuses it.
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _type_error(path, "a number", value)
    try:
        return float(value)
    except (ValueError, OverflowError):
        raise _type_error(path, "a number", value) from None


def _as_numbers(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise _type_error(path, "a nonempty list of numbers", value)
    return [_as_float(x, f"{path}[{k}]") for k, x in enumerate(value)]


def _as_point_values(value, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise _type_error(path, "a mapping of point label to number", value)
    return {label: _as_float(x, f"{path}.{label}") for label, x in value.items()}


def _one_of(choices: tuple) -> Callable:
    def check(value, path: str):
        if value not in choices:  # a tuple: unhashable values compare too
            raise _error(path, f"{value!r} not one of {choices}")
        return value

    return check


def _by_kind(tables: Mapping) -> Callable:
    """A mapping whose ``kind`` names the sub-table its other keys follow."""
    def check(value, path: str) -> dict:
        if not isinstance(value, Mapping) or "kind" not in value:
            raise _type_error(path, "a mapping with a 'kind' key", value)
        kind = _one_of(tuple(tables))(value["kind"], f"{path}.kind")
        rest = {key: x for key, x in value.items() if key != "kind"}
        return {"kind": kind, **_walk(tables[kind], rest, path)}

    return check


def _as_certificate(value, path: str):
    if value in ("auto", "none", None):
        return value
    if not isinstance(value, Mapping):
        raise _type_error(path, "'auto', 'none' or a mapping", value)
    return _walk(_CERTIFICATE, value, path)


class Key(NamedTuple):
    """One schema entry: ``type(value, path)`` checks the type and returns the
    value as the program reads it; ``ok`` is the range, ``says`` its message.
    A key whose default is null also accepts null."""

    type: Callable
    default: Any = _REQUIRED
    ok: Callable = lambda x: x == x  # NaN is the one value unequal to itself
    says: str = "must not be NaN"


_NONNEGATIVE = (lambda n: n >= 0, "must be nonnegative")
_POSITIVE = (lambda n: n >= 1, "must be positive")
_BRANCHES = (lambda m: m >= 2, "must be at least 2")
_UNIT = (lambda x: 0.0 < x < 1.0, "must lie strictly between 0 and 1")
_WEIGHTS = (symbol_weights_ok, "must be positive weights summing to 1")

_LYAPUNOV = {  # a per-state certificate of a finite-state model; r has one value per state
    "C": Key(_as_float, _REQUIRED, math.isfinite, "must be finite"),
    "beta": Key(_as_float, _REQUIRED, math.isfinite, "must be finite"),
    "r": Key(_as_numbers, _REQUIRED, lambda r: all(map(math.isfinite, r)), "must be finite numbers"),
}

_MODELS = {
    "word-tree": {
        "m": Key(_as_int, 2, *_BRANCHES),
        "r": Key(_as_float, 0.5, *_UNIT),
        "c": Key(_as_float, 0.5, *_UNIT),
        "eta": Key(_as_float, 1.0, lambda x: 0.0 <= x < math.inf, "must be finite and nonnegative"),
    },
    "delta": {"m": Key(_as_int, 2, *_BRANCHES)},
    "feeder": {},
    "finite-state": {
        # Inline tables or CSV files relative to the config, one of each
        # required; checked together by _finite_state_tables.
        "kernel": Key(_as_list, None),
        "maps": Key(_as_list, None),
        "kernel_csv": Key(_as_str, None),
        "maps_csv": Key(_as_str, None),
        "name": Key(_as_str, "finite-state"),
        "lyapunov": Key(lambda value, path: _walk(_LYAPUNOV, value, path), None),
    },
}

_DEFAULT_BASE_POINTS = {
    "word-tree": ["", "1", "2"],
    "delta": [""],
    "feeder": [0, 2],
    "finite-state": [],  # all states
}

_CERTIFICATE = {
    "C": Key(_as_float),
    "beta": Key(_as_float),
    "r": Key(_by_kind({  # length-decay reads word lengths: word-tree and delta only
        "length-decay": {"base": Key(_as_float)},
        "table": {"values": Key(_as_point_values, _REQUIRED,
                                lambda v: all(x == x for x in v.values()), "must not be NaN")},
    })),
}

SCHEMA = {
    "model": Key(_by_kind(_MODELS)),
    "base_points": Key(_as_list, None),  # point labels; the default is the model kind's
    "closure_depth": Key(_as_int, 0, *_NONNEGATIVE),
    "horizon": Key(_as_int, 8, *_NONNEGATIVE),
    "tol": Key(_as_float, DEFAULT_PSD_TOL, lambda x: 0.0 < x < math.inf, "must be finite and positive"),
    "seed": Key(_as_int, None, lambda s: 0 <= s < 2**128, "must be at least 0 and below 2**128"),
    "nsamples": Key(_as_int, DEFAULT_NSAMPLES, *_POSITIVE),
    "max_levels": Key(_as_int, DEFAULT_MAX_LEVELS, *_NONNEGATIVE),
    "trace_eps": Key(_as_float, None, lambda x: x >= 0.0, "must be nonnegative"),
    "ceiling": Key(_as_float, DEFAULT_CEILING, lambda x: x > 0.0, "must be positive"),
    "pair_cap": Key(_as_int, DEFAULT_WORD_CAP, *_POSITIVE),
    "certificate": Key(_as_certificate, "auto"),
    "boundary": {
        "cylinder_levels": Key(_as_int, 12, *_NONNEGATIVE),
        "feature_levels": Key(_as_int, 8, *_POSITIVE),  # the feature Gram needs a defect
        # Product cylinder weights; the count, one per map, is checked where
        # the model exists.
        "nu": Key(_as_numbers, [0.5, 0.5], *_WEIGHTS),
        "nu_alt": Key(_as_numbers, [0.3, 0.7], *_WEIGHTS),
    },
    "gaussian": {"export_samples": Key(_as_bool, False)},
    "output": {"formats": Key(_as_list, ["csv", "json"], lambda f: all(x in ("csv", "json") for x in f),
                              "must be a list drawn from ['csv', 'json']")},
}


def _check(key: Key, value, path: str):
    if value is None and key.default is None:
        return None
    value = key.type(value, path)
    if not key.ok(value):
        raise _error(path, key.says)
    return value


def _walk(table: Mapping, raw, path: str) -> dict:
    """Check the mapping ``raw`` against ``table``; missing keys take their defaults."""
    if not isinstance(raw, Mapping):
        raise _type_error(path or "(top level)", "a mapping", raw)
    for key in raw:
        if key not in table:
            raise _error(f"{path}.{key}" if path else str(key),
                         f"unknown key (expected one of {sorted(table)})")
    out = {}
    for key, entry in table.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(entry, Mapping):
            out[key] = _walk(entry, raw.get(key, {}), sub)
        elif key in raw:
            out[key] = _check(entry, raw[key], sub)
        elif entry.default is _REQUIRED:
            raise _error(sub, "required")
        else:
            out[key] = list(entry.default) if isinstance(entry.default, list) else entry.default
    return out


def _number_table(rows, path: str, note: str = "") -> list[list[float]]:
    """A rectangular table of finite numbers, as float rows, converted row by row."""
    table = None
    # Bools, nulls and nested lists are not numbers; numeric strings are.
    if all(isinstance(row, list) for row in rows) and \
            set(map(type, chain.from_iterable(rows))) <= {int, float, str}:
        try:
            table = [list(map(float, row)) for row in rows]
        except (ValueError, OverflowError):
            pass
    if not table or len(set(map(len, table))) != 1 or not all(map(math.isfinite, chain.from_iterable(table))):
        raise _error(path, f"{note}expected a rectangular table of finite numbers")
    return table


def _check_states(rows, path: str, note: str, S: int) -> None:
    """Map tables: rows of S integer states in 0..S-1 (not bools, not floats)."""
    if not rows or not all(isinstance(row, list) and len(row) == S for row in rows) or \
            set(map(type, chain.from_iterable(rows))) - {int} or \
            not all(0 <= s < S for s in chain.from_iterable(rows)):
        raise _error(path, f"{note}expected map tables of {S} integer states in 0..{S - 1}")


def _finite_state_tables(params: dict, written: dict, base_dir: Path) -> None:
    """Read the ``*_csv`` tables, which echo as read, and check the kernel,
    maps and lyapunov tables against the kernel's side S."""
    at = {key: (f"model.{key}", "") for key in ("kernel", "maps")}  # key path, file
    for key in at:
        name = params.pop(f"{key}_csv")
        if name is None and params[key] is None:
            raise _error(f"model.{key}", f"required (or {key}_csv)")
        if name is not None:
            path = base_dir / name
            at[key] = (f"model.{key}_csv", f"file {path}: ")
            if not path.exists():
                raise _error(at[key][0], f"file {path} not found")
            with open(path, newline="") as fh:
                params[key] = [row for row in _csv.reader(fh) if row]
    if at["maps"][1]:
        with suppress(ValueError):  # text cells: what is not an integer is refused below
            params["maps"] = [list(map(int, row)) for row in params["maps"]]
    params["kernel"] = _number_table(params["kernel"], *at["kernel"])
    S = len(params["kernel"])
    _check_states(params["maps"], *at["maps"], S)
    for key in at:
        if written.pop(f"{key}_csv", None) is not None:
            written[key] = params[key]
    lyapunov = params["lyapunov"]
    if lyapunov is not None and len(lyapunov["r"]) != S:
        raise _error("model.lyapunov.r", f"expected {S} per-state values, got {len(lyapunov['r'])}")


class Config(SimpleNamespace):
    """A checked experiment configuration: one attribute per top-level key of
    ``SCHEMA`` (``model`` as model_kind and model_params, ``output`` as
    formats), plus ``written``: model, certificate and boundary as written."""

    def resolved(self) -> dict:
        """Plain mapping echo, stable under parse -> echo -> parse: the values
        under model, certificate and boundary as written, the rest as checked."""
        echo = {key: getattr(self, key) for key in SCHEMA if hasattr(self, key)}
        return {**echo, "output": {"formats": list(self.formats)}, **self.written}

    def echo_yaml(self) -> str:
        return yaml.dump(self.resolved(), Dumper=_Dumper, sort_keys=True)


def parse_config(raw: Mapping, base_dir: Path | None = None) -> Config:
    """Check a raw mapping against ``SCHEMA``; errors carry the key path."""
    values = _walk(SCHEMA, raw, "")
    params = values.pop("model")
    kind = params.pop("kind")
    cert = values["certificate"]
    written = {  # the echo of these three: as written, defaults filled in for boundary
        "model": dict(raw["model"]),
        "certificate": dict(raw["certificate"]) if isinstance(cert, dict) else cert,
        "boundary": {**values["boundary"], **raw.get("boundary", {})},
    }
    if kind == "finite-state":
        _finite_state_tables(params, written["model"], Path(base_dir or "."))
    if isinstance(cert, dict) and cert["r"]["kind"] == "length-decay" and kind in ("feeder", "finite-state"):
        raise _error("certificate.r.kind", "length-decay needs word points, "
                                           f"not the integer states of a {kind} model")
    if kind in ("word-tree", "delta") and params["m"] > values["pair_cap"]:
        raise ResourceError(f"config model.m: {params['m']} maps exceed pair_cap = {values['pair_cap']}, "
                            "so one pair's first orbit layer could not fit")
    if "base_points" not in raw:
        values["base_points"] = list(_DEFAULT_BASE_POINTS[kind])
    return Config(model_kind=kind, model_params=params, base_points=values.pop("base_points") or [],
                  formats=values.pop("output")["formats"], written=written, **values)


def override(cfg: Config, key: str, value, flag: str) -> None:
    """Set the top-level ``key`` from a command-line ``flag``, checked by its entry."""
    setattr(cfg, key, _check(SCHEMA[key], value, flag))


def load_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file {path} not found")
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise InputError(f"config file {path}: invalid YAML ({exc})") from exc
    return parse_config({} if raw is None else raw, base_dir=path.parent)
