"""Experiment configuration: one YAML key-tree per run.

Schema (all keys optional unless noted):

    model:                  # required
      kind: word-tree | delta | feeder | finite-state
      m, r, c, eta          # word-tree / delta parameters
      maps, kernel, name    # finite-state tables (kernel may be a CSV path
      kernel_csv, maps_csv  #   via the *_csv variants)
      lyapunov: {C, beta, r: [per-state values]}
    base_points: ["", "1"]  # model point labels; default model-specific
    closure_depth: 0        # base set = orbit closure of base_points
    horizon: 8
    tol: 1.0e-9
    seed: 1                 # required by stochastic subcommands
    nsamples: 100000
    max_levels: 40          # completion-estimate stop
    trace_eps: null         # absolute trace stop (default 1e-10 * trace K0)
    ceiling: 1.0e12
    pair_cap: 16777216
    certificate: auto       # auto | none | {C, beta, r: {kind: length-decay,
                            #   base} | {kind: table, values: {label: val}}}
    boundary:               # no other keys
      cylinder_levels: 12   # >= 0
      feature_levels: 8     # >= 1
      nu: [0.5, 0.5]        # positive weights summing to 1, one per map
      nu_alt: [0.3, 0.7]    #   (the count is checked by ``boundary``)
    gaussian:
      export_samples: false
    output:
      formats: [csv, json]
    fault_injection: null   # {check: <name>, delta: <float>} (verify only)

Schema violations raise input errors with the offending key path.
"""

from __future__ import annotations

import csv as _csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import InputError

# libyaml where PyYAML has it: the same data and text, several times faster.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_TOP_KEYS = {
    "model", "base_points", "closure_depth", "horizon", "tol", "seed",
    "nsamples", "max_levels", "trace_eps", "ceiling", "pair_cap",
    "certificate", "boundary", "gaussian", "output", "fault_injection",
}
_MODEL_KINDS = ("word-tree", "delta", "feeder", "finite-state")
_BOUNDARY_DEFAULTS = {
    "cylinder_levels": 12,
    "feature_levels": 8,
    "nu": [0.5, 0.5],
    "nu_alt": [0.3, 0.7],
}

_DEFAULT_BASE_POINTS = {
    "word-tree": ["", "1", "2"],
    "delta": [""],
    "feeder": [0, 2],
    "finite-state": None,  # all states
}


def _type_error(path: str, expected: str, value) -> InputError:
    return InputError(f"config {path}: expected {expected}, got {value!r}")


def _as_float(value, path: str) -> float:
    # YAML 1.1 reads exponents without a sign ("1.0e4") as strings, so
    # numeric strings are accepted here.  NaN passes no range check that
    # follows (every comparison with it is false), so it is refused here.
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise _type_error(path, "a number", value) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(path, "a number", value)
    if math.isnan(value):
        raise _type_error(path, "a number, not NaN", value)
    return float(value)


def _check_weights(value, path: str) -> None:
    # The symbol weights of a product cylinder measure; their count must
    # match the model's map count, which is checked where the model exists.
    if not isinstance(value, list) or not value:
        raise _type_error(path, "a nonempty list of weights", value)
    q = [_as_float(x, f"{path}[{k}]") for k, x in enumerate(value)]
    if not all(x > 0.0 for x in q):
        raise InputError(f"config {path}: weights must be strictly positive, got {value!r}")
    if abs(math.fsum(q) - 1.0) > 1e-9:
        raise InputError(f"config {path}: weights must sum to 1, got {value!r}")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _type_error(path, "an integer", value)
    return value


def _check_tail_weight(r, kind: str) -> None:
    """The certificate's r: {kind: length-decay, base} or {kind: table, values}."""
    if not isinstance(r, Mapping) or "kind" not in r:
        raise InputError("config certificate.r: mapping with a 'kind' key required")
    key = {"length-decay": "base", "table": "values"}.get(r["kind"])
    if key is None:
        raise InputError(f"config certificate.r.kind: unknown {r['kind']!r}")
    if key == "base" and kind in ("feeder", "finite-state"):
        raise InputError("config certificate.r.kind: length-decay needs word points, "
                         f"not the integer states of a {kind} model")
    if key not in r:
        raise InputError(f"config certificate.r.{key}: required")
    if key == "base":
        _as_float(r["base"], "certificate.r.base")
        return
    if not isinstance(r["values"], Mapping):
        raise _type_error("certificate.r.values", "a mapping of point label to number", r["values"])
    for label, value in r["values"].items():
        _as_float(value, f"certificate.r.values.{label}")


@dataclass
class Config:
    """Resolved experiment configuration (defaults applied, overrides merged)."""

    model_kind: str
    model_params: dict = field(default_factory=dict)
    base_points: list = field(default_factory=list)
    closure_depth: int = 0
    horizon: int = 8
    tol: float = 1e-9
    seed: int | None = None
    nsamples: int = 100_000
    max_levels: int = 40
    trace_eps: float | None = None
    ceiling: float = 1e12
    pair_cap: int = 2**24
    certificate: Any = "auto"
    boundary: dict = field(default_factory=dict)
    gaussian: dict = field(default_factory=dict)
    formats: list = field(default_factory=lambda: ["csv", "json"])
    fault_injection: dict | None = None

    def resolved(self) -> dict:
        """Plain mapping echo, stable under parse -> echo -> parse."""
        return {
            "model": {"kind": self.model_kind, **self.model_params},
            "base_points": list(self.base_points),
            "closure_depth": self.closure_depth,
            "horizon": self.horizon,
            "tol": self.tol,
            "seed": self.seed,
            "nsamples": self.nsamples,
            "max_levels": self.max_levels,
            "trace_eps": self.trace_eps,
            "ceiling": self.ceiling,
            "pair_cap": self.pair_cap,
            "certificate": self.certificate,
            "boundary": dict(self.boundary),
            "gaussian": dict(self.gaussian),
            "output": {"formats": list(self.formats)},
            "fault_injection": self.fault_injection,
        }

    def echo_yaml(self) -> str:
        return yaml.dump(self.resolved(), Dumper=_Dumper, sort_keys=True)


def _load_table_csv(path: Path, key: str):
    if not path.exists():
        raise InputError(f"config model.{key}: file {path} not found")
    with open(path, newline="") as fh:
        return [[float(x) for x in row] for row in _csv.reader(fh) if row]


def parse_config(raw: Mapping, base_dir: Path | None = None) -> Config:
    """Validate a raw mapping into a Config; errors carry the key path."""
    if not isinstance(raw, Mapping):
        raise _type_error("(top level)", "a mapping", raw)
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise InputError(f"config: unknown keys {sorted(unknown)}")

    model = raw.get("model")
    if not isinstance(model, Mapping) or "kind" not in model:
        raise InputError("config model: required mapping with a 'kind' key")
    kind = model["kind"]
    if kind not in _MODEL_KINDS:
        raise InputError(f"config model.kind: {kind!r} not one of {_MODEL_KINDS}")
    params = {k: v for k, v in model.items() if k != "kind"}
    for key in {"word-tree": ("m", "r", "c", "eta"), "delta": ("m",)}.get(kind, ()):
        if key in params:
            (_as_int if key == "m" else _as_float)(params[key], f"model.{key}")
    if kind == "finite-state" and base_dir is not None:
        for key in ("kernel", "maps"):
            csv_key = f"{key}_csv"
            if csv_key in params:
                table = _load_table_csv(base_dir / params.pop(csv_key), csv_key)
                if key == "maps":
                    table = [[int(x) for x in row] for row in table]
                params[key] = table

    base_points = raw.get("base_points", _DEFAULT_BASE_POINTS[kind])
    if base_points is not None and not isinstance(base_points, list):
        raise _type_error("base_points", "a list", base_points)

    cfg = Config(model_kind=kind, model_params=params)
    if base_points is not None:
        cfg.base_points = list(base_points)
    cfg.closure_depth = _as_int(raw.get("closure_depth", 0), "closure_depth")
    cfg.horizon = _as_int(raw.get("horizon", 8), "horizon")
    if cfg.horizon < 0:
        raise InputError("config horizon: must be nonnegative")
    cfg.tol = _as_float(raw.get("tol", 1e-9), "tol")
    if not 0.0 < cfg.tol < math.inf:
        raise InputError("config tol: must be finite and positive")
    if raw.get("seed") is not None:
        cfg.seed = _as_int(raw["seed"], "seed")
    cfg.nsamples = _as_int(raw.get("nsamples", 100_000), "nsamples")
    if cfg.nsamples < 1:
        raise InputError("config nsamples: must be positive")
    cfg.max_levels = _as_int(raw.get("max_levels", 40), "max_levels")
    if raw.get("trace_eps") is not None:
        cfg.trace_eps = _as_float(raw["trace_eps"], "trace_eps")
    cfg.ceiling = _as_float(raw.get("ceiling", 1e12), "ceiling")
    cfg.pair_cap = _as_int(raw.get("pair_cap", 2**24), "pair_cap")

    cert = raw.get("certificate", "auto")
    if cert not in ("auto", "none", None) and not isinstance(cert, Mapping):
        raise _type_error("certificate", "'auto', 'none', or a mapping", cert)
    if isinstance(cert, Mapping):
        for key in ("C", "beta", "r"):
            if key not in cert:
                raise InputError(f"config certificate.{key}: required")
        _as_float(cert["C"], "certificate.C")
        _as_float(cert["beta"], "certificate.beta")
        _check_tail_weight(cert["r"], kind)
        cert = dict(cert)
    cfg.certificate = cert

    boundary = raw.get("boundary", {})
    if not isinstance(boundary, Mapping):
        raise _type_error("boundary", "a mapping", boundary)
    for key in boundary:
        if key not in _BOUNDARY_DEFAULTS:
            raise InputError(f"config boundary.{key}: unknown key "
                             f"(expected one of {sorted(_BOUNDARY_DEFAULTS)})")
    cfg.boundary = {}
    for key, default in _BOUNDARY_DEFAULTS.items():
        value, path = boundary.get(key, default), f"boundary.{key}"
        if key.endswith("_levels"):
            least = 1 if key == "feature_levels" else 0  # the feature Gram needs a defect
            if _as_int(value, path) < least:
                raise InputError(f"config {path}: must be at least {least}, got {value}")
        else:
            _check_weights(value, path)
        cfg.boundary[key] = list(value) if isinstance(value, list) else value

    gaussian = raw.get("gaussian", {})
    if not isinstance(gaussian, Mapping):
        raise _type_error("gaussian", "a mapping", gaussian)
    cfg.gaussian = {"export_samples": bool(gaussian.get("export_samples", False))}

    output = raw.get("output", {})
    if not isinstance(output, Mapping):
        raise _type_error("output", "a mapping", output)
    formats = output.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not set(formats) <= {"csv", "json"}:
        raise InputError("config output.formats: must be a list drawn from ['csv', 'json']")
    cfg.formats = list(formats)

    fault = raw.get("fault_injection")
    if fault is not None:
        if not isinstance(fault, Mapping) or "check" not in fault or "delta" not in fault:
            raise InputError("config fault_injection: needs 'check' and 'delta'")
        cfg.fault_injection = {"check": str(fault["check"]),
                               "delta": _as_float(fault["delta"], "fault_injection.delta")}
    return cfg


def load_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise InputError(f"config file {path} not found")
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise InputError(f"config file {path}: invalid YAML ({exc})") from exc
    if raw is None:
        raw = {}
    return parse_config(raw, base_dir=path.parent)
