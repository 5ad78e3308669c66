"""Output checks of the CLI steps.  A failed check fails its invocation.

Tolerances are the program's own pinned ones.  Gaussian 5-sigma flags are
not gated here: on many points some seeds show one exceedance among ~1e5
z-scores, and the statistical protocol is verify's 99-of-100.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

IDENTITY_TOL = 1e-12
BOUNDARY_GRAM_TOL = 1e-10


def _limits(results: dict, spec) -> list[str]:
    """Failures among (label, value path, limit) triples: value <= limit."""
    failures = []
    for label, path, limit in spec:
        value = results
        for key in path:
            value = value[key]
        if not isinstance(value, (int, float)) or not value <= limit:
            failures.append(f"{label} = {value!r} exceeds {limit:g}")
    return failures


def nan_count(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(math.isnan(float(row[2])) for row in list(csv.reader(fh))[1:])


def check_tower(results: dict, out: Path, lines) -> tuple[list[str], dict]:
    failures = _limits(results, [
        ("telescoping residual", ("tower", "telescoping_rel_residual"), IDENTITY_TOL),
        ("word route residual", ("word_expansion", "max_abs_residual"), IDENTITY_TOL),
    ])
    if results["subinvariance"]["defect_psd"] is not True:
        failures.append("one-step defect is not PSD")
    values = {
        "tower.telescoping_resid": results["tower"]["telescoping_rel_residual"],
        "tower.word_resid": results["word_expansion"]["max_abs_residual"],
        # Known defect, counted and not failed: 0 * inf in the uncertified
        # completion bound where a zero diagonal tail meets an infinite one.
        "tower.nan_bounds": nan_count(out / "completion_bounds.csv"),
    }
    return failures, values


def check_diagonal(results: dict, out: Path, lines) -> tuple[list[str], dict]:
    return _limits(results, [
        ("layer-cake residual", ("layer_cake", "max_rel_residual"), IDENTITY_TOL),
    ]), {}


def check_gaussian(results: dict, out: Path, lines) -> tuple[list[str], dict]:
    failures = []
    mart = results["martingale"]
    for label, value in [("top-level z", results["top_level_max_z"]),
                         ("mean z", mart["max_mean_z"]),
                         ("cross z", mart["max_cross_z"]),
                         ("quadratic variation z", mart["max_qv_z"])]:
        if not isinstance(value, float) or not math.isfinite(value):
            failures.append(f"{label} = {value!r} is not a finite number")
    if mart["threshold"] != 5.0:
        failures.append(f"martingale threshold {mart['threshold']!r}, expected 5.0")
    return failures, {}


def check_boundary(results: dict, out: Path, lines) -> tuple[list[str], dict]:
    failures = _limits(results, [
        ("cylinder level sums", ("cylinders", "max_level_sum_error"), IDENTITY_TOL),
        ("intertwining one step", ("intertwining", "one_step_residual"), IDENTITY_TOL),
        ("intertwining Markov", ("intertwining", "markov_residual"), IDENTITY_TOL),
        ("normalization", ("intertwining", "normalization_residual"), IDENTITY_TOL),
        ("boundary Gram residual", ("boundary_gram", "residual"), BOUNDARY_GRAM_TOL),
        ("nu shift", ("boundary_gram", "nu_invariance"), IDENTITY_TOL),
    ])
    values = {
        "boundary.resid": results["boundary_gram"]["residual"],
        "boundary.nu_shift": results["boundary_gram"]["nu_invariance"],
    }
    return failures, values


def check_verify(results: dict, out: Path, lines) -> tuple[list[str], dict]:
    passed = [line for line in lines if line.startswith("[PASS] criterion")]
    failures = []
    if len(passed) != 12 or results.get("all_passed") is not True:
        failures.append(f"verify passed {len(passed)}/12 criteria")
    return failures, {}


STAGE_CHECKS = {
    "tower": check_tower,
    "diagonal": check_diagonal,
    "gaussian": check_gaussian,
    "boundary": check_boundary,
    "verify": check_verify,
}


def check_step(step, out: Path, exit_code: int, stderr: str, lines) -> tuple[list[str], dict]:
    """Failures and reported values of one invocation."""
    if exit_code != step.expect_exit:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"{step.stage}: exit {exit_code}, expected {step.expect_exit}: {tail[0]}"], {}
    if step.expect_exit != 0:
        if not stderr.startswith(step.expect_stderr):
            return [f"{step.stage}: stderr {stderr[:120]!r} lacks {step.expect_stderr!r}"], {}
        return [], {}
    try:
        results = json.loads((out / "summary.json").read_text())["results"]
        failures, values = STAGE_CHECKS[step.stage](results, out, lines)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{step.stage}: unreadable output ({type(exc).__name__}: {exc})"], {}
    return [f"{step.stage}: {f}" for f in failures], values


def bundle_digest(out: Path) -> dict[str, str]:
    """File name -> sha256 of every file of a bundle."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def tree_oracle_failures(out: Path, model_params: dict) -> list[str]:
    """gram_level_NN.csv against WordTreeModel.oracle_level, entrywise to 1e-12."""
    from kerneltower.models import WordTreeModel

    params = {k: v for k, v in model_params.items() if k != "kind"}
    model = WordTreeModel(**params)
    failures = []
    files = sorted(out.glob("gram_level_*.csv"))
    if not files:
        return ["tower: no gram_level_NN.csv written"]
    for path in files:
        n = int(path.stem.rsplit("_", 1)[1])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        worst = 0.0
        for a, b, value in rows:
            u = model.point("" if a == "<>" else a)
            v = model.point("" if b == "<>" else b)
            worst = max(worst, abs(float(value) - model.oracle_level(n, u, v)))
        if not worst <= IDENTITY_TOL:
            failures.append(f"tower: {path.name} differs from the oracle by {worst:.3e}")
    return failures
