"""Acceptance suite: one test per criterion, at the stated tolerances.

The checks themselves live in kerneltower.verify and back the ``verify``
CLI subcommand; this module runs them once (session scope) and asserts
each criterion, printing one pass/fail line per criterion.  The final
test exercises the bundle-level determinism criterion by invoking the
verify command twice and comparing the output directories byte for byte.
"""

import csv
import filecmp
import json
from types import SimpleNamespace

import pytest

from kerneltower.cli import main
from kerneltower.verify import VerifyContext, run_checks


@pytest.fixture(scope="session")
def check_results():
    ctx = VerifyContext(seed=20250809, nsamples=100_000)
    return {r.criterion: r for r in run_checks(ctx)}


@pytest.mark.parametrize("criterion", range(1, 13), ids=lambda c: f"criterion-{c:02d}")
def test_acceptance_criterion(check_results, criterion):
    result = check_results[criterion]
    print(result.line())
    assert result.passed, result.line()


def test_acceptance_criterion_12_full_bundles(tmp_path, capsys):
    """Verify run twice with identical config+seed: byte-identical bundles."""
    cfg = tmp_path / "verify.yaml"
    cfg.write_text("model:\n  kind: word-tree\nseed: 20250809\nnsamples: 20000\n")
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()

    cmp = filecmp.dircmp(out1, out2)
    assert not cmp.left_only and not cmp.right_only
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, cmp.common_files, shallow=False)
    assert not mismatch and not errors

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["results"]["all_passed"] is True
    assert (out1 / "verify_results.csv").read_text() == (out2 / "verify_results.csv").read_text()
    with open(out1 / "verify_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert all(row["passed"] == "1" for row in rows), rows


def test_fault_injection_fails_named_check(tmp_path, capsys):
    """A perturbed kernel entry must surface as a telescoping failure."""
    from kerneltower.verify import check_telescoping

    ctx = VerifyContext(fault={"check": "telescoping", "delta": 1e-3})
    result = check_telescoping(ctx)
    print(result.line())
    assert not result.passed
    assert result.criterion == 3


def test_blowup_classification_reads_the_context(monkeypatch):
    """Criterion 6 passes the context's ceiling and tolerance on, as criterion 5 does."""
    import kerneltower.verify as verify

    calls = []

    def record(name, result):
        def fn(*args, **kwargs):
            calls.append((name, kwargs))
            return result
        return fn

    monkeypatch.setattr(verify, "diagonal_trace", record("trace", SimpleNamespace(verdict="converging")))
    monkeypatch.setattr(verify, "boundedness_probe", record("probe", "converging"))
    verify.check_blowup_classification(VerifyContext(ceiling=123.0, tol=1e-7))
    assert calls == [("trace", {"ceiling": 123.0})] * 2 + [("probe", {"ceiling": 123.0, "tol": 1e-7})] * 2
