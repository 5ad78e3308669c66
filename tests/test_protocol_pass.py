"""Criteria 7 and 8 share one pass over the protocol seeds.

The shared pass must give exactly the metrics of the two separate loops
it replaced (kept in ``oracles.py``), draw once per protocol seed and
factor each tower once.
"""

import pytest

from kerneltower import gaussian, verify
from kerneltower.verify import VerifyContext, check_compression_fields, check_gaussian_covariance

import oracles
from oracles import reference_check_compression_fields, reference_check_gaussian_covariance


@pytest.fixture
def five_seeds(monkeypatch):
    monkeypatch.setattr(verify, "PROTOCOL_SEEDS", 5)
    monkeypatch.setattr(verify, "PROTOCOL_MIN_PASS", 4)


@pytest.mark.parametrize("fault", [False, True], ids=["None", "fault1"])
@pytest.mark.parametrize("seed", [20250809, 301])
def test_shared_pass_matches_separate_loops(five_seeds, monkeypatch, seed, fault):
    if fault:  # criterion 7's target moves, in the shared pass and in the reference loop
        oracles.shift_level3_target(monkeypatch, verify, oracles)
    ctx = VerifyContext(seed=seed, nsamples=2_000)
    c7, c8 = check_gaussian_covariance(ctx), check_compression_fields(ctx)
    assert (c7.criterion, c8.criterion) == (7, 8)
    assert (c7.passed, c7.metrics) == reference_check_gaussian_covariance(ctx)
    assert (c8.passed, c8.metrics) == reference_check_compression_fields(ctx)
    if fault:
        assert c7.metrics["seed_passes"] == 0 and not c7.passed and c8.passed


def test_one_draw_per_seed_and_one_factorization_per_tower(five_seeds, monkeypatch):
    draws, factored = [], []
    draw, factors = gaussian.TowerSampler.draw, gaussian.Tower.factors

    def counted_draw(self, nsamples, seed=None):
        draws.append(seed)
        return draw(self, nsamples, seed)

    def counted_factors(self, tol):
        factored.append(id(self))
        return factors(self, tol)

    monkeypatch.setattr(gaussian.TowerSampler, "draw", counted_draw)
    monkeypatch.setattr(gaussian.Tower, "factors", counted_factors)
    ctx = VerifyContext(seed=11, nsamples=2_000)
    check_gaussian_covariance(ctx)
    check_compression_fields(ctx)
    assert draws == [11 + k for k in range(5)]
    assert len(factored) == len(set(factored)) == 2
