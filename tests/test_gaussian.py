import math

import numpy as np
import pytest

from kerneltower import (
    TowerSampler,
    boundedness_probe,
    build_tower,
    diagonal_trace,
    empirical_covariance,
    export_batch_csv,
    limit_fields,
    make_rng,
    martingale_checks,
)
from kerneltower.gaussian import sample_covariance

from oracles import reference_martingale_z, reference_sample


@pytest.fixture(scope="module")
def ex_tower(ex25, small_base):
    return build_tower(ex25.kernel, ex25.branch, small_base, 4)


@pytest.fixture(scope="module")
def sink_tower(sink_model):
    return build_tower(sink_model.kernel, sink_model.branch, list(range(sink_model.S)), 4)


@pytest.fixture(scope="module")
def towers(ex_tower, sink_tower, ex25, small_base):
    """Word-tree, zero-defect and finite-state towers."""
    zero = build_tower(ex25.diag_invariant, ex25.branch, small_base, 3)
    return {"ex25": ex_tower, "zero-defect": zero, "sink": sink_tower}


@pytest.mark.parametrize("name", ["ex25", "zero-defect", "sink"])
def test_sample_matches_per_level_reference(towers, name):
    sampler = TowerSampler(towers[name], seed=41)
    batch = sampler.sample(2_000)
    ref = reference_sample(sampler.factors, 41, 2_000)
    assert np.array_equal(batch.values, ref)
    for n in range(batch.top_level):
        assert np.array_equal(batch.increment(n), ref[:, n + 1] - ref[:, n])


@pytest.mark.parametrize("name", ["ex25", "zero-defect", "sink"])
def test_limit_fields_match_per_level_reference(towers, name):
    sampler = TowerSampler(towers[name], seed=43)
    fields = limit_fields(sampler, 2_000)
    ref = reference_sample(sampler.factors, 43, 2_000)
    assert np.array_equal(fields.Y, ref[:, 0])
    scale = max(float(np.max(np.abs(ref))), 1.0)
    assert np.max(np.abs(fields.Z - ref[:, -1])) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["ex25", "zero-defect", "sink"])
def test_martingale_z_match_pairwise_reference(towers, name):
    tower = towers[name]
    batch = TowerSampler(tower, seed=47).sample(20_000)
    report = martingale_checks(batch, tower)
    mean_z, cross_z, qv_z = reference_martingale_z(batch.values, tower.defects)
    got = [report.max_mean_z, report.max_cross_z] + report.per_level_qv_z
    want = [mean_z, cross_z] + qv_z
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_factors_reconstruct_grams(ex_tower):
    sampler = TowerSampler(ex_tower, seed=1)
    targets = [ex_tower.levels[0]] + ex_tower.defects
    for F, T in zip(sampler.factors, targets):
        assert np.max(np.abs(F @ F.T - T)) <= 1e-10


def test_same_seed_same_stream(ex_tower):
    a = TowerSampler(ex_tower, seed=123).sample(500)
    b = TowerSampler(ex_tower, seed=123).sample(500)
    assert np.array_equal(a.values, b.values)


def test_different_seed_different_stream(ex_tower):
    a = TowerSampler(ex_tower, seed=123).sample(500)
    b = TowerSampler(ex_tower, seed=124).sample(500)
    assert not np.array_equal(a.values, b.values)


def test_single_level_batch_shape(ex25, root):
    tower = build_tower(ex25.kernel, ex25.branch, [root], 0)
    batch = TowerSampler(tower, seed=5).sample(1)
    assert batch.values.shape == (1, 1, 1)
    assert batch.top_level == 0


def test_level_covariance_within_5se(ex_tower):
    batch = TowerSampler(ex_tower, seed=7).sample(100_000)
    for level in (0, 2, 4):
        cov, se = empirical_covariance(batch, level)
        z = np.abs(cov - ex_tower.levels[level]) / se
        assert np.max(z) <= 5.0


def test_increment_variance_matches_defects(ex_tower):
    batch = TowerSampler(ex_tower, seed=11).sample(100_000)
    for n in range(4):
        inc = batch.increment(n)
        cov, se = sample_covariance(inc)
        mask = se > 0
        assert np.max(np.abs(cov - ex_tower.defects[n])[mask] / se[mask]) <= 5.0
        # root variance target is the closed-form defect diagonal
        assert ex_tower.defects[n][0, 0] == pytest.approx(0.5**n * 0.25, abs=1e-12)


def test_martingale_report_passes(ex_tower):
    batch = TowerSampler(ex_tower, seed=13).sample(100_000)
    report = martingale_checks(batch, ex_tower)
    assert report.passed
    assert report.max_mean_z <= 5.0
    assert report.max_cross_z <= 5.0
    assert report.max_qv_z <= 5.0


def test_martingale_zero_defect_model(ex25, small_base):
    tower = build_tower(ex25.diag_invariant, ex25.branch, small_base, 3)
    batch = TowerSampler(tower, seed=3).sample(2_000)
    for n in range(3):
        assert np.max(np.abs(batch.increment(n))) == 0.0
    report = martingale_checks(batch, tower)
    assert report.passed and report.max_qv_z == 0.0


def test_martingale_null_points_are_exactly_zero(sink_tower):
    # A zero defect diagonal has an exactly zero factor row, so the
    # increment there is exactly 0 and its z-score is 0, not the sqrt(n/2)
    # that rounding noise in the factor would give.
    n = 3_000
    batch = TowerSampler(sink_tower, seed=3).sample(n)
    report = martingale_checks(batch, sink_tower)
    for k, D in enumerate(sink_tower.defects):
        null = np.diag(D) == 0.0
        assert null[0] and null.sum() >= 2
        assert np.all(batch.increment(k)[:, null] == 0.0)
    assert np.all(batch.level(0)[:, 0] == 0.0)
    assert math.sqrt(n / 2) not in [report.max_mean_z, report.max_cross_z] + report.per_level_qv_z
    assert report.passed


def test_exact_centering(ex_tower):
    batch = TowerSampler(ex_tower, seed=17).sample(100_000)
    X = batch.level(batch.top_level)
    z = np.abs(X.mean(axis=0)) / (X.std(axis=0) / np.sqrt(batch.nsamples))
    assert np.max(z) <= 5.0


def test_telescoping_on_samples(ex_tower):
    batch = TowerSampler(ex_tower, seed=19).sample(1_000)
    acc = batch.level(0).copy()
    for n in range(batch.top_level):
        acc += batch.increment(n)
    assert np.max(np.abs(acc - batch.level(batch.top_level))) <= 1e-12


def test_limit_fields_targets(ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 12)
    fields = limit_fields(TowerSampler(tower, seed=23), 100_000)
    covZ, _ = sample_covariance(fields.Z)
    covY, _ = sample_covariance(fields.Y)
    covD, _ = sample_covariance(fields.Z - fields.Y)
    assert covZ[0, 0] == pytest.approx(2.0, abs=0.05)
    assert covY[0, 0] == pytest.approx(1.5, abs=0.04)
    assert covD[0, 0] == pytest.approx(0.5, abs=0.05)


def test_limit_fields_invariant_kernel_is_level_zero(ex25, small_base):
    tower = build_tower(ex25.diag_invariant, ex25.branch, small_base, 5)
    fields = limit_fields(TowerSampler(tower, seed=29), 1_000)
    assert np.array_equal(fields.Z, fields.Y)


def test_boundedness_probe_agrees_with_traces(ex25, delta2, feeder, small_base):
    cases = [
        (ex25.kernel, ex25.branch, small_base),
        (delta2.kernel, delta2.branch, [delta2.point("")]),
        (feeder.kernel, feeder.branch, feeder.all_states()),
    ]
    for K, B, F in cases:
        probe = boundedness_probe(K, B, F, 20_000, 8, seed=101)
        trace = diagonal_trace(K, B, F[0] if len(F) == 1 else F[-1], 8)
        assert probe == trace.verdict


def test_batch_csv_round_trip(tmp_path, ex_tower):
    batch = TowerSampler(ex_tower, seed=37).sample(4)
    path = tmp_path / "samples.csv"
    export_batch_csv(batch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,sample,level,point_label,value"
    assert len(lines) == 1 + 4 * 5 * 3  # samples x levels x points
    j, n, a = 2, 3, 1
    row = lines[1 + j * 15 + n * 3 + a].split(",")
    assert float(row[-1]) == batch.values[j, n, a]


@pytest.mark.parametrize("seed", [7, 301, 20250809])
def test_draw_is_a_prefix_of_any_longer_draw(ex25, small_base, seed):
    # RNG contract: numpy fills standard_normal in C order, so the draw of a
    # 4-level sampler is the first normals of a 13-level draw, same seed.
    short = TowerSampler(build_tower(ex25.kernel, ex25.branch, small_base, 3), seed=1)
    long = TowerSampler(build_tower(ex25.kernel, ex25.branch, small_base, 12), seed=1)
    g = long.draw(1_000, seed)
    want = short.draw(1_000, seed)
    assert np.array_equal(short.prefix(g), want)
    # Drawing the prefix and then the rest from one generator gives the long draw.
    rng = make_rng(seed)
    head = rng.standard_normal(want.size)
    tail = rng.standard_normal(g.size - want.size)
    assert np.array_equal(np.concatenate([head, tail]), g.reshape(-1))


def test_sample_is_fields_of_draw(ex_tower):
    sampler = TowerSampler(ex_tower, seed=53)
    assert np.array_equal(sampler.sample(300).values, sampler.fields(sampler.draw(300)).values)
    other = sampler.fields(sampler.draw(300, seed=54), seed=54)
    assert other.seed == 54
    assert np.array_equal(other.values, TowerSampler(ex_tower, seed=54).sample(300).values)
