import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kerneltower import gaussian
from kerneltower import (
    FieldBatch,
    FiniteStateModel,
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

from oracles import reference_martingale_z, reference_sample, whole_array_martingale_checks


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


def _report_bits(report):
    values = [report.max_mean_z, report.max_cross_z, report.max_qv_z, report.threshold, *report.per_level_qv_z]
    return np.array(values).view(np.int64).tolist()


def _integer_fields(batch):
    """The batch scaled and rounded to integers of size at most 64: every
    product and Gram entry of its increments is then exact in any order."""
    top = float(np.max(np.abs(batch.fields))) or 1.0
    return FieldBatch(np.round(batch.fields * (64 / top)), batch.points, batch.seed)


def _assert_matches_whole_array(batch, tower, share):
    """The level-group report equals the whole-array oracle's bit for bit, with
    the group-size rule as shipped, at one level per group, or at all levels.

    It does on integer fields, and on any fields when one stack holds all
    levels.  Elsewhere a Gram entry of sampled fields may move by ulps: in a
    stack narrower than the whole array OpenBLAS may compute it in another
    micro-kernel tile, which sums in another order.  The means and stds are
    column sums, the same bits in any stack.
    """
    with mock.patch.object(gaussian, "_STACK_SHARE", share or gaussian._STACK_SHARE):
        for fields in (_integer_fields(batch), batch):
            got, want = martingale_checks(fields, tower), whole_array_martingale_checks(fields, tower)
            assert len(got.per_level_qv_z) == batch.top_level
            if fields is batch and share != 2.0 and batch.top_level > 1:
                assert _report_bits(got)[0] == _report_bits(want)[0]
            else:
                assert _report_bits(got) == _report_bits(want)


# The shipped rule; one level per group (a share too small for more); one
# group of all levels (a share of 2 makes a group as long as the fields).
SHARES = [None, 1e-9, 2.0]


@pytest.mark.parametrize("share", SHARES)
@pytest.mark.parametrize("name", ["ex25", "zero-defect", "sink", "delta", "delta-1"])
def test_martingale_checks_match_whole_array_oracle(towers, delta2, root, name, share):
    horizon = {"delta": 5, "delta-1": 1}.get(name)
    tower = towers[name] if horizon is None else build_tower(delta2.kernel, delta2.branch, [root], horizon)
    _assert_matches_whole_array(TowerSampler(tower, seed=71).sample(3_000), tower, share)


@pytest.mark.parametrize("share", SHARES)
@settings(max_examples=40, deadline=None)
@given(P=st.integers(1, 12), N=st.integers(1, 10), n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1))
def test_martingale_checks_match_whole_array_oracle_on_finite_state_towers(share, P, N, n, seed):
    # phi_1 is the identity, so LK - K = K o (phi_2 x phi_2) is PSD; a null
    # state 0 gives zero factor rows and exactly zero increments.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((P, P))
    A[0] *= rng.integers(0, 2)
    model = FiniteStateModel([list(range(P)), rng.integers(0, P, P).tolist()], A @ A.T)
    tower = build_tower(model.kernel, model.branch, list(range(P)), N)
    _assert_matches_whole_array(TowerSampler(tower, seed=seed).sample(n), tower, share)


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
    other = sampler.fields(sampler.draw(300, seed=54))
    assert other.seed == 53  # a batch carries its sampler's seed
    assert np.array_equal(other.values, TowerSampler(ex_tower, seed=54).sample(300).values)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", ["ex25", "zero-defect", "sink"])
def test_chunked_sample_is_fields_of_draw(towers, name, chunk):
    # One sample, part of one chunk, a whole chunk, and several chunks ending
    # in a partial one; chunk 7 draws one or a few samples at a time.
    sampler = TowerSampler(towers[name], seed=59)
    with mock.patch.object(gaussian, "_CHUNK_NORMALS", chunk or gaussian._CHUNK_NORMALS):
        rows = max(1, gaussian._CHUNK_NORMALS // (len(sampler.factors) * len(sampler.points)))
        sizes = [1, rows // 2, rows, 2 * rows + 1, 3 * rows + rows // 3]
        for n in sorted({max(1, n) for n in sizes}):
            batch = sampler.sample(n)
            assert batch.fields.shape == (len(sampler.factors), n, len(sampler.points))
            assert np.array_equal(batch.fields, sampler.fields(sampler.draw(n)).fields)


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(1, 400), chunk=st.integers(1, 4096), blocks=st.floats(0.0, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_column_std_is_numpy_std(columns, chunk, blocks, seed):
    # The whole-array oracle's blocked std, which the library's stacks now
    # take in place.  Rows from 1 up to four blocks of the blocked pass.
    rows = max(1, int(blocks * max(1, chunk // columns)))
    rng = np.random.default_rng(seed)
    I = rng.standard_normal((rows, columns)) * rng.uniform(1e-3, 1e3, columns) + rng.standard_normal(columns)
    with mock.patch.object(oracles, "_CHUNK_NORMALS", chunk):
        got = oracles._column_std(I, I.mean(axis=0))
    assert np.array_equal(got.view(np.int64), I.std(axis=0).view(np.int64))


# Python objects and small arrays on top of the arrays each bound names.
SLACK = 256 * 1024


def test_sample_holds_the_fields_and_one_chunk_or_level(ex_tower, traced_peak):
    sampler = TowerSampler(ex_tower, seed=61)
    n = 200_000
    sampler.sample(10)
    batch, peak, _ = traced_peak(lambda: sampler.sample(n))
    level = batch.fields[0].nbytes
    assert level > 8 * gaussian._CHUNK_NORMALS  # the level buffer is the larger
    assert peak <= batch.fields.nbytes + level + SLACK


def test_martingale_checks_hold_one_increments_array(ex_tower, traced_peak):
    batch = TowerSampler(ex_tower, seed=67).sample(200_000)
    N, n, P = batch.top_level, batch.nsamples, len(batch.points)
    martingale_checks(TowerSampler(ex_tower, seed=67).sample(10), ex_tower)
    report, peak, _ = traced_peak(lambda: martingale_checks(batch, ex_tower))
    increments = 8 * n * N * P
    assert report.passed
    assert peak <= increments + 8 * (gaussian._CHUNK_NORMALS + N * P) + 8 * 8 * (N * P) ** 2 + SLACK


def test_martingale_checks_hold_two_level_groups(traced_peak):
    # N = 10 levels of P = 40 points: a stack of two groups of whole levels
    # and its Grams, never the 9.6 MB array of all the increments.
    rng = np.random.default_rng(43)
    P, N, n = 40, 10, 3_000
    A = rng.standard_normal((P, P))
    model = FiniteStateModel([list(range(P)), rng.integers(0, P, P).tolist()], A @ A.T)
    tower = build_tower(model.kernel, model.branch, list(range(P)), N)
    batch = TowerSampler(tower, seed=73).sample(n)
    martingale_checks(TowerSampler(tower, seed=73).sample(10), tower)
    _, peak, _ = traced_peak(lambda: martingale_checks(batch, tower))
    width = 2 * max(1, int((N + 1) * gaussian._STACK_SHARE) // 2) * P  # columns of a two-group stack
    assert width < N * P
    assert peak <= 8 * n * width + 8 * 8 * width**2 + SLACK < 8 * n * N * P
