import math

import numpy as np
import pytest

from kerneltower import (
    ContractError,
    DivergenceError,
    Gram,
    InputError,
    Kernel,
    KInfinityEstimate,
    ModelError,
    ResourceError,
    WordTreeModel,
    build_tower,
    defect_decay,
    defect_embedding,
    estimate_K_infinity,
    feeder_model,
    gram,
    invariance_residual,
    level_via_words,
    lyapunov_verify,
    minimality_check,
    psd_leq,
    subinvariance_check,
)
from kerneltower.points import orbit_closure

from oracles import (apply_L, apply_L_power, iterated_branch_sum, reference_invariance_residual,
                     word_sum)


# --- the branching operator ------------------------------------------------

def test_apply_L_fixes_invariant_parts(ex25, closure2):
    L_j0 = apply_L(ex25.diag_invariant, ex25.branch)
    L_j1 = apply_L(ex25.rank_one, ex25.branch)
    for s in closure2:
        for t in closure2:
            assert L_j0(s, t) == pytest.approx(ex25.diag_invariant(s, t), abs=1e-15)
            assert L_j1(s, t) == pytest.approx(ex25.rank_one(s, t), abs=1e-15)


def test_apply_L_scales_strict_part(ex25, closure2):
    LE = apply_L(ex25.strict_part, ex25.branch)
    for s in closure2:
        assert LE(s, s) == pytest.approx(ex25.r * ex25.strict_part(s, s), abs=1e-15)


def test_apply_L_zero_kernel(ex25, small_base):
    LZ = apply_L(Kernel(lambda s, t: 0.0), ex25.branch)
    assert all(LZ(s, t) == 0.0 for s in small_base for t in small_base)


def test_apply_L_power_matches_naive_recursion(ex25):
    s, t = ex25.point(""), ex25.point("1")
    for n in range(5):
        lib = apply_L_power(ex25.kernel, ex25.branch, n)(s, t)
        ref = iterated_branch_sum(ex25.kernel.raw(), ex25.branch.maps, s, t, n)
        assert lib == pytest.approx(ref, abs=1e-14)


# --- subinvariance ----------------------------------------------------------

def test_subinvariance_example_kernel(ex25, closure2):
    assert subinvariance_check(ex25.kernel, ex25.branch, closure2).psd


def test_subinvariance_invariant_kernel_zero_defect(ex25, small_base):
    LJ = apply_L(ex25.diag_invariant, ex25.branch)
    worst = max(
        abs(LJ(s, t) - ex25.diag_invariant(s, t)) for s in small_base for t in small_base
    )
    assert worst <= 1e-15
    report = subinvariance_check(ex25.diag_invariant, ex25.branch, small_base)
    assert report.psd and abs(report.min_eigenvalue) <= 1e-12


def test_subinvariance_delta_margin(delta2):
    F = orbit_closure(delta2.branch, [delta2.point("")], 1)
    report = subinvariance_check(delta2.kernel, delta2.branch, F)
    assert report.psd and report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


# --- the tower --------------------------------------------------------------

def test_tower_diagonal_closed_form(ex25, root):
    tower = build_tower(ex25.kernel, ex25.branch, [root], 4)
    expected = [1.5, 1.75, 1.875, 1.9375, 1.96875]  # 2 - 0.5^(n+1)
    for n, want in enumerate(expected):
        assert tower.levels[n][0, 0] == pytest.approx(want, abs=1e-12)


def test_tower_invariant_kernel_has_zero_defects(ex25, small_base):
    tower = build_tower(ex25.diag_invariant, ex25.branch, small_base, 6)
    for D in tower.defects:
        assert np.max(np.abs(D)) <= 1e-15


def test_tower_delta_diagonal_doubles(delta2, root):
    tower = build_tower(delta2.kernel, delta2.branch, [root], 10)
    for n in range(11):
        assert tower.levels[n][0, 0] == float(2**n)


def test_tower_rejects_non_subinvariant_kernel(ex25, root):
    shrinking = Kernel(lambda u, v: 4.0 ** -len(u) if u == v else 0.0, name="shrinking")
    with pytest.raises(ModelError, match="level 0"):
        build_tower(shrinking, ex25.branch, [root], 3)


def test_tower_monotone_in_psd_order(ex25, feeder, small_base):
    cases = [
        (ex25.kernel, ex25.branch, small_base),
        (feeder.kernel, feeder.branch, feeder.all_states()),
    ]
    for K, B, F in cases:
        tower = build_tower(K, B, F, 6)
        for n in range(6):
            lower, upper = (Gram(tower.points, tower.levels[k]) for k in (n, n + 1))
            assert psd_leq(lower, upper).psd


def test_tower_telescoping_all_builtins(ex25, delta2, feeder):
    cases = [
        (ex25, orbit_closure(ex25.branch, [ex25.point("")], 1)),
        (WordTreeModel(m=3, r=0.8, c=0.2, eta=1.0),
         None),
        (delta2, [delta2.point("")]),
        (feeder, feeder.all_states()),
    ]
    for model, F in cases:
        if F is None:
            F = orbit_closure(model.branch, [model.point("")], 1)
        tower = build_tower(model.kernel, model.branch, F, 10)
        recon = tower.levels[0] + sum(tower.defects)
        scale = max(np.max(np.abs(tower.levels[10])), 1.0)
        assert np.max(np.abs(recon - tower.levels[10])) / scale <= 1e-12


def test_tower_resource_cap(ex25, small_base):
    with pytest.raises(ResourceError):
        build_tower(ex25.kernel, ex25.branch, small_base, 20, pair_cap=1000)


# --- word expansion ---------------------------------------------------------

def test_level_via_words_level_zero_is_gram(ex25, small_base):
    (W,) = level_via_words(ex25.kernel, ex25.branch, small_base, 0)
    assert np.array_equal(W.entries, gram(ex25.kernel, small_base).entries)


def test_level_via_words_matches_tower(ex25):
    F = [ex25.point(""), ex25.point("1")]
    tower = build_tower(ex25.kernel, ex25.branch, F, 3)
    W = level_via_words(ex25.kernel, ex25.branch, F, 3)[3]
    assert np.max(np.abs(W.entries - tower.levels[3])) <= 1e-12


def test_level_via_words_delta_diagonal(delta2, root):
    W = level_via_words(delta2.kernel, delta2.branch, [root], 5)
    assert [G.entries[0, 0] for G in W] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_level_via_words_matches_flat_oracle(ex25):
    F = [ex25.point(""), ex25.point("21")]
    for n, W in enumerate(level_via_words(ex25.kernel, ex25.branch, F, 4)):
        for a, s in enumerate(F):
            for b, t in enumerate(F):
                ref = word_sum(ex25.kernel.raw(), ex25.branch.maps, s, t, n)
                assert W.entries[a, b] == pytest.approx(ref, abs=1e-13)


def test_defect_recursion_via_words(ex25, small_base):
    """Tower defect Grams equal the word sums of the one-step defect."""
    LK = apply_L(ex25.kernel, ex25.branch)
    defect = Kernel(lambda s, t: LK(s, t) - ex25.kernel(s, t), name="defect")
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 8)
    for n, W in enumerate(level_via_words(defect, ex25.branch, small_base, 7)):
        assert np.max(np.abs(W.entries - tower.defects[n])) <= 1e-12


# --- the invariant completion -----------------------------------------------

def _certificate(model, base):
    """The word tree's own certificate on the words no shorter than the base's shortest."""
    a, q = defect_decay(model)
    cert = lyapunov_verify(model, a, model.r, q, min(map(len, base)))
    assert hasattr(cert, "bound"), f"certificate refuted: {cert}"
    return cert


def test_estimate_certified_matches_limit(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    cert = _certificate(ex25, F1)
    est = estimate_K_infinity(
        ex25.kernel, ex25.branch, F1, max_levels=12, certificate=cert
    )
    assert est.certified and est.levels_used == 12
    oracle = np.array([[ex25.oracle_limit(s, t) for t in F1] for s in F1])
    assert np.all(np.abs(est.entries - oracle) <= est.bound + 1e-15)


def test_estimate_invariant_kernel_converges_immediately(ex25, small_base):
    est = estimate_K_infinity(ex25.diag_invariant, ex25.branch, small_base)
    assert est.converged
    assert np.max(est.bound) == 0.0
    assert np.max(np.abs(est.entries - gram(ex25.diag_invariant, small_base).entries)) <= 1e-15


def test_estimate_uncertified_bound_is_zero_on_sink_row(sink_model):
    # Where a zero diagonal tail meets an unknown (infinite) one, the
    # Cauchy-Schwarz bound is 0, not 0 * inf.
    pts = list(range(sink_model.S))
    est = estimate_K_infinity(sink_model.kernel, sink_model.branch, pts, max_levels=6)
    assert not est.certified
    assert np.isinf(est.bound).any()
    assert not np.isnan(est.bound).any()
    assert np.all(est.bound[0] == 0.0) and np.all(est.bound[:, 0] == 0.0)


def test_estimate_tower_reports_its_telescoping_residual(sink_model):
    est = estimate_K_infinity(sink_model.kernel, sink_model.branch, sink_model.all_states(),
                              max_levels=5)
    tower = est.tower
    scale = max(float(np.max(np.abs(tower.levels[-1]))), 1.0)
    recomputed = float(np.max(np.abs(
        tower.levels[0] + sum(tower.defects) - tower.levels[-1]))) / scale
    assert recomputed > 0.0  # rounding shows at this depth
    assert tower.telescoping_residual == recomputed
    assert tower.trace_increments == [float(np.trace(D)) for D in tower.defects]


def test_estimate_divergence_report(delta2, root):
    with pytest.raises(DivergenceError) as exc:
        estimate_K_infinity(delta2.kernel, delta2.branch, [root], ceiling=1e4)
    assert exc.value.level == 14  # first level with 2^n > 1e4
    assert exc.value.diagonal == 16384.0
    assert "diagonal" in str(exc.value)


def test_estimate_requires_covering_certificate(ex25, small_base):
    cert = _certificate(ex25, [ex25.point("1")])  # the root is shorter
    with pytest.raises(ContractError):
        estimate_K_infinity(ex25.kernel, ex25.branch, small_base, certificate=cert)


def test_invariance_residual_oracle_is_tiny(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    oracle = np.array([[ex25.oracle_limit(s, t) for t in F1] for s in F1])
    est = KInfinityEstimate(
        points=tuple(F1), entries=oracle, bound=np.zeros_like(oracle),
        certified=True, levels_used=0, converged=True, tower=None,
    )
    assert invariance_residual(est, ex25.branch, small_base) <= 1e-12


def test_invariance_residual_is_the_gram_level_isometry_defect(ex25, small_base):
    """The residual measures exactly the failure of the synchronized branch
    sum to reproduce the estimated limit entries."""
    F1 = orbit_closure(ex25.branch, small_base, 1)
    est = estimate_K_infinity(ex25.kernel, ex25.branch, F1, max_levels=6)
    idx = {s: i for i, s in enumerate(est.points)}
    by_hand = max(
        abs(
            math.fsum(
                est.entries[idx[f(s)], idx[f(t)]] for f in ex25.branch.maps
            )
            - est.entries[idx[s], idx[t]]
        )
        for s in small_base
        for t in small_base
    )
    assert invariance_residual(est, ex25.branch, small_base) == pytest.approx(by_hand, abs=1e-15)


@pytest.mark.parametrize("model, labels", [
    (WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0), ("", "1", "2")),
    (WordTreeModel(m=3, r=0.5, c=0.5, eta=1.0), ("", "1", "3")),
    (WordTreeModel(m=3, r=0.3, c=0.7, eta=2.0), ("", "1", "3", "21")),
    (feeder_model(), None),
], ids=["m2", "m3", "m3-r0.3", "feeder"])
def test_invariance_residual_equals_the_scalar_loop(model, labels):
    base = model.all_states() if labels is None else [model.point(x) for x in labels]
    est = estimate_K_infinity(model.kernel, model.branch, orbit_closure(model.branch, base, 1),
                              max_levels=6)
    assert invariance_residual(est, model.branch, base) == \
        reference_invariance_residual(est, model.branch, base)


def test_invariance_residual_truncated_bound(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    cert = _certificate(ex25, F1)
    est = estimate_K_infinity(
        ex25.kernel, ex25.branch, F1, max_levels=10, certificate=cert
    )
    residual = invariance_residual(est, ex25.branch, small_base)
    assert residual <= 2.0 * (cert.C / (1 - cert.beta)) * cert.beta**10


def test_invariance_residual_needs_one_step_cover(ex25, small_base):
    est = estimate_K_infinity(ex25.kernel, ex25.branch, small_base, max_levels=4)
    with pytest.raises(InputError):
        invariance_residual(est, ex25.branch, small_base)


def test_minimality_of_limit_candidate(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    cert = _certificate(ex25, F1)
    est = estimate_K_infinity(ex25.kernel, ex25.branch, F1, max_levels=12, certificate=cert)
    report = minimality_check(est, ex25.majorant, ex25.kernel, ex25.branch, small_base)
    assert report.premises_ok and report.ok


def test_minimality_strictly_larger_candidate(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    cert = _certificate(ex25, F1)
    est = estimate_K_infinity(ex25.kernel, ex25.branch, F1, max_levels=12, certificate=cert)
    bigger = Kernel(
        lambda s, t: ex25.majorant(s, t) + ex25.diag_invariant(s, t), name="J+J0"
    )
    report = minimality_check(est, bigger, ex25.kernel, ex25.branch, small_base)
    assert report.ok
    assert report.conclusion.min_eigenvalue > 1e-3  # strictly positive margin


def test_minimality_premise_failure_is_reported(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    est = estimate_K_infinity(ex25.kernel, ex25.branch, F1, max_levels=8)
    report = minimality_check(est, ex25.kernel, ex25.kernel, ex25.branch, small_base)
    assert not report.invariance_ok  # the base kernel is not invariant
    assert report.conclusion is None


def test_minimality_estimate_as_its_own_candidate(ex25, small_base):
    F1 = orbit_closure(ex25.branch, small_base, 1)
    oracle = np.array([[ex25.oracle_limit(s, t) for t in F1] for s in F1])
    est = KInfinityEstimate(
        points=tuple(F1), entries=oracle, bound=np.zeros_like(oracle),
        certified=True, levels_used=0, converged=True, tower=None,
    )
    candidate = Kernel(lambda s, t: ex25.oracle_limit(s, t), name="limit")
    report = minimality_check(est, candidate, ex25.kernel, ex25.branch, small_base)
    assert report.ok
    assert abs(report.conclusion.min_eigenvalue) <= 1e-12


# --- defect embedding -------------------------------------------------------

def test_embedding_reproduces_levels(ex25):
    F = [ex25.point(""), ex25.point("1")]
    tower = build_tower(ex25.kernel, ex25.branch, F, 5)
    emb = defect_embedding(tower)
    scale = np.max(np.abs(tower.levels[5]))
    assert np.max(np.abs(emb.gram() - tower.levels[5])) <= 1e-10 * scale
    assert np.max(np.abs(emb.level0_gram() - tower.levels[0])) <= 1e-10


def test_embedding_level0_block_independent_of_horizon(ex25, small_base):
    t2 = build_tower(ex25.kernel, ex25.branch, small_base, 2)
    t5 = build_tower(ex25.kernel, ex25.branch, small_base, 5)
    g2 = defect_embedding(t2).level0_gram()
    g5 = defect_embedding(t5).level0_gram()
    assert np.max(np.abs(g2 - g5)) <= 1e-12


def test_embedding_horizon_zero(ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 0)
    emb = defect_embedding(tower)
    assert np.max(np.abs(emb.gram() - gram(ex25.kernel, small_base).entries)) <= 1e-10


# --- tail Cauchy-Schwarz (closed forms) ---------------------------------------

def test_tail_cauchy_schwarz_oracle(ex25, closure2):
    for N in range(11):
        for s in closure2:
            for t in closure2:
                gap_st = ex25.oracle_limit(s, t) - ex25.oracle_level(N, s, t)
                gap_ss = ex25.oracle_limit(s, s) - ex25.oracle_level(N, s, s)
                gap_tt = ex25.oracle_limit(t, t) - ex25.oracle_level(N, t, t)
                assert gap_st**2 <= gap_ss * gap_tt + 1e-12
