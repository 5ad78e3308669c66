import math

import numpy as np
import pytest

from kerneltower import (
    BranchSystem,
    FiniteStateModel,
    InputError,
    Kernel,
    ModelError,
    ProductCylinderWeights,
    apply_L_tilde,
    apply_Q,
    boundary_feature_gram,
    build_doob,
    build_tower,
    cylinder_measure,
    gauge_from_tower,
    h_normalize,
    intertwining_check,
    iterate_Q,
    normalization_commutes,
    sample_path,
    tilde_word_expansion,
)
from kerneltower import boundary
from kerneltower.points import orbit_closure

from oracles import apply_L, word_reversed


@pytest.fixture(scope="module")
def chain(ex25):
    dom = orbit_closure(ex25.branch, [ex25.point("")], 8)
    return build_doob(ex25.oracle_gauge, ex25.branch, dom)


@pytest.fixture(scope="module")
def fchain(feeder):
    tower = build_tower(feeder.kernel, feeder.branch, feeder.all_states(), 2)
    h, positive = gauge_from_tower(tower)
    return build_doob(h, feeder.branch, positive)


def _defect_h(model, chain):
    LK = apply_L(model.kernel, model.branch)
    defect = Kernel(lambda s, t: LK(s, t) - model.kernel(s, t), name="defect")
    return h_normalize(defect, chain.h)


# --- chain construction -------------------------------------------------------

def test_uniform_transition_probabilities(ex25, chain):
    for label in ("", "1", "21", "112"):
        assert chain.probs(ex25.point(label)) == [0.5, 0.5]


def test_single_map_chain_is_deterministic():
    ident = BranchSystem([lambda s: s], name="id")
    chain = build_doob(lambda s: 1.0, ident, [0])
    assert chain.probs(0) == [1.0]
    path = sample_path(chain, 0, 5, seed=1)
    assert path.word == (1, 1, 1, 1, 1)


def test_feeder_chain_probabilities(fchain):
    assert fchain.probs(0) == [1.0, 0.0]
    assert fchain.probs(2) == [0.5, 0.5]


def test_build_doob_rejects_nonpositive_gauge(ex25):
    with pytest.raises(InputError, match="not positive"):
        build_doob(lambda s: 0.0, ex25.branch, [ex25.point("")])


def test_build_doob_rejects_nonharmonic_gauge(ex25):
    # a constant is not harmonic for two branches: the branch sum doubles it
    with pytest.raises(ModelError, match="not harmonic"):
        build_doob(lambda s: 1.0, ex25.branch, [ex25.point("")])


def test_build_doob_rejects_nonfinite_residuals():
    # nan and inf residuals fail every comparison with tol, so they are refused by name
    model = FiniteStateModel([[1, 2, 2], [2, 2, 2]], np.eye(3))
    with pytest.raises(ModelError, match="not harmonic: relative residual nan at 0"):
        build_doob([2.0, 1.0, math.nan].__getitem__, model.branch, [0, 1])
    with pytest.raises(ModelError, match="not harmonic: relative residual nan at 0"):
        build_doob([math.inf, 1.0, 1.0].__getitem__, model.branch, [0])
    with pytest.raises(ModelError, match="not harmonic: relative residual inf at 0"):
        build_doob([1.0, 1.0, math.inf].__getitem__, model.branch, [0], tol=math.inf)
    # images whose fsum overflows, or that are inf and -inf, make fsum raise
    for gauge in ([1.0, 1e308, 1e308], [1.0, math.inf, -math.inf]):
        with pytest.raises(ModelError, match="not harmonic: relative residual nan at 0"):
            build_doob(gauge.__getitem__, model.branch, [0], tol=math.inf)


def test_doob_chain_messages(feeder, fchain):
    # A negative image passes the pass at tol=inf; reading its row refuses it.
    model = FiniteStateModel([[1, 1, 1], [2, 2, 2]], np.eye(3))
    chain = build_doob([1.0, 1.0, -1.0].__getitem__, model.branch, [0], tol=math.inf)
    for read in (lambda: cylinder_measure(chain, 0, 2), lambda: chain.probs(0),
                 lambda: apply_Q(chain, lambda s: 1.0, 0)):
        with pytest.raises(InputError, match="gauge negative at 2: -1.0"):
            read()
    with pytest.raises(InputError, match="gauge not positive at 1: 0.0"):
        fchain.probs(1)
    with pytest.raises(InputError, match="point 1 outside the Doob domain"):
        cylinder_measure(fchain, 1, 3)
    h, _positive = gauge_from_tower(build_tower(feeder.kernel, feeder.branch, [0, 2], 2))
    with pytest.raises(InputError, match="surrogate gauge not computed at 1"):
        build_doob(h, feeder.branch, [0, 2])


def test_rows_off_the_domain_are_checked_when_read():
    # h is harmonic at 0, h(1) + h(2) = h(0), but at neither of the points
    # 1 and 2 that the walk from 0 reaches: reading their rows refuses it.
    model = FiniteStateModel([[1, 2, 2], [2, 2, 2]], np.eye(3))
    chain = build_doob([2.0, 1.0, 1.0].__getitem__, model.branch, [0])
    assert chain.probs(0) == [0.5, 0.5] and chain.harmonicity_residual == 0.0
    assert cylinder_measure(chain, 0, 1).level_sum(1) == 1.0
    with pytest.raises(ModelError, match=r"gauge not harmonic: relative residual 1\.000e\+00 at 1 "):
        cylinder_measure(chain, 0, 2)
    with pytest.raises(ModelError, match="gauge not harmonic"):
        chain.probs(2)
    assert not chain.in_domain(1) and not chain.in_domain(2)


def test_gauge_from_tower_matches_oracle(ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 12)
    h, positive = gauge_from_tower(tower)
    assert positive == list(small_base)
    for s in small_base:
        assert h(s) == pytest.approx(ex25.oracle_gauge(s), abs=1e-3)
    with pytest.raises(InputError):
        h(ex25.point("2211"))


# --- cylinder measures ----------------------------------------------------------

def test_cylinder_level_zero(chain, ex25):
    table = cylinder_measure(chain, ex25.point(""), 0)
    assert table.table == {(): 1.0}


def test_cylinder_masses_uniform_and_exact(chain, ex25):
    table = cylinder_measure(chain, ex25.point("1"), 12)
    for w, p in table.table.items():
        assert p == 2.0 ** -len(w)
    for k in range(13):
        assert table.level_sum(k) == pytest.approx(1.0, abs=1e-12)


def test_cylinder_consistency(chain, ex25):
    table = cylinder_measure(chain, ex25.point(""), 8)
    for w, p in table.table.items():
        if len(w) < 8:
            children = math.fsum(table.table[w + (i,)] for i in (1, 2))
            assert children == pytest.approx(p, abs=1e-12)


def test_cylinder_feeder_level_sums(fchain):
    table = cylinder_measure(fchain, 2, 10)
    for k in range(11):
        assert table.level_sum(k) == pytest.approx(1.0, abs=1e-12)


def test_cylinder_requires_domain_anchor(chain, ex25, fchain):
    with pytest.raises(InputError):
        cylinder_measure(fchain, 1, 3)  # gauge-zero state
    with pytest.raises(InputError):
        table = cylinder_measure(chain, ex25.point(""), 3)
        table.mass((1, 1, 1, 1))  # beyond horizon


# --- path sampling ----------------------------------------------------------------

def test_sample_path_chain_rule(chain, ex25):
    s = ex25.point("")
    path = sample_path(chain, s, 10, seed=77)
    table = cylinder_measure(chain, s, 10)
    product = 1.0
    x = s
    for i in path.word:
        product *= chain.probs(x)[i - 1]
        x = chain.branch.apply(i, x)
    assert product == pytest.approx(table.mass(path.word), abs=1e-12)
    assert path.points[-1] == x


def test_sample_path_visits_reversed_compositions(chain, ex25):
    s = ex25.point("1")
    path = sample_path(chain, s, 6, seed=5)
    for k in range(7):
        assert path.points[k] == word_reversed(ex25.branch.maps, path.word[:k], s)


def test_sample_path_empirical_frequencies(chain, ex25):
    s = ex25.point("")
    counts = {}
    n_paths, depth = 20_000, 3
    for seed in range(n_paths):
        w = sample_path(chain, s, depth, seed=seed).word
        counts[w] = counts.get(w, 0) + 1
    p = 2.0**-depth
    se = math.sqrt(p * (1 - p) * n_paths)
    for w in counts:
        assert abs(counts[w] - n_paths * p) <= 5 * se
    assert len(counts) == 8


# --- the averaging operator --------------------------------------------------------

def test_apply_Q_is_markov(chain, ex25):
    for label in ("", "12"):
        assert apply_Q(chain, lambda s: 1.0, ex25.point(label)) == pytest.approx(1.0, abs=1e-15)


def test_apply_Q_word_length(chain, ex25):
    f = lambda s: float(len(s))
    for label in ("", "1", "22"):
        s = ex25.point(label)
        assert apply_Q(chain, f, s) == pytest.approx(len(s) + 1.0, abs=1e-15)


def test_iterate_Q_level_zero(chain, ex25):
    f = lambda s: 0.25 ** len(s)
    s = ex25.point("2")
    assert iterate_Q(chain, f, s, 0) == f(s)


def test_negative_word_lengths_are_input_errors(chain, ex25):
    f = lambda s: 1.0
    with pytest.raises(InputError, match="word length must be nonnegative"):
        iterate_Q(chain, f, ex25.point(""), -1)
    with pytest.raises(InputError, match="word length must be nonnegative"):
        intertwining_check(chain, f, ex25.point(""), -3)


def test_intertwining_residuals(chain, ex25):
    f = lambda s: 0.5 ** len(s)
    for n in range(7):
        res = intertwining_check(chain, f, ex25.point(""), n)
        assert res.one_step_residual <= 1e-12
        assert res.markov_residual <= 1e-12


def test_intertwining_constant_function(chain, ex25):
    res = intertwining_check(chain, lambda s: 1.0, ex25.point("1"), 4)
    assert res.one_step_residual == 0.0 and res.markov_residual == 0.0


def test_intertwining_feeder(fchain):
    for n in range(6):
        res = intertwining_check(fchain, lambda s: float(s) + 1.0, 2, n)
        assert res.one_step_residual <= 1e-12
        assert res.markov_residual <= 1e-12


# --- normalization -------------------------------------------------------------------

def test_h_normalize_rank_one_gauge(chain, ex25):
    h = chain.h
    J = Kernel(lambda s, t: h(s) * h(t), name="h-outer")
    Jh = h_normalize(J, h)
    for a in ("", "1", "12"):
        for b in ("", "2"):
            assert Jh(ex25.point(a), ex25.point(b)) == pytest.approx(1.0, abs=1e-15)


def test_h_normalize_limit_diagonal(chain, ex25):
    limit = Kernel(ex25.oracle_limit, name="limit")
    normalized = h_normalize(limit, chain.h)
    for label in ("", "1", "21"):
        s = ex25.point(label)
        assert normalized(s, s) == pytest.approx(1.0 / chain.h(s), rel=1e-13)


def test_h_normalize_zero_kernel(chain, ex25, small_base):
    z = h_normalize(Kernel(lambda s, t: 0.0), chain.h)
    assert all(z(s, t) == 0.0 for s in small_base for t in small_base)


def test_h_normalize_gauge_zero_raises(fchain):
    k = h_normalize(Kernel(lambda s, t: 1.0), fchain.h)
    with pytest.raises(InputError, match="1"):
        k(1, 0)


def test_apply_L_tilde_constant_kernel(chain, ex25):
    G = Kernel(lambda s, t: 1.0, name="one")
    LtG = apply_L_tilde(G, chain)
    assert LtG(ex25.point(""), ex25.point("1")) == pytest.approx(0.5, abs=1e-15)
    zero = apply_L_tilde(Kernel(lambda s, t: 0.0), chain)
    assert zero(ex25.point(""), ex25.point("")) == 0.0


def test_normalization_commutes_direct_one_step(chain, ex25, small_base):
    # (LJ)^(h)(s,t) = sum_i p_i(s) p_i(t) J^(h)(phi_i s, phi_i t), expanded by hand
    J = ex25.kernel
    Jh = h_normalize(J, chain.h)
    LJ = apply_L(J, ex25.branch)
    LJh = h_normalize(LJ, chain.h)
    for s in small_base:
        for t in small_base:
            rhs = math.fsum(
                chain.probs(s)[i - 1] * chain.probs(t)[i - 1]
                * Jh(ex25.branch.apply(i, s), ex25.branch.apply(i, t))
                for i in (1, 2)
            )
            assert LJh(s, t) == pytest.approx(rhs, abs=1e-14)


def test_normalization_commutes_residuals(chain, ex25, fchain, feeder, small_base):
    assert normalization_commutes(ex25.kernel, chain, small_base, 0) == 0.0
    for n in range(6):
        assert normalization_commutes(ex25.kernel, chain, small_base, n) <= 1e-12
        assert normalization_commutes(feeder.kernel, fchain, fchain.domain, n) <= 1e-12


def test_normalization_commutes_refuses_negative_length(chain, ex25, small_base):
    with pytest.raises(InputError, match="word length must be nonnegative"):
        normalization_commutes(ex25.kernel, chain, small_base, -1)


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("fixtures", [("ex25", "chain"), ("feeder", "fchain")], ids=["word-tree", "feeder"])
def test_normalization_commutes_reads_the_tower_core(monkeypatch, request, fixtures, n):
    # The left side is the core's level n: an entry moved by delta there
    # moves the residual by delta / h(s)^2.
    model, chain = map(request.getfixturevalue, fixtures)
    points = list(chain.domain[:3])
    delta, a = 1e-6, len(points) - 1
    core = boundary.tower_gram_iter

    def shifted(*args, **kwargs):
        for level, G in enumerate(core(*args, **kwargs)):
            if level == n:
                G[a, a] += delta
            yield G

    monkeypatch.setattr(boundary, "tower_gram_iter", shifted)
    residual = normalization_commutes(model.kernel, chain, points, n)
    assert residual >= delta / chain.h(points[a]) ** 2 - 1e-12


def test_tilde_word_expansion_matches_iteration(chain, ex25):
    D0h = _defect_h(ex25, chain)
    s, t = ex25.point(""), ex25.point("1")
    assert tilde_word_expansion(D0h, chain, s, t, 0) == pytest.approx(D0h(s, t), abs=1e-15)
    iterate = D0h
    for n in range(1, 7):
        iterate = apply_L_tilde(iterate, chain)
        expanded = tilde_word_expansion(D0h, chain, s, t, n)
        assert expanded == pytest.approx(iterate(s, t), abs=1e-12)


def test_tilde_word_expansion_constant_kernel(chain, ex25):
    G = Kernel(lambda s, t: 1.0)
    for n in range(7):
        v = tilde_word_expansion(G, chain, ex25.point(""), ex25.point(""), n)
        assert v == pytest.approx(2.0**-n, abs=1e-14)


# --- cylinder weights and the boundary Gram ---------------------------------------

def test_weights_validation():
    with pytest.raises(InputError):
        ProductCylinderWeights([0.0, 1.0])
    with pytest.raises(InputError):
        ProductCylinderWeights([0.4, 0.4])
    w = ProductCylinderWeights.bernoulli(0.3)
    assert w.mass((1, 2, 1)) == pytest.approx(0.3 * 0.7 * 0.3, abs=1e-15)


def test_boundary_gram_single_level_is_defect(chain, ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 1)
    bg = boundary_feature_gram(
        ex25.kernel, tower, chain, ProductCylinderWeights.bernoulli(0.5), 1
    )
    D0h = _defect_h(ex25, chain)
    expected = np.array([[D0h(s, t) for t in small_base] for s in small_base])
    assert np.max(np.abs(bg.entries - expected)) <= 1e-12


def test_boundary_gram_residual_and_nu_invariance(chain, ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 8)
    bg = boundary_feature_gram(
        ex25.kernel, tower, chain, ProductCylinderWeights.bernoulli(0.5), 8
    )
    bg_alt = boundary_feature_gram(
        ex25.kernel, tower, chain, ProductCylinderWeights.bernoulli(0.3), 8
    )
    assert bg.residual <= 1e-10
    assert np.max(np.abs(bg.entries - bg_alt.entries)) <= 1e-12


def test_boundary_gram_reused_sections_match_a_fresh_build(chain, ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 6)
    nu, nu_alt = ProductCylinderWeights.bernoulli(0.5), ProductCylinderWeights.bernoulli(0.3)
    bg = boundary_feature_gram(ex25.kernel, tower, chain, nu, 6)
    fresh = boundary_feature_gram(ex25.kernel, tower, chain, nu_alt, 6)
    reused = boundary_feature_gram(ex25.kernel, tower, chain, nu_alt, 6, sections=bg.sections)
    assert reused.sections is bg.sections
    assert np.array_equal(reused.entries, fresh.entries)
    assert np.array_equal(reused.reference, fresh.reference)
    with pytest.raises(InputError, match="other base points or levels"):
        boundary_feature_gram(ex25.kernel, tower, chain, nu_alt, 5, sections=bg.sections)


def test_boundary_gram_full_identity(chain, ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 8)
    bg = boundary_feature_gram(
        ex25.kernel, tower, chain, ProductCylinderWeights.bernoulli(0.5), 8
    )
    h = np.array([chain.h(s) for s in small_base])
    lhs = tower.levels[8] / np.outer(h, h)
    rhs = tower.levels[0] / np.outer(h, h) + bg.entries
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_boundary_gram_feeder(fchain, feeder):
    tower = build_tower(feeder.kernel, feeder.branch, list(fchain.domain), 6)
    bg = boundary_feature_gram(
        feeder.kernel, tower, fchain, ProductCylinderWeights.bernoulli(0.5), 6
    )
    assert bg.residual <= 1e-10
    # the only defect mass is at the feeder state, normalized by the gauge
    assert bg.entries[1, 1] == pytest.approx(0.5 / 4.0, abs=1e-12)


def test_boundary_gram_horizon_guard(chain, ex25, small_base):
    tower = build_tower(ex25.kernel, ex25.branch, small_base, 2)
    with pytest.raises(InputError):
        boundary_feature_gram(
            ex25.kernel, tower, chain, ProductCylinderWeights.bernoulli(0.5), 4
        )
