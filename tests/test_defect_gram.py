"""The batched defect Gram and the indexed Doob walk against their scalar references."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerneltower import (
    DivergentDeltaModel,
    FiniteStateModel,
    Kernel,
    NumericalError,
    WordTreeModel,
    build_doob,
    build_tower,
    cylinder_measure,
    enumerate_words,
    feeder_model,
    gauge_from_tower,
    gram,
    iterate_Q,
    sample_path,
    subinvariance_check,
)
from kerneltower.boundary import _boundary_sections, _walk_levels, sorted_words
from kerneltower.points import orbit_closure
from kerneltower.tower import defect_gram

from oracles import (
    apply_L,
    reference_defect_kernel,
    reference_iterate_Q,
    reference_section_gram,
    reference_section_points,
    reference_subinvariance_check,
    reference_walk_levels,
)
from test_tower_core import _assert_core_within_rounding


def _prefix_chain(model, depth):
    """Doob chain of a prefix-tree model under its harmonic gauge m^-|s|."""
    dom = orbit_closure(model.branch, [model.point("")], depth)
    return build_doob(lambda s: float(model.m) ** -len(s), model.branch, dom)


def seeded_finite_state(seed, S=12, m=3):
    """Subinvariant model with an exactly symmetric table and off-diagonal defects.

    phi_1 permutes the states and fixes the kernel-null sink 0; the other maps
    send about half the states to the sink and the rest anywhere.  K is
    diag(d) + u u^T with d, u constant on the cycles of phi_1, so LK - K is a
    sum of pullbacks of K and PSD.
    """
    rng = np.random.default_rng(seed)
    perm = np.concatenate(([0], 1 + rng.permutation(S - 1)))
    maps = [perm.tolist()] + [
        [0] + [0 if rng.random() < 0.5 else int(rng.integers(1, S)) for _ in range(S - 1)]
        for _ in range(m - 1)
    ]
    cycle = np.full(S, -1)
    for s in range(1, S):
        t, c = s, s
        while cycle[t] < 0:
            cycle[t] = c
            t = perm[t]
    d, u = rng.uniform(0.5, 1.5, S)[cycle], rng.uniform(0.1, 1.0, S)[cycle]
    d[0] = u[0] = 0.0
    return FiniteStateModel(maps, np.diag(d) + np.outer(u, u), name=f"seeded-{seed}")


def _positive_chain(model):
    # The section Gram and the walk do not use harmonicity, so a positive
    # gauge accepted at any residual exercises them with off-diagonal defects.
    gauge = lambda s: 0.0 if s == 0 else 1.0 + 0.25 * s
    return build_doob(gauge, model.branch, range(1, model.S), tol=math.inf)


CASE_NAMES = ("ex25", "m3", "delta", "feeder", "finite-state")


def _build_case(name):
    """(model, Doob chain, base points, section depth) of one named case."""
    if name == "ex25":
        model = WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0)
        dom = orbit_closure(model.branch, [model.point("")], 8)
        return (model, build_doob(model.oracle_gauge, model.branch, dom),
                [model.point(x) for x in ("", "1", "2")], 6)
    if name == "m3":
        model = WordTreeModel(m=3, r=0.3, c=0.9, eta=2.0)
        dom = orbit_closure(model.branch, [model.point("")], 5)
        return (model, build_doob(model.oracle_gauge, model.branch, dom),
                [model.point(x) for x in ("", "3")], 4)
    if name == "delta":
        model = DivergentDeltaModel(m=2)
        return model, _prefix_chain(model, 6), [model.point(x) for x in ("", "1")], 5
    if name == "feeder":
        model = feeder_model()
        tower = build_tower(model.kernel, model.branch, model.all_states(), 2)
        h, positive = gauge_from_tower(tower)
        return model, build_doob(h, model.branch, positive), [0, 2], 6
    model = seeded_finite_state(5)
    return model, _positive_chain(model), [1, 2, 3], 5


@pytest.fixture(scope="session")
def case():
    """Builds each named case once, on first use: a fault fails only its own tests."""
    return functools.cache(_build_case)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_defect_gram_equals_scalar_reference(name, case):
    model, chain, base, N = case(name)
    pts = orbit_closure(model.branch, base, 2)
    D = defect_gram(model.kernel, model.branch, pts)
    new = subinvariance_check(model.kernel, model.branch, pts)
    ref = reference_subinvariance_check(model.kernel, model.branch, pts)
    if name == "finite-state":  # merged pairs: nested sums, within rounding of the reference
        _assert_core_within_rounding(model.kernel, model.branch, pts, 1)
        assert abs(new.min_eigenvalue - ref.min_eigenvalue) <= 1e-12 * max(ref.scale, 1.0)
        assert (new.scale, new.psd) == (ref.scale, ref.psd)
        return
    assert np.array_equal(D, gram(reference_defect_kernel(model.kernel, model.branch), pts).entries)
    assert (new.min_eigenvalue, new.scale, new.psd) == (ref.min_eigenvalue, ref.scale, ref.psd)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_section_gram_equals_scalar_reference(name, case):
    model, chain, base, N = case(name)
    sections = _boundary_sections(model.kernel, tuple(base), chain, N, 1e-9, 2**24)
    points = reference_section_points(chain, base, N)
    assert list(sections.section_index) == points
    ref = reference_section_gram(model.kernel, chain, points)
    if name == "finite-state":
        # Merged pairs: the core's LK lies within m * 2^-53 * (L|K|) of the exact
        # sum and the reference's fsum within 2^-53 * (L|K|); subtracting K and
        # dividing by h(s) h(t) round each side twice more.
        absLK = gram(apply_L(Kernel(lambda s, t: abs(model.kernel(s, t))), model.branch), points)
        h = np.array([chain.h(x) for x in points])
        m = len(model.branch.maps)
        bound = 2.0**-53 * ((m + 1) * absLK.entries / np.outer(h, h) + 4 * np.abs(ref))
        assert np.all(np.abs(sections.section_gram - ref) <= bound)
        return
    assert np.array_equal(sections.section_gram, ref)


def test_section_gram_sees_off_diagonal_normalization(case):
    # Guards the h(s) h(t) normalization: the seeded defects are not diagonal.
    model, chain, base, N = case("finite-state")
    sections = _boundary_sections(model.kernel, tuple(base), chain, N, 1e-9, 2**24)
    G = sections.section_gram
    assert np.max(np.abs(G - np.diag(np.diag(G)))) > 1e-3


def test_section_gram_failing_the_psd_verdict_is_a_numerical_error():
    # Both states map to state 1: on the section points 0 and 1, LK - K with
    # K = I is [[0, 1], [1, 0]] (eigenvalue -1); with K = 1 it is 0, and the
    # gauge 1e-200 underflows h(s) h(t) to 0.
    for K, h, match in ((np.eye(2), 1.0, "is not PSD"), (np.ones((2, 2)), 1e-200, "has non-finite")):
        model = FiniteStateModel([[1, 1]], K)
        chain = build_doob(lambda s: h, model.branch, [0, 1])
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match=f"^boundary section Gram {match}") as exc:
            _boundary_sections(model.kernel, (0,), chain, 2, 1e-9, 2**24)
        assert exc.value.exit_code == 4


@st.composite
def asymmetric_tables(draw):
    """Random maps and a PSD table whose transpose differs below 1e-13.

    The model stores the table's upper triangle in both, exactly symmetric.
    """
    S = draw(st.integers(2, 7))
    m = draw(st.integers(1, 3))
    maps = [draw(st.lists(st.integers(0, S - 1), min_size=S, max_size=S)) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((S, S))
    K = A @ A.T + S * np.eye(S) + rng.uniform(-1e-13, 1e-13, (S, S))
    return FiniteStateModel(maps, K)


@settings(max_examples=40, deadline=None)
@given(asymmetric_tables())
def test_defect_gram_matches_reference_on_asymmetric_tables(model):
    pts = model.all_states()
    D = defect_gram(model.kernel, model.branch, pts)
    ref = gram(reference_defect_kernel(model.kernel, model.branch), pts).entries
    assert np.max(np.abs(D - ref)) <= 1e-12
    new = subinvariance_check(model.kernel, model.branch, pts)
    old = reference_subinvariance_check(model.kernel, model.branch, pts)
    assert abs(new.min_eigenvalue - old.min_eigenvalue) <= 1e-12 * max(old.scale, 1.0)


# --- the indexed Doob walk -----------------------------------------------------


def _assert_walk_equals_reference(chain, s, n):
    levels = _walk_levels(chain, s, n, 2**24)
    for k, (level, ref) in enumerate(zip(levels, reference_walk_levels(chain, s, n))):
        pts, idx, mass = level
        assert enumerate_words(chain.branch.m, k) == [w for w, _x, _p in ref]
        assert [pts[j] for j in idx.tolist()] == [x for _w, x, _p in ref]
        assert mass.tobytes() == np.array([p for _w, _x, p in ref]).tobytes()
    assert len(levels) == n + 1


@pytest.mark.parametrize("name", CASE_NAMES)
def test_walk_equals_reference(name, case):
    model, chain, base, _N = case(name)
    for s in base:
        _assert_walk_equals_reference(chain, s, 6)


def test_walk_equals_reference_on_uniform_chain(ex25):
    chain = _prefix_chain(ex25, 10)
    _assert_walk_equals_reference(chain, ex25.point("12"), 10)


def test_walk_reads_points_in_the_order_of_the_scalar_walk():
    # From anchor 4, the gauge-zero state 0 sends dead words to 2 and 3
    # before the live words of state 1 reach 3 and 2: sections must follow
    # the live words, not the first words.
    model = FiniteStateModel([[2, 3, 2, 3, 0], [3, 2, 3, 2, 1]], np.zeros((5, 5)))
    h = [0.0, 1.0, 1.5, 2.5, 3.0]
    chain = build_doob(h.__getitem__, model.branch, [1, 2, 3, 4], tol=math.inf)
    _assert_walk_equals_reference(chain, 4, 4)
    sections = _boundary_sections(model.kernel, (4,), chain, 3, 1e-9, 2**24)
    assert list(sections.section_index) == reference_section_points(chain, [4], 3) == [4, 1, 3, 2]


def test_cylinder_table_equals_reference(case):
    model, chain, base, _N = case("feeder")
    table = cylinder_measure(chain, 2, 8)
    ref = {w: p for level in reference_walk_levels(chain, 2, 8) for w, _x, p in level}
    assert table.table == ref
    assert list(table.table) == list(ref)
    words, order = sorted_words(chain.branch.m, 8)
    assert list(zip(words, np.concatenate(table.masses)[order].tolist())) == \
        [("".join(map(str, w)), p) for w, p in sorted(ref.items())]


@pytest.mark.parametrize("m", [2, 3])
def test_sorted_words_are_the_sorted_words(m):
    for n in range(7):
        words, order = sorted_words(m, n)
        ref = sorted(w for k in range(n + 1) for w in enumerate_words(m, k))
        assert list(words) == ["".join(map(str, w)) for w in ref]
        concatenated = [w for k in range(n + 1) for w in enumerate_words(m, k)]
        assert [concatenated[i] for i in order.tolist()] == ref


@st.composite
def harmonic_chains(draw):
    """Random finite-state Doob chains whose gauge is harmonic by construction.

    State 0 is a sink (gauge 0), states 1..P a spine that phi_1 permutes and
    the other maps send to the sink, with a gauge constant on the cycles of
    phi_1; every other state s maps below itself and takes as gauge the sum
    over its images.
    """
    S = draw(st.integers(3, 9))
    m = draw(st.integers(2, 3))
    P = draw(st.integers(1, S - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = 1 + rng.permutation(P)
    maps = [[0] * S for _ in range(m)]
    h = [0.0] * S
    for s in range(1, P + 1):
        maps[0][s] = int(perm[s - 1])
    for s in range(1, P + 1):  # constant on the cycles of the spine permutation
        t, v = s, float(rng.uniform(0.5, 2.0))
        while h[t] == 0.0:
            h[t] = v
            t = maps[0][t]
    for s in range(P + 1, S):
        for f in maps:
            f[s] = int(rng.integers(0, s))
        h[s] = math.fsum(h[f[s]] for f in maps)
    model = FiniteStateModel(maps, np.eye(S), name="harmonic")
    domain = [s for s in range(S) if h[s] > 0.0]
    return build_doob(h.__getitem__, model.branch, domain), draw(st.sampled_from(domain))


@settings(max_examples=40, deadline=None)
@given(harmonic_chains(), st.integers(0, 7))
def test_cylinder_level_sums_are_one(case, n):
    chain, s = case
    table = cylinder_measure(chain, s, n)
    for k in range(n + 1):
        assert abs(table.level_sum(k) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(harmonic_chains(), st.integers(0, 7))
def test_walk_equals_reference_on_harmonic_chains(case, n):
    chain, s = case
    _assert_walk_equals_reference(chain, s, n)


@settings(max_examples=40, deadline=None)
@given(harmonic_chains(), st.integers(0, 7))
def test_iterate_Q_equals_reference_on_harmonic_chains(case, n):
    chain, s = case
    f = lambda x: math.sin(x + 0.5)  # noqa: E731
    assert iterate_Q(chain, f, s, n) == reference_iterate_Q(chain, f, s, n)


# --- the Doob table -------------------------------------------------------------


@pytest.mark.parametrize("name", CASE_NAMES)
def test_doob_table_rows_are_the_scalar_ratios(name, case):
    _model, chain, _base, _N = case(name)
    maps = chain.branch.maps
    ref = np.array([[chain.h(f(s)) / chain.h(s) for f in maps] for s in chain.domain])
    assert chain.rows(list(chain.domain)).tobytes() == ref.tobytes()
    assert [chain.probs(s) for s in chain.domain] == ref.tolist()


class _CountingGauge:
    def __init__(self, gauge):
        self.gauge, self.calls = gauge, 0

    def __call__(self, s):
        self.calls += 1
        return self.gauge(s)


def test_walk_inside_the_domain_reads_no_gauge(ex25, feeder):
    gauge = _CountingGauge(ex25.oracle_gauge)
    chain = build_doob(gauge, ex25.branch, orbit_closure(ex25.branch, [ex25.point("")], 8))
    assert gauge.calls == 3 * len(chain.domain)  # the harmonicity pass: h(s) and two images
    gauge.calls = 0
    cylinder_measure(chain, ex25.point(""), 9)  # live points down to level 8 only
    _walk_levels(chain, ex25.point("1"), 8, 2**24)
    assert gauge.calls == 0
    gauge = _CountingGauge([1.0, 0.0, 2.0].__getitem__)  # the feeder's harmonic gauge
    chain = build_doob(gauge, feeder.branch, [0, 2])
    gauge.calls = 0
    assert cylinder_measure(chain, 2, 10).level_sum(10) == 1.0
    assert gauge.calls == 0


def test_each_row_reads_the_gauge_once(ex25):
    # A chain on one anchor builds the other rows as the walks first read them.
    gauge = _CountingGauge(ex25.oracle_gauge)
    root = ex25.point("")
    chain = build_doob(gauge, ex25.branch, [root])
    assert gauge.calls == 3
    for _ in range(2):
        cylinder_measure(chain, root, 6)  # rows of the live points of levels 0..5
        _walk_levels(chain, ex25.point("1"), 5, 2**24)  # inside that subtree
        sample_path(chain, root, 6, seed=1)
    assert gauge.calls == 3 * (2**6 - 1)  # h(s) and two images, once per row


def test_harmonicity_residual_is_the_worst_row_read():
    model = WordTreeModel(m=3, r=0.5, c=0.5, eta=1.0)
    h, root = model.oracle_gauge, model.point("")
    chain = build_doob(h, model.branch, [root])
    assert chain.harmonicity_residual == 0.0  # h(root) = 3 h(child) exactly
    cylinder_measure(chain, root, 6)
    read = orbit_closure(model.branch, [root], 5)  # levels 0..5, every word live
    worst = max(abs(math.fsum(h(f(s)) for f in model.branch.maps) - h(s)) / h(s) for s in read)
    assert chain.harmonicity_residual == worst > 0.0
