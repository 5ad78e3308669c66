"""The word routes over indexed word levels against the list-walking references.

The word routes are the independent oracles of the tower (criterion 2) and
of the diagonal module (criteria 5 and 6).  They must give the very same
floats as the per-word Python walk they replaced, call the scalar kernel
once per distinct point (or oriented synchronous pair, across base pairs)
of a level, and touch nothing of the interned tower core.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerneltower.diagonal as diagonal_module
import kerneltower.tower as tower_module
from kerneltower import (
    BranchSystem,
    FiniteStateModel,
    InputError,
    Kernel,
    NumericalError,
    ResourceError,
    blowup_detect,
    build_tower,
    diagonal_trace,
    layer_cake_check,
    level_set_count,
    level_via_words,
)
from kerneltower.cli import main
from kerneltower.kernels import KernelBatch
from kerneltower.models import PrefixBranch, PrefixCodes, TableBranch
from kerneltower.points import fsum_rows, orbit_points_by_level, word_levels, word_sum

from oracles import (
    reference_blowup_counts,
    reference_diagonal_word_sums,
    reference_layer_cake,
    reference_level_set_count,
    reference_level_via_words,
    reference_orbit_points_by_level,
    reference_tower_gram_iter,
)


def _region(x):
    """A region that cuts most levels (hashes of ints and int tuples are fixed)."""
    return hash(x) % 3 != 1


def _bits(x) -> bytes:
    """The float64 bytes of x: equal bits, the sign of zero included."""
    return np.asarray(x, dtype=float).tobytes()


def _assert_routes_match_reference(K, branch, base, n):
    """Every word route equals its list-walking reference bit for bit, levels 0..n.

    Each list route answers levels 0..n from one call; every level is
    compared with the reference computed for that level alone.
    """
    grams = level_via_words(K, branch, base, n)
    assert len(grams) == n + 1
    for level, W in enumerate(grams):
        assert _bits(W.entries) == _bits(reference_level_via_words(K, branch, base, level)), level
    for s in set(base):
        sums = reference_diagonal_word_sums(K, branch, s, n)
        cakes = layer_cake_check(K, branch, s, n)
        assert len(cakes) == n + 1
        for level, lc in enumerate(cakes):
            ref = reference_layer_cake(K, branch, s, level)
            assert _bits([lc.integral, lc.word_sum]) == _bits(ref), level
            assert _bits(lc.word_sum) == _bits(sums[level]), level
            words = reference_orbit_points_by_level(branch, s, level)[level]
            values = sorted({K(x, x) for x in words})
            for theta in values + [0.0, values[-1] * 2 + 1.0]:
                assert level_set_count(K, branch, s, level, theta) == \
                    reference_level_set_count(K, branch, s, level, theta)
        levels = list(range(n + 1))
        for eps in (1e-12, 0.5):
            witness = blowup_detect(K, branch, s, _region, eps, 1.5, levels)
            assert witness.counts == reference_blowup_counts(K, branch, s, _region, eps, levels)


# --- the indexed levels ------------------------------------------------------

def test_word_levels_expand_to_the_reference_enumeration(sink_model):
    for s in sink_model.all_states():
        levels = word_levels(sink_model.branch, s, 6)
        ref = reference_orbit_points_by_level(sink_model.branch, s, 6)
        for k, (pts, idx) in enumerate(levels):
            assert idx.dtype == np.int64 and len(idx) == 2**k
            assert len(pts) == len(set(pts)) <= sink_model.S
            assert [pts[j] for j in idx.tolist()] == ref[k]
        assert orbit_points_by_level(sink_model.branch, s, 6) == ref


def test_word_levels_apply_each_map_once_per_distinct_point(sink_model):
    calls = []
    maps = [(lambda f: lambda s: calls.append(s) or f(s))(f) for f in sink_model.branch.maps]
    levels = word_levels(BranchSystem(maps), 3, 7)
    assert len(calls) == sum(len(maps) * len(pts) for pts, _ in levels[:-1])


def test_word_tree_levels_repeat_no_point(ex25, root):
    # The no-repeat case: points in word order, index 0..m^n - 1.
    for k, (pts, idx) in enumerate(word_levels(ex25.branch, root, 8)):
        assert len(pts) == len(idx) == 2**k
        assert np.array_equal(idx, np.arange(2**k))


def test_points_that_compare_equal_are_one_point():
    branch = BranchSystem([lambda s: 1, lambda s: 1.0])
    pts, idx = word_levels(branch, 0, 1)[1]
    assert pts == [1] and idx.tolist() == [0, 0]


def _level_calls(route, n):
    """The kernel calls of level n alone: route(k) covers levels 0..k in
    order and records its calls, so level n's are the calls of route(n)
    after those of route(n - 1), which it repeats first."""
    before = route(n - 1) if n else []
    calls = route(n)
    assert calls[:len(before)] == before
    return calls[len(before):]


def test_level_via_words_calls_the_kernel_once_per_distinct_pair(sink_model):
    # Once per distinct oriented pair (point of a, point of b), a <= b, of
    # each level: pairs shared by several base pairs are evaluated once.  A
    # level that repeats no point is summed word by word instead.
    base = [1, 2, 5, 6]

    def route(n):
        seen = []
        K = Kernel(lambda s, t: seen.append((s, t)) or float(sink_model.table[s, t]))
        level_via_words(K, sink_model.branch, base, n)
        return seen

    shared = 0
    for n in range(7):
        seen = _level_calls(route, n)
        level_of = {s: reference_orbit_points_by_level(sink_model.branch, s, n)[n] for s in base}
        words = [
            pair
            for i, a in enumerate(base) for b in base[i:]
            for pair in zip(level_of[a], level_of[b])
        ]
        if all(len(set(level)) == len(level) for level in level_of.values()):
            assert sorted(seen) == sorted(words), n
        else:
            assert sorted(seen) == sorted(set(words)), n
            per_base_pair = sum(
                len(set(zip(level_of[a], level_of[b])))
                for i, a in enumerate(base) for b in base[i:]
            )
            shared += len(seen) < per_base_pair
    assert shared >= 5


def test_level_via_words_past_the_pair_cap_sums_word_by_word(sink_model):
    # D^2 pair codes of level n beyond the cap: one kernel call per word of
    # that level, same floats.
    base = [1, 2, 5]
    for n in (2, 3):
        D = len(set().union(*(word_levels(sink_model.branch, s, n)[n][0] for s in base)))
        grams = {}

        def route(k):
            seen = []
            K = Kernel(lambda s, t: seen.append((s, t)) or float(sink_model.table[s, t]))
            grams[k] = level_via_words(K, sink_model.branch, base, k, cap=D * D - 1)
            return seen

        assert len(_level_calls(route, n)) == 6 * 2**n
        ref = reference_level_via_words(sink_model.kernel, sink_model.branch, base, n)
        assert np.array_equal(grams[n][n].entries, ref)


def test_diagonal_routes_call_the_kernel_once_per_distinct_point(sink_model):
    seen = []
    K = Kernel(lambda s, t: seen.append(s) or float(sink_model.table[s, t]))
    level_set_count(K, sink_model.branch, 3, 9, 0.5)
    assert len(seen) == len(word_levels(sink_model.branch, 3, 9)[9][0]) < 2**9


# --- one walk per base point --------------------------------------------------

def _count_walks(monkeypatch) -> list:
    """Record the (point, depth) of every word walk the tower and diagonal modules make."""
    walked = []

    def counted(branch, s, n, cap):
        walked.append((s, n))
        return word_levels(branch, s, n, cap)

    monkeypatch.setattr(tower_module, "word_levels", counted)
    monkeypatch.setattr(diagonal_module, "word_levels", counted)
    return walked


def test_list_routes_walk_each_distinct_base_point_once(sink_model, monkeypatch):
    walked = _count_walks(monkeypatch)
    grams = level_via_words(sink_model.kernel, sink_model.branch, [1, 2, 5, 6, 2, 1], 8)
    assert len(grams) == 9
    assert sorted(walked) == [(1, 8), (2, 8), (5, 8), (6, 8)]
    walked.clear()
    cakes = layer_cake_check(sink_model.kernel, sink_model.branch, 3, 8)
    assert len(cakes) == 9
    assert walked == [(3, 8)]
    # The trace's word route is the layer cake: one walk, the same results.
    walked.clear()
    trace = diagonal_trace(sink_model.kernel, sink_model.branch, 3, 8)
    assert walked == [(3, 8)]
    assert _bits([[lc.integral, lc.word_sum] for lc in trace.layer_cake]) == \
        _bits([[lc.integral, lc.word_sum] for lc in cakes])


DIVERGING_YAML = """\
model:
  kind: finite-state
  maps: [[0, 1, 2], [1, 2, 0], [0, 0, 1]]
  kernel: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
horizon: 10
"""


@pytest.mark.parametrize("text, walks", [
    # No certificate and a diverging diagonal: the blow-up witness walks
    # base point 0 once more, to level 8.
    pytest.param(DIVERGING_YAML, [(0, 10), (1, 10), (2, 10), (0, 8)], id="witness"),
    # The word tree's certificate verifies: no witness.
    pytest.param("model: {kind: word-tree}\nbase_points: ['', '1', '2']\nhorizon: 9\n",
                 [((), 9), ((1,), 9), ((2,), 9)], id="certificate"),
])
def test_cmd_diagonal_walks_each_base_point_once(tmp_path, capsys, monkeypatch, text, walks):
    walked = _count_walks(monkeypatch)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["diagonal", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert walked == walks


@pytest.mark.parametrize("cap, named", [(1000, "3^7 = 2187"), (3000, "3^8 = 6561")])
def test_list_routes_name_the_first_level_past_the_word_cap(cap, named):
    # Levels 0..8 come from one walk, yet the error names the first level
    # whose words exceed the cap, not level 8; word_levels owns the rule.
    model = FiniteStateModel([[0, 1, 2], [1, 2, 0], [0, 0, 1]], np.eye(3))
    K, branch = model.kernel, model.branch
    message = f"^{re.escape(f'enumerating {named} words exceeds the cap {cap}')}$"
    for route in (lambda: word_levels(branch, 0, 8, cap),
                  lambda: level_via_words(K, branch, [0, 1], 8, cap),
                  lambda: layer_cake_check(K, branch, 0, 8, cap),
                  lambda: diagonal_trace(K, branch, 0, 8, cap=cap),
                  lambda: level_set_count(K, branch, 0, 8, 0.5, cap),
                  lambda: blowup_detect(K, branch, 0, _region, 0.5, 1.5, [2, 8], cap)):
        with pytest.raises(ResourceError, match=message):
            route()


# --- bit-for-bit against the references --------------------------------------

def test_routes_match_reference_on_ex25(ex25, small_base):
    _assert_routes_match_reference(ex25.kernel, ex25.branch, small_base, 7)


def test_routes_match_reference_on_delta_model(delta2, root):
    _assert_routes_match_reference(delta2.kernel, delta2.branch, [root, (1,)], 7)


def test_routes_match_reference_on_sink_model(sink_model):
    _assert_routes_match_reference(
        sink_model.kernel, sink_model.branch, sink_model.all_states(), 8)


def test_routes_match_reference_with_collisions_and_a_scalar_kernel():
    # Int points whose maps collide heavily, a kernel with no batch form,
    # many tied diagonal values and a kernel-null point (0).
    branch = BranchSystem([lambda x: x // 2, lambda x: (3 * x + 1) % 11, lambda x: x % 4])
    K = Kernel(lambda s, t: 0.0 if 0 in (s, t) else 1.0 / (1 + abs(s - t)) + (s == t) * (s % 3))
    _assert_routes_match_reference(K, branch, [0, 5, 7, 10], 6)


def test_routes_match_reference_with_full_mantissas():
    # Full-mantissa kernel values on a 5-state model whose levels repeat
    # points: a count times a value rounds, so only an exact count-weighted
    # sum matches the per-word fsum.
    rng = np.random.default_rng(7)
    maps = [[1, 2, 0, 4, 3], [0, 0, 1, 1, 2], [3, 4, 4, 0, 2]]
    A = rng.uniform(0.1, 1.0, (5, 5))
    model = FiniteStateModel(maps, A @ A.T + np.diag(rng.uniform(0.1, 1.0, 5)))
    _assert_routes_match_reference(model.kernel, model.branch, model.all_states(), 6)


def test_level_via_words_matches_reference_at_the_float_edges():
    # Table entries -0.0, a subnormal, 1e300 (the product's top binade) and
    # 2e300 (beyond it): level sums mix the exact product with the exact
    # integer sum, and every bit, the sign of zero included, must match.
    T = np.array([
        [-0.0, -0.0, 5e-324, 1.0, -0.0],
        [-0.0, 1e300, -0.0, 2e300, 0.0],
        [5e-324, -0.0, 3 * 5e-324, -2.5, 1e-310],
        [1.0, 2e300, -2.5, 0.1, 1e300],
        [-0.0, 0.0, 1e-310, 1e300, -0.0],
    ])
    branch = BranchSystem([lambda x: [0, 2, 4, 4, 0][x], lambda x: [1, 0, 0, 3, 2][x],
                           lambda x: [4, 4, 2, 1, 0][x]])
    K = Kernel(lambda s, t: float(T[s, t]))
    for n, W in enumerate(level_via_words(K, branch, [0, 1, 2, 3, 4, 0], 5)):
        W = W.entries
        ref = reference_level_via_words(K, branch, [0, 1, 2, 3, 4, 0], n)
        assert np.array_equal(W, ref) and np.array_equal(np.signbit(W), np.signbit(ref)), n


def _weights(tied):
    """Either one of a few values (ties) or a float with a full 53-bit mantissa."""
    full = st.integers(2**52, 2**53 - 1).map(lambda k: k * 2.0**-52)  # in [1, 2)
    return st.one_of(st.sampled_from(tied), full, full.map(lambda x: x / 7.0))


@st.composite
def finite_state_cases(draw):
    """Random maps on a few states, so levels repeat points heavily.

    K = diag(d) + u u^T with d and u drawn from a few values, so diagonal
    values tie, or with full mantissas, so a count times a value rounds;
    with probability 1/2 state 0 is a kernel-null sink.
    """
    S = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    maps = [draw(st.lists(st.integers(0, S - 1), min_size=S, max_size=S)) for _ in range(m)]
    d = np.array(draw(st.lists(_weights([0.0, 0.5, 1.0, 3.0]), min_size=S, max_size=S)))
    u = np.array(draw(st.lists(_weights([0.0, 1.0, 0.1, 2.0]), min_size=S, max_size=S)))
    if draw(st.booleans()):
        d[0] = u[0] = 0.0
        for row in maps:
            row[0] = 0
    base = draw(st.lists(st.integers(0, S - 1), min_size=1, max_size=4))
    return FiniteStateModel(maps, np.diag(d) + np.outer(u, u)), base


@settings(max_examples=40, deadline=None)
@given(finite_state_cases(), st.integers(0, 6))
def test_random_finite_state_routes_match_reference(case, n):
    model, base = case
    _assert_routes_match_reference(model.kernel, model.branch, base, n)


# --- the oracles share nothing with the tower core ---------------------------

def test_word_routes_do_not_touch_the_tower_core(monkeypatch, sink_model, ex25, small_base):
    def refuse(*args, **kwargs):
        raise AssertionError("a word route reached the tower core")

    monkeypatch.setattr(tower_module, "PointIndex", refuse)  # where the core reads it
    for cls in (PrefixBranch, TableBranch):
        monkeypatch.setattr(cls, "codes", refuse)
    for cls in (PrefixCodes, TableBranch):
        monkeypatch.setattr(cls, "step", refuse)
    # Route one of diagonal_trace is the tower; swap in the Counter loop so
    # that only the word route could reach the core.
    monkeypatch.setattr(diagonal_module, "tower_gram_iter", reference_tower_gram_iter)

    for model, base in ((sink_model, sink_model.all_states()), (ex25, small_base)):
        B = model.branch
        K = Kernel(model.kernel.raw(), batch=KernelBatch(B, refuse))
        for J in (K, Kernel(K.raw())):  # the codes of B, then interned points
            with pytest.raises(AssertionError, match="tower core"):
                next(tower_module.tower_gram_iter(J, B, base))
        for n, W in enumerate(level_via_words(K, B, base, 5)):
            assert np.array_equal(W.entries, reference_level_via_words(K, B, base, n))
        for s in base:
            diagonal_trace(K, B, s, 6)  # raises if the two routes disagree
            layer_cake_check(K, B, s, 6)
            level_set_count(K, B, s, 6, 0.5)
            blowup_detect(K, B, s, lambda x: True, 1.0, 2.0, [1, 4])


# --- negative word lengths ---------------------------------------------------

def test_negative_word_lengths_are_input_errors(ex25, root, small_base):
    with pytest.raises(InputError, match="nonnegative"):
        word_levels(ex25.branch, root, -1)
    with pytest.raises(InputError, match="nonnegative"):
        orbit_points_by_level(ex25.branch, root, -1)
    with pytest.raises(InputError, match="nonnegative"):
        level_via_words(ex25.kernel, ex25.branch, small_base, -1)
    with pytest.raises(InputError, match="nonnegative"):
        level_set_count(ex25.kernel, ex25.branch, root, -1, 0.5)
    with pytest.raises(InputError, match="nonnegative"):
        layer_cake_check(ex25.kernel, ex25.branch, root, -2)
    with pytest.raises(InputError, match="nonnegative"):
        diagonal_trace(ex25.kernel, ex25.branch, root, -1)


# --- word sums past the float range --------------------------------------------

def test_word_sums_past_the_float_range_are_numerical_errors():
    # Two words of 1e308 each: the counted sum, and the word-by-word fsum of a
    # level that repeats no point, name the level and the point(s).  The
    # layer-cake integral overflows to inf first, quietly here; route one of
    # diagonal_trace, the tower, refuses the non-finite level before the
    # word route runs.
    model = FiniteStateModel([[0, 1], [0, 1]], np.diag([1e308, 1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="level 1 word sum at 0, 0 overflows"):
            level_via_words(model.kernel, model.branch, [0, 1], 1)
        with pytest.raises(NumericalError, match="level 1 word sum at 1 overflows"):
            layer_cake_check(model.kernel, model.branch, 1, 1)
        with pytest.raises(NumericalError, match="level 1 tower entry at 0, 0 is not finite"):
            diagonal_trace(model.kernel, model.branch, 0, 2)
    tree = BranchSystem([lambda s: 2 * s, lambda s: 2 * s + 1])
    K = Kernel(lambda s, t: 1e308, name="huge")
    with pytest.raises(NumericalError, match="level 1 word sum at 1, 1 overflows"):
        level_via_words(K, tree, [1], 1)


def test_word_sum_branches_agree_where_a_partial_sum_overflows():
    # MAX + MAX overflows in math.fsum, yet the exact total of the words
    # MAX, MAX, -MAX is MAX: both branches return it, word by word (a tree
    # that repeats no point) and counted (a level that repeats point 1).
    MAX = sys.float_info.max
    assert word_sum([MAX, MAX, -MAX], 1, 0) == fsum_rows([MAX, -MAX], [[2, 1]])[0] == MAX
    tree = BranchSystem([lambda s, i=i: 3 * s + i for i in (1, 2, 3)])
    K = Kernel(lambda s, t: -MAX if s % 3 == 0 else MAX, name="edge")
    assert level_via_words(K, tree, [1], 1)[1].entries.tolist() == [[MAX]]
    merging = BranchSystem([lambda s: 1, lambda s: 1, lambda s: 2])
    K = Kernel(lambda s, t: MAX if s == 1 else -MAX, name="edge")
    assert level_via_words(K, merging, [0], 1)[1].entries.tolist() == [[MAX]]
    # A total that lies past the float range is still refused, naming the level and point:
    # word by word, and counted (two words at a point of diagonal MAX).
    looping = FiniteStateModel([[0, 1], [0, 1]], np.diag([1.0, MAX]))
    for route in (lambda: word_sum([MAX, MAX], 1, 1), lambda: word_sum([MAX, MAX, -MAX / 2], 1, 1),
                  lambda: layer_cake_check(looping.kernel, looping.branch, 1, 1)):
        with pytest.raises(NumericalError, match="^level 1 word sum at 1 overflows a float$") as exc:
            route()
        assert exc.value.exit_code == 4


# --- monotone levels on generated subinvariant models (ROADMAP 5) ------------

@st.composite
def subinvariant_models(draw):
    """K = diag(d) + u u^T constant on the cycles of a permutation phi_1, zero at a sink.

    phi_1 preserves K exactly, so LK - K is the sum of the pullbacks of K
    along the other maps, which is PSD: K is subinvariant, and every
    defect level L^n (LK - K) is PSD.  State 0 is the sink; the other maps
    send each state to the sink or anywhere into the rest.
    """
    S = draw(st.integers(2, 7))
    perm = [0] + list(draw(st.permutations(range(1, S))))
    cycle = [0] * S
    for start in range(1, S):
        if cycle[start] == 0:
            x = start
            while cycle[x] == 0:
                cycle[x] = start
                x = perm[x]
    weights = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    d_of = {c: draw(weights) for c in set(cycle[1:])}
    u_of = {c: draw(st.floats(-2.0, 2.0)) for c in set(cycle[1:])}
    d = np.array([0.0] + [d_of[cycle[x]] for x in range(1, S)])
    u = np.array([0.0] + [u_of[cycle[x]] for x in range(1, S)])
    others = [
        [0] + draw(st.lists(st.integers(0, S - 1), min_size=S - 1, max_size=S - 1))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return FiniteStateModel([perm] + others, np.diag(d) + np.outer(u, u), name="subinvariant")


@settings(max_examples=50, deadline=None)
@given(subinvariant_models(), st.integers(1, 6))
def test_generated_subinvariant_towers_are_monotone(model, n):
    tower = build_tower(model.kernel, model.branch, model.all_states(), n)
    assert tower.telescoping_residual <= 1e-12
    for level, D in enumerate(tower.defects):
        scale = max(1.0, float(np.max(np.abs(tower.levels[level + 1]))))
        assert np.min(np.linalg.eigvalsh(D)) >= -1e-9 * scale, level
        assert tower.defect_reports[level].psd
    words = level_via_words(model.kernel, model.branch, model.all_states(), n)[n].entries
    assert np.max(np.abs(words - tower.levels[n])) <= 1e-12 * max(1.0, np.max(np.abs(words)))
