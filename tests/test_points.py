import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerneltower import (
    BranchSystem,
    InputError,
    ResourceError,
    enumerate_words,
    orbit_closure,
)
from kerneltower import points
from kerneltower.models import FiniteStateModel, WordTreeModel
from kerneltower.points import (check_word_levels, fsum_rows, orbit_points_by_level, point_label,
                                word_levels)

from oracles import all_words, reference_orbit_closure, word_forward, word_reversed


def test_apply_map_prefixes_word_tree(ex25):
    s = ex25.point("12")
    assert ex25.branch.apply(1, s) == ex25.point("112")
    assert ex25.branch.apply(2, s) == ex25.point("212")


def test_apply_map_identity_system():
    ident = BranchSystem([lambda s: s], name="identity")
    for s in ("a", 3, (1, 2)):
        assert ident.apply(1, s) == s


def test_apply_map_finite_state_table():
    model = FiniteStateModel(maps=[[1, 0]], kernel=[[1.0, 0.0], [0.0, 1.0]])
    assert model.branch.apply(1, 0) == 1
    assert model.branch.apply(1, 1) == 0


def test_apply_map_symbol_out_of_range(ex25):
    with pytest.raises(InputError):
        ex25.branch.apply(0, ex25.point(""))
    with pytest.raises(InputError):
        ex25.branch.apply(3, ex25.point(""))


# The composition conventions of the points docstring, as word_levels
# realises them: the point of word w at level |w| is phi_w(s), last symbol's
# map first; the reversed composition (the Doob walk's) is the oracle's.

def _composed(branch, w, s):
    pts, index = word_levels(branch, s, len(w))[-1]
    return pts[index[enumerate_words(branch.m, len(w)).index(w)]]


def test_compose_forward_empty_word_is_identity(ex25):
    s = ex25.point("21")
    assert _composed(ex25.branch, (), s) == s


def test_compose_forward_example(ex25):
    # phi_1(phi_2(root)) = "12"
    assert _composed(ex25.branch, (1, 2), ex25.point("")) == ex25.point("12")


def test_compose_forward_single_symbol_matches_apply(ex25):
    s = ex25.point("2")
    for i in (1, 2):
        assert _composed(ex25.branch, (i,), s) == ex25.branch.apply(i, s)


def test_compose_reversed_example(ex25):
    maps = ex25.branch.maps
    assert word_reversed(maps, (1, 2), ex25.point("")) == ex25.point("21")
    assert word_reversed(maps, (), ex25.point("1")) == ex25.point("1")


def test_compose_reversed_length_one_equals_forward(ex25):
    s = ex25.point("12")
    for i in (1, 2):
        assert word_reversed(ex25.branch.maps, (i,), s) == _composed(ex25.branch, (i,), s)


def test_forward_concatenation_exhaustive(ex25):
    # phi_{w.v} = phi_w o phi_v for all |w|, |v| <= 3
    s = ex25.point("2")
    for lw in range(4):
        for lv in range(4):
            for w in all_words(2, lw):
                for v in all_words(2, lv):
                    via_concat = _composed(ex25.branch, w + v, s)
                    via_steps = _composed(ex25.branch, w, _composed(ex25.branch, v, s))
                    assert via_concat == via_steps


def test_reversed_equals_forward_of_reversed_word(ex25):
    s = ex25.point("1")
    for n, (pts, index) in enumerate(word_levels(ex25.branch, s, 6)):
        for j, w in enumerate(all_words(2, n)):
            assert word_reversed(ex25.branch.maps, tuple(reversed(w)), s) == pts[index[j]]


def test_enumerate_words_basics():
    assert enumerate_words(2, 0) == [()]
    assert enumerate_words(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(enumerate_words(3, 2)) == 9


def test_enumerate_words_matches_naive_order():
    for m in (2, 3):
        for n in range(5):
            assert enumerate_words(m, n) == all_words(m, n)


def test_enumerate_words_cap():
    with pytest.raises(ResourceError):
        enumerate_words(2, 30, cap=2**20)
    with pytest.raises(InputError):
        enumerate_words(2, -1)


def test_check_word_levels_stops_at_the_first_level_past_the_cap():
    # n as large as the config fuzzer passes: m**n is never formed.
    with pytest.raises(ResourceError, match=r"enumerating 2\^21 = 2097152 words exceeds the cap 1048576"):
        check_word_levels(2, 2**64, cap=2**20)
    check_word_levels(1, 2**64, cap=1)  # one word per level


def test_orbit_closure_depth_zero_is_base(ex25, small_base):
    assert orbit_closure(ex25.branch, small_base, 0) == list(small_base)


def test_orbit_closure_finite_state_stays_in_states(feeder):
    for depth in range(5):
        closure = orbit_closure(feeder.branch, [2], depth)
        assert set(closure) <= {0, 1, 2}
    assert orbit_closure(feeder.branch, [2], 4) == [2, 0, 1]


def test_orbit_closure_word_tree_one_step(ex25, root):
    assert orbit_closure(ex25.branch, [root], 1) == [ex25.point(x) for x in ("", "1", "2")]


def test_orbit_closure_monotone_and_order_stable(ex25, root):
    prev = orbit_closure(ex25.branch, [root], 0)
    for depth in range(1, 5):
        cur = orbit_closure(ex25.branch, [root], depth)
        assert cur[: len(prev)] == prev
        assert len(cur) > len(prev)
        prev = cur


def test_orbit_closure_idempotent_once_stable(feeder):
    stable = orbit_closure(feeder.branch, [2], 3)
    assert orbit_closure(feeder.branch, stable, 3) == stable


def test_orbit_closure_cap(ex25, root):
    with pytest.raises(ResourceError):
        orbit_closure(ex25.branch, [root], 30, cap=1000)


@st.composite
def closure_cases(draw):
    """A finite-state branch system at m = 1..3 or a word tree at m = 2..3,
    base points with repeats, and a depth 0..4."""
    m = draw(st.integers(1, 3))
    if m == 1 or draw(st.booleans()):
        S = draw(st.integers(1, 6))
        maps = [draw(st.lists(st.integers(0, S - 1), min_size=S, max_size=S)) for _ in range(m)]
        branch = FiniteStateModel(maps, np.eye(S)).branch
        base = draw(st.lists(st.integers(0, S - 1), max_size=4))
    else:
        branch = WordTreeModel(m).branch
        base = [tuple(w) for w in draw(st.lists(st.lists(st.integers(1, m), max_size=3), max_size=4))]
    return branch, base, draw(st.integers(0, 4))


@settings(max_examples=100, deadline=None)
@given(closure_cases())
def test_orbit_closure_matches_the_reference_walk(case):
    branch, base, depth = case
    applied = []
    counted = BranchSystem([(lambda f: lambda s: applied.append(s) or f(s))(f) for f in branch.maps])
    expected = reference_orbit_closure(counted, base, depth)
    cap = len(applied)  # the exact number of map applications
    assert orbit_closure(branch, base, depth, cap) == expected
    if cap:
        for walk in (orbit_closure, reference_orbit_closure):
            with pytest.raises(ResourceError, match=rf"^orbit closure exceeded the cap of {cap - 1} map applications$"):
                walk(branch, base, depth, cap - 1)


def test_orbit_points_by_level_matches_words(ex25, root):
    levels = orbit_points_by_level(ex25.branch, root, 4)
    for n in range(5):
        expected = [word_forward(ex25.branch.maps, w, root) for w in all_words(2, n)]
        assert levels[n] == expected


def test_point_label():
    assert point_label(()) == "<>"
    assert point_label((1, 2)) == "12"
    assert point_label(3) == "3"


def test_branch_system_needs_a_map():
    with pytest.raises(InputError):
        BranchSystem([])


# --- the exact count-weighted sum of one row ----------------------------------

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def fsum_row(values, counts) -> float:
    """One row of :func:`fsum_rows`: counts @ values, exactly rounded."""
    return float(fsum_rows(values, np.array([counts], dtype=np.int64))[0])


def exact_count_sum(values, counts):
    """sum(c * v) in rationals, correctly rounded (OverflowError past the maximum)."""
    return float(sum((Fraction(v) * c for v, c in zip(values, counts)), Fraction(0)))


def assert_exact(values, counts):
    try:
        want = exact_count_sum(values, counts)
    except OverflowError:
        with pytest.raises(OverflowError):
            fsum_row(values, counts)
        return
    got = fsum_row(values, counts)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)


def full_mantissas(rng, k, low=-20, high=20):
    """k floats with random 53-bit mantissas, signs and exponents."""
    mant = rng.integers(2**52, 2**53, k).astype(float) / 2.0**53
    return np.ldexp(mant * rng.choice([-1.0, 1.0], k), rng.integers(low, high, k))


def test_fsum_counts_equals_fsum_of_the_repeated_values():
    rng = np.random.default_rng(11)
    for k in (1, 2, 5, 40):
        values = full_mantissas(rng, k).tolist()
        counts = rng.integers(0, 60, k)
        words = [v for v, c in zip(values, counts.tolist()) for _ in range(c)]
        assert fsum_row(values, counts) == math.fsum(words) == exact_count_sum(values, counts)


def test_fsum_counts_is_exact_where_products_round():
    # 3 * v rounds for most full-mantissa v: a rounded sum of products
    # would miss these exact totals.
    rng = np.random.default_rng(12)
    misses = 0
    for _ in range(200):
        values = full_mantissas(rng, 6, -2, 2).tolist()
        counts = rng.integers(2, 2**20, 6)
        assert_exact(values, counts)
        misses += math.fsum((np.array(values) * counts).tolist()) != exact_count_sum(values, counts)
    assert misses > 50


def test_fsum_counts_cancellation_and_mixed_signs():
    eps = 2.0**-52
    assert_exact([1.0 + eps, -1.0, 2.0**-80], [3, 3, 1])
    assert_exact([1.0 + eps, -(1.0 + 2 * eps), 1e-300], [2**26 + 1, 2**25, 7])
    assert_exact([0.1, -0.3, 0.2], [3, 1, 0])
    assert fsum_row([0.1, -0.1], [5, 5]) == 0.0
    rng = np.random.default_rng(13)
    for _ in range(100):
        v = full_mantissas(rng, 4).tolist()
        assert_exact(v + [-x for x in v], rng.integers(1, 1000, 8))


def test_fsum_counts_subnormals():
    sub = [TINY, 3 * TINY, 2.0**-1030 + TINY, -(2.0**-1023 - 5 * TINY), 2.0**-1022]
    assert_exact(sub, [1, 2**40, 3, 7, 2**27 + 5])
    assert_exact([TINY, -TINY], [2**27, 2**27 - 1])
    rng = np.random.default_rng(14)
    for _ in range(100):
        assert_exact(full_mantissas(rng, 5, -1074, -1015).tolist(), rng.integers(1, 2**30, 5))


def test_fsum_counts_near_the_float_maximum():
    assert_exact([MAX, -MAX, 1.0], [3, 3, 1])
    assert_exact([MAX, -MAX, TINY], [2**40, 2**40, 5])
    assert_exact([MAX / 3, -MAX / 4], [5, 6])
    assert_exact([MAX * 0.75, -MAX * 0.5], [4, 5])
    with pytest.raises(OverflowError):
        fsum_row([MAX], [2])
    with pytest.raises(OverflowError):
        fsum_row([MAX, -1.0], [3, 1])
    rng = np.random.default_rng(15)
    for _ in range(100):
        v = full_mantissas(rng, 4, 1000, 1025).tolist()
        assert_exact(v + [-x for x in v], rng.integers(1, 2**35, 8))


def test_fsum_counts_large_counts():
    rng = np.random.default_rng(16)
    counts = np.array([2**27, 2**27 + 1, 2**40 + 12345, 2**53 - 1, 2**62 + 2**35 + 3])
    # Counts just below 2^27 keep the split: a half times such a count is
    # the widest product that must still be exact.
    below = np.array([2**27 - 1, 2**27 - 3, 2**26 + 1, 2**27 - 2**13 - 1, 3])
    for _ in range(50):
        for c in (counts, below):
            assert_exact(full_mantissas(rng, 5).tolist(), c)
            assert_exact(full_mantissas(rng, 5, -1074, -1000).tolist(), c)


def test_fsum_counts_zeros_and_nonfinite_values():
    for counts in ([3], [1]):
        assert math.copysign(1.0, fsum_row([-0.0], counts)) == \
            math.copysign(1.0, math.fsum([-0.0] * counts[0]))
    assert fsum_row([], []) == 0.0
    assert fsum_row([2.5, 7.0], [0, 0]) == 0.0
    assert fsum_row([2.5, math.nan], [4, 0]) == 10.0
    assert fsum_row([math.inf, 1.0], [2, 3]) == math.inf
    assert math.isnan(fsum_row([math.nan, 1.0], [2, 3]))
    with pytest.raises(ValueError):
        fsum_row([math.inf, -math.inf], [2, 1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 2**45)),
        max_size=8,
    )
)
def test_fsum_counts_is_exactly_rounded(pairs):
    assert_exact([v for v, _ in pairs], [c for _, c in pairs])


# --- many rows in one exact product ------------------------------------------

def _wide_floats():
    """Floats over every binade: full mantissas, subnormals, signed zeros, the edges."""
    full = st.builds(
        lambda k, e, sign: sign * math.ldexp(k, e),
        st.integers(2**52, 2**53 - 1), st.integers(-1074 - 52, 1023 - 52), st.sampled_from([-1, 1]),
    )
    edges = st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**-1022, 2.0**-1022 - TINY, MAX, -MAX,
                             2.0**997, -(2.0**997 - 2.0**944), 1e300, 1.0])
    return st.one_of(full, edges, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def count_matrices(draw):
    """Values over many binades, small count rows, and one row of 2^26 words or more."""
    k = draw(st.integers(1, 8))
    values = draw(st.lists(_wide_floats(), min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(st.integers(0, 40), min_size=k, max_size=k),
                         min_size=1, max_size=5))
    large = draw(st.lists(st.integers(0, 2**40), min_size=k, max_size=k))
    large[draw(st.integers(0, k - 1))] = draw(st.integers(2**26, 2**45))
    at = draw(st.integers(0, len(rows)))
    return values, rows[:at] + [large] + rows[at:], at


@settings(max_examples=300, deadline=None)
@given(count_matrices())
def test_fsum_rows_equals_the_word_fsum_and_the_exact_sum(case):
    # Each small row against math.fsum of its words, one by one (where no
    # partial sum of fsum overflows), and against the exact rational sum;
    # the large row (no words allocated) against the exact sum alone.
    values, rows, large = case
    want = []
    for i, row in enumerate(rows):
        try:
            total = exact_count_sum(values, row)
        except OverflowError:
            total = None
        if i != large:
            words = [v for v, c in zip(values, row) for _ in range(c)]
            try:
                fsum = math.fsum(words)
            except OverflowError:  # a partial sum past the float range
                fsum = None
            if fsum is not None:
                assert fsum == total
                total = fsum  # fsum's own sign of zero
        want.append(total)
    overflow = [i for i, w in enumerate(want) if w is None]
    if overflow:
        with pytest.raises(OverflowError) as info:
            fsum_rows(values, np.array(rows))
        assert info.value.args == (overflow[0],)
        return
    got = fsum_rows(values, np.array(rows))
    assert got.tolist() == want
    assert np.signbit(got).tolist() == [math.copysign(1.0, w) < 0 for w in want]
    assert [fsum_row(values, row) for row in rows] == want


def test_fsum_rows_does_not_depend_on_the_column_order():
    # The product's partial sums are integers below 2^53: any summation
    # order gives the same floats, so permuted columns change no bit.
    rng = np.random.default_rng(17)
    values = full_mantissas(rng, 300, -60, 60)
    counts = rng.integers(0, 2**17, (25, 300))
    got = fsum_rows(values, counts)
    for _ in range(5):
        perm = rng.permutation(300)
        assert np.array_equal(fsum_rows(values[perm], counts[:, perm]), got)
    assert got.tolist() == [exact_count_sum(values, row) for row in counts]


@pytest.mark.parametrize("block", [1, 6000, 60000])
def test_fsum_rows_blocks_change_no_bit(block):
    # One binade and one row per product, 10 binades and 20 rows, or 100
    # binades and every row: each block's product is exact, so the sums
    # equal those of the default blocks (here 109 binades per product).
    rng = np.random.default_rng(19)
    values = full_mantissas(rng, 300, -60, 60)
    counts = rng.integers(0, 2**17, (25, 300))
    want = fsum_rows(values, counts)
    with mock.patch.object(points, "_SUM_BLOCK", block):
        assert np.array_equal(fsum_rows(values, counts), want)
    assert want.tolist() == [exact_count_sum(values, row) for row in counts]


def test_fsum_rows_near_the_float_maximum():
    # Binades 999 and 1000 with counts just below 2^26 words: scaled by
    # 2^(e-26), their column sums would pass the float maximum with opposite
    # signs, though the row total is 1.99 * 2^998.  Such rows take the
    # exact integer sum; the row beside them stays in the product.
    c = 2**24 + 2**22
    values = [1.99 * 2.0**999, -1.99 * 2.0**998, 0.75]
    counts = np.array([[c, 2 * c - 1, 0], [0, 0, 7], [3, 1, 2**25]])
    assert fsum_rows(values, counts).tolist() == [exact_count_sum(values, row) for row in counts]
