"""The table-backed tower core against the Counter reference and the word route."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerneltower import (
    BranchSystem,
    ContractError,
    FiniteStateModel,
    Kernel,
    KernelBatch,
    NumericalError,
    ResourceError,
    WordTreeModel,
    level_via_words,
)
from kerneltower import tower, verify
from kerneltower.points import PointIndex, orbit_closure
from kerneltower.tower import TELESCOPE_RTOL, build_tower, tower_gram_iter

from oracles import reference_tower_gram_iter


def _levels(gen, n):
    return [next(gen) for _ in range(n + 1)]


def _assert_core_equals_reference(K, branch, points, n):
    core = _levels(tower_gram_iter(K, branch, points), n)
    ref = _levels(reference_tower_gram_iter(K, branch, points), n)
    for level, (a, b) in enumerate(zip(core, ref)):
        assert np.array_equal(a, b), f"level {level}: max diff {np.max(np.abs(a - b))}"
    return core


def _assert_core_within_rounding(K, branch, points, n):
    """The core against the exactly rounded reference at the nested-sum bound.

    A level-k entry is k layers of left-to-right sums of m children, so it
    lies within (k(m-1)+1) * 2^-53 * (L^k |K|)(s, t) of the exact word sum
    (recursive summation, Higham 2nd ed. section 4.2), for which the
    exactly rounded reference stands in; L^k |K| is the same reference run
    on |K|.
    """
    core = _levels(tower_gram_iter(K, branch, points), n)
    ref = _levels(reference_tower_gram_iter(K, branch, points), n)
    absK = Kernel(lambda s, t: abs(K(s, t)))
    abs_sums = _levels(reference_tower_gram_iter(absK, branch, points), n)
    m = len(branch.maps)
    for level, (a, b, c) in enumerate(zip(core, ref, abs_sums)):
        bound = (level * (m - 1) + 1) * 2.0**-53 * c
        excess = np.abs(a - b) - bound
        assert np.all(excess <= 0.0), f"level {level}: |diff| above bound by {np.max(excess)}"
    return core


def test_core_equals_reference_on_ex25(ex25, closure2):
    _assert_core_equals_reference(ex25.kernel, ex25.branch, closure2, 8)


def test_core_equals_reference_on_scalar_word_tree_parts(ex25, closure2):
    # These kernels have no batch form: the per-pair scalar route.
    for K in (ex25.strict_part, ex25.rank_one, ex25.majorant):
        _assert_core_equals_reference(K, ex25.branch, closure2, 6)


def test_core_equals_reference_on_word_tree_m3():
    model = WordTreeModel(m=3, r=0.3, c=0.9, eta=2.0)
    F = orbit_closure(model.branch, [model.point("")], 2)
    _assert_core_within_rounding(model.kernel, model.branch, F, 5)


def test_core_equals_reference_on_delta_model(delta2, closure2):
    _assert_core_equals_reference(delta2.kernel, delta2.branch, closure2, 8)


def test_core_equals_reference_on_feeder(feeder):
    _assert_core_equals_reference(feeder.kernel, feeder.branch, feeder.all_states(), 10)


def test_core_equals_reference_on_seeded_finite_state(sink_model):
    _assert_core_within_rounding(
        sink_model.kernel, sink_model.branch, sink_model.all_states(), 12
    )


def test_batched_and_scalar_kernels_agree_bitwise(ex25, closure2, sink_model):
    # On a plain BranchSystem of the same maps the batch is not bound, so the
    # model's kernel takes the scalar route: a batch never reads another
    # system's ids.  The states run backwards, so their ids are not the states.
    for model, pts in ((ex25, closure2), (sink_model, sink_model.all_states()[::-1])):
        scalar = Kernel(model.kernel.raw(), name="scalar")
        other = BranchSystem(model.branch.maps)
        b = _levels(tower_gram_iter(scalar, model.branch, pts), 6)
        for K, branch in ((model.kernel, model.branch), (model.kernel, other), (scalar, other)):
            a = _levels(tower_gram_iter(K, branch, pts), 6)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_builtin_kernels_read_codes_and_intern_no_point(monkeypatch, ex25, closure2, delta2, feeder, sink_model):
    made = []

    class Recorded(PointIndex):
        def __init__(self, maps):
            super().__init__(maps)
            made.append(self)

    m3 = WordTreeModel(m=3)
    cases = ((ex25, closure2), (m3, orbit_closure(m3.branch, [()], 2)), (delta2, closure2),
             (feeder, feeder.all_states()), (sink_model, sink_model.all_states()))
    monkeypatch.setattr(tower, "PointIndex", Recorded)
    for model, pts in cases:
        build_tower(model.kernel, model.branch, pts, 6)
    assert not made
    # A plain BranchSystem has no codes.  Levels 0..6 intern the 2^7 - 1
    # words of length up to 6: a step never runs ahead of the level asked for.
    build_tower(Kernel(delta2.kernel.raw()), BranchSystem(delta2.branch.maps), [()], 6)
    assert len(made) == 1 and len(made[0].points) == 2**7 - 1


def test_coded_delta_tower_equals_the_interned_scalar_tower(delta2, closure2):
    scalar, plain = Kernel(delta2.kernel.raw()), BranchSystem(delta2.branch.maps)
    for pts in ([()], closure2):
        coded = _levels(tower_gram_iter(delta2.kernel, delta2.branch, pts), 8)
        interned = _levels(tower_gram_iter(scalar, plain, pts), 8)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(coded, interned))


def test_a_batch_needs_a_branch_system_with_codes():
    plain = BranchSystem([lambda s: s + 1], name="successor")
    with pytest.raises(ContractError, match=r"KernelBatch needs a branch system with codes.*successor"):
        Kernel(lambda s, t: 1.0, batch=KernelBatch(plain, lambda a, b: a + b))


@st.composite
def coded_models(draw):
    """A finite-state model or a word tree at m = 2..4, with base points.

    The finite-state kernel tables are small integers, and the word trees
    have base words of at most 3 symbols and dyadic r, c and eta, so every
    level sum is exact except on word trees at m = 3, whose powers of 1/3
    round.
    """
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        S = draw(st.integers(1, 6))
        maps = [draw(st.lists(st.integers(0, S - 1), min_size=S, max_size=S)) for _ in range(m)]
        rank = draw(st.integers(1, S))
        A = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                                   min_size=S, max_size=S)))
        return FiniteStateModel(maps, A @ A.T), draw(st.lists(st.integers(0, S - 1), min_size=1, max_size=4))
    dyadic = st.sampled_from([0.25, 0.5, 0.75])
    model = WordTreeModel(m, draw(dyadic), draw(dyadic), draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    words = st.lists(st.integers(1, m), max_size=3).map(tuple)
    return model, draw(st.lists(words, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(coded_models(), st.integers(0, 6))
def test_coded_route_equals_interned_route_and_reference(case, n):
    # The coded route (the model's batch on its own codes) against the
    # interned route (its scalar kernel on a plain BranchSystem of the same
    # maps), bit for bit, and against the Counter reference.
    model, base = case
    coded = _levels(tower_gram_iter(model.kernel, model.branch, base), n)
    interned = _levels(tower_gram_iter(Kernel(model.kernel.raw()), BranchSystem(model.branch.maps), base), n)
    for level, (a, b) in enumerate(zip(coded, interned)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), f"level {level}"
    exact = not (isinstance(model, WordTreeModel) and model.m == 3)
    check = _assert_core_equals_reference if exact else _assert_core_within_rounding
    check(model.kernel, model.branch, base, n)


def test_core_handles_points_that_do_not_compare():
    # ints and strings do not order; the core merges their pairs unordered.
    maps = [lambda s: "a" if s == 0 else 0, lambda s: s]
    branch = BranchSystem(maps)
    K = Kernel(lambda s, t: 2.0 if s == t else 0.5)
    pts = [0, "a"]
    core = _levels(tower_gram_iter(K, branch, pts), 6)
    ref = _levels(reference_tower_gram_iter(K, branch, pts), 6)
    for a, b in zip(core, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("m, n", [(2, 6), (3, 4)])
def test_pair_cap_boundary(m, n):
    # On the word tree one base point has exactly m^n pairs at level n.
    model = WordTreeModel(m=m)
    root = [model.point("")]
    levels = _levels(tower_gram_iter(model.kernel, model.branch, root, pair_cap=m**n), n)
    assert len(levels) == n + 1
    for gen in (tower_gram_iter, reference_tower_gram_iter):
        it = gen(model.kernel, model.branch, root, pair_cap=m**n - 1)
        for _ in range(n):
            next(it)
        with pytest.raises(ResourceError, match=f"cap of {m**n - 1} pairs"):
            next(it)


def test_numpy_integer_maps_give_the_same_tower(sink_model):
    as_arrays = [np.array(row, dtype=np.int32) for row in sink_model.maps_table]
    model = FiniteStateModel(as_arrays, sink_model.table, name="sink")
    assert all(type(x) is int for row in model.maps_table for x in row)
    pts = model.all_states()
    a = _levels(tower_gram_iter(model.kernel, model.branch, pts), 8)
    b = _levels(tower_gram_iter(sink_model.kernel, sink_model.branch, pts), 8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@st.composite
def random_tables(draw):
    """Random maps on S states with a random PSD kernel table.

    The kernel need not be subinvariant: the properties below are about
    tower_gram_iter, not about defect certification.  The table given is
    symmetric only to 1e-13, as the model allows; the model stores its
    upper triangle in both, so a pair reads one value in either order.
    """
    S = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    maps = [draw(st.lists(st.integers(0, S - 1), min_size=S, max_size=S)) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((S, draw(st.integers(1, S))))
    table = A @ A.T + 1e-13 * np.triu(rng.random((S, S)), 1)
    base = draw(st.lists(st.integers(0, S - 1), min_size=1, max_size=5))
    return FiniteStateModel(maps, table), base


def _assert_matches_reference_and_words(case, n):
    model, base = case
    core = _assert_core_within_rounding(model.kernel, model.branch, base, n)
    for level, W in enumerate(level_via_words(model.kernel, model.branch, base, n)):
        scale = max(1.0, float(np.max(np.abs(W.entries))))
        assert np.max(np.abs(core[level] - W.entries)) <= 1e-12 * scale
    telescoped = core[0] + sum(core[k + 1] - core[k] for k in range(n))
    scale = max(1.0, float(np.max(np.abs(core[-1]))))
    assert np.max(np.abs(telescoped - core[-1])) <= TELESCOPE_RTOL * scale


@settings(max_examples=60, deadline=None)
@given(random_tables(), st.integers(0, 6))
def test_random_tables_core_matches_reference_and_words(case, n):
    _assert_matches_reference_and_words(case, n)


@settings(max_examples=60, deadline=None)
@given(random_tables(), st.integers(0, 6))
def test_random_tables_core_matches_reference_and_words_at_chunk_7(case, n):
    # A layer of up to 28 pairs is evaluated in up to four kernel calls.
    with mock.patch.object(tower, "_CHUNK_PAIRS", 7):
        _assert_matches_reference_and_words(case, n)


def _chunk_cases(ex25, closure2, feeder, sink_model):
    """(kernel, branch, points, levels, equal): ``equal`` when the core equals
    the reference bit for bit, else it is checked at its rounding bound."""
    m3 = WordTreeModel(m=3, r=0.3, c=0.9, eta=2.0)
    F3 = orbit_closure(m3.branch, [m3.point("")], 2)
    return {
        "word-tree-m2": (ex25.kernel, ex25.branch, closure2, 8, True),
        "word-tree-m3": (m3.kernel, m3.branch, F3, 5, False),
        "feeder": (feeder.kernel, feeder.branch, feeder.all_states(), 10, True),
        "sink": (sink_model.kernel, sink_model.branch, sink_model.all_states(), 12, False),
        "scalar": (ex25.strict_part, ex25.branch, closure2, 6, True),
    }


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", ["word-tree-m2", "word-tree-m3", "feeder", "sink", "scalar"])
def test_chunked_kernel_calls_give_the_same_levels(ex25, closure2, feeder, sink_model, name, chunk):
    # Chunk 1 calls the kernel once per pair; chunk 7 splits every layer.
    K, branch, points, n, equal = _chunk_cases(ex25, closure2, feeder, sink_model)[name]
    whole = _levels(tower_gram_iter(K, branch, points), n)
    with mock.patch.object(tower, "_CHUNK_PAIRS", chunk):
        check = _assert_core_equals_reference if equal else _assert_core_within_rounding
        chunked = check(K, branch, points, n)
    for level, (a, b) in enumerate(zip(chunked, whole)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), f"level {level}"


def test_telescoping_check_holds_the_tables_and_one_layer_merge(traced_peak):
    # Criterion 3's largest tower is the m = 3 word tree on 4 points at N = 10,
    # whose layer 10 has 10 * 3^10 pairs and no merges.  Its words are codes,
    # so after level 10 the generator holds only child positions (slices past
    # layer 0) and the newest layer's pairs (61.4 MiB when it interned the
    # words).  Beyond them a step may hold three int64 arrays over the new
    # layer (for a merge, its keys, their sort order and the distinct keys;
    # a word-tree step keys its candidates and merges nothing), plus one
    # chunk of kernel temporaries (under 64 bytes a pair).
    model, F = verify._builtin_suite()[1]
    build_tower(model.kernel, model.branch, F, 2)  # one-off caches

    def to_level_10():
        levels = tower_gram_iter(model.kernel, model.branch, F)
        for _ in range(11):
            next(levels)
        return levels

    _, _, tables = traced_peak(to_level_10)
    result, peak, _ = traced_peak(lambda: verify.check_telescoping(verify.VerifyContext()))
    assert result.passed
    assert tables <= 12 * 2**20 and peak <= 30 * 2**20
    merge = 3 * 8 * len(F) * (len(F) + 1) // 2 * 3**10
    assert peak <= tables + merge + 64 * tower._CHUNK_PAIRS + 2**20


def test_multiplicities_count_the_words(sink_model):
    # With K = 1 every entry of level n counts the m^n words.
    it = tower_gram_iter(Kernel(lambda s, t: 1.0), sink_model.branch, sink_model.all_states())
    for n in range(8):
        assert np.all(next(it) == 2.0**n)


def test_all_pairs_of_160_states_for_40_levels_at_one_layer_cap():
    # conftest's sink_model construction at S = 160: every layer holds at
    # most the S(S+1)/2 pairs of the state space, whatever the base pairs.
    rng = np.random.default_rng(2024)
    S = 160
    A = rng.standard_normal((S, S))
    A[0] = 0.0
    phi2 = [0] + [0 if s % 2 else int(rng.integers(1, S)) for s in range(1, S)]
    model = FiniteStateModel([list(range(S)), phi2], A @ A.T, name="sink-160")
    pts = model.all_states()
    levels = _levels(tower_gram_iter(model.kernel, model.branch, pts, pair_cap=S * (S + 1) // 2), 40)
    assert len(levels) == 41
    for level, W in enumerate(level_via_words(model.kernel, model.branch, pts, 2)):
        scale = max(1.0, float(np.max(np.abs(W.entries))))
        assert np.max(np.abs(levels[level] - W.entries)) <= 1e-12 * scale
    telescoped = levels[0] + sum(levels[k + 1] - levels[k] for k in range(40))
    scale = max(1.0, float(np.max(np.abs(levels[-1]))))
    assert np.max(np.abs(telescoped - levels[-1])) <= TELESCOPE_RTOL * scale


def test_a_level_past_the_float_range_is_a_numerical_error_naming_the_level():
    # Both maps fix each state and K(s, s) = 1e308: level 1 is inf on the diagonal.
    model = FiniteStateModel([[0, 1], [0, 1]], np.diag([1e308, 1e308]))
    levels = tower_gram_iter(model.kernel, model.branch, [1, 0])
    assert np.isfinite(next(levels)).all()
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="level 1 tower entry at 1, 1 is not finite"):
            next(levels)
    nan = Kernel(lambda s, t: float("nan") if s == t == 2 else 1.0)
    branch = BranchSystem([lambda x: x + 1])
    with pytest.raises(NumericalError, match="level 2 tower entry at 0, 0 is not finite"):
        _levels(tower_gram_iter(nan, branch, [0]), 2)


# --- word-tree layers arrive sorted ------------------------------------------

def _levels_or_refusal(gen, n):
    """Levels 0..n as bytes, ending with the message of a refusal if one comes."""
    out = []
    try:
        for level in gen:
            out.append(level.tobytes())
            if len(out) > n:
                break
    except ResourceError as exc:
        out.append(str(exc))
    return out


@st.composite
def word_tree_bases(draw):
    """A word tree at m = 2, 3 or 5 and a base list that may repeat words,
    hold words that are prefixes of one another, and words of 40 and 100 symbols."""
    m = draw(st.sampled_from([2, 3, 5]))
    model = WordTreeModel(m, draw(st.sampled_from([0.3, 0.5])), 0.7, draw(st.sampled_from([0.0, 2.1])))
    pool = [(), (1,), (1, 1), (2, 1), (1,) * 40, tuple(1 + j % m for j in range(100))]
    words = st.one_of(st.sampled_from(pool), st.lists(st.integers(1, m), max_size=3).map(tuple))
    return model, draw(st.lists(words, min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
@given(word_tree_bases(), st.integers(0, 5), st.integers(1, 400))
def test_sorted_word_tree_layers_equal_the_merged_interned_route_bit_for_bit(case, n, cap):
    # The coded route merges at most layer 0: stepping a sorted layer in map
    # order gives increasing codes.  The interned route's ids are in reach
    # order, point-major, so every layer from layer 2 on merges.  Levels, and
    # the level and message of a pair-cap refusal, are the same bytes.
    model, base = case
    with mock.patch("numpy.argsort", wraps=np.argsort) as merges:
        coded = _levels_or_refusal(tower_gram_iter(model.kernel, model.branch, base, cap), n)
        assert merges.call_count <= 1
        merges.reset_mock()
        interned = _levels_or_refusal(
            tower_gram_iter(Kernel(model.kernel.raw()), BranchSystem(model.branch.maps), base, cap), n)
        assert merges.call_count >= len(interned) - 2
    assert coded == interned


def test_levels_are_the_parents_bytes(sink_model, feeder):
    # SHA-256 prefixes of levels 0..n, as the core gave them before word-tree
    # layers skipped the merge: table branch systems always merge, and word
    # trees merge at most their base pairs.
    def digest(model, points, n):
        h = hashlib.sha256()
        for level in _levels(tower_gram_iter(model.kernel, model.branch, points), n):
            h.update(level.tobytes())
        return h.hexdigest()[:16]

    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 5))
    fs40 = FiniteStateModel([rng.integers(0, 40, 40).tolist() for _ in range(3)], A @ A.T)
    assert digest(sink_model, sink_model.all_states(), 12) == "645fc30e949b1f11"
    assert digest(fs40, fs40.all_states()[::-1], 10) == "baed8a8a7dd7f5ac"
    assert digest(feeder, [2, 0, 2], 10) == "14c670be3c65022d"
    base = [(1,) * 10, (), (1,), (2, 1), (1, 1), (), (1,) * 10]
    for m, n, pinned in ((2, 8, "d2a42cc2968eb550"), (3, 6, "575803493952b46b"), (5, 3, "e679551a41685f7c")):
        assert digest(WordTreeModel(m, 0.3, 0.7, 2.1), base, n) == pinned
