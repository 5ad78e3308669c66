import numpy as np
import pytest

from kerneltower import (
    DivergentDeltaModel,
    InputError,
    Kernel,
    ModelError,
    NumericalError,
    ResourceError,
    WordTreeModel,
    feeder_model,
    gram,
    psd_check,
    psd_leq,
    sqrt_factor,
)
from kerneltower.kernels import Gram
from kerneltower.points import orbit_closure


def test_gram_single_point_value(ex25, root):
    G = gram(ex25.kernel, [root])
    # J0 + eta*J1 - E at the root: 1 + 1 - 0.5
    assert G.entries[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_gram_zero_kernel(small_base):
    G = gram(Kernel(lambda s, t: 0.0, name="zero"), small_base)
    assert np.all(G.entries == 0.0)


def test_gram_rank_one_part(ex25):
    F = [ex25.point(""), ex25.point("1")]
    G = gram(ex25.rank_one, F)
    expected = np.array([[1.0, 2**-0.5], [2**-0.5, 0.5]])
    assert np.max(np.abs(G.entries - expected)) <= 1e-15


def test_gram_keeps_duplicates(ex25, root):
    G = gram(ex25.kernel, [root, root])
    assert G.entries.shape == (2, 2)
    assert np.allclose(G.entries, G.entries[0, 0])


def test_gram_rejects_empty(ex25):
    with pytest.raises(InputError):
        gram(ex25.kernel, [])


def test_gram_permutation_equivariance(ex25, small_base):
    G = gram(ex25.kernel, small_base)
    perm = [2, 0, 1]
    Gp = gram(ex25.kernel, [small_base[i] for i in perm])
    assert np.array_equal(Gp.entries, G.entries[np.ix_(perm, perm)])


def test_gram_annotates_failures(small_base):
    def bad(s, t):
        raise ValueError("boom")

    with pytest.raises(ModelError, match="boom") as info:
        gram(Kernel(bad, name="bad"), small_base)
    assert "kernel bad failed at (<>, <>)" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)


def test_gram_out_of_memory_is_a_resource_error(small_base):
    def exhausted(s, t):
        raise MemoryError

    with pytest.raises(ResourceError, match="kernel exhausted: out of memory .* of 3 points") as info:
        gram(Kernel(exhausted), small_base)
    assert isinstance(info.value.__cause__, MemoryError)


def test_gram_failure_keeps_the_original_exception(small_base):
    # An exception whose constructor takes other arguments than a message
    # must survive annotation intact, as the cause of the model error.
    def undecodable(s, t):
        return b"\xff".decode("utf-8") if (s, t) == ((1,), (2,)) else 0.0

    with pytest.raises(ModelError, match=r"kernel undecodable failed at \(1, 2\)") as info:
        gram(Kernel(undecodable), small_base)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_psd_check_identity():
    report = psd_check(np.eye(3))
    assert report.psd and report.min_eigenvalue == pytest.approx(1.0)


def test_psd_check_indefinite():
    report = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not report.psd
    assert report.min_eigenvalue == pytest.approx(-1.0)


def test_psd_check_example_kernel(ex25, small_base):
    assert psd_check(gram(ex25.kernel, small_base)).psd


def test_psd_check_nonfinite_entries():
    with pytest.raises(InputError):
        psd_check(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_psd_leq_reflexive(ex25, small_base):
    G = gram(ex25.kernel, small_base)
    report = psd_leq(G, G)
    assert report.psd and abs(report.min_eigenvalue) <= 1e-15


def test_psd_leq_tower_monotone(ex25, small_base):
    from oracles import apply_L

    G0 = gram(ex25.kernel, small_base)
    G1 = gram(apply_L(ex25.kernel, ex25.branch), small_base)
    assert psd_leq(G0, G1).psd
    assert not psd_leq(G1, G0).psd  # the defect has strictly positive diagonal


def test_psd_leq_point_list_mismatch(ex25, small_base, root):
    G1 = gram(ex25.kernel, small_base)
    G2 = gram(ex25.kernel, [root])
    with pytest.raises(InputError):
        psd_leq(G1, G2)


def _window_subsets(points, size=8):
    yield points[:size]
    yield points[-size:]
    yield points[::2][:size]


@pytest.mark.parametrize("model_name", ["ex25", "wt3", "delta", "feeder"])
def test_builtin_grams_are_psd(model_name, ex25):
    models = {
        "ex25": ex25,
        "wt3": WordTreeModel(m=3, r=0.3, c=0.9, eta=2.0),
        "delta": DivergentDeltaModel(m=2),
        "feeder": feeder_model(),
    }
    model = models[model_name]
    seeds = model.all_states() if hasattr(model, "all_states") else [model.point("")]
    closure = orbit_closure(model.branch, seeds, 4)
    for F in _window_subsets(closure):
        if F:
            assert psd_check(gram(model.kernel, F), 1e-9).psd


def test_adding_pd_kernel_preserves_order(ex25, small_base):
    G = gram(ex25.kernel, small_base)
    for part in (ex25.diag_invariant, ex25.rank_one, ex25.strict_part, ex25.kernel):
        shifted = Gram(G.points, G.entries + gram(part, small_base).entries)
        assert psd_leq(G, shifted).psd


def test_sqrt_factor_reconstructs(ex25, closure2):
    A = gram(ex25.kernel, closure2).entries
    R = sqrt_factor(A)
    assert np.max(np.abs(R @ R.T - A)) <= 1e-10 * np.max(np.abs(np.diag(A)))


def test_sqrt_factor_rejects_indefinite():
    with pytest.raises(NumericalError):
        sqrt_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gram_evaluates_once_per_unordered_pair():
    calls = []

    def fn(s, t):
        calls.append((s, t))
        return float(s == t)

    gram(Kernel(fn), [0, 1, 2])
    assert len(calls) == 6  # 3 diagonal + 3 off-diagonal
