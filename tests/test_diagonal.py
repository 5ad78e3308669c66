import math

import pytest

from kerneltower import (
    BranchSystem,
    ContractError,
    FiniteStateModel,
    InputError,
    Kernel,
    TailCertificate,
    WordTreeModel,
    blowup_detect,
    build_tower,
    diagonal_trace,
    estimate_K_infinity,
    layer_cake_check,
    level_set_count,
    lyapunov_verify,
    tail_bound,
)
from kerneltower import diagonal
from kerneltower.diagonal import CONVERGING, DIVERGING, LyapunovRefutation
from kerneltower.points import fsum_rows, orbit_closure
from kerneltower.tower import tower_gram_iter

from oracles import apply_P, diagonal_word_sum, reference_orbit_closure


# --- the induced operator on functions --------------------------------------

def _level_one_diagonal(K, branch, s):
    return build_tower(K, branch, [s], 1).levels[1][0, 0]


def test_apply_P_zero_and_constants(ex25, root):
    # P of a diagonal is the level-1 diagonal of the tower; the oracle P agrees.
    assert apply_P(lambda s: 0.0, ex25.branch)(root) == 0.0
    assert apply_P(lambda s: 1.0, ex25.branch)(root) == 2.0
    assert _level_one_diagonal(Kernel(lambda u, v: 0.0), ex25.branch, root) == 0.0
    assert _level_one_diagonal(Kernel(lambda u, v: 1.0), ex25.branch, root) == 2.0


def test_apply_P_moves_diagonal_one_level(ex25, root):
    u0 = lambda s: ex25.kernel(s, s)
    assert apply_P(u0, ex25.branch)(root) == pytest.approx(1.75, abs=1e-14)
    assert _level_one_diagonal(ex25.kernel, ex25.branch, root) == pytest.approx(1.75, abs=1e-14)


def test_P_iterates_match_trace(ex25, root):
    trace = diagonal_trace(ex25.kernel, ex25.branch, root, 6)
    u = lambda s: ex25.kernel(s, s)
    for n in range(7):
        assert trace.values[n] == pytest.approx(u(root), abs=1e-12)
        u = apply_P(u, ex25.branch)


# --- diagonal traces ---------------------------------------------------------

def test_trace_example_converging(ex25, root):
    trace = diagonal_trace(ex25.kernel, ex25.branch, root, 6)
    expected = [2.0 - 0.5 ** (n + 1) for n in range(7)]
    for got, want in zip(trace.values, expected):
        assert got == pytest.approx(want, abs=1e-12)
    assert trace.verdict == CONVERGING
    assert trace.envelope_lower_bound == trace.values[-1]


def test_trace_delta_diverging(delta2, root):
    trace = diagonal_trace(delta2.kernel, delta2.branch, root, 8)
    assert trace.values == [float(2**n) for n in range(9)]
    assert trace.verdict == DIVERGING


def test_trace_invariant_converges_at_one_step(ex25, root):
    trace = diagonal_trace(ex25.diag_invariant, ex25.branch, root, 1)
    assert trace.verdict == CONVERGING
    assert trace.values == [1.0, 1.0]


def test_trace_matches_flat_word_oracle(ex25):
    s = ex25.point("2")
    trace = diagonal_trace(ex25.kernel, ex25.branch, s, 5)
    for n in range(6):
        ref = diagonal_word_sum(ex25.kernel.raw(), ex25.branch.maps, s, n)
        assert trace.values[n] == pytest.approx(ref, abs=1e-13)


def test_trace_ceiling_forces_divergence(delta2, root):
    trace = diagonal_trace(delta2.kernel, delta2.branch, root, 8, ceiling=100.0)
    assert trace.verdict == DIVERGING


def test_trace_monotone_for_subinvariant_models(ex25, delta2, feeder):
    cases = [
        (ex25.kernel, ex25.branch, ex25.point("1")),
        (delta2.kernel, delta2.branch, delta2.point("")),
        (feeder.kernel, feeder.branch, 2),
    ]
    for K, B, s in cases:
        values = diagonal_trace(K, B, s, 6).values
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# --- Lyapunov certificates ----------------------------------------------------

def test_lyapunov_example_defect_certificate(ex25, root):
    r_fn, C, beta = ex25.defect_lyapunov()
    d0 = lambda s: ex25.oracle_defect(0, s, s)
    domain = orbit_closure(ex25.branch, [root], 4)
    cert = lyapunov_verify(d0, ex25.branch, r_fn, C, beta, domain)
    assert isinstance(cert, TailCertificate)
    assert cert.C == 0.25 and cert.beta == 0.5
    assert cert.domain == tuple(domain)


def test_lyapunov_single_branch_allows_beta_one():
    collapse = BranchSystem([lambda s: 0], name="to-zero")
    diag = lambda s: 1.0
    cert = lyapunov_verify(
        diag, collapse, lambda s: 1.0, 1.0, 1.0, [0, 1], form="diagonal"
    )
    assert isinstance(cert, TailCertificate)
    assert cert.form == "diagonal"


def test_lyapunov_refutation_carries_both_sides(delta2, root):
    outcome = lyapunov_verify(
        lambda s: 1.0, delta2.branch, lambda s: 1.0, 1.0, 0.9, [root]
    )
    assert isinstance(outcome, LyapunovRefutation)
    assert outcome.premise == "Pr <= beta*r"
    assert outcome.lhs == 2.0
    assert outcome.rhs == pytest.approx(0.9)


def test_lyapunov_input_validation(ex25, root):
    with pytest.raises(InputError):
        lyapunov_verify(lambda s: 1.0, ex25.branch, lambda s: 0.0, 1.0, 0.5, [root])
    with pytest.raises(InputError):
        lyapunov_verify(lambda s: 1.0, ex25.branch, lambda s: 1.0, 1.0, 1.0, [root], form="defect")
    with pytest.raises(InputError):
        lyapunov_verify(lambda s: 1.0, ex25.branch, lambda s: 1.0, -1.0, 0.5, [root])
    with pytest.raises(InputError):
        lyapunov_verify(lambda s: 1.0, ex25.branch, lambda s: 1.0, 1.0, 0.5, [])


@pytest.mark.parametrize("failing", [
    ("22", "1"),     # a domain point and an image of a point stepped before it
    ("2", "122"),    # images only: the root's, then one of the later domain point's
])
def test_lyapunov_refuses_the_first_nonpositive_point_of_the_closure(ex25, failing):
    # r is checked on the domain, then on each domain point's images in
    # turn: the refusal names the first failing point of the one-step closure.
    bad = {ex25.point(x) for x in failing}
    r_fn = lambda s: 0.0 if s in bad else 1.0
    domain = [ex25.point(x) for x in ("", "22")]
    first = next(s for s in reference_orbit_closure(ex25.branch, domain, 1) if s in bad)
    assert first == ex25.point(failing[0])
    with pytest.raises(InputError, match=f"^Lyapunov function not positive at {failing[0]}$"):
        lyapunov_verify(lambda s: 1.0, ex25.branch, r_fn, 1.0, 0.5, domain)


def test_lyapunov_nan_verifies_nothing(ex25, root):
    # NaN fails every comparison: a NaN constant is refused, and a NaN on
    # either side of a premise refutes it instead of passing it.
    nan = float("nan")
    r_fn, C, beta = ex25.defect_lyapunov()
    d0 = lambda s: ex25.oracle_defect(0, s, s)
    with pytest.raises(InputError, match="C must be nonnegative"):
        lyapunov_verify(d0, ex25.branch, r_fn, nan, beta, [root])
    outcome = lyapunov_verify(lambda s: nan, ex25.branch, r_fn, C, beta, [root])
    assert isinstance(outcome, LyapunovRefutation) and outcome.premise == "diag <= C*r"
    # C * r = 0 * inf is NaN on the right-hand side.
    outcome = lyapunov_verify(lambda s: 0.0, ex25.branch, lambda s: math.inf, 0.0, beta, [root])
    assert isinstance(outcome, LyapunovRefutation) and outcome.premise == "diag <= C*r"


def test_certificate_domain_is_forward_invariant(ex25, root):
    # the default verification domain contains the one-step orbit of its interior
    depth = 4
    domain = set(orbit_closure(ex25.branch, [root], depth))
    interior = orbit_closure(ex25.branch, [root], depth - 1)
    for s in interior:
        for f in ex25.branch.maps:
            assert f(s) in domain


# --- blow-up witnesses ---------------------------------------------------------

def test_blowup_delta_witness(delta2, root):
    witness = blowup_detect(
        delta2.kernel, delta2.branch, root, lambda x: True, 1.0, 2.0, range(1, 9)
    )
    assert witness.counts == [2**n for n in range(1, 9)]
    assert witness.valid


def test_blowup_fails_on_decaying_tree(ex25, root):
    witness = blowup_detect(
        ex25.kernel, ex25.branch, root, lambda x: True, 1.0, 2.0, range(1, 9)
    )
    assert not witness.valid  # the diagonal decays below epsilon along the tree


def test_blowup_rho_above_branching_never_succeeds(delta2, root):
    witness = blowup_detect(
        delta2.kernel, delta2.branch, root, lambda x: True, 1.0, 2.5, range(1, 7)
    )
    assert not witness.valid


def test_blowup_parameter_validation(delta2, root):
    with pytest.raises(InputError):
        blowup_detect(delta2.kernel, delta2.branch, root, lambda x: True, 0.0, 2.0, [1])
    with pytest.raises(InputError):
        blowup_detect(delta2.kernel, delta2.branch, root, lambda x: True, 1.0, 1.0, [1])
    with pytest.raises(InputError):
        blowup_detect(delta2.kernel, delta2.branch, root, lambda x: True, 1.0, 2.0, [])


# --- level-set counts and the layer cake ---------------------------------------

def test_level_set_count_extremes(ex25, delta2, root):
    assert level_set_count(ex25.kernel, ex25.branch, root, 3, 1e-30) == 8
    assert level_set_count(ex25.kernel, ex25.branch, root, 3, 100.0) == 0
    assert level_set_count(delta2.kernel, delta2.branch, root, 4, 1.0) == 16


def test_level_set_count_example_threshold(ex25, root):
    # at level 3 the diagonal is constant on the level: 2^(1-n) - c (r/m)^n... just
    # below that value every one of the 8 words counts
    value = ex25.kernel((1, 1, 1), (1, 1, 1))
    theta = value - 1e-12
    assert level_set_count(ex25.kernel, ex25.branch, root, 3, theta) == 8


def test_level_set_count_monotone_in_theta(ex25, root):
    thetas = [0.0, 1e-3, 1e-2, 0.1, 0.2, 0.5, 1.0]
    counts = [level_set_count(ex25.kernel, ex25.branch, root, 4, th) for th in thetas]
    assert counts == sorted(counts, reverse=True)


def test_layer_cake_single_step(ex25, root):
    (lc,) = layer_cake_check(ex25.kernel, ex25.branch, root, 0)
    assert lc.integral == pytest.approx(ex25.kernel(root, root), abs=1e-15)
    assert lc.residual <= 1e-15


def test_layer_cake_example(ex25, root):
    for lc in layer_cake_check(ex25.kernel, ex25.branch, root, 8):
        assert lc.residual <= 1e-12 * max(1.0, abs(lc.word_sum))


def test_layer_cake_delta(delta2, root):
    for n, lc in enumerate(layer_cake_check(delta2.kernel, delta2.branch, root, 5)):
        assert lc.integral == 2.0**n and lc.word_sum == 2.0**n


def test_layer_cake_matches_independent_trace(ex25):
    s = ex25.point("1")
    trace = diagonal_trace(ex25.kernel, ex25.branch, s, 6)
    for n, lc in enumerate(layer_cake_check(ex25.kernel, ex25.branch, s, 6)):
        assert abs(lc.integral - trace.values[n]) <= 1e-12 * max(1.0, trace.values[n])


def test_diagonal_trace_holds_one_route_at_a_time_and_sums_within_its_counts(
        ex25, root, traced_peak, monkeypatch):
    # The README word tree at horizon 15: 2^16 - 1 diagonal values in 16
    # binades, summed by one fsum_rows call over a 16-row count matrix.
    K, B, n = ex25.kernel, ex25.branch, 15
    diagonal_trace(K, B, root, 3)  # one-off caches

    def tower_route():
        levels = tower_gram_iter(K, B, [root])
        return [next(levels) for _ in range(n + 1)]

    _, tower_peak, _ = traced_peak(tower_route)
    _, words_peak, _ = traced_peak(lambda: layer_cake_check(K, B, root, n))
    _, peak, _ = traced_peak(lambda: diagonal_trace(K, B, root, n))
    # Slack: CPython's free lists keep up to 2000 freed tuples (words) of each length.
    assert peak <= max(tower_peak, words_peak) + 2 * 2**20

    calls = []

    def recorded(values, counts):
        calls.append((values, counts))
        return fsum_rows(values, counts)

    monkeypatch.setattr(diagonal, "fsum_rows", recorded)
    layer_cake_check(K, B, root, n)
    (values, counts), = calls
    assert counts.shape == (n + 1, 2**(n + 1) - 1)
    _, peak, _ = traced_peak(lambda: fsum_rows(values, counts))
    assert peak <= counts.nbytes


# --- tail bounds ----------------------------------------------------------------

def test_tail_bound_certified_tight_at_root(ex25, root):
    tower = build_tower(ex25.kernel, ex25.branch, [root], 10)
    r_fn, C, beta = ex25.defect_lyapunov()
    cert = lyapunov_verify(
        lambda s: ex25.oracle_defect(0, s, s), ex25.branch, r_fn, C, beta,
        orbit_closure(ex25.branch, [root], 2),
    )
    tb = tail_bound(tower, root, root, 10, certificate=cert)
    assert tb.certified
    gap = ex25.oracle_limit(root, root) - ex25.oracle_level(10, root, root)
    assert tb.value == pytest.approx(0.5**11, rel=1e-15)
    assert tb.value == pytest.approx(gap, rel=1e-15)


def test_certified_tail_bound_is_the_completion_bound_entry():
    # On the m = 3 word tree r(s) = 6^-|s| is not dyadic: the pair and the
    # matrix bounds agree bit for bit only if they are one formula.
    model = WordTreeModel(m=3)
    B = model.branch
    pts = [model.point("12312"[:n]) for n in range(6)]
    r_fn, C, beta = model.defect_lyapunov()
    cert = lyapunov_verify(lambda s: model.oracle_defect(0, s, s), B, r_fn, C, beta, pts)
    est = estimate_K_infinity(model.kernel, B, pts, max_levels=5, certificate=cert)
    N = est.levels_used
    bounds = [[tail_bound(est.tower, s, t, N, certificate=cert).value for t in pts] for s in pts]
    assert bounds == est.bound.tolist()


def test_tail_bound_invariant_kernel_is_zero(ex25, root):
    # An invariant kernel's increments vanish, so the extrapolated tail does too.
    tower = build_tower(ex25.diag_invariant, ex25.branch, [root], 2)
    tb = tail_bound(tower, root, root, 2)
    assert tb.value == 0.0 and not tb.certified


def test_tail_bound_extrapolated_is_flagged(ex25, root):
    tower = build_tower(ex25.kernel, ex25.branch, [root], 6)
    tb = tail_bound(tower, root, root, 6)
    assert not tb.certified
    gap = ex25.oracle_limit(root, root) - ex25.oracle_level(6, root, root)
    assert tb.value == pytest.approx(gap, rel=1e-9)  # exact geometric decay here


def _doubling_model():
    # Two identity maps: LK = 2K, so state 0 doubles every level and the
    # kernel-null state 1 never moves.
    return FiniteStateModel([[0, 1], [0, 1]], [[1.0, 0.0], [0.0, 0.0]])


def test_tail_bound_zero_tail_beats_infinite_tail():
    model = _doubling_model()
    tower = build_tower(model.kernel, model.branch, [0, 1], 4)
    assert tail_bound(tower, 0, 0, 4).value == math.inf
    # Cauchy-Schwarz: the remainder's row at a zero-tail state is zero.
    assert tail_bound(tower, 0, 1, 4).value == 0.0
    assert tail_bound(tower, 1, 0, 4).value == 0.0


def test_tail_bound_at_level_one_follows_the_tower_rule():
    model = _doubling_model()
    tower = build_tower(model.kernel, model.branch, [0, 1], 1)
    assert tail_bound(tower, 1, 1, 1).value == 0.0  # increment <= 0: no tail
    assert tail_bound(tower, 0, 0, 1).value == math.inf  # one increment: no decay seen
    assert tail_bound(tower, 1, 1, 0).value == math.inf  # no increment: no information


def test_tail_bound_contract_errors(ex25, root):
    tower = build_tower(ex25.kernel, ex25.branch, [root], 4)
    r_fn, C, beta = ex25.defect_lyapunov()
    cert = TailCertificate(r_fn=r_fn, C=C, beta=beta, domain=(root,))
    other = ex25.point("1")
    with pytest.raises(ContractError):
        tail_bound(build_tower(ex25.kernel, ex25.branch, [other], 4), other, other, 4,
                   certificate=cert)
    with pytest.raises(InputError):
        tail_bound(tower, root, root, 9)
