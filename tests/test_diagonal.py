import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerneltower import (
    ContractError,
    DivergentDeltaModel,
    FiniteStateModel,
    InputError,
    Kernel,
    TailCertificate,
    WordTreeModel,
    blowup_detect,
    build_tower,
    defect_decay,
    diagonal_trace,
    estimate_K_infinity,
    layer_cake_check,
    level_set_count,
    lyapunov_verify,
    tail_bound,
)
from kerneltower import diagonal
from kerneltower.cli import main
from kerneltower.diagonal import CONVERGING, DIVERGING, LyapunovRefutation
from kerneltower.points import fsum_rows, orbit_closure
from kerneltower.tower import tower_gram_iter

from oracles import (apply_P, diagonal_word_sum, exact_defect_diagonal, exact_tail_bound_squared,
                     reference_certificate_failure)


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

def _own(model, min_length=0):
    """The word tree's own certificate, C = a, beta = r, r = q^|w|: equality in exact arithmetic."""
    a, q = defect_decay(model)
    return lyapunov_verify(model, a, model.r, q, min_length)


def test_lyapunov_example_defect_certificate(ex25, root):
    cert = _own(ex25)
    assert isinstance(cert, TailCertificate)
    assert cert.C == 0.25 and cert.beta == 0.5 and cert.base == 0.25
    assert cert.min_length == 0 and cert.covers([root, ex25.point("121")])


def test_lyapunov_refutation_carries_both_sides(delta2, root):
    # m base = 2 > beta = 0.9 at every length: refuted at the shortest.
    outcome = lyapunov_verify(delta2, 1.0, 0.9, 1.0)
    assert isinstance(outcome, LyapunovRefutation)
    assert outcome.premise == "Pr <= beta*r" and outcome.length == 0
    assert outcome.lhs == 2.0
    assert outcome.rhs == pytest.approx(0.9)


def test_lyapunov_input_validation(ex25, feeder):
    with pytest.raises(InputError, match="C must be finite and nonnegative"):
        lyapunov_verify(ex25, -1.0, 0.5, 0.25)
    with pytest.raises(InputError, match="0 < beta < 1"):
        lyapunov_verify(ex25, 1.0, 1.0, 0.25)
    with pytest.raises(InputError, match="base must be finite"):
        lyapunov_verify(ex25, 1.0, 0.5, math.inf)
    with pytest.raises(InputError, match="not a word-tree or delta model"):
        lyapunov_verify(feeder, 1.0, 0.5, 0.25)


@pytest.mark.parametrize("failing", [
    (0.0, 0, 1),     # r = 1 on the shortest words, 0 on their images
    (-0.5, 2, 3),    # positive at an even length, negative one symbol on
    (-0.5, 3, 3),    # negative already at the shortest length
])
def test_lyapunov_refuses_the_first_nonpositive_point_of_the_closure(ex25, failing):
    # r = base^|w| on the one-step closure of the words of length >= k0:
    # the refusal names the first length, k0 or k0 + 1, where r <= 0.
    base, k0, first = failing
    assert first == next(k for k in (k0, k0 + 1) if not base**k > 0)
    with pytest.raises(InputError, match=f"^Lyapunov function not positive at length {first}$"):
        lyapunov_verify(ex25, 1.0, 0.5, base, k0)


def test_lyapunov_nan_verifies_nothing(ex25):
    # NaN fails every comparison: each NaN input is refused.
    nan = float("nan")
    a, q = defect_decay(ex25)
    with pytest.raises(InputError, match="C must be finite"):
        lyapunov_verify(ex25, nan, 0.5, q)
    with pytest.raises(InputError, match="0 < beta < 1"):
        lyapunov_verify(ex25, a, nan, q)
    with pytest.raises(InputError, match="base must be finite"):
        lyapunov_verify(ex25, a, 0.5, nan)


def test_certificate_domain_is_forward_invariant(ex25):
    # A certificate covers the words of length >= k0; the maps lengthen
    # words, so it covers the images of every point it covers.
    cert = _own(ex25, 2)
    covered = [s for s in orbit_closure(ex25.branch, [ex25.point("12")], 3) if cert.covers([s])]
    assert len(covered) == 15
    assert cert.covers([f(s) for s in covered for f in ex25.branch.maps])
    assert not cert.covers([ex25.point("1")])


def _up(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


_PARAMS = st.sampled_from([0.1, 0.3, 0.37, 0.7, 0.9, 0.123]) | st.floats(0.01, 0.99)


@st.composite
def certificate_cases(draw):
    """A word tree or delta model and (C, beta, base) at their exact boundaries, one of them
    one ulp past it, or some drawn off it."""
    m, k0 = draw(st.integers(2, 7)), draw(st.integers(0, 6))
    past = draw(st.sampled_from([None, "C", "beta", "base", "off"]))

    def place(name, boundary: Fraction, off: float) -> float:
        if past == "off" and draw(st.booleans()):
            return off
        at = _up(boundary)
        return math.nextafter(at, 0.0) if past == name else at

    if draw(st.booleans()):
        r, c = draw(_PARAMS), draw(_PARAMS)
        model, defect = WordTreeModel(m=m, r=r, c=c), exact_defect_diagonal("word-tree", m, r, c)
        base = place("base", Fraction(r) / m, draw(st.floats(1e-3, 1.0)))
    else:  # q = 1: r must decay, so the defect premise fails from some length on
        model, defect = DivergentDeltaModel(m=m), exact_defect_diagonal("delta", m)
        base = draw(st.floats(1e-3, 0.999 / m))
    beta = place("beta", m * Fraction(base), draw(st.floats(1e-3, 0.999)))
    if not 0.0 < beta < 1.0:
        beta = draw(st.floats(1e-3, 0.999))
    C = place("C", defect(k0) / Fraction(base) ** k0, draw(st.floats(0.0, 1e6)))
    return model, defect, C, beta, base, k0


@settings(max_examples=300, deadline=None)
@given(certificate_cases(), st.integers(0, 40))
def test_certificate_decision_agrees_with_the_length_by_length_oracle(case, N):
    model, defect, C, beta, base, k0 = case
    outcome = lyapunov_verify(model, C, beta, base, k0)
    first = reference_certificate_failure(defect, model.m, C, beta, base, k0)
    if first is not None:
        assert isinstance(outcome, LyapunovRefutation)
        assert (outcome.premise, outcome.length) == first
        return
    if isinstance(outcome, LyapunovRefutation):  # the defect premise fails only past the oracle's span
        assert outcome.premise == "diag <= C*r"
        assert outcome.length is None or outcome.length > k0 + 64
        return
    # Verified: r decays no faster than the defect diagonal, so no later length fails.
    assert Fraction(base) * model.m <= Fraction(beta) and Fraction(base) >= defect(k0 + 1) / defect(k0)
    points = [model.point("1" * k) for k in range(k0, k0 + 6)]
    bounds = outcome.bound_matrix(points, N)
    for s, row in zip(points, bounds.tolist()):
        for t, f in zip(points, row):
            exact = exact_tail_bound_squared(C, beta, base, N, len(s), len(t))
            assert f >= 0.0 and Fraction(f) ** 2 >= exact
            below = math.nextafter(math.nextafter(f, -math.inf), -math.inf)  # 2 ulp down
            assert below < 0.0 or Fraction(below) ** 2 < exact


def test_a_refutation_names_a_failing_length_past_the_oracle_span():
    # r decays 1% faster per symbol than the defect diagonal, with C = 1.01^100 a:
    # the defect premise first fails about 100 lengths on.
    model = WordTreeModel(m=3, r=0.3, c=0.7, eta=2.0)
    a, q = defect_decay(model)
    base, C = float(q) / 1.01, float(a) * 1.01**100
    outcome = lyapunov_verify(model, C, 0.9, base, 2)
    assert isinstance(outcome, LyapunovRefutation) and outcome.premise == "diag <= C*r"
    defect = exact_defect_diagonal("word-tree", 3, 0.3, 0.7)
    assert reference_certificate_failure(defect, 3, C, 0.9, base, 2, span=outcome.length - 3) is None
    assert reference_certificate_failure(defect, 3, C, 0.9, base, 2, span=outcome.length - 2) == \
        ("diag <= C*r", outcome.length)
    # One ulp slower than the defect: it fails only astronomically far on.
    outcome = lyapunov_verify(model, 2 * a, 0.9, math.nextafter(_up(q), 0.0))
    assert outcome.length is None and str(outcome).startswith(
        "premise diag <= C*r fails past the first 1024 lengths: the defect diagonal's per-symbol factor ")


@pytest.mark.parametrize("text, status", [
    # delta: the defect diagonal 1 stays while C r = 1e6 * 0.4^k decays;
    # a depth-capped pointwise check read it certified.
    ("model: {kind: delta}\nhorizon: 3\nmax_levels: 4\n"
     "certificate: {C: 1.0e+6, beta: 0.9, r: {kind: length-decay, base: 0.4}}\n",
     "refuted: premise diag <= C*r fails at length 16: 1.0 > 0.4294967296000004"),
    # m3r: the own certificate holds with equality, which float premises refuted by an ulp.
    ("model: {kind: word-tree, m: 3, r: 0.3, c: 0.7, eta: 2.0}\nbase_points: ['', '1']\n"
     "horizon: 4\nmax_levels: 6\n", "verified"),
], ids=["delta", "m3r"])
def test_tower_certifies_only_what_holds_at_every_length(tmp_path, capsys, text, status):
    (tmp_path / "c.yaml").write_text(text)
    assert main(["tower", "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    completion = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["completion"]
    assert completion["certificate"] == status
    assert completion["bound_label"] == ("certified" if status == "verified" else "uncertified")


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
    tb = tail_bound(tower, root, root, 10, certificate=_own(ex25))
    assert tb.certified
    gap = ex25.oracle_limit(root, root) - ex25.oracle_level(10, root, root)
    assert tb.value == 0.5**11
    assert tb.value == pytest.approx(gap, rel=1e-15)


def test_certified_tail_bound_is_the_completion_bound_entry():
    # On the m = 3 word tree r(s) = 6^-|s| is not dyadic: the pair and the
    # matrix bounds agree bit for bit only if they are one formula.
    model = WordTreeModel(m=3)
    B = model.branch
    pts = [model.point("12312"[:n]) for n in range(6)]
    cert = _own(model)
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
    cert = _own(ex25, 1)
    with pytest.raises(ContractError, match="length >= 1 only"):
        tail_bound(tower, root, root, 4, certificate=cert)
    with pytest.raises(InputError):
        tail_bound(tower, root, root, 9)


@pytest.mark.parametrize("N, certified", [(-1, False), (-3, False), (-2, True)])
def test_tail_bound_refuses_a_negative_level(ex25, root, N, certified):
    # Unrefused, the uncertified bound sliced the levels from the wrong end
    # (-1 raised IndexError, -3 returned a number) and the certified one
    # returned beta**-2 times the level-0 bound, labelled certified.
    tower = build_tower(ex25.kernel, ex25.branch, [root], 4)
    cert = None
    if certified:
        cert = _own(ex25)
    with pytest.raises(InputError, match=f"^tail bound level must be nonnegative, got N={N}$"):
        tail_bound(tower, root, root, N, certificate=cert)


def test_certificate_bound_refuses_a_negative_level(ex25, root):
    cert = _own(ex25)
    assert cert.bound(root, root, 0) > 0.0
    for call in (lambda: cert.bound(root, root, -1), lambda: cert.bound_matrix([root], -2)):
        with pytest.raises(InputError, match="^tail bound level must be nonnegative"):
            call()
