"""The acceptance harness: every shipped identity checked at its tolerance.

Each check covers one acceptance criterion; ``run_checks`` executes them in
order and reports one result per criterion.  The same functions back both
the ``verify`` CLI subcommand and the pytest acceptance module, so a green
CLI run and a green test suite certify the same statements.

Criteria 7 and 8 stay two checks but share one pass over the protocol
seeds, memoized on the context: each seed's noise is drawn once, and
criterion 7 reads its prefix, by the RNG contract its own draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import (ProductCylinderWeights, boundary_feature_gram, build_doob, cylinder_measure,
                       gauge_from_tower, intertwining_check, normalization_commutes)
from .diagonal import CONVERGING, DIVERGING, blowup_detect, diagonal_trace, lyapunov_verify
from .gaussian import (DEFAULT_NSAMPLES, PASS_SIGMA, TowerSampler, _z_scores, boundedness_probe,
                       martingale_checks, sample_covariance)
from .kernels import DEFAULT_PSD_TOL
from .models import DivergentDeltaModel, WordTreeModel, feeder_model
from .points import orbit_closure
from .reports import RunReport
from .tower import (DEFAULT_CEILING, TELESCOPE_RTOL, build_tower, defect_gram, level_via_words,
                    relative_residual)

PROTOCOL_SEEDS = 100
PROTOCOL_MIN_PASS = 99

# The tolerance each criterion enforces (criterion 3's is tower.TELESCOPE_RTOL);
# the CLI echoes those of the checks it repeats into summary.json.
ORACLE_TOL = 1e-12  # criteria 1 and 4: max |computed - closed form|
WORD_ROUTE_TOL = 1e-12  # criterion 2: max |word sum - tower level|
LAYER_CAKE_TOL = 1e-12  # criterion 5: relative layer-cake residual
CYLINDER_SUM_TOL = 1e-12  # criterion 9: cylinder level sums and consistency
INTERTWINING_TOL = 1e-12  # criterion 10: intertwining and normalization residuals
BOUNDARY_RESIDUAL_TOL = 1e-10  # criterion 11: feature Gram against the tower
NU_INVARIANCE_TOL = 1e-12  # criterion 11: shift under another reference measure


@dataclass
class CheckResult:
    name: str
    criterion: int
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)
    elapsed: float = 0.0  # wall seconds, filled in by run_checks

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion:2d} {self.name}: {self.detail}"


def _example_model() -> WordTreeModel:
    return WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0)


def check_example25_oracle(ctx) -> CheckResult:
    """Criterion 1: computed tower matches the closed forms entrywise."""
    t0 = time.perf_counter()
    model = _example_model()
    F = orbit_closure(model.branch, [model.point("")], 2)
    tower = build_tower(model.kernel, model.branch, F, 8, ctx.tol)
    worst = 0.0
    for n in range(9):
        oracle = np.array([[model.oracle_level(n, s, t) for t in F] for s in F])
        worst = max(worst, float(np.max(np.abs(tower.levels[n] - oracle))))
    for n in range(8):
        oracle = np.array([[model.oracle_defect(n, s, t) for t in F] for s in F])
        worst = max(worst, float(np.max(np.abs(tower.defects[n] - oracle))))
    elapsed = time.perf_counter() - t0
    passed = worst <= ORACLE_TOL and elapsed < 1.0
    return CheckResult(
        "example-tower-oracle", 1, passed,
        f"max |computed - closed form| = {worst:.3e} (tol {ORACLE_TOL:g}), {elapsed:.2f}s (< 1s)",
        {"max_abs_error": worst, "tolerance": ORACLE_TOL, "runtime_budget_s": 1.0},
    )


def check_word_expansion(ctx) -> CheckResult:
    """Criterion 2: word-sum route equals the iterated route, m in {2, 3}."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        model = WordTreeModel(m=m, r=0.5, c=0.5, eta=1.0)
        F = orbit_closure(model.branch, [model.point("")], 1)
        tower = build_tower(model.kernel, model.branch, F, 8, ctx.tol)
        for n, W in enumerate(level_via_words(model.kernel, model.branch, F, 8)):
            worst = max(worst, float(np.max(np.abs(W.entries - tower.levels[n]))))
    elapsed = time.perf_counter() - t0
    passed = worst <= WORD_ROUTE_TOL and elapsed < 5.0
    return CheckResult(
        "word-expansion-equivalence", 2, passed,
        f"max route difference = {worst:.3e} (tol {WORD_ROUTE_TOL:g}), {elapsed:.2f}s (< 5s)",
        {"max_abs_error": worst, "tolerance": WORD_ROUTE_TOL, "runtime_budget_s": 5.0},
    )


def _builtin_suite():
    feeder = feeder_model()
    cases = [
        (_example_model(), lambda mdl: orbit_closure(mdl.branch, [mdl.point("")], 1)),
        (WordTreeModel(m=3, r=0.5, c=0.5, eta=1.0),
         lambda mdl: orbit_closure(mdl.branch, [mdl.point("")], 1)),
        (DivergentDeltaModel(m=2), lambda mdl: [mdl.point("")]),
        (feeder, lambda mdl: mdl.all_states()),
    ]
    return [(mdl, pts_fn(mdl)) for mdl, pts_fn in cases]


def check_telescoping(ctx) -> CheckResult:
    """Criterion 3: level N equals level 0 plus accumulated defects, N = 10."""
    worst = 0.0
    worst_model = ""
    for model, F in _builtin_suite():
        tower = build_tower(model.kernel, model.branch, F, 10, ctx.tol)
        resid = relative_residual(tower.levels[0] + sum(tower.defects) - tower.levels[10], tower.levels[10])
        if resid >= worst:
            worst, worst_model = resid, model.name
    passed = worst <= TELESCOPE_RTOL
    return CheckResult(
        "telescoping-identity", 3, passed,
        f"max relative residual = {worst:.3e} (tol {TELESCOPE_RTOL:g}, worst on {worst_model})",
        {"max_rel_residual": worst, "tolerance": TELESCOPE_RTOL, "worst_model": worst_model},
    )


def check_certified_tail_bound(ctx) -> CheckResult:
    """Criterion 4: the geometric tail bound dominates and is tight on the diagonal."""
    model = _example_model()
    K, B = model.kernel, model.branch
    F = orbit_closure(B, [model.point("")], 2)

    # Premises hold with equality, so they are checked on the closed-form
    # defect diagonal; the recomputed one must agree with it to ORACLE_TOL but
    # carries ~2 ulp of cancellation noise that a strict inequality would
    # mistake for a refutation.
    d0 = lambda s: model.oracle_defect(0, s, s)
    domain = orbit_closure(B, F, 3)
    defect_drift = max(abs(float(defect_gram(K, B, [s])[0, 0]) - d0(s)) for s in domain)
    r_fn, C, beta = model.defect_lyapunov()
    cert = lyapunov_verify(d0, B, r_fn, C, beta, domain)
    if not hasattr(cert, "bound"):
        return CheckResult("certified-tail-bound", 4, False, f"premises refuted: {cert}")

    dominates = True
    for N in range(10, 21):
        bound = cert.bound_matrix(F, N)
        gap = np.array(
            [[abs(model.oracle_limit(s, t) - model.oracle_level(N, s, t)) for t in F] for s in F]
        )
        if not np.all(bound >= gap - 1e-15 * np.maximum(np.abs(gap), 1.0)):
            dominates = False
    e = model.point("")
    b10 = cert.bound(e, e, 10)
    gap10 = abs(model.oracle_limit(e, e) - model.oracle_level(10, e, e))
    tight = abs(b10 - gap10) <= 1e-15 * gap10
    expected = 0.5**11
    pinned = abs(b10 - expected) <= 1e-15 * expected
    passed = dominates and tight and pinned and defect_drift <= ORACLE_TOL
    return CheckResult(
        "certified-tail-bound", 4, passed,
        f"bound(N=10, root) = {b10!r} vs gap {gap10!r} (= 0.5^11), dominates N=10..20: {dominates}",
        {"bound_at_10": b10, "gap_at_10": gap10, "dominates": dominates,
         "tight": tight, "computed_defect_drift": defect_drift},
    )


def check_layer_cake(ctx) -> CheckResult:
    """Criterion 5: layer-cake integral equals the word sum, n <= 8."""
    worst = 0.0
    for model in (_example_model(), DivergentDeltaModel(m=2)):
        s = model.point("")
        trace = diagonal_trace(model.kernel, model.branch, s, 8, ceiling=ctx.ceiling)
        for n, lc in enumerate(trace.layer_cake):
            scale = max(1.0, abs(lc.word_sum))
            worst = max(worst, lc.residual / scale)
            worst = max(worst, abs(lc.integral - trace.values[n]) / scale)
    passed = worst <= LAYER_CAKE_TOL
    return CheckResult(
        "layer-cake-identity", 5, passed,
        f"max relative residual = {worst:.3e} (tol {LAYER_CAKE_TOL:g})",
        {"max_rel_residual": worst, "tolerance": LAYER_CAKE_TOL},
    )


def check_blowup_classification(ctx) -> CheckResult:
    """Criterion 6: witness-based blow-up vs convergence, probe agreement."""
    delta = DivergentDeltaModel(m=2)
    tree = _example_model()
    everywhere = lambda x: True
    levels = list(range(1, 9))

    w_delta = blowup_detect(delta.kernel, delta.branch, delta.point(""), everywhere, 1.0, delta.m, levels)
    w_tree = blowup_detect(tree.kernel, tree.branch, tree.point(""), everywhere, 1.0, tree.m, levels)
    v_delta = diagonal_trace(delta.kernel, delta.branch, delta.point(""), 8, ceiling=ctx.ceiling).verdict
    v_tree = diagonal_trace(tree.kernel, tree.branch, tree.point(""), 8, ceiling=ctx.ceiling).verdict

    probe_delta = boundedness_probe(delta.kernel, delta.branch, [delta.point("")], 20_000, 8, ctx.seed,
                                    ceiling=ctx.ceiling, tol=ctx.tol)
    probe_tree = boundedness_probe(tree.kernel, tree.branch, [tree.point(x) for x in ("", "1", "2")],
                                   20_000, 8, ctx.seed, ceiling=ctx.ceiling, tol=ctx.tol)
    ok = (
        w_delta.valid
        and not w_tree.valid
        and v_delta == DIVERGING
        and v_tree == CONVERGING
        and probe_delta == v_delta
        and probe_tree == v_tree
    )
    return CheckResult(
        "blowup-classification", 6, ok,
        f"delta: witness={w_delta.valid}/trace={v_delta}/probe={probe_delta}; "
        f"tree: witness={w_tree.valid}/trace={v_tree}/probe={probe_tree}",
        {
            "delta_counts": w_delta.counts,
            "delta_verdict": v_delta,
            "tree_verdict": v_tree,
            "probe_delta": probe_delta,
            "probe_tree": probe_tree,
        },
    )


def _protocol_seeds(base: int) -> list[int]:
    return [base + k for k in range(PROTOCOL_SEEDS)]


def _protocol_pass(ctx) -> tuple[CheckResult, CheckResult]:
    """Criteria 7 and 8 in one pass: one draw per protocol seed, freed before the next."""
    t0 = time.perf_counter()
    model = _example_model()
    F = [model.point(x) for x in ("", "1", "2")]
    tower, limit_tower = (build_tower(model.kernel, model.branch, F, N, ctx.tol) for N in (3, 12))
    sampler, limit_sampler = (TowerSampler(t, ctx.seed, ctx.tol) for t in (tower, limit_tower))
    target_D = limit_tower.levels[-1] - limit_tower.levels[0]
    passes = passes8 = 0
    worst_z = 0.0
    for seed in _protocol_seeds(ctx.seed):
        g = limit_sampler.draw(ctx.nsamples, seed)
        fields = limit_sampler.limit(g)
        batch = sampler.fields(sampler.prefix(g))
        del g
        # Criterion 7: the level-3 covariance and the increment covariances.
        cov, se = sample_covariance(batch.level(3))
        z = float(np.max(_z_scores(cov - tower.levels[3], se)))
        worst_z = max(worst_z, z)
        increments = (sample_covariance(batch.increment(n)) for n in range(3))
        passes += z <= PASS_SIGMA and all(
            np.max(_z_scores(covI - D, seI)) <= PASS_SIGMA
            for (covI, seI), D in zip(increments, tower.defects)
        )
        # Criterion 8: the level-0 component and the accumulated defects.
        covY, se = sample_covariance(fields.Y)
        covD, seD = sample_covariance(fields.Z - fields.Y)
        passes8 += bool(np.max(_z_scores(covY - limit_tower.levels[0], se)) <= PASS_SIGMA
                        and np.max(_z_scores(covD - target_D, seD)) <= PASS_SIGMA)
        if seed == ctx.seed:  # the martingale structure and root spot values
            mart = martingale_checks(batch, tower)
            z_root, y_root, d_root = (float(C[0, 0]) for C in (sample_covariance(fields.Z)[0], covY, covD))
        del batch, fields
    elapsed = time.perf_counter() - t0

    # Criterion 7's time budget covers the whole shared pass.
    passed = passes >= PROTOCOL_MIN_PASS and mart.passed and elapsed < 30.0
    covariance = CheckResult(
        "gaussian-covariance", 7, passed,
        f"{passes}/{PROTOCOL_SEEDS} seeds within 5 SE (need >= {PROTOCOL_MIN_PASS}); "
        f"martingale z = {mart.max_qv_z:.2f}; {elapsed:.1f}s (< 30s)",
        {"seed_passes": passes, "martingale_max_z": mart.max_qv_z, "worst_level_z": worst_z},
    )
    spot = abs(z_root - 2.0) <= 0.05 and abs(y_root - 1.5) <= 0.04 and abs(d_root - 0.5) <= 0.05
    compression = CheckResult(
        "compression-fields", 8, passes8 >= PROTOCOL_MIN_PASS and spot,
        f"{passes8}/{PROTOCOL_SEEDS} seeds within 5 SE; at root: cov(Z)={z_root:.4f} (2), "
        f"cov(Y)={y_root:.4f} (1.5), cov(Z-Y)={d_root:.4f} (0.5)",
        {"seed_passes": passes8, "covZ_root": z_root, "covY_root": y_root, "covD_root": d_root},
    )
    return covariance, compression


def check_gaussian_covariance(ctx) -> CheckResult:
    """Criterion 7: level and increment covariances within 5 SE, >= 99/100 seeds."""
    return ctx.protocol_results[0]


def check_compression_fields(ctx) -> CheckResult:
    """Criterion 8: level-0 component reproduces K; the rest reproduces the defects."""
    return ctx.protocol_results[1]


def _feeder_chain(ctx):
    """The feeder model and the Doob chain of its level-2 tower-diagonal gauge."""
    feeder = feeder_model()
    ftower = build_tower(feeder.kernel, feeder.branch, feeder.all_states(), 2, ctx.tol)
    h, positive = gauge_from_tower(ftower)
    return feeder, build_doob(h, feeder.branch, positive, ctx.tol)


def check_doob_cylinders(ctx) -> CheckResult:
    """Criterion 9: cylinder level sums are 1; uniform masses are exactly 2^-n."""
    model = _example_model()
    chain = build_doob(model.oracle_gauge, model.branch, [model.point("")], ctx.tol)
    table = cylinder_measure(chain, model.point(""), 12)
    exact = all(np.all(p == 2.0**-k) for k, p in enumerate(table.masses))
    consistent = max(float(np.max(np.abs(c.reshape(-1, 2).sum(axis=1) - p)))
                     for p, c in zip(table.masses, table.masses[1:]))
    ftable = cylinder_measure(_feeder_chain(ctx)[1], 2, 12)
    worst_sum = max(table.level_sum_error(), ftable.level_sum_error())

    passed = worst_sum <= CYLINDER_SUM_TOL and exact and consistent <= CYLINDER_SUM_TOL
    return CheckResult(
        "doob-cylinder-measures", 9, passed,
        f"max |level sum - 1| = {worst_sum:.3e} (tol {CYLINDER_SUM_TOL:g}); "
        f"uniform masses exact: {exact}",
        {"max_level_sum_error": worst_sum, "uniform_masses_exact": exact,
         "max_consistency_error": consistent},
    )


def check_intertwining(ctx) -> CheckResult:
    """Criterion 10: gauge intertwining and normalization commuting, n <= 5."""
    worst = 0.0

    model = _example_model()
    F = [model.point(x) for x in ("", "1", "2")]
    chain = build_doob(model.oracle_gauge, model.branch, F, ctx.tol)
    f = lambda s: 0.5 ** len(s)
    for n in range(6):
        res = intertwining_check(chain, f, model.point(""), n)
        worst = max(worst, res.one_step_residual, res.markov_residual)
        worst = max(worst, normalization_commutes(model.kernel, chain, F, n))

    feeder, fchain = _feeder_chain(ctx)
    g = lambda s: float(s) + 1.0
    for n in range(6):
        res = intertwining_check(fchain, g, 2, n)
        worst = max(worst, res.one_step_residual, res.markov_residual)
        worst = max(worst, normalization_commutes(feeder.kernel, fchain, fchain.domain, n))

    passed = worst <= INTERTWINING_TOL
    return CheckResult(
        "intertwining-normalization", 10, passed,
        f"max residual = {worst:.3e} (tol {INTERTWINING_TOL:g}) over n <= 5, two models",
        {"max_residual": worst, "tolerance": INTERTWINING_TOL},
    )


def check_boundary_gram(ctx) -> CheckResult:
    """Criterion 11: boundary feature Gram equals accumulated normalized defects."""
    model = _example_model()
    K, B = model.kernel, model.branch
    F = orbit_closure(B, [model.point("")], 1)
    tower = build_tower(K, B, F, 8, ctx.tol)
    chain = build_doob(model.oracle_gauge, B, F, ctx.tol)

    bg_half, bg_alt = boundary_feature_gram(
        K, tower, chain, [ProductCylinderWeights.bernoulli(0.5), ProductCylinderWeights.bernoulli(0.3)],
        8, ctx.tol)
    nu_shift = bg_half.nu_shift(bg_alt)

    h_vec = np.array([chain.h(s) for s in F])
    lhs = tower.levels[8] / np.outer(h_vec, h_vec)
    rhs = tower.levels[0] / np.outer(h_vec, h_vec) + bg_half.entries
    full_identity = float(np.max(np.abs(lhs - rhs)))

    passed = (bg_half.residual <= BOUNDARY_RESIDUAL_TOL and nu_shift <= NU_INVARIANCE_TOL
              and full_identity <= BOUNDARY_RESIDUAL_TOL)
    return CheckResult(
        "boundary-feature-gram", 11, passed,
        f"residual = {bg_half.residual:.3e} (tol {BOUNDARY_RESIDUAL_TOL:g}); "
        f"nu shift = {nu_shift:.3e} (tol {NU_INVARIANCE_TOL:g}); "
        f"full identity = {full_identity:.3e} (tol {BOUNDARY_RESIDUAL_TOL:g})",
        {"gram_residual": bg_half.residual, "nu_invariance": nu_shift,
         "full_identity_residual": full_identity},
    )


def check_determinism(ctx) -> CheckResult:
    """Criterion 12 (in-memory half): recomputation yields byte-identical reports.

    The full bundle-level determinism (verify run twice into two directories)
    is exercised by the CLI tests; here the summary JSON and a sampled CSV
    are produced twice from scratch and compared byte for byte.
    """
    def produce() -> bytes:
        model = _example_model()
        F = [model.point(x) for x in ("", "1")]
        tower = build_tower(model.kernel, model.branch, F, 4, ctx.tol)
        batch = TowerSampler(tower, ctx.seed, ctx.tol).sample(256)
        report = RunReport(
            command="determinism-probe",
            config_echo={"seed": ctx.seed},
            results={
                "levels": [lvl.tolist() for lvl in tower.levels],
                "sample_moments": (batch.values**2).mean(axis=0).tolist(),
            },
        )
        return report.summary_json().encode()

    first, second = produce(), produce()
    passed = first == second
    return CheckResult(
        "report-determinism", 12, passed,
        f"two independent productions identical: {passed} ({len(first)} bytes)",
        {"bytes": len(first)},
    )


CHECKS = [
    check_example25_oracle,
    check_word_expansion,
    check_telescoping,
    check_certified_tail_bound,
    check_layer_cake,
    check_blowup_classification,
    check_gaussian_covariance,
    check_compression_fields,
    check_doob_cylinders,
    check_intertwining,
    check_boundary_gram,
    check_determinism,
]


@dataclass
class VerifyContext:
    seed: int = 20250809
    nsamples: int = DEFAULT_NSAMPLES
    tol: float = DEFAULT_PSD_TOL
    ceiling: float = DEFAULT_CEILING

    @cached_property
    def protocol_results(self) -> tuple[CheckResult, CheckResult]:
        """Criteria 7 and 8, from one shared pass over the protocol seeds."""
        return _protocol_pass(self)


def run_checks(ctx: VerifyContext | None = None, progress=None) -> list[CheckResult]:
    ctx = ctx or VerifyContext()
    results = []
    for fn in CHECKS:
        t0 = time.perf_counter()
        result = fn(ctx)
        result.elapsed = time.perf_counter() - t0
        results.append(result)
        if progress is not None:
            progress(result)
    return results
