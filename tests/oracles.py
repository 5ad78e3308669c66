"""Naive reference implementations used as independent test oracles.

Everything here is deliberately brute force (plain recursion, flat
enumeration, no memoization, no multiplicity bookkeeping) so that
agreement with the library is evidence, not tautology.  At the end are
the faults that show the acceptance harness discriminates.
"""

import math
from collections import Counter

import numpy as np

from kerneltower import (
    InputError,
    Kernel,
    ResourceError,
    TowerSampler,
    WordTreeModel,
    build_tower,
    gram,
    h_normalize,
    limit_fields,
    martingale_checks,
    psd_check,
    verify,
)
from kerneltower.gaussian import PASS_SIGMA, sample_covariance
from kerneltower.points import check_word_cap, point_label


def all_words(m, n):
    """All length-n words over 1..m by plain recursion, lexicographic."""
    if n == 0:
        return [()]
    return [w + (i,) for w in all_words(m, n - 1) for i in range(1, m + 1)]


def apply_P(u, branch):
    """The diagonal operator on functions: (Pu)(s) = sum_i u(phi_i(s))."""
    return lambda s: math.fsum(u(f(s)) for f in branch.maps)


def word_forward(maps, w, s):
    """phi_w(s) applying the last symbol first."""
    for i in reversed(w):
        s = maps[i - 1](s)
    return s


def word_reversed(maps, w, s):
    for i in w:
        s = maps[i - 1](s)
    return s


def apply_L(J, branch):
    """The branching operator (LJ)(s, t) = fsum of J(phi_i s, phi_i t) over the maps, lazy and unmemoized."""
    maps = branch.maps
    return Kernel(lambda s, t: math.fsum(J(f(s), f(t)) for f in maps), name=f"L[{J.name}]")


def apply_L_power(J, branch, n):
    """L^n J as n nested :func:`apply_L`: m^n calls of J per entry."""
    for _ in range(n):
        J = apply_L(J, branch)
    return J


def iterated_branch_sum(K, maps, s, t, n):
    """(L^n K)(s, t) by direct recursion, no sharing."""
    if n == 0:
        return K(s, t)
    return math.fsum(
        iterated_branch_sum(K, maps, f(s), f(t), n - 1) for f in maps
    )


def word_sum(K, maps, s, t, n):
    """(L^n K)(s, t) as a flat sum over words."""
    m = len(maps)
    return math.fsum(
        K(word_forward(maps, w, s), word_forward(maps, w, t))
        for w in all_words(m, n)
    )


def diagonal_word_sum(K, maps, s, n):
    m = len(maps)
    return math.fsum(
        K(word_forward(maps, w, s), word_forward(maps, w, s))
        for w in all_words(m, n)
    )


def reference_orbit_closure(branch, base, depth, cap=2**24):
    """All points phi_w(s), s in base, |w| <= depth, by a dict walk.

    Each frontier point's images under the maps in turn, new points in the
    order first reached; it stops after a level that reaches no new point,
    and the map application past ``cap`` is refused.
    """
    if depth < 0:
        raise InputError("orbit depth must be nonnegative")
    seen = dict.fromkeys(base)
    frontier = list(seen)
    budget = cap
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for f in branch.maps:
                budget -= 1
                if budget < 0:
                    raise ResourceError(f"orbit closure exceeded the cap of {cap} map applications")
                t = f(s)
                if t not in seen:
                    seen[t] = None
                    nxt.append(t)
        if not nxt:
            break
        frontier = nxt
    return list(seen)


def _canon_pair(x, y):
    if x == y:
        return (x, y)
    try:
        return (x, y) if x <= y else (y, x)
    except TypeError:
        return (x, y)


def reference_tower_gram_iter(K, branch, points, pair_cap=2**24):
    """Exactly rounded level Grams from one Counter of descendant pairs per base pair.

    Every pair is mapped through every map and re-ordered in Python, each
    level's distinct pairs are evaluated once with the scalar kernel, and
    each entry is the ``math.fsum`` of its count * value terms.  The layered
    core's nested sums are checked against it at their rounding bound.
    ``pair_cap`` bounds the pairs summed over the base pairs.
    """
    pts = tuple(points)
    n = len(pts)
    if n == 0:
        raise InputError("tower needs a nonempty base point list")
    maps = branch.maps
    evaluate = K.raw() if isinstance(K, Kernel) else K
    index_pairs = [(a, b) for a in range(n) for b in range(a, n)]
    orbits = [Counter({_canon_pair(pts[a], pts[b]): 1}) for (a, b) in index_pairs]
    while True:
        cache = {}
        G = np.empty((n, n), dtype=float)
        for (a, b), orbit in zip(index_pairs, orbits):
            terms = []
            for pair, cnt in orbit.items():
                v = cache.get(pair)
                if v is None:
                    v = evaluate(pair[0], pair[1])
                    cache[pair] = v
                terms.append(cnt * v)
            G[a, b] = G[b, a] = math.fsum(terms)
        yield G
        size = 0
        new_orbits = []
        for orbit in orbits:
            nxt = Counter()
            for (x, y), cnt in orbit.items():
                for f in maps:
                    nxt[_canon_pair(f(x), f(y))] += cnt
            size += len(nxt)
            if size > pair_cap:
                raise ResourceError(
                    f"tower pair orbit exceeded the cap of {pair_cap} pairs; "
                    "reduce the horizon or supply a tail certificate"
                )
            new_orbits.append(nxt)
        orbits = new_orbits


def reference_sample(factors, seed, nsamples):
    """Level fields values[j, n, a] by one strided product per level and a cumsum.

    Draws the same Philox 4x64-10 stream as the library, directly from numpy.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    g = rng.standard_normal((nsamples, len(factors), factors[0].shape[0]))
    contribs = np.empty_like(g)
    for k, F in enumerate(factors):
        contribs[:, k, :] = g[:, k, :] @ F.T
    return np.cumsum(contribs, axis=1)


def _z(delta, se):
    z = np.zeros_like(delta)
    mask = se > 0
    z[mask] = np.abs(delta[mask]) / se[mask]
    z[(~mask) & (np.abs(delta) > 0)] = np.inf
    return z


def reference_martingale_z(values, defects):
    """(mean z, cross z, per-level quadratic-variation z) pair by pair.

    Every pair of increment levels forms its (n, P, P) product array; the
    quadratic-variation standard error is the Gaussian plug-in formula.
    """
    n, L, _ = values.shape
    incs = [values[:, k + 1, :] - values[:, k, :] for k in range(L - 1)]
    mean_z = max(
        float(np.max(_z(inc.mean(axis=0), inc.std(axis=0) / math.sqrt(n)))) for inc in incs
    )
    cross_z = 0.0
    for a in range(len(incs)):
        for b in range(a + 1, len(incs)):
            prod = incs[a][:, :, None] * incs[b][:, None, :]
            z = _z(prod.mean(axis=0), prod.std(axis=0) / math.sqrt(n))
            cross_z = max(cross_z, float(np.max(z)))
    qv_z = []
    for inc, D in zip(incs, defects):
        cov = inc.T @ inc / n
        var = np.einsum("ja,ja->a", inc, inc) / n
        se = np.sqrt(np.maximum(np.outer(var, var) + cov**2, 0.0) / n)
        qv_z.append(float(np.max(_z(cov - D, se))))
    return mean_z, cross_z, qv_z


# --- the list-walking word routes the indexed word levels replaced -----------

def reference_orbit_points_by_level(branch, s, n):
    """Level k lists phi_w(s) for every |w| = k, in word order, one Python point per word."""
    levels = [[s]]
    for _ in range(n):
        prev = levels[-1]
        levels.append([f(p) for f in branch.maps for p in prev])
    return levels


def reference_level_via_words(K, branch, points, n):
    """Level-n Gram: the scalar kernel on every word's synchronous pair, fsum per entry."""
    pts = tuple(points)
    evaluate = K.raw() if isinstance(K, Kernel) else K
    level_of = {s: reference_orbit_points_by_level(branch, s, n)[n] for s in set(pts)}
    r = len(pts)
    G = np.empty((r, r), dtype=float)
    for a in range(r):
        for b in range(a, r):
            G[a, b] = G[b, a] = math.fsum(map(evaluate, level_of[pts[a]], level_of[pts[b]]))
    return G


def reference_diagonal_word_sums(K, branch, s, horizon):
    """u_n(s) for n <= horizon as the fsum of K(x, x) over every word's point."""
    return [
        math.fsum(K(x, x) for x in level)
        for level in reference_orbit_points_by_level(branch, s, horizon)
    ]


def reference_layer_cake(K, branch, s, n):
    """(integral, word_sum) of the layer-cake identity by a loop over the sorted values."""
    values = sorted(K(x, x) for x in reference_orbit_points_by_level(branch, s, n)[n])
    total = len(values)
    terms = []
    prev = 0.0
    for i, v in enumerate(values):
        if v > prev:
            terms.append((v - prev) * (total - i))
            prev = v
    return math.fsum(terms), math.fsum(values)


def reference_level_set_count(K, branch, s, n, theta):
    level = reference_orbit_points_by_level(branch, s, n)[n]
    return sum(1 for x in level if K(x, x) >= theta)


def reference_blowup_counts(K, branch, s, region, epsilon, levels):
    by_level = reference_orbit_points_by_level(branch, s, max(levels))
    return [
        sum(1 for x in by_level[n] if region(x) and K(x, x) >= epsilon)
        for n in sorted(levels)
    ]


def reference_check_gaussian_covariance(ctx):
    """Criterion 7 as its own loop: one sampler and one draw per protocol seed."""
    model = WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0)
    F = [model.point(x) for x in ("", "1", "2")]
    tower = build_tower(model.kernel, model.branch, F, 3, ctx.tol)
    passes = 0
    worst_z = 0.0
    for seed in [ctx.seed + k for k in range(verify.PROTOCOL_SEEDS)]:
        batch = TowerSampler(tower, seed, ctx.tol).sample(ctx.nsamples)
        if seed == ctx.seed:
            base_batch = batch
        ok = True
        cov, se = sample_covariance(batch.level(3))
        z = np.abs(cov - tower.levels[3]) / se
        worst_z = max(worst_z, float(np.max(z)))
        ok &= bool(np.max(z) <= PASS_SIGMA)
        for n in range(3):
            cov, se = sample_covariance(batch.increment(n))
            mask = se > 0
            z = np.zeros_like(cov)
            z[mask] = np.abs(cov - tower.defects[n])[mask] / se[mask]
            ok &= bool(np.max(z) <= PASS_SIGMA)
        passes += ok
    mart = martingale_checks(base_batch, tower)
    passed = passes >= verify.PROTOCOL_MIN_PASS and mart.passed
    return passed, {"seed_passes": passes, "martingale_max_z": mart.max_qv_z,
                    "worst_level_z": worst_z}


def reference_check_compression_fields(ctx):
    """Criterion 8 as its own loop: one sampler and one draw per protocol seed."""
    model = WordTreeModel(m=2, r=0.5, c=0.5, eta=1.0)
    F = [model.point(x) for x in ("", "1", "2")]
    N = 12
    tower = build_tower(model.kernel, model.branch, F, N, ctx.tol)
    target_Y = tower.levels[0]
    target_D = tower.levels[N] - tower.levels[0]
    passes = 0
    for seed in [ctx.seed + k for k in range(verify.PROTOCOL_SEEDS)]:
        fields = limit_fields(TowerSampler(tower, seed, ctx.tol), ctx.nsamples)
        if seed == ctx.seed:
            base_fields = fields
        ok = True
        cov, se = sample_covariance(fields.Y)
        ok &= bool(np.max(np.abs(cov - target_Y) / se) <= PASS_SIGMA)
        cov, se = sample_covariance(fields.Z - fields.Y)
        mask = se > 0
        z = np.zeros_like(cov)
        z[mask] = np.abs(cov - target_D)[mask] / se[mask]
        ok &= bool(np.max(z) <= PASS_SIGMA)
        passes += ok
    covZ, _ = sample_covariance(base_fields.Z)
    covY, _ = sample_covariance(base_fields.Y)
    covD, _ = sample_covariance(base_fields.Z - base_fields.Y)
    spot = (
        abs(covZ[0, 0] - 2.0) <= 0.05
        and abs(covY[0, 0] - 1.5) <= 0.04
        and abs(covD[0, 0] - 0.5) <= 0.05
    )
    passed = passes >= verify.PROTOCOL_MIN_PASS and spot
    return passed, {"seed_passes": passes, "covZ_root": float(covZ[0, 0]),
                    "covY_root": float(covY[0, 0]), "covD_root": float(covD[0, 0])}


def word_tree_closed_form(m, r, c, eta):
    """The word-tree kernel and its parts written out from the closed form
    K(u, v) = eta m^-(|u|+|v|)/2 + [u = v] m^-|u| (1 - c r^|u|).

    Each power is a Python float power of the rounded base 1/m, m^-1/2 or r,
    as the model defines its building blocks, so a match is bit for bit.
    """
    inv_m, inv_sqrt_m = 1.0 / m, m ** -0.5
    j0 = lambda u, v: inv_m ** len(u) if u == v else 0.0
    j1 = lambda u, v: inv_sqrt_m ** (len(u) + len(v))
    e = lambda u, v: c * r ** len(u) * inv_m ** len(u) if u == v else 0.0
    kernel = lambda u, v: eta * j1(u, v) + (inv_m ** len(u) * (1.0 - c * r ** len(u)) if u == v else 0.0)
    return {"kernel": kernel, "J0": j0, "J1": j1, "E": e,
            "J": lambda u, v: j0(u, v) + eta * j1(u, v),
            "gauge": lambda s: (1.0 + eta) * inv_m ** len(s)}


def reference_defect_kernel(K, branch):
    """The one-step defect LK - K as a composed scalar kernel over :func:`apply_L`."""
    LK = apply_L(K, branch)
    return Kernel(lambda s, t: LK(s, t) - K(s, t), name=f"defect[{K.name}]")


def reference_invariance_residual(estimate, branch, points):
    """max |(L K_inf_est)(s, t) - K_inf_est(s, t)| over pairs of ``points``, fsum over the maps.

    The scalar loop over the estimate's entries; the estimate must cover
    the one-step images of ``points``.
    """
    est_index = {s: i for i, s in enumerate(estimate.points)}
    G = estimate.entries
    pts = list(points)
    worst = 0.0
    for a, s in enumerate(pts):
        for t in pts[a:]:
            ls = math.fsum(G[est_index[f(s)], est_index[f(t)]] for f in branch.maps)
            worst = max(worst, abs(ls - G[est_index[s], est_index[t]]))
    return worst


def reference_subinvariance_check(K, branch, points, tol=1e-9):
    return psd_check(gram(reference_defect_kernel(K, branch), points), tol)


def reference_walk_levels(chain, s, n, cap=2**24):
    """Yield per level the list of (word, point, mass) in word-lexicographic order.

    The word-by-word Doob walk the indexed walk replaced: every word carries
    its own point, and the gauge is read again at every word of positive mass.
    """
    check_word_cap(chain.branch.m, n, cap)
    level = [((), s, 1.0)]
    yield level
    maps = chain.branch.maps
    for _ in range(n):
        nxt = []
        for w, x, p in level:
            if p == 0.0:
                children = [0.0] * len(maps)
            else:
                hx = chain.h(x)
                children = (
                    [chain.h(f(x)) / hx for f in maps] if hx > 0.0 else [0.0] * len(maps)
                )
            for i, f in enumerate(maps, start=1):
                nxt.append((w + (i,), f(x), p * children[i - 1]))
        level = nxt
        yield level


def reference_iterate_Q(chain, f, s, n):
    """(Q^n f)(s) by memoized recursion, reading p_i(x) = h(phi_i x)/h(x) from the gauge.

    The scalar route the Doob table replaced: every step reads the gauge at
    the point and at its images.
    """
    maps = chain.branch.maps
    memo = {}

    def q(k, x):
        if k == 0:
            return f(x)
        key = (k, x)
        v = memo.get(key)
        if v is None:
            hx = chain.h(x)
            if hx == 0.0:
                raise InputError(f"chain left the gauge-positive region at {point_label(x)}")
            terms = []
            for g in maps:
                y = g(x)
                hy = chain.h(y)
                if hy != 0.0:  # zero-probability branches contribute nothing
                    terms.append(hy / hx * q(k - 1, y))
            v = math.fsum(terms)
            memo[key] = v
        return v

    chain.require_domain(s)
    return q(n, s)


def reference_section_points(chain, base, N):
    """Points the walks of ``base`` reach with positive mass down to level N - 1, first-reached order."""
    points = {}
    for s in base:
        for level in reference_walk_levels(chain, s, N - 1):
            for _w, x, p in level:
                if p != 0.0:
                    points.setdefault(x, None)
    return list(points)


def reference_section_gram(K, chain, points):
    """Section Gram through three scalar kernel layers: the normalized defect itself."""
    return gram(h_normalize(reference_defect_kernel(K, chain.branch), chain.h), points).entries


# Faults the acceptance harness must catch.  Each patches the ``build_tower``
# a module reads, so that the first tower of a given horizon it builds is
# changed in place after its own checks; every other tower is left alone.

def _perturb_first_tower(monkeypatch, module, horizon, edit):
    build, edited = module.build_tower, []

    def perturbed(K, branch, points, N, *args, **kwargs):
        tower = build(K, branch, points, N, *args, **kwargs)
        if N == horizon and not edited:
            edit(tower)
            edited.append(tower)
        return tower

    monkeypatch.setattr(module, "build_tower", perturbed)


def break_telescoping(monkeypatch):
    """Criterion 3's first N = 10 tower (the example word tree) gains 1e-3 at
    the root of defect 5: its telescoping residual reads 5.001e-04."""
    def edit(tower):
        tower.defects[5][0, 0] += 1e-3

    _perturb_first_tower(monkeypatch, verify, 10, edit)


def shift_level3_target(monkeypatch, *modules):
    """The N = 3 tower of criterion 7 in each module gains 1.0 at every entry
    of level 3, the covariance target; the sampled defects do not move."""
    def edit(tower):
        tower.levels[3] += 1.0

    for module in modules:
        _perturb_first_tower(monkeypatch, module, 3, edit)
