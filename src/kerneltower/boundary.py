"""Doob-transformed boundary machinery on the symbolic path space.

A positive harmonic gauge turns the branch counts into transition
probabilities p_i(s) = h(phi_i(s))/h(s), held as one Doob table row per
point read; cylinder masses extend them multiplicatively along reversed
compositions, the averaging operator Q is intertwined with the branch-sum
operator through the gauge, and the gauge-normalized kernel operator admits
a word expansion whose accumulated defects are realized as an explicit
boundary feature Gram.

Path convention: the chain applies the newest symbol's map to the current
point, s_{k+1} = phi_{w_{k+1}}(s_k), matching the reversed composition.
The walk reads :func:`points.word_levels`, the one word enumeration, in
reversed-word order.  All shipped identities are level sums, which are
convention independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, ModelError, NumericalError, ResourceError
from .kernels import DEFAULT_PSD_TOL, Kernel, gram, psd_check
from .points import (
    DEFAULT_WORD_CAP,
    BranchSystem,
    Point,
    Word,
    enumerate_words,
    point_label,
    symbol_weights_ok,
    word_levels,
)
from .rngs import make_rng
from .tower import Tower, defect_gram, tower_gram_iter

# The tolerances of verify criteria 9 to 11, echoed by the boundary command.
CYLINDER_SUM_TOL = 1e-12  # cylinder level sums and consistency
INTERTWINING_TOL = 1e-12  # intertwining and normalization residuals
BOUNDARY_RESIDUAL_TOL = 1e-10  # feature Gram against the tower
NU_INVARIANCE_TOL = 1e-12  # shift under another reference measure


class DoobChain:
    """Transition probabilities from a positive harmonic gauge.

    One table holds a row p_i(s) = h(phi_i s)/h(s) per point read so far.
    A point's row is built from the gauge the first time anything reads it,
    and checked then: the gauge must be positive at s and harmonic there.
    The constructor builds the domain's rows, so a bad gauge is refused
    before any walk.  A row may push mass onto gauge-zero points, which then
    carry zero cylinder mass.  ``harmonicity_residual`` is the worst
    relative residual over every row built.
    """

    def __init__(
        self,
        gauge: Callable[[Point], float],
        branch: BranchSystem,
        domain: Sequence[Point],
        tol: float = DEFAULT_PSD_TOL,
    ):
        self.branch = branch
        self.tol = tol
        self._gauge = gauge
        self.domain = tuple(domain)
        if not self.domain:
            raise InputError("Doob chain needs a nonempty domain")
        self.harmonicity_residual = 0.0
        self._index: dict[Point, int] = {}  # row of each point; the domain's rows come first
        self._table = np.empty((0, branch.m))
        self._add_rows(list(dict.fromkeys(self.domain)))
        self._domain_rows = len(self._index)

    def _add_rows(self, points: list) -> None:
        """Build, check and append the rows of ``points``, none of them in the table yet."""
        values: list[float] = []
        worst, worst_point = 0.0, None
        for s in points:
            hs = self._gauge(s)
            if not hs > 0.0:
                raise InputError(f"gauge not positive at {point_label(s)}: {hs!r}")
            images = [self._gauge(f(s)) for f in self.branch.maps]
            try:
                residual = abs(math.fsum(images) - hs) / hs
            except (OverflowError, ValueError):  # fsum of infinite or overflowing values
                residual = math.nan
            if not math.isfinite(residual):  # no comparison with tol would catch it
                raise ModelError(f"gauge not harmonic: relative residual {residual} at {point_label(s)}")
            if residual > worst:
                worst, worst_point = residual, s
            values += [hs, *images]
        if worst > self.tol:
            raise ModelError(
                f"gauge not harmonic: relative residual {worst:.3e} at "
                f"{point_label(worst_point)} exceeds {self.tol:.1e}"
            )
        self.harmonicity_residual = max(self.harmonicity_residual, worst)
        table = np.array(values).reshape(-1, self.branch.m + 1)
        rows = table[:, 1:] / table[:, :1]
        rows[np.any(table[:, 1:] < 0.0, axis=1)] = math.nan  # a negative image: refused when read
        n, k = len(self._index), len(points)
        if n + k > len(self._table):  # grow geometrically: amortized O(1) copies per row
            grown = np.empty((max(2 * len(self._table), n + k), self.branch.m))
            grown[:n] = self._table[:n]
            self._table = grown
        self._table[n:n + k] = rows
        self._index.update(zip(points, range(n, n + k)))

    def h(self, s: Point) -> float:
        v = self._gauge(s)
        if v < 0.0:
            raise InputError(f"gauge negative at {point_label(s)}: {v!r}")
        return v

    def in_domain(self, s: Point) -> bool:
        return self._index.get(s, self._domain_rows) < self._domain_rows

    def require_domain(self, s: Point) -> None:
        if not self.in_domain(s):
            raise InputError(f"point {point_label(s)} outside the Doob domain")

    def rows(self, points: Sequence[Point]) -> np.ndarray:
        """Rows [p_1(x), ..., p_m(x)] of ``points``, each built and checked when first read."""
        index = self._index
        at = [index.get(x, -1) for x in points]
        if -1 in at:
            self._add_rows(list(dict.fromkeys(x for x, i in zip(points, at) if i < 0)))
            at = [index[x] for x in points]
        rows = self._table[at]
        for j in np.flatnonzero(np.isnan(rows[:, 0])).tolist():
            for f in self.branch.maps:  # the gauge names the negative image
                self.h(f(points[j]))
        return rows

    def probs(self, s: Point) -> list[float]:
        """[p_1(s), ..., p_m(s)]; needs h(s) > 0."""
        return self.rows([s])[0].tolist()


def build_doob(
    gauge: Callable[[Point], float],
    branch: BranchSystem,
    domain: Sequence[Point],
    tol: float = DEFAULT_PSD_TOL,
) -> DoobChain:
    return DoobChain(gauge, branch, domain, tol)


def gauge_from_tower(tower: Tower) -> tuple[Callable[[Point], float], list[Point]]:
    """Surrogate gauge from the deepest computed diagonal.

    Returns the level-N diagonal as a function on the tower base, plus the
    sub-list of base points where it is positive.  Its harmonicity residual
    is bounded by the remaining diagonal tail, which the caller should
    budget via a tail certificate.
    """
    diag = {s: float(tower.levels[-1][a, a]) for a, s in enumerate(tower.points)}

    def h(s):
        try:
            return diag[s]
        except KeyError:
            raise InputError(
                f"surrogate gauge not computed at {point_label(s)}; widen the tower base"
            ) from None

    positive = [s for s in tower.points if diag[s] > 0.0]
    return h, positive


@dataclass
class CylinderTable:
    """Cylinder masses p_w(s) for all words up to a horizon.

    ``masses[k]`` holds the masses of the m^k words of length k, in word order.
    """

    horizon: int
    m: int
    masses: list[np.ndarray]

    @cached_property
    def table(self) -> dict[Word, float]:
        """{word: mass}, level by level in word order."""
        return {w: p for k, level in enumerate(self.masses)
                for w, p in zip(enumerate_words(self.m, k), level.tolist())}

    def mass(self, w: Word) -> float:
        try:
            return self.table[tuple(w)]
        except KeyError:
            raise InputError(f"word {w} beyond the table horizon {self.horizon}") from None

    def level_sum(self, k: int) -> float:
        return math.fsum(self.masses[k].tolist())

    def level_sum_error(self) -> float:
        """max |level sum - 1| over levels 0..horizon: the gauge's harmonicity defect."""
        return max(abs(self.level_sum(k) - 1.0) for k in range(self.horizon + 1))


def sorted_words(m: int, n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The words of length <= n as digit strings in sorted order, each before its extensions,
    and the permutation that takes masses concatenated level by level to it."""
    below = np.cumsum([m**d for d in range(n + 1)])  # below[d]: words of length <= d
    labels, rank = [""], np.zeros(1, dtype=np.int64)
    words, order = np.empty(below[-1], dtype=object), np.empty(below[-1], dtype=np.int64)
    for k in range(n + 1):
        if k:  # child i of the word ranked r is ranked r + 1 + i * below[n - k]
            labels = [w + str(i) for w in labels for i in range(1, m + 1)]
            rank = (rank[:, None] + 1 + np.arange(m) * below[n - k]).ravel()
        words[rank], order[rank] = labels, np.arange(below[k] - len(rank), below[k])
    return tuple(words.tolist()), order


def _live(index: np.ndarray, mass: np.ndarray) -> list[int]:
    """Distinct entries of ``index`` at words of nonzero mass, in order of first appearance."""
    live = index[mass != 0.0]
    _, first = np.unique(live, return_index=True)
    return live[np.sort(first)].tolist()


def _walk_levels(chain: DoobChain, s: Point, n: int, cap: int) -> list:
    """Levels 0..n of the Doob walk from s, each as (points, index, mass).

    The :func:`points.word_levels` index permuted over its word digits, so word
    j's children are words j*m .. j*m + m - 1; a child's mass is its parent's
    times the parent point's Doob table row, read where the mass is positive.
    """
    m = chain.branch.m
    levels = [(pts, index.reshape((m,) * k).T.ravel())
              for k, (pts, index) in enumerate(word_levels(chain.branch, s, n, cap))]
    masses = [np.ones(1)]
    for pts, idx in levels[:-1]:
        live = _live(idx, masses[-1])
        rows = np.zeros((len(pts), m))
        rows[live] = chain.rows([pts[j] for j in live])
        masses.append((masses[-1][:, None] * rows[idx]).ravel())
    return [(pts, idx, mass) for (pts, idx), mass in zip(levels, masses)]


def cylinder_measure(
    chain: DoobChain, s: Point, n: int, cap: int = DEFAULT_WORD_CAP
) -> CylinderTable:
    """All cylinder masses at anchor s down to word length n.

    Masses extend multiplicatively, p_{w i}(s) = p_w(s) * p_i(point at w),
    and equal h(reversed composition at w)/h(s); level sums are 1 up to the
    gauge's harmonicity residual.
    """
    chain.require_domain(s)
    masses = [mass for _pts, _idx, mass in _walk_levels(chain, s, n, cap)]
    return CylinderTable(horizon=n, m=chain.branch.m, masses=masses)


@dataclass
class PathSample:
    word: Word
    points: list[Point]


def sample_path(chain: DoobChain, s: Point, n: int, seed: int) -> PathSample:
    """Draw one length-n chain path starting at s (seeded, reproducible)."""
    chain.require_domain(s)
    rng = make_rng(seed)
    word: list[int] = []
    points = [s]
    x = s
    for _ in range(n):
        probs = chain.probs(x)
        u = float(rng.random())
        acc = 0.0
        chosen = None
        for i, p in enumerate(probs, start=1):
            acc += p
            if u < acc and p > 0.0:
                chosen = i
                break
        if chosen is None:  # roundoff at the top end: last branch with mass
            chosen = max(i for i, p in enumerate(probs, start=1) if p > 0.0)
        word.append(chosen)
        x = chain.branch.apply(chosen, x)
        points.append(x)
    return PathSample(word=tuple(word), points=points)


def apply_Q(chain: DoobChain, f: Callable[[Point], float], s: Point) -> float:
    """(Qf)(s) = sum_i p_i(s) f(phi_i(s)): the chain's one-step average.

    Zero-probability branches (gauge-zero targets) are skipped, so f need
    only be defined where the chain can actually go.
    """
    return iterate_Q(chain, f, s, 1)


def iterate_Q(chain: DoobChain, f: Callable[[Point], float], s: Point, n: int) -> float:
    """(Q^n f)(s) by memoized recursion over the branch tree."""
    if n < 0:
        raise InputError("word length must be nonnegative")
    maps = chain.branch.maps
    memo: dict = {}

    def q(k, x):
        if k == 0:
            return f(x)
        key = (k, x)
        v = memo.get(key)
        if v is None:
            v = memo[key] = math.fsum(
                p * q(k - 1, g(x)) for p, g in zip(chain.probs(x), maps) if p != 0.0
            )
        return v

    chain.require_domain(s)
    return q(n, s)


@dataclass
class IntertwiningResult:
    one_step_residual: float
    markov_residual: float


def intertwining_check(
    chain: DoobChain,
    f: Callable[[Point], float],
    s: Point,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> IntertwiningResult:
    """Residuals of the gauge intertwining and of the cylinder expectation.

    One step: branch sum of (gauge * f) against gauge times the chain
    average.  n steps: the iterated chain average against the exact finite
    sum over level-n cylinders.
    """
    chain.require_domain(s)
    p_hf = math.fsum(chain.h(g(s)) * f(g(s)) for g in chain.branch.maps)
    r1 = abs(p_hf - chain.h(s) * apply_Q(chain, f, s))

    qn = iterate_Q(chain, f, s, n)
    pts, idx, mass = _walk_levels(chain, s, n, cap)[-1]
    fx = np.array([f(x) for x in pts], dtype=float)
    expectation = math.fsum((mass * fx[idx]).tolist())
    r2 = abs(qn - expectation)
    return IntertwiningResult(one_step_residual=r1, markov_residual=r2)


def h_normalize(J: Kernel, gauge: Callable[[Point], float]) -> Kernel:
    """J(s,t) / (h(s) h(t)); gauge zeros raise a domain error with the point."""

    def fn(s, t):
        hs, ht = gauge(s), gauge(t)
        if hs == 0.0 or ht == 0.0:
            bad = s if hs == 0.0 else t
            raise InputError(f"h-normalization at gauge zero {point_label(bad)}")
        return J(s, t) / (hs * ht)

    return Kernel(fn, name=f"{J.name}^(h)")


def apply_L_tilde(G: Kernel, chain: DoobChain) -> Kernel:
    """Normalized branching: sum_i p_i(s) p_i(t) G(phi_i(s), phi_i(t)).

    Branches with zero probability in either argument are skipped (their
    weight vanishes and G may be undefined at gauge-zero points).  Each
    unordered pair is summed once, so iterating n times on a finite-state
    chain costs polynomially in n.
    """
    maps = chain.branch.maps
    memo: dict = {}

    def fn(s, t):
        v = memo.get((s, t))
        if v is None:
            v = memo[(s, t)] = memo[(t, s)] = math.fsum(
                a * b * G(g(s), g(t))
                for a, b, g in zip(chain.probs(s), chain.probs(t), maps)
                if a != 0.0 and b != 0.0
            )
        return v

    return Kernel(fn, name=f"Lt[{G.name}]")


def normalization_commutes(
    J: Kernel,
    chain: DoobChain,
    points: Sequence[Point],
    n: int,
) -> float:
    """max over pairs of |(L^n J)^(h) - Ltilde^n (J^(h))|.

    The left side is level n of the tower core, :func:`tower.tower_gram_iter`,
    over the gauge at both points; the right side iterates
    :func:`apply_L_tilde` n times on :func:`h_normalize` of J, reading the
    Doob rows and the scalar kernel.  The two routes must agree:
    normalizing after n branch steps equals n normalized steps after
    normalizing.
    """
    if n < 0:
        raise InputError("word length must be nonnegative")
    pts = list(points)
    for s in pts:
        chain.require_domain(s)
    h = np.array([chain.h(s) for s in pts])
    lhs = next(itertools.islice(tower_gram_iter(J, chain.branch, pts), n, None)) / np.outer(h, h)
    rhs = h_normalize(J, chain.h)
    for _ in range(n):
        rhs = apply_L_tilde(rhs, chain)
    return float(np.max(np.abs(lhs - gram(rhs, pts).entries)))


def tilde_word_expansion(
    G: Kernel,
    chain: DoobChain,
    s: Point,
    t: Point,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Level-n word sum: sum over |w|=n of p_w(s) p_w(t) G at the reversed orbits."""
    chain.require_domain(s)
    chain.require_domain(t)
    pts_s, idx_s, mass_s = _walk_levels(chain, s, n, cap)[-1]
    pts_t, idx_t, mass_t = _walk_levels(chain, t, n, cap)[-1]
    return math.fsum(
        ps * pt * G(pts_s[i], pts_t[j])
        for i, j, ps, pt in zip(idx_s.tolist(), idx_t.tolist(), mass_s.tolist(), mass_t.tolist())
        if ps != 0.0 and pt != 0.0
    )


class ProductCylinderWeights:
    """Product reference measure on the path space: mass of [w] = prod q_{w_k}.

    Every cylinder must carry positive mass; the single-symbol weights must
    sum to one so the level masses are probabilities.
    """

    def __init__(self, symbol_weights: Sequence[float]):
        q = [float(x) for x in symbol_weights]
        if not symbol_weights_ok(q):
            raise InputError("cylinder weights must be strictly positive" if any(x <= 0.0 for x in q)
                             else "cylinder symbol weights must sum to 1")
        self.symbol_weights = tuple(q)

    @classmethod
    def bernoulli(cls, p: float) -> "ProductCylinderWeights":
        return cls([p, 1.0 - p])

    def masses(self, n: int) -> np.ndarray:
        """Masses of the m^n length-n words in word order, each multiplied left to right."""
        q = np.array(self.symbol_weights)
        out = np.ones(1)
        for _ in range(n):
            out = (out[:, None] * q).ravel()
        return out

    def describe(self) -> str:
        return "product(" + ", ".join(repr(x) for x in self.symbol_weights) + ")"


def _boundary_sections(K, base, chain, N, tol, cap) -> tuple[list, dict, np.ndarray]:
    """The measure-free part of a boundary feature Gram: the Doob walks of ``base``
    down to level N - 1, the index of each point they reach with positive mass,
    and the Gram of those points' sections, by the reproducing property the
    normalized defect (LK - K)/(h x h), PSD-checked and not factored.  LK - K
    is :func:`tower.defect_gram`: for m = 2 the scalar ``fsum`` over the maps,
    otherwise within m * 2^-53 * (L|K|)(s, t) of it."""
    # One synchronized walk per base point; word order is shared across them.
    walks = [_walk_levels(chain, s, N - 1, cap) for s in base]

    # Sections are only needed on cylinders with mass; zero-mass fibers
    # vanish and may sit at gauge zeros where the normalized defect is
    # undefined.
    section_points: dict[Point, None] = {}
    for walk in walks:
        for pts, idx, mass in walk:
            section_points.update((pts[j], None) for j in _live(idx, mass))
    section_list = list(section_points)
    pairs = len(section_list) * (len(section_list) + 1) // 2 * chain.branch.m
    if pairs > cap:
        raise ResourceError(f"boundary section Gram: {len(section_list)} section points give {pairs} "
                            f"level-1 pairs, over the cap of {cap}; lower config boundary.feature_levels")
    h = np.array([chain.h(x) for x in section_list])
    if not np.all(h):  # h >= 0, so its first minimum is the first gauge zero
        raise InputError(f"h-normalization at gauge zero {point_label(section_list[np.argmin(h)])}")
    defect_h = defect_gram(K, chain.branch, section_list, cap) / np.outer(h, h)
    if not np.all(np.isfinite(defect_h)):
        raise NumericalError("boundary section Gram has non-finite entries")
    report = psd_check(defect_h, tol)
    if not report.psd:
        raise NumericalError(f"boundary section Gram is not PSD ({report.summary()})")
    return walks, {x: i for i, x in enumerate(section_list)}, defect_h


@dataclass
class BoundaryGram:
    """Boundary feature Gram and its residual against the tower reference."""

    points: tuple
    entries: np.ndarray
    reference: np.ndarray
    levels: int

    @property
    def residual(self) -> float:
        return float(np.max(np.abs(self.entries - self.reference)))

    def nu_shift(self, other: "BoundaryGram") -> float:
        """max |entries - other.entries|: the move under another reference measure."""
        return float(np.max(np.abs(self.entries - other.entries)))


def boundary_feature_gram(
    K: Kernel,
    tower: Tower,
    chain: DoobChain,
    measures: Sequence[ProductCylinderWeights],
    N: int,
    tol: float = DEFAULT_PSD_TOL,
    cap: int = DEFAULT_WORD_CAP,
) -> list[BoundaryGram]:
    """Truncated boundary feature Grams of the accumulated normalized defects, one per measure.

    Fibers at (level n, word w) are the cylinder-weighted sections of the
    normalized one-step defect at the reversed orbit points; their Gram is
    compared against the tower's accumulated normalized defects.  The
    reference measure enters each fiber as 1/sqrt(mass) and the level Gram
    as mass, so it cancels by construction (each coefficient is computed as
    root * (p / root) with root = sqrt(mass)): a change of reference
    measure moves the Gram by rounding only.  The walks, the section Gram
    and the reference are built once; the Grams follow ``measures`` in order.
    """
    if N < 1:
        raise InputError("boundary feature Gram needs at least one level")
    if tower.horizon < N:
        raise InputError(f"tower horizon {tower.horizon} below requested N={N}")
    m = chain.branch.m
    for nu in measures:
        if len(nu.symbol_weights) != m:
            raise InputError(f"reference measure has {len(nu.symbol_weights)} symbol weights, not m = {m}")
    base = tower.points
    for s in base:
        chain.require_domain(s)
    walks, section_index, section_gram = _boundary_sections(K, base, chain, N, tol, cap)

    # Per level, base point (rows) and word (columns): cylinder mass and section index.
    P = [np.array([walk[n][2] for walk in walks]) for n in range(N)]
    S = [np.array([np.array([section_index.get(x, 0) for x in walk[n][0]])[walk[n][1]]
                   for walk in walks]) for n in range(N)]
    h_vec = np.array([chain.h(s) for s in base])
    reference = (tower.levels[N] - tower.levels[0]) / np.outer(h_vec, h_vec)

    grams = []
    for nu in measures:
        entries = np.zeros((len(base), len(base)))
        for n in range(N):
            mass = nu.masses(n)
            if not np.all(mass):  # masses are >= 0, so the first minimum is the first zero
                word = tuple(int(d) + 1 for d in np.unravel_index(np.argmin(mass), (m,) * n))
                raise InputError(f"reference measure vanishes on cylinder {word}")
            root = np.sqrt(mass)
            coef = root * (P[n] / root)
            for j in np.flatnonzero(np.any(coef != 0.0, axis=0)).tolist():
                idx = S[n][:, j]
                entries += np.outer(coef[:, j], coef[:, j]) * section_gram[np.ix_(idx, idx)]
        grams.append(BoundaryGram(points=base, entries=entries, reference=reference, levels=N))
    return grams
