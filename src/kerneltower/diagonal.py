"""Diagonal dynamics: branch sums, finiteness classification, tail bounds.

The diagonal of the kernel tower evolves under the induced branching
operator on functions, (Pu)(s) = sum_i u(phi_i(s)), so growth questions
reduce to combinatorics of the rooted branch tree.  This module computes
diagonal traces two independent ways, verifies Lyapunov certificates,
searches for branch-counting blow-up witnesses, and evaluates layer-cake
identities and tail bounds.

The word routes (layer-cake identities, whose word sums are the second
route of ``diagonal_trace``, level-set counts and blow-up witnesses)
enumerate every length-n word in word order through
:func:`points.word_levels` and evaluate the scalar kernel once per
distinct point of a level (points that compare equal are one point).  The
word sums of levels 0..n weight each point's value by its number of words
(``np.bincount`` of the level's index) in one :func:`points.fsum_rows`
product, exactly rounded, so each equals the ``math.fsum`` over all m^n
per-word values bit for bit.

A finite trace can only ever classify heuristically; rigorous statements
come from verified certificates (decay) or counting witnesses (blow-up).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, InputError, NumericalError
from .kernels import Kernel
from .points import (DEFAULT_WORD_CAP, BranchSystem, Point, check_word_levels, fsum_rows,
                     point_label, word_levels, word_overflow)
from .tower import (DEFAULT_CEILING, TailCertificate, Tower, extrapolated_tail_bound,
                    tower_gram_iter, trace_stall_eps)

CONVERGING = "converging"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

# Increment-ratio thresholds for the finite-horizon verdict heuristic.
_RATIO_CONVERGING = 1.0 - 1e-6
_RATIO_WINDOW = 3


def classify_sequence(values: Sequence[float], eps: float, ceiling: float) -> str:
    """Finite-horizon verdict for a nondecreasing diagonal sequence.

    Ceiling breach is always diverging.  Otherwise: a final increment below
    eps is converging; failing that, a window of strictly decaying increment
    ratios is converging and a window of nondecreasing increments is
    diverging; mixed behavior stays inconclusive.
    """
    values = list(values)
    if any(v > ceiling for v in values):
        return DIVERGING
    if len(values) < 2:
        return INCONCLUSIVE
    incs = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    if incs[-1] <= eps:
        return CONVERGING
    if len(incs) >= 2:
        window = incs[-(_RATIO_WINDOW + 1):]
        ratios = [
            window[k + 1] / window[k] if window[k] > 0 else math.inf
            for k in range(len(window) - 1)
        ]
        if all(q <= _RATIO_CONVERGING for q in ratios):
            return CONVERGING
        if all(q >= 1.0 for q in ratios):
            return DIVERGING
    return INCONCLUSIVE


def _count_words(level, hit: Callable[[Point], object]) -> int:
    """Number of words of a :func:`word_levels` level whose point passes ``hit``.

    ``hit`` is called once per distinct point of the level.
    """
    pts, idx = level
    return int(np.count_nonzero(np.array([bool(hit(x)) for x in pts])[idx]))


@dataclass
class DiagonalTrace:
    """u_0(s)..u_N(s) with a finite-horizon verdict; u_N is an envelope lower bound.

    ``layer_cake`` holds the :func:`layer_cake_check` results of levels
    0..N: their word sums are the second route that checked ``values``.
    """

    point: Point
    values: list[float]
    verdict: str
    layer_cake: list[LayerCakeResult]

    @property
    def envelope_lower_bound(self) -> float:
        return self.values[-1]


def diagonal_trace(
    K: Kernel,
    branch: BranchSystem,
    s: Point,
    horizon: int,
    trace_eps: float | None = None,
    ceiling: float = DEFAULT_CEILING,
    cap: int = DEFAULT_WORD_CAP,
) -> DiagonalTrace:
    """Diagonal values u_n(s) for n <= horizon, cross-checked two ways.

    Route one iterates the tower on the single point; route two is
    :func:`layer_cake_check`, whose word sums add the kernel diagonal over
    all length-n branch words (the scalar kernel once per distinct point of
    a level, an exact fsum over every word), so the trace walks the word
    tree of ``s`` once and carries its layer-cake levels.  Disagreement
    beyond 1e-12 (relative) is a numerical failure.  A horizon past the
    word cap is refused before either route runs.
    """
    check_word_levels(branch.m, horizon, cap)
    it = tower_gram_iter(K, branch, [s], cap)
    tower_vals = [float(next(it)[0, 0]) for _ in range(horizon + 1)]
    del it  # the tower route's tables, freed before the word route
    cakes = layer_cake_check(K, branch, s, horizon, cap)

    for n, (a, b) in enumerate(zip(tower_vals, (lc.word_sum for lc in cakes))):
        if abs(a - b) > 1e-12 * max(1.0, abs(a)):
            raise NumericalError(
                f"diagonal routes disagree at level {n} for {point_label(s)}: "
                f"{a!r} vs {b!r}"
            )
    verdict = classify_sequence(tower_vals, trace_stall_eps(trace_eps, tower_vals[0]), ceiling)
    return DiagonalTrace(point=s, values=tower_vals, verdict=verdict, layer_cake=cakes)


@dataclass
class LyapunovRefutation:
    """First violated premise of a proposed Lyapunov certificate."""

    point: Point
    premise: str
    lhs: float
    rhs: float

    def __str__(self):
        return (
            f"premise {self.premise} fails at {point_label(self.point)}: "
            f"{self.lhs!r} > {self.rhs!r}"
        )


def lyapunov_verify(
    diag: Callable[[Point], float],
    branch: BranchSystem,
    r_fn: Callable[[Point], float],
    C: float,
    beta: float,
    domain: Sequence[Point],
    form: str = "defect",
) -> TailCertificate | LyapunovRefutation:
    """Check diag <= C*r and Pr <= beta*r pointwise on ``domain``.

    ``form="defect"`` (beta < 1) certifies geometric tail bounds for the
    one-step defect diagonal; ``form="diagonal"`` (beta <= 1) certifies
    plain finiteness for the kernel diagonal.  Returns the certificate with
    the verification domain recorded, or the first violating point (a NaN
    side violates its premise).
    """
    if form not in ("defect", "diagonal"):
        raise InputError(f"unknown certificate form {form!r}")
    if form == "defect" and not 0.0 < beta < 1.0:
        raise InputError("defect-form certificates need 0 < beta < 1")
    if form == "diagonal" and not 0.0 < beta <= 1.0:
        raise InputError("diagonal-form certificates need 0 < beta <= 1")
    if not C >= 0.0:
        raise InputError("certificate constant C must be nonnegative")
    pts = tuple(domain)
    if not pts:
        raise InputError("certificate needs a nonempty verification domain")
    for s in itertools.chain(pts, (f(s) for s in pts for f in branch.maps)):
        if not r_fn(s) > 0.0:
            raise InputError(f"Lyapunov function not positive at {point_label(s)}")
    for s in pts:
        lhs = diag(s)
        rhs = C * r_fn(s)
        if not lhs <= rhs:
            return LyapunovRefutation(point=s, premise="diag <= C*r", lhs=lhs, rhs=rhs)
    for s in pts:
        lhs = math.fsum(r_fn(f(s)) for f in branch.maps)
        rhs = beta * r_fn(s)
        if not lhs <= rhs:
            return LyapunovRefutation(point=s, premise="Pr <= beta*r", lhs=lhs, rhs=rhs)
    return TailCertificate(r_fn=r_fn, C=C, beta=beta, domain=pts, form=form)


@dataclass
class BlowupWitness:
    """Branch-count witness attempt for diagonal blow-up.

    Valid iff at every requested level the number of words landing in the
    region with diagonal mass >= epsilon reaches rho^level.
    """

    epsilon: float
    rho: float
    levels: list[int]
    counts: list[int]

    @property
    def required(self) -> list[float]:
        return [self.rho**n for n in self.levels]

    @property
    def valid(self) -> bool:
        return all(c >= r for c, r in zip(self.counts, self.required))


def blowup_detect(
    K: Kernel,
    branch: BranchSystem,
    s: Point,
    region: Callable[[Point], bool],
    epsilon: float,
    rho: float,
    levels: Sequence[int],
    cap: int = DEFAULT_WORD_CAP,
) -> BlowupWitness:
    """Count level-n branch words landing in ``region`` with diagonal >= epsilon.

    A valid witness forces the diagonal to exceed epsilon * rho^n along the
    requested levels, hence blow-up when the levels are unbounded.
    """
    if epsilon <= 0.0 or rho <= 1.0:
        raise InputError("blow-up witness needs epsilon > 0 and rho > 1")
    levels = sorted(int(n) for n in levels)
    if not levels:
        raise InputError("blow-up witness needs at least one level")
    if levels[0] < 0:
        raise InputError("blow-up witness needs nonnegative levels")
    by_level = word_levels(branch, s, levels[-1], cap)
    counts = [
        _count_words(by_level[n], lambda x: region(x) and K(x, x) >= epsilon)
        for n in levels
    ]
    return BlowupWitness(epsilon=epsilon, rho=rho, levels=levels, counts=counts)


def level_set_count(
    K: Kernel,
    branch: BranchSystem,
    s: Point,
    n: int,
    theta: float,
    cap: int = DEFAULT_WORD_CAP,
) -> int:
    """#{words of length n with diagonal value at least theta}, by enumeration."""
    return _count_words(word_levels(branch, s, n, cap)[n], lambda x: K(x, x) >= theta)


@dataclass
class LayerCakeResult:
    integral: float
    word_sum: float

    @property
    def residual(self) -> float:
        return abs(self.integral - self.word_sum)


def layer_cake_check(
    K: Kernel,
    branch: BranchSystem,
    s: Point,
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> list[LayerCakeResult]:
    """Exact layer-cake integral of the level-set counts vs the direct word sum.

    One result per level 0..n, from one :func:`points.word_levels` walk.
    The count function is a right-continuous step function with jumps at
    the distinct diagonal values, so the integral is the finite
    summation-by-parts sum_j (v_j - v_{j-1}) * #{values >= v_j}.  The word
    sums of all levels are one :func:`points.fsum_rows` product, with one
    row of word counts per level over the distinct points of every level.
    """
    levels = word_levels(branch, s, n, cap)
    level_values = [np.array([K(x, x) for x in pts], dtype=float) for pts, _ in levels]
    level_words = [np.bincount(idx, minlength=len(pts)) for pts, idx in levels]
    diag = np.concatenate(level_values)
    if (diag < 0.0).any():
        raise InputError("layer-cake identity needs a nonnegative diagonal")
    rows = np.zeros((n + 1, len(diag)), dtype=np.int64)
    end = 0
    for row, words in zip(rows, level_words):
        row[end:end + len(words)] = words
        end += len(words)
    try:
        sums = fsum_rows(diag, rows)
    except OverflowError as exc:
        raise word_overflow(exc.args[0], s) from None
    results = []
    for values, words, total in zip(level_values, level_words, sums.tolist()):
        # Sorted, the values jump at each distinct positive v_j, and i_j words
        # lie below it: the term is (v_j - v_{j-1}) * (total - i_j).
        distinct, which = np.unique(values, return_inverse=True)
        counts = np.zeros(len(distinct), dtype=np.int64)
        np.add.at(counts, which, words)
        below = np.cumsum(counts) - counts
        up = distinct > 0.0
        jumps = distinct[up]
        prev = np.concatenate(([0.0], jumps[:-1]))
        terms = (jumps - prev) * (int(words.sum()) - below[up])
        results.append(LayerCakeResult(integral=math.fsum(terms.tolist()), word_sum=total))
    return results


@dataclass
class TailBound:
    value: float
    certified: bool


def tail_bound(
    tower: Tower,
    s: Point,
    t: Point,
    N: int,
    certificate: TailCertificate | None = None,
) -> TailBound:
    """Bound |K_inf(s,t) - K_N(s,t)|.

    With a certificate: the closed geometric form (certified).  Without: the
    tower's extrapolated Cauchy-Schwarz bound at level N
    (:func:`extrapolated_tail_bound`), flagged uncertified.
    """
    if N < 0:
        raise InputError(f"tail bound level must be nonnegative, got N={N}")
    if N > tower.horizon:
        raise InputError(f"tower horizon {tower.horizon} below requested level {N}")
    if certificate is not None:
        if not certificate.covers([s, t]):
            raise ContractError("certificate domain does not cover the requested points")
        return TailBound(certificate.bound(s, t, N), certified=True)
    bound = extrapolated_tail_bound(tower.levels[: N + 1])[tower.index(s), tower.index(t)]
    return TailBound(float(bound), certified=False)
