"""The kernel tower: iterated branching, defects, and the invariant completion.

Level n of the tower is K_n = L^n K, with (LJ)(s, t) = sum_i J(phi_i s, phi_i t).
The core, :func:`tower_gram_iter`, reads every point as an integer code:
a word of the prefix tree relative to the tower's base words
(:class:`models.PrefixCodes`) and a state of a map table as itself, when
the kernel's batch is bound to that branch system (every builtin kernel),
and otherwise an id of a :class:`points.PointIndex`.  An entry of level n
is n nested left-to-right sums of m children, within (n(m-1)+1) * 2^-53 *
(L^n |K|)(s, t) of the exact word sum.  Defects are exact level
differences; their PSD margins are certified per level.

:func:`defect_gram` is the one LK - K: level 1 minus level 0 of the core, so
LK is the left-to-right sum of the m terms K(phi_i s, phi_i t).  For m = 2
it equals a scalar ``fsum`` over the maps; otherwise it lies within
m * 2^-53 * (L|K|)(s, t) of it.

Word-sum evaluation (one sum over all length-n words, with the scalar
kernel) is kept as an independent second route to the same level Grams:
:func:`level_via_words` walks each base point's words once for levels
0..n, calls the scalar kernel once per distinct point pair of a level, and
sums a block of entries by word counts in one exact product,
:func:`points.fsum_rows`.
Each entry is exactly rounded, so it equals the ``math.fsum`` of all m^n
per-word values bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ContractError,
    DivergenceError,
    InputError,
    ModelError,
    NumericalError,
    ResourceError,
)
from .kernels import (
    DEFAULT_PSD_TOL,
    FACTOR_RTOL,
    Gram,
    Kernel,
    PsdReport,
    gram,
    psd_check,
    sqrt_factor,
)
from .points import (
    DEFAULT_WORD_CAP,
    BranchSystem,
    Point,
    PointIndex,
    fsum_rows,
    point_label,
    word_levels,
    word_overflow,
    word_sum,
)

DEFAULT_MAX_LEVELS = 40
DEFAULT_CEILING = 1e12
TELESCOPE_RTOL = 1e-12
WORD_ROUTE_TOL = 1e-12  # max |word sum - tower level|, verify criterion 2
_WORD_BLOCK = 2**16  # word codes and counts of one block in level_via_words
_CHUNK_PAIRS = 1 << 14  # pairs per kernel call on a layer: bounds the kernel's temporaries


def tower_gram_iter(
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    pair_cap: int = DEFAULT_WORD_CAP,
) -> Iterator[np.ndarray]:
    """Yield the level-0, level-1, ... Gram matrices of the tower on ``points``.

    Points are read as integer codes, stepped by the maps only when the
    next level is requested, so callers may stop at any horizon.  When K's
    ``KernelBatch`` is bound to ``branch`` itself, the codes are one new
    ``branch.codes()`` and the batch evaluates K on them; for every other
    kernel and branch system the points are interned as the ids of a
    :class:`points.PointIndex` and K is called once per pair, the lower id
    first, so a batch never reads another system's codes.  Layer d of the
    pair graph holds the distinct unordered code pairs at depth d, each as
    (lo, hi) with lo <= hi, merged across base pairs, in the order of their
    keys lo * size + hi (size one more than the largest code); each layer
    keeps one child-position array per map into the next.  Level n
    evaluates K on layer n, ``_CHUNK_PAIRS`` pairs at a time, and sums up
    the layers in map order, ``v_d = v_{d+1}[child_1] + ... +
    v_{d+1}[child_m]``.  These nested sums lie within (n(m-1)+1) * 2^-53 *
    (L^n |K|)(s, t) of the exact word sum.  A sum reads its terms by child
    position, so where a pair sits within its layer never enters a sum, and
    batch kernels are elementwise, so neither does the chunking.

    A level step steps both columns of the newest layer in one call, one
    row per map, and keys the candidates in int64.  Keys that already
    increase strictly (every word-tree layer past layer 0, whose relative
    codes step a sorted layer to sorted blocks) are the layer itself: its
    child positions are the identity blocks, kept as slices.  Any other
    candidates are merged by one ``argsort`` (the keys are then sorted in
    place, and the distinct ones kept).  Keys are below size^2, and size is
    at most a table's state count, the interned point count or, on the word
    tree, the candidate count, so int64 holds them while those fit in
    memory.  Between levels the generator holds any interned points with
    their successors, every merged layer's child positions and the newest
    layer's pairs; a step adds the candidates, their keys and, for a merge,
    the sort order, then the layer's values and one chunk of kernel
    temporaries.

    ``pair_cap`` bounds the distinct pairs of one layer beyond layer 0 (on
    S states a layer holds at most S(S+1)/2; on genuine trees layers grow
    by a factor m per level); a level beyond it raises a resource error
    when requested, before the layer's child positions are built.  A level with a non-finite entry
    raises a numerical error naming the level and a pair.
    """
    pts = tuple(points)
    n = len(pts)
    if n == 0:
        raise InputError("tower needs a nonempty base point list")
    batch = K.batch if isinstance(K, Kernel) else None
    if batch is not None and batch.branch is branch:
        codes = branch.codes()

        def evaluate(a, b):
            return batch.evaluate(codes, a, b)
    else:
        codes, scalar = PointIndex(branch.maps), K.raw() if isinstance(K, Kernel) else K
        pool = codes.points

        def evaluate(a, b):
            return [scalar(pool[x], pool[y]) for x, y in zip(a.tolist(), b.tolist())]

    base = codes.encode(pts)
    ia, ib = (c.astype(np.min_scalar_type(n)) for c in np.triu_indices(n))
    lo, hi = base[ia], base[ib]
    children = []  # [0]: base pairs -> layer 0; [d]: layer d-1 -> layer d, one row per map
    while True:
        rows = len(branch.maps) if children else 1  # candidates per pair of the last layer
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
        size = int(hi.max()) + 1
        key = lo.astype(np.int64)
        key *= size
        key += hi
        first = None  # strictly increasing keys: the candidates are the layer, in order
        if not (key[1:] > key[:-1]).all():
            del lo, hi  # the candidate columns, freed before the sort
            order = np.argsort(key)
            key.sort()  # key[order] in place: no second array of keys, and faster than the gather
            first = np.empty(len(key), dtype=bool)  # marks the first of each run of equal keys
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
        count = len(key) if first is None else int(np.count_nonzero(first))
        if children and count > pair_cap:
            raise ResourceError(
                f"tower pair orbit exceeded the cap of {pair_cap} pairs; "
                "reduce the horizon or supply a tail certificate"
            )
        if first is None:
            width = count // rows
            children.append([slice(i * width, (i + 1) * width) for i in range(rows)])
        else:
            key = key[first]
            rank = np.cumsum(first, dtype=np.min_scalar_type(count))
            del first
            rank -= 1
            at = np.empty_like(rank)
            at[order] = rank  # each candidate's position in the layer
            del order, rank
            children.append(at.reshape(rows, -1))
            code_type = np.min_scalar_type(size)  # codes are below size: decoded with no int64 copy
            lo = np.floor_divide(key, size, out=np.empty(count, code_type), casting="unsafe")
            hi = np.remainder(key, size, out=np.empty(count, code_type), casting="unsafe")
        del key
        values = np.empty(count)
        for start in range(0, count, _CHUNK_PAIRS):
            chunk = slice(start, start + _CHUNK_PAIRS)
            values[chunk] = evaluate(lo[chunk], hi[chunk])
        for kids in reversed(children):
            total = values[kids[0]]  # a slice is a view: adding into it leaves the other rows
            for k in kids[1:]:
                total += values[k]
            values = total
        values = values + 0.0  # no entry is -0.0, and no view holds the newest layer's values
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))
            a, b = pts[ia[bad[0]]], pts[ib[bad[0]]]
            raise NumericalError(f"level {len(children) - 1} tower entry at "
                                 f"{point_label(a)}, {point_label(b)} is not finite")
        G = np.empty((n, n), dtype=float)
        G[ia, ib] = G[ib, ia] = values
        yield G

        lo, hi = (x.ravel() for x in codes.step(lo, hi))


@dataclass
class Tower:
    """Level Grams K_0..K_N and defect Grams D_0..D_{N-1} on a base point list."""

    points: tuple
    horizon: int
    levels: list[np.ndarray]
    defects: list[np.ndarray]
    defect_reports: list[PsdReport]
    trace_increments: list[float]
    telescoping_residual: float

    def index(self, s: Point) -> int:
        try:
            return self.points.index(s)
        except ValueError:
            raise InputError(f"point {point_label(s)} not in tower base") from None

    @classmethod
    def from_levels(cls, points, levels, tol: float = DEFAULT_PSD_TOL) -> "Tower":
        """Certify the defects of computed levels and check the telescoping identity.

        Raises a model error naming the level if any defect Gram fails the
        PSD test, and a numerical error if the telescoping identity drifts
        beyond its budget (it is exact up to float reassociation).
        """
        defects = []
        reports = []
        for n in range(len(levels) - 1):
            D = levels[n + 1] - levels[n]
            report = psd_check(D, tol)
            if not report.psd:
                raise ModelError(
                    f"defect level {n} is not PSD ({report.summary()}); "
                    "the kernel is not subinvariant on this set"
                )
            defects.append(D)
            reports.append(report)

        reconstructed = levels[0] + sum(defects) if defects else levels[0]
        residual = relative_residual(reconstructed - levels[-1], levels[-1])
        if residual > TELESCOPE_RTOL:
            raise NumericalError(
                f"telescoping residual {residual:.3e} exceeds {TELESCOPE_RTOL:.1e}"
            )
        return cls(
            points=tuple(points),
            horizon=len(levels) - 1,
            levels=levels,
            defects=defects,
            defect_reports=reports,
            trace_increments=[float(np.trace(D)) for D in defects],
            telescoping_residual=residual,
        )

    def factors(self, tol: float = DEFAULT_PSD_TOL) -> list[np.ndarray]:
        """Square-root factors of the base Gram and of every defect Gram, in level order."""
        out = []
        for n, G in enumerate([self.levels[0]] + self.defects):
            try:
                out.append(sqrt_factor(G, tol))
            except NumericalError as exc:
                what = "base kernel" if n == 0 else f"defect level {n - 1}"
                raise NumericalError(f"{what} factor failed: {exc}") from exc
        return out


def relative_residual(diff: np.ndarray, ref: np.ndarray) -> float:
    """max |diff| over max(max |ref|, 1): the telescoping identity's residual."""
    return float(np.max(np.abs(diff))) / max(float(np.max(np.abs(ref))), 1.0)


def trace_stall_eps(trace_eps: float | None, level0: float) -> float:
    """``trace_eps``, by default 1e-10 * max(level-0 value, 1): an increment below it is a stall."""
    return 1e-10 * max(level0, 1.0) if trace_eps is None else trace_eps


def defect_gram(K: Kernel, branch: BranchSystem, points: Sequence[Point],
                pair_cap: int = DEFAULT_WORD_CAP) -> np.ndarray:
    """Gram of the one-step defect LK - K on ``points``: level 1 minus level 0 of the core.

    LK(s, t) is the left-to-right sum of K(phi_i s, phi_i t) over the maps,
    each read once per unordered pair: for m = 2 the exactly rounded sum,
    otherwise within m * 2^-53 * (L|K|)(s, t) of it.  ``pair_cap`` bounds
    the distinct pairs of layer 1.
    """
    levels = tower_gram_iter(K, branch, points, pair_cap)
    K0 = next(levels)
    return next(levels) - K0


def subinvariance_check(
    K: Kernel, branch: BranchSystem, points: Sequence[Point],
    tol: float = DEFAULT_PSD_TOL,
) -> PsdReport:
    """PSD report of the one-step defect LK - K on ``points``.

    A PSD verdict certifies the subinvariance inequality LK >= K on the
    given finite set.
    """
    return psd_check(defect_gram(K, branch, points), tol)


def build_tower(
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    horizon: int,
    tol: float = DEFAULT_PSD_TOL,
    pair_cap: int = DEFAULT_WORD_CAP,
) -> Tower:
    """Compute levels 0..horizon of the tower with per-level defect certification.

    Defects are certified and the telescoping identity is checked by
    :meth:`Tower.from_levels`.
    """
    if horizon < 0:
        raise InputError("tower horizon must be nonnegative")
    it = tower_gram_iter(K, branch, points, pair_cap)
    levels = [next(it) for _ in range(horizon + 1)]
    return Tower.from_levels(points, levels, tol)


def level_via_words(
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    n: int,
    cap: int = DEFAULT_WORD_CAP,
) -> list[Gram]:
    """Level Grams 0..n by direct word-sum expansion (independent of build_tower).

    Level k sums K over all length-k words applied synchronously to both
    arguments.  One :func:`points.word_levels` walk per distinct base point
    gives its levels 0..n (distinct points plus one index per word, points
    that compare equal being one point).  Where a level repeats a point, a
    block of entries of one Gram row counts the words of each oriented pair
    (point of ``a``, point of ``b``) in one ``np.bincount``, the scalar
    kernel is called once per distinct oriented pair of the level, and
    :func:`points.fsum_rows` sums the block.  A level that repeats no point
    (every word tree), or whose D^2 pair codes exceed ``cap``, is summed
    word by word: one kernel call per word, ``math.fsum`` per entry.  Both
    give the exactly rounded sum of all m^k per-word values.  Nothing is
    shared with the tower core, and no batch form of the kernel is
    called.  Past ``cap`` words, the first level over it names the error.
    """
    pts = tuple(points)
    evaluate = K.raw() if isinstance(K, Kernel) else K
    walks = {s: word_levels(branch, s, n, cap) for s in set(pts)}
    return [_words_level(evaluate, pts, {s: walk[k] for s, walk in walks.items()}, k, cap)
            for k in range(n + 1)]


def _words_level(evaluate, pts: tuple, level_of: dict, n: int, cap: int) -> Gram:
    """The level-n Gram of :func:`level_via_words` from each base point's level n."""
    r = len(pts)
    G = np.empty((r, r), dtype=float)
    # One code per distinct point of the level, shared across base points;
    # a pair's code x * D + y is its oriented (point of a, point of b) code.
    P = list(dict.fromkeys(itertools.chain.from_iterable(p for p, _ in level_of.values())))
    D = len(P)
    if D * D > cap or all(len(p) == len(idx) for p, idx in level_of.values()):
        words = {s: p if len(p) == len(idx) else [p[j] for j in idx.tolist()]
                 for s, (p, idx) in level_of.items()}
        for a in range(r):
            pa = words[pts[a]]
            for b in range(a, r):
                G[a, b] = G[b, a] = word_sum(map(evaluate, pa, words[pts[b]]), n, pts[a], pts[b])
        return Gram(pts, G)
    ids = {p: i for i, p in enumerate(P)}
    point_code = {s: np.fromiter(map(ids.__getitem__, p), dtype=np.int64, count=len(p))
                  for s, (p, _) in level_of.items()}
    codes = np.empty((r, len(level_of[pts[0]][1])), dtype=np.int64)  # r x m^n
    for row, s in zip(codes, pts):
        np.take(point_code[s], level_of[s][1], out=row)
    values = np.zeros(D * D)
    done = np.zeros(D * D, dtype=bool)
    for a in range(r):
        # Entry (a, b) counts its words by x * D + y: x indexes the points
        # of a's level, y codes the point of b; one code range per entry.
        xa = point_code[pts[a]]
        span = len(xa) * D
        rows = max(1, _WORD_BLOCK // max(codes.shape[1], span))  # entries per block
        for lo in range(a, r, rows):
            hi = min(r, lo + rows)
            keys = level_of[pts[a]][1] * D + codes[lo:hi]
            keys += np.arange(0, (hi - lo) * span, span)[:, None]
            counts = np.bincount(keys.ravel(), minlength=(hi - lo) * span).reshape(hi - lo, span)
            local = np.flatnonzero(counts.any(axis=0))
            pairs = xa[local // D] * D + local % D
            new = pairs[~done[pairs]]
            done[new] = True
            values[new] = [evaluate(P[k // D], P[k % D]) for k in new.tolist()]
            try:
                G[a, lo:hi] = G[lo:hi, a] = fsum_rows(values[pairs], counts[:, local])
            except OverflowError as exc:
                raise word_overflow(n, pts[a], pts[lo + exc.args[0]]) from None
    return Gram(pts, G)


@dataclass(frozen=True)
class TailCertificate:
    """Lyapunov certificate for geometric defect decay.

    Premises (verified by the diagonal module on ``domain``): the one-step
    defect diagonal is bounded by C * r and the branching operator contracts
    r by the factor beta.  With beta < 1 these yield the closed-form tail
    bound C/(1-beta) * beta^N * sqrt(r(s) r(t)) on the limit kernel, which
    :meth:`bound_matrix` states once; :meth:`bound` is one of its entries.
    """

    r_fn: Callable[[Point], float]
    C: float
    beta: float
    domain: tuple
    form: str = "defect"  # "defect" (beta < 1) or "diagonal" (beta <= 1)

    def covers(self, points: Sequence[Point]) -> bool:
        dom = set(self.domain)
        return all(s in dom for s in points)

    def bound(self, s: Point, t: Point, N: int) -> float:
        return float(self.bound_matrix([s, t], N)[0, 1])

    def bound_matrix(self, points: Sequence[Point], N: int) -> np.ndarray:
        if N < 0:
            raise InputError(f"tail bound level must be nonnegative, got N={N}")
        # A diagonal-form premise bounds the kernel diagonal, not the defect.
        if self.form != "defect" or not self.beta < 1.0:
            raise ContractError("tail bounds need a defect-form certificate with beta < 1")
        root = np.sqrt(np.array([self.r_fn(s) for s in points], dtype=float))
        return self.C / (1.0 - self.beta) * self.beta**N * np.outer(root, root)


@dataclass
class KInfinityEstimate:
    """Truncated invariant-completion estimate with a per-entry error bound."""

    points: tuple
    entries: np.ndarray
    bound: np.ndarray
    certified: bool
    levels_used: int
    converged: bool
    tower: Tower

    @property
    def bound_label(self) -> str:
        return "certified" if self.certified else "uncertified"


def estimate_K_infinity(
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    tol: float = DEFAULT_PSD_TOL,
    trace_eps: float | None = None,
    max_levels: int = DEFAULT_MAX_LEVELS,
    ceiling: float = DEFAULT_CEILING,
    certificate: TailCertificate | None = None,
    pair_cap: int = DEFAULT_WORD_CAP,
) -> KInfinityEstimate:
    """Iterate the tower until the trace stalls, then attach an error bound.

    Stopping: trace increment below ``trace_eps`` (by default
    :func:`trace_stall_eps` of the level-0 trace) or ``max_levels``.  Any
    diagonal beyond ``ceiling`` aborts with a divergence report pointing at
    the diagonal classification tools.  With a certificate the per-entry bound is the closed geometric
    form and is labeled certified; otherwise a Cauchy-Schwarz bound is
    extrapolated from the last diagonal increments and labeled uncertified.
    """
    pts = tuple(points)
    if certificate is not None and not certificate.covers(pts):
        raise ContractError(
            "certificate verification domain does not cover the requested points"
        )
    it = tower_gram_iter(K, branch, pts, pair_cap)
    levels = [next(it)]
    traces = [float(np.trace(levels[0]))]
    trace_eps = trace_stall_eps(trace_eps, traces[0])
    converged = False
    while True:
        diag = np.diag(levels[-1])
        if np.max(diag) > ceiling:
            raise DivergenceError(
                f"tower diagonal {np.max(diag):.3e} exceeded the ceiling {ceiling:.1e} "
                f"at level {len(levels) - 1}; classify the model with the diagonal "
                "module (blow-up witnesses / Lyapunov certificates)",
                level=len(levels) - 1,
                diagonal=float(np.max(diag)),
            )
        if len(levels) > 1 and traces[-1] - traces[-2] < trace_eps:
            converged = True
            break
        if len(levels) > max_levels:
            break
        levels.append(next(it))
        traces.append(float(np.trace(levels[-1])))

    N = len(levels) - 1
    tower = Tower.from_levels(pts, levels, tol)
    if certificate is not None:
        bound = certificate.bound_matrix(pts, N)
    else:
        bound = extrapolated_tail_bound(levels)
    return KInfinityEstimate(
        points=pts,
        entries=levels[-1].copy(),
        bound=bound,
        certified=certificate is not None,
        levels_used=N,
        converged=converged,
        tower=tower,
    )


def _extrapolated_tail_diagonal(levels) -> np.ndarray:
    """Geometric extrapolation of remaining diagonal growth from the last two increments."""
    if len(levels) == 1:
        return np.full(levels[0].shape[0], np.inf)  # no increments observed: no information
    d_last = np.diag(levels[-1]) - np.diag(levels[-2])
    # A single observed increment shows no decay to extrapolate.
    d_prev = (np.diag(levels[-2]) - np.diag(levels[-3]) if len(levels) > 2
              else np.zeros_like(d_last))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = d_last / d_prev
        tail = d_last * q / (1.0 - q)
    tail[(d_prev <= 0.0) | (d_last >= d_prev)] = np.inf  # no observed decay: honest "unknown"
    tail[d_last <= 0.0] = 0.0
    return tail


def extrapolated_tail_bound(levels) -> np.ndarray:
    """Uncertified per-entry bound on |K_inf - K_N| from the levels K_0..K_N.

    Cauchy-Schwarz on the extrapolated diagonal tails; the PSD remainder
    has a zero row s where its diagonal tail at s is zero, whatever the
    other tail.
    """
    tail = _extrapolated_tail_diagonal(levels)
    with np.errstate(invalid="ignore"):  # 0 * inf, overwritten below
        bound = np.sqrt(np.outer(tail, tail))
    zero = tail == 0.0
    bound[zero, :] = 0.0
    bound[:, zero] = 0.0
    return bound


def invariance_residual(
    estimate: KInfinityEstimate, branch: BranchSystem, points: Sequence[Point]
) -> float:
    """max |(L K_inf_est)(s,t) - K_inf_est(s,t)| over pairs from ``points``.

    The estimate must cover the one-step orbit of ``points``.  L is the
    tower core's, read on the estimate as a kernel: :func:`defect_gram`.
    """
    est_index = {s: i for i, s in enumerate(estimate.points)}
    for s in points:
        for f in branch.maps:
            if f(s) not in est_index:
                raise InputError(
                    f"estimate does not cover the one-step image of {point_label(s)}; "
                    "estimate over the one-step orbit closure"
                )
    G = estimate.entries
    table = Kernel(lambda s, t: G[est_index[s], est_index[t]], name="estimate")
    return float(np.max(np.abs(defect_gram(table, branch, points))))


@dataclass
class MinimalityReport:
    """Premise checks and conclusion for one invariant-majorant candidate."""

    invariance_residual: float
    invariance_ok: bool
    majorant_report: PsdReport
    conclusion: PsdReport | None

    @property
    def premises_ok(self) -> bool:
        return self.invariance_ok and self.majorant_report.psd

    @property
    def ok(self) -> bool:
        return self.premises_ok and self.conclusion is not None and self.conclusion.psd


def minimality_check(
    estimate: KInfinityEstimate,
    candidate: Kernel,
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    tol: float = DEFAULT_PSD_TOL,
) -> MinimalityReport:
    """Check candidate >= K, L candidate = candidate, then candidate >= estimate.

    Premise failures are reported separately from the conclusion so that a
    non-invariant or non-majorizing candidate is not mistaken for a
    minimality violation.
    """
    pts = tuple(points)
    G_cand = gram(candidate, pts)
    inv_residual = float(np.max(np.abs(defect_gram(candidate, branch, pts))))
    scale = max(G_cand.scale(), 1.0)
    invariance_ok = inv_residual <= tol * scale
    majorant_report = psd_check(
        Gram(pts, G_cand.entries - gram(K, pts).entries), tol
    )
    conclusion = None
    if invariance_ok and majorant_report.psd:
        sub = [estimate.points.index(s) for s in pts]
        est_block = estimate.entries[np.ix_(sub, sub)]
        conclusion = psd_check(
            Gram(pts, G_cand.entries - est_block),
            max(tol, float(np.max(estimate.bound)) if np.all(np.isfinite(estimate.bound)) else tol),
        )
    return MinimalityReport(
        invariance_residual=inv_residual,
        invariance_ok=invariance_ok,
        majorant_report=majorant_report,
        conclusion=conclusion,
    )


@dataclass
class Embedding:
    """Finite-dimensional defect-space features reproducing the level-N Gram.

    Block 0 is a square-root factor of the base Gram, block n+1 of the
    level-n defect Gram; concatenated rows v(s) satisfy <v(s), v(t)> =
    K_N(s, t) and the block-0 rows alone reproduce K, realizing the
    compression as a coordinate restriction.
    """

    points: tuple
    blocks: list[np.ndarray]

    @property
    def vectors(self) -> np.ndarray:
        return np.hstack(self.blocks)

    def gram(self) -> np.ndarray:
        V = self.vectors
        return V @ V.T

    def level0_gram(self) -> np.ndarray:
        B = self.blocks[0]
        return B @ B.T


def defect_embedding(tower: Tower, tol: float = DEFAULT_PSD_TOL) -> Embedding:
    """Factor the base Gram and every defect Gram into feature blocks."""
    emb = Embedding(points=tower.points, blocks=tower.factors(tol))
    scale = max(float(np.max(np.abs(tower.levels[-1]))), 1.0)
    err = float(np.max(np.abs(emb.gram() - tower.levels[-1])))
    if err > FACTOR_RTOL * scale:
        raise NumericalError(
            f"embedding Gram deviates from level-{tower.horizon} Gram by {err:.3e}"
        )
    return emb
