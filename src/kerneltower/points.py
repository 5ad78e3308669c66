"""Branch systems, word combinatorics, and orbit closures.

Points are opaque hashable Python values (strings, ints, tuples); a branch
system is an ordered family of total self-maps phi_1..phi_m acting on them.
Words are tuples of 1-based symbols.  The forward composition applies the
last symbol's map first (phi_w = phi_{i1} o ... o phi_{in}); the reversed
composition applies the first symbol's map first.

All enumerations are deterministic (lexicographic) and guarded by an
explicit cap so that exponential blow-ups surface as resource errors
instead of silent memory exhaustion.  :func:`word_levels` is the one word
enumeration, read by the word routes (the independent oracles of the tower
and diagonal modules) and by the boundary module's Doob walk: every word in
word order, stored as an index into the level's distinct points, so a
kernel is evaluated once per distinct point; it also owns the word cap,
naming the first level past it.  The word routes' sums weight each value
by its number of words through :func:`fsum_rows`, which is exactly
rounded: every word still counts as its own term, and each sum equals
``math.fsum`` over all m^n word values.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError, ResourceError

Point = Hashable
Word = tuple[int, ...]

# Default ceiling on enumerated words / orbit applications.
DEFAULT_WORD_CAP = 2**24


def point_label(s: Point) -> str:
    """Human-readable label; word-tuples render as digit strings."""
    if isinstance(s, tuple):
        return "".join(str(i) for i in s) if s else "<>"
    if s == "" or s is None:
        return "<>"
    return str(s)


class BranchSystem:
    """A finite family of self-maps phi_1..phi_m on a point universe."""

    def __init__(self, maps: Sequence[Callable[[Point], Point]], name: str = ""):
        if len(maps) < 1:
            raise InputError("a branch system needs at least one map")
        self.maps = tuple(maps)
        self.m = len(maps)
        self.name = name or f"branch-system(m={self.m})"

    def __repr__(self):
        return f"BranchSystem({self.name})"

    def apply(self, i: int, s: Point) -> Point:
        """Apply phi_i (1-based symbol)."""
        if not 1 <= i <= self.m:
            raise InputError(f"symbol {i} out of range 1..{self.m}")
        return self.maps[i - 1](s)

    def forward(self, w: Word, s: Point) -> Point:
        """phi_w(s) = phi_{i1}(phi_{i2}(...phi_{in}(s)...)); empty word is identity."""
        for i in reversed(w):
            s = self.apply(i, s)
        return s

    def reversed(self, w: Word, s: Point) -> Point:
        """Reversed composition: phi_{in}(...phi_{i1}(s)...); empty word is identity."""
        for i in w:
            s = self.apply(i, s)
        return s


def check_word_cap(m: int, n: int, cap: int = DEFAULT_WORD_CAP) -> int:
    """Number of length-n words, or a resource error when it exceeds the cap."""
    count = m**n
    if count > cap:
        raise ResourceError(
            f"enumerating {m}^{n} = {count} words exceeds the cap {cap}"
        )
    return count


def enumerate_words(m: int, n: int, cap: int = DEFAULT_WORD_CAP) -> list[Word]:
    """All m^n words of length n, lexicographically ordered."""
    if n < 0:
        raise InputError("word length must be nonnegative")
    check_word_cap(m, n, cap)
    return list(itertools.product(range(1, m + 1), repeat=n))


def word_levels(
    branch: BranchSystem, s: Point, n: int, cap: int = DEFAULT_WORD_CAP
) -> list[tuple[list[Point], np.ndarray]]:
    """Levels 0..n of the word tree of ``s``, each as (points, index).

    ``points`` lists the distinct values phi_w(s), |w| = k; ``index`` is an
    int64 array of length m^k whose entry j is the position in ``points``
    of phi_w(s) for the j-th word of enumerate_words(m, k).  Every word is
    enumerated, but each map is applied once per distinct point of a level:
    the next index array is the concatenation over maps of image_i[index].
    Points that compare equal are one point (the first one reached stands
    for all of them).  Past ``cap`` words, the first level over it names
    the error, before any map is applied.
    """
    if n < 0:
        raise InputError("word length must be nonnegative")
    for k in range(n + 1):
        check_word_cap(branch.m, k, cap)
    pts, idx = [s], np.zeros(1, dtype=np.int64)
    levels = [(pts, idx)]
    for _ in range(n):
        images = [f(p) for f in branch.maps for p in pts]
        distinct = list(dict.fromkeys(images))
        if len(distinct) == len(images):
            codes = np.arange(len(images), dtype=np.int64)
        else:
            ids = {p: i for i, p in enumerate(distinct)}
            codes = np.fromiter(map(ids.__getitem__, images), dtype=np.int64,
                                count=len(images))
        # phi_{(i,)+w}(s) = phi_i(phi_w(s)): new symbol outermost, so the
        # lexicographic word order is preserved by taking symbols outermost.
        nxt = np.empty(branch.m * len(idx), dtype=np.int64)
        for i, image in enumerate(codes.reshape(branch.m, len(pts))):
            np.take(image, idx, out=nxt[i * len(idx):(i + 1) * len(idx)])
        pts, idx = distinct, nxt
        levels.append((pts, idx))
    return levels


# Halves of a value's mantissa below 2^26 and 2^27 keep every partial sum
# of a row below 2^26 words an integer below 2^53; on [2^-1022, 2^997) the
# scaled halves are exact floats and a row's terms cannot overflow.
_ROW_COUNT_LIMIT = 2**26
_TINY, _HUGE = 2.0**-1022, 2.0**997


def fsum_rows(values, counts) -> np.ndarray:
    """Exactly rounded sums counts[i] @ values: math.fsum of each row's word values.

    Each value v = M * 2^(e-53) (``np.frexp``) is split as M = H * 2^27 + L,
    and H and L fill one column pair per binade e: ``counts @ halves`` is
    exact in any summation order (Ozaki, Ogita, Oishi and Rump 2012), and
    ``math.fsum`` of a row's scaled terms is its exactly rounded total.
    Rows that count a non-finite value (giving what ``math.fsum`` gives), a
    nonzero value outside [2^-1022, 2^997) or 2^26 words or more, and rows
    whose total is zero (fsum decides the sign of zero), are summed in
    exact integers; ``OverflowError(i)`` names the first such row i whose
    total does not fit a float.
    """
    v = np.asarray(values, dtype=float)
    C = np.asarray(counts, dtype=np.int64)
    size = np.abs(v)
    fast = (size >= _TINY) & (size < _HUGE)
    ok = ~C[:, ~(fast | (v == 0.0))].any(axis=1)
    mant, exp = np.frexp(np.where(fast, v, 0.0))  # the other values add nothing here
    H = np.trunc(mant * 2.0**26)
    low = exp.min(initial=0)
    present = np.bincount(exp - low) > 0
    col = 2 * np.cumsum(present)[exp - low] - 1  # column 0 counts the row's words
    halves = np.zeros((len(v), 2 * np.count_nonzero(present) + 1))
    halves[:, 0] = 1.0
    at = np.arange(len(v))
    halves[at, col] = H
    halves[at, col + 1] = mant * 2.0**53 - H * 2.0**27
    T = C @ halves
    ok &= T[:, 0] < _ROW_COUNT_LIMIT
    scale = np.ldexp(1.0, ((np.flatnonzero(present) + low)[:, None] - [26, 53]).ravel())
    out = np.zeros(len(C))
    out[ok] = [math.fsum(terms) for terms in (T[ok, 1:] * scale).tolist()]
    for i in np.flatnonzero(out == 0.0).tolist():
        try:
            out[i] = _exact_sum(v, C[i])
        except OverflowError:
            raise OverflowError(i) from None
    return out


def _exact_sum(v: np.ndarray, c: np.ndarray) -> float:
    """c @ v exactly rounded, by exact integers (``OverflowError`` past the float range)."""
    used = c > 0
    v, c = v[used], c[used]
    finite = np.isfinite(v)
    if not finite.all():
        return math.fsum(v[~finite].tolist())
    if not v.any():
        return math.fsum(v.tolist())  # only zeros: fsum decides the sign
    mant, exp = np.frexp(v)
    ints = np.ldexp(mant, 53).astype(np.int64).tolist()
    shifts = (exp - 53).tolist()
    low = min(shifts)
    total = sum(k * i << (e - low) for k, i, e in zip(c.tolist(), ints, shifts))
    return total / (1 << -low) if low < 0 else float(total << low)


def word_overflow(level: int, *at: Point) -> NumericalError:
    """The error of a word-route sum past the float range, naming the level and points."""
    where = ", ".join(point_label(p) for p in at)
    return NumericalError(f"level {level} word sum at {where} overflows a float")


def word_sum(values, level: int, *at: Point) -> float:
    """``math.fsum`` of a word route's per-word values: a total past the float
    range is a numerical error naming the level and points ``at``."""
    values = list(values)
    try:
        try:
            return math.fsum(values)
        except OverflowError:  # a partial sum overflowed: the exact sum decides
            return _exact_sum(np.array(values, dtype=float), np.ones(len(values), dtype=np.int64))
    except OverflowError:
        raise word_overflow(level, *at) from None


def orbit_points_by_level(
    branch: BranchSystem, s: Point, n: int, cap: int = DEFAULT_WORD_CAP
) -> list[list[Point]]:
    """Level k holds phi_w(s) for all words |w| = k, in word-lexicographic order.

    Duplicates are kept, so level k has exactly m^k entries and entry j of
    level k corresponds to the j-th word of enumerate_words(m, k).  This is
    :func:`word_levels` with every index expanded to its point.
    """
    return [[pts[j] for j in idx.tolist()] for pts, idx in word_levels(branch, s, n, cap)]


def orbit_closure(
    branch: BranchSystem,
    base: Iterable[Point],
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> list[Point]:
    """All points phi_w(s), s in base, |w| <= depth, deduplicated.

    Insertion-ordered (base points first, then by level and word order).
    The reversed compositions contribute no new points: over all words of a
    fixed length they produce the same set as the forward compositions.
    """
    if depth < 0:
        raise InputError("orbit depth must be nonnegative")
    seen: dict[Point, None] = dict.fromkeys(base)
    frontier = list(seen)
    budget = cap
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for f in branch.maps:
                budget -= 1
                if budget < 0:
                    raise ResourceError(
                        f"orbit closure exceeded the cap of {cap} map applications"
                    )
                t = f(s)
                if t not in seen:
                    seen[t] = None
                    nxt.append(t)
        if not nxt:
            break
        frontier = nxt
    return list(seen)
