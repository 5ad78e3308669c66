"""Kernel evaluation, Gram matrices, and the PSD order.

A kernel is a symmetric real-valued function on pairs of points wrapped in
a :class:`Kernel` for naming and optional memoization.  Everything
downstream is realized through Gram matrices on ordered finite point
lists; positive semidefiniteness is tested by a symmetric eigensolver so
that every verdict carries a quantitative margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, KernelTowerError, ModelError, NumericalError, ResourceError
from .points import BranchSystem, Point, point_label

DEFAULT_PSD_TOL = 1e-9


@dataclass(frozen=True)
class KernelBatch:
    """Vectorized form of a kernel over interned points.

    ``feature`` maps a point to the int the kernel reads from it (a word
    length, a state).  ``evaluate(fa, fb, same)`` returns the kernel at the
    pairs whose points have features ``fa`` and ``fb``, with ``same``
    marking pairs of equal points.  The two sides of a pair arrive in no
    particular order; each value must equal, bit for bit, the scalar kernel
    at the pair as ``tower._canon_pair`` orders it.
    """

    feature: Callable[[Point], int]
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class Kernel:
    """A symmetric pointwise kernel.

    ``fn`` is evaluated once per unordered pair when ``memoize`` is on;
    composed kernels (e.g. the branching operator applied to a base kernel)
    memoize so that repeated Gram assembly over overlapping point sets does
    not re-walk the branch tree.  An optional ``batch`` form lets the tower
    core evaluate all pairs of a level in one call.
    """

    def __init__(self, fn: Callable[[Point, Point], float], name: str = "",
                 memoize: bool = False, batch: KernelBatch | None = None):
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "kernel")
        self._memo: dict | None = {} if memoize else None
        self.batch = batch

    def __repr__(self):
        return f"Kernel({self.name})"

    def __call__(self, s: Point, t: Point) -> float:
        if self._memo is None:
            return self._fn(s, t)
        key = (s, t)
        v = self._memo.get(key)
        if v is None:
            v = self._fn(s, t)
            self._memo[key] = v
            self._memo[(t, s)] = v
        return v

    def raw(self) -> Callable[[Point, Point], float]:
        """Fastest callable for hot loops (skips the wrapper when unmemoized)."""
        return self._fn if self._memo is None else self.__call__


def apply_L(J: Kernel, branch: BranchSystem) -> Kernel:
    """The branching operator: (LJ)(s,t) = sum_i J(phi_i(s), phi_i(t)).

    Lazy and memoized per point pair; preserves symmetry and positive
    definiteness since each pullback along (phi_i, phi_i) does.
    """
    maps = branch.maps

    def fn(s, t):
        return math.fsum(J(f(s), f(t)) for f in maps)

    return Kernel(fn, name=f"L[{J.name}]", memoize=True)


def apply_L_power(J: Kernel, branch: BranchSystem, n: int) -> Kernel:
    K = J
    for _ in range(n):
        K = apply_L(K, branch)
    return K


@dataclass
class Gram:
    """Kernel values over an ordered finite point list."""

    points: tuple
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)

    @property
    def size(self) -> int:
        return len(self.points)

    def scale(self) -> float:
        return float(np.max(np.abs(np.diag(self.entries)))) if self.size else 0.0


@dataclass
class PsdReport:
    """Result of an eigenvalue-based PSD test with a relative tolerance."""

    min_eigenvalue: float
    scale: float
    tol: float
    psd: bool = field(init=False)

    def __post_init__(self):
        self.psd = self.min_eigenvalue >= -self.tol * max(self.scale, 1.0)

    def summary(self) -> str:
        verdict = "PSD" if self.psd else "not-PSD"
        return f"{verdict} (min eig {self.min_eigenvalue:.3e}, scale {self.scale:.3e}, tol {self.tol:.1e})"


def gram(J: Kernel, points: Sequence[Point]) -> Gram:
    """Assemble the symmetric Gram matrix, one evaluation per unordered pair.

    A kernel failure that is not a library error becomes a model error
    naming the kernel and the pair (out of memory: a resource error naming
    the point count), chained to the original exception.
    """
    pts = tuple(points)
    if not pts:
        raise InputError("Gram assembly needs a nonempty point list")
    n = len(pts)
    G = np.empty((n, n), dtype=float)
    try:
        for a in range(n):
            s = pts[a]
            row = []
            for t in pts[a:]:
                row.append(float(J(s, t)))
            G[a, a:] = G[a:, a] = row
    except KernelTowerError:
        raise
    except MemoryError as exc:
        raise ResourceError(f"kernel {J.name}: out of memory assembling the Gram of {n} points") from exc
    except Exception as exc:
        b = a + len(row)
        raise ModelError(
            f"kernel {J.name} failed at "
            f"({point_label(pts[a])}, {point_label(pts[b])}): {exc}"
        ) from exc
    return Gram(pts, G)


def psd_check(G: Gram | np.ndarray, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Smallest-eigenvalue PSD test.

    Verdict PSD iff min eig >= -tol * max(scale, 1) with scale the largest
    absolute diagonal entry; the relative threshold keeps deep towers with
    large diagonals from failing on roundoff.
    """
    A = G.entries if isinstance(G, Gram) else np.asarray(G, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InputError("PSD check on a matrix with non-finite entries")
    if A.size == 0:
        return PsdReport(0.0, 0.0, tol)
    scale = float(np.max(np.abs(np.diag(A))))
    min_eig = float(np.linalg.eigvalsh(A)[0])
    return PsdReport(min_eig, scale, tol)


def psd_leq(G1: Gram, G2: Gram, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """PSD report of G2 - G1; verdict PSD means G1 <= G2 in the Loewner order."""
    if G1.points != G2.points:
        raise InputError("psd_leq requires identical point lists")
    return psd_check(Gram(G1.points, G2.entries - G1.entries), tol)


def sqrt_factor(A: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Symmetric square-root factor R with R @ R.T ~= A.

    Eigendecomposition with small negative eigenvalues clipped at zero;
    a smallest eigenvalue that fails :class:`PsdReport`'s threshold
    (-tol * max(scale, 1)) is a genuine PSD failure, and so is a
    factor that fails to reconstruct A within 1e-10*scale.  Rows at indices
    where A has an exactly zero diagonal are zero: for a PSD matrix that row
    of any factor is zero, and the eigendecomposition would otherwise leave
    rounding noise there.
    """
    A = np.asarray(A, dtype=float)
    w, U = np.linalg.eigh(A)
    report = PsdReport(float(w[0]), float(np.max(np.abs(np.diag(A)))), tol)
    if not report.psd:
        raise NumericalError(
            f"square-root factorization: eigenvalue {w[0]:.3e} below -tol*scale"
        )
    R = U * np.sqrt(np.clip(w, 0.0, None))
    R[np.diag(A) == 0.0] = 0.0
    if np.max(np.abs(R @ R.T - A)) > 1e-10 * max(report.scale, 1.0):
        raise NumericalError("square-root factor failed to reconstruct its input")
    return R
