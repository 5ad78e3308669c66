"""Builtin models with closed-form oracles, plus user finite-state models.

The word-tree model lives on the set of all finite words over {1..m}
(points are int tuples) with prefixing maps; its tower, defects, limit
kernel, and harmonic gauge all have closed forms, evaluated here directly
so they stay independent test oracles for the computed machinery.

Finite-state models are tables: S states, m map tables, one symmetric PSD
kernel table.  The feeder model is a small builtin finite-state instance
with a genuinely nontrivial defect and a nondegenerate Doob chain.
"""

from __future__ import annotations

import operator
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .kernels import DEFAULT_PSD_TOL, Kernel, KernelBatch, psd_check
from .points import BranchSystem, Point


class Model:
    """Common surface of builtin and user models."""

    name: str = "model"
    branch: BranchSystem
    kernel: Kernel

    def point(self, spec) -> Point:
        raise NotImplementedError

    def points(self, specs: Sequence) -> list[Point]:
        return [self.point(x) for x in specs]


def _parse_word(spec, m: int) -> tuple[int, ...]:
    if isinstance(spec, tuple):
        word = spec
    elif isinstance(spec, list):
        word = tuple(spec)
    elif isinstance(spec, str):
        if spec in ("", "<>"):
            word = ()
        else:
            try:
                word = tuple(int(ch) for ch in spec)
            except ValueError:
                raise InputError(f"word label {spec!r} must be digits over 1..{m}") from None
    else:
        raise InputError(f"cannot interpret {spec!r} as a word point")
    for i in word:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= m:
            raise InputError(f"symbol {i!r} in word {spec!r} out of range 1..{m}")
    return word


class PrefixBranch(BranchSystem):
    """The prefix maps phi_i(w) = (i,) + w on the words over {1..m}.

    Each tower reads its words through a new :class:`PrefixCodes`.
    """

    def __init__(self, m: int):
        super().__init__([(lambda sym: lambda s: sym + s)((i,)) for i in range(1, m + 1)],
                         name=f"prefix-tree(m={m})")

    def codes(self) -> "PrefixCodes":
        return PrefixCodes(self.m)


class PrefixCodes:
    """Word codes of one tower, relative to its distinct base words b_0..b_(P0-1).

    At depth d a point is w + b, b a base word and w a word of d symbols.
    Its code is b's index plus the sum over j of (w_j - 1) * P0 * m^(d-j):
    the newest symbol, w_1, is the most significant digit.  So phi_i adds
    (i - 1) * P0 * m^d, codes at depth d stay below P0 * m^d, equal codes at
    one depth are equal words, and a word's length is |b| + d.  Stepping a
    sorted array in map order gives increasing codes.
    """

    def __init__(self, m: int):
        self.m, self.depth = m, 0

    def encode(self, points) -> np.ndarray:
        words = [_parse_word(w, self.m) for w in points]
        index = {w: k for k, w in enumerate(dict.fromkeys(words))}
        self.base_len = np.array([len(w) for w in index])
        return np.array([index[w] for w in words], dtype=np.min_scalar_type(len(index)))

    def lengths(self, codes: np.ndarray) -> np.ndarray:
        return self.base_len[codes % len(self.base_len)] + self.depth

    def step(self, *codes: np.ndarray) -> list[np.ndarray]:
        """Each array's images, one row per map; the depth advances once."""
        stride = len(self.base_len) * self.m**self.depth
        self.depth += 1
        offsets = np.arange(0, stride * self.m, stride, dtype=np.min_scalar_type(stride * self.m))[:, None]
        return [offsets + x for x in codes]


class TableBranch(BranchSystem):
    """Maps given as tables over the states 0..S-1; a state is its own code."""

    def __init__(self, tables: Sequence[Sequence[int]], name: str):
        super().__init__([row.__getitem__ for row in tables], name=name)
        self._table = np.array(tables, dtype=np.min_scalar_type(max(len(tables[0]) - 1, 0)))

    def codes(self) -> "TableBranch":
        return self

    def encode(self, points) -> np.ndarray:
        return np.array(points)

    def step(self, *codes: np.ndarray) -> list[np.ndarray]:
        return [self._table[:, x] for x in codes]


def _powers(base: float, k: np.ndarray) -> np.ndarray:
    """base ** k elementwise, as Python float powers (np.power may round differently)."""
    return np.array([base ** j for j in range(int(k.max()) + 1)])[k]


class WordTreeModel(Model):
    """Words over {1..m} with prefixing maps and a geometric defect tower.

    Kernel: a diagonal part plus eta times a rank-one part, minus a
    diagonal strict-subinvariance term that the branching operator scales
    by r.  Closed forms: level n kernel = limit - r^n * (strict term),
    defects r^n (1-r) * (strict term), gauge (1+eta) m^{-|s|}.
    """

    def __init__(self, m: int = 2, r: float = 0.5, c: float = 0.5, eta: float = 1.0):
        if m < 2:
            raise InputError("word-tree model needs m >= 2")
        if not 0.0 < r < 1.0:
            raise InputError("word-tree model needs 0 < r < 1")
        if not 0.0 < c < 1.0:
            raise InputError("word-tree model needs 0 < c < 1")
        if not eta >= 0.0:
            raise InputError("word-tree model needs eta >= 0")
        self.m, self.r, self.c, self.eta = m, float(r), float(c), float(eta)
        self.name = f"word-tree(m={m},r={r},c={c},eta={eta})"
        self.branch = PrefixBranch(m)
        self._inv_m = 1.0 / m
        self._inv_sqrt_m = m ** -0.5
        # Every route computes each power as base ** k, a Python float power,
        # so the scalar kernel, its batch and the oracles agree bit for bit.
        self.kernel = Kernel(self._make_eval(), name=f"K[{self.name}]",
                             batch=KernelBatch(self.branch, self._batch_eval))
        # Named parts, exposed for order/invariance tests.
        self.diag_invariant = Kernel(self._j0, name="J0")   # L-invariant, diagonal
        self.rank_one = Kernel(self._j1, name="J1")         # L-invariant, rank one
        self.strict_part = Kernel(self._e, name="E")        # L E = r E
        self.majorant = Kernel(self._j, name="J")           # = limit kernel

    def point(self, spec) -> Point:
        return _parse_word(spec, self.m)

    # kernel parts -----------------------------------------------------
    def _j0(self, u, v):
        return self._inv_m ** len(u) if u == v else 0.0

    def _j1(self, u, v):
        return self._inv_sqrt_m ** (len(u) + len(v))

    def _e(self, u, v):
        if u != v:
            return 0.0
        k = len(u)
        return self.c * self.r ** k * self._inv_m ** k

    def _j(self, u, v):
        return self._j0(u, v) + self.eta * self._j1(u, v)

    def _make_eval(self):
        # Flat closure over locals for the hot path.
        inv_m, inv_sqrt_m = self._inv_m, self._inv_sqrt_m
        r, c, eta = self.r, self.c, self.eta

        def evaluate(u, v):
            lu = len(u)
            val = eta * inv_sqrt_m ** (lu + len(v))
            if u == v:
                val += inv_m ** lu * (1.0 - c * r ** lu)
            return val

        return evaluate

    def _batch_eval(self, codes, a, b):
        # The scalar kernel's operations, elementwise.
        lu, same = codes.lengths(a), a == b
        val = self.eta * _powers(self._inv_sqrt_m, lu + codes.lengths(b))
        if same.any():
            ls = lu[same]
            val[same] += _powers(self._inv_m, ls) * (1.0 - self.c * _powers(self.r, ls))
        return val

    # closed-form oracles ----------------------------------------------
    def oracle_level(self, n: int, u, v) -> float:
        """Level-n tower kernel."""
        return self._j(u, v) - self.r**n * self._e(u, v)

    def oracle_defect(self, n: int, u, v) -> float:
        """Level-n defect kernel (diagonal, geometric in n)."""
        return self.r**n * (1.0 - self.r) * self._e(u, v)

    def oracle_limit(self, u, v) -> float:
        """Minimal invariant majorant of the kernel."""
        return self._j(u, v)

    def oracle_gauge(self, s) -> float:
        """Harmonic gauge = limit diagonal = (1+eta) m^{-|s|}."""
        return (1.0 + self.eta) * self._inv_m ** len(s)


class DivergentDeltaModel(Model):
    """Identity kernel on the word tree: every diagonal doubles per level.

    The branching operator multiplies the identity kernel by m, so the
    diagonal is m^n and the tower has no finite completion anywhere; used
    as the canonical blow-up witness model.
    """

    def __init__(self, m: int = 2):
        if m < 2:
            raise InputError("divergent delta model needs m >= 2")
        self.m = m
        self.name = f"delta(m={m})"
        self.branch = PrefixBranch(m)
        self.kernel = Kernel(lambda u, v: 1.0 if u == v else 0.0, name="delta",
                             batch=KernelBatch(self.branch, lambda codes, a, b: (a == b).astype(float)))

    def point(self, spec) -> Point:
        return _parse_word(spec, self.m)

    def oracle_level(self, n: int, u, v) -> float:
        return float(self.m**n) if u == v else 0.0

    def oracle_defect(self, n: int, u, v) -> float:
        return float(self.m**n * (self.m - 1)) if u == v else 0.0


class FiniteStateModel(Model):
    """S states, m map tables, one symmetric PSD kernel table."""

    def __init__(self, maps: Sequence[Sequence[int]], kernel: Sequence[Sequence[float]],
                 name: str = "finite-state", tol: float = DEFAULT_PSD_TOL):
        try:
            table = np.array(kernel, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            raise InputError("finite-state kernel table must be a rectangular table of numbers") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InputError("finite-state kernel table must be square")
        self.S = table.shape[0]
        gap = np.abs(table - table.T)
        s, t = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[s, t] > 1e-12 * max(1.0, float(np.max(np.abs(table)))):
            raise InputError(f"finite-state kernel table must be symmetric: "
                             f"K[{s}, {t}] = {table[s, t]} but K[{t}, {s}] = {table[t, s]}")
        i, j = np.tril_indices(self.S, -1)
        table[i, j] = table[j, i]  # copied, not averaged: a sum would turn -0.0 into +0.0
        report = psd_check(table, tol)
        if not report.psd:
            raise InputError(f"finite-state kernel table is not PSD: {report.summary()}")
        self.maps_table = [list(row) for row in maps]
        if not self.maps_table:
            raise InputError("finite-state model needs at least one map table")
        for k, row in enumerate(self.maps_table):
            if len(row) != self.S:
                raise InputError(f"map table {k} has {len(row)} entries, expected {self.S}")
            for s, x in enumerate(row):
                try:
                    row[s] = operator.index(x)  # any integer, stored as a Python int
                except TypeError:
                    row[s] = -1  # not an integer: refused as out of range below
                if not 0 <= row[s] < self.S:
                    raise InputError(f"map table {k} sends state {s} to {x!r}, outside 0..{self.S - 1}")
        self.table = table
        self.m = len(self.maps_table)
        self.name = name
        self.branch = TableBranch(self.maps_table, name=f"{name}-maps")
        self.kernel = Kernel(lambda s, t: float(table[s, t]), name=f"K[{name}]",
                             batch=KernelBatch(self.branch, lambda codes, a, b: table[a, b]))

    def point(self, spec) -> Point:
        try:  # a label, or an integer (not a float, which would be truncated)
            s = int(spec) if isinstance(spec, str) else operator.index(spec)
        except (TypeError, ValueError):
            raise InputError(f"finite-state point {spec!r} must be an integer state") from None
        if not 0 <= s < self.S:
            raise InputError(f"state {s} outside 0..{self.S - 1}")
        return s

    def all_states(self) -> list[int]:
        return list(range(self.S))


def feeder_model() -> FiniteStateModel:
    """3-state builtin: one feeder state with a one-step defect.

    State 1 is the kernel-null sink, state 0 a fixed spine, state 2 feeds
    into the spine under both maps.  The defect is supported at the feeder
    (value 0.5), the tower is constant from level 1 on, and the harmonic
    gauge (1, 0, 2) gives a nondegenerate Doob chain on states {0, 2}.
    """
    return FiniteStateModel(
        maps=[[0, 1, 0], [1, 1, 0]],
        kernel=[[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.5]],
        name="feeder",
    )


def load_finite_state(params: Mapping, tol: float = DEFAULT_PSD_TOL) -> FiniteStateModel:
    """The finite-state model of config params, as config.py checked them."""
    return FiniteStateModel(**params, tol=tol)


def build_model(kind: str, params: Mapping, tol: float = DEFAULT_PSD_TOL) -> Model:
    """Registry used by config ingestion: ``params`` as config.py checked them;
    ``tol`` is the PSD tolerance of a finite-state kernel table."""
    if kind == "word-tree":
        return WordTreeModel(**params)
    if kind == "delta":
        return DivergentDeltaModel(**params)
    if kind == "feeder":
        return feeder_model()
    if kind == "finite-state":
        return load_finite_state(params, tol)
    raise InputError(f"unknown model kind {kind!r} (expected word-tree | delta | feeder | finite-state)")
