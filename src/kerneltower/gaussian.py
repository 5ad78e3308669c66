"""Monte-Carlo realization of the Gaussian defect martingale.

Level fields are linear images of independent standard normal vectors
through square-root factors of the base Gram and the defect Grams, so the
level-n field has covariance exactly the level-n Gram, increments across
levels are independent, and the per-level increment covariance is the
corresponding defect Gram.  Real scalars normalized to unit variance
throughout; all builtin kernels are real symmetric.

RNG contract: Philox 4x64-10 counter-based bit generator
(numpy.random.Philox) keyed by the 64-bit seed; identical seed and shape
requests reproduce the sample stream bit for bit.  Sampling and the limit
fields read the same draw g[j, k, a] (sample j, level k, point a).  numpy
fills a draw in C order, so it is the flat prefix of any longer draw under
the same seed (``TowerSampler.prefix``).  A sampler factors its tower
once; the seed only keys the draw; ``sample(n)`` is ``fields(draw(n))``
bit for bit.  ``sample`` draws its noise in chunks of at most
_CHUNK_NORMALS normals from one generator; successive draws continue one
stream, so the chunks concatenate to ``draw(n)``, and each is copied into
a level-major array that the products then overwrite, so the full draw is
never held beside the fields.  The level-n field is the sum over k <= n of
g[:, k, :] @ F_k^T, formed bit for bit as a per-level product over all
samples at once followed by a running sum: one product per level, as the
rows a BLAS product returns can depend on its row count.  ``limit``
forms only Y and Z, in one product over all levels, so Y equals the
level-0 field exactly and Z equals the top-level field to rounding.  Where
a Gram diagonal is exactly zero its factor row is zero (``sqrt_factor``),
so the field and its increments are exactly zero there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagonal import classify_sequence
from .errors import InputError, NumericalError
from .kernels import DEFAULT_PSD_TOL, Kernel
from .points import BranchSystem, Point, point_label
from .reports import write_csv
from .rngs import make_rng
from .tower import DEFAULT_CEILING, Tower, build_tower

PASS_SIGMA = 5.0
# Normals (8 bytes each) of noise drawn at a time.
_CHUNK_NORMALS = 1 << 18
# The most of the fields' size that martingale_checks holds as increments: two groups of levels.
_STACK_SHARE = 0.5


class TowerSampler:
    """Draws centered Gaussian field levels with covariances K_0..K_N; factors once."""

    def __init__(self, tower: Tower, seed: int, tol: float = DEFAULT_PSD_TOL):
        self.seed = int(seed)
        self.points = tower.points
        try:
            self.factors = tower.factors(tol)
        except NumericalError as exc:
            raise NumericalError(f"sampler factorization failed: {exc}") from exc
        self.factors_t = np.stack([F.T for F in self.factors])  # (levels, P, P)

    def draw(self, nsamples: int, seed: int | None = None) -> np.ndarray:
        """The noise g[j, k, a] behind sample j, level k, point a; keyed by ``seed``."""
        _check_nsamples(nsamples)
        rng = make_rng(self.seed if seed is None else seed)
        return rng.standard_normal((nsamples, len(self.factors), len(self.points)))

    def prefix(self, g: np.ndarray) -> np.ndarray:
        """This sampler's draw under the seed of the longer draw g: a view of its first normals."""
        shape = (len(g), len(self.factors), len(self.points))
        return g.reshape(-1)[: math.prod(shape)].reshape(shape)

    def fields(self, g: np.ndarray) -> "FieldBatch":
        """The batch noise g gives: values[j, n, a] = level-n field of sample j at point a."""
        noise = g.transpose(1, 0, 2)
        return self._fields(noise, np.empty(noise.shape))

    def _fields(self, noise: np.ndarray, fields: np.ndarray) -> "FieldBatch":
        """Level-major fields[k] = noise[k] @ F_k^T, then the running sum over levels.

        ``fields`` may be ``noise`` itself: each product then goes through
        one level buffer.  Adding one contiguous level at a time does
        cumsum's additions several times faster.
        """
        level = np.empty(noise.shape[1:]) if fields is noise else None
        for k, F_t in enumerate(self.factors_t):
            np.matmul(noise[k], F_t, out=fields[k] if level is None else level)
            if level is not None:
                fields[k] = level
            if k:
                np.add(fields[k - 1], fields[k], out=fields[k])
        return FieldBatch(fields, self.points, self.seed)

    def limit(self, g: np.ndarray) -> "LimitFields":
        """(Z, Y) from noise g: the top-level field and the level-0 component."""
        # One product of the flattened noise against [F_0^T over zeros | F_0^T..F_N^T]:
        # the first P columns are Y, the last P the top-level field Z.
        L, P = len(self.factors), len(self.points)
        W = np.zeros((L * P, 2 * P))
        W[:P, :P] = self.factors_t[0]
        W[:, P:] = self.factors_t.reshape(L * P, P)
        YZ = g.reshape(len(g), L * P) @ W
        return LimitFields(Z=YZ[:, P:], Y=YZ[:, :P], points=self.points, levels_used=L - 1)

    def sample(self, nsamples: int) -> "FieldBatch":
        """One batch of ``nsamples`` under the sampler's seed: ``fields(draw(nsamples))``.

        Holds the fields plus one chunk of noise or one level's product.
        """
        _check_nsamples(nsamples)
        rng = make_rng(self.seed)
        L, P = len(self.factors), len(self.points)
        noise = np.empty((L, nsamples, P))
        rows = max(1, _CHUNK_NORMALS // (L * P))
        for start in range(0, nsamples, rows):
            stop = min(start + rows, nsamples)
            noise[:, start:stop] = rng.standard_normal((stop - start, L, P)).transpose(1, 0, 2)
        return self._fields(noise, noise)


def _check_nsamples(nsamples: int) -> None:
    if nsamples < 1:
        raise InputError("need at least one sample")


@dataclass
class FieldBatch:
    """Sampled field levels, stored level-major; increments are level differences."""

    fields: np.ndarray  # (levels 0..N, nsamples, npoints)
    points: tuple
    seed: int

    @property
    def values(self) -> np.ndarray:
        """values[j, n, a]: sample j, level n, point a (a view of ``fields``)."""
        return self.fields.transpose(1, 0, 2)

    @property
    def nsamples(self) -> int:
        return self.fields.shape[1]

    @property
    def top_level(self) -> int:
        return self.fields.shape[0] - 1

    def level(self, n: int) -> np.ndarray:
        return self.fields[n]

    def increment(self, n: int) -> np.ndarray:
        """Level-(n+1) minus level-n field; depends only on level-(n+1) noise."""
        return self.fields[n + 1] - self.fields[n]


def empirical_covariance(batch: FieldBatch, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of one level plus plug-in standard errors.

    The fields are exactly centered by construction, so the mean is not
    subtracted; the standard error is the Gaussian fourth-moment formula
    with the empirical covariance plugged in.
    """
    if batch.nsamples < 2:
        raise InputError("covariance estimation needs at least two samples")
    X = batch.level(level)
    return sample_covariance(X)


def sample_covariance(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of exactly-centered samples with plug-in standard errors."""
    n = X.shape[0]
    cov = _cross_products(X) / n
    return cov, _plugin_se(cov, np.einsum("ja,ja->a", X, X) / n, n)


def _cross_products(X: np.ndarray) -> np.ndarray:
    """X.T @ X; one column by ``np.einsum``, as OpenBLAS splits that inner product across threads."""
    return np.einsum("ja,ja->a", X, X)[:, None] if X.shape[1] == 1 else X.T @ X


def _plugin_se(cov: np.ndarray, var: np.ndarray, n: int) -> np.ndarray:
    """Standard errors of a centered covariance from n samples: the Gaussian
    fourth-moment formula with the estimate ``cov`` (diagonal ``var``) plugged in."""
    return np.sqrt(np.maximum(np.outer(var, var) + cov**2, 0.0) / n)


def _z_scores(delta: np.ndarray, se: np.ndarray) -> np.ndarray:
    """|delta|/se with exact zeros passing (degenerate directions)."""
    z = np.zeros_like(delta)
    mask = se > 0
    z[mask] = np.abs(delta[mask]) / se[mask]
    z[(~mask) & (np.abs(delta) > 0)] = np.inf
    return z


@dataclass
class MartingaleReport:
    """5-sigma checks of increment means, orthogonality, and quadratic variation."""

    max_mean_z: float
    max_cross_z: float
    max_qv_z: float
    threshold: float
    per_level_qv_z: list[float]

    @property
    def passed(self) -> bool:
        return max(self.max_mean_z, self.max_cross_z, self.max_qv_z) <= self.threshold


def martingale_checks(batch: FieldBatch, tower: Tower) -> MartingaleReport:
    """Verify the defect-martingale structure of a sampled batch.

    (i) increment means vanish, (ii) increments at different levels are
    uncorrelated, (iii) the level-n increment covariance matches the level-n
    defect Gram; each within PASS_SIGMA plug-in standard errors.

    All second moments come from Gram products of stacked increments: for
    a stack I (nsamples x m*P) of m levels' increments, I^T I / n holds
    their cross-level covariances (off-diagonal blocks) and increment
    covariances (diagonal blocks); (I*I)^T (I*I) / n gives the second
    moments of the cross products, hence their population-std standard
    errors.  The levels go in groups of whole levels, and one stack holds
    two groups side by side for each pair of groups (all levels, when they
    form one group), so every pair of levels shares a stack.  Each level's
    mean, std and quadratic variation, and each pair's cross moments, are
    read from the first stack that holds them.  The means and stds are
    column sums, the same bits in any stack; a Gram entry of a stack
    narrower than all levels can differ in its last bits from the one-stack
    entry, where OpenBLAS computes it in another micro-kernel tile.

    Memory: beside the fields, one stack of at most _STACK_SHARE of their
    size (or two levels), plus O((stack width)^2) floats.
    """
    N = batch.top_level
    if N < 1:
        raise InputError("martingale checks need at least one increment level")
    L, n, P = batch.fields.shape
    w = max(1, int(L * _STACK_SHARE) // 2)  # levels per group
    groups = [list(range(k, min(k + w, N))) for k in range(0, N, w)]
    stacks = [a + b for i, a in enumerate(groups) for b in groups[i + 1:]] or groups
    buf = np.empty(n * min(2 * w, N) * P)
    mean_z = cross_z = 0.0
    qv_z_per_level = [None] * N
    todo = np.triu(np.ones((N, N), dtype=bool), 1)  # level pairs not yet checked
    for levels in stacks:
        I = _stack_increments(batch.fields, levels, buf)
        if None in [qv_z_per_level[k] for k in levels]:
            mean = I.mean(axis=0)
            I -= mean
            I *= I  # I.std(axis=0) bit for bit, in place; then the increments again
            std = np.sqrt(I.sum(axis=0) / n)
            mean_z = max(mean_z, float(np.max(_z_scores(mean, std / math.sqrt(n)))))
            I = _stack_increments(batch.fields, levels, buf)

        pairs = np.ix_(levels, levels)
        cross = todo[pairs]  # the level pairs first met in this stack
        todo[pairs] = False
        m = len(levels)
        blocks = lambda G: G.reshape(m, P, m, P).transpose(0, 2, 1, 3)  # [i, j]: levels i, j
        G2 = blocks(_cross_products(I))  # n * M2; only the blocks read are divided
        I *= I
        M4 = blocks(_cross_products(I))[cross] / n
        M2 = G2[cross] / n
        cross_se = np.sqrt(np.maximum(M4 - M2**2, 0.0)) / math.sqrt(n)
        cross_z = max(cross_z, float(np.max(_z_scores(M2, cross_se), initial=0.0)))
        for i, k in enumerate(levels):
            if qv_z_per_level[k] is None:
                cov = G2[i, i] / n
                se = _plugin_se(cov, np.diag(cov), n)
                qv_z_per_level[k] = float(np.max(_z_scores(cov - tower.defects[k], se)))
        del G2, M4, M2, cross_se  # before the next stack's products

    return MartingaleReport(
        max_mean_z=mean_z,
        max_cross_z=cross_z,
        max_qv_z=max(qv_z_per_level),
        threshold=PASS_SIGMA,
        per_level_qv_z=qv_z_per_level,
    )


def _stack_increments(fields: np.ndarray, levels: list[int], buf: np.ndarray) -> np.ndarray:
    """I[j, i*P + a]: increment of sample j at point a on level ``levels[i]``,
    subtracted straight into the front of ``buf``."""
    _, n, P = fields.shape
    I = buf[: n * len(levels) * P].reshape(n, len(levels), P)
    for i, k in enumerate(levels):
        np.subtract(fields[k + 1], fields[k], out=I[:, i])
    return I.reshape(n, -1)


@dataclass
class LimitFields:
    """Truncated limit field Z and its level-0 compression Y.

    The compression operator is the coordinate projection onto the level-0
    summand, so Y is literally the level-0 component of the sample; Z - Y
    accumulates the defect contributions.
    """

    Z: np.ndarray
    Y: np.ndarray
    points: tuple
    levels_used: int


def limit_fields(sampler: TowerSampler, nsamples: int) -> LimitFields:
    """Sample (Z, Y) = (top-level field, level-0 component)."""
    return sampler.limit(sampler.draw(nsamples))


def boundedness_probe(
    K: Kernel,
    branch: BranchSystem,
    points: Sequence[Point],
    nsamples: int,
    horizon: int,
    seed: int,
    ceiling: float = DEFAULT_CEILING,
    tol: float = DEFAULT_PSD_TOL,
) -> str:
    """Classify boundedness from empirical second moments across levels.

    Tracks the summed second moment of the sampled fields level by level
    and applies the same finite-horizon verdict heuristic as the diagonal
    trace, with a noise floor of PASS_SIGMA standard errors.
    """
    tower = build_tower(K, branch, points, horizon, tol)
    batch = TowerSampler(tower, seed, tol).sample(nsamples)
    traces = []
    for level in range(batch.top_level + 1):
        X = batch.level(level)
        traces.append(float(np.einsum("ja,ja->", X, X) / batch.nsamples))
    # Noise floor: sampling error of the top-level squared-norm average.
    q = np.einsum("ja,ja->j", batch.level(batch.top_level), batch.level(batch.top_level))
    se_trace = float(q.std()) / math.sqrt(batch.nsamples)
    eps = PASS_SIGMA * se_trace + 1e-12
    return classify_sequence(traces, eps, ceiling)


def export_batch_csv(batch: FieldBatch, path) -> None:
    """Rows (seed, sample, level, point_label, value); shortest round-trip floats."""
    labels = [point_label(s) for s in batch.points]
    rows = (
        (batch.seed, j, n, lab, v)
        for j in range(batch.nsamples)
        for n, level in enumerate(batch.values[j].tolist())
        for lab, v in zip(labels, level)
    )
    write_csv(path, ["seed", "sample", "level", "point_label", "value"], rows)
