"""Level-set sampling of convex bodies, mixed volumes, and mean radii.

Every body is the boundary of a sublevel set {u < t} of an admissible
field, sampled by ray shooting from the interior anchor along a
deterministic direction grid; the ray roots of every level and direction
come from one Newton solve on the field's ray restriction, which drops
the levels it has converged (rays._ray_roots), and the field jets at the
roots from the same restriction. The sample carries the closed-form
surface weights s^(n-1) |grad u| / (grad u . w) dsigma(w), anisotropic
curvatures of every order, and the data for the mixed-volume functionals

    W_k = [n binom(n-1, k-1)]^{-1} * integral of S_{k-1}(curv) F(normal),

with W_0 the enclosed volume via the divergence identity. The k-th mean
radius is (W_k / kappa_n)^{1/(n-k)}, the radius of the Wulff ball sharing
that mixed volume; differences of mean radii across orders are the
Aleksandrov-Fenchel margins, nonnegative for convex bodies and zero
exactly on Wulff balls. Sampling runs by block of levels: one ray solve,
one jet pass and one curvature pass serve all the levels of a block,
which reaches its ``reduce`` hook as one SampleBlock. A LevelTable has the
sampler threads reduce each block of one family to the mean radii and
coarea integrands that every symmetrization harness reads, with one
array sum per quantity for all the levels of the block.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .anisotropy import Norm, wulff_volume
from .errors import DegenerateLevelError, DomainError, NumericError
from .field_ops import curvature_batch, level_grid
from .fields import Field
from .parallel import map_blocks
from .quad import chunked, rowsum
# boundary_radii and default_rays are re-exported: the benchmark tracer
# and the tests reach them here
from .rays import (  # noqa: F401
    _DirectionGrid,
    _ray_roots,
    boundary_radii,
    default_rays,
)

_GRAD_TOL = 1e-10
# ray roots per sampling block; the curvature pass holds (block, n, n)
# temporaries, so a larger block adds peak memory in 3D and no speed
_JET_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class LevelSetSample:
    """A sampled level set with per-point geometric data.

    For m points in dimension n: points, normals (m, n); f_of_nu = F(nu),
    gradient_norms = F(grad u), weights (m,); curvatures (n, m), row j the
    j-th anisotropic mean curvature S_j(F_il u_lj) (row 0 is one).
    diagnostics["residual_max"] is the largest |u - level| at the points.
    A SampleBlock stacks the samples of L levels on a leading axis: level
    and residual_max (L,), points (L, m, n), curvatures (n, L, m).
    """

    level: float
    points: np.ndarray
    normals: np.ndarray
    f_of_nu: np.ndarray
    curvatures: np.ndarray
    weights: np.ndarray
    gradient_norms: np.ndarray
    norm: Norm
    anchor: np.ndarray
    diagnostics: dict


# one sampling block as the reduce hook of sample_many gets it: live (L,)
# marks the levels of the block whose gradient does not vanish, and
# sample stacks the LevelSetSamples of the live levels, in level order
SampleBlock = namedtuple("SampleBlock", "live sample")


def _in_level_order(live, items):
    """One entry per level of a block: the next of ``items`` (one per
    live level) where live, None where degenerate."""
    items = iter(items)
    return [next(items) if alive else None for alive in live]


def _level_views(block: SampleBlock) -> list:
    """The default reduce: a LevelSetSample view of each live level."""
    b = block.sample
    return _in_level_order(block.live, (LevelSetSample(
        level=float(t), points=b.points[i], normals=b.normals[i],
        f_of_nu=b.f_of_nu[i], curvatures=b.curvatures[:, i],
        weights=b.weights[i], gradient_norms=b.gradient_norms[i],
        norm=b.norm, anchor=b.anchor,
        diagnostics={"residual_max": float(b.diagnostics["residual_max"][i])})
        for i, t in enumerate(b.level)))


def _surface_weights(grid: _DirectionGrid, s, grads, gn):
    """Surface weights of x = s(w) w: its area element is
    s^(n-1) |grad u| / (grad u . w) dsigma(w), dsigma the grid's solid
    angle weights, and grad u . w = du/ds is positive at every root."""
    g_omega = rowsum(grads * grid.omega)
    return s ** (grid.dim - 1) * gn / g_omega * grid.solid


def sample_many(norm: Norm, u: Field, levels, rays: int | None = None,
                reduce=_level_views):
    """Sample many level sets at once; degenerate entries come back None.

    The levels are cut into blocks of about _JET_CHUNK ray roots, mapped
    over the worker threads (parallel.map_blocks). A block takes one ray
    solve, one jet pass and one curvature_batch call for all its levels;
    its levels with min |grad u| < _GRAD_TOL are degenerate and left out
    of the curvature pass. Each block goes to ``reduce`` as a SampleBlock
    on the thread that made it; ``reduce(block)`` returns one item per
    level of the block, in level order, None for a degenerate level. The
    list holds these items in level order; by default they are
    LevelSetSample views.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    m = u.min_value
    if np.any(levels <= m) or np.any(levels > 0.0):
        raise DomainError(
            f"levels must lie in ({m:.6g}, 0]; got range "
            f"[{levels.min():.6g}, {levels.max():.6g}]")
    grid = _DirectionGrid(u.dim, rays)
    restriction = u.ray(grid.omega)

    def block(bounds):
        t = levels[slice(*bounds)]
        s = _ray_roots(u, grid, t, restriction)
        vals, grads, hesses = restriction.jets(s)
        gn = np.sqrt(rowsum(grads * grads))
        # eval_jet raises on a zero gradient
        live = ~(np.min(gn, axis=-1) < _GRAD_TOL)
        if not np.all(live):
            t, s, vals, grads, hesses, gn = (
                x[live] for x in (t, s, vals, grads, hesses, gn))
        fgrad, curv = curvature_batch(norm, grads, hesses)
        return reduce(SampleBlock(live, LevelSetSample(
            level=t, points=u.anchor + s[..., None] * grid.omega,
            normals=grads / gn[..., None], f_of_nu=fgrad / gn,
            curvatures=curv, weights=_surface_weights(grid, s, grads, gn),
            gradient_norms=fgrad, norm=norm, anchor=u.anchor,
            diagnostics={"residual_max": np.max(
                np.abs(vals - t[:, None]), axis=-1)})))

    blocks = chunked(levels.shape[0], max(1, _JET_CHUNK // grid.count))
    return [x for part in map_blocks(block, blocks) for x in part]


def sample_level_set(norm: Norm, u: Field, t: float,
                     rays: int | None = None) -> LevelSetSample:
    """Sample the boundary of {u < t}; t must lie in (min u, 0]."""
    sample = sample_many(norm, u, [float(t)], rays=rays)[0]
    if sample is None:
        raise DegenerateLevelError(f"level t={t} carries vanishing gradient")
    if sample.diagnostics["residual_max"] > 1e-9:
        warnings.warn("ray roots converged below target accuracy: "
                      f"{sample.diagnostics['residual_max']:.2e}")
    return sample


def _mixed_volumes(sample: LevelSetSample, k: int):
    """W_k of each level a sample stacks, as a sum over its points axis."""
    n = sample.points.shape[-1]
    if k == 0:
        rel = sample.points - sample.anchor
        return np.sum(sample.weights * rowsum(rel * sample.normals),
                      axis=-1) / n
    coeff = 1.0 / (n * math.comb(n - 1, k - 1))
    return coeff * np.sum(
        sample.weights * sample.curvatures[k - 1] * sample.f_of_nu, axis=-1)


def _radius(norm: Norm, w: float, n: int, k: int) -> float:
    """Radius of the Wulff ball with mixed volume W_k = w, on Python floats
    (libm pow; an array ** can differ in the last ulp)."""
    if w <= 0.0:
        raise NumericError(f"nonpositive mixed volume W_{k} = {w:.3e}")
    return (w / wulff_volume(norm)) ** (1.0 / (n - k))


def mixed_volume(sample: LevelSetSample, k: int) -> float:
    """Mixed volume W_k of the sampled body with the unit Wulff ball."""
    n = sample.points.shape[-1]
    if not 0 <= k <= n - 1:
        raise DomainError(f"mixed-volume order k={k} outside [0, {n - 1}]")
    return float(_mixed_volumes(sample, k))


def mean_radius(sample: LevelSetSample, k: int) -> float:
    """Radius of the Wulff ball with the same k-th mixed volume."""
    n = sample.points.shape[-1]
    if not 0 <= k <= n - 1:
        raise DomainError(f"mean-radius order k={k} outside [0, {n - 1}]")
    return _radius(sample.norm, mixed_volume(sample, k), n, k)


def af_pairs(dim: int):
    """Order pairs (k, l), l < k, in the layout used by af_margins."""
    return [(k, l) for k in range(1, dim) for l in range(k)]


def af_margins(sample: LevelSetSample) -> np.ndarray:
    """Mean-radius gaps zeta_k - zeta_l for all l < k (Aleksandrov-Fenchel)."""
    n = sample.points.shape[-1]
    zeta = [mean_radius(sample, k) for k in range(n)]
    return np.array([zeta[k] - zeta[l] for k, l in af_pairs(n)])


# what a LevelTable keeps of one sampled level set: the mean radii
# zeta_0..zeta_{n-1}, the coarea sums of orders 1..n, residual_max, and
# the points (m, n), which callers that count sampled points (the
# benchmark tracer) read
LevelSums = namedtuple("LevelSums", "points zeta coarea residual_max")


def _level_sums(block: SampleBlock) -> list:
    """LevelSums of each level of a block, from one np.sum over the
    (L, m) points axis per mixed volume and coarea order."""
    b = block.sample
    n = b.points.shape[-1]
    w = [_mixed_volumes(b, j).tolist() for j in range(n)]
    coarea = [np.sum(b.weights * b.curvatures[k - 1] * b.gradient_norms ** k
                     * b.f_of_nu, axis=-1).tolist()
              for k in range(1, n + 1)]
    return _in_level_order(block.live, (LevelSums(
        b.points[i], [_radius(b.norm, w[j][i], n, j) for j in range(n)],
        [c[i] for c in coarea], float(b.diagnostics["residual_max"][i]))
        for i in range(len(b.level))))


class LevelTable:
    """Mean radii and coarea integrands of one sampled family of level sets.

    Built once from (norm, field, level grid, rays); ``levels`` is a level
    count for ``level_grid`` or an explicit array of levels. Degenerate
    levels are skipped with a warning and listed in ``skipped``. For the
    kept ``levels``, ``zeta[j]`` holds the mean radius zeta_j, j = 0..n-1,
    and ``coarea[k - 1]`` the surface integral of
    S_{k-1}(curv) F(grad u)^k F(nu), the coarea integrand of the
    k-Hessian energy, k = 1..n; ``residual_max`` is the largest
    |u - level| at the ray roots of the kept levels. The sampler threads
    reduce each sampling block to these sums (one LevelSums per level) as
    soon as it is sampled, with one array sum per quantity over all the
    levels of the block; the samples themselves are not kept.
    """

    def __init__(self, norm: Norm, u: Field, levels=200,
                 rays: int | None = None):
        grid = (level_grid(u, levels) if np.isscalar(levels)
                else np.asarray(levels, dtype=float))
        sums = sample_many(norm, u, grid, rays=rays, reduce=_level_sums)
        live = np.array([s is not None for s in sums], dtype=bool)
        for t in grid[~live]:
            warnings.warn(f"skipping degenerate level t={t:.6g}")
        kept = [s for s in sums if s is not None]
        self.norm, self.field, self.rays = norm, u, rays
        self.levels, self.skipped = grid[live], grid[~live]
        self.zeta = np.array([s.zeta for s in kept]).T.reshape(u.dim, -1)
        self.coarea = np.array([s.coarea for s in kept]).T.reshape(u.dim, -1)
        self.residual_max = max((s.residual_max for s in kept), default=0.0)
