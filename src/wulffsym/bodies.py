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
exactly on Wulff balls. A LevelTable has the sampler threads reduce each
level set of one family to the mean radii and coarea integrands that
every symmetrization harness reads.
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
from .quad import chunked
# boundary_radii and default_rays are re-exported: the benchmark tracer
# and the tests reach them here
from .rays import (  # noqa: F401
    _DirectionGrid,
    _ray_roots,
    boundary_radii,
    default_rays,
)

_GRAD_TOL = 1e-10
_JET_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class LevelSetSample:
    """A sampled level set with per-point geometric data.

    For m points in dimension n: points, normals (m, n); f_of_nu = F(nu),
    gradient_norms = F(grad u), weights (m,); curvatures (n, m), row j the
    j-th anisotropic mean curvature S_j(F_il u_lj) (row 0 is one).
    diagnostics["residual_max"] is the largest |u - level| at the points.
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


def _surface_weights(grid: _DirectionGrid, s, grads, gn):
    """Surface weights of x = s(w) w: its area element is
    s^(n-1) |grad u| / (grad u . w) dsigma(w), dsigma the grid's solid
    angle weights, and grad u . w = du/ds is positive at every root."""
    g_omega = np.sum(grads * grid.omega, axis=-1)
    return s ** (grid.dim - 1) * gn / g_omega * grid.solid


def sample_many(norm: Norm, u: Field, levels, rays: int | None = None,
                reduce=lambda sample: sample):
    """Sample many level sets at once; degenerate entries come back None.

    The levels are cut into blocks of about _JET_CHUNK ray roots, mapped
    over the worker threads (parallel.map_blocks). Each sample is passed
    to ``reduce`` on the thread that made it, and the list holds what
    ``reduce`` returns, in level order.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    m = u.min_value
    if np.any(levels <= m) or np.any(levels > 0.0):
        raise DomainError(
            f"levels must lie in ({m:.6g}, 0]; got range "
            f"[{levels.min():.6g}, {levels.max():.6g}]")
    grid = _DirectionGrid(u.dim, rays or default_rays(u.dim))
    restriction = u.ray(grid.omega)

    def block(bounds):
        block_levels = levels[slice(*bounds)]
        s = _ray_roots(u, grid, block_levels, restriction)
        pts = u.anchor + s[..., None] * grid.omega
        vals, grads, hesses = restriction.jets(s)
        residual = np.abs(vals - block_levels[:, None])
        gn = np.linalg.norm(grads, axis=-1)
        weights = _surface_weights(grid, s, grads, gn)
        out = []
        for i, t in enumerate(block_levels):
            if np.min(gn[i]) < _GRAD_TOL:
                out.append(None)
                continue
            fgrad, curv = curvature_batch(norm, grads[i], hesses[i])
            out.append(reduce(LevelSetSample(
                level=float(t), points=pts[i],
                normals=grads[i] / gn[i][:, None], f_of_nu=fgrad / gn[i],
                curvatures=curv, weights=weights[i], gradient_norms=fgrad,
                norm=norm, anchor=u.anchor,
                diagnostics={"residual_max": float(np.max(residual[i]))})))
        return out

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


def mixed_volume(sample: LevelSetSample, k: int) -> float:
    """Mixed volume W_k of the sampled body with the unit Wulff ball."""
    n = sample.points.shape[-1]
    if k == 0:
        rel = sample.points - sample.anchor
        return float(np.sum(
            sample.weights * np.sum(rel * sample.normals, axis=-1)) / n)
    if not 1 <= k <= n - 1:
        raise DomainError(f"mixed-volume order k={k} outside [0, {n - 1}]")
    coeff = 1.0 / (n * math.comb(n - 1, k - 1))
    return coeff * float(np.sum(
        sample.weights * sample.curvatures[k - 1] * sample.f_of_nu))


def mean_radius(sample: LevelSetSample, k: int) -> float:
    """Radius of the Wulff ball with the same k-th mixed volume."""
    n = sample.points.shape[-1]
    if not 0 <= k <= n - 1:
        raise DomainError(f"mean-radius order k={k} outside [0, {n - 1}]")
    w = mixed_volume(sample, k)
    if w <= 0.0:
        raise NumericError(f"nonpositive mixed volume W_{k} = {w:.3e}")
    return (w / wulff_volume(sample.norm)) ** (1.0 / (n - k))


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


def _level_sums(sample: LevelSetSample) -> LevelSums:
    n = sample.points.shape[-1]
    return LevelSums(
        sample.points, [mean_radius(sample, j) for j in range(n)],
        [float(np.sum(sample.weights * sample.curvatures[k - 1]
                      * sample.gradient_norms ** k * sample.f_of_nu))
         for k in range(1, n + 1)],
        sample.diagnostics["residual_max"])


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
    reduce each level set to these sums (LevelSums) as soon as it is
    sampled; the samples themselves are not kept.
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
