"""Level-set sampling of convex bodies, mixed volumes, and mean radii.

Every body is the boundary of a sublevel set {u < t} of an admissible
field, sampled by ray shooting from the interior anchor along a
deterministic direction grid; the ray roots of every level and direction
come from one solve on the field's ray restriction (rays._ray_roots), and
the field jets at the roots from the same restriction. The sample carries
surface-measure weights, anisotropic curvatures of every order, and the
data needed for the mixed-volume functionals

    W_k = [n binom(n-1, k-1)]^{-1} * integral of S_{k-1}(curv) F(normal),

with W_0 the enclosed volume via the divergence identity. The k-th mean
radius is (W_k / kappa_n)^{1/(n-k)}, the radius of the Wulff ball sharing
that mixed volume; differences of mean radii across orders are the
Aleksandrov-Fenchel margins, nonnegative for convex bodies and zero
exactly on Wulff balls. A LevelTable reduces one sampled family of level
sets to the mean radii and coarea integrands that every symmetrization
harness reads.
"""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .anisotropy import Norm, wulff_volume
from .errors import DegenerateLevelError, DomainError, NumericError
from .field_ops import curvature_batch, level_grid
from .fields import Field
from .parallel import thread_count
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


def _surface_weights(grid: _DirectionGrid, s, grads):
    """Surface-measure weights from the angular parametrization Jacobian."""
    omega = grid.omega
    g_omega = np.einsum("lkd,kd->lk", grads, omega)
    if grid.dim == 2:
        g_t = np.einsum("lkd,kd->lk", grads, grid.d_theta)
        s_t = -s * g_t / g_omega
        jac = np.sqrt(s_t * s_t + s * s)
        return jac * grid.measure[None, :]
    g_th = np.einsum("lkd,kd->lk", grads, grid.d_theta)
    g_ph = np.einsum("lkd,kd->lk", grads, grid.d_phi)
    s_th = -s * g_th / g_omega
    s_ph = -s * g_ph / g_omega
    x_th = s_th[..., None] * omega[None] + s[..., None] * grid.d_theta[None]
    x_ph = s_ph[..., None] * omega[None] + s[..., None] * grid.d_phi[None]
    jac = np.linalg.norm(np.cross(x_th, x_ph), axis=-1)
    return jac * grid.measure[None, :]


def sample_many(norm: Norm, u: Field, levels, rays: int | None = None):
    """Sample many level sets at once; degenerate entries come back None."""
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    m = u.min_value
    if np.any(levels <= m) or np.any(levels > 0.0):
        raise DomainError(
            f"levels must lie in ({m:.6g}, 0]; got range "
            f"[{levels.min():.6g}, {levels.max():.6g}]")
    if rays is None:
        rays = default_rays(u.dim)
    grid = _DirectionGrid(u.dim, rays)
    restriction = u.ray(grid.omega)

    workers = min(thread_count(), max(1, levels.shape[0] // 8))
    if workers > 1:
        blocks = np.array_split(np.arange(levels.shape[0]), workers)
        out: list = [None] * levels.shape[0]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(_sample_block, norm, u, levels[b], grid,
                                restriction): b
                    for b in blocks if b.size}
            for fut, b in futs.items():
                for i, sample in zip(b, fut.result()):
                    out[i] = sample
        return out
    return _sample_block(norm, u, levels, grid, restriction)


def _sample_block(norm: Norm, u: Field, levels: np.ndarray,
                  grid: _DirectionGrid, restriction):
    s = _ray_roots(u, grid, levels, restriction)
    pts = u.anchor + s[..., None] * grid.omega[None, :, :]
    n_lev, n_dir = s.shape
    vals = np.empty(s.shape)
    grads = np.empty(pts.shape)
    hesses = np.empty(pts.shape + (u.dim,))
    for a, b in chunked(n_lev, max(1, _JET_CHUNK // n_dir)):
        vals[a:b], grads[a:b], hesses[a:b] = restriction.jets(s[a:b])
    residual = np.abs(vals - levels[:, None])
    gn = np.linalg.norm(grads, axis=-1)
    weights = _surface_weights(grid, s, grads)

    out = []
    for i, t in enumerate(levels):
        if np.min(gn[i]) < _GRAD_TOL:
            out.append(None)
            continue
        fgrad, curv = curvature_batch(norm, grads[i], hesses[i])
        nu = grads[i] / gn[i][:, None]
        fnu = fgrad / gn[i]
        out.append(LevelSetSample(
            level=float(t), points=pts[i], normals=nu, f_of_nu=fnu,
            curvatures=curv, weights=weights[i], gradient_norms=fgrad,
            norm=norm, anchor=u.anchor,
            diagnostics={"residual_max": float(np.max(residual[i]))}))
    return out


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


class LevelTable:
    """Mean radii and coarea integrands of one sampled family of level sets.

    Built once from (norm, field, level grid, rays); ``levels`` is a level
    count for ``level_grid`` or an explicit array of levels. Degenerate
    levels are skipped with a warning and listed in ``skipped``. For the
    kept ``levels``, ``zeta[j]`` holds the mean radius zeta_j, j = 0..n-1,
    and ``coarea[k - 1]`` the surface integral of
    S_{k-1}(curv) F(grad u)^k F(nu), the coarea integrand of the
    k-Hessian energy, k = 1..n. The level-set samples themselves are not
    kept.
    """

    def __init__(self, norm: Norm, u: Field, levels=200,
                 rays: int | None = None):
        grid = (level_grid(u, levels) if np.isscalar(levels)
                else np.asarray(levels, dtype=float))
        samples = sample_many(norm, u, grid, rays=rays)
        live = np.array([s is not None for s in samples], dtype=bool)
        for t in grid[~live]:
            warnings.warn(f"skipping degenerate level t={t:.6g}")
        kept = [s for s in samples if s is not None]
        self.norm = norm
        self.field = u
        self.rays = rays
        self.levels = grid[live]
        self.skipped = grid[~live]
        self.zeta = np.array([[mean_radius(s, j) for s in kept]
                              for j in range(u.dim)])
        self.coarea = np.array([
            [float(np.sum(s.weights * s.curvatures[k - 1]
                          * s.gradient_norms ** k * s.f_of_nu))
             for s in kept]
            for k in range(1, u.dim + 1)])
