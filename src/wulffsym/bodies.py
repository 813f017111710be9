"""Level-set sampling of convex bodies, mixed volumes, and mean radii.

Every body is the boundary of a sublevel set {u < t} of an admissible
field, sampled by ray shooting from the interior anchor along a
deterministic direction grid; the ray roots of every level and direction
come from one Newton solve on the field's ray restriction, which drops
the levels it has converged (rays._ray_roots), and the field jets at the
roots from the same restriction. The sample carries the closed-form
surface weights s^(n-1) |grad u| / (grad u . w) dsigma(w), anisotropic
curvatures up to the order its caller reads, and the data for the
mixed-volume functionals

    W_k = [n binom(n-1, k-1)]^{-1} * integral of S_{k-1}(curv) F(normal),

with W_0 the enclosed volume via the divergence identity,
W_0 = (1/n) * integral of the support value h = (x - anchor) . nu, which
at the root x = anchor + s w is s (grad u . w) / |grad u|: every W_k is a
sum of per-point scalars, so no normal vectors are built for it. The
curvature row of order 1 is a trace sum and, in 3D, that of order 2 is
S_2(D^2F) nu^T adj(D^2u) nu; every other row of order >= 2 reads the
product matrix F_il u_lj (field_ops.curvature_batch). The k-th mean
radius is (W_k / kappa_n)^{1/(n-k)}, the radius of the Wulff ball sharing
that mixed volume; differences of mean radii across orders are the
Aleksandrov-Fenchel margins, nonnegative for convex bodies and zero
exactly on Wulff balls. Sampling runs by block of levels: one ray solve
(from the boundary radii of the field's ray fan, solved once per field
and direction count), one jet pass and one curvature pass serve all the
levels of a block, whose live (non-degenerate) levels reach its
``reduce`` hook as one stacked LevelSetSample. The norm Hessian of a
block is stored as (n, n, L, m), one row of points per entry, and read
as an (L, m, n, n) view of unspecified strides. A LevelTable samples
the Gauss levels of one probe ray (field_ops.level_rule) and reduces
each block to the mean radii and coarea integrands that every
symmetrization harness reads, with one array sum per quantity for all
the levels of the block.
It sums the coarea integrands of the orders it is built with only, and
samples the curvatures up to the highest order that its mean radii and
those sums read: S_0..S_{n-2} for zeta_0..zeta_{n-1}, and S_{k-1} for the
coarea order k; a table that reads S_0 and S_1 builds no norm Hessian.
"""

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .anisotropy import Norm, wulff_volume
from .errors import DegenerateLevelError, DomainError, NumericError
from .field_ops import _GRAD_TOL, curvature_batch, level_rule
from .fields import Field
from .invariants import _check_order
from .quad import chunked, colwise, diff_matrix, interp_matrix, rowsum
# boundary_radii and default_rays are re-exported: the benchmark tracer
# and the tests reach them here
from .rays import _ray_roots, boundary_radii, default_rays  # noqa: F401

# ray roots per sampling block; the curvature pass holds (block, n, n)
# temporaries, so a larger block adds peak memory in 3D and no speed
_JET_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class LevelSetSample:
    """A sampled level set with per-point geometric data.

    For m points in dimension n: points, gradients = grad u (m, n);
    support = (x - anchor) . nu, the support value of the body in the
    normal direction nu, f_of_nu = F(nu), gradient_norms = F(grad u),
    weights (m,); curvatures (top + 1, m), row j the j-th anisotropic mean
    curvature S_j(F_il u_lj) (row 0 is one; top is sample_many's, n - 1
    by default). The unit normals grad u / |grad u| (m, n) are built on
    first read of ``normals``.
    diagnostics["residual_max"] is the largest |u - level| at the points.
    The ``reduce`` hook of sample_many gets the samples of the L live
    levels of a block stacked on a leading axis: level and residual_max
    (L,), points and gradients (L, m, n), curvatures (top + 1, L, m).
    """

    level: float
    points: np.ndarray
    gradients: np.ndarray
    support: np.ndarray
    f_of_nu: np.ndarray
    curvatures: np.ndarray
    weights: np.ndarray
    gradient_norms: np.ndarray
    norm: Norm
    anchor: np.ndarray
    diagnostics: dict

    @functools.cached_property
    def normals(self) -> np.ndarray:
        g = self.gradients
        return g / np.sqrt(rowsum(g * g))[..., None]


def _level_views(b: LevelSetSample) -> list:
    """The default reduce: a LevelSetSample view of each stacked level."""
    return [LevelSetSample(
        level=float(t), points=b.points[i], gradients=b.gradients[i],
        support=b.support[i], f_of_nu=b.f_of_nu[i],
        curvatures=b.curvatures[:, i], weights=b.weights[i],
        gradient_norms=b.gradient_norms[i],
        norm=b.norm, anchor=b.anchor,
        diagnostics={"residual_max": float(b.diagnostics["residual_max"][i])})
        for i, t in enumerate(b.level)]


def _surface_terms(grid, s, grads, gn):
    """(weights, support) of the points x = s(w) w of a level set: the
    area element s^(n-1) |grad u| / (grad u . w) dsigma(w), dsigma the
    grid's solid angle weights, and the support value
    x . nu = s (grad u . w) / |grad u|; grad u . w = du/ds is positive at
    every root."""
    g_omega = rowsum(grads * grid.omega)
    return (s ** (grid.dim - 1) * gn / g_omega * grid.solid,
            s * g_omega / gn)


def sample_many(norm: Norm, u: Field, levels, rays: int | None = None,
                reduce=_level_views, top: int | None = None):
    """Sample many level sets at once; degenerate entries come back None.

    The levels are cut into blocks of about _JET_CHUNK ray roots, run in
    order on u.fan(rays), whose boundary radii are solved once per fan.
    Every block, also in a call of one level, takes one ray solve, started
    at those radii scaled by sqrt((t - m) / (0 - m)) (m = u.min_value;
    rays._ray_roots), one jet pass and one curvature_batch call for all
    its levels; its levels with min |grad u| < _GRAD_TOL are degenerate
    and left out of the curvature pass, which builds the orders 0..top
    (None means n - 1; curvature_batch). For each block, ``reduce`` gets
    one LevelSetSample stacking its live levels, in level order, and
    returns one item per live level. The list holds these items in level
    order, with None at each degenerate level; by default they are
    LevelSetSample views.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    m = u.min_value
    if not np.all((m < levels) & (levels <= 0.0)):  # NaN fails as well
        raise DomainError(
            f"levels must lie in ({m:.6g}, 0]; got range "
            f"[{levels.min():.6g}, {levels.max():.6g}]")
    fan, radii = u.fan(rays), boundary_radii(u, rays)

    def block(bounds):
        t = levels[slice(*bounds)]
        s = _ray_roots(fan, t, radii)
        vals, grads, hesses = fan.restriction.jets(s)
        gn = np.sqrt(rowsum(grads * grads))
        # eval_jet raises on a zero gradient
        live = ~(np.min(gn, axis=-1) < _GRAD_TOL)
        if not np.all(live):
            t, s, vals, grads, hesses, gn = (
                x[live] for x in (t, s, vals, grads, hesses, gn))
        fgrad, curv = curvature_batch(norm, grads, hesses, top=top)
        weights, support = _surface_terms(fan.grid, s, grads, gn)
        points = colwise(np.multiply, fan.grid.omega, s, u.anchor)
        items = iter(reduce(LevelSetSample(
            level=t, points=points,
            gradients=grads, support=support, f_of_nu=fgrad / gn,
            curvatures=curv, weights=weights,
            gradient_norms=fgrad, norm=norm, anchor=u.anchor,
            diagnostics={"residual_max": np.max(
                np.abs(vals - t[:, None]), axis=-1)})))
        return [next(items) if alive else None for alive in live]

    blocks = chunked(levels.shape[0], max(1, _JET_CHUNK // fan.grid.count))
    return [x for bounds in blocks for x in block(bounds)]


def sample_level_set(norm: Norm, u: Field, t: float,
                     rays: int | None = None,
                     top: int | None = None) -> LevelSetSample:
    """Sample the boundary of {u < t}; t must lie in (min u, 0]. The
    curvatures run to order ``top`` (sample_many)."""
    sample = sample_many(norm, u, [float(t)], rays=rays, top=top)[0]
    if sample is None:
        raise DegenerateLevelError(f"level t={t} carries vanishing gradient")
    if sample.diagnostics["residual_max"] > 1e-9:
        warnings.warn("ray roots converged below target accuracy: "
                      f"{sample.diagnostics['residual_max']:.2e}")
    return sample


def _mixed_volumes(sample: LevelSetSample, k: int):
    """W_k of each level a sample stacks, as a sum over its points axis of
    per-point scalars: W_0 from the support values (the divergence
    identity), W_k from S_{k-1}(curv) F(nu)."""
    n = sample.points.shape[-1]
    if k == 0:
        return np.sum(sample.weights * sample.support, axis=-1) / n
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
    _check_order(k, sample.points.shape[-1] - 1)
    rows = sample.curvatures.shape[0]
    if k > rows:
        raise DomainError(f"W_{k} reads curvature row {k - 1}, the sample "
                          f"holds rows 0..{rows - 1}; sample with top={k - 1}")
    return float(_mixed_volumes(sample, k))


def mean_radius(sample: LevelSetSample, k: int) -> float:
    """Radius of the Wulff ball with the same k-th mixed volume."""
    return _radius(sample.norm, mixed_volume(sample, k),
                   sample.points.shape[-1], k)


def af_pairs(dim: int):
    """Order pairs (k, l), l < k, in the layout used by af_margins."""
    return [(k, l) for k in range(1, dim) for l in range(k)]


def af_margins(sample: LevelSetSample) -> np.ndarray:
    """Mean-radius gaps zeta_k - zeta_l for all l < k (Aleksandrov-Fenchel)."""
    n = sample.points.shape[-1]
    zeta = [mean_radius(sample, k) for k in range(n)]
    return np.array([zeta[k] - zeta[l] for k, l in af_pairs(n)])


# what a LevelTable keeps of one sampled level set: the mean radii
# zeta_0..zeta_{n-1}, the coarea sums of its orders, residual_max, and
# the points (m, n), which callers that count sampled points (the
# benchmark tracer) read
LevelSums = namedtuple("LevelSums", "points zeta coarea residual_max")


def _level_sums(b: LevelSetSample, orders) -> list:
    """LevelSums of each stacked level, from one np.sum over the (L, m)
    points axis per mixed volume and coarea order of ``orders``."""
    n = b.points.shape[-1]
    w = [_mixed_volumes(b, j).tolist() for j in range(n)]
    coarea = [np.sum(b.weights * b.curvatures[k - 1] * b.gradient_norms ** k
                     * b.f_of_nu, axis=-1).tolist()
              for k in orders]
    return [LevelSums(
        b.points[i], [_radius(b.norm, w[j][i], n, j) for j in range(n)],
        [c[i] for c in coarea], float(b.diagnostics["residual_max"][i]))
        for i in range(len(b.level))]


class LevelTable:
    """Mean radii and coarea integrands of one sampled family of level sets.

    Built once from (norm, field, level count, rays, orders) on
    field_ops.level_rule and u.fan(rays), which the field's later readers
    share. Per node of the rule: its ``s``, ``weights``, ``levels`` and
    ``slopes``; ``sampled``; ``zeta[j]``, the mean radius zeta_j,
    j = 0..n-1, and ``zeta_slopes[j]`` its s-derivative (quad.diff_matrix);
    ``coarea[i]``, the surface integral of S_{k-1}(curv) F(grad u)^k F(nu),
    the coarea integrand of the k-Hessian energy, for the i-th order k of
    ``orders``: the sorted orders in 1..n of the argument (None means all,
    so that ``coarea[k - 1]`` is order k; hessian_integral_coarea raises on
    an order left out). A level that rounds onto min u or is degenerate is
    skipped with a warning and listed in ``skipped``; fewer than a quarter
    of the levels sampled raise NumericError. Below the lowest sampled node
    s_*, zeta takes the anchor limit (s / s_*) zeta(s_*) and coarea 0;
    above it, the value of the polynomials in s through the sampled nodes
    (quad.interp_matrix). ``residual_max`` is the largest |u - level| at
    the sampled ray roots. The samples themselves are not kept.
    """

    def __init__(self, norm: Norm, u: Field, levels: int = 200,
                 rays: int | None = None, orders=None):
        n = u.dim
        rule = level_rule(u, levels, rays)
        s, t = rule[0], rule[2]
        self.orders = tuple(range(1, n + 1) if orders is None else
                            sorted({k for k in orders if 1 <= k <= n}))
        live = t > u.min_value
        sums = sample_many(
            norm, u, t[live], rays=rays,
            reduce=lambda b: _level_sums(b, self.orders),
            top=max(n - 2, max(self.orders, default=0) - 1))
        live[live] = [x is not None for x in sums]
        for level in t[~live]:
            warnings.warn(f"skipping degenerate level t={level:.6g}")
        if np.sum(live) < live.size // 4:
            raise NumericError("too many degenerate levels in the grid")
        kept = [x for x in sums if x is not None]
        first = int(np.argmax(live))
        self.norm, self.field, self.rays = norm, u, rays
        self.s, self.weights, self.levels, self.slopes = rule
        self.sampled, self.skipped = live, t[~live]
        vals = np.zeros((n + len(self.orders), t.size))
        vals[:, live] = np.array([x.zeta + x.coarea for x in kept]).T
        gap = ~live & (np.arange(t.size) > first)
        vals[:, gap] = vals[:, live] @ interp_matrix(s[live], s[gap]).T
        vals[:n, :first] = vals[:n, first:first + 1] * (s[:first] / s[first])
        self.zeta, self.coarea = vals[:n], vals[n:]
        self.zeta_slopes = self.zeta @ diff_matrix(s).T
        self.residual_max = max((x.residual_max for x in kept), default=0.0)
