"""Direction grids, ray roots and polar quadrature about a field's anchor.

Every field domain {u < 0} is star-shaped about the field's anchor, so
points of the domain are written anchor + s w with w from a
deterministic direction grid (uniform angles in 2D, Gauss latitudes
times uniform longitudes in 3D; _DirectionGrid owns the default count,
default_rays). A RayFan is a field's rays on one grid: the ray
restriction u.ray(omega) (fields.RayRestriction), the only way the field
is evaluated on that grid, the bounding-box exits and, once solved, the
boundary radii. Field.fan builds one per field and direction count, and
the level sampler, the polar rules and domain_volume all read it. One
root solver serves every level and ray at once (_ray_roots): safeguarded
Newton on sqrt(u - min u), read from the restriction's s -> (u, du/ds),
inside the bracket from the anchor to the box exit. The roots at level 0
are the boundary radii, solved once per fan and the only solve started
at the box exits; every other level t starts at them scaled by
sqrt((t - min u) / (0 - min u)), the root wherever u is quadratic along
the ray. The levels whose rays have all converged leave the iteration,
and rays left unconverged raise NumericError. The polar rule cuts each
ray from the anchor to its boundary radius into equal panels of the one
cached 48-node Gauss rule; the domain integrals use it with one panel,
the rearrangement grid with many. polar_integral runs over the blocks
of _CHUNK nodes of a rule in order, hands the field jets at the nodes to
an integrand that returns a stack of quantities, and sums each of them;
the polar table of field_ops asks it for every domain integral of one
rule at once. Arguments named u are fields.Field instances; the
module does not import fields, so anisotropy can integrate Wulff-ball
volumes on the same grids.
"""

import math

import numpy as np

from .errors import DomainError, NumericError
from .quad import chunked, colwise, legendre_rule

_NEWTON_ITERS = 100
# after a Newton step this small (relative to the root) the error is of
# the order of its square, far below rounding; the steps that rounding
# noise in u makes on the flattest rays (levels next to the minimum, about
# 1e-13) stay below it, so those solves end too
_NEWTON_RTOL = 1e-11
_EPS = np.finfo(float).eps
_CHUNK = 1 << 15
_RADIAL_NODES = 48


def default_rays(dim: int) -> int:
    return 2048 if dim <= 2 else 256


class _DirectionGrid:
    """Deterministic grid of ``rays`` directions (longitudes in 3D; None
    means default_rays); ``solid`` integrates over the solid angle (polar
    volume quadrature and level-set surface weights)."""

    def __init__(self, dim: int, rays: int | None = None):
        self.dim = dim
        rays = default_rays(dim) if rays is None else rays
        if rays < 1:
            raise DomainError(f"direction grids need rays >= 1; got {rays}")
        if dim == 2:
            theta = 2.0 * math.pi * np.arange(rays) / rays
            self.omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            self.solid = np.full(rays, 2.0 * math.pi / rays)
        elif dim == 3:
            nphi = rays
            nc = max(8, nphi // 2)
            c, wc = legendre_rule(nc)
            s = np.sqrt(1.0 - c * c)
            phi = 2.0 * math.pi * np.arange(nphi) / nphi
            self.omega = np.stack([
                np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                np.broadcast_to(c[:, None], (nc, nphi)).copy()],
                axis=-1).reshape(-1, 3)
            # quadrature in (cos(theta), phi)
            self.solid = (np.outer(wc, np.full(nphi, 2.0 * math.pi / nphi))
                          .reshape(-1))
        else:
            raise DomainError(
                "direction grids (level-set sampling and polar rules) "
                f"support dimensions 2 and 3; got {dim}")

    @property
    def count(self):
        return self.omega.shape[0]


class RayFan:
    """A field's rays on one _DirectionGrid (Field.fan): ``grid``, the
    restriction u.ray(grid.omega), ``min_value``, the ``box_exit`` distances
    to the bounding box, and the level-0 ``radii`` (None until solved)."""

    def __init__(self, u, rays: int):
        self.grid = grid = _DirectionGrid(u.dim, rays)
        self.restriction = u.ray(grid.omega)
        self.min_value = u.min_value
        box, omega = u.bounding_box - u.anchor[:, None], grid.omega
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hi = np.where(omega > 0, box[:, 1] / omega, np.inf)
            t_lo = np.where(omega < 0, box[:, 0] / omega, np.inf)
        self.box_exit = np.min(np.minimum(t_hi, t_lo), axis=-1)
        self.radii = None


def _ray_roots(fan: RayFan, levels: np.ndarray, radii=None):
    """Radii s with u(anchor + s omega) = t, shape (levels, directions).

    Safeguarded Newton (rtsafe) on sqrt(u - m), m = fan.min_value, with u
    and du/ds from ``fan.restriction.along``, inside the brackets from the
    anchor to the fan's box exits. Its step
    2 sqrt(u - m) (u - t) / ((sqrt(u - m) + sqrt(t - m)) du/ds) is exact
    wherever u is quadratic along the ray. A solve ends when the plain
    Newton step (u - t) / (du/ds) on u is below _NEWTON_RTOL s, so a square
    root clipped at zero next to the anchor never ends one. Converged
    entries stay fixed and a level whose entries have all converged leaves
    the iteration, so each row is the single-level solve; once every live
    entry passes the test, the solve returns their Newton steps, and the
    bracket state is built only when the first test fails. Without
    ``radii`` the solve starts at the box exits, as only the level-0 solve
    of boundary_radii does; given the fan's radii it starts at
    radii sqrt((t - m) / (0 - m)), clipped to the bracket. Where
    sqrt(u - m) is convex along the ray, as on every preset, that start is
    at or below the root, one Newton step from it lands at or above it, and
    Newton from above descends to the root inside the bracket, also at its
    edge, so the first step is not held to the halving test; where u is
    quadratic along the ray the start is the root to rounding, and the
    solve returns after one ``along`` call. Rays still unconverged after
    _NEWTON_ITERS steps raise NumericError.
    """
    shape = (levels.shape[0], fan.grid.count)
    t = levels[:, None]
    m = fan.min_value
    s_max = fan.box_exit * (1.0 + 1e-12)
    s = (np.broadcast_to(s_max, shape).copy() if radii is None
         else np.minimum(radii * np.sqrt((t - m) / -m), s_max))
    live = None
    for _ in range(_NEWTON_ITERS):
        val, slope = fan.restriction.along(s)
        g = val - t
        root = np.sqrt(np.maximum(val - m, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            done = np.abs(g / slope) <= _NEWTON_RTOL * s
            dx = 2.0 * root * g / ((root + np.sqrt(t - m)) * slope)
        cand = s - dx
        if live is None:
            if np.all(done):
                return cand
            out, rows = np.empty(shape), np.arange(shape[0])
            lo, hi = np.zeros(shape), np.broadcast_to(s_max, shape).copy()
            # the first Newton step has no previous step to halve
            step = np.full(shape, np.inf)
            live = np.ones(shape, dtype=bool)
        elif np.all(done | ~live):
            # a converged entry takes its Newton step, as below
            out[rows] = np.where(live, cand, s)
            return out
        below = g < 0.0
        np.copyto(lo, s, where=below)
        np.copyto(hi, s, where=~below)
        newton = done | ((cand > lo) & (cand < hi)
                         & (2.0 * np.abs(dx) <= step))
        nxt = np.where(newton, cand, 0.5 * (lo + hi))
        step = np.abs(nxt - s)
        # bisection ends once the bracket is down to rounding
        done |= step <= _EPS * nxt
        np.copyto(s, nxt, where=live)
        live &= ~done
        keep = np.any(live, axis=1)
        if not np.all(keep):
            out[rows[~keep]] = s[~keep]
            rows, t, lo, hi, s, step, live = (
                x[keep] for x in (rows, t, lo, hi, s, step, live))
            if rows.size == 0:
                return out
    raise NumericError(
        f"ray Newton left {np.count_nonzero(live)} rays unconverged after "
        f"{_NEWTON_ITERS} iterations (widest bracket left "
        f"{np.max((hi - lo)[live]):.3e}); u must increase along every ray "
        "from the anchor")


def boundary_radii(u, rays: int | None = None) -> np.ndarray:
    """Ray lengths from the anchor to the zero level set, one per direction
    of u.fan(rays): the fan's radii, solved from its box exits on the
    first call and shared, read-only, after it."""
    fan = u.fan(rays)
    if fan.radii is None:
        fan.radii = _ray_roots(fan, np.zeros(1))[0]
        fan.radii.flags.writeable = False
    return fan.radii


def _polar_rule(u, rays: int | None, panels: int = 1):
    """The polar rule node-major: (grid, restriction, radii, weights).

    The grid and restriction are those of u.fan(rays). Each ray from the
    anchor to its boundary radius is cut into ``panels`` equal pieces,
    each carrying the 48-node Gauss rule; radii and weights have shape
    (48 panels, directions), the weights with the polar Jacobian.
    """
    fan, s = u.fan(rays), boundary_radii(u, rays)
    x, wx = legendre_rule(_RADIAL_NODES)
    rho = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).reshape(-1)
    wr = np.tile(0.5 * wx, panels) / panels
    r = rho[:, None] * s[None, :]
    w = wr[:, None] * fan.grid.solid[None, :] * r ** (u.dim - 1) * s[None, :]
    return fan.grid, fan.restriction, r, w


def polar_grid(u, rays: int | None = None, panels: int = 1):
    """Boundary-fitted quadrature grid of {u < 0} (points, weights).

    ``rays`` directions (longitudes in 3D; default ``default_rays``); each
    ray from the anchor to its exactly solved boundary radius carries
    ``panels`` equal panels of 48 Gauss nodes, so no point is
    misclassified; weights include the polar Jacobian. Points run ray by
    ray.
    """
    grid, _, r, w = _polar_rule(u, rays, panels)
    pts = colwise(np.multiply, grid.omega[:, None, :], r.T, u.anchor)
    return pts.reshape(-1, u.dim), w.T.reshape(-1)


def polar_integral(integrand, rule, values_only: bool = False) -> list:
    """Integrals over {u < 0} of a stack of integrands on a polar rule.

    ``rule`` is _polar_rule(u, rays). Blocks of at most _CHUNK nodes run in
    order on the calling thread. The integrand receives the node rows of
    one block (a slice of the rule's first axis) and the field jets there
    from the rule's ray restriction, (u, grad u, hess u) of shape (nodes,
    directions), (..., n) and (..., n, n) (gradient and Hessian None with
    ``values_only``), and returns a sequence of q integrand values of shape
    (nodes, directions). Returns the q integrals, summed block by block in
    block order; nan marks an integrand that is not finite somewhere. The
    nodes end exactly on the boundary, so integrands that do not vanish
    there keep the Gauss rule's accuracy along every ray.
    """
    grid, restriction, r, w = rule

    def block(bounds):
        rows = slice(*bounds)
        jets = ((restriction.along(r[rows])[0], None, None) if values_only
                else restriction.jets(r[rows]))
        return [float(np.sum(v * w[rows])) if np.all(np.isfinite(v))
                else math.nan for v in integrand(rows, *jets)]

    blocks = chunked(r.shape[0], max(1, _CHUNK // grid.count))
    return [float(np.sum(sums)) for sums in zip(*map(block, blocks))]
