"""Direction grids, ray roots and polar quadrature about a field's anchor.

Every field domain {u < 0} is star-shaped about the field's anchor, so
points of the domain are written anchor + s w with w from a deterministic
direction grid (uniform angles in 2D, Gauss latitudes times uniform
longitudes in 3D). The field's ray restriction to a grid, u.ray(omega)
(fields.RayRestriction), is built once and is the only way the field is
evaluated on that grid. One root solver serves every level and ray at
once: safeguarded Newton on the restriction's s -> (u, du/ds) inside the
bracket from the anchor to the bounding-box exit (a Newton step that
leaves the bracket or fails to halve the previous step is replaced by a
bisection step); the levels whose rays have all converged leave the
iteration. The roots at level 0 are the boundary radii. The polar rule
cuts each ray from the anchor to its boundary radius into equal panels
of the one cached 48-node Gauss rule; the domain integrals use it with
one panel, the rearrangement grid with many. polar_integral maps blocks
of _CHUNK nodes of a rule over the worker threads, hands the field jets
at the nodes to an integrand that returns a stack of quantities, and
sums each of them; the polar table of field_ops asks it for every domain
integral of one rule at once. Arguments named u are fields.Field
instances; the module does not import fields, so anisotropy can
integrate Wulff-ball volumes on the same grids.
"""

import math

import numpy as np

from .errors import DomainError
from .parallel import map_blocks
from .quad import chunked, legendre_rule

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
    """Deterministic direction grid; ``solid`` integrates over the solid
    angle (polar volume quadrature and level-set surface weights)."""

    def __init__(self, dim: int, rays: int):
        self.dim = dim
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


def _box_exit(anchor, box, omega):
    """Distance from the anchor to the bounding-box boundary along omega."""
    lo = (box[:, 0] - anchor)[None, :]
    hi = (box[:, 1] - anchor)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = np.where(omega > 0, hi / omega, np.inf)
        t_lo = np.where(omega < 0, lo / omega, np.inf)
    return np.min(np.minimum(t_hi, t_lo), axis=-1)


def _ray_roots(u, grid: _DirectionGrid, levels: np.ndarray, restriction):
    """Radii s with u(anchor + s omega) = t, shape (levels, directions).

    Safeguarded Newton (rtsafe) on ``restriction.along`` (the restriction
    is u.ray(grid.omega)) inside the brackets from the anchor to the
    bounding-box exit; converged entries stay fixed, and a level whose
    entries have all converged leaves the iteration, so each row is the
    single-level solve. The solve starts at the box exit: on rays where u
    is convex, as on every preset, Newton from above descends to the root
    without leaving the bracket, also when the root sits at the bracket's
    edge.
    """
    s_hi = _box_exit(u.anchor, u.bounding_box, grid.omega)
    shape = (levels.shape[0], grid.count)
    out = np.empty(shape)
    rows = np.arange(shape[0])
    t = levels[:, None]
    lo = np.zeros(shape)
    hi = np.broadcast_to(s_hi * (1.0 + 1e-12), shape).copy()
    s = hi.copy()
    step = hi - lo
    live = np.ones(shape, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        val, slope = restriction.along(s)
        g = val - t
        below = g < 0.0
        np.copyto(lo, s, where=below)
        np.copyto(hi, s, where=~below)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = g / slope
        cand = s - dx
        done = np.abs(dx) <= _NEWTON_RTOL * s
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
                break
    out[rows] = s
    return out


def boundary_radii(u, grid: _DirectionGrid, restriction) -> np.ndarray:
    """Ray lengths from the anchor to the zero level set, one per direction.

    ``restriction`` is u.ray(grid.omega).
    """
    return _ray_roots(u, grid, np.array([0.0]), restriction)[0]


def _polar_rule(u, rays: int | None, panels: int = 1):
    """The polar rule node-major: (grid, restriction, radii, weights).

    Each ray from the anchor to its boundary radius is cut into ``panels``
    equal pieces, each carrying the 48-node Gauss rule; radii and weights
    have shape (48 panels, directions), the weights with the polar
    Jacobian.
    """
    grid = _DirectionGrid(u.dim, rays or default_rays(u.dim))
    restriction = u.ray(grid.omega)
    s = boundary_radii(u, grid, restriction)
    x, wx = legendre_rule(_RADIAL_NODES)
    rho = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).reshape(-1)
    wr = np.tile(0.5 * wx, panels) / panels
    r = rho[:, None] * s[None, :]
    w = wr[:, None] * grid.solid[None, :] * r ** (u.dim - 1) * s[None, :]
    return grid, restriction, r, w


def polar_grid(u, rays: int | None = None, panels: int = 1):
    """Boundary-fitted quadrature grid of {u < 0} (points, weights).

    ``rays`` directions (longitudes in 3D; default ``default_rays``); each
    ray from the anchor to its exactly solved boundary radius carries
    ``panels`` equal panels of 48 Gauss nodes, so no point is
    misclassified; weights include the polar Jacobian. Points run ray by
    ray.
    """
    grid, _, r, w = _polar_rule(u, rays, panels)
    pts = u.anchor + r.T[..., None] * grid.omega[:, None, :]
    return pts.reshape(-1, u.dim), w.T.reshape(-1)


def polar_integral(integrand, rule, values_only: bool = False) -> list:
    """Integrals over {u < 0} of a stack of integrands on a polar rule.

    ``rule`` is _polar_rule(u, rays). Blocks of at most _CHUNK nodes run on
    the worker threads (parallel.map_blocks). The integrand receives the
    node rows of one block (a slice of the rule's first axis) and the
    field jets there from the rule's ray restriction, (u, grad u, hess u)
    of shape (nodes, directions), (..., n) and (..., n, n) (gradient and
    Hessian None with ``values_only``), and returns a sequence of q
    integrand values of shape (nodes, directions). Returns the q
    integrals, summed block by block in block order, so they do not depend
    on the thread count; nan marks an integrand that is not finite
    somewhere. The nodes end exactly on the boundary, so integrands that
    do not vanish there keep the Gauss rule's accuracy along every ray.
    """
    grid, restriction, r, w = rule

    def block(bounds):
        rows = slice(*bounds)
        jets = ((restriction.along(r[rows])[0], None, None) if values_only
                else restriction.jets(r[rows]))
        return [float(np.sum(v * w[rows])) if np.all(np.isfinite(v))
                else math.nan for v in integrand(rows, *jets)]

    blocks = chunked(r.shape[0], max(1, _CHUNK // grid.count))
    return [float(np.sum(sums)) for sums in zip(*map_blocks(block, blocks))]
