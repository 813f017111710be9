"""Direction grids, ray roots and polar quadrature about a field's anchor.

Every field domain {u < 0} is star-shaped about the field's anchor, so
points of the domain are written anchor + s w with w from a deterministic
direction grid (uniform angles in 2D, Gauss latitudes times uniform
longitudes in 3D). The field's ray restriction to a grid (fields.
RayRestriction) is built once and serves every evaluation on that grid.
One root solver serves every level and ray at once: on the restriction's
s -> (u(anchor + s w), du/ds) it runs safeguarded Newton inside the
bisection bracket from the anchor to the bounding-box exit (a Newton step
that leaves the bracket or fails to halve the previous step is replaced by
a bisection step); a field without a ray restriction is solved by plain
bisection on its values. The roots at level 0 are the boundary radii, and
Gauss nodes on each ray up to its boundary radius give the polar
quadrature rule that every domain integral uses. polar_integral hands its
integrand the field jets (u, grad u, hess u) at the nodes, read from the
restriction (``u.jets`` only for a field without one), at most _CHUNK
nodes per evaluation. Arguments named u are fields.Field instances; the
module does not import fields, so anisotropy can integrate Wulff-ball
volumes on the same grids.
"""

import math

import numpy as np

from .errors import DomainError, NumericError
from .quad import chunked, legendre_rule

_BISECT_ITERS = 54
_NEWTON_ITERS = 100
# after a Newton step this small (relative to the root) the error is of
# the order of its square, far below rounding; the steps that rounding
# noise in u makes on the flattest rays (levels next to the minimum, about
# 1e-13) stay below it, so those solves end too
_NEWTON_RTOL = 1e-11
_EPS = np.finfo(float).eps
_CHUNK = 1 << 17
_RADIAL_NODES = 48


def default_rays(dim: int) -> int:
    return 2048 if dim <= 2 else 256


class _DirectionGrid:
    """Deterministic direction grid with angular derivatives and weights.

    ``measure`` integrates surface parametrization Jacobians, ``solid``
    integrates over the solid angle (for polar volume quadrature).
    """

    def __init__(self, dim: int, rays: int):
        self.dim = dim
        if dim == 2:
            theta = 2.0 * math.pi * np.arange(rays) / rays
            self.omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            self.d_theta = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            self.measure = np.full(rays, 2.0 * math.pi / rays)
            self.solid = self.measure
        elif dim == 3:
            nphi = rays
            nc = max(8, nphi // 2)
            c, wc = legendre_rule(nc)
            s = np.sqrt(1.0 - c * c)
            phi = 2.0 * math.pi * np.arange(nphi) / nphi
            cp, sp = np.cos(phi), np.sin(phi)
            self.omega = np.stack([
                np.outer(s, cp), np.outer(s, sp),
                np.broadcast_to(c[:, None], (nc, nphi)).copy()],
                axis=-1).reshape(-1, 3)
            self.d_theta = np.stack([
                np.outer(c, cp), np.outer(c, sp),
                np.broadcast_to(-s[:, None], (nc, nphi)).copy()],
                axis=-1).reshape(-1, 3)
            self.d_phi = np.stack([
                np.outer(s, -sp), np.outer(s, cp), np.zeros((nc, nphi))],
                axis=-1).reshape(-1, 3)
            # quadrature in (cos(theta), phi); the 1/sin(theta) factor undoes
            # the theta parametrization of the area element
            self.measure = (np.outer(wc / s, np.full(nphi, 2.0 * math.pi / nphi))
                            .reshape(-1))
            self.solid = (np.outer(wc, np.full(nphi, 2.0 * math.pi / nphi))
                          .reshape(-1))
        else:
            raise DomainError("level-set sampling supports dimensions 2 and 3")

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


def _restrict(u, grid: _DirectionGrid):
    """The field's ray restriction to the grid directions, if it has one."""
    return None if u.ray is None else u.ray(grid.omega)


def _ray_jets(u, grid: _DirectionGrid, restriction, s, values_only=False):
    """(u, grad u, hess u) at anchor + s omega, s of shape (..., directions).

    Read from ``restriction`` (_restrict(u, grid)) when there is one, from
    the field's oracles at the points otherwise. With ``values_only`` the
    gradient and Hessian are None and only values are evaluated.
    """
    if restriction is not None:
        if values_only:
            return restriction.along(s)[0], None, None
        return restriction.jets(s)
    pts = u.anchor + s[..., None] * grid.omega
    if values_only:
        return u.values(pts), None, None
    return u.jets(pts)


def _ray_roots(u, grid: _DirectionGrid, levels: np.ndarray, restriction):
    """Radii s with u(anchor + s omega) = t, shape (levels, directions).

    ``restriction`` is _restrict(u, grid); without it the roots are
    bisected.
    """
    s_hi = _box_exit(u.anchor, u.bounding_box, grid.omega)
    shape = (levels.shape[0], grid.count)
    lo = np.zeros(shape)
    hi = np.broadcast_to(s_hi * (1.0 + 1e-12), shape).copy()
    tcol = levels[:, None]
    if restriction is not None:
        return _newton_roots(restriction.along, tcol, lo, hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        pts = u.anchor + mid[..., None] * grid.omega[None, :, :]
        vals = u.values(pts.reshape(-1, u.dim)).reshape(shape)
        below = vals < tcol
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _newton_roots(along, t, lo, hi):
    """Safeguarded Newton (rtsafe) for along(s)[0] = t in brackets [lo, hi].

    along(lo) < t <= along(hi) entrywise; converged entries stay fixed.
    The solve starts at hi: on rays where u is convex, as on every preset,
    Newton from above descends to the root without leaving the bracket,
    also when the root sits at the bracket's edge.
    """
    s = hi.copy()
    step = hi - lo
    live = np.ones(s.shape, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        val, slope = along(s)
        g = val - t
        below = g < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
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
        s = np.where(live, nxt, s)
        live &= ~done
        if not np.any(live):
            break
    return s


def boundary_radii(u, grid: _DirectionGrid, restriction) -> np.ndarray:
    """Ray lengths from the anchor to the zero level set, one per direction.

    ``restriction`` is _restrict(u, grid).
    """
    return _ray_roots(u, grid, np.array([0.0]), restriction)[0]


def _polar_rule(u, rays: int | None, radial_nodes: int):
    """The polar rule node-major: (grid, restriction, radii, weights).

    radii and weights have shape (radial_nodes, directions): Gauss nodes
    on each ray from the anchor to its boundary radius, the weights with
    the polar Jacobian.
    """
    grid = _DirectionGrid(u.dim, rays or default_rays(u.dim))
    restriction = _restrict(u, grid)
    s = boundary_radii(u, grid, restriction)
    rho, wr = legendre_rule(radial_nodes)
    rho = 0.5 * (rho + 1.0)
    wr = 0.5 * wr
    r = rho[:, None] * s[None, :]
    w = wr[:, None] * grid.solid[None, :] * r ** (u.dim - 1) * s[None, :]
    return grid, restriction, r, w


def polar_grid(u, rays: int | None = None,
               radial_nodes: int = _RADIAL_NODES):
    """Boundary-fitted quadrature grid of {u < 0} (points, weights).

    ``rays`` directions (longitudes in 3D; default ``default_rays``) with
    ``radial_nodes`` Gauss points on each ray from the anchor to its
    exactly solved boundary radius, so no point is misclassified; weights
    include the polar Jacobian. Points run ray by ray.
    """
    grid, _, r, w = _polar_rule(u, rays, radial_nodes)
    pts = u.anchor + r.T[..., None] * grid.omega[:, None, :]
    return pts.reshape(-1, u.dim), w.T.reshape(-1)


def polar_integral(u, integrand, rays: int | None = None,
                   values_only: bool = False) -> float:
    """Integral over {u < 0} of integrand(u, grad u, hess u) on the polar rule.

    The integrand receives the field jets at the polar_grid nodes, arrays
    of shape (nodes, directions), (..., n) and (..., n, n), and returns
    the integrand values of shape (nodes, directions). The jets come from
    the field's ray restriction, built once for the grid and shared with
    the boundary-radius solve, or from ``u.jets`` for a field without one.
    With ``values_only`` the gradient and Hessian are None and only field
    values are evaluated. The nodes end exactly on the boundary, so
    integrands that do not vanish there, or that are smooth only inside
    the domain, keep the Gauss rule's accuracy along every ray.
    """
    grid, restriction, r, w = _polar_rule(u, rays, _RADIAL_NODES)
    total = []
    for lo, hi in chunked(r.shape[0], max(1, _CHUNK // grid.count)):
        vals = integrand(*_ray_jets(u, grid, restriction, r[lo:hi],
                                    values_only))
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite integrand in polar quadrature")
        total.append(float(np.sum(vals * w[lo:hi])))
    return float(np.sum(total))
