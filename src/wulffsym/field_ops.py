"""Anisotropic Hessian operators and energy integrals of admissible fields.

The anisotropic Hessian matrix of u under a norm F is

    A_ij = sum_l (F^2/2)_{il}(grad u) u_{lj},

the 0-matrix by convention where grad u = 0 (non-euclidean F), and the
plain Hessian for the euclidean norm. S_k of A is the anisotropic
k-Hessian operator; S_k of (F_{il} u_{lj}) evaluated on a level set is the
k-th anisotropic mean curvature of that level set (curvature_batch; its
Newton-transform form, newton_curvatures, is only a cross-check). Energy
integrals over {u < 0} are taken on the polar rule of the rays module
(Gauss nodes on rays from the anchor to the exactly solved boundary), whose
integrands receive the field jets at the nodes from the field's ray
restriction, or through the coarea decomposition over sampled level sets.
"""

import numpy as np

from .anisotropy import Norm, eval_jet, half_sq_hessian
from .errors import DegenerateLevelError, DomainError, NumericError
from .fields import Field, FieldJet
from .invariants import newton_stack, sk as sk_matrix, sk_stack
from .quad import trapezoid
# polar_grid and polar_integral are re-exported: the benchmark tracer and
# the tests reach them here
from .rays import (  # noqa: F401
    _DirectionGrid,
    boundary_radii,
    default_rays,
    polar_grid,
    polar_integral,
)

_GRAD_FLOOR = 1e-150


def aniso_hessian(norm: Norm, jet: FieldJet) -> np.ndarray:
    """Anisotropic Hessian matrix at one point, from a field jet."""
    g = np.asarray(jet.gradient, dtype=float)
    h = np.asarray(jet.hessian, dtype=float)
    return aniso_hessian_batch(norm, g[None, :], h[None, :, :])[0]


def aniso_hessian_batch(norm: Norm, grads, hesses, jet=None):
    """Anisotropic Hessian matrices of stacked gradients and Hessians.

    ``jet`` is eval_jet(norm, grads) when the caller already has it; every
    gradient must then be nonzero.
    """
    grads = np.asarray(grads, dtype=float)
    hesses = np.asarray(hesses, dtype=float)
    if norm.family == "euclidean":
        return hesses.copy()
    if jet is not None:
        return half_sq_hessian(*jet) @ hesses
    live = np.sum(grads * grads, axis=-1) > _GRAD_FLOOR
    out = np.zeros_like(hesses)
    if np.any(live):
        jet = eval_jet(norm, grads[live])
        out[live] = half_sq_hessian(*jet) @ hesses[live]
    return out


def sk_field(norm: Norm, u: Field, x, k: int) -> float:
    """S_k of the anisotropic Hessian of u at a point."""
    jet = u.jet(np.asarray(x, dtype=float))
    return sk_matrix(aniso_hessian(norm, jet), k)


def sk_field_batch(norm: Norm, u: Field, pts, k: int):
    _, grads, hesses = u.jets(pts)
    return sk_stack(aniso_hessian_batch(norm, grads, hesses), k)


def level_curvature(norm: Norm, u: Field, x, k: int) -> float:
    """k-th anisotropic mean curvature of the level set of u through x."""
    if not 0 <= k <= u.dim - 1:
        raise DomainError(f"curvature order k={k} outside [0, {u.dim - 1}]")
    x = np.asarray(x, dtype=float)
    _, grads, hesses = u.jets(x[None, :])
    if np.linalg.norm(grads[0]) < 1e-10:
        raise DegenerateLevelError("level set is degenerate: grad u ~ 0")
    _, curv = curvature_batch(norm, grads, hesses)
    return float(curv[k, 0])


def curvature_batch(norm: Norm, grads, hesses):
    """F(grad u) and the level-set curvatures of every order at m points.

    For grads (m, n) and hesses (m, n, n) returns fv = F(grad u), shape
    (m,), and curv, shape (n, m): row k is the k-th anisotropic mean
    curvature S_k(F_il u_lj), k = 0..n-1 (row 0 is one), all from one jet.
    """
    n = grads.shape[-1]
    fv, _, fh = eval_jet(norm, grads)
    curv_matrix = fh @ hesses
    return fv, np.stack([sk_stack(curv_matrix, k) for k in range(n)])


def newton_curvatures(norm: Norm, grads, hesses):
    """curvature_batch's curvatures by the Newton-transform route, (n, m).

    Row k is sum_ij S_{k+1}^{ij} u_j F_i / F^{k+1}, k = 0..n-1, with the
    Newton transform of the anisotropic Hessian; equal to curvature_batch
    analytically, so the spread of the two measures numerical error.
    """
    n = grads.shape[-1]
    fv, fg, _ = eval_jet(norm, grads)
    t = newton_stack(aniso_hessian_batch(norm, grads, hesses), n)
    pair = np.einsum("kmij,mj,mi->km", t, grads, fg)
    return pair / fv ** np.arange(1, n + 1)[:, None]


def hessian_integral(norm: Norm, u: Field, k: int,
                     panels: int | None = None) -> float:
    """Energy integral of (-u) times S_k of the anisotropic Hessian.

    ``panels`` is the direction count of the polar rule (longitudes in
    3D); None means default_rays.
    """

    def integrand(vals, grads, hesses):
        return -vals * sk_stack(aniso_hessian_batch(norm, grads, hesses), k)

    return polar_integral(u, integrand, rays=panels)


def generalized_integral(norm: Norm, u: Field, k: int, p: float,
                         rays: int | None = None) -> float:
    """Integral of sum_ij S_k^{ij} F^{p-k} F_i u_j over the domain.

    Reduces to k times the Hessian integral at p = k + 1 and to the
    F-Dirichlet energy of exponent p at k = 1. At each node the anisotropic
    Hessian A is built from one norm jet, and sum_ij S_k^{ij} F_i u_j is
    z_k . grad u with z_1 = grad F, z_j = S_{j-1}(A) grad F - A z_{j-1}
    (z_j is the Newton transformation T_j^T applied to grad F).
    """
    if p < 1.0:
        raise DomainError("exponent p must be >= 1")

    def integrand(vals, grads, hesses):
        gn2 = np.sum(grads * grads, axis=-1)
        live = gn2 > 1e-28
        out = np.zeros(gn2.shape)
        if np.any(live):
            g, h = grads[live], hesses[live]
            jet = eval_jet(norm, g)
            fv, fg, _ = jet
            a = aniso_hessian_batch(norm, g, h, jet)
            z = fg
            for j in range(1, k):
                z = (sk_stack(a, j)[:, None] * fg
                     - np.einsum("mij,mj->mi", a, z))
            out[live] = fv ** (p - k) * np.sum(z * g, axis=-1)
        return out

    return polar_integral(u, integrand, rays=rays)


def level_grid(u: Field, count: int = 200) -> np.ndarray:
    """Level grid on (m + delta, 0], avoiding the degenerate bottom.

    The bottom fifth is quadratically refined: mean radii of sublevel
    sets grow like sqrt(t - m) there, so uniform levels leave radius
    gaps of order sqrt(step) that dominate the symmetrand interpolation
    error; quadratic spacing equidistributes the radii instead.
    """
    if count < 10:
        # the bottom block takes at least 8 levels and the top needs two
        # to end at t = 0
        raise DomainError(f"level grid needs at least 10 levels; got {count}")
    m = u.min_value
    delta = 1e-3 * abs(m)
    split = m + 0.1 * abs(m)
    n_bot = max(8, count // 5)
    n_top = count - n_bot
    j = np.arange(n_bot) / n_bot
    bottom = (m + delta) + (split - (m + delta)) * j ** 2
    top = np.linspace(split, 0.0, n_top)
    return np.concatenate([bottom, top])


def hessian_integral_coarea(table, k: int) -> float:
    """Hessian integral through the coarea decomposition over level sets.

    (1/k) * integral over t of the surface integral of
    S_{k-1}(curvatures) F(grad u)^k F(normal) over each level set of a
    bodies.LevelTable.
    """
    n = table.field.dim
    if not 1 <= k <= n:
        raise DomainError(f"coarea route needs 1 <= k <= {n}; got k={k}")
    if table.levels.size < 2:
        raise NumericError("too few valid levels for the coarea integral")
    return trapezoid(table.coarea[k - 1], table.levels) / k


def lp_norm(u: Field, p: float, panels: int | None = None) -> float:
    """L^p norm of u over its domain (u <= 0 inside), from values only.

    ``panels`` is the direction count of the polar rule, as in
    hessian_integral.
    """
    if p < 1.0:
        raise DomainError("p must be >= 1")

    def integrand(vals, grads, hesses):
        return np.maximum(-vals, 0.0) ** p

    return polar_integral(u, integrand, rays=panels,
                          values_only=True) ** (1.0 / p)


def domain_volume(u: Field, panels: int | None = None) -> float:
    """Volume of {u < 0} from the boundary radii of ``panels`` directions."""
    grid = _DirectionGrid(u.dim, panels or default_rays(u.dim))
    s = boundary_radii(u, grid, u.ray(grid.omega))
    return float(grid.solid @ s ** u.dim) / u.dim
