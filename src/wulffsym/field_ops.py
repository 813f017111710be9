"""Anisotropic Hessian operators and energy integrals of admissible fields.

The anisotropic Hessian matrix of u under a norm F is

    A_ij = sum_l (F^2/2)_{il}(grad u) u_{lj},

the 0-matrix by convention where grad u = 0 (non-euclidean F), and the
plain Hessian for the euclidean norm. S_k of A is the anisotropic
k-Hessian operator; S_k of (F_{il} u_{lj}) evaluated on a level set is the
k-th anisotropic mean curvature of that level set (curvature_batch; its
Newton-transform form, newton_curvatures, is only a cross-check). Energy
integrals over {u < 0} are taken on the polar rule of the rays module
(Gauss nodes on rays from the anchor to the exactly solved boundary), or
through the coarea decomposition over sampled level sets. A PolarTable
takes every integral asked of one rule in one pass over its nodes, from
the field jets of the field's ray restriction; hessian_integral,
generalized_integral and lp_norm are tables of one request.
"""

import functools
import math

import numpy as np

from .anisotropy import Norm, eval_jet, half_sq_hessian
from .errors import DegenerateLevelError, DomainError, NumericError
from .fields import Field, FieldJet
from .invariants import _check_order, newton_stack, sk as sk_matrix, sk_stack
from .quad import trapezoid
# polar_grid and polar_integral are re-exported: the benchmark tracer and
# the tests reach them here
from .rays import (  # noqa: F401
    _DirectionGrid,
    _polar_rule,
    boundary_radii,
    default_rays,
    polar_grid,
    polar_integral,
)

_GRAD_FLOOR = 1e-150
# the generalized integrands vanish with grad u below this squared size
_GENERALIZED_FLOOR = 1e-28


def aniso_hessian(norm: Norm, jet: FieldJet) -> np.ndarray:
    """Anisotropic Hessian matrix at one point, from a field jet."""
    g = np.asarray(jet.gradient, dtype=float)
    h = np.asarray(jet.hessian, dtype=float)
    return aniso_hessian_batch(norm, g[None, :], h[None, :, :])[0]


def aniso_hessian_batch(norm: Norm, grads, hesses):
    """Anisotropic Hessian matrices of stacked gradients and Hessians."""
    return _aniso_jet(norm, np.asarray(grads, dtype=float),
                      np.array(hesses, dtype=float))[0]


def _aniso_jet(norm: Norm, grads, hesses, need_jet: bool = False):
    """(A, live, jet): the anisotropic Hessians (``hesses`` itself for the
    euclidean norm), the mask of the gradients above the floor, and
    eval_jet there (None for euclidean A without need_jet)."""
    live = np.sum(grads * grads, axis=-1) > _GRAD_FLOOR
    jet = None
    if need_jet or norm.family != "euclidean":
        jet = eval_jet(norm, grads[live])
    if norm.family == "euclidean":
        return hesses, live, jet
    out = np.zeros_like(hesses)
    out[live] = half_sq_hessian(*jet) @ hesses[live]
    return out, live, jet


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


class PolarTable:
    """Every domain integral asked of one polar rule, from one pass.

    The twin of bodies.LevelTable: built once from (norm, field, rays,
    requests), it solves the polar rule at ``rays`` directions (None means
    default_rays) and walks its nodes once through polar_integral, with one
    norm jet and one anisotropic Hessian A per block for every request:
    ("hessian", k), the integral of (-u) S_k(A); ("generalized", k, p),
    that of sum_ij S_k^{ij} F^{p-k} F_i u_j = F^{p-k} z_k . grad u with
    z_1 = grad F and z_j = S_{j-1}(A) grad F - A z_{j-1} = T_j^T grad F;
    ("lp", p), the L^p norm of u, from values only when every request is
    one; ("sk", k), S_k(A) at the nodes ``points``. table[request] reads a
    value; an invalid request, or one whose integrand is not finite, raises
    when it is read, so it fails only its reader.
    """

    def __init__(self, norm: Norm, u: Field, rays: int | None = None,
                 requests=()):
        self.norm, self.field = norm, u
        self.requests = list(dict.fromkeys(requests))
        self._errors = {}
        for req in self.requests:
            try:
                _check_request(req, u.dim)
            except DomainError as exc:
                self._errors[req] = exc
        live = [q for q in self.requests if q not in self._errors]
        rule = _polar_rule(u, rays)
        grid, _, r, _ = rule
        # the "sk" values, filled block by block, at the nodes ``points``
        # of shape (nodes, directions, n)
        nodes = {q[1]: np.empty(r.shape) for q in live if q[0] == "sk"}
        sums = [q for q in live if q[0] != "sk"]
        totals = polar_integral(
            lambda *jets: self._integrands(sums, nodes, *jets), rule,
            all(q[0] == "lp" for q in live))
        self.points = (u.anchor + r[..., None] * grid.omega if nodes
                       else None)
        self._values = {("sk", k): v for k, v in nodes.items()}
        for q, total in zip(sums, totals):
            if not math.isfinite(total):
                self._errors[q] = NumericError(
                    "non-finite integrand in polar quadrature")
            elif q[0] == "lp":
                self._values[q] = float(total) ** (1.0 / q[1])
            else:
                self._values[q] = float(total)

    def __getitem__(self, request):
        if request in self._errors:
            raise self._errors[request].with_traceback(None)
        return self._values[request]

    def _integrands(self, sums, nodes, rows, vals, grads, hesses):
        """The values of the ``sums`` integrands on the node ``rows`` of
        one block; the S_k of the "sk" requests go to those rows of
        ``nodes``."""
        gen = [q for q in sums if q[0] == "generalized"]
        if grads is not None:
            a, live, jet = _aniso_jet(self.norm, grads, hesses, bool(gen))
            sk = functools.cache(lambda k: sk_stack(a, k))
            for k, values in nodes.items():
                values[rows] = sk(k)
        if gen:
            strong = np.sum(grads * grads, axis=-1) > _GENERALIZED_FLOOR
            g = grads[strong]
            fv, fg = jet[0][strong[live]], jet[1][strong[live]]
            z = [fg]
            kmax = max(q[1] for q in gen)
            # A is read only from order 2 on
            a_strong = a[strong] if kmax > 1 else None
            for j in range(1, kmax):
                z.append(sk(j)[strong][:, None] * fg
                         - np.einsum("mij,mj->mi", a_strong, z[-1]))
        out = []
        for q in sums:
            if q[0] == "hessian":
                out.append(-vals * sk(q[1]))
            elif q[0] == "lp":
                out.append(np.maximum(-vals, 0.0) ** q[1])
            else:
                _, k, p = q
                out.append(np.zeros(vals.shape))
                out[-1][strong] = fv ** (p - k) * np.sum(z[k - 1] * g,
                                                         axis=-1)
        return out


def _check_request(req, n: int):
    """Raise the DomainError of an invalid PolarTable request."""
    kind, *args = req
    if kind == "lp":
        if args[0] < 1.0:
            raise DomainError("p must be >= 1")
    elif kind == "generalized":
        if args[1] < 1.0:
            raise DomainError("exponent p must be >= 1")
        _check_order(args[0], n, lo=1)
    elif kind in ("hessian", "sk"):
        _check_order(args[0], n)
    else:
        raise ValueError(f"unknown polar request {req!r}")


def hessian_integral(norm: Norm, u: Field, k: int,
                     panels: int | None = None) -> float:
    """Energy integral of (-u) times S_k of the anisotropic Hessian.

    ``panels`` is the direction count of the polar rule (longitudes in
    3D); None means default_rays.
    """
    return PolarTable(norm, u, panels, [("hessian", k)])[("hessian", k)]


def generalized_integral(norm: Norm, u: Field, k: int, p: float,
                         rays: int | None = None) -> float:
    """Integral of sum_ij S_k^{ij} F^{p-k} F_i u_j over the domain, p >= 1.

    Reduces to k times the Hessian integral at p = k + 1 and to the
    F-Dirichlet energy of exponent p at k = 1; see PolarTable.
    """
    req = ("generalized", k, p)
    return PolarTable(norm, u, rays, [req])[req]


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
    return PolarTable(None, u, panels, [("lp", p)])[("lp", p)]


def domain_volume(u: Field, panels: int | None = None) -> float:
    """Volume of {u < 0} from the boundary radii of ``panels`` directions."""
    grid = _DirectionGrid(u.dim, panels or default_rays(u.dim))
    s = boundary_radii(u, grid, u.ray(grid.omega))
    return float(grid.solid @ s ** u.dim) / u.dim
