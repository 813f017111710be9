"""Anisotropic Hessian operators and energy integrals of admissible fields.

The anisotropic Hessian matrix of u under a norm F is

    A_ij = sum_l (F^2/2)_{il}(grad u) u_{lj},

the 0-matrix by convention where grad u = 0 (non-euclidean F), and the
plain Hessian for the euclidean norm; else A is the matrix of the terms
of D^2(F^2/2) (anisotropy._Hessian.half_square) times D^2u, and S_1(A)
their trace against D^2u. S_k of A is the anisotropic k-Hessian
operator; S_k of (F_{il} u_{lj}) on a level set is the k-th anisotropic
mean curvature of that level set (curvature_batch, up to the order its
caller reads: S_1 as a trace, S_2 in 3D by cofactors, every other order
from the product F_il u_lj; its Newton-transform form,
newton_curvatures, is only a cross-check). Energy
integrals over {u < 0} are taken on the polar rule of the rays module
(Gauss nodes on rays from the anchor to the exactly solved boundary), or
by coarea on the Gauss levels of one probe ray (level_rule). A PolarTable
takes every integral asked of one rule in one pass over its nodes, from
the field jets of the field's ray restriction; hessian_integral,
generalized_integral and lp_norm are tables of one request.
"""

import functools
import math

import numpy as np

from .anisotropy import Norm, _norm_jet, eval_grad
from .errors import DegenerateLevelError, DomainError, NumericError
from .fields import Field, FieldJet
from .invariants import _check_order, newton_stack, sk as sk_matrix, sk_stack
from .quad import colwise, legendre_rule, rowsum
# polar_grid and polar_integral are re-exported: the benchmark tracer and
# the tests reach them here
from .rays import (  # noqa: F401
    _polar_rule,
    boundary_radii,
    polar_grid,
    polar_integral,
)

_GRAD_FLOOR = 1e-150
# a level set whose |grad u| falls below this somewhere is degenerate
_GRAD_TOL = 1e-10
# the generalized integrands vanish with grad u below this squared size
_GENERALIZED_FLOOR = 1e-28


def aniso_hessian(norm: Norm, jet: FieldJet) -> np.ndarray:
    """Anisotropic Hessian matrix at one point, from a field jet."""
    g = np.asarray(jet.gradient, dtype=float)
    h = np.asarray(jet.hessian, dtype=float)
    return aniso_hessian_batch(norm, g[None, :], h[None, :, :])[0]


def aniso_hessian_batch(norm: Norm, grads, hesses):
    """Anisotropic Hessian matrices of stacked gradients and Hessians."""
    hesses = np.array(hesses, dtype=float)
    if norm.family == "euclidean":
        return hesses
    grads = np.asarray(grads, dtype=float)
    live = rowsum(grads * grads) > _GRAD_FLOOR
    v, g, hess = _norm_jet(norm, _rows(grads, live))
    return _scatter(hess.half_square(v, g).matrix() @ _rows(hesses, live),
                    live)


def _rows(x, live):
    """x at the rows of the mask ``live``: x itself when all are live."""
    return x if np.all(live) else x[live]


def _scatter(rows, live):
    """The inverse of _rows: ``rows`` at the mask ``live``, 0 elsewhere."""
    if np.all(live):
        return rows
    out = np.zeros(live.shape + rows.shape[1:])
    out[live] = rows
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
    _check_order(k, u.dim - 1)
    x = np.asarray(x, dtype=float)
    _, grads, hesses = u.jets(x[None, :])
    if np.linalg.norm(grads[0]) < _GRAD_TOL:
        raise DegenerateLevelError("level set is degenerate: grad u ~ 0")
    _, curv = curvature_batch(norm, grads, hesses)
    return float(curv[k, 0])


def curvature_batch(norm: Norm, grads, hesses, top: int | None = None):
    """F(grad u) and the level-set curvatures of orders 0..top at m points.

    For grads (m, n) and hesses (m, n, n) (any leading axes) returns
    fv = F(grad u), shape (m,), and curv, shape (top + 1, m): row k is the
    k-th anisotropic mean curvature S_k(F_il u_lj), k = 0..top (row 0 is
    one; None means top = n - 1), all from one norm jet, each row by one
    route. S_1 is the trace sum_ij F_ij u_ji of eval_trace, without D^2F.
    In 3D, since D^2F(xi) xi = 0 the adjugate of D^2F is
    S_2(D^2F) nu nu^T, nu = grad u / |grad u|, so

        S_2(F_il u_lj) = S_2(D^2F) nu^T adj(D^2u) nu.

    Every other row of order >= 2 is sk_stack of the product F_il u_lj.
    Only those orders build D^2F; top = 0 reads F alone, from eval_grad.
    """
    n = grads.shape[-1]
    top = n - 1 if top is None else top
    _check_order(top, n - 1)
    if top == 0:
        fv = eval_grad(norm, grads)[0]
    else:
        fv, _, hess = _norm_jet(norm, grads)
    curv = np.empty((top + 1,) + fv.shape)
    curv[0] = 1.0
    if top > 0:
        curv[1] = hess.trace(hesses)
    if n == 3 and top == 2:
        curv[2] = (sk_stack(hess.matrix(), 2) * _adjugate_form(hesses, grads)
                   / rowsum(grads * grads))
    elif top > 1:
        product = hess.matrix() @ hesses
        for k in range(2, top + 1):
            curv[k] = sk_stack(product, k)
    return fv, curv


def _adjugate_form(h, v):
    """v^T adj(h) v over stacks h (..., 3, 3) and v (..., 3), by
    cofactors."""

    def cofactor(a, b):
        a1, a2, b1, b2 = (a + 1) % 3, (a + 2) % 3, (b + 1) % 3, (b + 2) % 3
        return (h[..., a1, b1] * h[..., a2, b2]
                - h[..., a1, b2] * h[..., a2, b1])

    # sum_ab v_a v_b C_ab, with the cofactor C_ab of entry (a, b)
    out = v[..., 0] * v[..., 0] * cofactor(0, 0)
    for a in (1, 2):
        out += v[..., a] * v[..., a] * cofactor(a, a)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        out += v[..., a] * v[..., b] * (cofactor(a, b) + cofactor(b, a))
    return out


def newton_curvatures(norm: Norm, grads, hesses):
    """curvature_batch's curvatures by the Newton-transform route, (n, m).

    Row k is sum_ij S_{k+1}^{ij} u_j F_i / F^{k+1}, k = 0..n-1, with the
    Newton transform of the anisotropic Hessian; equal to curvature_batch
    analytically, so the spread of the two measures numerical error.
    """
    n = grads.shape[-1]
    fv, fg = eval_grad(norm, grads)
    t = newton_stack(aniso_hessian_batch(norm, grads, hesses), n)
    pair = np.einsum("kmij,mj,mi->km", t, grads, fg)
    return pair / fv ** np.arange(1, n + 1)[:, None]


class PolarTable:
    """Every domain integral asked of one polar rule, from one pass.

    The twin of bodies.LevelTable: built once from (norm, field, rays,
    requests), it lays the polar rule on u.fan(rays) (None means
    default_rays), shared with level sampling, and walks its nodes once
    through polar_integral, with at most one norm jet and one anisotropic
    Hessian A per block for every request, each built only when a request
    reads it: S_1(A) is the trace of the terms of D^2(F^2/2)
    (anisotropy._Hessian.half_square) against D^2u, without D^2F or A,
    which are built only when an order k >= 2 is. The requests:
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
        # the orders k >= 1 of the S_k(A) read, and whether A itself is
        gen = [q[1] for q in live if q[0] == "generalized"]
        self._orders = ({q[1] for q in live if q[0] in ("hessian", "sk")}
                        | set(range(1, max(gen, default=1)))) - {0}
        self._reads_a = max(self._orders | set(gen), default=0) > 1
        totals = polar_integral(
            lambda *jets: self._integrands(sums, nodes, *jets), rule,
            all(q[0] == "lp" for q in live))
        self.points = (colwise(np.multiply, grid.omega, r, u.anchor)
                       if nodes else None)
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
            norm = self.norm
            sq = rowsum(grads * grads)
            live = sq > _GRAD_FLOOR
            curved = bool(self._orders) and norm.family != "euclidean"
            if curved:
                *jet, hess = _norm_jet(norm, _rows(grads, live))
                half = hess.half_square(*jet)
                b = _rows(hesses, live)
            elif gen:
                jet = eval_grad(norm, _rows(grads, live))
            a = None
            if self._reads_a:
                a = _scatter(half.matrix() @ b, live) if curved else hesses

            @functools.cache
            def sk(k):
                if k == 0:
                    return np.ones(vals.shape)
                if k == 1:
                    return (_scatter(half.trace(b), live) if curved
                            else sk_stack(hesses, 1))
                return sk_stack(a, k)

            for k, values in nodes.items():
                values[rows] = sk(k)
        if gen:
            # the gradients above the generalized floor, a subset of live
            strong = sq > _GENERALIZED_FLOOR
            g = _rows(grads, strong)
            fv, fg = (_rows(x, _rows(strong, live)) for x in jet)
            z = [fg]
            kmax = max(q[1] for q in gen)
            # A is read only from order 2 on
            a_strong = _rows(a, strong) if kmax > 1 else None
            for j in range(1, kmax):
                z.append(_rows(sk(j), strong)[..., None] * fg
                         - np.einsum("...ij,...j->...i", a_strong, z[-1]))
        out = []
        for q in sums:
            if q[0] == "hessian":
                out.append(-vals * sk(q[1]))
            elif q[0] == "lp":
                out.append(np.maximum(-vals, 0.0) ** q[1])
            else:
                _, k, p = q
                out.append(_scatter(fv ** (p - k) * rowsum(z[k - 1] * g),
                                    strong))
        return out


def _check_request(req, n: int):
    """Raise the DomainError of an invalid PolarTable request."""
    kind, *args = req
    if kind == "lp":
        _check_exponent(args[0])
    elif kind == "generalized":
        _check_exponent(args[1])
        _check_order(args[0], n, lo=1)
    elif kind in ("hessian", "sk"):
        _check_order(args[0], n)
    else:
        raise ValueError(f"unknown polar request {req!r}")


def _check_exponent(p):
    """Raise the DomainError of an exponent p outside [1, inf), or NaN."""
    if not p >= 1.0:
        raise DomainError("exponent p must be >= 1")
    if p == math.inf:
        raise DomainError("exponent p must be finite")


def hessian_integral(norm: Norm, u: Field, k: int,
                     rays: int | None = None) -> float:
    """Energy integral of (-u) times S_k of the anisotropic Hessian.

    ``rays`` is the direction count of the polar rule (longitudes in 3D);
    None means default_rays.
    """
    return PolarTable(norm, u, rays, [("hessian", k)])[("hessian", k)]


def generalized_integral(norm: Norm, u: Field, k: int, p: float,
                         rays: int | None = None) -> float:
    """Integral of sum_ij S_k^{ij} F^{p-k} F_i u_j over the domain, p >= 1.

    Reduces to k times the Hessian integral at p = k + 1 and to the
    F-Dirichlet energy of exponent p at k = 1; see PolarTable.
    """
    req = ("generalized", k, p)
    return PolarTable(norm, u, rays, [req])[req]


def level_rule(u: Field, count: int = 200, rays: int | None = None):
    """The one rule in the level variable, (s, weights, levels, slopes):
    on the probe ray w, direction 0 of u.fan(rays), of boundary radius R,
    the count - 1 Gauss-Legendre nodes s of [0, R] and R, the levels
    u(anchor + s w) (0.0 at R), dt/ds and the Gauss weights (0 at R), so
    that sum weights * slopes * g(levels) integrates g over (min u, 0].
    A count below 10 raises DomainError: where level sets are not
    homothetic, fewer leave the harness sides near their tolerances (off by
    1.3e-4 at 6 levels, 7e-8 at 10, on a 3D perturbed_radial a = 3)."""
    if not isinstance(count, (int, np.integer)) or count < 10:
        raise DomainError("level grid needs an integer count of at least 10 "
                          f"levels; got {count!r}")
    big_r = boundary_radii(u, rays)[0]
    x, w = legendre_rule(int(count) - 1)
    s = np.append(0.5 * big_r * (x + 1.0), big_r)
    levels, slopes = u.ray(u.fan(rays).grid.omega[:1]).along(s[:, None])
    levels = np.append(levels[:-1, 0], 0.0)
    return s, np.append(0.5 * big_r * w, 0.0), levels, slopes[:, 0]


def hessian_integral_coarea(table, k: int) -> float:
    """Hessian integral through the coarea decomposition over level sets.

    (1/k) * integral over t of the surface integral of
    S_{k-1}(curvatures) F(grad u)^k F(normal) over each level set of a
    bodies.LevelTable, the sum of weights * slopes * coarea on its level
    rule; k must be one of the table's ``orders``.
    """
    _check_order(k, table.field.dim, lo=1)
    if k not in table.orders:
        raise DomainError(f"the level table holds the coarea sums of orders "
                          f"{list(table.orders)}; build it with k={k}")
    coarea = table.coarea[table.orders.index(k)]
    return float(np.sum(table.weights * table.slopes * coarea)) / k


def lp_norm(u: Field, p: float, rays: int | None = None) -> float:
    """L^p norm of u over its domain (u <= 0 inside), from values only.

    ``rays`` is the direction count of the polar rule, as in
    hessian_integral.
    """
    return PolarTable(None, u, rays, [("lp", p)])[("lp", p)]


def domain_volume(u: Field, rays: int | None = None) -> float:
    """Volume of {u < 0} from the boundary radii of u.fan(rays)."""
    s = boundary_radii(u, rays)
    return float(u.fan(rays).grid.solid @ s ** u.dim) / u.dim
