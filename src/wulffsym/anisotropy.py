"""Strongly convex norms, their polar (dual) norms, and Wulff-ball volume.

Three closed families are supported:

* ``euclidean``      F(xi) = |xi|
* ``ellipsoid``      F(xi) = sqrt(xi^T M xi) for a fixed SPD matrix M
* ``regularized_p``  F(xi) = (sum_i (xi_i^2 + eps |xi|^2)^{p/2})^{1/p}

Every family provides analytic value / gradient / Hessian jets away from
the origin (eval_jet), the value and gradient alone (eval_grad), and the
trace sum_ij F_ij b_ji against matrices b without the Hessian
(eval_trace): each family writes hess F once, as terms
scale (D + sum_r c_r a_r b_r^T) with D = I, M or a diagonal, which
eval_jet assembles and eval_trace reads. hess(F^2/2) is the same terms
with one more (_Hessian.half_square), read by field_ops. The
dual norm F*(x) = sup_{xi != 0} <xi, x> / F(xi) of a euclidean or
ellipsoid norm is a norm of the same family (the polar of sqrt(x^T M x)
is sqrt(x^T M^-1 x)), so its jets are eval_jet of that polar Norm. For
``regularized_p`` F* is computed by maximizing over the unit F-sphere
with damped Newton on the stationarity system. F* is 1-homogeneous and
grad F* 0-homogeneous, so the solve runs at x/|x| and is rescaled; a
solve that does not converge raises NumericError. dual_jets gives
(F*, grad F*, hess F*) from one solve, dual_jet the first two (eval_grad
of the polar for the closed families). wulff_volume is a closed form,
or for regularized_p the support-function integral of F S_{n-1}(hess F)
over the unit sphere, with no dual solve. All entry points accept single
vectors of shape (n,) or batches of shape (..., n).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .invariants import sk_stack
from .quad import colwise, rowsum, unit_ball_volume
from .rays import _DirectionGrid

_DUAL_TOL = 1e-12
_DUAL_ITERS = 80


@dataclass(frozen=True, eq=False)
class Norm:
    """A strongly convex norm; build instances through the factory helpers."""

    family: str
    dim: int
    matrix: np.ndarray | None = None
    matrix_inv: np.ndarray | None = None
    exponent: float | None = None
    smoothing: float = 1e-2

    def __repr__(self):
        if self.family == "ellipsoid":
            return f"Norm(ellipsoid, n={self.dim})"
        if self.family == "regularized_p":
            return (f"Norm(regularized_p, n={self.dim}, p={self.exponent}, "
                    f"eps={self.smoothing})")
        return f"Norm(euclidean, n={self.dim})"


def euclidean_norm(dim: int) -> Norm:
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    return Norm("euclidean", dim)


def ellipsoid_norm(matrix) -> Norm:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("ellipsoid norm needs a square matrix")
    m = 0.5 * (m + m.T)
    if np.min(np.linalg.eigvalsh(m)) <= 0.0:
        raise DomainError("ellipsoid norm needs a positive definite matrix")
    return Norm("ellipsoid", m.shape[0], matrix=m, matrix_inv=np.linalg.inv(m))


def regularized_p_norm(dim: int, p: float, eps: float = 1e-2) -> Norm:
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    if not 1.0 < p < math.inf:
        raise DomainError("exponent must lie in (1, inf)")
    if not 0.0 < eps < math.inf:
        raise DomainError("smoothing must be positive and finite")
    return Norm("regularized_p", dim, exponent=float(p), smoothing=float(eps))


def _check_nonzero(x, n: int):
    """x as a float array of n-vectors and its square sum rowsum(x * x),
    nonzero."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise DomainError(f"expected vectors of length {n}")
    sq = rowsum(x * x)
    if np.any(sq == 0.0):
        raise DomainError("norm jets are undefined at the origin")
    return x, sq


def _form(x, m, y):
    """x^T m y over stacks m (..., n, n) and x, y (..., n), entry by entry:
    the sum over i of x_i (sum_j m_ij y_j)."""
    for i in range(x.shape[-1]):
        row = m[..., i, 0] * y[..., 0]
        for j in range(1, x.shape[-1]):
            row += m[..., i, j] * y[..., j]
        out = x[..., i] * row if i == 0 else out + x[..., i] * row
    return out


class _Hessian(NamedTuple):
    """H = scale (D + sum_r c_r a_r b_r^T) at a batch of points, hess F or
    (half_square) hess(F^2/2): D has the nonzero entries ``d``
    {(i, j): value}, each term is a coefficient c_r and two (..., n)
    vectors; values and coefficients are floats or one per point."""

    scale: np.ndarray
    d: dict
    terms: tuple

    def trace(self, b):
        """sum_ij H_ij b_ji for stacks b (..., n, n), without H."""
        out = 0.0
        for (i, j), value in self.d.items():
            out += value * b[..., j, i]
        for c, x, y in self.terms:
            out += c * _form(y, b, x)
        return self.scale * out

    def matrix(self):
        """H as scale ((D + term_1) + term_2 ...), one contiguous row of
        points per entry of an (n, n, ...) array, returned as its (..., n, n)
        view (np.moveaxis): callers must not assume its strides."""
        n = self.terms[0][1].shape[-1]
        h = np.zeros((n, n) + np.shape(self.scale))
        for (i, j), value in self.d.items():
            h[i, j] += value
        for c, x, y in self.terms:
            x = colwise(np.multiply, x, c)
            for i, j in np.ndindex(n, n):
                h[i, j] += x[..., i] * y[..., j]
        h *= self.scale
        return np.moveaxis(h, (0, 1), (-2, -1))

    def half_square(self, v, g):
        """hess(F^2/2) = g g^T + v hess F, with F = v and grad F = g, as
        (v scale) (D + sum_r c_r a_r b_r^T + (v scale)^-1 g g^T)."""
        scale = v * self.scale
        return _Hessian(scale, self.d, self.terms + ((1.0 / scale, g, g),))


def _norm_jet(norm: Norm, xi):
    """(F, grad F, hess F as _Hessian terms) at nonzero xi: the one Hessian
    formula of each family."""
    xi, sq = _check_nonzero(xi, norm.dim)
    v, g, parts = _value_grad(norm, xi, sq)
    if norm.family != "regularized_p":
        # (M - grad F grad F^T) / F, with M = I for euclidean
        m = np.eye(norm.dim) if norm.matrix is None else norm.matrix
        d = {(i, j): m[i, j] for i, j in np.ndindex(m.shape) if m[i, j]}
        return v, g, _Hessian(1.0 / v, d, ((-1.0, g, g),))
    p, eps = norm.exponent, norm.smoothing
    sq, q, big_g, b, h_vec, scale1 = parts
    qb = np.power(q, 0.5 * p - 2.0)    # q^{p/2-2}
    c = (p - 2.0) * eps
    d = b + (p - 2.0) * sq * qb
    # G^{1/p-1} (diag(d) + c (xi qb) xi^T + c xi (xi (qb + eps sum qb))^T
    # + (1 - p) G^{-1} h h^T)
    terms = ((c, xi * qb, xi),
             (c, xi, xi * colwise(np.add, qb, eps * rowsum(qb))),
             ((1.0 - p) / big_g, h_vec, h_vec))
    diag = {(i, i): d[..., i] for i in range(norm.dim)}
    return v, g, _Hessian(scale1, diag, terms)


def eval_jet(norm: Norm, xi):
    """Return (F(xi), grad F(xi), hess F(xi)); batched over leading axes.
    The Hessian has unspecified strides (_Hessian.matrix); F and grad F are
    eval_grad's, bit for bit."""
    v, g, hess = _norm_jet(norm, xi)
    return v, g, hess.matrix()


def eval_trace(norm: Norm, xi, b):
    """Return (F(xi), grad F(xi), sum_ij F_ij(xi) b_ji) for stacks b
    (..., n, n) without building hess F; F and grad F as in eval_jet."""
    v, g, hess = _norm_jet(norm, xi)
    return v, g, hess.trace(np.asarray(b, dtype=float))


def eval_grad(norm: Norm, xi):
    """Return (F(xi), grad F(xi)), eval_jet's first two outputs bit for
    bit, without building the Hessian; batched over leading axes."""
    xi, sq = _check_nonzero(xi, norm.dim)
    return _value_grad(norm, xi, sq)[:2]


def _value_grad(norm: Norm, xi, sq_sum):
    """(F, grad F, parts) at nonzero xi with square sum sq_sum; parts is
    what the Hessian of regularized_p reuses (None for the others).

    Every power is the np.power ufunc: on one vector of shape (n,) the
    sums are numpy scalars, whose ** (libm pow) can differ in the last
    bit from the array power of a batch.
    """
    if norm.family == "euclidean":
        v = np.sqrt(sq_sum)
        return v, colwise(np.divide, xi, v), None
    if norm.family == "ellipsoid":
        mx = xi @ norm.matrix
        v = np.sqrt(rowsum(xi * mx))
        return v, colwise(np.divide, mx, v), None
    p, eps = norm.exponent, norm.smoothing
    sq = xi * xi
    q = colwise(np.add, sq, eps * sq_sum)
    qa = np.power(q, 0.5 * p - 1.0)    # q^{p/2-1}
    big_g = rowsum(q * qa)             # sum q^{p/2}
    value = np.power(big_g, 1.0 / p)
    b = colwise(np.add, qa, eps * rowsum(qa))
    h_vec = xi * b
    scale1 = np.power(big_g, 1.0 / p - 1.0)
    grad = colwise(np.multiply, h_vec, scale1)
    return value, grad, (sq, q, big_g, b, h_vec, scale1)


def _polar(norm: Norm) -> Norm | None:
    """The polar of a closed family as a Norm; None for regularized_p."""
    if norm.family == "euclidean":
        return norm
    if norm.family == "ellipsoid":
        return Norm("ellipsoid", norm.dim, matrix=norm.matrix_inv,
                    matrix_inv=norm.matrix)
    return None


def dual_jet(norm: Norm, x):
    """Return (F*(x), grad F*(x)) of the polar norm; batched."""
    x, sq = _check_nonzero(x, norm.dim)
    polar = _polar(norm)
    if polar is not None:
        return eval_grad(polar, x)
    flat = x.reshape(-1, norm.dim)
    scale = np.sqrt(sq.reshape(-1))
    val, grad = _dual_numeric(norm, flat / scale[:, None])
    return (scale * val).reshape(x.shape[:-1]), grad.reshape(x.shape)


def dual_jets(norm: Norm, x):
    """Return (F*(x), grad F*(x), hess F*(x)) of the polar norm; batched.

    regularized_p solves once and differentiates the maximizer implicitly:
    with xi* = grad F*(w) and lam = F*(w) at w = x/|x|, D solving
    (lam hessF + gradF x gradF) D = I - gradF x xi* gives the Hessian
    D/|x|; the unit scale keeps the system well conditioned for every |x|.
    """
    x, sq = _check_nonzero(x, norm.dim)
    polar = _polar(norm)
    if polar is not None:
        return eval_jet(polar, x)
    lam, xistar = dual_jet(norm, x)
    scale = np.sqrt(sq)
    _, g, h = eval_jet(norm, xistar)
    aug = ((lam / scale)[..., None, None] * h
           + g[..., :, None] * g[..., None, :])
    rhs = np.eye(norm.dim) - g[..., :, None] * xistar[..., None, :]
    d = np.linalg.solve(aug, rhs) / scale[..., None, None]
    return lam, xistar, 0.5 * (d + np.swapaxes(d, -1, -2))


def dual_hessian(norm: Norm, x):
    """Hessian of the polar norm; closed form or implicit differentiation."""
    return dual_jets(norm, x)[2]


def _residual(r1, v):
    """max(|r1_j|, |v - 1|) over the n columns of r1, np.max(np.abs(r1),
    axis=-1) bit for bit but as n np.maximum calls (max is exact)."""
    res = np.abs(v - 1.0)
    for col in np.abs(r1).T:
        np.maximum(res, col, out=res)
    return res


def _dual_numeric(norm: Norm, omega):
    """Damped Newton on the stationarity system of the dual sup.

    omega holds unit vectors, so the residual test is scale-free. Only
    the Newton step reads a norm Hessian.
    """
    n = norm.dim
    p = norm.exponent
    # start at the plain p-norm maximizer, a good guess for small smoothing
    xi = np.sign(omega) * np.abs(omega) ** (1.0 / (p - 1.0))
    bad = rowsum(xi * xi) == 0.0
    if np.any(bad):
        xi[bad] = omega[bad]
    xi = xi / eval_grad(norm, xi)[0][..., None]
    lam = rowsum(xi * omega)
    for it in range(_DUAL_ITERS + 1):
        v, g, h = eval_jet(norm, xi)
        r1 = lam[:, None] * g - omega
        res = _residual(r1, v)
        # the starting guess can meet the tolerance with its tiny
        # components only as accurate as the guess: one Newton step always
        # takes the residual to rounding
        live = (res > _DUAL_TOL) | (it == 0)
        if not np.any(live) or it == _DUAL_ITERS:
            break
        jac = np.zeros((omega.shape[0], n + 1, n + 1))
        jac[:, :n, :n] = lam[:, None, None] * h
        jac[:, :n, n] = g
        jac[:, n, :n] = g
        rhs = np.concatenate([-r1, 1.0 - v[:, None]], axis=-1)
        try:
            step = np.linalg.solve(jac[live], rhs[live][..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        # damped update: halve the step for rows whose residual would grow
        alpha = np.ones(step.shape[0])
        xi_live = xi[live]
        lam_live = lam[live]
        res_live = res[live]
        for _ in range(12):
            cand_xi = xi_live + alpha[:, None] * step[:, :n]
            cand_lam = lam_live + alpha * step[:, n]
            vv, gg = eval_grad(norm, cand_xi)
            rr1 = cand_lam[:, None] * gg - omega[live]
            rr = _residual(rr1, vv)
            worse = rr > res_live
            if not np.any(worse):
                break
            alpha[worse] *= 0.5
        xi[live] = xi_live + alpha[:, None] * step[:, :n]
        lam[live] = lam_live + alpha * step[:, n]
    if np.any(res > _DUAL_TOL * 100.0):
        worst = int(np.argmax(res))
        raise NumericError(
            "dual norm Newton solve did not converge at direction "
            f"{omega[worst].tolist()} (p={p}, eps={norm.smoothing}): "
            f"residual {res[worst]:.3e} after {it} iterations")
    xi = xi / eval_grad(norm, xi)[0][..., None]
    return rowsum(xi * omega), xi


@lru_cache(maxsize=None)
def wulff_volume(norm: Norm) -> float:
    """Volume of the unit Wulff ball, the unit ball of the dual norm.

    Closed form for the euclidean and ellipsoid families in any dimension;
    for regularized_p in dimensions 2 and 3, (1/n) * the integral of
    F(w) S_{n-1}(hess F(w)) over unit w: the Wulff boundary is grad F(w),
    with support value F(w) and area element S_{n-1}(hess F(w)).
    """
    n = norm.dim
    if norm.family == "euclidean":
        return unit_ball_volume(n)
    if norm.family == "ellipsoid":
        return unit_ball_volume(n) * math.sqrt(np.linalg.det(norm.matrix))
    if n in (2, 3):
        grid = _DirectionGrid(n)
        v, _, h = eval_jet(norm, grid.omega)
        return float(grid.solid @ (v * sk_stack(h, n - 1))) / n
    raise CapabilityError(
        f"no numeric Wulff-volume path for family {norm.family} in n={n}")
