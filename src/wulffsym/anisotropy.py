"""Strongly convex norms, their polar (dual) norms, and Wulff-ball volume.

Three closed families are supported:

* ``euclidean``      F(xi) = |xi|
* ``ellipsoid``      F(xi) = sqrt(xi^T M xi) for a fixed SPD matrix M
* ``regularized_p``  F(xi) = (sum_i (xi_i^2 + eps |xi|^2)^{p/2})^{1/p}

Every family provides analytic value / gradient / Hessian jets away from
the origin (eval_jet), and the value and gradient alone (eval_grad). The
dual norm F*(x) = sup_{xi != 0} <xi, x> / F(xi) of a euclidean or
ellipsoid norm is a norm of the same family (the polar of sqrt(x^T M x)
is sqrt(x^T M^-1 x)), so its jets are eval_jet of that polar Norm. For
``regularized_p`` F* is computed by maximizing over the unit F-sphere
with damped Newton on the stationarity system. F* is 1-homogeneous and
grad F* 0-homogeneous, so the solve runs at x/|x| and is rescaled; a
solve that does not converge raises NumericError. dual_jets gives
(F*, grad F*, hess F*) from one solve, dual_jet the first two (eval_grad
of the polar for the closed families). All entry points accept single
vectors of shape (n,) or batches of shape (..., n).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .quad import rowsum, unit_ball_volume
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


def _outer(a, b, out=None):
    """The rows out[i, j] = a[..., i] * b[..., j] of vectors a and b of
    shape (..., n), in an (n, n, ...) array: one multiply per entry."""
    n = a.shape[-1]
    if out is None:
        out = np.empty((n, n) + a.shape[:-1])
    for i in range(n):
        for j in range(n):
            np.multiply(a[..., i], b[..., j], out=out[i, j, ...])
    return out


def eval_jet(norm: Norm, xi):
    """Return (F(xi), grad F(xi), hess F(xi)); batched over leading axes.

    The Hessian is built in an (n, n, ...) array, one contiguous row of
    points per entry, and returned as its (..., n, n) view
    (np.moveaxis): callers must not assume its strides. F and grad F are
    eval_grad's, bit for bit.
    """
    n = norm.dim
    xi, sq = _check_nonzero(xi, n)
    v, g, parts = _value_grad(norm, xi, sq)
    # the identity broadcast against the rows
    eye = np.eye(n).reshape((n, n) + (1,) * (xi.ndim - 1))
    if norm.family == "euclidean":
        # (eye - g_i g_j) / v
        h = _outer(g, g)
        np.subtract(eye, h, out=h)
        h /= v
    elif norm.family == "ellipsoid":
        # m / v - mx_i mx_j / v^3
        h = _outer(parts, parts)
        h /= np.power(v, 3)
        np.subtract(norm.matrix.reshape(eye.shape) / v, h, out=h)
    else:
        h = _reg_p_hessian(norm, xi, parts, eye)
    return v, g, np.moveaxis(h, (0, 1), (-2, -1))


def eval_grad(norm: Norm, xi):
    """Return (F(xi), grad F(xi)), eval_jet's first two outputs bit for
    bit, without building the Hessian; batched over leading axes."""
    xi, sq = _check_nonzero(xi, norm.dim)
    return _value_grad(norm, xi, sq)[:2]


def _value_grad(norm: Norm, xi, sq_sum):
    """(F, grad F, parts) at nonzero xi with square sum sq_sum; parts is
    what the Hessian of the family reuses (None for euclidean).

    Every power is the np.power ufunc: on one vector of shape (n,) the
    sums are numpy scalars, whose ** (libm pow) can differ in the last
    bit from the array power of a batch.
    """
    if norm.family == "euclidean":
        v = np.sqrt(sq_sum)
        return v, xi / v[..., None], None
    if norm.family == "ellipsoid":
        mx = xi @ norm.matrix
        v = np.sqrt(rowsum(xi * mx))
        return v, mx / v[..., None], mx
    p, eps = norm.exponent, norm.smoothing
    sq = xi * xi
    q = sq + eps * sq_sum[..., None]
    qa = np.power(q, 0.5 * p - 1.0)    # q^{p/2-1}
    big_g = rowsum(q * qa)             # sum q^{p/2}
    t1 = rowsum(qa)[..., None]
    value = np.power(big_g, 1.0 / p)
    b = qa + eps * t1
    h_vec = xi * b
    scale1 = np.power(big_g, 1.0 / p - 1.0)
    grad = scale1[..., None] * h_vec
    return value, grad, (sq, q, big_g, b, h_vec, scale1)


def _reg_p_hessian(norm: Norm, xi, parts, eye):
    """hess F of regularized_p as (n, n, ...) rows, from _value_grad's
    parts, written in place into two row arrays."""
    p, eps = norm.exponent, norm.smoothing
    sq, q, big_g, b, h_vec, scale1 = parts
    qb = np.power(q, 0.5 * p - 2.0)    # q^{p/2-2}
    u = rowsum(qb)[..., None]
    c = (p - 2.0) * eps
    diag = b + (p - 2.0) * sq * qb
    # hess = (1 - p) G^{1/p-2} h_i h_j + G^{1/p-1} dh, with
    # dh = diag_i eye_ij + c (xi qb)_i xi_j + c xi_i (xi (qb + eps u))_j
    hess = np.multiply(np.moveaxis(diag, -1, 0)[:, None], eye)
    rows = _outer(c * (xi * qb), xi)
    hess += rows
    hess += _outer(c * xi, xi * (qb + eps * u), out=rows)
    hess *= scale1
    hess += _outer(((1.0 - p) * np.power(big_g, 1.0 / p - 2.0))[..., None]
                   * h_vec, h_vec, out=rows)
    return hess


def half_sq_hessian(v, g, h):
    """Hessian of F^2/2, gradF x gradF + F * hessF, from eval_jet (v, g, h)."""
    return g[..., :, None] * g[..., None, :] + v[..., None, None] * h


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
    polar-coordinate quadrature with r(direction) = 1/F*(direction) for
    regularized_p in dimensions 2 and 3.
    """
    n = norm.dim
    if norm.family == "euclidean":
        return unit_ball_volume(n)
    if norm.family == "ellipsoid":
        return unit_ball_volume(n) * math.sqrt(np.linalg.det(norm.matrix))
    if n in (2, 3):
        # the unit ball of F* has boundary radius 1/F*(w) along w
        grid = _DirectionGrid(n)
        r = 1.0 / dual_jet(norm, grid.omega)[0]
        return float(grid.solid @ r ** n) / n
    raise CapabilityError(
        f"no numeric Wulff-volume path for family {norm.family} in n={n}")
