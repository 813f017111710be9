"""Reference values for the benchmark workloads, computed apart from wulffsym.

Nothing here imports wulffsym. The closed forms come from the geometry of
the quadratic fields u = (x^T Q x - 1)/2 on an ellipse and on the unit
ball; the regularized-p values come from a ray bisection on a value
oracle handed in by the caller, a shoelace area and a polygon anisotropic
half-perimeter with the closed-form primal norm, both Richardson
extrapolated.
"""

import math

import numpy as np

# ----------------------------------------------------------- ellipse (2D)
# u = (x^2/a^2 + y^2/b^2 - 1)/2 on the ellipse with semi-axes a, b,
# parametrized by x = a rho cos(th), y = b rho sin(th), Jacobian a b rho.


def agm_half_perimeter(a: float, b: float) -> float:
    """Half the perimeter of an ellipse by the Gauss-Kummer AGM series."""
    an, bn = max(a, b), min(a, b)
    total = 0.5 * (an * an - bn * bn)
    power = 1.0
    for _ in range(64):
        an, bn, cn = 0.5 * (an + bn), math.sqrt(an * bn), 0.5 * (an - bn)
        power *= 2.0
        total += 0.5 * power * cn * cn
        if cn <= 1e-17 * an:
            break
    return math.pi * (max(a, b) ** 2 - total) / an


def _periodic_mean(fn, nodes: int = 4096) -> float:
    """2 pi times the mean of a smooth periodic function (trapezoid rule)."""
    th = 2.0 * math.pi * np.arange(nodes) / nodes
    return 2.0 * math.pi * float(np.mean(fn(th)))


def _grad_sq(a, b):
    return lambda th: np.cos(th) ** 2 / a ** 2 + np.sin(th) ** 2 / b ** 2


def ellipse_hessian_energy(a: float, b: float, k: int) -> float:
    """Integral of (-u) S_k(D^2 u); S_1 = 1/a^2 + 1/b^2, S_2 = 1/(a b)^2."""
    mass = math.pi * a * b / 4.0          # integral of -u
    sk = {1: 1.0 / a ** 2 + 1.0 / b ** 2, 2: 1.0 / (a * b) ** 2}[k]
    return sk * mass


def ellipse_generalized_energy(a: float, b: float, k: int, p: float) -> float:
    """Integral of sum_ij T_k^{ij} |grad u|^{p-k} u_i u_j / |grad u|.

    k = 1: the integral of |grad u|^p. k = 2: T_2 = S_1 I - D^2 u turns
    the integrand into rho^{p-1} q^{(p-3)/2} / (a b)^2 with
    q = |grad u|^2 / rho^2.
    """
    q = _grad_sq(a, b)
    if k == 1:
        return a * b / (p + 2.0) * _periodic_mean(lambda t: q(t) ** (p / 2))
    if k == 2:
        return (_periodic_mean(lambda t: q(t) ** ((p - 3.0) / 2))
                / (a * b * (p + 1.0)))
    raise ValueError(f"order {k} has no ellipse formula here")


def ellipse_lq_power(a: float, b: float, q: float) -> float:
    """Integral of |u|^q over the ellipse: pi a b / (2^q (q + 1))."""
    return math.pi * a * b / (2.0 ** q * (q + 1.0))


def disc_symmetrand_energy(a: float, b: float, p: float | None) -> float:
    """Energies of the order-1 symmetrand u* = |x|^2/(2ab) - 1/2.

    p None gives the Hessian energy (pi/2 for every ellipse); otherwise
    the integral of |grad u*|^p over the disc of radius sqrt(ab).
    """
    if p is None:
        return math.pi / 2.0
    return 2.0 * math.pi * (a * b) ** (1.0 - p / 2.0) / (p + 2.0)


def ellipse_rho(a: float, b: float, r):
    """Order-1 symmetrand profile r -> r^2/(2ab) - 1/2."""
    return np.asarray(r) ** 2 / (2.0 * a * b) - 0.5


def ellipse_zeta(a: float, b: float, order: int, t):
    """Mean radius zeta_order of the sublevel set {u < t}.

    The sublevel set is the ellipse scaled by sqrt(2t + 1): zeta_0 is the
    radius of the disc of the same area, zeta_1 the half-perimeter / pi.
    """
    scale = np.sqrt(2.0 * np.asarray(t) + 1.0)
    if order == 0:
        return math.sqrt(a * b) * scale
    return agm_half_perimeter(a, b) / math.pi * scale

# -------------------------------------------------------- unit ball (3D)
# u = (|x|^2 - 1)/2 on the unit ball of R^3.


def ball_volume(r: float = 1.0) -> float:
    return 4.0 * math.pi / 3.0 * r ** 3


def ball_mixed_volume(r: float, k: int) -> float:
    """W_k of the euclidean ball of radius r in R^3."""
    return ball_volume() * r ** (3 - k)


def ball_hessian_energy() -> float:
    """Integral of (-u) S_1(I) = 3 * 4 pi / 15."""
    return 4.0 * math.pi / 5.0


def ball_generalized_energy(p: float) -> float:
    """Integral of |grad u|^p = |x|^p over the unit ball."""
    return 4.0 * math.pi / (p + 3.0)


def ball_lq_power(q: float) -> float:
    """Integral of |u|^q over the unit ball, a Beta integral."""
    beta = math.gamma(1.5) * math.gamma(q + 1.0) / math.gamma(q + 2.5)
    return 4.0 * math.pi * 2.0 ** (-q) * beta / 2.0

# ------------------------------------------------------------- Sobolev


def sobolev_constant(n: int, k: int, p: float, kappa: float) -> float:
    """Sharp constant of ||u||_q^p <= C I_{k,p}[u], q = np/(n-k+1-p).

    kappa is the volume of the unit Wulff ball. For k = 1 and the
    euclidean norm this is Talenti's constant raised to the power p.
    """
    lead = ((p - 1.0) / (n - k + 1.0 - p)) ** (p - 1.0)
    s = k - 1.0 + p
    gammas = (math.gamma(n * p / s)
              / (math.gamma(n / s) * math.gamma(1.0 + n * (p - 1.0) / s)
                 * kappa))
    return lead / (k * math.comb(n, k)) * gammas ** (s / n)

# ---------------------------------------------- star-shaped bodies (2D)


def regularized_p_norm(xi, p: float, eps: float):
    """Primal norm (sum_i (xi_i^2 + eps |xi|^2)^{p/2})^{1/p}, batched."""
    xi = np.asarray(xi, dtype=float)
    sq = xi * xi
    q = sq + eps * np.sum(sq, axis=-1, keepdims=True)
    return np.sum(q ** (0.5 * p), axis=-1) ** (1.0 / p)


def ray_roots(values, levels, rays: int, iters: int = 64):
    """Radii s with values(s w) = t on `rays` uniform directions w.

    The body {values < t} must be star-shaped about the origin with the
    origin inside. The bracket doubles until every ray has left the body,
    then bisects. Returns an array of shape (len(levels), rays).
    """
    levels = np.asarray(levels, dtype=float)[:, None]
    th = 2.0 * math.pi * np.arange(rays) / rays
    omega = np.stack([np.cos(th), np.sin(th)], axis=-1)

    def below(s):
        pts = s[..., None] * omega
        return values(pts.reshape(-1, 2)).reshape(s.shape) < levels

    hi = np.full((levels.shape[0], rays), 0.25)
    while np.any(below(hi)):
        hi = np.where(below(hi), 2.0 * hi, hi)
    lo = np.zeros_like(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = below(mid)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def _polygon(radii):
    th = 2.0 * math.pi * np.arange(radii.shape[-1]) / radii.shape[-1]
    return radii[..., None] * np.stack([np.cos(th), np.sin(th)], axis=-1)


def shoelace_area(pts) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def aniso_half_perimeter(pts, norm_fn) -> float:
    """Half of sum over edges of F(outer edge normal) times edge length.

    For a counterclockwise polygon the outer normal of edge e times its
    length is (e_y, -e_x), and F is 1-homogeneous.
    """
    edge = np.roll(pts, -1, axis=0) - pts
    normal = np.stack([edge[:, 1], -edge[:, 0]], axis=-1)
    return 0.5 * float(np.sum(norm_fn(normal)))


def star_body_measures(values, levels, norm_fn, rays: int = 2048):
    """(areas, half-perimeters) of {values < t} for each level t.

    Polygons through the ray roots on `rays` and `rays // 2` uniform
    directions; both measures have an even error expansion in the angle
    step, so one Richardson step removes the h^2 term.
    """
    radii = ray_roots(values, levels, rays)
    areas, perims = [], []
    for row in radii:
        fine, coarse = _polygon(row), _polygon(row[::2])
        areas.append((4.0 * shoelace_area(fine) - shoelace_area(coarse)) / 3)
        perims.append((4.0 * aniso_half_perimeter(fine, norm_fn)
                       - aniso_half_perimeter(coarse, norm_fn)) / 3)
    return np.array(areas), np.array(perims)
