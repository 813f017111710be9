"""Radial machinery: profiles, radial Hessian energies, the radial solver,
and the decreasing rearrangement.

For u(x) = v(r) with r the dual-norm radius, the k-Hessian operator has
the closed form

    S_k[u] = C(n-1, k-1) (v''/r) (v'/r)^{k-1} + C(n-1, k) (v'/r)^k,

its energy integral over the Wulff ball of radius r0 is
kappa_n C(n,k) * int_0^{r0} r^{n-k} v'(r)^{k+1} dr, and the constant-
source Dirichlet problem S_k = f solves in closed double-integral form.
The energies are weighted sums on a profile's nodes, which must carry
slopes (``derivative``) and the weights of a rule in r (``weights``).
Rearrangement converts an integrable density on a domain into the
radially decreasing profile with identical level-set volumes.
"""

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, InputError
from .fields import Field
from .invariants import _check_order
from .quad import panel_cumulative
from .rays import polar_grid

_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class MonotoneProfile:
    """A tabulated monotone function of one nonnegative variable.

    Evaluation interpolates linearly and extends constantly beyond the
    tabulated range (plateau convention at both ends). ``derivative`` and
    ``weights`` hold nodewise slopes and the weights of a rule in r.
    """

    r: np.ndarray
    values: np.ndarray
    direction: str  # "increasing" | "decreasing"
    derivative: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)
    weights: np.ndarray | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.shape[0] < 2:
            raise InputError("profile needs matching 1-d abscissae/values")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise InputError("profile abscissae and values must be finite")
        if np.any(np.diff(r) <= 0.0):
            raise InputError("abscissae must be strictly increasing")
        d = np.diff(v)
        slack = _MONOTONE_SLACK * (1.0 + np.max(np.abs(v)))
        if self.direction == "increasing":
            bad = np.min(d, initial=0.0) < -slack
        elif self.direction == "decreasing":
            bad = np.max(d, initial=0.0) > slack
        else:
            raise InputError(f"unknown direction {self.direction!r}")
        if bad:
            raise InputError(f"values are not {self.direction}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.r, self.values)

    def derivative_at(self, x):
        if self.derivative is None:
            raise DomainError("profile carries no derivative estimates")
        return np.interp(np.asarray(x, dtype=float), self.r, self.derivative)


def profile_from_callable(fn, grid, dfn=None, direction="increasing",
                          meta=None) -> MonotoneProfile:
    """Tabulate a callable (and optionally its derivative) on a grid."""
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(fn(grid), dtype=float)
    deriv = None
    if dfn is not None:
        deriv = np.asarray(dfn(grid), dtype=float)
    return MonotoneProfile(grid, vals, direction, deriv, meta or {})


def radial_sk(vp: float, vpp: float, r: float, n: int, k: int) -> float:
    """S_k of a radial field from the profile derivatives at radius r.

    Equals C(n-1,k-1) v'' (v'/r)^{k-1} + C(n-1,k) (v'/r)^k, the expansion
    of S_k((v'/r) I + (v''- v'/r)/r * x (grad r)^T) in mixed
    discriminants; only two of them survive because the rank-one slot
    kills every term with two or more copies.
    """
    if r <= 0.0:
        raise DomainError("radial formula needs r > 0; see radial_sk_origin")
    _check_order(k, n, lo=1)
    a = vp / r
    return (math.comb(n - 1, k - 1) * vpp * a ** (k - 1)
            + math.comb(n - 1, k) * a ** k)


def radial_sk_origin(vpp0: float, n: int, k: int) -> float:
    """Limit of the radial S_k at the center, C(n,k) v''(0)^k."""
    _check_order(k, n, lo=1)
    return math.comb(n, k) * vpp0 ** k


def radial_energy(profile: MonotoneProfile, n: int, k: int, p: float,
                  kappa_n: float) -> float:
    """n kappa_n C(n-1,k-1) * int r^{n-k} v'(r)^p dr over the profile.

    The sum over the profile's nodes of weights r^{n-k} |derivative|^p.
    """
    _check_order(k, n, lo=1)
    if profile.derivative is None or profile.weights is None:
        raise DomainError("profile carries no derivative estimates or no "
                          "quadrature weights")
    total = np.sum(profile.weights * profile.r ** (n - k)
                   * np.abs(profile.derivative) ** p)
    return n * kappa_n * math.comb(n - 1, k - 1) * float(total)


def radial_hessian_integral(profile: MonotoneProfile, n: int, k: int,
                            kappa_n: float) -> float:
    """kappa_n C(n,k) * int_0^{r0} r^{n-k} v'(r)^{k+1} dr.

    The profile must describe v with v(r0) = 0 at its outer end; the
    integral is the Hessian energy of the radial field v(F*(x)).
    """
    scale = 1.0 + float(np.max(np.abs(profile.values)))
    if abs(profile.values[-1]) > 1e-6 * scale:
        raise DomainError("profile must vanish at its outer radius")
    return radial_energy(profile, n, k, k + 1.0, kappa_n) / k


def solve_radial(f_star: MonotoneProfile, outer_radius: float, n: int, k: int,
                 nodes: int = 4096) -> MonotoneProfile:
    """Radial solution of the k-Hessian equation with source f_star.

    v(r) = -(n / C(n,k))^{1/k} * int_r^R (s^{k-n} G(s))^{1/k} ds with
    G(s) = int_0^s f_star(t) t^{n-1} dt, exact for the linearly
    interpolated source (_source_integral); the returned increasing
    profile carries the analytic v' and the meta keys "vpp" with v'' and
    "clipped", the count of nodes where G came out negative (set to 0).
    """
    _check_order(k, n, lo=1)
    if outer_radius <= 0.0:
        raise DomainError("outer radius must be positive")
    if nodes < 2:
        raise DomainError(f"the radial solver needs nodes >= 2; got {nodes}")
    if np.any(f_star.values < 0.0):
        raise InputError("source profile must be nonnegative")
    r = np.linspace(0.0, outer_radius, nodes)
    big_g = _source_integral(f_star, n, outer_radius)
    cum = big_g(r)
    clipped = int(np.sum(cum < 0.0))
    if clipped:
        warnings.warn(f"clipped {clipped} negative cumulative values")
        cum = np.maximum(cum, 0.0)

    coeff = (n / math.comb(n, k)) ** (1.0 / k)

    def phi(s):
        g = np.maximum(big_g(s), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(s > 0.0, (s ** float(k - n) * g) ** (1.0 / k), 0.0)
        return coeff * val

    big_phi = panel_cumulative(phi, r)
    v = big_phi - big_phi[-1]
    vp = phi(r)
    # v'' = v' * (G'/G - (n-k)/r)/k with G' = f r^{n-1}; at r = 0 the limit
    # is (f(0)/C(n,k))^{1/k}
    vpp = np.empty_like(vp)
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = (vp[1:] * (f_star(r[1:]) * r[1:] ** (n - 1.0)
                              / np.maximum(cum[1:], 1e-300)
                              - (n - k) / r[1:]) / k)
    vpp[1:] = np.where(cum[1:] > 0.0, interior, 0.0)
    vpp[0] = (float(f_star(0.0)) / math.comb(n, k)) ** (1.0 / k)
    return MonotoneProfile(r, v, "increasing", vp,
                           {"vpp": vpp, "clipped": clipped})


def _source_integral(f_star: MonotoneProfile, n: int, outer_radius: float):
    """s -> G(s) = int_0^s f_star(t) t^{n-1} dt on [0, outer_radius], exact.

    The source is linear between its nodes and constant beyond its ends,
    so G is a polynomial on each segment between 0, the kinks of the
    source inside (0, outer_radius) and outer_radius: prefix sums of the
    segment integrals give G at the segment ends, and one more segment
    integral reaches any s. Nodes where the slope does not change are no
    segment ends, so a constant source solves bit for bit whatever its
    nodes.
    """
    r = f_star.r
    slopes = np.concatenate([[0.0], np.diff(f_star.values) / np.diff(r),
                             [0.0]])
    kink = (np.diff(slopes) != 0.0) & (r > 0.0) & (r < outer_radius)
    ends = np.concatenate([[0.0], r[kink], [outer_radius]])
    f_ends = f_star(ends)
    prefix = np.concatenate([[0.0], np.cumsum(_segment_integral(
        ends[:-1], np.diff(ends), f_ends[:-1], f_ends[1:], n))])

    def big_g(s):
        j = np.clip(np.searchsorted(ends, s, side="right") - 1,
                    0, ends.size - 2)
        return prefix[j] + _segment_integral(ends[j], s - ends[j],
                                             f_ends[j], f_star(s), n)

    return big_g


def _segment_integral(a, h, fa, fb, n: int):
    """int_a^{a+h} f(t) t^{n-1} dt for f linear from fa to fb, a, h >= 0.

    With t = a + h tau, t^{n-1} = sum_j C(n-1, j) a^{n-1-j} h^j tau^j and
    f = fa (1 - tau) + fb tau integrate term by term; for a nonnegative
    source every term is nonnegative, so nothing cancels.
    """
    total = 0.0
    for j in range(n):
        total = total + (math.comb(n - 1, j) * a ** (n - 1 - j) * h ** j
                         * (fa / ((j + 1) * (j + 2)) + fb / (j + 2)))
    return h * total


def rearrangement_grid(u: Field):
    """The polar grid (points, weights) that rearrange samples densities on.

    The radial node count bounds the value resolution (the profile is a
    staircase for radial densities), so it is kept much finer than the
    angular one: 43 panels of 48 Gauss nodes per ray in 2D (2,064 nodes,
    256 rays), 11 in 3D (528, 64 longitudes). comparison_margin needs no
    such grid: its constant source is its own rearrangement.
    """
    rays, panels = (256, 43) if u.dim == 2 else (64, 11)
    return polar_grid(u, rays=rays, panels=panels)


def rearrange(f, u: Field, kappa_n: float) -> MonotoneProfile:
    """Radially decreasing rearrangement of a density over {u < 0}.

    Samples f on rearrangement_grid(u), sorts by value (stable,
    descending), and matches cumulative volumes: the profile value at
    radius (V/kappa_n)^{1/n} is the density at cumulative volume V.
    Where node weights fall below the rounding of the running volume
    (near the anchor in 3D), runs of equal radii keep their last node.
    """
    pts, w = rearrangement_grid(u)
    fv = np.asarray(f(pts), dtype=float)
    if np.any(fv < -1e-12):
        raise InputError("rearrangement needs a nonnegative density")
    fv = np.maximum(fv, 0.0)
    order = np.argsort(-fv, kind="stable")
    fv = fv[order]
    vols = np.cumsum(w[order])
    radii = (vols / kappa_n) ** (1.0 / u.dim)
    last = np.append(np.diff(radii) > 0.0, True)
    if not np.all(last):
        radii, fv = radii[last], fv[last]
    return MonotoneProfile(radii, fv, "decreasing",
                           meta={"total_volume": float(vols[-1])})
