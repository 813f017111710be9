"""Symmetrization with respect to mixed volumes and inequality harnesses.

The order-(k-1) symmetrand of an admissible field u replaces each sublevel
set by the Wulff ball with the same (k-1)-th mixed volume: tabulate
t -> zeta_{k-1}(sublevel t) at the Gauss levels of one probe ray, invert
to the radial profile rho(r) = sup{t <= 0 : zeta(t) <= r}, read
u*(x) = rho(F*(x)), and integrate on the same nodes. The harnesses
quantify, at desk scale, that this symmetrization

* does not increase the k-Hessian energy (Polya-Szego margins),
* does not increase its p-generalized variants,
* does not decrease L^p norms,
* dominates the radial solution of the symmetrized Hessian equation
  (comparison principle), and
* realizes the sharp constants of the associated Sobolev embeddings.

Every harness except the Sobolev one reads a bodies.LevelTable: the mean
radii and coarea integrands of one sampled family of level sets. Build
the table once per (norm, field, level count, rays) and pass it to each
harness and order that needs it. The domain integrals of the field (its
energies and L^p norms) are arguments, read from a field_ops.PolarTable
or its one-request wrappers.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .anisotropy import Norm, wulff_volume
from .bodies import LevelTable
from .errors import DomainError, InputError, ModelError, NumericError
from .field_ops import PolarTable, _check_exponent, hessian_integral_coarea
from .invariants import _check_order
from .radial import (
    MonotoneProfile,
    radial_energy,
    radial_hessian_integral,
    solve_radial,
)


@dataclass(frozen=True, eq=False)
class SymmetrizationResult:
    order: int                      # energy order k; radii match zeta_{k-1}
    zeta: MonotoneProfile           # t -> zeta_{k-1}(sublevel t)
    rho: MonotoneProfile            # r -> symmetrand profile value
    outer_radius: float


@dataclass(frozen=True, eq=False)
class PsMarginResult:
    lhs: float
    rhs: float
    margin: float
    lhs_coarea: float | None


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    radii: np.ndarray
    margins: np.ndarray
    min_margin: float


@dataclass(frozen=True, eq=False)
class SobolevMarginResult:
    constant: float
    energy: float
    norm_power: float
    margin: float


def zeta_profile(table: LevelTable, k: int) -> MonotoneProfile:
    """Tabulate t -> zeta_{k-1}(sublevel t) on the table's sampled levels,
    with the slopes d zeta/dt = (d zeta/ds) / (dt/ds) of its level rule.

    A drop of zeta beyond MonotoneProfile's slack, 1e-10 (1 + max |zeta|),
    raises ModelError (the profile is not repaired): it signals
    non-quasi-convex data or insufficient resolution.
    """
    _check_order(k, table.field.dim, lo=1)
    on = table.sampled
    t, z = table.levels[on], table.zeta[k - 1][on]
    try:
        return MonotoneProfile(t, z, "increasing",
                               table.zeta_slopes[k - 1][on] / table.slopes[on])
    except InputError as exc:
        worst = float(np.min(np.diff(z)))
        if not worst < 0.0:
            raise
        raise ModelError(
            f"mean-radius profile decreases by {-worst:.3e}; the field is "
            "not quasi-convex or the sampling resolution is too low") from exc


def symmetrand(table: LevelTable, k: int) -> SymmetrizationResult:
    """Build the order-(k-1) symmetrand of the table's field: rho has the
    nodes (0, min u) and (zeta_i, t_i) at the table's nodes, the slopes
    dt/dzeta = (dt/ds) / (dzeta/ds) and the r-weights weights dzeta/ds of
    its level rule (both 0 at the anchor, where admissible fields are
    flat), which radial_energy and lp_compare sum on."""
    zeta = zeta_profile(table, k)
    z, dz = table.zeta[k - 1], table.zeta_slopes[k - 1]
    rho = MonotoneProfile(
        np.append(0.0, z), np.append(table.field.min_value, table.levels),
        "increasing", np.append(0.0, table.slopes / dz),
        weights=np.append(0.0, table.weights * dz))
    return SymmetrizationResult(k, zeta, rho, float(z[-1]))


def ps_margin(table: LevelTable, k: int, lhs: float) -> PsMarginResult:
    """Hessian-energy drop under symmetrization; margin must be >= 0.

    The left side ``lhs`` is the direct volume quadrature
    hessian_integral(norm, u, k), cross-checked against the coarea form
    computed from the same level table; the right side is the closed
    radial energy of the symmetrand profile.
    """
    norm, u = table.norm, table.field
    sym = symmetrand(table, k)
    lhs_coarea = hessian_integral_coarea(table, k)
    spread = abs(lhs - lhs_coarea) / (1.0 + abs(lhs))
    if spread > 5e-3:
        raise NumericError(
            f"direct and coarea energies disagree: {spread:.2e}")
    kappa = wulff_volume(norm)
    rhs = radial_hessian_integral(sym.rho, u.dim, k, kappa)
    return PsMarginResult(lhs, rhs, lhs - rhs, lhs_coarea)


def ps_margin_p(table: LevelTable, k: int, p: float,
                energy: float) -> PsMarginResult:
    """Generalized p-energy drop under symmetrization.

    ``energy`` is the field's generalized_integral(norm, u, k, p).
    """
    _check_exponent(p)
    sym = symmetrand(table, k)
    kappa = wulff_volume(table.norm)
    rhs = radial_energy(sym.rho, table.field.dim, k, p, kappa)
    return PsMarginResult(energy, rhs, energy - rhs, None)


def lp_compare(table: LevelTable, k: int, p: float, lhs: float):
    """(||u||_p, ||u*||_p); symmetrization does not decrease L^p norms.

    ``lhs`` is ||u||_p, lp_norm(u, p); p = inf compares the minima, which
    agree exactly (``lhs`` is then |min u|). ||u*||_p^p is the weighted
    sum of |rho|^p r^(n-1) on the nodes of the symmetrand profile rho, as
    in radial_energy.
    """
    n = table.field.dim
    rho = symmetrand(table, k).rho
    if p == math.inf:
        return lhs, abs(float(rho(0.0)))
    _check_exponent(p)
    kappa = wulff_volume(table.norm)
    mass = np.sum(rho.weights * np.abs(rho.values) ** p * rho.r ** (n - 1))
    return lhs, (n * kappa * float(mass)) ** (1.0 / p)


def comparison_margin(table: LevelTable, source, k: int,
                      solver_nodes: int = 4096,
                      polar: PolarTable | None = None) -> ComparisonResult:
    """Pointwise gap between the symmetrand and the radial solution.

    ``source`` is the constant right-hand side c >= 0 of S_k[v] = c.
    Requires S_k[u] <= c on the nodes of ``polar``, a PolarTable holding
    ("sk", k), with S_k[u] from the rule's field jets (violations raise
    with the worst point); then u*_{k-1} dominates the radial solution of
    S_k[v] = f* on the Wulff ball with matching mixed volume, and the
    returned margin profile rho - v must be nonnegative. A constant is
    its own decreasing rearrangement, so f* is the two-node profile c on
    [0, R]. The CLI passes the experiment's table, at grids.volume_panels
    directions; a missing ``polar`` is built at the table's ray count, on
    the fan the table sampled (Field.fan).
    """
    if not (isinstance(source, numbers.Real) and math.isfinite(source)
            and source >= 0.0):
        raise InputError(f"source must be a finite number >= 0, got "
                         f"{source!r}; pass the constant c of S_k[v] = c")
    c = float(source)
    norm, u = table.norm, table.field
    if polar is None:
        polar = PolarTable(norm, u, table.rays, [("sk", k)])
    sk_vals = polar[("sk", k)].reshape(-1)
    bad = sk_vals > c + 1e-9 * (1.0 + c)
    if np.any(bad):
        worst = int(np.argmax(sk_vals))
        pts = polar.points.reshape(-1, u.dim)
        raise InputError(
            "S_k[u] exceeds the source at "
            f"x={pts[worst].tolist()}: {sk_vals[worst]:.6g} > {c:.6g}")
    sym = symmetrand(table, k)
    f_star = MonotoneProfile([0.0, sym.outer_radius], [c, c], "decreasing")
    v = solve_radial(f_star, sym.outer_radius, u.dim, k, nodes=solver_nodes)
    margins = sym.rho(v.r) - v.values
    return ComparisonResult(v.r, margins, float(np.min(margins)))


def sobolev_constant(norm: Norm, k: int, p: float) -> float:
    """Sharp constant of ||u||_q^p <= C * I_{k,p}, q = np/(n-k+1-p).

    Finite only for p < n - k + 1 (the borderline and beyond are out of
    range); at p = 1 the leading factor is 0^0 = 1 by continuity.
    """
    n = norm.dim
    _check_order(k, n, lo=1)
    _check_exponent(p)
    if p >= n - k + 1:
        raise DomainError(
            f"p={p} >= n-k+1={n - k + 1}: borderline/Morrey range is not "
            "covered")
    kappa = wulff_volume(norm)
    lead = ((p - 1.0) / (n - k + 1.0 - p)) ** (p - 1.0)
    s = k - 1.0 + p
    gammas = (math.gamma(n * p / s)
              / (math.gamma(n / s) * math.gamma(1.0 + n * (p - 1.0) / s)
                 * kappa))
    return lead / (k * math.comb(n, k)) * gammas ** (s / n)


def sobolev_exponent(n: int, k: int, p: float) -> float:
    """The exponent q = np/(n-k+1-p) of the sharp Sobolev inequality."""
    return n * p / (n - k + 1.0 - p)


def sobolev_margin(norm: Norm, k: int, p: float, energy: float,
                   lq: float) -> SobolevMarginResult:
    """Slack C * I_{k,p}[u] - ||u||_q^p of the sharp Sobolev inequality.

    ``energy`` is I_{k,p}[u] = generalized_integral(norm, u, k, p) and
    ``lq`` is ||u||_q = lp_norm(u, sobolev_exponent(n, k, p)).
    """
    c = sobolev_constant(norm, k, p)
    norm_power = lq ** p
    return SobolevMarginResult(c, energy, norm_power,
                               c * energy - norm_power)
