import copy
import dataclasses
import math

import numpy as np
import pytest

from conftest import ellipse_perimeter
from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym.bodies import LevelTable
from wulffsym.errors import DomainError, InputError, ModelError
from wulffsym.field_ops import (
    PolarTable,
    generalized_integral,
    hessian_integral,
    hessian_integral_coarea,
    lp_norm,
)
from wulffsym.fields import (
    perturbed_radial,
    quadratic_ellipsoid,
    radial_field,
    radial_power,
)
from wulffsym.radial import rearrange, solve_radial
from wulffsym.symmetrize import (
    comparison_margin,
    lp_compare,
    ps_margin,
    ps_margin_p,
    sobolev_constant,
    sobolev_exponent,
    sobolev_margin,
    symmetrand,
    zeta_profile,
)

ELLIPSE_ZETA1 = ellipse_perimeter(2.0, 1.0) / (2.0 * math.pi)


def ellipse_field():
    return quadratic_ellipsoid(2, axes=[2.0, 1.0])


class TestZetaProfile:
    def test_ellipse_volume_radius(self):
        # level sets are ellipses with axes 2 sqrt(1+2t), sqrt(1+2t)
        norm = euclidean_norm(2)
        prof = zeta_profile(LevelTable(norm, ellipse_field()), 1)
        want = np.sqrt(2.0 * (1.0 + 2.0 * prof.r))
        assert np.max(np.abs(prof.values - want)) < 1e-5

    def test_ellipse_perimeter_radius(self):
        norm = euclidean_norm(2)
        prof = zeta_profile(LevelTable(norm, ellipse_field()), 2)
        want = ELLIPSE_ZETA1 * np.sqrt(1.0 + 2.0 * prof.r)
        assert np.max(np.abs(prof.values - want) / want) < 1e-5

    def test_radial_fixed_point(self):
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0]))):
            table = LevelTable(norm, radial_power(norm, a=2.0))
            for k in (1, 2):
                prof = zeta_profile(table, k)
                want = np.sqrt(1.0 + 2.0 * prof.r)
                assert np.max(np.abs(prof.values - want)) < 1e-7

    def test_drop_beyond_the_profile_slack_is_a_model_error(self):
        # MonotoneProfile's slack 1e-10 (1 + max zeta) is the one rule: a
        # drop ten times larger is a ModelError, one ten times smaller
        # is kept
        table = LevelTable(euclidean_norm(2), ellipse_field(), 40, rays=256)
        scale = 1.0 + float(np.max(table.zeta[0]))
        for drop, fails in ((1e-9, True), (1e-11, False)):
            bent = copy.copy(table)
            bent.zeta = table.zeta.copy()
            bent.zeta[0, 21] = bent.zeta[0, 20] - drop * scale
            if fails:
                with pytest.raises(ModelError,
                                   match="mean-radius profile decreases"):
                    zeta_profile(bent, 1)
            else:
                assert zeta_profile(bent, 1).values[21] == bent.zeta[0, 21]

    def test_derivative_inverse_consistency(self):
        # d zeta/dt at a level times rho'(zeta) equals one; check away from
        # the degenerate bottom where the derivative blows up
        norm = euclidean_norm(2)
        sym = symmetrand(LevelTable(norm, ellipse_field()), 1)
        t = np.linspace(-0.42, -0.02, 25)
        dz = sym.zeta.derivative_at(t)
        rr = sym.zeta(t)
        assert np.max(np.abs(dz * sym.rho.derivative_at(rr) - 1.0)) < 1e-3


class TestSymmetrand:
    def test_ellipse_volume_case(self):
        # interpolation between level nodes is coarse near the bottom
        # (zeta' blows up there); tight agreement holds away from it
        norm = euclidean_norm(2)
        sym = symmetrand(LevelTable(norm, ellipse_field()), 1)
        assert sym.outer_radius == pytest.approx(math.sqrt(2.0), rel=1e-6)
        r = np.linspace(0.05, sym.outer_radius, 40)
        want = r ** 2 / 4.0 - 0.5
        assert np.max(np.abs(sym.rho(r) - want)) < 5e-4
        upper = r > 0.5
        assert np.max(np.abs(sym.rho(r[upper]) - want[upper])) < 1e-5

    def test_ellipse_perimeter_case(self):
        norm = euclidean_norm(2)
        sym = symmetrand(LevelTable(norm, ellipse_field()), 2)
        assert sym.outer_radius == pytest.approx(ELLIPSE_ZETA1, rel=1e-5)
        r = np.linspace(0.05, sym.outer_radius, 40)
        want = ((r / ELLIPSE_ZETA1) ** 2 - 1.0) / 2.0
        assert np.max(np.abs(sym.rho(r) - want)) < 5e-4
        upper = r > 0.5
        assert np.max(np.abs(sym.rho(r[upper]) - want[upper])) < 1e-5

    def test_radial_data_is_fixed_point(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        table = LevelTable(norm, radial_power(norm, a=2.0))
        for k in (1, 2):
            sym = symmetrand(table, k)
            # exact reproduction at the tabulated radii
            nodes = sym.rho.r[1:]
            assert np.max(np.abs(sym.rho(nodes)
                                 - (nodes ** 2 - 1.0) / 2.0)) < 1e-6
            # interpolation between nodes limited by the level grid
            r = np.linspace(0.02, 1.0, 50)
            want = (r ** 2 - 1.0) / 2.0
            assert np.max(np.abs(sym.rho(r) - want)) < 5e-4
            upper = r > 0.3
            assert np.max(np.abs(sym.rho(r[upper]) - want[upper])) < 2e-5

    def test_endpoint_conventions(self):
        norm = euclidean_norm(2)
        sym = symmetrand(LevelTable(norm, ellipse_field()), 1)
        assert sym.rho(0.0) == pytest.approx(-0.5, abs=1e-12)
        assert sym.rho(sym.outer_radius) == pytest.approx(0.0, abs=1e-9)
        # mixed-volume preservation holds exactly on the table
        assert np.allclose(sym.rho(sym.zeta.values), sym.zeta.r, atol=1e-12)


class TestGaussLevelAccuracy:
    """The level rule at the benchmark's level counts: rows that theory
    makes equalities read them to rounding."""

    def test_ellipse_coarea_and_volume_l2(self):
        # 200 levels, 2048 rays, 400 polar directions: ellipse2d's grids
        norm, u = euclidean_norm(2), ellipse_field()
        table = LevelTable(norm, u, 200, 2048)
        polar = PolarTable(norm, u, 400, [("hessian", 1), ("hessian", 2),
                                          ("lp", 2.0)])
        for k in (1, 2):
            direct = polar[("hessian", k)]
            coarea = hessian_integral_coarea(table, k)
            assert abs(coarea - direct) <= 1e-12 * (1.0 + direct)
        lhs, rhs = lp_compare(table, 1, 2.0, polar[("lp", 2.0)])
        assert abs(rhs - lhs) <= 1e-12

    def test_ball_sides(self):
        # 150 levels, 96 longitudes and 96 polar directions: ball3d's
        # grids; the Polya-Szego sides, coarea against direct energy and
        # the L^2 sides of the unit ball, its own symmetrand
        norm, u = euclidean_norm(3), quadratic_ellipsoid(3)
        table = LevelTable(norm, u, 150, 96)
        polar = PolarTable(norm, u, 96, [("hessian", 1), ("lp", 2.0)])
        res = ps_margin(table, 1, polar[("hessian", 1)])
        assert abs(res.margin) <= 1e-12 * res.lhs
        assert abs(res.lhs_coarea - res.lhs) <= 1e-12 * res.lhs
        lhs, rhs = lp_compare(table, 1, 2.0, polar[("lp", 2.0)])
        assert abs(rhs - lhs) <= 1e-12

    def test_aniso_cubic_polya_szego_sides(self):
        # the check entry aniso-cubic: radial_power a = 3 under diag(4, 1)
        # at 160 levels and 512 rays, k = 2
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        table = LevelTable(norm, radial_power(norm, a=3.0), 160, 512)
        res = _ps_margin(table, 2)
        assert abs(res.margin) <= 1e-12 * res.lhs

    def test_sixth_power_skips_levels_below_the_lowest_sampled(self):
        # t - m grows like s^6 along the probe ray: the lowest Gauss levels
        # round onto the minimum or have |grad u| < 1e-10, are skipped with
        # a warning, and take the anchor limit of zeta, which is exact on
        # this Wulff-radial field
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = radial_power(norm, a=6.0)
        with pytest.warns(UserWarning, match="skipping degenerate level"):
            table = LevelTable(norm, u, 200, 512)
        below = ~table.sampled
        assert 0 < below.sum() == table.skipped.size
        assert np.all(table.coarea[:, below] == 0.0)
        # the anchor limit: zeta_j / s below the lowest sampled node is
        # that node's, where zeta_j = s F*(e_1) = s / 2 on the Wulff balls
        # up to the rounding of u at t - m of order 1e-12
        first = int(np.argmax(table.sampled))
        ratio = table.zeta[:, first] / table.s[first]
        assert np.allclose(table.zeta[:, below] / table.s[below],
                           ratio[:, None], rtol=1e-15, atol=0.0)
        assert np.allclose(ratio, 0.5, rtol=1e-5, atol=0.0)
        for k in (1, 2):
            res = _ps_margin(table, k)
            assert abs(res.margin) <= 1e-12 * res.lhs
            lhs, rhs = _lp_compare(table, k, 2.0)
            assert abs(rhs - lhs) <= 1e-12


def _ps_margin(table, k):
    return ps_margin(table, k, hessian_integral(table.norm, table.field, k))


class TestPolyaSzego:
    def test_ellipse_order_one(self):
        norm = euclidean_norm(2)
        res = _ps_margin(LevelTable(norm, ellipse_field()), 1)
        assert res.lhs == pytest.approx(5.0 * math.pi / 8.0, rel=1e-4)
        assert res.rhs == pytest.approx(math.pi / 2.0, rel=1e-4)
        assert res.margin == pytest.approx(math.pi / 8.0, rel=1e-3)
        assert res.lhs_coarea == pytest.approx(res.lhs, rel=1e-3)

    def test_disc_order_two_is_equality(self):
        norm = euclidean_norm(2)
        res = _ps_margin(LevelTable(norm, quadratic_ellipsoid(2)), 2)
        assert abs(res.margin) <= 1e-4 * res.lhs

    def test_radial_equality_all_norms(self):
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            table = LevelTable(norm, radial_power(norm, a=3.0))
            for k in (1, 2):
                res = _ps_margin(table, k)
                assert abs(res.margin) <= 1e-4 * abs(res.lhs)

    def test_nonradial_margins_positive(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        table = LevelTable(norm, perturbed_radial(norm))
        for k in (1, 2):
            res = _ps_margin(table, k)
            assert res.margin >= -1e-4 * (1.0 + abs(res.lhs))

    def test_chain_inequality_at_levels(self):
        # per-level bound: (1/k) * surface energy >= kappa C(n,k)
        # zeta^{n-k} * rho'(zeta)^k, at every level
        norm = euclidean_norm(2)
        table = LevelTable(norm, ellipse_field())
        kap = wulff_volume(norm)
        for k in (1, 2):
            sym = symmetrand(table, k)
            lhs = table.coarea[k - 1] / k
            zeta = table.zeta[k - 1]
            slopes = sym.rho.derivative_at(zeta)
            rhs = (kap * math.comb(2, k) * zeta ** (2 - k)
                   * slopes ** k)
            assert np.min(lhs - rhs) > -1e-3 * np.max(np.abs(lhs))

    def test_chain_equalities_on_radial_data(self):
        norm = euclidean_norm(2)
        table = LevelTable(norm, radial_power(norm, a=2.0))
        kap = wulff_volume(norm)
        k = 2
        sym = symmetrand(table, k)
        lhs = table.coarea[k - 1] / k
        zeta = table.zeta[k - 1]
        slopes = sym.rho.derivative_at(zeta)
        rhs = (kap * math.comb(2, k) * zeta ** (2 - k)
               * slopes ** k)
        assert np.max(np.abs(lhs - rhs) / (1.0 + lhs)) < 1e-4


def _energy(table, k, p):
    return generalized_integral(table.norm, table.field, k, p,
                                rays=table.rays)


class TestPolyaSzegoP:
    def test_p_equal_kplus1_matches_k_times_hessian(self):
        table = LevelTable(euclidean_norm(2), ellipse_field())
        for k in (1, 2):
            res_p = ps_margin_p(table, k, k + 1.0,
                                _energy(table, k, k + 1.0))
            res = _ps_margin(table, k)
            assert res_p.lhs == pytest.approx(k * res.lhs, rel=2e-4)
            assert res_p.rhs == pytest.approx(k * res.rhs, rel=2e-4)

    def test_k1_p2_reproduces_order_one_margin(self):
        norm = euclidean_norm(2)
        table = LevelTable(norm, ellipse_field())
        res = ps_margin_p(table, 1, 2.0, _energy(table, 1, 2.0))
        assert res.margin == pytest.approx(math.pi / 8.0, rel=1e-3)

    def test_radial_equality(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        table = LevelTable(norm, radial_power(norm, a=2.0))
        for k, p in ((1, 1.5), (1, 3.0), (2, 2.0)):
            res = ps_margin_p(table, k, p, _energy(table, k, p))
            assert abs(res.margin) <= 1e-4 * abs(res.lhs)

    def test_margins_nonnegative_generally(self):
        norm = regularized_p_norm(2, 3.0)
        table = LevelTable(norm, perturbed_radial(norm))
        res = ps_margin_p(table, 1, 2.5, _energy(table, 1, 2.5))
        assert res.margin >= -1e-4 * (1.0 + abs(res.lhs))


def _lp_compare(table, k, p):
    lhs = (abs(table.field.min_value) if p == math.inf
           else lp_norm(table.field, p))
    return lp_compare(table, k, p, lhs)


class TestLpCompare:
    def test_volume_case_is_equality(self):
        norm = euclidean_norm(2)
        lhs, rhs = _lp_compare(LevelTable(norm, ellipse_field()), 1, 2.0)
        assert lhs ** 2 == pytest.approx(math.pi / 6.0, rel=1e-4)
        assert rhs ** 2 == pytest.approx(math.pi / 6.0, rel=1e-4)
        assert lhs <= rhs + 1e-4

    def test_higher_order_strict(self):
        norm = euclidean_norm(2)
        lhs, rhs = _lp_compare(LevelTable(norm, ellipse_field()), 2, 2.0)
        assert lhs < rhs - 1e-3

    def test_infinity_norm_equality(self):
        norm = euclidean_norm(2)
        lhs, rhs = _lp_compare(LevelTable(norm, ellipse_field()), 2,
                               math.inf)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [1, 2])
    def test_l2_of_the_profile_is_exact(self, k):
        # ||u*||_2^2 is the Gauss sum on rho's nodes; on the ellipse
        # zeta_{k-1} is linear in the probe-ray radius s, so the sum is
        # exact: pi/6 at k = 1 (u* is equimeasurable with u) and
        # pi Z_1^2 / 12 at k = 2, with rho = ((r / Z_1)^2 - 1) / 2
        norm = euclidean_norm(2)
        table = LevelTable(norm, ellipse_field())
        want = math.sqrt(math.pi / 6.0 if k == 1
                         else math.pi * ELLIPSE_ZETA1 ** 2 / 12.0)
        _, rhs = lp_compare(table, k, 2.0, 0.0)
        assert rhs == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_exponents_rejected(p):
    norm = euclidean_norm(2)
    table = LevelTable(norm, ellipse_field(), 40, rays=256)
    with pytest.raises(DomainError, match="exponent p must be"):
        ps_margin_p(table, 1, p, 1.0)
    with pytest.raises(DomainError, match="exponent p must be"):
        sobolev_constant(norm, 1, p)
    if p != math.inf:  # lp_compare compares the minima at p = inf
        with pytest.raises(DomainError, match="exponent p must be"):
            lp_compare(table, 1, p, 1.0)


class TestComparison:
    def test_ellipse_closed_form_margin(self):
        # Delta u = 5/4 exactly, so f = 5/4 makes the inequality tight at
        # the outer radius; the gap profile is (2 - r^2)/16
        norm = euclidean_norm(2)
        res = comparison_margin(LevelTable(norm, ellipse_field()), 1.25, 1)
        want = (2.0 - res.radii ** 2) / 16.0
        assert np.max(np.abs(res.margins - want)) < 1e-3
        assert res.min_margin >= -1e-4

    def test_exact_radial_data_gives_zero_margin(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        table = LevelTable(norm, radial_power(norm, a=2.0))
        for k in (1, 2):
            res = comparison_margin(table, float(math.comb(2, k)), k)
            assert np.max(np.abs(res.margins)) <= 1e-4

    def test_inflated_source_strictly_positive(self):
        norm = euclidean_norm(2)
        res = comparison_margin(LevelTable(norm, ellipse_field()), 2.5, 1)
        interior = res.radii < 0.95 * res.radii[-1]
        assert np.min(res.margins[interior]) > 1e-3

    def test_reads_the_ray_restriction(self):
        # the S_k check takes the field jets from the polar rule's ray
        # restriction; the pointwise oracles are never evaluated
        def boom(pts):
            raise AssertionError("pointwise oracle evaluated")

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        table = LevelTable(norm, u, 40, 256)
        blind = LevelTable(norm, dataclasses.replace(
            u, jets_fn=boom, values_fn=boom), 40, 256)

        want = comparison_margin(table, 4.0, 1)
        got = comparison_margin(blind, 4.0, 1)
        assert np.array_equal(got.radii, want.radii)
        assert np.array_equal(got.margins, want.margins)
        assert got.min_margin == want.min_margin

    @pytest.mark.parametrize("dim, axes, c, k", [
        (2, [2.0, 1.0], 1.25, 1),
        (3, [1.0, 1.0, 1.0], 3.0, 2),
    ], ids=["ellipse", "ball3"])
    def test_constant_source_is_its_own_rearrangement(self, dim, axes, c,
                                                      k):
        # the rearranged constant density reads c wherever solve_radial
        # evaluates it, so the two-node source profile solves bit for bit
        norm = euclidean_norm(dim)
        u = quadratic_ellipsoid(dim, axes=axes)
        table = LevelTable(norm, u, 40, 64 if dim == 2 else 32)
        res = comparison_margin(table, c, k)
        sym = symmetrand(table, k)
        f_star = rearrange(lambda pts: np.full(pts.shape[0], c), u,
                           wulff_volume(norm))
        v = solve_radial(f_star, sym.outer_radius, dim, k)
        assert np.array_equal(res.radii, v.r)
        assert np.array_equal(res.margins, sym.rho(v.r) - v.values)

    @pytest.mark.parametrize("source", [
        math.nan, math.inf, -1.0, lambda pts: np.full(pts.shape[0], 2.5)],
        ids=["nan", "inf", "negative", "callable"])
    def test_rejects_a_source_that_is_not_a_constant(self, source):
        table = LevelTable(euclidean_norm(2), ellipse_field(), 40, 64)
        with pytest.raises(InputError, match="constant"):
            comparison_margin(table, source, 1)

    def test_precondition_violation_raises(self):
        norm = euclidean_norm(2)
        with pytest.raises(InputError):
            comparison_margin(LevelTable(norm, ellipse_field()), 1.0, 1)


class TestSobolevConstant:
    def test_isoperimetric_case(self):
        norm = euclidean_norm(2)
        assert sobolev_constant(norm, 1, 1.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-10)

    def test_talenti_squared(self):
        # independent sharp-Sobolev oracle (gradient-to-q form) for
        # n = 3, p = 2: C_T = pi^{-1/2} n^{-1/p} ((p-1)/(n-p))^{1-1/p} *
        # (Gamma(1+n/2) Gamma(n) / (Gamma(n/p) Gamma(1+n-n/p)))^{1/n}
        n, p = 3, 2.0
        c_t = (math.pi ** -0.5 * n ** (-1.0 / p)
               * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
               * (math.gamma(1.0 + n / 2.0) * math.gamma(n)
                  / (math.gamma(n / p)
                     * math.gamma(1.0 + n - n / p))) ** (1.0 / n))
        norm = euclidean_norm(3)
        assert sobolev_constant(norm, 1, 2.0) == pytest.approx(
            c_t ** 2, rel=1e-4)
        assert sobolev_constant(norm, 1, 2.0) == pytest.approx(
            0.018259 * 10, rel=1e-3)

    def test_kappa_scaling_across_norms(self):
        n, k, p = 2, 1, 1.5
        base = sobolev_constant(euclidean_norm(n), k, p)
        for norm in (ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            kap = wulff_volume(norm)
            want = base * (math.pi / kap) ** ((k - 1.0 + p) / n)
            assert sobolev_constant(norm, k, p) == pytest.approx(
                want, rel=1e-10)

    def test_borderline_rejected(self):
        norm = euclidean_norm(2)
        with pytest.raises(DomainError):
            sobolev_constant(norm, 2, 1.0)  # p = n - k + 1 exactly
        with pytest.raises(DomainError):
            sobolev_constant(norm, 1, 2.0)


def _sobolev_margin(norm, u, k, p):
    return sobolev_margin(norm, k, p, generalized_integral(norm, u, k, p),
                          lp_norm(u, sobolev_exponent(u.dim, k, p)))


class TestSobolevMargin:
    def test_ellipse_strictly_positive(self):
        norm = euclidean_norm(2)
        u = ellipse_field()
        res = _sobolev_margin(norm, u, 1, 1.0)
        assert res.margin > 0.0
        assert res.margin >= -1e-4 * (1.0 + res.constant * res.energy)

    def test_near_extremal_radial_profile(self):
        # the bubble-shaped profile approaches the extremal of the
        # k = 1, p = 2 embedding in n = 3; margin stays small but positive
        norm = euclidean_norm(3)
        big_r = 8.0
        shift = (1.0 + big_r ** 2) ** -0.5

        def v(r):
            return shift - (1.0 + np.asarray(r) ** 2) ** -0.5

        def vp(r):
            r = np.asarray(r)
            return r * (1.0 + r ** 2) ** -1.5

        def vpp(r):
            r = np.asarray(r)
            return (1.0 - 2.0 * r ** 2) * (1.0 + r ** 2) ** -2.5

        u = radial_field(norm, v, vp, vpp, radius=big_r)
        res = _sobolev_margin(norm, u, 1, 2.0)
        scale = res.constant * res.energy
        assert res.margin >= -1e-4 * (1.0 + scale)
        assert res.margin < 0.35 * scale
