import math

import numpy as np
import pytest

from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym import quad, radial, rays
from wulffsym.errors import DomainError, InputError
from wulffsym.field_ops import hessian_integral, sk_field
from wulffsym.fields import quadratic_ellipsoid, radial_field, radial_power
from wulffsym.quad import legendre_rule
from wulffsym.radial import (
    MonotoneProfile,
    profile_from_callable,
    radial_energy,
    radial_hessian_integral,
    radial_sk,
    radial_sk_origin,
    rearrange,
    solve_radial,
)


def gauss_profile(v, dv, radius=1.0, nodes=201):
    """The increasing profile of v on [0, radius] at the Gauss nodes of
    the interval and at both ends, carrying the slopes dv and the Gauss
    weights (0 at the ends) as its quadrature weights in r."""
    x, w = legendre_rule(nodes)
    r = np.concatenate([[0.0], 0.5 * radius * (x + 1.0), [radius]])
    return MonotoneProfile(r, v(r), "increasing", derivative=dv(r),
                           weights=np.concatenate([[0.0], 0.5 * radius * w,
                                                   [0.0]]))


def parabolic_profile(radius=1.0):
    # an odd node count puts the middle Gauss node at radius / 2
    return gauss_profile(lambda r: 0.5 * (r * r - radius * radius),
                         lambda r: r, radius)


class TestMonotoneProfile:
    def test_validation(self):
        with pytest.raises(InputError):
            MonotoneProfile(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                            "increasing")
        with pytest.raises(InputError):
            MonotoneProfile(np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                            "increasing")

    def test_non_finite_rejected(self):
        # a NaN abscissa or value passes the order checks (every comparison
        # with NaN is false), so it is rejected on its own
        with pytest.raises(InputError, match="finite"):
            MonotoneProfile([0.0, math.nan, 1.0], [0.0, 0.5, 1.0],
                            "increasing")
        with pytest.raises(InputError, match="finite"):
            MonotoneProfile([0.0, 0.5, 1.0], [0.0, math.inf, 1.0],
                            "increasing")
        # so a NaN source never reaches solve_radial
        with pytest.raises(InputError, match="finite"):
            solve_radial(profile_from_callable(
                lambda r: np.full_like(r, math.nan), np.linspace(0, 1, 9),
                direction="decreasing"), 1.0, 2, 1)

    def test_plateau_extension(self):
        p = parabolic_profile()
        assert p(2.0) == pytest.approx(0.0)
        assert p(-1.0) == pytest.approx(-0.5)

    def test_interpolation(self):
        p = parabolic_profile()
        assert p(0.5) == pytest.approx(0.5 * (0.25 - 1.0), abs=1e-6)
        assert p.derivative_at(0.5) == pytest.approx(0.5, abs=1e-6)


class TestRadialSk:
    def test_parabola_gives_binomial(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                got = radial_sk(vp=0.7, vpp=1.0, r=0.7, n=n, k=k)
                assert got == pytest.approx(math.comb(n, k), rel=1e-12)

    def test_cone_mean_curvature(self):
        # v = r: v'' = 0, k = 1 gives (n-1)/r
        assert radial_sk(1.0, 0.0, 0.25, 3, 1) == pytest.approx(8.0)

    def test_origin_limit(self):
        assert radial_sk_origin(2.0, 3, 2) == pytest.approx(3 * 4.0)
        with pytest.raises(DomainError):
            radial_sk(1.0, 1.0, 0.0, 2, 1)

    def test_matches_field_operator(self):
        # u = v(F*) with a generic smooth v, ellipsoid norm, n = 3
        norm = ellipsoid_norm(np.diag([4.0, 1.0, 2.25]))

        def v(r):
            r = np.asarray(r, dtype=float)
            return 0.5 * r * r + 0.25 * r ** 4 - 0.75

        def vp(r):
            r = np.asarray(r, dtype=float)
            return r + r ** 3

        def vpp(r):
            r = np.asarray(r, dtype=float)
            return 1.0 + 3.0 * r * r

        u = radial_field(norm, v, vp, vpp, radius=1.0)
        rng = np.random.default_rng(0)
        from wulffsym.anisotropy import dual_jet
        pts = rng.uniform(-0.4, 0.4, size=(12, 3))
        r = dual_jet(norm, pts)[0]
        for k in (1, 2, 3):
            for x, ri in zip(pts, r):
                want = radial_sk(float(vp(ri)), float(vpp(ri)), float(ri),
                                 3, k)
                assert sk_field(norm, u, x, k) == pytest.approx(
                    want, rel=1e-8)


class TestRadialHessianIntegral:
    def test_disc_values(self):
        p = parabolic_profile()
        assert radial_hessian_integral(p, 2, 2, math.pi) == pytest.approx(
            math.pi / 4.0, rel=1e-9)
        assert radial_hessian_integral(p, 2, 1, math.pi) == pytest.approx(
            math.pi / 2.0, rel=1e-9)

    def test_scales_linearly_in_kappa(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        kap = wulff_volume(norm)
        p = parabolic_profile()
        assert radial_hessian_integral(p, 2, 2, kap) == pytest.approx(
            kap / 4.0, rel=1e-9)

    def test_matches_volume_quadrature(self):
        # energy of the composed field v(F*) against the field-space path
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            kap = wulff_volume(norm)
            u = radial_power(norm, a=3.0)
            prof = gauss_profile(lambda r: (r ** 3 - 1.0) / 3.0,
                                 lambda r: r ** 2, nodes=48)
            for k in (1, 2):
                want = radial_hessian_integral(prof, 2, k, kap)
                got = hessian_integral(norm, u, k)
                assert got == pytest.approx(want, rel=1e-4)

    def test_rejects_nonvanishing_boundary(self):
        r = np.linspace(0.0, 1.0, 101)
        p = MonotoneProfile(r, r, "increasing", derivative=np.ones_like(r))
        with pytest.raises(DomainError):
            radial_hessian_integral(p, 2, 1, math.pi)

    def test_energy_needs_slope_estimates(self):
        # a profile without slopes is rejected, not differenced numerically
        r = np.linspace(0.0, 1.0, 101)
        p = MonotoneProfile(r, 0.5 * (r * r - 1.0), "increasing")
        with pytest.raises(DomainError, match="no derivative estimates"):
            radial_energy(p, 2, 1, 2.0, math.pi)
        with pytest.raises(DomainError, match="no derivative estimates"):
            radial_hessian_integral(p, 2, 1, math.pi)

    def test_energy_needs_quadrature_weights(self):
        # the energies are weighted sums on the profile's nodes, with no
        # panel rule beside them
        r = np.linspace(0.0, 1.0, 101)
        p = MonotoneProfile(r, 0.5 * (r * r - 1.0), "increasing",
                            derivative=r)
        with pytest.raises(DomainError, match="no quadrature weights"):
            radial_energy(p, 2, 1, 2.0, math.pi)


class TestSolveRadial:
    def constant_profile(self, c, radius):
        r = np.linspace(0.0, radius, 64)
        return MonotoneProfile(r, np.full_like(r, c), "decreasing")

    def test_unit_source_monge_ampere(self):
        f = self.constant_profile(1.0, 1.0)
        v = solve_radial(f, 1.0, 2, 2)
        want = -(1.0 - v.r ** 2) / 2.0
        assert np.max(np.abs(v.values - want)) < 1e-8

    def test_constant_source_closed_form(self):
        for n, k, c, radius in ((2, 1, 2.0, 1.3), (3, 2, 0.7, 0.9),
                                (3, 3, 1.5, 1.1)):
            f = self.constant_profile(c, radius)
            v = solve_radial(f, radius, n, k)
            want = -((c / math.comb(n, k)) ** (1.0 / k)
                     * (radius ** 2 - v.r ** 2) / 2.0)
            assert np.max(np.abs(v.values - want)) < 1e-8

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_constant_source_to_rounding(self, n, k):
        # the inner integral is exact for a piecewise-linear source, so a
        # constant one solves to rounding, on two nodes or on 64
        c, radius = 1.25, 1.3
        want_slope = (c / math.comb(n, k)) ** (1.0 / k)
        for f in (MonotoneProfile([0.0, radius], [c, c], "decreasing"),
                  self.constant_profile(c, radius)):
            v = solve_radial(f, radius, n, k)
            want = -want_slope * (radius ** 2 - v.r ** 2) / 2.0
            assert np.max(np.abs(v.values - want)) <= 1e-14
            assert np.max(np.abs(v.derivative - want_slope * v.r)) <= 1e-14
            assert v.meta["clipped"] == 0

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_piecewise_linear_source_against_segment_gauss(self, n, k):
        # v'(r) = (n/C(n,k))^{1/k} (r^{k-n} G(r))^{1/k}: G from a 6-node
        # Gauss rule on every piece between the source's nodes and r
        # (exact for the degree-n integrand f(t) t^{n-1}), the source
        # constant beyond its ends
        nodes = np.array([0.13, 0.37, 0.61, 0.93])
        values = np.array([3.0, 2.5, 1.0, 0.2])
        f = MonotoneProfile(nodes, values, "decreasing")
        radius = 1.2
        v = solve_radial(f, radius, n, k, nodes=97)
        x, w = np.polynomial.legendre.leggauss(6)

        def inner(r):
            ends = np.concatenate([[0.0], nodes[nodes < r], [r]])
            total = 0.0
            for a, b in zip(ends[:-1], ends[1:]):
                t = a + 0.5 * (b - a) * (x + 1.0)
                total += 0.5 * (b - a) * np.sum(
                    w * np.interp(t, nodes, values) * t ** (n - 1))
            return total

        coeff = (n / math.comb(n, k)) ** (1.0 / k)
        want = np.array([coeff * (r ** (k - n) * inner(r)) ** (1.0 / k)
                         for r in v.r[1:]])
        got = v.derivative[1:]
        assert np.max(np.abs(got - want) / want) <= 1e-13
        # G itself, between the solver's nodes too
        s = np.random.default_rng(5).uniform(0.0, radius, 200)
        big_g = radial._source_integral(f, n, radius)
        want = np.array([inner(r) for r in s])
        assert np.max(np.abs(big_g(s) - want) / want) <= 1e-13

    def test_comparison_source(self):
        f = self.constant_profile(5.0 / 4.0, math.sqrt(2.0))
        v = solve_radial(f, math.sqrt(2.0), 2, 1)
        want = -(5.0 / 16.0) * (2.0 - v.r ** 2)
        assert np.max(np.abs(v.values - want)) < 1e-8

    def test_back_substitution(self):
        # S_k of the solution must reproduce the source on interior nodes
        grid = np.linspace(0.0, 1.0, 64)
        f = MonotoneProfile(grid, 2.0 - grid ** 2, "decreasing")
        for n, k in ((2, 1), (2, 2), (3, 2)):
            v = solve_radial(f, 1.0, n, k)
            vp, vpp = v.derivative, v.meta["vpp"]
            sel = slice(40, -40)
            got = np.array([
                radial_sk(a, b, r, n, k)
                for a, b, r in zip(vp[sel], vpp[sel], v.r[sel])])
            want = f(v.r[sel])
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-4

    def test_rejects_negative_source(self):
        r = np.linspace(0.0, 1.0, 16)
        f = MonotoneProfile(r, -np.ones_like(r), "decreasing")
        with pytest.raises(InputError):
            solve_radial(f, 1.0, 2, 1)

    @pytest.mark.parametrize("nodes", [1, 0, -4])
    def test_rejects_fewer_than_two_nodes(self, nodes):
        f = self.constant_profile(1.0, 1.0)
        with pytest.raises(DomainError, match=f"nodes >= 2; got {nodes}"):
            solve_radial(f, 1.0, 2, 1, nodes=nodes)


class TestRearrange:
    def test_constant_density(self):
        u = quadratic_ellipsoid(2)
        prof = rearrange(lambda pts: np.full(pts.shape[0], 3.0), u, math.pi)
        assert np.allclose(prof.values, 3.0)
        assert prof.r[-1] == pytest.approx(1.0, rel=2e-3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_density_ties(self, dim):
        # in 3D node weights near the anchor fall below the rounding of the
        # running volume, so cumulative radii repeat; each run keeps its
        # last node, and in 2D no node is dropped
        u = quadratic_ellipsoid(dim)
        kap = wulff_volume(euclidean_norm(dim))
        prof = rearrange(lambda pts: np.full(pts.shape[0], 3.0), u, kap)
        assert np.all(prof.values == 3.0)
        assert prof.r[-1] == pytest.approx(1.0, rel=1e-9)
        if dim == 2:
            assert prof.r.shape[0] == 256 * 43 * 48

    def test_increasing_radial_density_reflects(self):
        # f = |x|^2 on the unit disc: |{f > s}| = pi (1 - s), so the
        # decreasing profile is 1 - r^2
        u = quadratic_ellipsoid(2)
        prof = rearrange(lambda pts: np.sum(pts * pts, axis=-1), u, math.pi)
        rs = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(prof(rs) - (1.0 - rs ** 2))) < 1e-3

    def test_equimeasurability_integral(self):
        # total mass preserved: int f = n kappa int f*(s) s^{n-1} ds; here
        # the domain is the ellipse x^2/4 + y^2 < 1 and f = 1 + |x_0|, so
        # the mass is 2 pi + 16/3 in closed form
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        kap = wulff_volume(norm)
        u = radial_power(norm, a=2.0)

        def f(pts):
            return 1.0 + np.abs(pts[:, 0])

        prof = rearrange(f, u, kap)
        from wulffsym.quad import panel_cumulative
        rhs = 2.0 * kap * panel_cumulative(
            lambda s: prof(s) * s, np.linspace(0.0, prof.r[-1], 2001))[-1]
        exact = 2.0 * math.pi + 16.0 / 3.0
        assert rhs == pytest.approx(exact, rel=1e-4)
        from wulffsym.field_ops import polar_grid
        pts, w = polar_grid(u)
        lhs = float(f(pts) @ w)
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_level_measure_match(self):
        # |{f_0^* > s}| = |{f > s}| at a ladder of thresholds; for
        # f = exp(-|x|^2) on the (2,1) ellipse, {f > s} is the full disc
        # of radius sqrt(-ln s) whenever that radius is at most 1, with
        # exact measure -pi ln s
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])

        def f(pts):
            return np.exp(-np.sum(pts * pts, axis=-1))

        prof = rearrange(f, u, math.pi)
        for s in np.linspace(0.38, 0.95, 20):
            vol_true = -math.pi * math.log(s)
            # profile level set {f* > s} is the ball of radius r(s)
            idx = np.searchsorted(-prof.values, -s)
            r_s = prof.r[min(idx, prof.r.shape[0] - 1)]
            vol_prof = math.pi * r_s ** 2
            assert vol_prof == pytest.approx(vol_true, rel=2e-3, abs=1e-3)

    def test_rejects_negative_density(self):
        u = quadratic_ellipsoid(2)
        with pytest.raises(InputError):
            rearrange(lambda pts: -np.ones(pts.shape[0]), u, math.pi)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gauss_rules_stay_small(self, dim, monkeypatch):
        # the fine radial resolution comes from panels of the 48-node
        # rule, not from one rule with thousands of nodes
        asked = []
        for mod in (quad, rays):
            rule = mod.legendre_rule

            def recorded(nodes, rule=rule):
                asked.append(nodes)
                return rule(nodes)

            monkeypatch.setattr(mod, "legendre_rule", recorded)
        u = quadratic_ellipsoid(dim)
        prof = rearrange(lambda pts: np.exp(-np.sum(pts * pts, axis=-1)), u,
                         wulff_volume(euclidean_norm(dim)))
        assert asked and max(asked) <= 48
        # and at least as many radial nodes per direction as a 2048-node
        # (2D) or 512-node (3D) rule gives
        directions = 256 if dim == 2 else 32 * 64
        assert prof.r.shape[0] >= (2048 if dim == 2 else 512) * directions

def test_profile_from_callable():
    grid = np.linspace(0.0, 2.0, 33)
    p = profile_from_callable(lambda r: r ** 2, grid, dfn=lambda r: 2 * r)
    assert p(1.5) == pytest.approx(2.25, abs=1e-2)
    assert p.derivative_at(1.0) == pytest.approx(2.0, abs=1e-12)
