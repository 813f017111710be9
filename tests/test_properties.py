"""Cross-module structural properties tying several subsystems together."""

import math
import warnings

import numpy as np
import pytest

from conftest import box_gauss_grid
from wulffsym import bodies, rays
from wulffsym.anisotropy import ellipsoid_norm, euclidean_norm, wulff_volume
from wulffsym.bodies import LevelTable, sample_level_set, sample_many
from wulffsym.errors import DegenerateLevelError, NumericError
from wulffsym.field_ops import (
    hessian_integral,
    hessian_integral_coarea,
    level_rule,
    lp_norm,
)
from wulffsym.fields import quadratic_ellipsoid, radial_field, radial_power
from wulffsym.quad import panel_cumulative
from wulffsym.radial import rearrange
from wulffsym.symmetrize import lp_compare, ps_margin, zeta_profile


class TestHardyLittlewoodChain:
    def test_sublevel_mass_bounded_by_rearranged_mass(self):
        # int_{u<t} f <= n kappa int_0^{zeta_{k-1}(t)} f*(s) s^{n-1} ds at
        # a ladder of 20 levels: Hardy-Littlewood plus the mean-radius
        # enlargement from the Aleksandrov-Fenchel ordering
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        kap = wulff_volume(norm)

        def f(pts):
            return 1.0 + 0.5 * pts[:, 0] ** 2 + 0.1 * np.abs(pts[:, 1])

        f_star = rearrange(f, u, kap)
        pts, w = box_gauss_grid(u.bounding_box, 400)
        vals = u.values(pts)
        fv = f(pts)
        table = LevelTable(norm, u, levels=60)
        for k in (1, 2):
            prof = zeta_profile(table, k)
            levels = np.linspace(u.min_value * 0.9, -0.01, 20)
            zetas = np.interp(levels, prof.r, prof.values)
            for t, zeta in zip(levels, zetas):
                lhs = float(np.sum(w[vals < t] * fv[vals < t]))
                grid = np.linspace(0.0, zeta, 600)
                rhs = 2.0 * kap * panel_cumulative(
                    lambda s: f_star(s) * s, grid)[-1]
                assert lhs <= rhs + 1e-3 * (1.0 + abs(rhs))


class TestReillyMeanRadiusDerivative:
    def test_zeta_derivative_formula(self):
        # d zeta_k/dt = [ (n-k) kappa C(n,k) zeta^{n-k-1} ]^{-1} *
        #               int S_k(curv) F(nu) / F(grad u)
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        kap = wulff_volume(norm)
        n = 2
        t0, dt = -0.2, 1e-4
        for k in (0, 1):
            from wulffsym.bodies import mean_radius
            mid = sample_level_set(norm, u, t0)
            lo = sample_level_set(norm, u, t0 - dt)
            hi = sample_level_set(norm, u, t0 + dt)
            fd = (mean_radius(hi, k) - mean_radius(lo, k)) / (2.0 * dt)
            surf = float(np.sum(mid.weights * mid.curvatures[k]
                                * mid.f_of_nu / mid.gradient_norms))
            want = surf / ((n - k) * kap * math.comb(n, k)
                           * mean_radius(mid, k) ** (n - k - 1))
            assert fd == pytest.approx(want, rel=1e-3)


class TestDegenerateLevels:
    @staticmethod
    def plateau_field():
        # v'(r) = r (r - 1/2)^2 vanishes at the interior ring r = 1/2;
        # v stays increasing, so the field is quasi-convex with a single
        # degenerate level
        norm = euclidean_norm(2)

        def v(r):
            r = np.asarray(r, dtype=float)
            return (r ** 4 / 4.0 - r ** 3 / 3.0 + r ** 2 / 8.0) - (
                1.0 / 4.0 - 1.0 / 3.0 + 1.0 / 8.0)

        def vp(r):
            r = np.asarray(r, dtype=float)
            return r * (r - 0.5) ** 2

        def vpp(r):
            r = np.asarray(r, dtype=float)
            return (r - 0.5) ** 2 + 2.0 * r * (r - 0.5)

        return norm, radial_field(norm, v, vp, vpp, radius=1.0)

    def test_single_level_raises(self):
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        with pytest.raises(DegenerateLevelError):
            sample_level_set(norm, u, t_star, rays=64)

    def test_table_with_no_sampled_level(self):
        # |grad u| < 1e-10 everywhere on a Wulff ball of radius 1e-11: every
        # level is skipped, and the table raises NumericError rather than
        # hold no data for its profile and coarea readers
        norm = euclidean_norm(2)
        with pytest.warns(UserWarning, match="skipping degenerate level"):
            with pytest.raises(NumericError, match="too many degenerate"):
                LevelTable(norm, radial_power(norm, radius=1e-11), 10,
                           rays=64)

    def test_skipped_interior_level_is_interpolated(self):
        # the degenerate ring r = 1/2 is the middle one of the 11 Gauss
        # nodes on the probe ray [0, 1]: it stays a node of the table, with
        # its Gauss weight, and takes zeta and coarea from the polynomials
        # through the sampled nodes; zeta_j = s on these Euclidean discs,
        # the coarea integrand vanishes with grad u on the ring, and the
        # L^2 sides and the energies agree to rounding (dropping the node
        # with its weight left the symmetrand's L^2 norm 10% short)
        norm, u = self.plateau_field()
        with pytest.warns(UserWarning, match="skipping degenerate level"):
            table = LevelTable(norm, u, 12, rays=64)
        assert table.skipped.size == 1 and table.s.size == 12
        assert np.flatnonzero(~table.sampled).tolist() == [5]
        assert np.max(np.abs(table.zeta - table.s)) <= 1e-14
        assert np.max(np.abs(table.coarea[:, 5])) <= 1e-14
        for k in (1, 2):
            direct = hessian_integral(norm, u, k)
            assert abs(hessian_integral_coarea(table, k) - direct) <= 1e-15
            assert abs(ps_margin(table, k, direct).margin) <= 1e-15
            lhs, rhs = lp_compare(table, k, 2.0, lp_norm(u, 2.0))
            assert abs(rhs - lhs) <= 1e-15

    def test_sample_many_marks_none(self):
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        got = sample_many(norm, u, [t_star, -1e-3], rays=64)
        assert got[0] is None
        assert got[1] is not None


    def test_reduce_gets_only_live_levels(self):
        # sample_many drops the degenerate level before reduce and puts
        # None at its index itself
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        levels = [0.5 * (u.min_value + t_star), t_star, -1e-3]
        seen = []

        def reduce(sample):
            seen.append(sample.level.tolist())
            return [float(t) for t in sample.level]

        got = sample_many(norm, u, levels, rays=64, reduce=reduce)
        assert seen == [[levels[0], levels[2]]]
        assert got == [levels[0], None, levels[2]]

    def test_sampling_independent_of_block_size(self, monkeypatch):
        # one level per block against one block for all the levels, with
        # the degenerate level in the middle of it: equal samples, tables,
        # None entries and skipped levels
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        # the middle one of the 11 Gauss nodes on the probe ray [0, 1] is
        # the degenerate ring r = 1/2
        levels = level_rule(u, 12, 64)[2]
        assert levels[5] == t_star
        count = rays._DirectionGrid(2, 64).count
        assert bodies._JET_CHUNK // count >= levels.size
        runs = []
        for chunk in (count, bodies._JET_CHUNK):
            monkeypatch.setattr(bodies, "_JET_CHUNK", chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runs.append((sample_many(norm, u, levels, rays=64),
                             LevelTable(norm, u, 12, rays=64)))
        (one, table_one), (many, table_many) = runs
        assert [s is None for s in one] == [s is None for s in many]
        assert [i for i, s in enumerate(many) if s is None] == [5]
        for a, b in zip(one, many):
            if a is None:
                continue
            assert a.level == b.level
            assert a.diagnostics == b.diagnostics
            for name in ("points", "normals", "f_of_nu", "curvatures",
                         "weights", "gradient_norms"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(table_one.skipped, [t_star])
        assert np.array_equal(table_many.skipped, [t_star])
        assert np.array_equal(table_one.levels, table_many.levels)
        assert np.array_equal(table_one.zeta, table_many.zeta)
        assert np.array_equal(table_one.coarea, table_many.coarea)
        assert table_one.residual_max == table_many.residual_max


def test_coarea_warns_on_degenerate_level():
    norm, u = TestDegenerateLevels.plateau_field()
    t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
    from wulffsym.field_ops import hessian_integral_coarea

    # the middle one of the 31 Gauss nodes on the probe ray [0, 1] is the
    # degenerate ring r = 1/2
    assert level_rule(u, 32, 64)[2][15] == t_star
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hessian_integral_coarea(LevelTable(norm, u, 32, rays=64), 1)
    assert any("degenerate" in str(w.message) for w in caught)
