"""Cross-module structural properties tying several subsystems together."""

import math
import sys
import warnings

import numpy as np
import pytest

from conftest import box_gauss_grid
from wulffsym import bodies, parallel, rays
from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym.bodies import LevelTable, sample_level_set, sample_many
from wulffsym.errors import DegenerateLevelError
from wulffsym.field_ops import PolarTable, level_grid
from wulffsym.fields import perturbed_radial, quadratic_ellipsoid, radial_field
from wulffsym.parallel import ENV_VAR, thread_count
from wulffsym.quad import panel_cumulative
from wulffsym.radial import rearrange
from wulffsym.symmetrize import zeta_profile


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

    def test_sample_many_marks_none(self):
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        got = sample_many(norm, u, [t_star, -1e-3], rays=64)
        assert got[0] is None
        assert got[1] is not None


    def test_sampling_independent_of_block_size(self, monkeypatch):
        # one level per block against one block for all the levels, with
        # the degenerate level in the middle of it: equal samples, tables,
        # None entries and skipped levels
        norm, u = self.plateau_field()
        t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
        m = u.min_value
        levels = np.concatenate([np.linspace(0.99 * m, t_star, 6),
                                 np.linspace(t_star, -1e-3, 7)[1:]])
        count = rays._DirectionGrid(2, 64).count
        assert bodies._JET_CHUNK // count >= levels.size
        runs = []
        for chunk in (count, bodies._JET_CHUNK):
            monkeypatch.setattr(bodies, "_JET_CHUNK", chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runs.append((sample_many(norm, u, levels, rays=64),
                             LevelTable(norm, u, levels, rays=64)))
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


class TestThreading:
    def test_thread_count_env_parsing(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert thread_count() >= 1
        monkeypatch.setenv(ENV_VAR, "3")
        assert thread_count() == 3
        monkeypatch.setenv(ENV_VAR, "0")
        with pytest.raises(ValueError):
            thread_count()
        monkeypatch.setenv(ENV_VAR, "zero")
        with pytest.raises(ValueError):
            thread_count()

    def test_results_independent_of_thread_count(self, monkeypatch):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = perturbed_radial(norm)
        levels = level_grid(u, 40)
        monkeypatch.setenv(ENV_VAR, "1")
        serial = sample_many(norm, u, levels, rays=256)
        monkeypatch.setenv(ENV_VAR, "4")
        threaded = sample_many(norm, u, levels, rays=256)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.curvatures, b.curvatures)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tables_independent_of_thread_count(self, monkeypatch, dim):
        # the level table and every polar-table value, the S_k node arrays
        # included, are bit-equal on one, two and four worker threads; the
        # grids are large enough that both maps cut several blocks
        blocks = []

        def counted(fn, parts):
            parts = list(parts)
            blocks.append(len(parts))
            return parallel.map_blocks(fn, parts)

        for mod in (bodies, rays):
            monkeypatch.setattr(mod, "map_blocks", counted)
        norm = regularized_p_norm(dim, 3.0)
        u = perturbed_radial(norm)
        count = 2048 if dim == 2 else 48
        requests = [("hessian", 1), ("hessian", 2), ("generalized", 1, 1.5),
                    ("generalized", 2, 2.0), ("lp", 2.0), ("sk", 1),
                    ("sk", 2)]
        built = {}
        # four threads on fewer cores with a short switch interval: a block
        # whose rows of the S_k node arrays were lost would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv(ENV_VAR, threads)
                built[threads] = (LevelTable(norm, u, 80, count),
                                  PolarTable(norm, u, count, requests))
        finally:
            sys.setswitchinterval(interval)
        assert min(blocks) > 1
        lev1, pol1 = built["1"]
        for lev, pol in (built["2"], built["4"]):
            assert np.array_equal(lev1.zeta, lev.zeta)
            assert np.array_equal(lev1.coarea, lev.coarea)
            assert lev1.residual_max == lev.residual_max
            for req in requests:
                assert np.array_equal(pol1[req], pol[req]), req


def test_coarea_warns_on_degenerate_level():
    norm, u = TestDegenerateLevels.plateau_field()
    t_star = float(u.values(np.array([[0.5, 0.0]]))[0])
    from wulffsym.field_ops import hessian_integral_coarea

    levels = np.sort(np.concatenate([
        np.linspace(u.min_value * 0.98, -1e-4, 30), [t_star]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hessian_integral_coarea(LevelTable(norm, u, levels, rays=64), 1)
    assert any("degenerate" in str(w.message) for w in caught)
