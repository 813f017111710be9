import copy
import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import ellipse_perimeter
from wulffsym import anisotropy, bodies, fields, rays
from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym.bodies import (
    LevelTable,
    af_margins,
    af_pairs,
    mean_radius,
    mixed_volume,
    sample_level_set,
    sample_many,
)
from wulffsym.errors import DomainError, NumericError
from wulffsym.field_ops import (
    PolarTable,
    domain_volume,
    hessian_integral,
    hessian_integral_coarea,
    level_grid,
    newton_curvatures,
)
from wulffsym.fields import (
    RayRestriction,
    perturbed_radial,
    quadratic_ellipsoid,
    radial_power,
)
from wulffsym.quad import legendre_rule, rowsum
from wulffsym.rays import _DirectionGrid, _ray_roots, boundary_radii


def test_frozen_perimeter_constant_matches_agm():
    # the (2,1) ellipse perimeter quoted to 9 significant digits
    assert ellipse_perimeter(2.0, 1.0) == pytest.approx(9.68844822, abs=5e-8)


class TestSampling:
    def test_circle_weights_sum_to_perimeter(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        # level -0.375 of (|x|^2-1)/2 is the circle of radius 0.5
        sample = sample_level_set(norm, u, -0.375)
        radii = np.linalg.norm(sample.points, axis=-1)
        assert np.allclose(radii, 0.5, atol=1e-12)
        assert np.sum(sample.weights) == pytest.approx(math.pi, abs=1e-6)

    def test_ellipse_boundary_perimeter(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        sample = sample_level_set(norm, u, 0.0)
        want = ellipse_perimeter(2.0, 1.0)
        assert np.sum(sample.weights) == pytest.approx(want, rel=1e-5)

    def test_sphere_area(self):
        norm = euclidean_norm(3)
        u = quadratic_ellipsoid(3)
        sample = sample_level_set(norm, u, 0.0)
        assert np.sum(sample.weights) == pytest.approx(
            4.0 * math.pi, rel=1e-8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_wulff_sphere_curvature_rows(self, dim):
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            u = radial_power(norm, a=2.0)
            # level t = -0.375 is the Wulff sphere of radius 0.5
            sample = sample_level_set(norm, u, -0.375,
                                      rays=256 if dim == 2 else 64)
            for j in range(dim):
                want = math.comb(dim - 1, j) * 2.0 ** j
                assert np.allclose(sample.curvatures[j], want, rtol=1e-7)

    def test_curvature_row_zero_is_one(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        sample = sample_level_set(norm, u, -0.2)
        assert np.allclose(sample.curvatures[0], 1.0, atol=1e-14)
        assert np.min(sample.curvatures[1]) > -1e-8  # quasi-convexity
        # the Newton-transform route agrees with the sampled curvatures
        _, grads, hesses = u.jets(sample.points)
        alt = newton_curvatures(norm, grads, hesses)
        a = sample.curvatures
        assert np.max(np.abs(a - alt) / (1.0 + np.abs(a))) < 1e-8

    def test_level_out_of_range_rejected(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        with pytest.raises(DomainError):
            sample_level_set(norm, u, -0.6)
        with pytest.raises(DomainError):
            sample_level_set(norm, u, 0.1)

    def test_nan_level_rejected(self):
        # a NaN level fails the range check instead of reaching the ray
        # solve, whose Newton steps never converge on it
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        with pytest.raises(DomainError, match="levels must lie in"):
            sample_many(norm, u, [-0.3, math.nan], rays=64)
        with pytest.raises(DomainError, match="levels must lie in"):
            LevelTable(norm, u, np.array([-0.4, math.nan, -0.1]), 64)

    @pytest.mark.parametrize("count", [0, -3])
    def test_ray_count_below_one_rejected(self, count):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        for dim in (2, 3):
            with pytest.raises(DomainError, match=f"rays >= 1; got {count}"):
                _DirectionGrid(dim, count)
        for build in (lambda: LevelTable(norm, u, 40, count),
                      lambda: PolarTable(norm, u, count, [("sk", 1)]),
                      lambda: hessian_integral(norm, u, 1, rays=count),
                      lambda: domain_volume(u, rays=count)):
            with pytest.raises(DomainError, match=f"rays >= 1; got {count}"):
                build()

    def test_sample_many_matches_single(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        levels = np.array([-0.3, -0.1])
        many = sample_many(norm, u, levels, rays=128)
        for t, s in zip(levels, many):
            single = sample_level_set(norm, u, t, rays=128)
            assert np.allclose(s.points, single.points)
            assert np.allclose(s.weights, single.weights)

    def test_one_curvature_call_per_block(self, monkeypatch):
        # every level of a sampling block shares one curvature pass, and
        # every sampled point is passed to it exactly once, in level order
        passed = []
        curvature_batch = bodies.curvature_batch

        def counted(norm, grads, hesses, top=None):
            passed.append(grads.copy())
            return curvature_batch(norm, grads, hesses, top)

        monkeypatch.setattr(bodies, "curvature_batch", counted)
        monkeypatch.setenv("WULFFSYM_THREADS", "1")
        count = _DirectionGrid(3, 16).count
        monkeypatch.setattr(bodies, "_JET_CHUNK", 7 * count)
        levels = np.linspace(-0.45, -0.05, 20)
        samples = sample_many(euclidean_norm(3), quadratic_ellipsoid(3),
                              levels, rays=16)
        assert all(s is not None for s in samples)
        assert [g.shape for g in passed] == [(7, count, 3), (7, count, 3),
                                             (6, count, 3)]
        grads = np.concatenate(passed)
        normals = grads / np.sqrt(np.sum(grads * grads, axis=-1))[..., None]
        assert np.array_equal(normals, np.stack([s.normals for s in samples]))

    def test_one_box_exit_per_field_and_direction_count(self, monkeypatch):
        # the ray brackets belong to the field's fan: one box exit per
        # field and direction count serves the boundary radii and every
        # sampling block of every call; None and default_rays share a fan
        calls = []
        ray_fan = fields.RayFan

        def counted(u, count):
            calls.append(count)
            return ray_fan(u, count)

        norm = euclidean_norm(2)
        levels = np.linspace(-0.45, -0.05, 12)
        want = sample_many(norm, quadratic_ellipsoid(2, axes=[2.0, 1.0]),
                           levels, rays=64)
        monkeypatch.setattr(fields, "RayFan", counted)
        monkeypatch.setattr(bodies, "_JET_CHUNK", 64)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        for _ in range(2):
            got = sample_many(norm, u, levels, rays=64)
            for a, b in zip(got, want):
                assert np.array_equal(a.points, b.points)
        sample_level_set(norm, u, levels[3], rays=64)
        assert calls == [64]
        sample_many(norm, u, levels[:2])
        sample_many(norm, u, levels[:2], rays=rays.default_rays(2))
        assert calls == [64, 2048]
        # a copy of the field is another field, with fans of its own
        sample_many(norm, dataclasses.replace(u), levels, rays=64)
        assert calls == [64, 2048, 64]

    def test_one_norm_jet_per_sampled_point(self, monkeypatch):
        # F(grad u) and every curvature order of a point share one norm jet
        # (the value, gradient and Hessian terms of anisotropy._norm_jet);
        # it is counted in every wulffsym module that imports it
        seen = []
        norm_jet = anisotropy._norm_jet

        def counted(norm, xi):
            seen.append(np.asarray(xi).size // norm.dim)
            return norm_jet(norm, xi)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("wulffsym")
                    and getattr(mod, "_norm_jet", None) is norm_jet):
                monkeypatch.setattr(mod, "_norm_jet", counted)
        norm = ellipsoid_norm(np.diag([3.0, 2.0, 1.0]))
        levels = np.linspace(-0.45, -0.05, 5)
        samples = sample_many(norm, quadratic_ellipsoid(3), levels, rays=16)
        assert all(s is not None for s in samples)
        assert sum(seen) == sum(s.points.shape[0] for s in samples)


    def test_samples_read_the_ray_restriction(self):
        # a preset is evaluated at its ray roots through its restriction
        def boom(pts):
            raise AssertionError("pointwise oracle evaluated")

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        blind = dataclasses.replace(u, jets_fn=boom, values_fn=boom)
        levels = np.linspace(-0.45, -0.05, 4)
        got = sample_many(norm, blind, levels, rays=32)
        want = sample_many(norm, u, levels, rays=32)
        for a, b in zip(got, want):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.curvatures, b.curvatures)


class TestLevelTable:
    @pytest.mark.parametrize("case", ["ellipsoid2d", "ball3d"])
    def test_block_sums_match_single_levels(self, monkeypatch, case):
        # the per-block sums of the table, on blocks of 7 levels, against a
        # reference built one level at a time: mean_radius of the level's
        # own sample, and the coarea sum of S_{k-1}(curv) F(grad u)^k F(nu),
        # bit for bit. The table and every single level start their ray
        # solves at the scaled boundary radii of the field's one fan
        if case == "ellipsoid2d":
            norm = ellipsoid_norm(np.diag([4.0, 1.0]))
            u, rays = perturbed_radial(norm), 512
        else:
            norm = euclidean_norm(3)
            u, rays = quadratic_ellipsoid(3), 32
        n = u.dim
        levels = level_grid(u, 40)
        monkeypatch.setattr(bodies, "_JET_CHUNK",
                            7 * _DirectionGrid(n, rays).count)
        table = LevelTable(norm, u, levels, rays)
        samples = [sample_level_set(norm, u, t, rays=rays) for t in levels]
        zeta = [[mean_radius(s, j) for s in samples] for j in range(n)]
        coarea = [[float(np.sum(s.weights * s.curvatures[k - 1]
                                * s.gradient_norms ** k * s.f_of_nu))
                   for s in samples] for k in range(1, n + 1)]
        assert table.zeta.tolist() == zeta
        assert table.coarea.tolist() == coarea
        assert table.residual_max == max(
            s.diagnostics["residual_max"] for s in samples)
        assert table.skipped.size == 0
        assert np.array_equal(table.levels, levels)


    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_order_limit_keeps_every_value(self, monkeypatch, dim, threads):
        # a table built for order 1 samples fewer curvature rows (none but
        # S_0 in 2D, no S_2 in 3D) and keeps every value it holds bit for
        # bit, on blocks of several levels
        monkeypatch.setenv("WULFFSYM_THREADS", threads)
        monkeypatch.setattr(bodies, "_JET_CHUNK", 1 << 10)
        norm = regularized_p_norm(dim, 3.0)
        u = perturbed_radial(norm)
        rays = 64 if dim == 2 else 8
        full = LevelTable(norm, u, 30, rays)
        one = LevelTable(norm, u, 30, rays, orders=[1])
        assert full.orders == tuple(range(1, dim + 1)) and one.orders == (1,)
        assert one.zeta.tobytes() == full.zeta.tobytes()
        assert one.coarea.shape == (1, 30)
        assert one.coarea[0].tobytes() == full.coarea[0].tobytes()
        assert one.residual_max == full.residual_max
        assert np.array_equal(one.levels, full.levels)
        assert np.array_equal(one.skipped, full.skipped)

    def test_coarea_of_an_unbuilt_order_raises(self):
        # an order the table has no coarea sums for fails its reader; an
        # order outside 1..n keeps its range error
        norm = euclidean_norm(3)
        u = quadratic_ellipsoid(3)
        table = LevelTable(norm, u, 20, 8, orders=[2, 7, 0, 2])
        assert table.orders == (2,)
        assert np.all(np.isfinite(table.coarea))
        assert hessian_integral_coarea(table, 2) > 0.0
        for k in (1, 3):
            with pytest.raises(DomainError, match=r"orders \[2\]; build it "
                               f"with k={k}"):
                hessian_integral_coarea(table, k)
        with pytest.raises(DomainError, match=r"order k=7 outside \[1, 3\]"):
            hessian_integral_coarea(table, 7)
        empty = LevelTable(euclidean_norm(2), quadratic_ellipsoid(2), 20, 16,
                           orders=[])
        assert empty.orders == () and empty.coarea.shape == (0, 20)

    def test_table_builds_no_normals(self, monkeypatch):
        # the table reduces a block from per-point scalars: W_0 from the
        # support values, not from (x - anchor) . nu; the normals of a
        # sample are built on first read, and only then
        stacked = []
        level_sums = bodies._level_sums

        def spy(b, orders):
            stacked.append(b)
            return level_sums(b, orders)

        monkeypatch.setattr(bodies, "_level_sums", spy)
        norm = ellipsoid_norm(np.diag([4.0, 1.0, 2.25]))
        u = perturbed_radial(norm)
        LevelTable(norm, u, 20, 16)
        assert stacked
        assert all("normals" not in vars(b) for b in stacked)
        sample = sample_level_set(norm, u, -0.2, rays=16)
        assert "normals" not in vars(sample)
        rel = rowsum((sample.points - sample.anchor) * sample.normals)
        assert "normals" in vars(sample)
        assert np.max(np.abs(sample.support - rel) / rel) <= 1e-14
        assert mixed_volume(sample, 0) == pytest.approx(
            float(np.sum(sample.weights * rel)) / 3, rel=1e-14)


def bisected_radii(u, omega, levels, iters=54):
    """Radii s with u(anchor + s omega) = t by bisection on u.values alone.

    The bracket runs from the anchor to past every bounding-box corner,
    where u > 0 >= t.
    """
    reach = 1.01 * np.linalg.norm(np.max(np.abs(
        u.bounding_box - u.anchor[:, None]), axis=-1))
    lo = np.zeros((levels.size, omega.shape[0]))
    hi = np.full(lo.shape, reach)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = u.values(u.anchor + mid[..., None] * omega) < levels[:, None]
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def counted_field(u, calls):
    """A copy of u whose ray restrictions append the shape of every
    ``along`` argument to ``calls``; its fans are its own."""
    def ray(omega):
        restriction = u.ray(omega)

        def along(s):
            calls.append(s.shape)
            return restriction.along(s)

        return RayRestriction(along, restriction.jets)

    return dataclasses.replace(u, ray=ray)


class TestRayRoots:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_newton_roots_match_bisection(self, dim):
        # the Newton roots on the ray restriction against a bisection on
        # the field's pointwise values along the same directions
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        rays = 64 if dim == 2 else 16
        omega = _DirectionGrid(dim, rays).omega
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            for u in (quadratic_ellipsoid(dim),
                      quadratic_ellipsoid(dim, axes=[2.0, 1.0, 1.5][:dim]),
                      radial_power(norm, a=2.0), radial_power(norm, a=3.0),
                      perturbed_radial(norm)):
                levels = level_grid(u, 10)
                want = bisected_radii(u, omega, levels)
                for got, ref in zip(sample_many(norm, u, levels, rays=rays),
                                    want):
                    s = np.linalg.norm(got.points - u.anchor, axis=-1)
                    assert np.max(np.abs(s - ref) / ref) <= 1e-12, u.name
                    assert got.diagnostics["residual_max"] <= 1e-12


    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_are_single_level_solves(self, dim):
        # levels leave the Newton iteration as their rays converge; every
        # row is still bit-equal to the solve of its level alone
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        rays = 64 if dim == 2 else 16
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            for u in (quadratic_ellipsoid(dim, axes=[2.0, 1.0, 1.5][:dim]),
                      radial_power(norm, a=3.0), perturbed_radial(norm)):
                fan = u.fan(rays)
                levels = level_grid(u, 20)
                # the box-exit start, then the warm start of sampling
                for radii in (None, boundary_radii(u, rays)):
                    many = _ray_roots(fan, levels, radii)
                    for t, row in zip(levels, many):
                        one = _ray_roots(fan, np.array([t]), radii)
                        assert np.array_equal(row, one[0]), (u.name, t)

    @pytest.mark.parametrize("case", ["ellipse", "ball3", "perturbed2",
                                      "perturbed3"])
    def test_quadratic_rays_take_at_most_three_steps(self, case):
        # sqrt(u - min u) is linear in s where u is quadratic along the
        # ray: from the box exit one Newton step lands on the root and the
        # next call confirms it; from the scaled boundary radii the start
        # is the root, and the first call confirms it
        u = {"ellipse": lambda: quadratic_ellipsoid(2, axes=[2.0, 1.0]),
             "ball3": lambda: quadratic_ellipsoid(3),
             "perturbed2": lambda: perturbed_radial(euclidean_norm(2), a=2.0),
             "perturbed3": lambda: perturbed_radial(
                 regularized_p_norm(3, 3.0), a=2.0)}[case]()
        rays = 256 if u.dim == 2 else 24
        calls = []
        fan = counted_field(u, calls).fan(rays)
        levels = level_grid(u, 40)[20:]
        _ray_roots(fan, levels)
        assert calls == [(20, fan.grid.count)] * 2
        calls.clear()
        _ray_roots(fan, levels, boundary_radii(u, rays))
        assert calls == [(20, fan.grid.count)]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sampling_quadratic_rays_takes_one_call_per_block(
            self, monkeypatch, dim):
        # sample_many starts every level at the scaled boundary radii, the
        # root wherever u is quadratic along the ray, so the level solve of
        # each block makes one along call (the boundary radii are the one
        # solve from the box exits)
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        ray_count = 64 if dim == 2 else 16
        count = _DirectionGrid(dim, ray_count).count
        ray_roots, solves = bodies._ray_roots, []
        radii_of, level_zero = bodies.boundary_radii, []

        def counted_radii(u, rays=None):
            level_zero.append(u.fan(rays).grid.count)
            return radii_of(u, rays)

        def counted(fan, levels, radii=None):
            calls = []

            def along(s):
                calls.append(s.shape)
                return fan.restriction.along(s)

            solves.append((radii is not None, calls))
            view = copy.copy(fan)
            view.restriction = RayRestriction(along, fan.restriction.jets)
            return ray_roots(view, levels, radii)

        monkeypatch.setattr(bodies, "_ray_roots", counted)
        monkeypatch.setattr(bodies, "boundary_radii", counted_radii)
        monkeypatch.setattr(bodies, "_JET_CHUNK", 7 * count)
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            for u in (quadratic_ellipsoid(dim, axes=[2.0, 1.0, 1.5][:dim]),
                      radial_power(norm, a=2.0), perturbed_radial(norm)):
                solves.clear()
                level_zero.clear()
                samples = sample_many(norm, u, level_grid(u, 20),
                                      rays=ray_count)
                assert all(s is not None for s in samples)
                assert all(w for w, _ in solves)
                assert sorted(c for _, c in solves) == [
                    [(6, count)], [(7, count)], [(7, count)]], (
                    u.name, norm.family)
                assert level_zero == [count]

    def test_one_level_reads_the_solved_fan(self, monkeypatch):
        # a call of one level (sample_level_set) on a field whose fan has
        # its boundary radii makes no level-0 solve: it starts at the
        # scaled radii, and its roots are that level's row of a
        # multi-level solve, bit for bit
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = radial_power(norm, a=3.0)
        levels = level_grid(u, 10)
        fan, radii = u.fan(64), boundary_radii(u, 64)
        many = _ray_roots(fan, levels, radii)
        want = sample_many(norm, u, levels, rays=64)[4]
        solves = []

        def counted(fan, levels, radii=None):
            roots = _ray_roots(fan, levels, radii)
            solves.append((levels.tolist(), radii is None, roots))
            return roots

        monkeypatch.setattr(bodies, "_ray_roots", counted)
        monkeypatch.setattr(rays, "_ray_roots", counted)
        sample = sample_level_set(norm, u, levels[4], rays=64)
        ((solved, cold, roots),) = solves
        assert solved == [levels[4]] and not cold
        assert np.array_equal(roots[0], many[4])
        assert np.array_equal(sample.points, want.points)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_warm_start_evaluates_no_more_entries(self, dim):
        # where u is not quadratic along the rays the scaled boundary radii
        # are only a start below the root; the level-0 solve of the radii
        # and the solve from them together still evaluate no more
        # restriction entries than the box-exit start
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        rays = 64 if dim == 2 else 16
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            for u in (radial_power(norm, a=3.0), radial_power(norm, a=6.0),
                      perturbed_radial(norm, a=3.0)):
                calls = []
                counted = counted_field(u, calls)
                levels = level_grid(u, 40)
                _ray_roots(counted.fan(rays), levels)
                cold = sum(map(math.prod, calls))
                calls.clear()
                _ray_roots(counted.fan(rays), levels,
                           boundary_radii(counted, rays))
                warm = sum(map(math.prod, calls))
                assert warm <= cold, (u.name, norm.family, warm, cold)

    def test_early_return_keeps_single_level_rows(self):
        # a = 3 is not quadratic along the rays, so the rays of a block
        # converge on different steps; the solve returns on the step on
        # which its last rays converge, and every row is still the
        # single-level solve, at rounding
        u = perturbed_radial(regularized_p_norm(3, 3.0), a=3.0)
        fan = u.fan(16)
        steps = []
        counted = counted_field(u, steps).fan(16)
        levels = level_grid(u, 20)
        # the box-exit start, then the warm start of sampling
        for radii in (None, boundary_radii(u, 16)):
            steps.clear()
            many = _ray_roots(counted, levels, radii)
            assert len(steps) > 3
            for t, row in zip(levels, many):
                one = _ray_roots(fan, np.array([t]), radii)
                assert np.array_equal(row, one[0]), t
            vals = fan.restriction.along(many)[0]
            assert np.max(np.abs(vals - levels[:, None])) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_levels_next_to_the_minimum(self, dim):
        # the roots of t = m + 10^-k |m|, k = 3..12, keep the residual at
        # rounding, however close the level comes to the minimum
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        rays = 64 if dim == 2 else 16
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            for u in (quadratic_ellipsoid(dim),
                      quadratic_ellipsoid(dim, axes=[2.0, 1.0, 1.5][:dim]),
                      radial_power(norm, a=2.0), radial_power(norm, a=3.0),
                      perturbed_radial(norm)):
                m = u.min_value
                levels = m + 10.0 ** -np.array([3.0, 6.0, 9.0, 12.0]) * abs(m)
                fan = u.fan(rays)
                s = _ray_roots(fan, levels)
                vals = u.values(u.anchor + s[..., None] * fan.grid.omega)
                assert np.all(np.abs(vals - levels[:, None])
                              <= 1e-15 * (1.0 + np.abs(levels[:, None]))), (
                    u.name, norm)

    def test_unconverged_rays_raise(self, monkeypatch):
        # running out of iterations is an error, not a silent root
        monkeypatch.setattr(rays, "_NEWTON_ITERS", 1)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        with pytest.raises(NumericError, match=r"\d+ rays unconverged"):
            sample_many(euclidean_norm(2), u, level_grid(u, 10), rays=64)

    def test_unconverged_warm_rays_raise(self, monkeypatch):
        # a = 3 is not quadratic along the rays, so the level solve from
        # the scaled boundary radii needs more than one step; cut at one,
        # it raises itself, with the ray count and the widest bracket of
        # the state it built on its first failed test
        u = radial_power(euclidean_norm(2), a=3.0)
        radii = boundary_radii(u, 64)
        monkeypatch.setattr(rays, "_NEWTON_ITERS", 1)
        with pytest.raises(NumericError, match=(
                r"\d+ rays unconverged after 1 iterations \(widest bracket "
                r"left \d\.\d{3}e[+-]\d+\)")):
            _ray_roots(u.fan(64), level_grid(u, 10), radii)


def parametrized_weights(grid, rays, s, grads):
    """Surface weights from the angular parametrization of x = s(w) w.

    2D: |x_theta| dtheta; 3D: |x_theta x x_phi| dtheta dphi, with the
    quadrature in (cos(theta), phi) of the direction grid. ds/dtheta
    follows from u(s(w) w) = t: s_theta = -s (grad u . w_theta) /
    (grad u . w).
    """
    omega = grid.omega
    g_omega = np.sum(grads * omega, axis=-1)
    if grid.dim == 2:
        theta = np.arctan2(omega[:, 1], omega[:, 0])
        d_theta = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        s_t = -s * np.sum(grads * d_theta, axis=-1) / g_omega
        return np.sqrt(s_t * s_t + s * s) * 2.0 * math.pi / omega.shape[0]
    nc, nphi = max(8, rays // 2), rays
    c, wc = legendre_rule(nc)
    sin = np.sqrt(1.0 - c * c)
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    cp, sp = np.cos(phi), np.sin(phi)
    d_theta = np.stack([np.outer(c, cp), np.outer(c, sp),
                        np.broadcast_to(-sin[:, None], (nc, nphi))],
                       axis=-1).reshape(-1, 3)
    d_phi = np.stack([np.outer(sin, -sp), np.outer(sin, cp),
                      np.zeros((nc, nphi))], axis=-1).reshape(-1, 3)
    s_th = -s * np.sum(grads * d_theta, axis=-1) / g_omega
    s_ph = -s * np.sum(grads * d_phi, axis=-1) / g_omega
    x_th = s_th[..., None] * omega + s[..., None] * d_theta
    x_ph = s_ph[..., None] * omega + s[..., None] * d_phi
    # 1/sin(theta) turns dcos(theta) into dtheta
    measure = np.outer(wc / sin, np.full(nphi, 2.0 * math.pi / nphi))
    return (np.linalg.norm(np.cross(x_th, x_ph), axis=-1)
            * measure.reshape(-1))


class TestSurfaceWeights:
    @pytest.mark.parametrize("case", ["ellipse", "perturbed2", "perturbed3"])
    def test_closed_form_matches_parametrization(self, case):
        if case == "ellipse":
            u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        else:
            dim = 2 if case == "perturbed2" else 3
            u = perturbed_radial(regularized_p_norm(dim, 3.0))
        rays = 256 if u.dim == 2 else 24
        fan = u.fan(rays)
        s = _ray_roots(fan, level_grid(u, 10))
        grads = fan.restriction.jets(s)[1]
        got = bodies._surface_terms(fan.grid, s, grads,
                                    np.linalg.norm(grads, axis=-1))[0]
        want = parametrized_weights(fan.grid, rays, s, grads)
        assert np.max(np.abs(got - want) / want) <= 1e-12


class TestMixedVolume:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_wulff_ball_values(self, dim):
        mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
        for norm in (euclidean_norm(dim), ellipsoid_norm(mats[dim]),
                     regularized_p_norm(dim, 3.0)):
            kap = wulff_volume(norm)
            u = radial_power(norm, a=2.0, radius=2.0)
            for r in (0.5, 1.0, 2.0):
                t = (r * r - 4.0) / 2.0
                t = min(t, 0.0)
                sample = sample_level_set(norm, u, t,
                                          rays=512 if dim == 2 else 128)
                for k in range(dim):
                    assert mixed_volume(sample, k) == pytest.approx(
                        kap * r ** (dim - k), rel=1e-4)

    def test_disc_perimeter_form(self):
        norm = euclidean_norm(2)
        u = radial_power(norm, a=2.0, radius=2.0)
        sample = sample_level_set(norm, u, 0.0)
        assert mixed_volume(sample, 1) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_ellipse_w0_w1(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        sample = sample_level_set(norm, u, 0.0)
        assert mixed_volume(sample, 0) == pytest.approx(2 * math.pi, rel=1e-6)
        want = ellipse_perimeter(2.0, 1.0) / 2.0
        assert mixed_volume(sample, 1) == pytest.approx(want, rel=1e-5)
        assert mixed_volume(sample, 1) == pytest.approx(4.84422411, rel=1e-5)

    def test_order_bounds(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        sample = sample_level_set(norm, u, -0.1, rays=64)
        with pytest.raises(DomainError):
            mixed_volume(sample, 2)


class TestMeanRadius:
    def test_wulff_ball_all_orders(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = radial_power(norm, a=2.0)
        sample = sample_level_set(norm, u, -0.375)
        for k in range(2):
            assert mean_radius(sample, k) == pytest.approx(0.5, rel=1e-6)

    def test_ellipse_values(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        sample = sample_level_set(norm, u, 0.0)
        assert mean_radius(sample, 0) == pytest.approx(math.sqrt(2.0),
                                                       rel=1e-6)
        # zeta_1 = perimeter / (2 pi) = 1.5419644...
        want = ellipse_perimeter(2.0, 1.0) / (2.0 * math.pi)
        assert mean_radius(sample, 1) == pytest.approx(want, rel=1e-6)
        assert mean_radius(sample, 1) == pytest.approx(1.5419644, rel=1e-6)


class TestAleksandrovFenchel:
    def test_pairs_layout(self):
        assert af_pairs(2) == [(1, 0)]
        assert af_pairs(3) == [(1, 0), (2, 0), (2, 1)]

    def test_wulff_ball_margins_vanish(self):
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            u = radial_power(norm, a=2.0)
            sample = sample_level_set(norm, u, -0.3)
            assert np.max(np.abs(af_margins(sample))) < 1e-6

    def test_ellipse_margin(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        sample = sample_level_set(norm, u, 0.0)
        margins = af_margins(sample)
        want = ellipse_perimeter(2.0, 1.0) / (2.0 * math.pi) - math.sqrt(2.0)
        assert margins[0] == pytest.approx(want, abs=1e-6)
        assert margins[0] == pytest.approx(0.1277508, abs=1e-6)

    def test_convex_preset_margins_nonnegative(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = perturbed_radial(norm)
        for t in (-0.4, -0.2, -0.05):
            sample = sample_level_set(norm, u, t, rays=1024)
            assert np.min(af_margins(sample)) > -1e-6


class TestStructuralProperties:
    def test_monotonicity_under_scaling(self):
        norm = euclidean_norm(2)
        small = quadratic_ellipsoid(2, axes=[1.6, 0.8])
        large = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        s1 = sample_level_set(norm, small, 0.0, rays=512)
        s2 = sample_level_set(norm, large, 0.0, rays=512)
        for k in range(2):
            assert mixed_volume(s1, k) < mixed_volume(s2, k)
            assert mean_radius(s1, k) < mean_radius(s2, k)

    def test_scaling_law(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u1 = radial_power(norm, a=2.0, radius=1.0)
        u2 = radial_power(norm, a=2.0, radius=1.7)
        s1 = sample_level_set(norm, u1, 0.0, rays=512)
        s2 = sample_level_set(norm, u2, 0.0, rays=512)
        c = 1.7
        for k in range(2):
            assert mixed_volume(s2, k) == pytest.approx(
                c ** (2 - k) * mixed_volume(s1, k), rel=1e-6)

    def test_reilly_level_derivative(self):
        # d/dt W_k(sublevel) = (1/C(n,k)) int S_k(curv) F(nu)/F(grad u)
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        n = 2
        t0, dt = -0.2, 1e-4
        mid = sample_level_set(norm, u, t0)
        lo = sample_level_set(norm, u, t0 - dt)
        hi = sample_level_set(norm, u, t0 + dt)
        for k in range(2):
            fd = (mixed_volume(hi, k) - mixed_volume(lo, k)) / (2 * dt)
            want = float(np.sum(
                mid.weights * mid.curvatures[k] * mid.f_of_nu
                / mid.gradient_norms)) / math.comb(n, k)
            assert fd == pytest.approx(want, rel=1e-3)

    def test_volume_matches_indicator_quadrature(self):
        from wulffsym.field_ops import domain_volume
        norm = euclidean_norm(2)
        u = perturbed_radial(norm)
        sample = sample_level_set(norm, u, 0.0)
        assert mixed_volume(sample, 0) == pytest.approx(
            domain_volume(u), rel=2e-3)
