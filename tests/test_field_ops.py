import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BALL3D, ELLIPSE_CONFIG, REGP2D
from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    eval_jet,
    regularized_p_norm,
)
from wulffsym.bodies import LevelTable
from wulffsym.errors import DegenerateLevelError, DomainError, NumericError
from wulffsym import anisotropy, cli, field_ops
from wulffsym.field_ops import (
    PolarTable,
    aniso_hessian,
    aniso_hessian_batch,
    curvature_batch,
    domain_volume,
    generalized_integral,
    hessian_integral,
    hessian_integral_coarea,
    level_curvature,
    level_rule,
    lp_norm,
    newton_curvatures,
    sk_field,
    sk_field_batch,
)
from wulffsym.fields import (
    FieldJet,
    RayRestriction,
    perturbed_radial,
    quadratic_ellipsoid,
    radial_power,
)
from wulffsym.invariants import (
    newton_stack,
    newton_transform_delta_oracle,
    sigma_k,
    sk_delta_oracle,
    sk_stack,
)
from wulffsym.rays import _DirectionGrid, boundary_radii, polar_grid
from wulffsym.symmetrize import comparison_margin


def rand_sym(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def interior_points(rng, u, count):
    box = u.bounding_box
    pts = rng.uniform(box[:, 0], box[:, 1], size=(20 * count, u.dim))
    vals, grads, _ = u.jets(pts)
    keep = (vals < -1e-3) & (np.linalg.norm(grads, axis=-1) > 1e-3)
    return pts[keep][:count]


class TestStackKernels:
    # the Kronecker-sum oracles cap the order at 5, so n = 6 is checked up
    # to k = 5
    def test_sk_stack_matches_reference(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            mats = rng.uniform(-1.0, 1.0, size=(12, n, n))
            for k in range(min(n, 5) + 1):
                got = sk_stack(mats, k)
                want = np.array([sk_delta_oracle(m, k) for m in mats])
                assert np.all(np.abs(got - want)
                              <= 1e-12 * (1.0 + np.abs(want)))

    def test_newton_stack_matches_reference(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            mats = rng.uniform(-1.0, 1.0, size=(8, n, n))
            kmax = min(n, 5)
            got = newton_stack(mats, kmax)
            assert got.shape == (kmax, 8, n, n)
            for k in range(1, kmax + 1):
                want = np.stack([newton_transform_delta_oracle(m, k)
                                 for m in mats])
                assert np.all(np.abs(got[k - 1] - want)
                              <= 1e-12 * (1.0 + np.abs(want)))


class TestAnisoHessian:
    def test_euclidean_returns_plain_hessian(self):
        rng = np.random.default_rng(2)
        h = rand_sym(rng, 3)
        jet = FieldJet(0.0, rng.normal(size=3), h)
        assert np.array_equal(aniso_hessian(euclidean_norm(3), jet), h)

    def test_zero_gradient_convention(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        jet = FieldJet(0.0, np.zeros(2), np.eye(2))
        assert np.array_equal(aniso_hessian(norm, jet), np.zeros((2, 2)))

    @pytest.mark.parametrize("family", ["ellipsoid", "regularized_p"])
    def test_dual_square_field_gives_identity(self, family):
        # u = F*(x)^2 / 2 has anisotropic Hessian equal to the identity
        if family == "ellipsoid":
            norm = ellipsoid_norm(np.array([[4.0, 0.5], [0.5, 1.0]]))
        else:
            norm = regularized_p_norm(2, 3.0)
        u = radial_power(norm, a=2.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.4, 0.4, size=(100, 2)) + 0.05
        _, grads, hesses = u.jets(pts)
        a = aniso_hessian_batch(norm, grads, hesses)
        assert np.max(np.abs(a - np.eye(2))) < 1e-10


class TestSkField:
    def test_dual_square_gives_binomial(self):
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            u = radial_power(norm, a=2.0)
            x = np.array([0.3, -0.2])
            for k in range(1, 3):
                assert sk_field(norm, u, x, k) == pytest.approx(
                    math.comb(2, k), rel=1e-9)

    def test_euclidean_laplacian(self):
        norm = euclidean_norm(3)
        u = radial_power(norm, a=2.0)
        assert sk_field(norm, u, np.array([0.1, 0.2, -0.3]), 1) == (
            pytest.approx(3.0, rel=1e-10))

    def test_finsler_laplacian_matches_divergence(self):
        # k = 1 equals div(grad(F^2/2)(grad u)) by finite differences
        norm = ellipsoid_norm(np.array([[2.0, 0.3], [0.3, 1.0]]))
        u = quadratic_ellipsoid(2, axes=[1.4, 0.9])
        rng = np.random.default_rng(4)
        pts = interior_points(rng, u, 20)
        h = 1e-5
        for x in pts:
            fd = 0.0
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                gp = u.jets((x + e)[None])[1][0]
                gm = u.jets((x - e)[None])[1][0]
                vp = eval_jet(norm, gp)
                vm = eval_jet(norm, gm)
                fd += (vp[0] * vp[1][j] - vm[0] * vm[1][j]) / (2.0 * h)
            assert sk_field(norm, u, x, 1) == pytest.approx(fd, abs=1e-6)

    def test_four_dimensional_batch(self):
        # u = |x|^2/2 - 1/2 in 4D has Hessian I, so S_k = C(4, k)
        norm = euclidean_norm(4)
        u = radial_power(norm, a=2.0)
        pts = np.random.default_rng(11).uniform(-0.4, 0.4, size=(20, 4))
        for k in range(5):
            batch = sk_field_batch(norm, u, pts, k)
            assert np.allclose(batch, math.comb(4, k), rtol=1e-12, atol=0.0)
            for i, x in enumerate(pts):
                assert batch[i] == pytest.approx(sk_field(norm, u, x, k),
                                                 rel=1e-12)

    def test_batch_matches_scalar(self):
        norm = regularized_p_norm(2, 1.5)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        rng = np.random.default_rng(5)
        pts = interior_points(rng, u, 10)
        batch = sk_field_batch(norm, u, pts, 2)
        for i, x in enumerate(pts):
            assert batch[i] == pytest.approx(sk_field(norm, u, x, 2),
                                             rel=1e-12)


class TestLevelCurvature:
    def test_wulff_sphere_curvatures(self):
        # u = F*(x): every anisotropic principal curvature on {F* = t} is 1/t
        for norm in (euclidean_norm(2), ellipsoid_norm(np.diag([4.0, 1.0])),
                     regularized_p_norm(2, 3.0)):
            u = radial_power(norm, a=2.0)
            rng = np.random.default_rng(6)
            pts = interior_points(rng, u, 15)
            _, grads, hesses = u.jets(pts)
            # for a = 2, grad u = F* grad F*, so the level through x is the
            # Wulff sphere of radius F*(x)
            from wulffsym.anisotropy import dual_jet
            fv, _ = dual_jet(norm, pts)
            n = 2
            _, primary = curvature_batch(norm, grads, hesses)
            alt = newton_curvatures(norm, grads, hesses)
            for k in range(n):
                vals, alts = primary[k], alt[k]
                want = math.comb(n - 1, k) / fv ** k
                assert np.allclose(vals, want, rtol=1e-8)
                assert np.allclose(alts, want, rtol=1e-8)

    def test_euclidean_sphere_mean_curvature(self):
        norm = euclidean_norm(3)
        u = radial_power(norm, a=2.0)
        x = np.array([0.3, 0.0, 0.4])  # radius 0.5
        # grad u = x, the level set is the sphere of radius 0.5
        val = level_curvature(norm, u, x, 1)
        assert val == pytest.approx((3 - 1) / 0.5, rel=1e-10)

    def test_both_routes_agree_on_random_quadratics(self):
        rng = np.random.default_rng(7)
        norm = ellipsoid_norm(np.array([[4.0, 0.8], [0.8, 1.0]]))
        u = quadratic_ellipsoid(2, axes=[1.7, 0.8])
        pts = interior_points(rng, u, 100)
        _, grads, hesses = u.jets(pts)
        _, primary = curvature_batch(norm, grads, hesses)
        alt = newton_curvatures(norm, grads, hesses)
        for k in range(0, 2):
            vals, alts = primary[k], alt[k]
            assert np.max(np.abs(vals - alts) / (1.0 + np.abs(vals))) < 1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reads_the_broadcast_hessian(self, dim):
        # the ray restriction of a quadratic hands a read-only broadcast
        # Hessian; on a (levels, directions) stack the curvatures are those
        # of a writable contiguous copy bit for bit, and S_k of the product
        # F_il u_lj from np.matmul up to rounding
        u = quadratic_ellipsoid(dim, axes=[2.0, 1.0, 1.5][:dim])
        omega = _DirectionGrid(dim, 16).omega
        s = np.linspace(0.3, 0.6, 3)[:, None] * np.ones(omega.shape[0])
        _, grads, hesses = u.ray(omega).jets(s)
        assert not hesses.flags.writeable
        for norm in (euclidean_norm(dim), regularized_p_norm(dim, 3.0),
                     ellipsoid_norm(np.diag([4.0, 1.0, 2.25][:dim]))):
            _, curv = curvature_batch(norm, grads, hesses)
            _, copied = curvature_batch(norm, grads, hesses.copy())
            product = eval_jet(norm, grads)[2] @ hesses
            assert curv.shape == (dim,) + grads.shape[:-1]
            assert curv.tobytes() == copied.tobytes()
            for k in range(dim):
                want = sk_stack(product, k)
                assert np.max(np.abs(curv[k] - want)
                              / (1.0 + np.abs(want))) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3, 4]),
           family=st.sampled_from(["euclidean", "ellipsoid", "p1.5", "p3",
                                   "p7"]),
           log_scale=st.floats(-6.0, 6.0))
    def test_rows_are_eigenvalue_polynomials(self, seed, n, family,
                                             log_scale):
        # row k is e_k of the real spectrum of D^2F(grad u) D^2u, a PSD
        # matrix times a symmetric one (indefinite here), at gradients of
        # size 1e-6 to 1e6; the oracle is np.poly of np.linalg.eigvals
        rng = np.random.default_rng(seed)
        if family == "euclidean":
            norm = euclidean_norm(n)
        elif family == "ellipsoid":
            a = rng.standard_normal((n, n))
            norm = ellipsoid_norm(a @ a.T + 0.5 * np.eye(n))
        else:
            norm = regularized_p_norm(n, float(family[1:]))
        grads = 10.0 ** log_scale * rng.standard_normal((6, n))
        hesses = rng.standard_normal((6, n, n))
        hesses = 0.5 * (hesses + np.swapaxes(hesses, -1, -2))
        _, curv = curvature_batch(norm, grads, hesses)
        assert curv.shape == (n, 6)
        fh = eval_jet(norm, grads)[2]
        for i in range(6):
            poly = np.real(np.poly(np.linalg.eigvals(fh[i] @ hesses[i])))
            scale = np.linalg.norm(fh[i], 2) * np.linalg.norm(hesses[i], 2)
            for k in range(n):
                want = (-1) ** k * poly[k]
                assert abs(curv[k, i] - want) <= 1e-11 * scale ** k, (
                    k, curv[k, i], want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_top_rows_are_the_full_rows(self, n):
        # the rows 0..top of a limited call are the full call's bit for
        # bit, for every top and norm family
        rng = np.random.default_rng(n)
        grads = rng.standard_normal((2, 5, n))
        hesses = rng.standard_normal((2, 5, n, n))
        hesses = 0.5 * (hesses + np.swapaxes(hesses, -1, -2))
        for norm in (euclidean_norm(n), regularized_p_norm(n, 3.0),
                     ellipsoid_norm(np.diag([4.0, 1.0, 2.25, 0.5][:n]))):
            fv, full = curvature_batch(norm, grads, hesses)
            for top in range(n):
                fv_top, rows = curvature_batch(norm, grads, hesses, top)
                assert rows.shape == (top + 1, 2, 5)
                assert fv_top.tobytes() == fv.tobytes(), (norm, top)
                assert rows.tobytes() == full[:top + 1].tobytes(), (norm, top)
            with pytest.raises(DomainError):
                curvature_batch(norm, grads, hesses, n)

    def test_top_zero_builds_no_norm_hessian(self, monkeypatch):
        # order 0 reads F(grad u) alone, from eval_grad
        def boom(norm, xi):
            raise AssertionError("norm Hessian built")

        rng = np.random.default_rng(3)
        grads = rng.standard_normal((7, 3))
        hesses = np.broadcast_to(np.eye(3), (7, 3, 3))
        norm = regularized_p_norm(3, 3.0)
        fv, _ = curvature_batch(norm, grads, hesses)
        monkeypatch.setattr(anisotropy, "eval_jet", boom)
        monkeypatch.setattr(field_ops, "_norm_jet", boom)
        fv0, rows = curvature_batch(norm, grads, hesses, 0)
        assert fv0.tobytes() == fv.tobytes()
        assert np.array_equal(rows, np.ones((1, 7)))

    def test_degenerate_gradient_rejected(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        with pytest.raises(DegenerateLevelError):
            level_curvature(norm, u, np.zeros(2), 1)

    def test_order_bounds(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        with pytest.raises(DomainError):
            level_curvature(norm, u, np.array([0.3, 0.1]), 2)


class TestHessianIntegral:
    def test_disc_closed_forms(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2)
        assert hessian_integral(norm, u, 1) == pytest.approx(
            math.pi / 2.0, rel=1e-5)
        assert hessian_integral(norm, u, 2) == pytest.approx(
            math.pi / 4.0, rel=1e-5)

    def test_ellipse_closed_form(self):
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        assert hessian_integral(norm, u, 1) == pytest.approx(
            5.0 * math.pi / 8.0, rel=1e-12)
        assert hessian_integral(norm, u, 2) == pytest.approx(
            math.pi / 8.0, rel=1e-12)

    def test_ball_closed_form(self):
        # -u = (1 - r^2)/2 and S_1 = 3 on the unit ball: 4 pi/5
        norm = euclidean_norm(3)
        u = quadratic_ellipsoid(3)
        assert hessian_integral(norm, u, 1) == pytest.approx(
            4.0 * math.pi / 5.0, rel=1e-12)

    def test_coarea_agreement(self):
        norm = euclidean_norm(2)
        disc = quadratic_ellipsoid(2)
        ellipse = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        for u, k, want in ((disc, 1, math.pi / 2), (disc, 2, math.pi / 4),
                           (ellipse, 1, 5 * math.pi / 8)):
            direct = hessian_integral(norm, u, k)
            coarea = hessian_integral_coarea(LevelTable(norm, u), k)
            assert coarea == pytest.approx(want, rel=1e-3)
            assert coarea == pytest.approx(direct, rel=1e-3)

    def test_euclidean_reduction_reference(self):
        # under the euclidean norm S_k of the operator equals the classical
        # Hessian invariant from the symmetric eigenvalue path
        norm = euclidean_norm(2)
        u = quadratic_ellipsoid(2, axes=[1.5, 0.8])
        rng = np.random.default_rng(8)
        pts = interior_points(rng, u, 30)
        _, _, hesses = u.jets(pts)
        for k in range(0, 3):
            got = sk_field_batch(norm, u, pts, k)
            want = np.array([sigma_k(np.linalg.eigvalsh(h), k)
                             for h in hesses])
            assert np.allclose(got, want, atol=1e-12)


class TestGeneralizedIntegral:
    def test_reduces_to_hessian_integral(self):
        # the two sides agree only after integration by parts, so each
        # carries its own quadrature error
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        for k in (1, 2):
            lhs = generalized_integral(norm, u, k, k + 1.0)
            rhs = k * hessian_integral(norm, u, k)
            assert lhs == pytest.approx(rhs, rel=2e-4)

    def test_reduces_to_dirichlet_energy(self):
        # I_{1,2,F} is the F-Dirichlet energy; for this ellipse and norm
        # the closed form is int (x^2/4 + y^2) = pi
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        assert generalized_integral(norm, u, 1, 2.0) == pytest.approx(
            math.pi, rel=1e-8)

    def test_dirichlet_energy_general_exponent(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        p = 3.0

        def dirichlet(pts):
            grads = u.jets(pts)[1]
            return eval_jet(norm, grads)[0] ** p

        from wulffsym.field_ops import polar_grid
        pts, w = polar_grid(u)
        want = float(dirichlet(pts) @ w)
        assert generalized_integral(norm, u, 1, p) == pytest.approx(
            want, rel=1e-10)

    def test_radial_closed_form(self):
        # u = (r^a - R^a)/a radial: the energy integral has the closed form
        # n kappa C(n-1,k-1) / (n - k + (a-1)p + 1)
        from wulffsym.anisotropy import wulff_volume
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        a, k, p = 3.0, 2, 2.5
        u = radial_power(norm, a=a)
        kap = wulff_volume(norm)
        n = 2
        expo = n - k + (a - 1.0) * p
        want = n * kap * math.comb(n - 1, k - 1) / (expo + 1.0)
        got = generalized_integral(norm, u, k, p)
        assert got == pytest.approx(want, rel=1e-4)


class TestRayJetsInQuadrature:
    """The polar integrals read the field jets from its ray restriction."""

    @staticmethod
    def integrals(norm):
        return {
            "hessian": lambda v: hessian_integral(norm, v, 1, 256),
            "lp": lambda v: lp_norm(v, 2.0, 256),
            "generalized k=1": lambda v: generalized_integral(
                norm, v, 1, 1.5, 256),
            "generalized k=2": lambda v: generalized_integral(
                norm, v, 2, 2.5, 256),
        }

    def test_match_the_field_without_restriction(self):
        # the same integrands on the pointwise jets u.jets at the same nodes
        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        pts, w = polar_grid(u, 256)
        v, g, h = u.jets(pts)
        a = aniso_hessian_batch(norm, g, h)
        fv, fg, _ = eval_jet(norm, g)

        def generalized(k, p):
            pair = np.einsum("mij,mi,mj->m", newton_stack(a, k)[k - 1], fg, g)
            return float(np.sum(fv ** (p - k) * pair * w))

        pointwise = {
            "hessian": float(np.sum(-v * sk_stack(a, 1) * w)),
            "lp": float(np.sum(v * v * w)) ** 0.5,
            "generalized k=1": generalized(1, 1.5),
            "generalized k=2": generalized(2, 2.5),
        }
        for name, integral in self.integrals(norm).items():
            got, want = integral(u), pointwise[name]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), name

    def test_pointwise_oracles_are_not_evaluated(self):
        def boom(pts):
            raise AssertionError("pointwise oracle evaluated")

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        blind = dataclasses.replace(u, jets_fn=boom, values_fn=boom)
        for name, integral in self.integrals(norm).items():
            assert integral(blind) == integral(u), name

    def test_one_dual_solve_per_direction(self, monkeypatch):
        from wulffsym import anisotropy

        rows = []
        dual_numeric = anisotropy._dual_numeric

        def counted(norm, omega):
            rows.append(omega.shape[0])
            return dual_numeric(norm, omega)

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        monkeypatch.setattr(anisotropy, "_dual_numeric", counted)
        hessian_integral(norm, u, 1, 128)
        assert sum(rows) <= 128


class TestPolarTable:
    """One pass over a polar rule gives every request's value."""

    REQUESTS = [("hessian", 1), ("hessian", 2), ("generalized", 1, 1.5),
                ("generalized", 2, 2.5), ("generalized", 1, 2.0),
                ("lp", 2.0), ("lp", 3.0), ("sk", 1), ("sk", 2)]

    def test_matches_one_request_tables(self, monkeypatch):
        rules = []
        polar_rule = field_ops._polar_rule

        def counted(*args):
            rules.append(args[1:])
            return polar_rule(*args)

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        monkeypatch.setattr(field_ops, "_polar_rule", counted)
        table = PolarTable(norm, u, 128, self.REQUESTS)
        assert rules == [(128,)]
        alone = {
            "hessian": lambda k: hessian_integral(norm, u, k, 128),
            "generalized": lambda k, p: generalized_integral(
                norm, u, k, p, 128),
            "lp": lambda p: lp_norm(u, p, 128),
            "sk": lambda k: PolarTable(norm, u, 128,
                                       [("sk", k)])[("sk", k)],
        }
        for req in self.REQUESTS:
            assert np.array_equal(table[req], alone[req[0]](*req[1:])), req

    def test_norm_hessians_only_where_read(self, monkeypatch):
        # a euclidean table of order-1 and value requests takes no norm
        # jet; S_1(A) of any norm is a trace of the terms of D^2(F^2/2)
        # (one norm jet per node), which builds neither A nor D^2F: both
        # are _Hessian.matrix, and the euclidean A is D^2u itself
        def no_hessian(*args):
            raise AssertionError("norm Hessian built")

        jets, terms = [], []

        def counted(norm, xi):
            jets.append(np.asarray(xi).size // norm.dim)
            return eval_jet(norm, xi)

        def counted_terms(norm, xi):
            terms.append(np.asarray(xi).size // norm.dim)
            return anisotropy._norm_jet(norm, xi)

        norm = regularized_p_norm(2, 3.0)
        u = perturbed_radial(norm)
        # the fan's dual solves, which read norm Hessians, come first
        boundary_radii(u, 64)
        monkeypatch.setattr(anisotropy, "eval_jet", counted)
        monkeypatch.setattr(field_ops, "_norm_jet", counted_terms)
        monkeypatch.setattr(anisotropy._Hessian, "matrix", no_hessian)
        euclid, ball = euclidean_norm(3), quadratic_ellipsoid(3)
        reqs = [("hessian", 1), ("generalized", 1, 1.5), ("lp", 2.0),
                ("sk", 1)]
        table = PolarTable(euclid, ball, 16, reqs)
        assert jets == [] and terms == []
        assert table[("generalized", 1, 1.5)] == generalized_integral(
            euclid, ball, 1, 1.5, 16)
        table = PolarTable(norm, u, 64, [("hessian", 1), ("sk", 1)])
        assert jets == []
        assert sum(terms) == table[("sk", 1)].size
        monkeypatch.undo()
        pts = table.points.reshape(-1, 2)
        _, grads, hesses = u.jets(pts)
        want = sk_stack(aniso_hessian_batch(norm, grads, hesses), 1)
        got = table[("sk", 1)].reshape(-1)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12

    def test_sk_values_at_the_points(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        u = perturbed_radial(norm)
        table = PolarTable(norm, u, 64, [("sk", 2)])
        pts = table.points.reshape(-1, 2)
        want = sk_field_batch(norm, u, pts, 2)
        got = table[("sk", 2)].reshape(-1)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12

    @pytest.mark.parametrize("request_", [
        ("lp", math.nan), ("lp", math.inf), ("generalized", 1, math.nan),
        ("generalized", 1, math.inf)], ids=["lp-nan", "lp-inf",
                                             "generalized-nan",
                                             "generalized-inf"])
    def test_non_finite_exponent_is_a_domain_error(self, request_):
        norm = euclidean_norm(2)
        table = PolarTable(norm, quadratic_ellipsoid(2), 64, [request_])
        with pytest.raises(DomainError, match="exponent p must be"):
            table[request_]

    def test_errors_stay_with_their_request(self):
        # min u = -4.5, so |u|^1000 overflows; the other requests share the
        # pass and keep their values
        norm = euclidean_norm(2)
        u = radial_power(norm, a=2.0, radius=3.0)
        with np.errstate(over="ignore"):
            table = PolarTable(norm, u, 64, [
                ("hessian", 1), ("lp", 1000.0), ("generalized", 1, 0.5),
                ("lp", 0.5), ("hessian", 3), ("lp", 2.0)])
        assert table[("hessian", 1)] == hessian_integral(norm, u, 1, 64)
        assert table[("lp", 2.0)] == lp_norm(u, 2.0, 64)
        with pytest.raises(NumericError, match="non-finite integrand"):
            table[("lp", 1000.0)]
        with pytest.raises(DomainError, match="exponent p must be >= 1"):
            table[("generalized", 1, 0.5)]
        with pytest.raises(DomainError, match="p must be >= 1"):
            table[("lp", 0.5)]
        with pytest.raises(DomainError, match="order k=3"):
            table[("hessian", 3)]
        with pytest.raises(NumericError, match="non-finite integrand"), \
                np.errstate(over="ignore"):
            lp_norm(u, 1000.0, 64)


class TestNormHessianRoutes:
    @pytest.mark.parametrize("name", ["ellipse2d", "regp2d", "ball3d"])
    def test_workload_tables_build_norm_hessians_only_in_dual_solves(
            self, monkeypatch, name):
        # the level and polar tables of a workload read S_1 and S_1(A) as
        # traces of the norm Hessian's terms: D^2F is built (eval_jet or
        # _Hessian.matrix) only in the fans' dual solves (dual_jets) and in
        # wulff_volume's one jet for regularized_p
        calls = []

        def spy(fn, label):
            def wrapped(*args):
                frame, names = sys._getframe(1), set()
                while frame is not None:
                    names.add(frame.f_code.co_name)
                    frame = frame.f_back
                calls.append((label, names & {"dual_jets", "wulff_volume"}))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(anisotropy._Hessian, "matrix",
                            spy(anisotropy._Hessian.matrix, "matrix"))
        jet = anisotropy.eval_jet
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("wulffsym")
                    and getattr(mod, "eval_jet", None) is jet):
                monkeypatch.setattr(mod, "eval_jet", spy(jet, "eval_jet"))
        raw = (json.loads(ELLIPSE_CONFIG.read_text()) if name == "ellipse2d"
               else dict(BALL3D if name == "ball3d" else REGP2D))
        raw["output"] = {}
        cfg = cli.ExperimentConfig.from_dict(raw)
        ctx = cli._Context(cfg, *cfg.built, None)
        assert ctx.levels.levels.size and ctx.polar.requests
        assert [c for c in calls if not c[1]] == []
        volume = [c for c in calls
                  if c == ("eval_jet", {"wulff_volume"})]
        assert len(volume) == (name == "regp2d")
        assert any(c[1] == {"dual_jets"} for c in calls) == (
            name == "regp2d")


class TestIdentities:
    def test_split_identity(self):
        # S_k(F F_il u_lj) = (1/F) sum S_{k+1}^{ij} u_j F_i
        rng = np.random.default_rng(9)
        norm = ellipsoid_norm(np.array([[3.0, 0.4], [0.4, 1.0]]))
        u = quadratic_ellipsoid(2, axes=[1.2, 0.9])
        pts = interior_points(rng, u, 50)
        _, grads, hesses = u.jets(pts)
        fv, fg, fh = eval_jet(norm, grads)
        b = fv[:, None, None] * (fh @ hesses)
        for k in range(0, 2):
            lhs = sk_stack(b, k)
            a = aniso_hessian_batch(norm, grads, hesses)
            t = newton_stack(a, k + 1)[k]
            rhs = np.einsum("...ij,...j,...i->...", t, grads, fg) / fv
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))) < 1e-9

    def test_decomposition_identity(self):
        # S_k[u] = S_k(curv) F^k + (1/F) sum S_k^ures F_i u_l A_lj
        rng = np.random.default_rng(10)
        norm = regularized_p_norm(2, 3.0)
        u = quadratic_ellipsoid(2, axes=[1.5, 1.0])
        pts = interior_points(rng, u, 50)
        _, grads, hesses = u.jets(pts)
        fv, fg, _ = eval_jet(norm, grads)
        a = aniso_hessian_batch(norm, grads, hesses)
        for k in (1, 2):
            sk_vals = sk_stack(a, k)
            if k <= 1:
                curv = curvature_batch(norm, grads, hesses)[1][k]
            else:
                fh = eval_jet(norm, grads)[2]
                curv = sk_stack(fh @ hesses, k)
            t = newton_stack(a, k)[k - 1]
            corr = np.einsum("...ij,...i,...l,...lj->...",
                             t, fg, grads, a) / fv
            rhs = curv * fv ** k + corr
            assert np.max(np.abs(sk_vals - rhs) / (1.0 + np.abs(sk_vals))) < 1e-9

    def test_divergence_free_rows(self):
        # columns of the Newton transform of A are divergence free in x;
        # central differences of sum_j d_j S_k^{ij} decay at second order
        norm = ellipsoid_norm(np.array([[2.0, 0.5], [0.5, 1.2]]))

        def cubic_field(pts):
            x, y = pts[..., 0], pts[..., 1]
            v = 0.5 * (1.3 * x * x + 0.8 * y * y - 1.0) + 0.05 * x * y * y
            gx = 1.3 * x + 0.05 * y * y
            gy = 0.8 * y + 0.1 * x * y
            g = np.stack([gx, gy], axis=-1)
            h = np.empty(pts.shape + (2,))
            h[..., 0, 0] = 1.3
            h[..., 0, 1] = 0.1 * y
            h[..., 1, 0] = 0.1 * y
            h[..., 1, 1] = 0.8 + 0.1 * x
            return v, g, h

        def newton_at(x, k):
            _, g, h = cubic_field(x[None])
            a = aniso_hessian_batch(norm, g, h)
            return newton_stack(a, k)[k - 1, 0]

        x0 = np.array([0.4, 0.3])
        for k in (1, 2):
            divs = []
            for h in (1e-3, 5e-4):
                div = np.zeros(2)
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    div += (newton_at(x0 + e, k)[:, j]
                            - newton_at(x0 - e, k)[:, j]) / (2.0 * h)
                divs.append(np.max(np.abs(div)))
            # second-order decay (factor ~4 per halving) or already at the
            # roundoff floor
            assert divs[1] < max(0.3 * divs[0], 1e-8)


class TestAuxiliaries:
    def test_domain_volume(self):
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        assert domain_volume(u) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_readers_share_the_level_table_fan(self, fan_counts):
        # after a level table at 128 rays, domain_volume, polar_grid and
        # comparison_margin's own polar table read the field's fan at 128:
        # no new ray restriction and no new level-0 solve (the table's
        # level rule restricts the field to its one probe ray)
        norm = euclidean_norm(2)
        u = fan_counts.watch(quadratic_ellipsoid(2, axes=[2.0, 1.0]))
        table = LevelTable(norm, u, 40, 128)
        want = {128: 1}
        assert dict(fan_counts.builds) == {**want, 1: 1}
        assert dict(fan_counts.solves) == want
        assert domain_volume(u, 128) == pytest.approx(2.0 * math.pi,
                                                      rel=1e-12)
        polar_grid(u, 128)
        # the fan's radii are shared, so no reader may write into them
        assert not boundary_radii(u, 128).flags.writeable
        # S_1[u] is the trace of diag(1/4, 1), 1.25, at every node
        assert comparison_margin(table, 1.5, 1).min_margin >= -1e-4
        assert dict(fan_counts.builds) == {**want, 1: 1}
        assert dict(fan_counts.solves) == want

    def test_lp_norm_ellipse(self):
        # ||u||_2^2 = a b pi/12 on the (2, 1) ellipse
        u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(math.pi / 6.0),
                                                rel=1e-12)

    def test_lp_norm_and_volume_read_values_only(self):
        def boom(*args):
            raise AssertionError("jets evaluated")

        # the ray restriction gives values (and slopes) only
        base = quadratic_ellipsoid(2, axes=[2.0, 1.0])
        u = dataclasses.replace(
            base, jets_fn=boom,
            ray=lambda omega: RayRestriction(base.ray(omega).along, boom))
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(math.pi / 6.0),
                                                rel=1e-12)
        assert domain_volume(u) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_lp_norm_disc(self):
        # integral of ((1 - |x|^2)/2)^2 over the unit disc = pi/6... times:
        # int (1-r^2)^2/4 r dr dtheta = 2pi * (1/24) = pi/12
        u = quadratic_ellipsoid(2)
        want = (math.pi / 12.0) ** 0.5
        assert lp_norm(u, 2.0) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("count", [5, 7, 8, 9])
    def test_level_grid_needs_ten_levels(self, count):
        with pytest.raises(DomainError, match="at least 10 levels"):
            level_rule(quadratic_ellipsoid(2), count)

    @pytest.mark.parametrize("count", [12.5, 20.0, "20"])
    def test_level_count_must_be_an_integer(self, count):
        u = quadratic_ellipsoid(2)
        with pytest.raises(DomainError, match="integer count"):
            level_rule(u, count)
        with pytest.raises(DomainError, match="integer count"):
            LevelTable(euclidean_norm(2), u, count, 64)

    @pytest.mark.parametrize("count", [10, 11, 39, 200, np.int64(40)])
    def test_level_grid_ends_at_zero(self, count):
        u = quadratic_ellipsoid(2)
        levels = level_rule(u, count)[2]
        assert levels.shape == (count,)
        assert levels[0] > u.min_value
        assert levels[-1] == 0.0
        assert np.all(np.diff(levels) > 0.0)

    def test_polar_rules_name_the_dimension(self):
        norm = euclidean_norm(4)
        u = quadratic_ellipsoid(4)
        for integral in (lambda: hessian_integral(norm, u, 1),
                         lambda: lp_norm(u, 2.0)):
            with pytest.raises(DomainError,
                               match="polar rules.*dimensions 2 and 3; got 4"):
                integral()


class TestPanelRule:
    def test_one_panel_is_the_default(self):
        u = perturbed_radial(regularized_p_norm(2, 3.0))
        for got, want in zip(polar_grid(u, 64, panels=1), polar_grid(u, 64)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_panels_integrate_the_domain(self, dim):
        # volume and second moment of the unit ball: kappa_n and
        # n kappa_n / (n + 2)
        u = quadratic_ellipsoid(dim)
        kappa = math.pi if dim == 2 else 4.0 * math.pi / 3.0
        for panels in (1, 3):
            pts, w = polar_grid(u, 16, panels=panels)
            assert pts.shape[0] == 48 * panels * (16 if dim == 2 else 128)
            r = np.linalg.norm(pts, axis=-1)
            assert np.all(r < 1.0)
            assert np.sum(w) == pytest.approx(kappa, rel=1e-13)
            assert np.sum(w * r * r) == pytest.approx(
                dim * kappa / (dim + 2), rel=1e-13)

    def test_panels_split_each_ray_evenly(self):
        u = quadratic_ellipsoid(2)
        pts, _ = polar_grid(u, 4, panels=3)
        r = np.linalg.norm(pts, axis=-1).reshape(4, 3, 48)
        assert np.all(r[:, 0] < 1.0 / 3.0)
        assert np.all((r[:, 1] > 1.0 / 3.0) & (r[:, 1] < 2.0 / 3.0))
        assert np.all(r[:, 2] > 2.0 / 3.0)
