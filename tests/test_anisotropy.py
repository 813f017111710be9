import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wulffsym import anisotropy
from wulffsym.anisotropy import (
    dual_hessian,
    dual_jet,
    ellipsoid_norm,
    euclidean_norm,
    eval_grad,
    eval_jet,
    eval_trace,
    half_sq_hessian,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym.errors import CapabilityError, DomainError, NumericError
from wulffsym.invariants import sk


def all_norms(n):
    return [
        euclidean_norm(n),
        ellipsoid_norm(np.diag([4.0, 1.0, 2.25][:n]) if n > 1 else [[1.0]]),
        regularized_p_norm(n, 3.0),
        regularized_p_norm(n, 1.5),
    ]


def sample_vectors(rng, n, count):
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=-1, keepdims=True) * rng.uniform(
        0.3, 3.0, size=(count, 1))


class TestEvalJet:
    def test_euclidean_example(self):
        v, g, _ = eval_jet(euclidean_norm(2), np.array([3.0, 4.0]))
        assert v == pytest.approx(5.0)
        assert np.allclose(g, [0.6, 0.8])

    def test_ellipsoid_example(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        v, g, _ = eval_jet(norm, np.array([1.0, 0.0]))
        assert v == pytest.approx(2.0)
        assert np.allclose(g, [2.0, 0.0])

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            eval_jet(euclidean_norm(2), np.zeros(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_euler_identity(self, n):
        rng = np.random.default_rng(1)
        xi = sample_vectors(rng, n, 50)
        for norm in all_norms(n):
            v, g, h = eval_jet(norm, xi)
            assert np.allclose(np.sum(g * xi, axis=-1), v, atol=1e-10)
            # the gradient is 0-homogeneous, so hess @ xi = 0
            assert np.max(np.abs(np.einsum("...ij,...j->...i", h, xi))) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_hessian_match_finite_differences(self, n):
        rng = np.random.default_rng(2)
        xi = sample_vectors(rng, n, 10)
        hstep = 1e-6
        for norm in all_norms(n):
            v, g, h = eval_jet(norm, xi)
            for axis in range(n):
                e = np.zeros(n)
                e[axis] = hstep
                vp, gp, _ = eval_jet(norm, xi + e)
                vm, gm, _ = eval_jet(norm, xi - e)
                assert np.allclose((vp - vm) / (2 * hstep), g[:, axis],
                                   atol=1e-7)
                assert np.allclose((gp - gm) / (2 * hstep), h[:, :, axis],
                                   atol=2e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity(self, n):
        rng = np.random.default_rng(3)
        xi = sample_vectors(rng, n, 20)
        for norm in all_norms(n):
            base = eval_jet(norm, xi)[0]
            for c in (0.5, 2.0, 10.0):
                assert np.allclose(eval_jet(norm, c * xi)[0], c * base,
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_half_square_hessian_positive_definite(self, n):
        rng = np.random.default_rng(4)
        xi = sample_vectors(rng, n, 1000)
        for norm in all_norms(n):
            w = half_sq_hessian(*eval_jet(norm, xi))
            # leading principal minors positive at every sample
            for k in range(1, n + 1):
                minors = np.linalg.det(w[:, :k, :k])
                assert np.min(minors) > 0.0
            assert sk(w[0], n) > 0.0


def broadcast_jet(norm, xi):
    """eval_jet by the broadcast (..., n, n) formula of the Hessian terms,
    scale ((D + c_1 a_1 b_1^T) + c_2 a_2 b_2^T ...): every Hessian entry
    the same operations in the same order as the row build."""
    sq_sum = np.sum(xi * xi, axis=-1)
    if norm.family == "euclidean":
        v = np.sqrt(sq_sum)
        g = xi / v[..., None]
        scale, d, terms = 1.0 / v, np.eye(norm.dim), [(-1.0, g, g)]
    elif norm.family == "ellipsoid":
        mx = xi @ norm.matrix
        v = np.sqrt(np.sum(xi * mx, axis=-1))
        g = mx / v[..., None]
        scale, d, terms = 1.0 / v, norm.matrix, [(-1.0, g, g)]
    else:
        p, eps = norm.exponent, norm.smoothing
        sq = xi * xi
        q = sq + eps * sq_sum[..., None]
        qa = q ** (0.5 * p - 1.0)
        qb = q ** (0.5 * p - 2.0)
        big_g = np.sum(q * qa, axis=-1)
        u = np.sum(qb, axis=-1)[..., None]
        b = qa + eps * np.sum(qa, axis=-1)[..., None]
        h_vec = xi * b
        # the ufunc power, on a single vector too (its sums are numpy
        # scalars)
        scale = np.power(big_g, 1.0 / p - 1.0)
        v, g = np.power(big_g, 1.0 / p), scale[..., None] * h_vec
        d = (b + (p - 2.0) * sq * qb)[..., :, None] * np.eye(norm.dim)
        c = (p - 2.0) * eps
        terms = [(c, xi * qb, xi), (c, xi, xi * (qb + eps * u)),
                 ((1.0 - p) / big_g, h_vec, h_vec)]
    h = d
    for c, a, b in terms:
        h = h + (np.asarray(c)[..., None] * a)[..., :, None] * b[..., None, :]
    return v, g, np.asarray(scale)[..., None, None] * h


class TestRowJets:
    """eval_jet builds the Hessian as (n, n, ...) rows; every output is
    the broadcast formulas' bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_bit_equal_to_broadcast_formulas(self, n):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        # the polar of an ellipsoid norm carries an inverse, not exactly
        # symmetric
        norms = all_norms(n) + [ellipsoid_norm(spd),
                                anisotropy._polar(ellipsoid_norm(spd)),
                                regularized_p_norm(n, 7.0, 0.3)]
        for norm in norms:
            # a single vector, (m, n) and (L, m, n)
            for shape in [(), (7,), (3, 5)]:
                for scale in [1e-9, 1e-3, 1.0, 1e3, 1e9]:
                    x = scale * rng.standard_normal(shape + (n,))
                    # transposed: (n, ...) memory; broadcast: read-only
                    # with a zero stride
                    flipped = np.moveaxis(
                        np.moveaxis(x, -1, 0).copy(), 0, -1)
                    lead = x[..., :1, :] if x.ndim > 1 else x
                    for xi in (x, flipped, np.broadcast_to(lead, x.shape)):
                        got = eval_jet(norm, xi)
                        for out, want in zip(got, broadcast_jet(norm, xi)):
                            assert np.shape(out) == want.shape
                            assert (np.asarray(out).tobytes()
                                    == want.tobytes()), (norm, shape, scale)

    @pytest.mark.parametrize("x", [1.0, np.float64(2.0), np.ones(3)])
    def test_rejects_scalars_and_wrong_lengths(self, x):
        for norm in all_norms(2):
            for jet in (eval_jet, eval_grad, dual_jet, anisotropy.dual_jets):
                with pytest.raises(DomainError,
                                   match="expected vectors of length 2"):
                    jet(norm, x)


class TestSingleVectors:
    """One vector of shape (n,) takes the batch path's arithmetic: its jets
    are row 0 of the same vector as a batch, byte for byte."""

    @staticmethod
    def norms(n):
        spd = np.diag([4.0, 1.0, 2.25][:n]) + 0.3
        return ([euclidean_norm(n), ellipsoid_norm(spd),
                 anisotropy._polar(ellipsoid_norm(spd))]
                + [regularized_p_norm(n, p) for p in (1.5, 3.0, 7.0)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_vector_is_batch_row(self, n):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((60, n)) * np.exp(
            rng.uniform(-20.0, 20.0, size=(60, 1)))
        for norm in self.norms(n):
            for jet in (eval_jet, eval_grad, dual_jet):
                batch = jet(norm, x)
                for i, xi in enumerate(x):
                    single = jet(norm, xi)
                    for one, row, many in zip(single, jet(norm, xi[None]),
                                              batch):
                        one = np.asarray(one).tobytes()
                        assert one == row[0].tobytes(), (norm, jet, xi)
                        assert one == many[i].tobytes(), (norm, jet, xi)

    @pytest.mark.parametrize("n", [2, 3])
    def test_value_gradient_jets_are_the_full_jets_heads(self, n):
        # eval_grad is eval_jet without the Hessian, and dual_jet dual_jets
        # without it, byte for byte, on every shape
        rng = np.random.default_rng(23)
        for norm in self.norms(n):
            for shape in [(), (7,), (3, 5)]:
                x = rng.standard_normal(shape + (n,)) * np.exp(
                    rng.uniform(-20.0, 20.0, size=shape + (1,)))
                for head, full in ((eval_grad, eval_jet),
                                   (dual_jet, anisotropy.dual_jets)):
                    got, want = head(norm, x), full(norm, x)[:2]
                    assert len(got) == 2
                    for a, b in zip(got, want):
                        assert np.shape(a) == np.shape(b)
                        assert (np.asarray(a).tobytes()
                                == np.asarray(b).tobytes()), (norm, shape)


class TestDualJet:
    def test_euclidean_self_dual(self):
        v, g = dual_jet(euclidean_norm(2), np.array([3.0, 4.0]))
        assert v == pytest.approx(5.0)
        assert np.allclose(g, [0.6, 0.8])

    def test_ellipsoid_closed_form_vs_sampled_sup(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        x = np.array([1.0, 0.0])
        v, _ = dual_jet(norm, x)
        assert v == pytest.approx(0.5)
        theta = 2.0 * math.pi * np.arange(10_000) / 10_000
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        ratios = dirs @ x / eval_jet(norm, dirs)[0]
        assert np.max(ratios) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_lies_on_unit_sphere(self, n):
        rng = np.random.default_rng(5)
        x = sample_vectors(rng, n, 30)
        for norm in all_norms(n):
            _, g = dual_jet(norm, x)
            assert np.allclose(eval_jet(norm, g)[0], 1.0, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_chain(self, n):
        # F*(x) gradF(gradF*(x)) = x
        rng = np.random.default_rng(6)
        x = sample_vectors(rng, n, 30)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        for norm in all_norms(n):
            v, g = dual_jet(norm, x)
            _, gf, _ = eval_jet(norm, g)
            assert np.max(np.abs(v[:, None] * gf - x)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_dual_homogeneity(self, n):
        rng = np.random.default_rng(7)
        x = sample_vectors(rng, n, 20)
        for norm in all_norms(n):
            base = dual_jet(norm, x)[0]
            for c in (0.5, 2.0, 10.0):
                assert np.allclose(dual_jet(norm, c * x)[0], c * base,
                                   rtol=1e-10)

    def test_double_dual_on_ellipsoid(self):
        norm = ellipsoid_norm(np.array([[4.0, 0.6], [0.6, 1.0]]))
        dual = ellipsoid_norm(norm.matrix_inv)
        rng = np.random.default_rng(8)
        x = sample_vectors(rng, 2, 20)
        assert np.allclose(dual_jet(dual, x)[0], eval_jet(norm, x)[0],
                           rtol=1e-8)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            dual_jet(euclidean_norm(2), np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1.05, 30.0), eps=st.floats(1e-4, 1.0),
           s=st.floats(-30.0, 30.0),
           direction=st.integers(2, 3).flatmap(lambda n: st.lists(
               st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    # near an axis at |x| ~ 1.6e-6 an absolute residual test stalls
    @example(p=3.0, eps=1e-2, s=math.log(1.5852608470538693e-06),
             direction=[1.584893192461114e-06, 3.4145488738336004e-08])
    # the p-norm starting guess already meets the tolerance here, with a
    # second gradient component 2.4e-14 that underflows at e^-1 times it
    @example(p=25.0, eps=1.0, s=-1.0, direction=[1.0, 5e-324])
    def test_numeric_dual_is_homogeneous(self, p, eps, s, direction):
        # F* is 1-homogeneous, grad F* 0-homogeneous and hess F*
        # (-1)-homogeneous: the jets at e^s w follow from those at w
        omega = np.asarray(direction)
        length = float(np.linalg.norm(omega))
        if length < 1e-3:
            return
        omega = omega / length
        norm = regularized_p_norm(omega.size, p, eps)
        x = math.exp(s) * omega
        v, g = dual_jet(norm, x)
        v0, g0 = dual_jet(norm, omega)
        assert abs(v / math.exp(s) - v0) <= 1e-14 * v0
        assert np.max(np.abs(g - g0)) <= 1e-14
        h0 = dual_hessian(norm, omega)
        assert np.max(np.abs(dual_hessian(norm, x) * math.exp(s) - h0)
                      / (1.0 + np.abs(h0))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_is_the_row_max_bit_for_bit(self, n):
        # the dual solve's column-wise residual against the reduction it
        # replaces, on signed zeros, infinities and nan rows
        rng = np.random.default_rng(12)
        r1 = rng.standard_normal((64, n))
        v = 1.0 + rng.standard_normal(64)
        r1[0], r1[1, 0], r1[2, -1], v[3] = -0.0, np.inf, np.nan, np.nan
        want = np.maximum(np.max(np.abs(r1), axis=-1), np.abs(v - 1.0))
        got = anisotropy._residual(r1, v)
        assert got.tobytes() == want.tobytes()

    def test_nonconvergence_names_the_norm(self, monkeypatch):
        monkeypatch.setattr(anisotropy, "_DUAL_ITERS", 1)
        norm = regularized_p_norm(2, 3.0, 0.05)
        with pytest.raises(NumericError, match=r"p=3\.0, eps=0\.05"):
            dual_jet(norm, np.array([0.6, 0.8]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_norm_hessian_per_newton_iteration(self, monkeypatch, n):
        # the line search and the normalizations read F and grad F alone:
        # every iteration but the last solves one Newton system
        jets, solves = [], []
        jet, solve = anisotropy.eval_jet, np.linalg.solve

        def counted_jet(*args):
            jets.append(1)
            return jet(*args)

        def counted_solve(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(anisotropy, "eval_jet", counted_jet)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        omega = sample_vectors(np.random.default_rng(13), n, 64)
        omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
        anisotropy._dual_numeric(regularized_p_norm(n, 3.0), omega)
        assert len(solves) >= 1
        assert len(jets) == len(solves) + 1


class TestDualHessian:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(9)
        x = sample_vectors(rng, n, 6)
        hstep = 1e-6
        for norm in all_norms(n):
            h = dual_hessian(norm, x)
            for axis in range(n):
                e = np.zeros(n)
                e[axis] = hstep
                _, gp = dual_jet(norm, x + e)
                _, gm = dual_jet(norm, x - e)
                fd = (gp - gm) / (2 * hstep)
                assert np.allclose(fd, h[:, :, axis], atol=5e-5)

    def test_ellipsoid_implicit_route_matches_closed_form(self):
        # force the implicit-function path through an equivalent synthetic
        # regularized norm is not possible; instead check euclidean algebra
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        x = np.array([0.7, -0.4])
        mi = norm.matrix_inv
        v = math.sqrt(x @ mi @ x)
        want = mi / v - np.outer(mi @ x, mi @ x) / v**3
        assert np.allclose(dual_hessian(norm, x), want, atol=1e-12)


class TestWulffVolume:
    def test_euclidean_2d(self):
        assert wulff_volume(euclidean_norm(2)) == pytest.approx(math.pi)

    def test_euclidean_3d(self):
        assert wulff_volume(euclidean_norm(3)) == pytest.approx(
            4.0 * math.pi / 3.0)

    def test_ellipsoid_2d(self):
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        assert wulff_volume(norm) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_ellipsoid_quadrature_cross_check(self):
        # independent polar quadrature of the same ball
        norm = ellipsoid_norm(np.diag([4.0, 1.0]))
        theta = 2.0 * math.pi * np.arange(4096) / 4096
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        r = 1.0 / dual_jet(norm, dirs)[0]
        area = float(np.sum(r * r) * math.pi / 4096)
        assert area == pytest.approx(wulff_volume(norm), rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_regularized_p_against_gradient_parametrization(self, n):
        # the Wulff boundary is the image of the F-unit sphere under gradF,
        # giving an independent divergence-theorem volume
        norm = regularized_p_norm(n, 3.0)
        vol = wulff_volume(norm)
        if n == 2:
            theta = 2.0 * math.pi * (np.arange(4096) + 0.5) / 4096
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            _, g, h = eval_jet(norm, dirs)
            tangent = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            dx = np.einsum("kij,kj->ki", h, tangent)
            cross = g[:, 0] * dx[:, 1] - g[:, 1] * dx[:, 0]
            alt = float(0.5 * np.sum(cross) * 2.0 * math.pi / 4096)
        else:
            nc, nphi = 96, 192
            c, wc = np.polynomial.legendre.leggauss(nc)
            phi = 2.0 * math.pi * np.arange(nphi) / nphi
            s = np.sqrt(1.0 - c * c)
            omega = np.stack([
                np.outer(s, np.cos(phi)),
                np.outer(s, np.sin(phi)),
                np.broadcast_to(c[:, None], (nc, nphi)).copy()], axis=-1)
            d_th = np.stack([
                np.outer(c, np.cos(phi)),
                np.outer(c, np.sin(phi)),
                np.broadcast_to(-s[:, None], (nc, nphi)).copy()], axis=-1)
            d_phi = np.stack([
                np.outer(s, -np.sin(phi)),
                np.outer(s, np.cos(phi)),
                np.zeros((nc, nphi))], axis=-1)
            flat = omega.reshape(-1, 3)
            _, g, h = eval_jet(norm, flat)
            xs = g.reshape(nc, nphi, 3)
            xt = np.einsum("kij,kj->ki", h, d_th.reshape(-1, 3)).reshape(
                nc, nphi, 3)
            xp = np.einsum("kij,kj->ki", h, d_phi.reshape(-1, 3)).reshape(
                nc, nphi, 3)
            crs = np.cross(xt, xp)
            integrand = np.einsum("abi,abi->ab", xs, crs) / 3.0
            # theta-direction was parametrized through c = cos(theta)
            alt = float(np.sum(wc @ (integrand / s[:, None]))
                        * 2.0 * math.pi / nphi)
        assert vol == pytest.approx(alt, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_regularized_p_against_dual_route_quadrature(self, n):
        # the Wulff ball's polar volume from its boundary radii 1/F*(w),
        # on a grid finer than the default and with the dual Newton solve:
        # 8,192 directions in 2D, 512 longitudes by 256 Gauss latitudes in
        # 3D, where this route itself reads about 4e-9 low
        norm = regularized_p_norm(n, 3.0)
        if n == 2:
            theta = 2.0 * math.pi * np.arange(8192) / 8192
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            weights, rel = np.full(8192, 2.0 * math.pi / 8192), 1e-12
        else:
            c, wc = np.polynomial.legendre.leggauss(256)
            phi = 2.0 * math.pi * np.arange(512) / 512
            s = np.sqrt(1.0 - c * c)
            dirs = np.stack([np.outer(s, np.cos(phi)),
                             np.outer(s, np.sin(phi)),
                             np.outer(c, np.ones(512))], axis=-1)
            dirs = dirs.reshape(-1, 3)
            weights, rel = np.repeat(wc, 512) * 2.0 * math.pi / 512, 1e-8
        r = 1.0 / dual_jet(norm, dirs)[0]
        want = float(weights @ r ** n) / n
        assert wulff_volume(norm) == pytest.approx(want, rel=rel)

    def test_unsupported_dimension(self):
        with pytest.raises(CapabilityError):
            wulff_volume(regularized_p_norm(4, 2.5))


class TestEvalTrace:
    """eval_trace gives sum_ij F_ij b_ji from the Hessian terms, with no
    Hessian built."""

    @staticmethod
    def norms(n):
        a = np.random.default_rng(30 + n).standard_normal((n, n))
        return [euclidean_norm(n), ellipsoid_norm(a @ a.T + n * np.eye(n)),
                regularized_p_norm(n, 1.5), regularized_p_norm(n, 3.0),
                regularized_p_norm(n, 7.0, 0.3)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_the_trace_of_the_jet_hessian(self, n):
        rng = np.random.default_rng(31)
        xi = rng.standard_normal((64, n)) * np.exp(
            rng.uniform(-5.0, 5.0, size=(64, 1)))
        b = rng.standard_normal((64, n, n))  # not symmetric
        for norm in self.norms(n):
            v, g, tr = eval_trace(norm, xi, b)
            jv, jg, h = eval_jet(norm, xi)
            assert v.tobytes() == jv.tobytes() and g.tobytes() == jg.tobytes()
            want = np.einsum("kij,kji->k", h, b)
            # relative to the sum of the magnitudes of the terms
            size = np.einsum("kij,kji->k", np.abs(h), np.abs(b))
            assert np.max(np.abs(tr - want) / size) <= 1e-13, norm

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_central_differences_of_the_gradient(self, n):
        rng = np.random.default_rng(32)
        xi = sample_vectors(rng, n, 32)
        b = rng.standard_normal((32, n, n))
        step = 1e-5
        for norm in self.norms(n):
            # column j of the Hessian is the derivative of grad F along e_j
            cols = [(eval_grad(norm, xi + step * e)[1]
                     - eval_grad(norm, xi - step * e)[1]) / (2.0 * step)
                    for e in np.eye(n)]
            want = np.einsum("jki,kji->k", np.array(cols), b)
            got = eval_trace(norm, xi, b)[2]
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-7

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_vector_is_batch_row(self, n):
        rng = np.random.default_rng(33)
        xi = rng.standard_normal((20, n)) * np.exp(
            rng.uniform(-20.0, 20.0, size=(20, 1)))
        b = rng.standard_normal((20, n, n))
        for norm in self.norms(n):
            batch = eval_trace(norm, xi, b)
            for i in range(20):
                for one, many in zip(eval_trace(norm, xi[i], b[i]), batch):
                    assert np.asarray(one).tobytes() == many[i].tobytes()

    def test_zero_vector_is_a_domain_error(self):
        for norm in self.norms(2):
            for xi in (np.zeros(2), np.array([[1.0, 0.5], [0.0, 0.0]])):
                with pytest.raises(DomainError, match="undefined at the"):
                    eval_trace(norm, xi, np.eye(2))


class TestFactories:
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_smoothing(self, eps):
        with pytest.raises(DomainError, match="positive and finite"):
            regularized_p_norm(2, 3.0, eps=eps)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(DomainError):
            ellipsoid_norm(np.diag([1.0, -1.0]))

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            regularized_p_norm(2, 1.0)
        with pytest.raises(DomainError):
            regularized_p_norm(2, 2.0, eps=0.0)
