"""The benchmark's reference values against brute-force computations.

    python3 -m pytest bench/test_oracles.py

Brute force here means midpoint sums over Cartesian grids with the domain
indicator, fine polygons and direct Riemann sums: slow and crude, but
sharing no reduction with the formulas they check.
"""

import math

import numpy as np
import pytest

import oracles

A, B = 2.0, 1.0


def _ellipse_grid(nodes=1500):
    """Midpoints of the bounding box of the (A, B) ellipse, inside only."""
    h = (2 * A / nodes, 2 * B / nodes)
    x = -A + h[0] * (np.arange(nodes) + 0.5)
    y = -B + h[1] * (np.arange(nodes) + 0.5)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    u = 0.5 * (xx ** 2 / A ** 2 + yy ** 2 / B ** 2 - 1.0)
    inside = u < 0.0
    return xx[inside], yy[inside], u[inside], h[0] * h[1]


def _ball_grid(nodes=100):
    h = 2.0 / nodes
    c = -1.0 + h * (np.arange(nodes) + 0.5)
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    r2 = x * x + y * y + z * z
    inside = r2 < 1.0
    return np.sqrt(r2[inside]), h ** 3


def test_agm_half_perimeter_matches_fine_polygon():
    for a, b in ((2.0, 1.0), (1.0, 1.0), (3.0, 0.2)):
        th = np.linspace(0.0, 2.0 * math.pi, 400001)
        pts = np.stack([a * np.cos(th), b * np.sin(th)], axis=-1)
        brute = 0.5 * np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=-1))
        assert oracles.agm_half_perimeter(a, b) == pytest.approx(
            brute, rel=1e-9)


def test_ellipse_energies_match_grid_sums():
    x, y, u, cell = _ellipse_grid()
    gx, gy = x / A ** 2, y / B ** 2
    g2 = gx * gx + gy * gy
    s1, s2 = 1.0 / A ** 2 + 1.0 / B ** 2, 1.0 / (A * B) ** 2
    brute_hess = {1: np.sum(-u * s1) * cell, 2: np.sum(-u * s2) * cell}
    for k in (1, 2):
        assert oracles.ellipse_hessian_energy(A, B, k) == pytest.approx(
            brute_hess[k], rel=1e-3)
    assert oracles.ellipse_hessian_energy(A, B, 1) == pytest.approx(
        5 * math.pi / 8, rel=1e-15)
    for p in (1.5, 2.0, 3.0):
        brute1 = np.sum(g2 ** (p / 2)) * cell
        # T_2 = S_1 I - D^2 u; integrand |g|^{p-3} g^T T_2 g
        quad = s1 * g2 - (gx * gx / A ** 2 + gy * gy / B ** 2)
        brute2 = np.sum(g2 ** ((p - 3) / 2) * quad) * cell
        assert oracles.ellipse_generalized_energy(A, B, 1, p) == \
            pytest.approx(brute1, rel=1e-3)
        assert oracles.ellipse_generalized_energy(A, B, 2, p) == \
            pytest.approx(brute2, rel=2e-3)
    for q in (2.0, 6.0):
        assert oracles.ellipse_lq_power(A, B, q) == pytest.approx(
            np.sum(np.abs(u) ** q) * cell, rel=1e-3)


def test_disc_symmetrand_energies_match_grid_sums():
    radius, nodes = math.sqrt(A * B), 2000
    h = 2 * radius / nodes
    c = -radius + h * (np.arange(nodes) + 0.5)
    xx, yy = np.meshgrid(c, c, indexing="ij")
    r2 = (xx * xx + yy * yy)[xx * xx + yy * yy < radius ** 2]
    ustar = r2 / (2 * A * B) - 0.5
    # D^2 u* = I / (ab): S_1 = 2 / (ab)
    assert oracles.disc_symmetrand_energy(A, B, None) == pytest.approx(
        np.sum(-ustar * 2 / (A * B)) * h * h, rel=1e-3)
    for p in (1.5, 2.0):
        assert oracles.disc_symmetrand_energy(A, B, p) == pytest.approx(
            np.sum((np.sqrt(r2) / (A * B)) ** p) * h * h, rel=1e-3)
    assert oracles.ellipse_rho(A, B, radius) == pytest.approx(0.0)
    # zeta_0(t) is the radius of the disc with the sublevel set's area
    t = -0.3
    x, y, u, cell = _ellipse_grid()
    area = np.count_nonzero(u < t) * cell
    assert oracles.ellipse_zeta(A, B, 0, t) == pytest.approx(
        math.sqrt(area / math.pi), rel=1e-3)


def test_ball_values_match_grid_sums():
    r, cell = _ball_grid()
    u = 0.5 * (r * r - 1.0)
    assert oracles.ball_volume() == pytest.approx(r.size * cell, rel=2e-3)
    assert oracles.ball_hessian_energy() == pytest.approx(
        np.sum(-u * 3.0) * cell, rel=2e-3)
    assert oracles.ball_generalized_energy(1.5) == pytest.approx(
        np.sum(r ** 1.5) * cell, rel=2e-3)
    assert oracles.ball_lq_power(3.0) == pytest.approx(
        np.sum(np.abs(u) ** 3) * cell, rel=5e-3)
    assert math.sqrt(oracles.ball_lq_power(3.0)) == pytest.approx(
        math.sqrt(8 * math.pi / 315), rel=1e-14)


def test_ball_mixed_volumes_are_steiner_coefficients():
    # vol(B_r + eps B) = sum_k C(3, k) W_k(B_r) eps^k, volumes by grid counts
    r, cell = _ball_grid(160)
    eps = np.array([0.0, 0.1, 0.2, 0.3])
    radius = 0.7
    vols = [np.count_nonzero(r < radius + e) * cell for e in eps]
    coeffs = np.polyfit(eps, vols, 3)[::-1]
    for k in range(3):
        want = coeffs[k] / math.comb(3, k)
        assert oracles.ball_mixed_volume(radius, k) == pytest.approx(
            want, rel=0.05)


@pytest.mark.parametrize("n,p", [(2, 1.5), (3, 1.5), (3, 2.0)])
def test_sobolev_constant_is_talenti_at_order_one(n, p):
    kappa = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    talenti = (math.pi ** -0.5 * n ** (-1 / p)
               * ((p - 1) / (n - p)) ** (1 - 1 / p)
               * (math.gamma(1 + n / 2) * math.gamma(n)
                  / (math.gamma(n / p) * math.gamma(1 + n - n / p)))
               ** (1 / n))
    assert oracles.sobolev_constant(n, 1, p, kappa) == pytest.approx(
        talenti ** p, rel=1e-12)


def test_regularized_p_norm_reduces_to_euclidean():
    xi = np.array([[3.0, 4.0], [-1.0, 0.5]])
    assert np.allclose(oracles.regularized_p_norm(xi, 2.0, 0.0),
                       np.linalg.norm(xi, axis=-1))
    assert np.allclose(oracles.regularized_p_norm(2.5 * xi, 3.0, 1e-2),
                       2.5 * oracles.regularized_p_norm(xi, 3.0, 1e-2))


def test_ray_roots_on_a_disc():
    def values(pts):
        return 0.5 * (np.sum(pts * pts, axis=-1) - 1.0)

    roots = oracles.ray_roots(values, [0.0, -0.25], 64)
    assert np.allclose(roots[0], 1.0, atol=1e-14)
    assert np.allclose(roots[1], math.sqrt(0.5), atol=1e-14)


def test_star_body_measures_on_the_ellipse():
    def values(pts):
        return 0.5 * (pts[:, 0] ** 2 / A ** 2 + pts[:, 1] ** 2 / B ** 2 - 1)

    areas, perims = oracles.star_body_measures(
        values, [0.0, -0.25], lambda xi: np.linalg.norm(xi, axis=-1),
        rays=1024)
    half = oracles.agm_half_perimeter(A, B)
    assert areas == pytest.approx([math.pi * A * B, math.pi * A * B / 2],
                                  rel=1e-9)
    assert perims == pytest.approx([half, half / math.sqrt(2)], rel=1e-9)


def test_anisotropic_half_perimeter_of_the_disc():
    # W_1 of the unit disc is half the integral of F over the unit circle
    def norm(xi):
        return oracles.regularized_p_norm(xi, 3.0, 1e-2)

    th = 2 * math.pi * (np.arange(1_000_000) + 0.5) / 1_000_000
    brute = 0.5 * np.mean(norm(np.stack([np.cos(th), np.sin(th)], -1))) \
        * 2 * math.pi
    _, perims = oracles.star_body_measures(
        lambda pts: 0.5 * (np.sum(pts * pts, axis=-1) - 1), [0.0], norm,
        rays=1024)
    assert perims[0] == pytest.approx(brute, rel=1e-9)
