import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from wulffsym import bodies, rays
from wulffsym.anisotropy import ellipsoid_norm, euclidean_norm, regularized_p_norm


@pytest.fixture(scope="session")
def norms_2d():
    return {
        "euclidean": euclidean_norm(2),
        "ellipsoid": ellipsoid_norm(np.diag([4.0, 1.0])),
        "regularized_p": regularized_p_norm(2, 3.0),
    }


@pytest.fixture(scope="session")
def norms_3d():
    return {
        "euclidean": euclidean_norm(3),
        "ellipsoid": ellipsoid_norm(np.diag([4.0, 1.0, 2.25])),
        "regularized_p": regularized_p_norm(3, 3.0),
    }


@pytest.fixture
def fan_counts(monkeypatch):
    """Ray-restriction builds and box-exit (level-0) ray solves, counted by
    direction count: ``builds`` counts the restrictions of the fields that
    ``watch(u)`` returns (copies of u), ``solves`` every ray solve started
    at the box exits."""
    counts = SimpleNamespace(builds=Counter(), solves=Counter())
    ray_roots = rays._ray_roots

    def counted(fan, levels, radii=None):
        if radii is None:
            counts.solves[fan.grid.count] += 1
        return ray_roots(fan, levels, radii)

    def watch(u):
        def ray(omega):
            counts.builds[omega.shape[0]] += 1
            return u.ray(omega)

        return dataclasses.replace(u, ray=ray)

    for mod in (rays, bodies):
        monkeypatch.setattr(mod, "_ray_roots", counted)
    counts.watch = watch
    return counts


def ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of an axis-aligned ellipse by the AGM form of E(m)."""
    if a < b:
        a, b = b, a
    big_k, e_sum = _agm_elliptic(np.sqrt(1.0 - (b / a) ** 2))
    return 4.0 * a * big_k * (1.0 - e_sum)


def _agm_elliptic(k: float):
    an, bn, cn = 1.0, np.sqrt(1.0 - k * k), k
    total = 0.5 * cn * cn
    power = 1.0
    for _ in range(60):
        an, bn, cn = 0.5 * (an + bn), np.sqrt(an * bn), 0.5 * (an - bn)
        power *= 2.0
        total += 0.5 * power * cn * cn
        if cn < 1e-17:
            break
    big_k = np.pi / (2.0 * an)
    return big_k, total


def box_gauss_grid(box, nodes: int):
    """Tensor Gauss-Legendre rule on an axis-aligned box (points, weights).

    box is an (n, 2) array of [lo, hi] per axis, with ``nodes`` points per
    axis. Applied to an indicator it is a boundary-blind oracle, independent
    of the polar rule of the library.
    """
    box = np.asarray(box, dtype=float)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (box[:, 1] - box[:, 0])
    axes = [lo + h * (x + 1.0) for (lo, _), h in zip(box, half)]
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                   axis=-1)
    weights = np.ones(1)
    for h in half:
        weights = np.outer(weights, h * w).reshape(-1)
    return pts, weights
