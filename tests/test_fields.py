import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wulffsym import fields
from wulffsym.anisotropy import ellipsoid_norm, euclidean_norm, regularized_p_norm
from wulffsym.errors import InputError
from wulffsym.fields import (
    build_preset,
    perturbed_radial,
    preset_catalog,
    quadratic_ellipsoid,
    quasiconvexity_defect,
    radial_power,
)


def norm_list(n):
    return [
        euclidean_norm(n),
        ellipsoid_norm(np.diag([4.0, 1.0, 2.25][:n])),
        regularized_p_norm(n, 3.0),
    ]


def preset_list(norm):
    return [
        quadratic_ellipsoid(norm.dim),
        quadratic_ellipsoid(norm.dim, axes=[2.0, 1.0, 1.5][:norm.dim]),
        radial_power(norm, a=2.0),
        radial_power(norm, a=3.0),
        perturbed_radial(norm),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_jets_match_finite_differences(n):
    rng = np.random.default_rng(0)
    h = 1e-5
    for norm in norm_list(n):
        for u in preset_list(norm):
            pts = rng.uniform(-0.4, 0.4, size=(6, n)) + 0.1
            vals, grads, hesses = u.jets(pts)
            for axis in range(n):
                e = np.zeros(n)
                e[axis] = h
                vp, gp, _ = u.jets(pts + e)
                vm, gm, _ = u.jets(pts - e)
                assert np.allclose((vp - vm) / (2 * h), grads[:, axis],
                                   atol=1e-8)
                assert np.allclose((gp - gm) / (2 * h), hesses[:, :, axis],
                                   atol=1e-5)


@pytest.mark.parametrize("n", [2, 3])
def test_minimum_and_anchor(n):
    # min value, zero gradient and the restriction's s = 0 Hessian, alone
    # and as a batch row: for a = 2 the limit of the radial Hessian
    # (grad F* grad F*^T + F* hess F*), I for the euclidean norm and M^-1
    # for the ellipsoid norm of matrix M; regularized_p has no limit at
    # the anchor, and the value is the one along the anchor's ray e_1
    # (the a = 2 Hessian is constant along a ray); plus the perturbation's
    axes = np.array([2.0, 1.0, 1.5][:n])
    e1 = np.eye(n)[0]
    for norm in norm_list(n):
        radial = {"euclidean": np.eye(n),
                  "ellipsoid": np.diag(1.0 / np.array([4.0, 1.0, 2.25][:n])),
                  "regularized_p": radial_power(norm, a=2.0).jet(
                      1e-9 * e1).hessian}[norm.family]
        limits = [np.eye(n), np.diag(1.0 / axes**2), radial,
                  np.zeros((n, n)),
                  radial + 0.25 * np.diag(np.linspace(0.4, 1.6, n))]
        for i, (u, limit) in enumerate(zip(preset_list(norm), limits)):
            jet = u.jet(u.anchor)
            assert jet.value == u.min_value, (norm, u.name)
            assert np.array_equal(jet.gradient, np.zeros(n)), (norm, u.name)
            if i in (2, 4):  # the a = 2 limits, to rounding
                assert np.allclose(jet.hessian, limit, rtol=1e-14,
                                   atol=1e-15), (norm, u.name)
            else:
                assert np.array_equal(jet.hessian, limit), (norm, u.name)
            v, g, _ = u.jets(u.anchor[None, :])
            assert v[0] == u.min_value and not np.any(g[0]), u.name


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_inside_bounding_box(n):
    rng = np.random.default_rng(1)
    for norm in norm_list(n):
        for u in preset_list(norm):
            pts = rng.uniform(u.bounding_box[:, 0], u.bounding_box[:, 1],
                              size=(2000, n))
            inside = u.values(pts) < 0.0
            box = u.bounding_box
            assert np.all(pts[inside] >= box[:, 0] - 1e-12)
            assert np.all(pts[inside] <= box[:, 1] + 1e-12)


def test_quadratic_values_example():
    u = quadratic_ellipsoid(2, axes=[2.0, 1.0])
    # u = (x^2/4 + y^2 - 1)/2
    assert u.values(np.array([[2.0, 0.0]]))[0] == pytest.approx(0.0)
    assert u.values(np.array([[0.0, 0.0]]))[0] == pytest.approx(-0.5)
    assert u.values(np.array([[1.0, 0.5]]))[0] == pytest.approx(
        0.5 * (0.25 + 0.25 - 1.0))


@pytest.mark.parametrize("n", [2, 3])
def test_quasiconvexity_defect_nonnegative(n):
    for norm in norm_list(n):
        for u in preset_list(norm):
            assert quasiconvexity_defect(u, samples=128) > -1e-8


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", [0, 1, 2],
                         ids=["euclidean", "ellipsoid", "regularized_p"])
@settings(max_examples=25, deadline=None)
@given(a=st.floats(2.0, 6.0), radius=st.floats(0.3, 4.0),
       sigma=st.floats(0.0, 0.25), data=st.data())
def test_perturbed_radial_is_quasiconvex(n, family, a, radius, sigma, data):
    # convexity follows from the parameter checks (F*^a convex for a >= 2,
    # P positive semidefinite); the draws keep {u < -1e-6} a sizeable
    # part of the Wulff box the defect samples: -min u = R^a / a >= 1.2e-4,
    # and where F* <= R / 2 (so |x| <= 2 F*(x) <= R for these norms) the
    # perturbation stays below R^a / 8, less than the radial depth
    # R^a (1 - 2^-a) / a >= 0.16 R^a there
    weights = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=n,
                                          max_size=n)))
    strength = sigma * radius ** (a - 2.0) / max(float(np.max(weights)), 1.0)
    u = perturbed_radial(norm_list(n)[family], a=a, radius=radius,
                         strength=strength, weights=weights)
    assert quasiconvexity_defect(u, samples=128) > -1e-8


def test_perturbed_radial_rejects_destructive_perturbation():
    norm = euclidean_norm(2)
    with pytest.raises(InputError):
        perturbed_radial(norm, strength=-1.0)


def test_radial_power_parameter_validation():
    norm = euclidean_norm(2)
    with pytest.raises(InputError):
        radial_power(norm, a=1.0)
    with pytest.raises(InputError):
        radial_power(norm, radius=0.0)


@pytest.mark.parametrize("preset, params", [
    (radial_power, {"a": np.nan}), (radial_power, {"a": np.inf}),
    (radial_power, {"radius": np.nan}), (radial_power, {"radius": np.inf}),
    (perturbed_radial, {"strength": np.nan}),
    (perturbed_radial, {"strength": np.inf}),
    (perturbed_radial, {"weights": [1.0, np.nan]}),
    (perturbed_radial, {"weights": [np.inf, 1.0]}),
], ids=["a-nan", "a-inf", "radius-nan", "radius-inf", "strength-nan",
        "strength-inf", "weights-nan", "weights-inf"])
def test_non_finite_parameters_rejected(preset, params):
    with pytest.raises(InputError, match="finite"):
        preset(euclidean_norm(2), **params)


def test_preset_registry_round_trip():
    norm = euclidean_norm(2)
    u = build_preset("quadratic_ellipsoid", norm, {"axes": [2.0, 1.0]})
    assert u.dim == 2
    with pytest.raises(InputError):
        build_preset("nope", norm, {})
    catalog = preset_catalog()
    assert set(catalog) == {"quadratic_ellipsoid", "radial_power",
                            "perturbed_radial"}


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


@pytest.mark.parametrize("n", [2, 3])
def test_ray_restriction_matches_values_and_jets(n):
    rng = np.random.default_rng(2)
    omega = rng.normal(size=(40, n))
    omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
    s = rng.uniform(0.05, 1.2, size=(3, 40))
    for norm in norm_list(n):
        for u in preset_list(norm):
            val, slope = u.ray(omega).along(s)
            pts = u.anchor + s[..., None] * omega
            _, grads, _ = u.jets(pts)
            assert _relative_gap(val, u.values(pts)) <= 1e-13, u.name
            assert _relative_gap(
                slope, np.sum(grads * omega, axis=-1)) <= 1e-10, u.name


@pytest.mark.parametrize("n", [2, 3])
def test_ray_jets_match_pointwise_jets(n):
    rng = np.random.default_rng(3)
    omega = rng.normal(size=(40, n))
    omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
    s = rng.uniform(0.05, 1.2, size=(3, 40))
    for norm in norm_list(n):
        for u in preset_list(norm):
            got = u.ray(omega).jets(s)
            want = u.jets(u.anchor + s[..., None] * omega)
            for a, b in zip(got, want):
                assert a.shape == b.shape, u.name
                assert _relative_gap(a, b) <= 1e-12, (norm, u.name)


def test_jets_solve_the_dual_problem_once_per_point(monkeypatch):
    from wulffsym import anisotropy

    norm = regularized_p_norm(2, 3.0)
    u = perturbed_radial(norm)
    solved = []
    dual_numeric = anisotropy._dual_numeric

    def counted(norm, x):
        solved.append(x.shape[0])
        return dual_numeric(norm, x)

    monkeypatch.setattr(anisotropy, "_dual_numeric", counted)
    pts = np.random.default_rng(4).uniform(-0.8, 0.8, size=(50, 2))
    u.jets(pts)
    assert solved == [50]


def _restricted(u, pts):
    """(u, grad u, hess u) at points (k, n), each on its own ray."""
    d = pts - u.anchor
    s = np.linalg.norm(d, axis=-1)
    return u.ray(d / s[:, None]).jets(s)


@pytest.mark.parametrize("n", [2, 3])
def test_ray_jets_match_finite_differences(n):
    # the production shape: s of shape (L, m) on m shared directions
    rng = np.random.default_rng(5)
    omega = rng.normal(size=(16, n))
    omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
    s = rng.uniform(0.1, 0.9, size=(3, 16))
    h = 1e-5
    for norm in norm_list(n):
        for u in preset_list(norm):
            vals, grads, hesses = u.ray(omega).jets(s)
            assert vals.shape == (3, 16) and grads.shape == (3, 16, n)
            assert hesses.shape == (3, 16, n, n)
            pts = (u.anchor + s[..., None] * omega).reshape(-1, n)
            grads, hesses = grads.reshape(-1, n), hesses.reshape(-1, n, n)
            for axis in range(n):
                e = np.zeros(n)
                e[axis] = h
                vp, gp, _ = _restricted(u, pts + e)
                vm, gm, _ = _restricted(u, pts - e)
                assert np.allclose((vp - vm) / (2 * h), grads[:, axis],
                                   atol=1e-8), (norm, u.name)
                assert np.allclose((gp - gm) / (2 * h), hesses[:, :, axis],
                                   atol=1e-5), (norm, u.name)


def test_jets_build_one_restriction_per_call(monkeypatch):
    built = []
    preset = fields._preset

    def spied(name, min_value, box, ray, *rest):
        def counted(omega):
            built.append((name, omega.shape))
            return ray(omega)

        return preset(name, min_value, box, counted, *rest)

    monkeypatch.setattr(fields, "_preset", spied)
    pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(4, 5, 3))
    for norm in norm_list(3):
        for u in preset_list(norm):
            built.clear()
            u.jets(pts)
            u.values(pts[0])
            u.jet(pts[0, 0])
            assert [shape for name, shape in built if name == u.name] == [
                (20, 3), (5, 3), (1, 3)], u.name


@pytest.mark.parametrize("n", [2, 3])
def test_single_point_is_its_batch_row(n):
    pts = np.random.default_rng(7).uniform(-0.6, 0.6, size=(6, n))
    pts[2] = 0.0    # the anchor
    for norm in norm_list(n):
        for u in preset_list(norm):
            batch = u.jets(pts)
            for i, x in enumerate(pts):
                for got, want in zip(u.jets(x), batch):
                    assert got.shape == want.shape[1:], u.name
                    assert got.tobytes() == want[i].tobytes(), (norm, u.name)
