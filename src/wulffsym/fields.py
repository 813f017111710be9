"""Quasi-convex scalar fields with analytic jets on bounded convex domains.

A ``Field`` describes u on the domain {u < 0}, vanishing on the boundary,
through a vectorized oracle returning (u, grad u, hess u) at arbitrary
points. Three preset families cover the built-in corpus:

* ``quadratic_ellipsoid``  u = (x^T Q x - 1) / 2 on an ellipsoid, Q SPD
* ``radial_power``         u = (F*(x)^a - R^a) / a on a Wulff ball of
                           radius R, a >= 2, F* the dual norm
* ``perturbed_radial``     radial_power plus a small convex quadratic,
                           breaking the radial symmetry while keeping all
                           level sets convex (validated at build time)

Every preset is star-shaped about its anchor. F* is 1-homogeneous, grad F*
0-homogeneous and hess F* (-1)-homogeneous, so along a ray
x = anchor + s w the field and its derivatives are functions of s whose
constants depend on the direction w alone. A preset therefore carries a
ray restriction ``ray``: given directions w of shape (m, n) it computes
those constants once (one dual solve per direction for the radial
families: F*(w), grad F*(w) and hess F*(w)) and returns a
``RayRestriction`` whose ``along(s)`` gives (u, du/ds) and whose
``jets(s)`` gives (u, grad u, hess u) at anchor + s w, s of shape
(..., m) broadcast against the m directions. The ray roots, the level-set
samples and the polar quadrature evaluate the field through it alone;
``jets`` and ``values`` serve points off a direction grid.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .anisotropy import Norm, _dual_hessian, dual_jet, eval_jet
from .errors import DomainError, InputError


class FieldJet(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


class RayRestriction(NamedTuple):
    """A field on the rays anchor + s w of m fixed directions w.

    ``along(s)`` -> (u, du/ds) and ``jets(s)`` -> (u, grad u, hess u),
    with s of shape (..., m) and the outputs of shape (..., m),
    (..., m, n) and (..., m, n, n).
    """

    along: Callable
    jets: Callable


@dataclass(frozen=True, eq=False)
class Field:
    dim: int
    name: str
    anchor: np.ndarray
    min_value: float
    bounding_box: np.ndarray
    jets_fn: Callable = dc_field(repr=False)
    values_fn: Callable = dc_field(repr=False)
    # directions (m, n) -> RayRestriction; see the module docstring
    ray: Callable = dc_field(repr=False)
    # (v, v', outer_radius) for u = v(F*(x)) centered at the origin; the
    # mixedvol task reads the Wulff-ball radii of its levels from it
    radial_profile: tuple | None = dc_field(repr=False, default=None)

    def jets(self, pts):
        """(u, grad u, hess u) at points of shape (..., dim)."""
        return self.jets_fn(np.asarray(pts, dtype=float))

    def values(self, pts):
        return self.values_fn(np.asarray(pts, dtype=float))

    def jet(self, x) -> FieldJet:
        v, g, h = self.jets(np.asarray(x, dtype=float))
        return FieldJet(float(v), g, h)


def quadratic_ellipsoid(dim: int, axes=None, matrix=None,
                        name: str = "quadratic_ellipsoid") -> Field:
    """u = (x^T Q x - 1)/2; with semi-axes a_i the matrix is diag(1/a_i^2)."""
    if matrix is not None:
        q = np.asarray(matrix, dtype=float)
    else:
        if axes is None:
            axes = [1.0] * dim
        axes = np.asarray(axes, dtype=float)
        if axes.shape != (dim,) or np.any(axes <= 0.0):
            raise InputError("axes must be positive and match the dimension")
        q = np.diag(1.0 / axes**2)
    q = 0.5 * (q + q.T)
    if np.min(np.linalg.eigvalsh(q)) <= 0.0:
        raise InputError("quadratic preset needs a positive definite matrix")
    qinv = np.linalg.inv(q)
    box = np.stack([-np.sqrt(np.diag(qinv)), np.sqrt(np.diag(qinv))], axis=-1)

    def jets(pts):
        qx = pts @ q
        v = 0.5 * (np.sum(pts * qx, axis=-1) - 1.0)
        h = np.broadcast_to(q, pts.shape + (dim,)).copy()
        return v, qx, h

    def values(pts):
        return 0.5 * (np.sum((pts @ q) * pts, axis=-1) - 1.0)

    def ray(omega):
        qo = omega @ q
        qw = np.sum(qo * omega, axis=-1)

        def along(s):
            return 0.5 * (s * s * qw - 1.0), s * qw

        def jets(s):
            s = np.asarray(s, dtype=float)
            return (0.5 * (s * s * qw - 1.0), s[..., None] * qo,
                    np.broadcast_to(q, s.shape + (dim, dim)).copy())

        return RayRestriction(along, jets)

    return Field(dim, name, np.zeros(dim), -0.5, box, jets, values, ray)


def radial_field(norm: Norm, v_fn, vp_fn, vpp_fn, radius: float,
                 name: str = "radial") -> Field:
    """u(x) = v(F*(x)) from scalar profile callables v, v', v''.

    v must be increasing with v(radius) = 0 and v'(0) = 0 so that u lies in
    the admissible class on the Wulff ball of the given radius.
    """
    dim = norm.dim
    fe = np.stack([eval_jet(norm, e)[0]
                   for e in np.eye(dim)])  # support function values F(e_i)
    box = np.stack([-radius * fe, radius * fe], axis=-1)
    origin_vpp = float(vpp_fn(np.zeros(1))[0])

    def split(pts):
        flat = pts.reshape(-1, dim)
        r2 = np.sum(flat * flat, axis=-1)
        live = r2 > 1e-28
        return flat, live

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        flat, live = split(pts)
        r = np.zeros(flat.shape[0])
        if np.any(live):
            r[live] = dual_jet(norm, flat[live])[0]
        return np.asarray(v_fn(r)).reshape(pts.shape[:-1])

    def jets(pts):
        pts = np.asarray(pts, dtype=float)
        flat, live = split(pts)
        m = flat.shape[0]
        r = np.zeros(m)
        grad = np.zeros((m, dim))
        hess = np.broadcast_to(origin_vpp * np.eye(dim), (m, dim, dim)).copy()
        if np.any(live):
            rl, xi = dual_jet(norm, flat[live])
            hd = _dual_hessian(norm, flat[live], (rl, xi))
            vp = np.asarray(vp_fn(rl))
            vpp = np.asarray(vpp_fn(rl))
            r[live] = rl
            grad[live] = vp[:, None] * xi
            hess[live] = (vpp[:, None, None] * xi[:, :, None] * xi[:, None, :]
                          + vp[:, None, None] * hd)
        v = np.asarray(v_fn(r))
        lead = pts.shape[:-1]
        return (v.reshape(lead), grad.reshape(lead + (dim,)),
                hess.reshape(lead + (dim, dim)))

    def ray(omega):
        fo, xi = dual_jet(norm, omega)
        hd = _dual_hessian(norm, omega, (fo, xi))
        xx = xi[:, :, None] * xi[:, None, :]

        def along(s):
            return v_fn(s * fo), vp_fn(s * fo) * fo

        def jets(s):
            # grad F* is 0-homogeneous and hess F* (-1)-homogeneous; on the
            # anchor itself (s = 0) the Hessian is its limit v''(0) I
            s = np.asarray(s, dtype=float)
            r = s * fo
            vp = np.asarray(vp_fn(r))
            live = s > 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                hess = (np.asarray(vpp_fn(r))[..., None, None] * xx
                        + (vp / s)[..., None, None] * hd)
            hess = np.where(live[..., None, None], hess,
                            origin_vpp * np.eye(dim))
            return np.asarray(v_fn(r)), vp[..., None] * xi, hess

        return RayRestriction(along, jets)

    return Field(dim, name, np.zeros(dim), float(v_fn(np.zeros(1))[0]),
                 box, jets, values, ray, radial_profile=(v_fn, vp_fn, radius))


def radial_power(norm: Norm, a: float = 2.0, radius: float = 1.0,
                 name: str = "radial_power") -> Field:
    """u = (F*(x)^a - R^a)/a on the Wulff ball of radius R."""
    if a < 2.0:
        raise InputError("radial power exponent must be >= 2")
    if radius <= 0.0:
        raise InputError("radius must be positive")
    ra = radius**a
    return radial_field(
        norm,
        lambda r: (np.asarray(r)**a - ra) / a,
        lambda r: np.asarray(r)**(a - 1.0),
        lambda r: (a - 1.0) * np.asarray(r)**(a - 2.0) if a != 2.0
        else np.ones_like(np.asarray(r, dtype=float)),
        radius,
        name=name,
    )


def perturbed_radial(norm: Norm, a: float = 2.0, radius: float = 1.0,
                     strength: float = 0.25, weights=None,
                     name: str = "perturbed_radial") -> Field:
    """Radial power plus the convex quadratic (strength/2) x^T P x.

    P is diagonal with the given positive weights (default an asymmetric
    spread), so the minimum stays at the anchor and every sublevel set
    stays convex; convexity is still validated on sampled level sets.
    """
    dim = norm.dim
    if weights is None:
        weights = np.linspace(0.4, 1.6, dim)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dim,) or np.any(weights < 0.0):
        raise InputError("perturbation weights must be nonnegative")
    if strength < 0.0:
        raise InputError("perturbation strength must be nonnegative")
    base = radial_power(norm, a=a, radius=radius)
    p = np.diag(weights)

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        return base.values_fn(pts) + 0.5 * strength * np.sum(
            (pts @ p) * pts, axis=-1)

    def jets(pts):
        pts = np.asarray(pts, dtype=float)
        v, g, h = base.jets_fn(pts)
        v = v + 0.5 * strength * np.sum((pts @ p) * pts, axis=-1)
        g = g + strength * (pts @ p)
        h = h + strength * p
        return v, g, h

    def ray(omega):
        radial = base.ray(omega)
        op = omega @ p
        pw = strength * np.sum(op * omega, axis=-1)

        def along(s):
            v, dv = radial.along(s)
            return v + 0.5 * pw * s * s, dv + pw * s

        def jets(s):
            s = np.asarray(s, dtype=float)
            v, g, h = radial.jets(s)
            return (v + 0.5 * pw * s * s, g + strength * s[..., None] * op,
                    h + strength * p)

        return RayRestriction(along, jets)

    out = Field(dim, name, np.zeros(dim), base.min_value,
                base.bounding_box, jets, values, ray)
    defect = quasiconvexity_defect(out)
    if defect < -1e-8:
        raise InputError(
            f"perturbation destroys quasi-convexity (defect {defect:.3e})")
    return out


def quasiconvexity_defect(u: Field, samples: int = 512, seed: int = 0) -> float:
    """Smallest tangential-Hessian eigenvalue over sampled interior points.

    Nonnegative values certify convex level sets at the samples; negative
    values witness a quasi-convexity violation.
    """
    rng = np.random.default_rng(seed)
    box = u.bounding_box
    pts = rng.uniform(box[:, 0], box[:, 1], size=(4 * samples, u.dim))
    vals, grads, hesses = u.jets(pts)
    gn = np.linalg.norm(grads, axis=-1)
    keep = (vals < -1e-6) & (gn > 1e-8)
    grads, hesses = grads[keep][:samples], hesses[keep][:samples]
    if grads.shape[0] == 0:
        raise DomainError("no interior samples found for convexity check")
    nu = grads / np.linalg.norm(grads, axis=-1, keepdims=True)
    # tangent bases: the last n-1 columns of Q in QR of [nu | I]
    full = np.concatenate([nu[:, :, None], np.broadcast_to(
        np.eye(u.dim), (nu.shape[0], u.dim, u.dim))], axis=-1)
    basis = np.linalg.qr(full)[0][:, :, 1:]
    tang = np.swapaxes(basis, 1, 2) @ hesses @ basis
    return float(np.min(np.linalg.eigvalsh(
        0.5 * (tang + np.swapaxes(tang, 1, 2)))))


_PRESET_BUILDERS = {
    "quadratic_ellipsoid": lambda norm, params: quadratic_ellipsoid(
        norm.dim, **params),
    "radial_power": lambda norm, params: radial_power(norm, **params),
    "perturbed_radial": lambda norm, params: perturbed_radial(norm, **params),
}

_PRESET_PARAMS = {
    "quadratic_ellipsoid": {"axes": "semi-axis lengths (default all 1)",
                            "matrix": "full SPD matrix (overrides axes)"},
    "radial_power": {"a": "power exponent >= 2 (default 2)",
                     "radius": "outer Wulff radius (default 1)"},
    "perturbed_radial": {"a": "power exponent >= 2 (default 2)",
                         "radius": "outer Wulff radius (default 1)",
                         "strength": "perturbation magnitude (default 0.25)",
                         "weights": "diagonal of the perturbation matrix"},
}


def build_preset(preset: str, norm: Norm, params: dict | None = None) -> Field:
    """Instantiate a named field preset for the given norm."""
    if preset not in _PRESET_BUILDERS:
        raise InputError(
            f"unknown preset {preset!r}; known: {sorted(_PRESET_BUILDERS)}")
    params = dict(params or {})
    return _PRESET_BUILDERS[preset](norm, params)


def preset_catalog() -> dict:
    """Preset names mapped to their parameter descriptions."""
    return {k: dict(v) for k, v in _PRESET_PARAMS.items()}
