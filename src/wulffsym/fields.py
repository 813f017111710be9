"""Quasi-convex scalar fields with analytic jets on bounded convex domains.

A ``Field`` describes u on the domain {u < 0}, vanishing on the boundary,
through a vectorized oracle returning (u, grad u, hess u) at arbitrary
points. Three preset families cover the built-in corpus:

* ``quadratic_ellipsoid``  u = (x^T Q x - 1) / 2 on an ellipsoid, Q SPD
* ``radial_power``         u = (F*(x)^a - R^a) / a on a Wulff ball of
                           radius R, a >= 2, F* the dual norm
* ``perturbed_radial``     radial_power plus a convex quadratic, breaking
                           the radial symmetry while keeping all level
                           sets convex

Every preset is star-shaped about its anchor. F* is 1-homogeneous, grad F*
0-homogeneous and hess F* (-1)-homogeneous, so along a ray
x = anchor + s w the field and its derivatives are functions of s whose
constants depend on the direction w alone. A preset is therefore written
once, as its ray restriction ``ray``: given directions w of shape (m, n)
it computes those constants once (one dual solve per direction for the
radial families: F*(w), grad F*(w) and hess F*(w)) and returns a
``RayRestriction`` whose ``along(s)`` gives (u, du/ds) and whose
``jets(s)`` gives (u, grad u, hess u) at anchor + s w, s of shape
(..., m) broadcast against the m directions. The ray roots, the level-set
samples and the polar quadrature evaluate the field through it alone,
on the rays.RayFan of their direction count, which ``Field.fan`` builds
once per count and keeps as long as the field lives.
The pointwise oracle ``jets`` (and ``values``, its first output) for
points off a grid is derived from it: x = anchor + s w with
s = |x - anchor|, one restriction per call over the points' directions.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .anisotropy import Norm, dual_jets, eval_grad
from .errors import DomainError, InputError
from .quad import colwise, rowsum
from .rays import RayFan, default_rays


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
    # the first output of jets_fn, kept apart so a wrapper can replace it
    values_fn: Callable = dc_field(repr=False)
    # directions (m, n) -> RayRestriction; see the module docstring
    ray: Callable = dc_field(repr=False)
    # (v, v', outer_radius) for u = v(F*(x)) centered at the origin; the
    # mixedvol task reads the Wulff-ball radii of its levels from it
    radial_profile: tuple | None = dc_field(repr=False, default=None)
    _fans: dict = dc_field(repr=False, init=False, default_factory=dict)

    def fan(self, rays: int | None = None) -> RayFan:
        """The fan on ``rays`` directions (None means default_rays), built
        on first read; a dataclasses.replace copy has fans of its own."""
        rays = default_rays(self.dim) if rays is None else rays
        if rays not in self._fans:
            self._fans[rays] = RayFan(self, rays)
        return self._fans[rays]

    def jets(self, pts):
        """(u, grad u, hess u) at points of shape (..., dim)."""
        return self.jets_fn(np.asarray(pts, dtype=float))

    def values(self, pts):
        return self.values_fn(np.asarray(pts, dtype=float))

    def jet(self, x) -> FieldJet:
        v, g, h = self.jets(np.asarray(x, dtype=float))
        return FieldJet(float(v), g, h)


def _preset(name, min_value, box, ray, radial_profile=None) -> Field:
    """A Field anchored at the origin whose pointwise oracle is its ray
    restriction: each point x is anchor + s w with s = |x - anchor|, and
    w = e_1 at the anchor itself, where the restriction takes its s = 0
    limit. Points of shape (..., n), a single (n,) vector included."""
    dim = box.shape[0]
    anchor = np.zeros(dim)

    def jets(pts):
        d = pts.reshape(-1, dim) - anchor
        s = np.sqrt(rowsum(d * d))
        lengths = s
        if not np.all(s):
            d[s == 0.0, 0] = 1.0
            lengths = np.sqrt(rowsum(d * d))
        out = ray(d / lengths[:, None]).jets(s)
        return tuple(np.reshape(a, pts.shape[:-1] + a.shape[1:])
                     for a in out)

    return Field(dim, name, anchor, min_value, box, jets,
                 lambda pts: jets(pts)[0], ray, radial_profile)


def quadratic_ellipsoid(dim: int, axes=None, matrix=None,
                        name: str = "quadratic_ellipsoid") -> Field:
    """u = (x^T Q x - 1)/2; with semi-axes a_i the matrix is diag(1/a_i^2).

    The ray restriction's Hessian is a read-only broadcast of Q: its
    consumers (curvature_batch, _aniso_matrix, sk_stack) only read it.
    """
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

    def ray(omega):
        qo = omega @ q
        qw = rowsum(qo * omega)

        def along(s):
            return 0.5 * (s * s * qw - 1.0), s * qw

        def jets(s):
            s = np.asarray(s, dtype=float)
            return (0.5 * (s * s * qw - 1.0), colwise(np.multiply, qo, s),
                    np.broadcast_to(q, s.shape + (dim, dim)))

        return RayRestriction(along, jets)

    return _preset(name, -0.5, box, ray)


def radial_field(norm: Norm, v_fn, vp_fn, vpp_fn, radius: float,
                 name: str = "radial") -> Field:
    """u(x) = v(F*(x)) from scalar profile callables v, v', v''.

    v must be increasing with v(radius) = 0 and v'(0) = 0 so that u lies in
    the admissible class on the Wulff ball of the given radius. On the
    anchor (s = 0) the ray restriction's Hessian is its limit along the
    ray w, v''(0) (grad F* grad F*^T + F* hess F*)(w): v''(0) times the
    Hessian of F*^2/2 at w, which for the euclidean and ellipsoid norms
    is the same for every w (I and the inverse norm matrix). For other
    norms and v''(0) != 0 (regularized_p with a = 2) the Hessian has no
    limit at the anchor, and the pointwise oracle gives the limit along
    the anchor's ray e_1.
    """
    dim = norm.dim
    fe = eval_grad(norm, np.eye(dim))[0]  # support function values F(e_i)
    box = np.stack([-radius * fe, radius * fe], axis=-1)
    origin_vpp = float(vpp_fn(np.zeros(1))[0])

    def ray(omega):
        fo, xi, hd = dual_jets(norm, omega)
        # the n x n Hessian entries as one axis of columns, for colwise
        xx = (xi[:, :, None] * xi[:, None, :]).reshape(-1, dim * dim)
        hd = hd.reshape(xx.shape)

        def along(s):
            return v_fn(s * fo), vp_fn(s * fo) * fo

        def jets(s):
            # grad F* is 0-homogeneous and hess F* (-1)-homogeneous
            s = np.asarray(s, dtype=float)
            r = s * fo
            vp = np.asarray(vp_fn(r))
            live = s > 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                hess = (colwise(np.multiply, xx, np.asarray(vpp_fn(r)))
                        + colwise(np.multiply, hd, vp / s))
            if not np.all(live):
                # on the anchor itself (s = 0), the limit along the ray
                hess = np.where(live[..., None], hess,
                                origin_vpp * (xx + fo[:, None] * hd))
            return (np.asarray(v_fn(r)), colwise(np.multiply, xi, vp),
                    hess.reshape(s.shape + (dim, dim)))

        return RayRestriction(along, jets)

    return _preset(name, float(v_fn(np.zeros(1))[0]), box, ray,
                   (v_fn, vp_fn, radius))


def radial_power(norm: Norm, a: float = 2.0, radius: float = 1.0,
                 name: str = "radial_power") -> Field:
    """u = (F*(x)^a - R^a)/a on the Wulff ball of radius R."""
    if not 2.0 <= a < np.inf:
        raise InputError("radial power exponent must be finite and >= 2")
    if not 0.0 < radius < np.inf:
        raise InputError("radius must be positive and finite")
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

    P is diagonal with the given nonnegative weights (default an
    asymmetric spread), so the minimum stays at the anchor and u stays
    convex: F*^a is convex for a norm F* and a >= 2, and P is positive
    semidefinite.
    """
    dim = norm.dim
    if weights is None:
        weights = np.linspace(0.4, 1.6, dim)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dim,) or not np.all(
            (weights >= 0.0) & (weights < np.inf)):
        raise InputError("perturbation weights must be finite and "
                         "nonnegative")
    if not 0.0 <= strength < np.inf:
        raise InputError("perturbation strength must be finite and "
                         "nonnegative")
    base = radial_power(norm, a=a, radius=radius)
    p = np.diag(weights)

    def ray(omega):
        radial = base.ray(omega)
        op = omega @ p
        pw = strength * rowsum(op * omega)

        def along(s):
            v, dv = radial.along(s)
            return v + 0.5 * pw * s * s, dv + pw * s

        def jets(s):
            s = np.asarray(s, dtype=float)
            v, g, h = radial.jets(s)
            return (v + 0.5 * pw * s * s,
                    g + colwise(np.multiply, op, strength * s),
                    h + strength * p)

        return RayRestriction(along, jets)

    return _preset(name, base.min_value, base.bounding_box, ray)


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
