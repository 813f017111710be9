"""The benchmark workloads: the config each experiment runs and the checks
its written report must pass.

Every check compares a report value with a value from `oracles` or with a
property the method must have, at a tolerance no looser than the one on
the report row it checks: rows carry either an absolute tolerance on a
margin (polya_szego, symmetrize, compare, sobolev, af) or a relative one
in the form |a - b| / (1 + |b|) (identities), and each check uses the
row's form. Mixed-volume rows are strict inclusion inequalities with
tolerance 0; their values are checked at MIXED_RTOL, tighter than the
1e-4 the mixedvol task applies to Wulff-ball values.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

MIXED_RTOL = 1e-5
PROFILE_TOL = 1e-6       # the symmetrize task's node-consistency tolerance
A, B = 2.0, 1.0          # semi-axes of the ellipse workload


class Checks:
    """Collects the failed checks of one report."""

    def __init__(self, report):
        self.report = report
        self.failures = []
        if not report.get("passed"):
            bad = [t for t, d in report["tasks"].items() if not d["passed"]]
            self.failures.append(f"report verdict failed in tasks {bad}")

    def rows(self, task, case):
        return [r for r in self.report["tasks"][task]["rows"]
                if r["case"].startswith(case)]

    def row(self, task, case, k=None, p=None):
        found = [r for r in self.rows(task, case)
                 if r["k"] == k and (p is None or r["p"] == p)]
        if len(found) != 1:
            self.failures.append(
                f"{task}: expected one {case!r} row at k={k} p={p}, "
                f"found {len(found)}")
            return None
        return found[0]

    def close(self, what, got, want, tol, relative=False):
        scale = 1.0 + abs(want) if relative else 1.0
        if not abs(got - want) <= tol * scale:
            self.failures.append(
                f"{what}: {got!r} against {want!r} (tolerance {tol:g}"
                f"{' relative' if relative else ''})")

    def holds(self, what, ok, detail=""):
        if not ok:
            self.failures.append(f"{what} {detail}".strip())

    def margin_nonnegative(self, task, case, k=None, p=None):
        r = self.row(task, case, k, p)
        if r is not None:
            self.holds(f"{task} {case} k={k} p={p}",
                       r["margin"] >= -r["tolerance"],
                       f"margin {r['margin']!r} < -{r['tolerance']!r}")

    def sides(self, task, case, k, p, value, oracle, zero_margin=False):
        """Both sides of a margin row against reference values."""
        r = self.row(task, case, k, p)
        if r is None:
            return
        tol = r["tolerance"]
        label = f"{task} {case} k={k} p={p}"
        if value is not None:
            self.close(f"{label} value", r["value"], value, tol)
        if oracle is not None:
            self.close(f"{label} oracle", r["oracle"], oracle, tol)
        if zero_margin:
            self.close(f"{label} margin", r["margin"], 0.0, tol)
        else:
            self.holds(label, r["margin"] >= -tol,
                       f"margin {r['margin']!r} < -{tol!r}")

    def coarea(self, k, energy):
        r = self.row("identities", "coarea vs direct energy", k)
        if r is not None:
            for side in ("value", "oracle"):
                self.close(f"identities coarea k={k} {side}", r[side],
                           energy, r["tolerance"], relative=True)

    def inclusion(self, k, small, big):
        r = self.row("mixedvol", "inclusion monotonicity", k)
        if r is not None:
            self.holds(f"mixedvol W_{k} monotone", r["value"] < r["oracle"])
            self.close(f"mixedvol W_{k} at t=min/2", r["value"], small,
                       MIXED_RTOL * abs(small))
            self.close(f"mixedvol W_{k} at t=0", r["oracle"], big,
                       MIXED_RTOL * abs(big))


def _profile(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


# ------------------------------------------------------------- ellipse2d

ELLIPSE2D = {
    "norm": {"family": "euclidean", "dim": 2},
    "field": {"preset": "quadratic_ellipsoid", "params": {"axes": [A, B]}},
    "orders": [1, 2],
    "exponents": [1.5, 2.0],
    "grids": {"levels": 200, "rays": 2048, "radial_nodes": 4096,
              "volume_panels": 400},
    "tasks": ["identities", "mixedvol", "af", "symmetrize", "polya_szego",
              "compare", "sobolev"],
    "output": {"formats": ["json", "csv"]},
}


def check_ellipse2d(report, out_dir, ref):
    c = Checks(report)
    half_perimeter = oracles.agm_half_perimeter(A, B)
    for k in (1, 2):
        c.coarea(k, oracles.ellipse_hessian_energy(A, B, k))
    # the mixedvol task samples t = 0 and t = min/2 = -1/4, where the
    # ellipse shrinks by 1/sqrt(2)
    c.inclusion(0, math.pi * A * B / 2.0, math.pi * A * B)
    c.inclusion(1, half_perimeter / math.sqrt(2.0), half_perimeter)
    gaps = c.rows("af", "mean-radius gap")
    c.holds("af rows", len(gaps) == 1, f"found {len(gaps)}")
    for r in gaps:
        c.holds(f"af {r['case']}", r["margin"] >= -r["tolerance"])

    l2 = math.sqrt(oracles.ellipse_lq_power(A, B, 2.0))
    for k in (1, 2):
        r = c.row("symmetrize", "profile node consistency", k)
        if r is not None:
            c.holds(f"symmetrize node consistency k={k}",
                    r["value"] <= r["tolerance"])
        # the row's value is ||u*||_2 and its oracle ||u||_2; order 1
        # symmetrization is equimeasurable, so both are sqrt(pi/6) there
        c.sides("symmetrize", "L2 monotonicity", k, 2.0,
                l2 if k == 1 else None, l2)
        r = c.row("symmetrize", "Linf equality", k)
        if r is not None:
            c.close(f"symmetrize Linf k={k}", r["value"], r["oracle"],
                    r["tolerance"])
            c.close(f"symmetrize Linf k={k} min", r["value"], 0.5,
                    r["tolerance"])
    r, rho = _profile(out_dir / "rho_profile_k1.csv")
    c.close("rho_1 profile", float(np.max(np.abs(
        rho - oracles.ellipse_rho(A, B, r)))), 0.0, PROFILE_TOL)
    for k in (1, 2):
        t, zeta = _profile(out_dir / f"zeta_profile_k{k}.csv")
        c.close(f"zeta_{k - 1} profile", float(np.max(np.abs(
            zeta - oracles.ellipse_zeta(A, B, k - 1, t)))), 0.0, PROFILE_TOL)

    c.sides("polya_szego", "hessian energy drop", 1, None,
            oracles.ellipse_hessian_energy(A, B, 1),
            oracles.disc_symmetrand_energy(A, B, None))
    c.sides("polya_szego", "hessian energy drop", 2, None,
            oracles.ellipse_hessian_energy(A, B, 2), None)
    for p in (1.5, 2.0):
        c.sides("polya_szego", "generalized energy drop", 1, p,
                oracles.ellipse_generalized_energy(A, B, 1, p),
                oracles.disc_symmetrand_energy(A, B, p))
        c.sides("polya_szego", "generalized energy drop", 2, p,
                oracles.ellipse_generalized_energy(A, B, 2, p), None)
    for k in (1, 2):
        c.margin_nonnegative("compare", "radial domination", k)
    # Sobolev at k = 1, p = 1.5: q = 6, the only exponent inside the range
    sob = oracles.sobolev_constant(2, 1, 1.5, math.pi)
    c.sides("sobolev", "embedding slack", 1, 1.5,
            sob * oracles.ellipse_generalized_energy(A, B, 1, 1.5),
            oracles.ellipse_lq_power(A, B, 6.0) ** 0.25)
    return c.failures


# ---------------------------------------------------------------- regp2d

REGP_P, REGP_EPS = 3.0, 1e-2

REGP2D = {
    "norm": {"family": "regularized_p", "dim": 2, "p": REGP_P},
    "field": {"preset": "perturbed_radial"},
    "orders": [1],
    "exponents": [],
    "grids": {"levels": 80, "rays": 256},
    "tasks": ["mixedvol", "polya_szego", "sobolev"],
    "output": {"formats": ["json"]},
}


def reference_regp2d():
    """Areas and anisotropic half-perimeters of {u < 0} and {u < -1/4}.

    Built on the field's value oracle only; the default eps of the norm
    is the one the config leaves implicit.
    """
    from wulffsym.anisotropy import regularized_p_norm
    from wulffsym.fields import build_preset

    u = build_preset("perturbed_radial", regularized_p_norm(2, REGP_P))
    areas, perims = oracles.star_body_measures(
        u.values, [0.0, 0.5 * u.min_value],
        lambda xi: oracles.regularized_p_norm(xi, REGP_P, REGP_EPS),
        rays=1024)
    return {"area": [float(a) for a in areas],
            "half_perimeter": [float(w) for w in perims]}


def check_regp2d(report, out_dir, ref):
    c = Checks(report)
    c.inclusion(0, ref["area"][1], ref["area"][0])
    c.inclusion(1, ref["half_perimeter"][1], ref["half_perimeter"][0])
    c.margin_nonnegative("polya_szego", "hessian energy drop", 1)
    c.margin_nonnegative("sobolev", "embedding slack", 1, 1.0)
    return c.failures


# ---------------------------------------------------------------- ball3d

BALL3D = {
    "norm": {"family": "euclidean", "dim": 3},
    "field": {"preset": "quadratic_ellipsoid"},
    "orders": [1],
    "exponents": [1.5],
    "grids": {"levels": 150, "rays": 96, "volume_panels": 96},
    "tasks": ["identities", "mixedvol", "af", "polya_szego", "sobolev"],
    "output": {"formats": ["json"]},
}


def check_ball3d(report, out_dir, ref):
    c = Checks(report)
    c.coarea(1, oracles.ball_hessian_energy())
    # t = min/2 = -1/4 is the sphere of radius 1/sqrt(2)
    for k in range(3):
        c.inclusion(k, oracles.ball_mixed_volume(2 ** -0.5, k),
                    oracles.ball_mixed_volume(1.0, k))
    gaps = c.rows("af", "mean-radius gap")
    c.holds("af rows", len(gaps) == 3, f"found {len(gaps)}")
    for r in gaps:
        c.close(f"af {r['case']}", r["margin"], 0.0, r["tolerance"])
    # the unit ball is its own symmetrand: both sides are closed forms
    c.sides("polya_szego", "hessian energy drop", 1, None,
            oracles.ball_hessian_energy(), oracles.ball_hessian_energy(),
            zero_margin=True)
    c.sides("polya_szego", "generalized energy drop", 1, 1.5,
            oracles.ball_generalized_energy(1.5),
            oracles.ball_generalized_energy(1.5), zero_margin=True)
    # Sobolev at k = 1, p = 1.5: q = 3
    sob = oracles.sobolev_constant(3, 1, 1.5, oracles.ball_volume())
    c.sides("sobolev", "embedding slack", 1, 1.5,
            sob * oracles.ball_generalized_energy(1.5),
            math.sqrt(oracles.ball_lq_power(3.0)))
    return c.failures


@dataclass(frozen=True)
class Workload:
    config: dict
    check: Callable
    reference: Callable = dict


WORKLOADS = {
    "ellipse2d": Workload(ELLIPSE2D, check_ellipse2d),
    "regp2d": Workload(REGP2D, check_regp2d, reference_regp2d),
    "ball3d": Workload(BALL3D, check_ball3d),
}
