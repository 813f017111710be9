"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import math
import time

import numpy as np

from wulffsym.anisotropy import (
    ellipsoid_norm,
    euclidean_norm,
    regularized_p_norm,
    wulff_volume,
)
from wulffsym.bodies import (
    LevelTable,
    af_margins,
    mixed_volume,
    sample_level_set,
)
from wulffsym.field_ops import (
    curvature_batch,
    generalized_integral,
    hessian_integral,
    hessian_integral_coarea,
    lp_norm,
    newton_curvatures,
)
from wulffsym.fields import perturbed_radial, quadratic_ellipsoid, radial_power
from wulffsym.invariants import (
    newton_transform,
    newton_transform_delta_oracle,
    sk,
    sk_delta_oracle,
)
from wulffsym.radial import MonotoneProfile, radial_sk, solve_radial
from wulffsym.symmetrize import (
    comparison_margin,
    lp_compare,
    ps_margin,
    sobolev_constant,
    sobolev_exponent,
    sobolev_margin,
)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def norms_for(dim):
    mats = {2: np.diag([4.0, 1.0]), 3: np.diag([4.0, 1.0, 2.25])}
    return {
        "euclidean": euclidean_norm(dim),
        "ellipsoid": ellipsoid_norm(mats[dim]),
        "regularized_p": regularized_p_norm(dim, 3.0),
    }


def presets_for(norm):
    dim = norm.dim
    axes = [2.0, 1.0, 1.5][:dim]
    return {
        "ball": quadratic_ellipsoid(dim),
        "ellipsoid": quadratic_ellipsoid(dim, axes=axes),
        "radial2": radial_power(norm, a=2.0),
        "radial3": radial_power(norm, a=3.0),
        "perturbed": perturbed_radial(norm),
    }


# Polya-Szego regression corpus: (label, norm, field, k, radial?, grids)
def ps_corpus():
    e2, m2, p2 = (norms_for(2)[f] for f in
                  ("euclidean", "ellipsoid", "regularized_p"))
    e3, m3 = norms_for(3)["euclidean"], norms_for(3)["ellipsoid"]
    fast3 = {"levels": 150, "rays": 128}
    slow = {}
    return [
        ("disc k=1", e2, quadratic_ellipsoid(2), 1, True, slow),
        ("disc k=2", e2, quadratic_ellipsoid(2), 2, True, slow),
        ("ellipse k=1", e2, quadratic_ellipsoid(2, axes=[2.0, 1.0]), 1,
         False, slow),
        ("ellipse k=2", e2, quadratic_ellipsoid(2, axes=[2.0, 1.0]), 2,
         False, slow),
        ("euclid perturbed k=1", e2, perturbed_radial(e2), 1, False, slow),
        ("aniso wulff k=1", m2, radial_power(m2, a=2.0), 1, True, slow),
        ("aniso wulff k=2", m2, radial_power(m2, a=2.0), 2, True, slow),
        ("aniso cubic k=2", m2, radial_power(m2, a=3.0), 2, True, slow),
        ("aniso perturbed k=2", m2, perturbed_radial(m2), 2, False, slow),
        ("aniso ellipse k=2", m2,
         quadratic_ellipsoid(2, axes=[2.0, 1.0]), 2, False, slow),
        ("regp wulff k=2", p2, radial_power(p2, a=2.0), 2, True, slow),
        ("ball3 k=1", e3, quadratic_ellipsoid(3), 1, True, fast3),
        ("ellipsoid3 k=2", m3, radial_power(m3, a=2.0), 2, True, fast3),
    ]


def test_criterion_01_invariant_kernel():
    rng = np.random.default_rng(12345)
    start = time.monotonic()
    worst_oracle = worst_newton = worst_trace = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        kmax = min(n, 5)
        newtons = {}
        for k in range(0, kmax + 1):
            fast = sk(a, k)
            delta = sk_delta_oracle(a, k)
            worst_oracle = max(worst_oracle,
                               abs(fast - delta) / (1.0 + abs(fast)))
            if k >= 1:
                t = newton_transform(a, k)
                worst_trace = max(worst_trace,
                                  abs(float(np.sum(t * a)) - k * fast))
                newtons[k] = newton_transform_delta_oracle(a, k)
        for k in range(2, kmax + 1):
            res = (newtons[k] - sk(a, k - 1) * np.eye(n)
                   + newtons[k - 1] @ a.T)
            worst_newton = max(worst_newton, float(np.max(np.abs(res))))
    elapsed = time.monotonic() - start
    ok = (worst_oracle <= 1e-12 and worst_newton <= 1e-10
          and worst_trace <= 1e-10 and elapsed < 10.0)
    report(1, ok,
           f"1000 matrices: oracle {worst_oracle:.2e} (tol 1e-12), "
           f"newton {worst_newton:.2e} (tol 1e-10), "
           f"trace {worst_trace:.2e} (tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_02_curvature_formula():
    rng = np.random.default_rng(7)
    worst = 0.0
    combos = 0
    for dim in (2, 3):
        for norm in norms_for(dim).values():
            for u in presets_for(norm).values():
                box = u.bounding_box
                pts = rng.uniform(box[:, 0], box[:, 1], size=(4000, dim))
                vals, grads, hesses = u.jets(pts)
                keep = (vals < -1e-2 * abs(u.min_value)) & (
                    np.linalg.norm(grads, axis=-1) > 1e-4)
                pts = pts[keep][:100]
                _, grads, hesses = u.jets(pts)
                assert pts.shape[0] == 100
                _, primary = curvature_batch(norm, grads, hesses)
                alt = newton_curvatures(norm, grads, hesses)
                for k in range(0, dim):
                    a, b = primary[k], alt[k]
                    worst = max(worst, float(np.max(
                        np.abs(a - b) / (1.0 + np.abs(a)))))
                combos += 1
    ok = worst <= 1e-8 and combos == 30
    report(2, ok, f"two curvature routes on {combos} preset/norm pairs "
                  f"x 100 points: spread {worst:.2e} (tol 1e-8)")


def test_criterion_03_coarea_identity():
    e2 = euclidean_norm(2)
    m2 = ellipsoid_norm(np.diag([4.0, 1.0]))
    p2 = regularized_p_norm(2, 3.0)
    e3 = euclidean_norm(3)
    disc = quadratic_ellipsoid(2)
    cases = [
        ("disc k=1", e2, disc, 1, math.pi / 2.0, {}),
        ("disc k=2", e2, disc, 2, math.pi / 4.0, {}),
        ("ellipse k=1", e2, quadratic_ellipsoid(2, axes=[2.0, 1.0]), 1,
         5.0 * math.pi / 8.0, {}),
        ("perturbed k=1", e2, perturbed_radial(e2), 1, None, {}),
        ("aniso wulff k=2", m2, radial_power(m2, a=2.0), 2, None, {}),
        ("aniso ellipse k=2", m2,
         quadratic_ellipsoid(2, axes=[2.0, 1.0]), 2, None, {}),
        ("regp wulff k=1", p2, radial_power(p2, a=2.0), 1, None, {}),
        ("ball3 k=1", e3, quadratic_ellipsoid(3), 1, None,
         {"levels": 150, "rays": 128}),
    ]
    worst = 0.0
    closed_ok = True
    for label, norm, u, k, closed, grids in cases:
        direct = hessian_integral(norm, u, k)
        coarea = hessian_integral_coarea(
            LevelTable(norm, u, grids.get("levels", 200), grids.get("rays")),
            k)
        spread = abs(direct - coarea) / (1.0 + abs(direct))
        worst = max(worst, spread)
        if closed is not None:
            closed_ok = closed_ok and (
                abs(direct - closed) <= 1e-4 * closed)
    ok = worst <= 1e-3 and closed_ok
    report(3, ok, f"direct vs coarea on {len(cases)} presets: spread "
                  f"{worst:.2e} (tol 1e-3); disc/ellipse closed forms to "
                  f"1e-4: {closed_ok}")


def test_criterion_04_mixed_volumes():
    worst = 0.0
    for dim in (2, 3):
        rays = None if dim == 2 else 128
        for norm in norms_for(dim).values():
            kap = wulff_volume(norm)
            u = radial_power(norm, a=2.0, radius=2.0)
            for r in (0.5, 1.0, 2.0):
                t = min((r * r - 4.0) / 2.0, 0.0)
                sample = sample_level_set(norm, u, t, rays=rays)
                for k in range(dim):
                    got = mixed_volume(sample, k)
                    want = kap * r ** (dim - k)
                    worst = max(worst, abs(got - want) / want)
    e2 = euclidean_norm(2)
    ellipse = quadratic_ellipsoid(2, axes=[2.0, 1.0])
    sample = sample_level_set(e2, ellipse, 0.0)
    w0 = mixed_volume(sample, 0)
    w1 = mixed_volume(sample, 1)
    w0_ok = abs(w0 - 2.0 * math.pi) <= 1e-6 * 2.0 * math.pi
    w1_ok = abs(w1 - 4.84422411) <= 1e-5 * 4.84422411
    ok = worst <= 1e-4 and w0_ok and w1_ok
    report(4, ok,
           f"Wulff-ball mixed volumes (2 dims x 3 norms x 3 radii): "
           f"worst {worst:.2e} (tol 1e-4); ellipse W0 {w0:.8f} (2pi, "
           f"tol 1e-6), W1 {w1:.8f} (4.84422411, tol 1e-5)")


def test_criterion_05_aleksandrov_fenchel():
    worst_overall = np.inf
    worst_wulff = 0.0
    for dim in (2, 3):
        rays = None if dim == 2 else 128
        for norm in norms_for(dim).values():
            for name, u in presets_for(norm).items():
                levels = np.linspace(u.min_value * 0.85, 0.0, 6)
                for t in levels:
                    sample = sample_level_set(norm, u, float(t), rays=rays)
                    margins = af_margins(sample)
                    worst_overall = min(worst_overall, float(np.min(margins)))
                    if name == "radial2" or name == "radial3":
                        worst_wulff = max(worst_wulff,
                                          float(np.max(np.abs(margins))))
    ok = worst_overall >= -1e-6 and worst_wulff <= 1e-6
    report(5, ok,
           f"AF margins over the corpus: min {worst_overall:.2e} "
           f"(>= -1e-6); Wulff-ball |margin| max {worst_wulff:.2e} "
           f"(<= 1e-6)")


def test_criterion_06_polya_szego():
    e2 = euclidean_norm(2)
    ellipse = quadratic_ellipsoid(2, axes=[2.0, 1.0])
    res = ps_margin(LevelTable(e2, ellipse), 1,
                    hessian_integral(e2, ellipse, 1))
    head_ok = (abs(res.lhs - 5 * math.pi / 8) <= 0.01 * 5 * math.pi / 8
               and abs(res.rhs - math.pi / 2) <= 0.01 * math.pi / 2
               and abs(res.margin - math.pi / 8) <= 0.01 * math.pi / 8)
    start = time.monotonic()
    worst_margin = np.inf
    worst_radial = 0.0
    for label, norm, u, k, is_radial, grids in ps_corpus():
        r = ps_margin(LevelTable(norm, u, **grids), k,
                      hessian_integral(norm, u, k))
        worst_margin = min(worst_margin, r.margin / (1.0 + abs(r.lhs)))
        if is_radial:
            worst_radial = max(worst_radial, abs(r.margin) / abs(r.lhs))
    elapsed = time.monotonic() - start
    ok = (head_ok and worst_margin >= -1e-4 and worst_radial <= 1e-4
          and elapsed < 60.0)
    report(6, ok,
           f"ellipse (lhs, rhs, margin) = ({res.lhs:.6f}, {res.rhs:.6f}, "
           f"{res.margin:.6f}) vs (5pi/8, pi/2, pi/8) at 1%; corpus min "
           f"margin {worst_margin:.2e} (>= -1e-4), radial equality "
           f"{worst_radial:.2e} (<= 1e-4), corpus {elapsed:.1f}s (< 60s)")


def test_criterion_07_comparison_principle():
    e2 = euclidean_norm(2)
    ellipse = quadratic_ellipsoid(2, axes=[2.0, 1.0])
    res = comparison_margin(LevelTable(e2, ellipse), 1.25, 1)
    want = (2.0 - res.radii ** 2) / 16.0
    pointwise = float(np.max(np.abs(res.margins - want)))
    m2 = ellipsoid_norm(np.diag([4.0, 1.0]))
    worst_min = res.min_margin
    worst_radial = 0.0
    for norm, u, k, c, radial in [
            (m2, radial_power(m2, a=2.0), 1, 2.0, True),
            (m2, radial_power(m2, a=2.0), 2, 1.0, True),
            (e2, perturbed_radial(e2), 1, None, False),
            (m2, perturbed_radial(m2), 2, None, False)]:
        if c is None:
            from wulffsym.field_ops import sk_field_batch, polar_grid
            pts, _ = polar_grid(u)
            c = float(np.max(sk_field_batch(norm, u, pts, k))) * 1.02
        r = comparison_margin(LevelTable(norm, u), c, k)
        worst_min = min(worst_min, r.min_margin)
        if radial:
            worst_radial = max(worst_radial, float(np.max(np.abs(r.margins))))
    ok = (pointwise <= 1e-3 and worst_min >= -1e-4
          and worst_radial <= 1e-4)
    report(7, ok,
           f"ellipse gap profile vs (2-r^2)/16: {pointwise:.2e} "
           f"(tol 1e-3 abs); corpus min margin {worst_min:.2e} "
           f"(>= -1e-4); exact radial |margin| {worst_radial:.2e} "
           f"(<= 1e-4)")


def test_criterion_08_radial_solver():
    worst_closed = 0.0
    for n, k, c, radius in ((2, 1, 1.25, math.sqrt(2.0)), (2, 2, 1.0, 1.0),
                            (3, 2, 0.7, 0.9), (3, 3, 1.5, 1.1)):
        grid = np.linspace(0.0, radius, 64)
        f = MonotoneProfile(grid, np.full_like(grid, c), "decreasing")
        v = solve_radial(f, radius, n, k)
        want = -((c / math.comb(n, k)) ** (1.0 / k)
                 * (radius ** 2 - v.r ** 2) / 2.0)
        worst_closed = max(worst_closed, float(np.max(np.abs(v.values
                                                             - want))))
    worst_back = 0.0
    grid = np.linspace(0.0, 1.0, 64)
    f = MonotoneProfile(grid, 2.0 - grid ** 2, "decreasing")
    for n, k in ((2, 1), (2, 2), (3, 2), (3, 3)):
        v = solve_radial(f, 1.0, n, k)
        sel = slice(40, -40)
        got = np.array([radial_sk(a, b, r, n, k) for a, b, r in
                        zip(v.derivative[sel], v.meta["vpp"][sel],
                            v.r[sel])])
        want = f(v.r[sel])
        worst_back = max(worst_back, float(np.max(
            np.abs(got - want) / (1.0 + np.abs(want)))))
    ok = worst_closed <= 1e-8 and worst_back <= 1e-4
    report(8, ok,
           f"constant-source closed form {worst_closed:.2e} (tol 1e-8); "
           f"back-substitution {worst_back:.2e} (tol 1e-4)")


def test_criterion_09_sobolev_constants():
    e2, e3 = euclidean_norm(2), euclidean_norm(3)
    c_iso = sobolev_constant(e2, 1, 1.0)
    iso_ok = abs(c_iso - 1.0 / (2.0 * math.sqrt(math.pi))) <= 1e-10
    n, p = 3, 2.0
    talenti = (math.pi ** -0.5 * n ** (-1.0 / p)
               * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
               * (math.gamma(1.0 + n / 2.0) * math.gamma(float(n))
                  / (math.gamma(n / p)
                     * math.gamma(1.0 + n - n / p))) ** (1.0 / n))
    c_tal = sobolev_constant(e3, 1, 2.0)
    tal_ok = abs(c_tal - talenti ** 2) <= 1e-4 * talenti ** 2
    worst = np.inf
    count = 0
    for label, norm, u, k, _, grids in ps_corpus():
        nn = u.dim
        for p_try in (1.0, 1.5, 2.0):
            if p_try >= nn - k + 1:
                continue
            r = sobolev_margin(
                norm, k, p_try, generalized_integral(norm, u, k, p_try),
                lp_norm(u, sobolev_exponent(nn, k, p_try)))
            worst = min(worst, r.margin
                        / (1.0 + r.constant * r.energy))
            count += 1
    ok = iso_ok and tal_ok and worst >= -1e-4
    report(9, ok,
           f"C(2,1,1) = {c_iso:.10f} vs 1/(2 sqrt(pi)) (tol 1e-10); "
           f"C(3,1,2) = {c_tal:.6f} vs Talenti^2 (tol 1e-4); {count} "
           f"embedding margins, min {worst:.2e} (>= -1e-4)")


def test_criterion_10_lp_monotonicity():
    e2 = euclidean_norm(2)
    ellipse = quadratic_ellipsoid(2, axes=[2.0, 1.0])
    table = LevelTable(e2, ellipse)
    l2 = lp_norm(ellipse, 2.0)
    lhs1, rhs1 = lp_compare(table, 1, 2.0, l2)
    eq_ok = (abs(lhs1 ** 2 - math.pi / 6.0) <= 1e-4
             and abs(rhs1 ** 2 - math.pi / 6.0) <= 1e-4)
    lhs2, rhs2 = lp_compare(table, 2, 2.0, l2)
    strict_ok = lhs2 < rhs2 - 1e-3
    linf = lp_compare(table, 2, math.inf, abs(ellipse.min_value))
    inf_ok = linf[0] == linf[1]
    ok = eq_ok and strict_ok and inf_ok
    report(10, ok,
           f"k=1 L2 integrals ({lhs1 ** 2:.6f}, {rhs1 ** 2:.6f}) both "
           f"pi/6 to 1e-4; k=2 strict ({lhs2:.6f} < {rhs2:.6f}); "
           f"Linf equality exact: {inf_ok}")
