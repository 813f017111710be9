"""Config-driven experiment runner with machine-readable reports.

Usage:
    wulffsym run --config cfg.json [--out DIR] [--format csv,json] [--seed N]
    wulffsym presets
    wulffsym check [--fast]

A config is a single JSON document (unknown keys are rejected):

    {
      "norm":   {"family": "ellipsoid", "dim": 2, "matrix": [[4,0],[0,1]]},
      "field":  {"preset": "quadratic_ellipsoid", "params": {"axes": [2,1]}},
      "orders": [1, 2],
      "exponents": [2.0],
      "grids":  {"levels": 200, "rays": 2048, "radial_nodes": 4096,
                 "volume_panels": 400},
      "tasks":  ["identities", "mixedvol", "af", "symmetrize",
                 "polya_szego", "compare", "sobolev", "invariants"],
      "output": {"directory": "out", "formats": ["json", "csv"]},
      "seed":   42
    }

``grids.volume_panels`` is the direction count (longitudes in 3D) of the
polar rule behind the volume integrals: the direct Hessian energies and
the L^p norms; ``grids.rays`` that of the generalized energies and the
comparison check. Unset, each is 2048 in 2D and 256 in 3D. Each polar
rule is built once per experiment, and one pass over its nodes gives
every value identities, symmetrize, polya_szego, compare and sobolev
read from it (field_ops.PolarTable).

Exit status: 0 when every verdict passes, 1 when any check fails or a
task raises a wulffsym error (recorded as a "task error (<class>)" row),
2 on config errors; any other exception propagates. The environment variable
WULFFSYM_THREADS caps worker threads (default: all cores).
"""

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .anisotropy import (
    Norm,
    ellipsoid_norm,
    euclidean_norm,
    eval_jet,
    regularized_p_norm,
    wulff_volume,
)
from .bodies import LevelTable, af_pairs, mixed_volume, sample_level_set
from .errors import (
    CapabilityError,
    CostGuardError,
    DomainError,
    InputError,
    ModelError,
    NumericError,
)
from .field_ops import (
    PolarTable,
    aniso_hessian_batch,
    curvature_batch,
    default_rays,
    hessian_integral_coarea,
    newton_curvatures,
    sk_field_batch,
)
from .fields import build_preset, preset_catalog
from .invariants import (
    mixed_discriminant,
    newton_stack,
    newton_transform,
    newton_transform_delta_oracle,
    sk,
    sk_delta_oracle,
    sk_stack,
)
from .parallel import ENV_VAR, thread_count
from .radial import rearrangement_grid
from .symmetrize import (
    comparison_margin,
    lp_compare,
    ps_margin,
    ps_margin_p,
    sobolev_constant,
    sobolev_exponent,
    sobolev_margin,
    symmetrand,
)

TASKS = ("invariants", "identities", "mixedvol", "af", "symmetrize",
         "polya_szego", "compare", "sobolev")

# a task that raises one of these records an error row; any other
# exception is a bug and propagates
_TASK_ERRORS = (DomainError, InputError, CostGuardError, CapabilityError,
                NumericError, ModelError, np.linalg.LinAlgError,
                FloatingPointError)

_CSV_COLUMNS = ("task", "case", "k", "p", "value", "oracle", "margin",
                "tolerance", "passed")


@dataclass
class ExperimentConfig:
    norm: dict
    field: dict
    orders: list
    exponents: list
    grids: dict
    tasks: list
    output: dict
    seed: int = 0

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        known = {"norm", "field", "orders", "exponents", "grids", "tasks",
                 "output", "seed"}
        _reject_unknown(raw, known, "config")
        norm = dict(raw.get("norm") or {"family": "euclidean", "dim": 2})
        _reject_unknown(norm, {"family", "dim", "matrix", "p", "eps"},
                        "norm")
        fld = dict(raw.get("field") or {"preset": "quadratic_ellipsoid"})
        _reject_unknown(fld, {"preset", "params", "source_constant"},
                        "field")
        grids = dict(raw.get("grids") or {})
        _reject_unknown(grids, {"levels", "rays", "radial_nodes",
                                "volume_panels"}, "grids")
        for key, val in grids.items():
            if int(val) <= 0:
                raise InputError(f"grid entry {key} must be positive")
        output = dict(raw.get("output") or {})
        _reject_unknown(output, {"directory", "formats"}, "output")
        formats = output.get("formats", ["json"])
        bad = set(formats) - {"json", "csv"}
        if bad:
            raise InputError(f"unknown output formats: {sorted(bad)}")
        tasks = list(raw.get("tasks") or [])
        if not tasks:
            raise InputError("tasks must be a nonempty list")
        unknown = set(tasks) - set(TASKS)
        if unknown:
            raise InputError(f"unknown tasks: {sorted(unknown)}")
        orders = [int(k) for k in raw.get("orders", [1])]
        exponents = [float(p) for p in raw.get("exponents", [])]
        cfg = ExperimentConfig(norm, fld, orders, exponents, grids, tasks,
                               output, int(raw.get("seed", 0)))
        cfg.built  # validate the norm/field specs
        return cfg

    @functools.cached_property
    def built(self) -> tuple:
        """(norm, field), built once by from_dict and reused by run."""
        norm = self.build_norm()
        return norm, self.build_field(norm)

    def build_norm(self) -> Norm:
        family = self.norm.get("family", "euclidean")
        dim = int(self.norm.get("dim", 2))
        if family == "euclidean":
            return euclidean_norm(dim)
        if family == "ellipsoid":
            matrix = self.norm.get("matrix")
            if matrix is None:
                raise InputError("ellipsoid norm needs a matrix")
            return ellipsoid_norm(np.asarray(matrix, dtype=float))
        if family == "regularized_p":
            return regularized_p_norm(dim, float(self.norm.get("p", 3.0)),
                                      float(self.norm.get("eps", 1e-2)))
        raise InputError(f"unknown norm family {family!r}")

    def build_field(self, norm: Norm):
        preset = self.field.get("preset", "quadratic_ellipsoid")
        return build_preset(preset, norm, self.field.get("params"))

    def grid(self, key: str, default):
        return int(self.grids.get(key, default))


def _reject_unknown(raw: dict, known: set, where: str):
    unknown = set(raw) - known
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")


def _row(task, case, value, oracle, tolerance, passed, k=None, p=None):
    margin = None
    if value is not None and oracle is not None:
        margin = value - oracle
    return {"task": task, "case": case, "k": k, "p": p, "value": value,
            "oracle": oracle, "margin": margin, "tolerance": tolerance,
            "passed": bool(passed)}


def _margin_row(task, case, lhs, rhs, tolerance, k=None, p=None):
    margin = lhs - rhs
    return {"task": task, "case": case, "k": k, "p": p, "value": lhs,
            "oracle": rhs, "margin": margin, "tolerance": tolerance,
            "passed": bool(margin >= -tolerance)}


# ---------------------------------------------------------------- tasks


def _task_invariants(cfg: ExperimentConfig, norm, u):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_oracle = 0.0
    worst_newton = 0.0
    worst_trace = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        for k in range(0, min(n, 5) + 1):
            fast = sk(a, k)
            worst_oracle = max(worst_oracle, abs(fast - sk_delta_oracle(a, k))
                               / (1.0 + abs(fast)))
            if 1 <= k:
                t = newton_transform(a, k)
                worst_trace = max(worst_trace,
                                  abs(float(np.sum(t * a)) - k * fast))
                if k >= 2:
                    tk = newton_transform_delta_oracle(a, k)
                    tk1 = newton_transform_delta_oracle(a, k - 1)
                    res = tk - sk(a, k - 1) * np.eye(n) + tk1 @ a.T
                    worst_newton = max(worst_newton,
                                       float(np.max(np.abs(res))))
    rows.append(_row("invariants", "minor-sum vs kronecker-sum",
                     worst_oracle, 0.0, 1e-12, worst_oracle <= 1e-12))
    rows.append(_row("invariants", "newton recursion residual",
                     worst_newton, 0.0, 1e-10, worst_newton <= 1e-10))
    rows.append(_row("invariants", "trace identity residual",
                     worst_trace, 0.0, 1e-10, worst_trace <= 1e-10))
    a = rng.uniform(-1.0, 1.0, size=(3, 3))
    b = rng.uniform(-1.0, 1.0, size=(3, 3))
    worst_bin = 0.0
    for k in (1, 2, 3):
        want = sk(a + b, k)
        got = math.fsum(math.comb(k, r)
                        * mixed_discriminant([a] * (k - r) + [b] * r)
                        for r in range(k + 1))
        worst_bin = max(worst_bin, abs(got - want) / (1.0 + abs(want)))
    rows.append(_row("invariants", "binomial polarization residual",
                     worst_bin, 0.0, 1e-10, worst_bin <= 1e-10))
    return rows


def _sample_interior(norm, u, count, seed):
    rng = np.random.default_rng(seed)
    box = u.bounding_box
    pts = rng.uniform(box[:, 0], box[:, 1], size=(40 * count, u.dim))
    vals, grads, _ = u.jets(pts)
    keep = (vals < -1e-3 * abs(u.min_value)) & (
        np.linalg.norm(grads, axis=-1) > 1e-6)
    return pts[keep][:count]


def _task_identities(cfg, norm, u, level_table, polar):
    rows = []
    pts = _sample_interior(norm, u, 100, cfg.seed)
    _, grads, hesses = u.jets(pts)
    _, primary = curvature_batch(norm, grads, hesses)
    alt = newton_curvatures(norm, grads, hesses)
    for k in range(0, u.dim):
        spread = float(np.max(np.abs(primary[k] - alt[k])
                              / (1.0 + np.abs(primary[k]))))
        rows.append(_row("identities", "curvature two-route spread",
                         spread, 0.0, 1e-8, spread <= 1e-8, k=k))
    fv, fg, fh = eval_jet(norm, grads)
    a = aniso_hessian_batch(norm, grads, hesses)
    newtons = newton_stack(a, u.dim)
    for k in range(1, u.dim + 1):
        skv = sk_stack(a, k)
        curv = sk_stack(fh @ hesses, k)
        corr = np.einsum("...ij,...i,...l,...lj->...", newtons[k - 1], fg,
                         grads, a) / fv
        rhs = curv * fv ** k + corr
        spread = float(np.max(np.abs(skv - rhs) / (1.0 + np.abs(skv))))
        rows.append(_row("identities", "operator decomposition residual",
                         spread, 0.0, 1e-9, spread <= 1e-9, k=k))
    # the level family before the polar table: sampling allocates the
    # most, and the polar pass then reuses the memory it freed
    table = level_table()
    for k in cfg.orders:
        direct = polar("volume_panels")[("hessian", k)]
        coarea = hessian_integral_coarea(table, k)
        spread = abs(direct - coarea) / (1.0 + abs(direct))
        rows.append(_row("identities", "coarea vs direct energy",
                         coarea, direct, 1e-3, spread <= 1e-3, k=k))
    res = table.residual_max  # sample_level_set warns above 1e-9
    rows.append(_row("identities", "level-set residual max", res, 0.0,
                     1e-9, res <= 1e-9))
    return rows


def _task_mixedvol(cfg, norm, u):
    rows = []
    kap = wulff_volume(norm)
    n = u.dim
    rays = cfg.grids.get("rays")
    if u.radial_profile is not None:
        v_fn, _, radius = u.radial_profile
        for frac in (0.25, 0.5, 1.0):
            r = radius * frac
            t = min(float(v_fn(np.array([r]))[0]), 0.0)
            if t <= u.min_value:
                continue
            sample = sample_level_set(norm, u, t, rays=rays)
            for k in range(n):
                got = mixed_volume(sample, k)
                want = kap * r ** (n - k)
                rows.append(_row(
                    "mixedvol", f"wulff ball value r={r:g}", got, want,
                    1e-4, abs(got - want) <= 1e-4 * want, k=k))
    else:
        sample = sample_level_set(norm, u, 0.0, rays=rays)
        half = sample_level_set(norm, u, u.min_value * 0.5, rays=rays)
        for k in range(n):
            big = mixed_volume(sample, k)
            small = mixed_volume(half, k)
            rows.append(_row(
                "mixedvol", "inclusion monotonicity", small, big, 0.0,
                small < big, k=k))
        if norm.family == "euclidean" and n == 2:
            got = mixed_volume(sample, 1)
            want = 0.5 * float(np.sum(sample.weights))
            rows.append(_row("mixedvol", "half-perimeter identity", got,
                             want, 1e-10,
                             abs(got - want) <= 1e-10 * want, k=1))
    return rows


def _task_af(cfg, norm, u, level_table):
    rows = []
    zeta = level_table().zeta
    for k, l in af_pairs(u.dim):
        margin = float(np.min(zeta[k] - zeta[l]))
        rows.append(_row("af", f"mean-radius gap {k}-{l}", margin, 0.0,
                         1e-6, margin >= -1e-6, k=k))
    return rows


def _task_symmetrize(cfg, norm, u, level_table, polar, out_dir):
    rows = []
    table = level_table()
    for k in cfg.orders:
        sym = symmetrand(table, k)
        node_err = float(np.max(np.abs(
            sym.rho(sym.zeta.values) - sym.zeta.r)))
        rows.append(_row("symmetrize", "profile node consistency",
                         node_err, 0.0, 1e-6, node_err <= 1e-6, k=k))
        lhs, rhs = lp_compare(table, k, 2.0,
                              polar("volume_panels")[("lp", 2.0)])
        rows.append(_margin_row("symmetrize", "L2 monotonicity", rhs, lhs,
                                1e-4, k=k, p=2.0))
        linf_l, linf_r = lp_compare(table, k, math.inf, abs(u.min_value))
        rows.append(_row("symmetrize", "Linf equality", linf_l, linf_r,
                         1e-12, abs(linf_l - linf_r) <= 1e-12, k=k))
        if out_dir is not None:
            _write_profile(out_dir / f"zeta_profile_k{k}.csv",
                           ("t", "zeta"), sym.zeta.r, sym.zeta.values)
            _write_profile(out_dir / f"rho_profile_k{k}.csv",
                           ("r", "rho"), sym.rho.r, sym.rho.values)
    return rows


def _task_polya_szego(cfg, norm, u, level_table, polar):
    rows = []
    table = level_table()
    for k in cfg.orders:
        res = ps_margin(table, k, polar("volume_panels")[("hessian", k)])
        tol = 1e-4 * (1.0 + abs(res.lhs))
        rows.append(_margin_row("polya_szego", "hessian energy drop",
                                res.lhs, res.rhs, tol, k=k))
        for p in cfg.exponents:
            resp = ps_margin_p(table, k, p,
                               polar("rays")[("generalized", k, p)])
            tol = 1e-4 * (1.0 + abs(resp.lhs))
            rows.append(_margin_row("polya_szego", "generalized energy drop",
                                    resp.lhs, resp.rhs, tol, k=k, p=p))
    return rows


def _task_compare(cfg, norm, u, level_table, polar, rearrangement):
    rows = []
    table = level_table()
    for k in cfg.orders:
        source = cfg.field.get("source_constant")
        if source is None:
            pts = _sample_interior(norm, u, 400, cfg.seed)
            source = float(np.max(sk_field_batch(norm, u, pts, k))) * 1.05
        res = comparison_margin(
            table, lambda pts, c=float(source): np.full(pts.shape[0], c), k,
            solver_nodes=cfg.grid("radial_nodes", 4096),
            polar=polar("rays"), grid=rearrangement())
        rows.append(_row("compare", f"radial domination (f={source:.6g})",
                         res.min_margin, 0.0, 1e-4,
                         res.min_margin >= -1e-4, k=k))
    return rows


def _task_sobolev(cfg, norm, u, polar):
    rows = []
    for k, p in _sobolev_cases(cfg, u.dim):
        c = sobolev_constant(norm, k, p)
        q = sobolev_exponent(u.dim, k, p)
        res = sobolev_margin(norm, k, p, polar("rays")[("generalized", k, p)],
                             polar("volume_panels")[("lp", q)])
        tol = 1e-4 * (1.0 + res.constant * res.energy)
        rows.append(_margin_row(
            "sobolev", f"embedding slack (C={c:.8g})",
            res.constant * res.energy, res.norm_power, tol, k=k, p=p))
    return rows


def _sobolev_cases(cfg, n):
    """The (k, p) of the sobolev rows: below the borderline p = n-k+1."""
    return [(k, p) for k in cfg.orders for p in (cfg.exponents or [1.0])
            if p < n - k + 1]


def _polar_requests(cfg, n):
    """(grid key, field_ops.PolarTable request) of every value the tasks
    read from the polar rules of volume_panels and rays."""
    tasks, ks = set(cfg.tasks), cfg.orders
    out = [("volume_panels", ("lp", 2.0))] if "symmetrize" in tasks else []
    if tasks & {"identities", "polya_szego"}:
        out += [("volume_panels", ("hessian", k)) for k in ks]
    if "polya_szego" in tasks:
        out += [("rays", ("generalized", k, p)) for k in ks
                for p in cfg.exponents]
    if "compare" in tasks:
        out += [("rays", ("sk", k)) for k in ks]
    if "sobolev" in tasks:
        for k, p in _sobolev_cases(cfg, n):
            out += [("rays", ("generalized", k, p)),
                    ("volume_panels", ("lp", sobolev_exponent(n, k, p)))]
    return out


# ------------------------------------------------------------- reports


def _write_profile(path: Path, header, xs, ys):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for x, y in zip(xs, ys):
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])


def _write_csv(path: Path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row["task"], row["case"],
                "" if row["k"] is None else row["k"],
                "" if row["p"] is None else f"{row['p']:.17g}",
                "" if row["value"] is None else f"{row['value']:.17g}",
                "" if row["oracle"] is None else f"{row['oracle']:.17g}",
                "" if row["margin"] is None else f"{row['margin']:.17g}",
                "" if row["tolerance"] is None else
                f"{row['tolerance']:.17g}",
                str(row["passed"]).lower()])


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured tasks; returns the report dictionary."""
    start = time.time()
    norm, u = cfg.built
    out_dir = None
    formats = cfg.output.get("formats", ["json"])
    if cfg.output.get("directory"):
        out_dir = Path(cfg.output["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
    report = {"version": __version__, "config": _config_echo(cfg),
              "tasks": {}, "passed": True}
    # one sampled level family, one polar table per distinct polar rule
    # and one rearrangement grid per experiment, each built by the first
    # task that reads it
    level_table = functools.cache(lambda: LevelTable(
        norm, u, cfg.grid("levels", 200), cfg.grids.get("rays")))
    rules = {key: cfg.grid(key, default_rays(u.dim))
             for key in ("volume_panels", "rays")}
    tables = functools.cache(lambda count: PolarTable(norm, u, count, [
        q for key, q in _polar_requests(cfg, u.dim) if rules[key] == count]))

    def polar(key):
        return tables(rules[key])

    rearrangement = functools.cache(lambda: rearrangement_grid(u))
    runners = {
        "invariants": lambda: _task_invariants(cfg, norm, u),
        "identities": lambda: _task_identities(cfg, norm, u, level_table,
                                               polar),
        "mixedvol": lambda: _task_mixedvol(cfg, norm, u),
        "af": lambda: _task_af(cfg, norm, u, level_table),
        "symmetrize": lambda: _task_symmetrize(cfg, norm, u, level_table,
                                               polar, out_dir),
        "polya_szego": lambda: _task_polya_szego(cfg, norm, u, level_table,
                                                 polar),
        "compare": lambda: _task_compare(cfg, norm, u, level_table, polar,
                                         rearrangement),
        "sobolev": lambda: _task_sobolev(cfg, norm, u, polar),
    }
    for task in cfg.tasks:
        try:
            rows = runners[task]()
        except _TASK_ERRORS as exc:
            rows = [_row(task, f"task error ({type(exc).__name__}): {exc}",
                         None, None, None, False)]
        ok = all(r["passed"] for r in rows)
        report["tasks"][task] = {"rows": rows, "passed": ok}
        report["passed"] = report["passed"] and ok
        if out_dir is not None and "csv" in formats:
            _write_csv(out_dir / f"{task}.csv", rows)
    report["runtime_seconds"] = time.time() - start
    if out_dir is not None and "json" in formats:
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {"norm": cfg.norm, "field": cfg.field, "orders": cfg.orders,
            "exponents": cfg.exponents, "grids": cfg.grids,
            "tasks": list(cfg.tasks), "output": cfg.output,
            "seed": cfg.seed}


# -------------------------------------------------------------- corpus


def regression_corpus():
    """The built-in preset corpus exercised by `wulffsym check`.

    2D entries cover all three norm families; 3D entries use the
    closed-form dual families at reduced sampling resolution (the
    regularized_p family in 3D is exercised by pointwise identities and
    Wulff-ball values, whose cost stays moderate).
    """
    ell2 = {"family": "ellipsoid", "dim": 2, "matrix": [[4.0, 0.0],
                                                        [0.0, 1.0]]}
    reg2 = {"family": "regularized_p", "dim": 2, "p": 3.0}
    euc2 = {"family": "euclidean", "dim": 2}
    euc3 = {"family": "euclidean", "dim": 3}
    ell3 = {"family": "ellipsoid", "dim": 3,
            "matrix": [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.25]]}
    fast3 = {"levels": 150, "rays": 128, "volume_panels": 96}
    entries = [
        ("disc", euc2, {"preset": "quadratic_ellipsoid"}, [1, 2], {}),
        ("ellipse", euc2,
         {"preset": "quadratic_ellipsoid", "params": {"axes": [2.0, 1.0]}},
         [1, 2], {}),
        ("euclid-radial", euc2, {"preset": "radial_power",
                                 "params": {"a": 2.0}}, [1], {}),
        ("euclid-perturbed", euc2, {"preset": "perturbed_radial"}, [1], {}),
        ("aniso-wulff", ell2, {"preset": "radial_power",
                               "params": {"a": 2.0}}, [1, 2], {}),
        ("aniso-cubic", ell2, {"preset": "radial_power",
                               "params": {"a": 3.0}}, [2], {}),
        ("aniso-perturbed", ell2, {"preset": "perturbed_radial"}, [2], {}),
        ("aniso-ellipse", ell2,
         {"preset": "quadratic_ellipsoid", "params": {"axes": [2.0, 1.0]}},
         [2], {}),
        ("regp-wulff", reg2, {"preset": "radial_power",
                              "params": {"a": 2.0}}, [2], {}),
        ("ball3", euc3, {"preset": "quadratic_ellipsoid"}, [1], fast3),
        ("ellipsoid3", ell3, {"preset": "radial_power",
                              "params": {"a": 2.0}}, [2], fast3),
    ]
    return entries


def _check(fast: bool) -> int:
    failures = 0
    tasks = ["identities", "mixedvol", "af", "polya_szego", "sobolev"]
    for name, norm_spec, field_spec, orders, grids in regression_corpus():
        cfg = ExperimentConfig.from_dict({
            "norm": norm_spec, "field": field_spec, "orders": orders,
            "exponents": [1.5], "grids": dict(grids),
            "tasks": list(tasks), "output": {}, "seed": 7})
        if fast:
            # margins of the radial equality cases shrink with the level
            # count; 160 keeps them inside the 1e-4 tolerances
            cfg.grids.setdefault("levels", 160)
            cfg.grids["rays"] = 512 if norm_spec["dim"] == 2 else 96
        report = run(cfg)
        status = "pass" if report["passed"] else "FAIL"
        print(f"[{status}] {name} ({report['runtime_seconds']:.1f}s): "
              + ", ".join(f"{t}={'ok' if d['passed'] else 'FAIL'}"
                          for t, d in report["tasks"].items()))
        failures += 0 if report["passed"] else 1
    cfg = ExperimentConfig.from_dict({
        "norm": {"family": "euclidean", "dim": 2},
        "field": {"preset": "quadratic_ellipsoid"},
        "tasks": ["invariants"], "output": {}, "seed": 7})
    report = run(cfg)
    print(f"[{'pass' if report['passed'] else 'FAIL'}] invariant kernel "
          f"({report['runtime_seconds']:.1f}s)")
    failures += 0 if report["passed"] else 1
    return 1 if failures else 0


# ----------------------------------------------------------------- CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wulffsym",
        description="Anisotropic mixed-volume symmetrization harnesses.",
        epilog=f"Set {ENV_VAR} to cap worker threads "
               f"(current budget: {thread_count()}).")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json")
    p_run.add_argument("--seed", type=int, default=None)
    sub.add_parser("presets", help="list field presets and norm families")
    p_check = sub.add_parser("check", help="run the regression corpus")
    p_check.add_argument("--fast", action="store_true",
                         help="reduced grids")
    args = parser.parse_args(argv)

    if args.command == "presets":
        print("norm families: euclidean | ellipsoid(matrix) | "
              "regularized_p(p, eps)")
        for name, params in preset_catalog().items():
            print(f"{name}:")
            for key, desc in params.items():
                print(f"    {key}: {desc}")
        return 0
    if args.command == "check":
        return _check(args.fast)

    try:
        raw = json.loads(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(raw)
        if args.out is not None:
            cfg.output["directory"] = args.out
        if args.format is not None:
            cfg.output["formats"] = args.format.split(",")
            bad = set(cfg.output["formats"]) - {"json", "csv"}
            if bad:
                raise InputError(f"unknown output formats: {sorted(bad)}")
        if args.seed is not None:
            cfg.seed = args.seed
    except (OSError, json.JSONDecodeError, InputError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    for task, data in report["tasks"].items():
        status = "pass" if data["passed"] else "FAIL"
        print(f"[{status}] {task} ({len(data['rows'])} rows)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
