"""Config-driven experiment runner with machine-readable reports.

Usage:
    wulffsym run --config cfg.json [--out DIR]
    wulffsym presets
    wulffsym check

A config is one JSON object (unknown keys, ill-typed values and non-finite
numbers are rejected):

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

Each grid key drives one layer: ``levels`` and ``rays`` (directions,
longitudes in 3D) the level-set sampling, ``volume_panels`` the one polar
rule of every domain integral and of the comparison check, and
``radial_nodes`` the radial solver. Unset, ``rays`` and ``volume_panels``
are 2048 in 2D and 256 in 3D. The polar rule is built once per
experiment, and one pass over its nodes gives every value identities,
symmetrize, polya_szego, compare and sobolev read (field_ops.PolarTable).
``compare`` solves with the constant source 1.05 max S_k[u] on the nodes.

Exit status: 0 when every verdict passes, 1 when a check fails, a task
raises a wulffsym error (a "task error (<class>)" row) or a task has
nothing to check, 2 on config errors, an unusable output directory and a
WULFFSYM_THREADS that is not a positive integer; other exceptions propagate.
WULFFSYM_THREADS caps worker threads (default: all cores).
"""

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
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
    hessian_integral_coarea,
    newton_curvatures,
)
from .fields import Field, build_preset, preset_catalog
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
from .symmetrize import (
    comparison_margin,
    lp_compare,
    ps_margin,
    ps_margin_p,
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
        raw = _object(raw, {"norm", "field", "orders", "exponents", "grids",
                            "tasks", "output", "seed"}, "config")
        for key, value in raw.items():
            _finite(value, key)
        norm = _object(raw.get("norm") or {"family": "euclidean", "dim": 2},
                       {"family", "dim", "matrix", "p", "eps"}, "norm")
        _require(_is_int(norm.get("dim", 2)), "norm dim must be an integer",
                 norm.get("dim"))
        for key in ("p", "eps"):
            _require(_is_number(norm.get(key, 1.0)),
                     f"norm {key} must be a number", norm.get(key))
        fld = _object(raw.get("field") or {"preset": "quadratic_ellipsoid"},
                      {"preset", "params"}, "field")
        _require(isinstance(fld.get("preset", ""), str),
                 "field preset must be a name", fld.get("preset"))
        _require(isinstance(fld.get("params", {}), dict),
                 "field params must be an object", fld.get("params"))
        grids = _object(raw.get("grids") or {}, {
            "levels", "rays", "radial_nodes", "volume_panels"}, "grids")
        for key, val in grids.items():
            _require(_is_int(val) and val > 0,
                     f"grid entry {key} must be a positive integer", val)
        output = _object(raw.get("output") or {}, {"directory", "formats"},
                         "output")
        _require(isinstance(output.get("directory", ""), str),
                 "output directory must be a string", output.get("directory"))
        _list_of(output, "formats", ["json"], ("json", "csv").__contains__,
                 'of "json" and "csv"', str)
        tasks = _list_of(raw, "tasks", [], TASKS.__contains__,
                         f"of tasks {list(TASKS)}", str)
        _require(tasks, "tasks must be a nonempty list", tasks)
        orders = _list_of(raw, "orders", [1], _is_int, "of integers", int)
        exponents = _list_of(raw, "exponents", [], _is_number, "of numbers",
                             float)
        seed = raw.get("seed", 0)
        _require(_is_int(seed) and seed >= 0, "seed must be an int >= 0", seed)
        cfg = ExperimentConfig(norm, fld, orders, exponents, grids, tasks,
                               output, int(seed))
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
            _require(matrix is not None, "ellipsoid norm needs a matrix", None)
            norm = ellipsoid_norm(np.asarray(matrix, dtype=float))
            _require(dim == norm.dim or "dim" not in self.norm,
                     f"norm dim must equal the matrix size {norm.dim}", dim)
            return norm
        if family == "regularized_p":
            return regularized_p_norm(dim, float(self.norm.get("p", 3.0)),
                                      float(self.norm.get("eps", 1e-2)))
        raise InputError(f"unknown norm family {family!r}")

    def build_field(self, norm: Norm):
        preset = self.field.get("preset", "quadratic_ellipsoid")
        try:
            return build_preset(preset, norm, self.field.get("params"))
        except TypeError as exc:
            raise InputError(
                f"bad params for preset {preset!r} ({exc}); its parameters: "
                f"{sorted(preset_catalog()[preset])}") from None


def _require(ok, what: str, value):
    if not ok:
        raise InputError(f"{what}; got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _finite(value, where: str):
    """Raise the InputError of the first non-finite number in a config
    value, naming its key path ``where``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _finite(item, f"{where} {key}")
    elif isinstance(value, list):
        for item in value:
            _finite(item, where)
    else:
        _require(not isinstance(value, (float, np.floating))
                 or math.isfinite(value), f"{where} must be finite", value)


def _object(value, known: set, where: str) -> dict:
    _require(isinstance(value, dict), f"{where} must be an object", value)
    unknown = sorted(set(value) - known)
    _require(not unknown, f"unknown {where} keys", unknown)
    return dict(value)


def _list_of(raw: dict, key: str, default: list, ok, what: str, kind):
    value = raw.get(key, default)
    _require(isinstance(value, list) and all(map(ok, value)),
             f"{key} must be a list {what}", value)
    return [kind(v) for v in value]


def _row(task, case, value, oracle, tolerance, passed, k=None, p=None):
    margin = None
    if value is not None and oracle is not None:
        margin = value - oracle
    return {"task": task, "case": case, "k": k, "p": p, "value": value,
            "oracle": oracle, "margin": margin, "tolerance": tolerance,
            "passed": bool(passed)}


def _margin_row(task, case, lhs, rhs, tolerance, k=None, p=None):
    return _row(task, case, lhs, rhs, tolerance, lhs - rhs >= -tolerance,
                k=k, p=p)


# ---------------------------------------------------------------- tasks


@dataclass(eq=False)
class _Context:
    """What every task takes: the config, norm, field and output directory
    of a run, and its one LevelTable (with the coarea sums of the
    configured orders) and PolarTable, built on first read."""

    cfg: ExperimentConfig
    norm: Norm
    u: Field
    out_dir: Path | None

    @functools.cached_property
    def levels(self) -> LevelTable:
        return LevelTable(self.norm, self.u, self.cfg.grids.get("levels", 200),
                          self.cfg.grids.get("rays"), self.cfg.orders)

    @functools.cached_property
    def polar(self) -> PolarTable:
        return PolarTable(self.norm, self.u,
                          self.cfg.grids.get("volume_panels"),
                          _polar_requests(self.cfg, self.u.dim))


def _task_invariants(ctx: _Context):
    rng = np.random.default_rng(ctx.cfg.seed)
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


def _sample_interior(u, count, seed):
    """(grad u, hess u) at up to ``count`` uniform draws inside {u < 0}."""
    rng = np.random.default_rng(seed)
    box = u.bounding_box
    pts = rng.uniform(box[:, 0], box[:, 1], size=(40 * count, u.dim))
    vals, grads, hesses = u.jets(pts)
    keep = (vals < -1e-3 * abs(u.min_value)) & (
        np.linalg.norm(grads, axis=-1) > 1e-6)
    return grads[keep][:count].copy(), hesses[keep][:count].copy()


def _task_identities(ctx: _Context):
    norm, u = ctx.norm, ctx.u
    rows = []
    grads, hesses = _sample_interior(u, 100, ctx.cfg.seed)
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
    table = ctx.levels
    for k in ctx.cfg.orders:
        direct = ctx.polar[("hessian", k)]
        coarea = hessian_integral_coarea(table, k)
        spread = abs(direct - coarea) / (1.0 + abs(direct))
        rows.append(_row("identities", "coarea vs direct energy",
                         coarea, direct, 1e-3, spread <= 1e-3, k=k))
    res = table.residual_max  # sample_level_set warns above 1e-9
    rows.append(_row("identities", "level-set residual max", res, 0.0,
                     1e-9, res <= 1e-9))
    return rows


def _task_mixedvol(ctx: _Context):
    norm, u = ctx.norm, ctx.u
    rows = []
    kap = wulff_volume(norm)
    n = u.dim
    # mixed_volume reads the curvature rows S_0..S_{n-2} only
    sampling = dict(rays=ctx.cfg.grids.get("rays"), top=n - 2)
    if u.radial_profile is not None:
        v_fn, _, radius = u.radial_profile
        for frac in (0.25, 0.5, 1.0):
            r = radius * frac
            t = min(float(v_fn(np.array([r]))[0]), 0.0)
            if t <= u.min_value:
                continue
            sample = sample_level_set(norm, u, t, **sampling)
            for k in range(n):
                got = mixed_volume(sample, k)
                want = kap * r ** (n - k)
                rows.append(_row(
                    "mixedvol", f"wulff ball value r={r:g}", got, want,
                    1e-4, abs(got - want) <= 1e-4 * want, k=k))
    else:
        sample = sample_level_set(norm, u, 0.0, **sampling)
        half = sample_level_set(norm, u, u.min_value * 0.5, **sampling)
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


def _task_af(ctx: _Context):
    rows = []
    zeta = ctx.levels.zeta
    for k, l in af_pairs(ctx.u.dim):
        margin = float(np.min(zeta[k] - zeta[l]))
        rows.append(_row("af", f"mean-radius gap {k}-{l}", margin, 0.0,
                         1e-6, margin >= -1e-6, k=k))
    return rows


def _task_symmetrize(ctx: _Context):
    rows = []
    table = ctx.levels
    for k in ctx.cfg.orders:
        sym = symmetrand(table, k)
        node_err = float(np.max(np.abs(
            sym.rho(sym.zeta.values) - sym.zeta.r)))
        rows.append(_row("symmetrize", "profile node consistency",
                         node_err, 0.0, 1e-6, node_err <= 1e-6, k=k))
        lhs, rhs = lp_compare(table, k, 2.0, ctx.polar[("lp", 2.0)])
        rows.append(_margin_row("symmetrize", "L2 monotonicity", rhs, lhs,
                                1e-4, k=k, p=2.0))
        linf_l, linf_r = lp_compare(table, k, math.inf, abs(ctx.u.min_value))
        rows.append(_row("symmetrize", "Linf equality", linf_l, linf_r,
                         1e-12, abs(linf_l - linf_r) <= 1e-12, k=k))
        if ctx.out_dir is not None:
            _write_csv(ctx.out_dir / f"zeta_profile_k{k}.csv",
                       ("t", "zeta"), zip(sym.zeta.r, sym.zeta.values))
            _write_csv(ctx.out_dir / f"rho_profile_k{k}.csv",
                       ("r", "rho"), zip(sym.rho.r, sym.rho.values))
    return rows


def _task_polya_szego(ctx: _Context):
    rows = []
    table = ctx.levels
    for k in ctx.cfg.orders:
        res = ps_margin(table, k, ctx.polar[("hessian", k)])
        tol = 1e-4 * (1.0 + abs(res.lhs))
        rows.append(_margin_row("polya_szego", "hessian energy drop",
                                res.lhs, res.rhs, tol, k=k))
        for p in ctx.cfg.exponents:
            resp = ps_margin_p(table, k, p, ctx.polar[("generalized", k, p)])
            tol = 1e-4 * (1.0 + abs(resp.lhs))
            rows.append(_margin_row("polya_szego", "generalized energy drop",
                                    resp.lhs, resp.rhs, tol, k=k, p=p))
    return rows


def _task_compare(ctx: _Context):
    rows = []
    table = ctx.levels
    for k in ctx.cfg.orders:
        sk_max = float(np.max(ctx.polar[("sk", k)]))
        if not math.isfinite(sk_max):
            raise NumericError(
                f"S_k (k={k}) on the polar nodes has maximum {sk_max}")
        source = 1.05 * sk_max
        res = comparison_margin(
            table, source, k,
            solver_nodes=ctx.cfg.grids.get("radial_nodes", 4096),
            polar=ctx.polar)
        rows.append(_row("compare", f"radial domination (f={source:.6g})",
                         res.min_margin, 0.0, 1e-4,
                         res.min_margin >= -1e-4, k=k))
    return rows


def _task_sobolev(ctx: _Context):
    rows = []
    for k, p in _sobolev_cases(ctx.cfg.orders, ctx.cfg.exponents, ctx.u.dim):
        q = sobolev_exponent(ctx.u.dim, k, p)
        res = sobolev_margin(ctx.norm, k, p, ctx.polar[("generalized", k, p)],
                             ctx.polar[("lp", q)])
        tol = 1e-4 * (1.0 + res.constant * res.energy)
        rows.append(_margin_row(
            "sobolev", f"embedding slack (C={res.constant:.8g})",
            res.constant * res.energy, res.norm_power, tol, k=k, p=p))
    return rows


def _sobolev_cases(orders, exponents, n):
    """The (k, p) of the sobolev rows: below the borderline p = n-k+1."""
    return [(k, p) for k in orders for p in (exponents or [1.0])
            if p < n - k + 1]


def _polar_requests(cfg, n):
    """The field_ops.PolarTable request of every value the tasks read."""
    tasks, ks = set(cfg.tasks), cfg.orders
    out = [("lp", 2.0)] if "symmetrize" in tasks else []
    if tasks & {"identities", "polya_szego"}:
        out += [("hessian", k) for k in ks]
    if "polya_szego" in tasks:
        out += [("generalized", k, p) for k in ks for p in cfg.exponents]
    if "compare" in tasks:
        out += [("sk", k) for k in ks]
    if "sobolev" in tasks:
        for k, p in _sobolev_cases(ks, cfg.exponents, n):
            out += [("generalized", k, p), ("lp", sobolev_exponent(n, k, p))]
    return out


# ------------------------------------------------------------- reports


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_csv(path: Path, header, rows):
    """One CSV file; the cells of each row formatted by _cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured tasks; returns the report dictionary."""
    start = time.time()
    out_dir = None
    formats = cfg.output.get("formats", ["json"])
    if cfg.output.get("directory"):
        out_dir = Path(cfg.output["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
    report = {"version": __version__, "config": asdict(cfg),
              "tasks": {}, "passed": True}
    ctx = _Context(cfg, *cfg.built, out_dir)
    for task in cfg.tasks:
        try:
            # looked up at call time, so that a patched task runs
            rows = globals()[f"_task_{task}"](ctx)
        except _TASK_ERRORS as exc:
            rows = [_row(task, f"task error ({type(exc).__name__}): {exc}",
                         None, None, None, False)]
        if not rows:
            rows = [_row(task, "nothing to check", None, None, None, False)]
        ok = all(r["passed"] for r in rows)
        report["tasks"][task] = {"rows": rows, "passed": ok}
        report["passed"] = report["passed"] and ok
        if out_dir is not None and "csv" in formats:
            _write_csv(out_dir / f"{task}.csv", _CSV_COLUMNS,
                       ([r[c] for c in _CSV_COLUMNS] for r in rows))
    report["runtime_seconds"] = time.time() - start
    if out_dir is not None and "json" in formats:
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


# -------------------------------------------------------------- corpus


def regression_corpus():
    """The preset corpus of `wulffsym check`: (name, config) pairs, each
    config complete and run as it stands.

    2D entries: all three norm families, 160 levels (which keep the radial
    equality margins inside their 1e-4 tolerances) and 512 rays. 3D
    entries: the closed-form dual families, 150 levels, 96 longitudes and
    96 volume panels. sobolev runs where a (k, p) lies below n - k + 1.
    """
    ell2 = {"family": "ellipsoid", "dim": 2, "matrix": [[4.0, 0.0],
                                                        [0.0, 1.0]]}
    reg2 = {"family": "regularized_p", "dim": 2, "p": 3.0}
    euc2 = {"family": "euclidean", "dim": 2}
    euc3 = {"family": "euclidean", "dim": 3}
    ell3 = {"family": "ellipsoid", "dim": 3,
            "matrix": [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.25]]}
    grids = {2: {"levels": 160, "rays": 512},
             3: {"levels": 150, "rays": 96, "volume_panels": 96}}
    entries = [
        ("disc", euc2, {"preset": "quadratic_ellipsoid"}, [1, 2]),
        ("ellipse", euc2,
         {"preset": "quadratic_ellipsoid", "params": {"axes": [2.0, 1.0]}},
         [1, 2]),
        ("euclid-radial", euc2, {"preset": "radial_power",
                                 "params": {"a": 2.0}}, [1]),
        ("euclid-perturbed", euc2, {"preset": "perturbed_radial"}, [1]),
        ("aniso-wulff", ell2, {"preset": "radial_power",
                               "params": {"a": 2.0}}, [1, 2]),
        ("aniso-cubic", ell2, {"preset": "radial_power",
                               "params": {"a": 3.0}}, [2]),
        ("aniso-perturbed", ell2, {"preset": "perturbed_radial"}, [2]),
        ("aniso-ellipse", ell2,
         {"preset": "quadratic_ellipsoid", "params": {"axes": [2.0, 1.0]}},
         [2]),
        ("regp-wulff", reg2, {"preset": "radial_power",
                              "params": {"a": 2.0}}, [2]),
        ("ball3", euc3, {"preset": "quadratic_ellipsoid"}, [1]),
        ("ellipsoid3", ell3, {"preset": "radial_power",
                              "params": {"a": 2.0}}, [2]),
    ]
    corpus = []
    for name, norm, field, orders in entries:
        tasks = [t for t in TASKS if t != "invariants" and (
            t != "sobolev" or _sobolev_cases(orders, [1.5], norm["dim"]))]
        corpus.append((name, {
            "norm": norm, "field": field, "orders": orders,
            "exponents": [1.5], "grids": grids[norm["dim"]], "tasks": tasks,
            "output": {}, "seed": 7}))
    return corpus


def _check() -> int:
    failures = 0
    for name, raw in regression_corpus():
        report = run(ExperimentConfig.from_dict(raw))
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
    try:
        threads = thread_count()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="wulffsym",
        description="Anisotropic mixed-volume symmetrization harnesses.",
        epilog=f"Set {ENV_VAR} to cap worker threads "
               f"(current budget: {threads}).")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    sub.add_parser("presets", help="list field presets and norm families")
    sub.add_parser("check", help="run the regression corpus")
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
        return _check()

    try:
        raw = json.loads(Path(args.config).read_text())
        _require(isinstance(raw, dict), "a config must be an object", raw)
        output = raw.get("output") or {}
        if args.out is not None and isinstance(output, dict):
            raw["output"] = {**output, "directory": args.out}
        cfg = ExperimentConfig.from_dict(raw)
        if cfg.output.get("directory"):  # an unusable one is a config error
            Path(cfg.output["directory"]).mkdir(parents=True, exist_ok=True)
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
