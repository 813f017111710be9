"""Layer spans for one wulffsym experiment, recorded from outside the program.

`Tracer.install` wraps public functions of the wulffsym modules in every
wulffsym namespace that holds them, plus numpy's Gauss-Legendre routine
when a wulffsym module calls it, and the value and jet oracles of every
field that `build_preset` hands out. Each call becomes one span: layer
name, start, end, parent span, points evaluated. Spans stay in memory
until `write`. `layer_metrics` turns a span file into the per-layer
metrics that BENCHMARK.json names.

Self time of a span is its duration minus the part of it that its child
spans cover. Level sampling runs on worker threads; a span that starts
on a thread with no open span of its own is a child of the innermost
span open on the main thread, which is the `sample_many` call that
started the workers. Layer times sum self time over all threads, so two
sampler threads can together report more than the wall time.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

TASKS = ("identities", "mixedvol", "af", "symmetrize", "polya_szego",
         "compare", "sobolev")

# (module, function, layer)
TARGETS = (
    [("cli", f"_task_{t}", f"cli.task.{t}") for t in TASKS]
    + [("symmetrize", f, "symmetrize.harness")
       for f in ("symmetrand", "zeta_profile", "ps_margin", "ps_margin_p",
                 "lp_compare", "comparison_margin")]
    + [("bodies", "sample_many", "bodies.sample_many"),
       ("bodies", "boundary_radii", "bodies.boundary_radii"),
       ("anisotropy", "dual_jet", "anisotropy.dual_jet"),
       ("anisotropy", "eval_jet", "anisotropy.eval_jet"),
       ("field_ops", "curvature_batch", "field_ops.curvature_batch"),
       ("field_ops", "hessian_integral_coarea",
        "field_ops.hessian_integral_coarea")]
    + [("field_ops", f, "field_ops.box_quadrature")
       for f in ("hessian_integral", "lp_norm", "domain_volume")]
    + [("field_ops", f, "field_ops.polar_quadrature")
       for f in ("generalized_integral", "polar_integral", "polar_grid")]
    + [("radial", f, f"radial.{f}")
       for f in ("rearrange", "solve_radial", "radial_energy")]
)

# every layer a span can carry
LAYERS = ({layer for _, _, layer in TARGETS}
          | {"fields.values", "fields.jets", "quad.leggauss"})
_RAY_ROOT_LAYERS = ("bodies.sample_many", "bodies.boundary_radii")


def _points(arr, dim):
    return int(np.asarray(arr).size // dim)


def _arg_points(index, name):
    """Meter: points in the argument at `index` (or keyword `name`)."""

    def meter(args, kwargs, out):
        arr = args[index] if len(args) > index else kwargs[name]
        norm = args[0] if args else kwargs["norm"]
        return _points(arr, norm.dim), None

    return meter


def _radii_points(args, kwargs, out):
    return int(np.asarray(out).shape[0]), None


def _sample_meter(sample_many, default_rays):
    """Meter: ray roots sampled, plus the (field, level, rays) keys."""
    sig = inspect.signature(sample_many)

    def meter(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        u = bound.arguments["u"]
        rays = bound.arguments.get("rays") or default_rays(u.dim)
        levels = np.atleast_1d(np.asarray(bound.arguments["levels"],
                                          dtype=float))
        count = next((s.points.shape[0] for s in out
                      if s is not None), 0)
        return levels.size * count, {
            "field": id(u), "rays": int(rays),
            "levels": [float(t) for t in levels]}

    return meter


class Tracer:
    def __init__(self):
        # appended from the main and the sampler threads; list.append and
        # next() on itertools.count are single atomic steps in CPython
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def wrap(self, layer, fn, meter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                points, extra = 0, None
                if meter is not None and out is not None:
                    points, extra = meter(args, kwargs, out)
                tracer.spans.append(
                    (sid, parent, layer, start, end, points, extra))

        return traced

    def install(self):
        """Patch every wulffsym namespace; call before `cli.run`."""
        import wulffsym.cli  # noqa: F401  (imports every module)
        from wulffsym import bodies

        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("wulffsym")}
        meters = {"anisotropy.dual_jet": _arg_points(1, "x"),
                  "anisotropy.eval_jet": _arg_points(1, "xi"),
                  "field_ops.curvature_batch": _arg_points(1, "grads"),
                  "bodies.boundary_radii": _radii_points,
                  "bodies.sample_many": _sample_meter(
                      bodies.sample_many, bodies.default_rays)}
        for module, func, layer in TARGETS:
            orig = getattr(modules[module], func)
            self._patch(modules, orig, self.wrap(layer, orig,
                                                 meters.get(layer)))
        build = modules["fields"].build_preset
        self._patch(modules, build, self._build_wrapper(build))
        self._patch_leggauss()

    @staticmethod
    def _patch(modules, orig, wrapped):
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    def _build_wrapper(self, build):
        tracer = self

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            u = build(*args, **kwargs)

            def meter(a, k, out):
                return _points(a[0], u.dim), None

            return replace(
                u, values_fn=tracer.wrap("fields.values", u.values_fn, meter),
                jets_fn=tracer.wrap("fields.jets", u.jets_fn, meter))

        return traced_build

    def _patch_leggauss(self):
        legendre = np.polynomial.legendre
        orig = legendre.leggauss
        traced = self.wrap("quad.leggauss", orig)

        @functools.wraps(orig)
        def leggauss(deg):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("wulffsym"):
                return traced(deg)
            return orig(deg)

        legendre.leggauss = leggauss

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(path, names):
    """The per-layer metrics `names` of one span file.

    A name is a layer plus `.s` (self time), `.calls` or `.points`, or
    one of the derived ratios and counts below.
    """
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    info = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        children[parent].append((start, end))

    def nearest(sid, layers):
        """Layer of the closest ancestor among `layers`, else None."""
        parent = info[sid][1]
        while parent in info:
            if info[parent][2] in layers:
                return info[parent][2]
            parent = info[parent][1]
        return None

    per_kind = {"s": defaultdict(float), "calls": defaultdict(int),
                "points": defaultdict(int)}
    for sid, _, layer, start, end, pts, _ in spans:
        per_kind["s"][layer] += ((end - start)
                                 - _covered(children[sid], start, end))
        per_kind["calls"][layer] += 1
        per_kind["points"][layer] += pts

    keys, levels = set(), 0
    for _, _, layer, _, _, _, extra in spans:
        if layer == "bodies.sample_many" and extra:
            levels += len(extra["levels"])
            keys.update((extra["field"], t, extra["rays"])
                        for t in extra["levels"])
    ray_values = sum(s[5] for s in spans if s[2] == "fields.values"
                     and nearest(s[0], _RAY_ROOT_LAYERS))
    dual_primal = sum(s[5] for s in spans if s[2] == "anisotropy.eval_jet"
                      and nearest(s[0], ("anisotropy.dual_jet",)))
    roots = sum(per_kind["points"][layer] for layer in _RAY_ROOT_LAYERS)
    dual_points = per_kind["points"]["anisotropy.dual_jet"]
    derived = {
        "bodies.sample_many.levels": levels,
        "bodies.sample_many.distinct_ratio": (
            len(keys) / levels if levels else 0.0),
        "bodies.values_per_root": ray_values / roots if roots else 0.0,
        "anisotropy.dual_jet.primal_per_point": (
            dual_primal / dual_points if dual_points else 0.0),
    }

    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind in per_kind and layer in LAYERS:
            out[name] = per_kind[kind][layer]
        else:
            raise ValueError(f"no rule computes the per-layer metric "
                             f"{name!r}")
    return out
