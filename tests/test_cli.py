import json
import math

import numpy as np
import pytest

from conftest import BALL3D, ELLIPSE_CONFIG, REGP2D
from wulffsym import bodies, cli, field_ops, rays
from wulffsym.cli import ExperimentConfig, main, run
from wulffsym.errors import InputError
from wulffsym.field_ops import (
    PolarTable,
    generalized_integral,
    hessian_integral,
    level_rule,
    lp_norm,
)


def base_config(tmp_path, tasks, **overrides):
    raw = {
        "norm": {"family": "euclidean", "dim": 2},
        "field": {"preset": "quadratic_ellipsoid",
                  "params": {"axes": [2.0, 1.0]}},
        "orders": [1],
        "exponents": [2.0],
        "grids": {"levels": 80, "rays": 512, "volume_panels": 200},
        "tasks": tasks,
        "output": {"directory": str(tmp_path / "out"),
                   "formats": ["json", "csv"]},
        "seed": 42,
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_dict({"tasks": ["af"], "bogus": 1})
        with pytest.raises(InputError):
            ExperimentConfig.from_dict(
                {"tasks": ["af"], "grids": {"panels": 2}})

    def test_unknown_task_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_dict({"tasks": ["nope"]})

    def test_empty_tasks_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_dict({"tasks": []})

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(InputError):
            ExperimentConfig.from_dict(
                {"tasks": ["af"], "grids": {"levels": 0}})


class TestRun:
    def test_polya_szego_report_values(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path, ["polya_szego"]))
        report = run(cfg)
        assert report["passed"]
        rows = report["tasks"]["polya_szego"]["rows"]
        main_row = rows[0]
        assert main_row["value"] == pytest.approx(1.963495, abs=2e-4)
        assert main_row["oracle"] == pytest.approx(1.570796, abs=2e-3)
        assert main_row["margin"] == pytest.approx(0.392699, abs=2e-3)
        assert main_row["passed"]

    def test_volume_panels_reach_polya_szego(self, tmp_path):
        lhs = []
        for panels in (50, 200):
            raw = base_config(tmp_path, ["polya_szego"], exponents=[])
            raw["grids"]["volume_panels"] = panels
            report = run(ExperimentConfig.from_dict(raw))
            lhs.append(report["tasks"]["polya_szego"]["rows"][0]["value"])
        assert lhs[0] != lhs[1]

    def test_levels_sampled_once_per_experiment(self, tmp_path, monkeypatch):
        calls = []
        sample_many = bodies.sample_many

        def recorded(norm, u, levels, *args, **kwargs):
            calls.append(np.array(levels))
            return sample_many(norm, u, levels, *args, **kwargs)

        monkeypatch.setattr(bodies, "sample_many", recorded)
        cfg = ExperimentConfig.from_dict(base_config(
            tmp_path, ["identities", "af", "symmetrize", "polya_szego",
                       "compare"], orders=[1, 2]))
        report = run(cfg)
        for task, data in report["tasks"].items():
            assert not any(r["case"].startswith("task error")
                           for r in data["rows"]), task
        u = cfg.build_field(cfg.build_norm())
        assert len(calls) == 1
        assert np.array_equal(calls[0], level_rule(u, 80, 512)[2])

    def test_level_table_sums_the_configured_orders(self, monkeypatch):
        # the run's one level table gets the config's orders; on ball3
        # (orders [1]) it builds no S_2 row, nor do the mixedvol bodies
        # (mixed_volume reads S_0..S_{n-2}): the one S_2 draw is the
        # identities task's two-route spread
        built, adjugates = [], []
        level_table, adjugate = cli.LevelTable, field_ops._adjugate_form

        def table(norm, u, levels, rays, orders):
            before = len(adjugates)
            out = level_table(norm, u, levels, rays, orders)
            built.append((orders, out.orders, len(adjugates) - before))
            return out

        def counted(h, v):
            adjugates.append(h.shape)
            return adjugate(h, v)

        monkeypatch.setattr(cli, "LevelTable", table)
        monkeypatch.setattr(field_ops, "_adjugate_form", counted)
        report = run(ExperimentConfig.from_dict(BALL3D))
        assert report["passed"]
        assert built == [([1], (1,), 0)]
        assert adjugates == [(100, 3, 3)]

    @pytest.mark.parametrize("name, directions", [
        ("ellipse", 400), ("ball3d", 96 * 48), ("regp2d", 2048)],
        ids=["ellipse", "ball3d", "regp2d"])
    def test_polar_rules_once_per_experiment(self, tmp_path, monkeypatch,
                                             name, directions):
        # one polar rule, at grids.volume_panels directions (in 3D, 96
        # longitudes by 48 latitudes), is built once and its table serves
        # every task; it is counted in every wulffsym module that holds
        # _polar_rule
        rules, tables = [], []
        polar_rule = rays._polar_rule

        def counted(u, count=None, panels=1):
            rule = polar_rule(u, count, panels)
            rules.append((rule[0].count, panels))
            return rule

        def recorded(norm, u, count, requests):
            tables.append((count, PolarTable(norm, u, count, requests)))
            return tables[-1][1]

        for mod in (rays, field_ops):
            monkeypatch.setattr(mod, "_polar_rule", counted)
        monkeypatch.setattr(cli, "PolarTable", recorded)
        raw = (json.loads(ELLIPSE_CONFIG.read_text()) if name == "ellipse"
               else dict(BALL3D if name == "ball3d" else REGP2D))
        raw["output"] = {"directory": str(tmp_path / "out")}
        cfg = ExperimentConfig.from_dict(raw)
        report = run(cfg)
        assert report["passed"]
        assert rules == [(directions, 1)]
        norm = cfg.build_norm()
        u = cfg.build_field(norm)
        standalone = {
            "hessian": lambda k, count: hessian_integral(norm, u, k, count),
            "generalized": lambda k, p, count: generalized_integral(
                norm, u, k, p, count),
            "lp": lambda p, count: lp_norm(u, p, count),
            "sk": lambda k, count: PolarTable(
                norm, u, count, [("sk", k)])[("sk", k)],
        }
        for count, table in tables:
            for req in table.requests:
                want = standalone[req[0]](*req[1:], count)
                assert np.array_equal(table[req], want), req

    @pytest.mark.parametrize("name, want", [
        ("ellipse", {2048: 1, 400: 1}), ("regp2d", {256: 1, 2048: 1}),
        ("ball3d", {96 * 48: 1})], ids=["ellipse", "regp2d", "ball3d"])
    def test_one_fan_per_direction_count(self, tmp_path, fan_counts, name,
                                         want):
        # the level table, mixedvol's samples and the polar table read the
        # field's one fan per direction count: one ray restriction and one
        # level-0 solve each, at grids.rays and grids.volume_panels; the
        # level rule adds the restriction of its one probe ray
        raw = (json.loads(ELLIPSE_CONFIG.read_text()) if name == "ellipse"
               else dict(BALL3D if name == "ball3d" else REGP2D))
        raw["output"] = {"directory": str(tmp_path / "out")}
        cfg = ExperimentConfig.from_dict(raw)
        norm, u = cfg.built
        cfg.built = (norm, fan_counts.watch(u))
        assert run(cfg)["passed"]
        assert dict(fan_counts.builds) == {**want, 1: 1}
        assert dict(fan_counts.solves) == want

    def test_bad_exponent_fails_only_its_tasks(self, tmp_path):
        # the generalized energy and L^q norm of p = 0.5 share the polar
        # tables of every other request, and raise only where they are read
        tasks = ["identities", "symmetrize", "polya_szego", "sobolev"]
        good = run(ExperimentConfig.from_dict(
            base_config(tmp_path, tasks, exponents=[1.5])))
        bad = run(ExperimentConfig.from_dict(
            base_config(tmp_path, tasks, exponents=[1.5, 0.5])))
        assert good["passed"]
        for task in ("identities", "symmetrize"):
            assert bad["tasks"][task] == good["tasks"][task]
        for task in ("polya_szego", "sobolev"):
            (row,) = bad["tasks"][task]["rows"]
            assert row["case"] == ("task error (DomainError): exponent p "
                                   "must be >= 1")

    @pytest.mark.parametrize("norm, field, order", [
        ({"family": "euclidean", "dim": 3},
         {"preset": "quadratic_ellipsoid"}, 1),
        ({"family": "ellipsoid", "dim": 3,
          "matrix": [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.25]]},
         {"preset": "radial_power", "params": {"a": 2.0}}, 2),
    ], ids=["ball3", "ellipsoid3"])
    def test_compare_in_3d(self, tmp_path, norm, field, order):
        # the constant source is its own rearrangement, so the radial
        # solve reads no 3D rearrangement grid
        raw = base_config(tmp_path, ["compare"], norm=norm, field=field,
                          orders=[order])
        raw["grids"] = {"levels": 40, "rays": 32}
        report = run(ExperimentConfig.from_dict(raw))
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["passed"], row["case"]

    def test_volume_panels_reach_comparison_grid(self, tmp_path,
                                                 monkeypatch):
        # the S_k check reads the polar rule at grids.volume_panels, not
        # the sampling's grids.rays; the constant source needs no
        # rearrangement grid
        calls = []
        polar_rule = rays._polar_rule

        def recorded(u, count=None, panels=1):
            calls.append((count, panels))
            return polar_rule(u, count, panels)

        for mod in (rays, field_ops):
            monkeypatch.setattr(mod, "_polar_rule", recorded)
        report = run(ExperimentConfig.from_dict(
            base_config(tmp_path, ["compare"])))
        assert report["passed"]
        assert calls == [(200, 1)]

    def test_non_finite_sk_maximum_is_a_task_error(self, tmp_path,
                                                   monkeypatch):
        # a nan S_k on one polar node must not become the compare source
        def with_nan(*args):
            table = PolarTable(*args)
            table[("sk", 1)][0, 0] = np.nan
            return table

        monkeypatch.setattr(cli, "PolarTable", with_nan)
        report = run(ExperimentConfig.from_dict(
            base_config(tmp_path, ["compare"])))
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["case"].startswith("task error (NumericError)")

    def test_norm_and_field_built_once(self, tmp_path, monkeypatch):
        # from_dict builds them to validate the config and run reuses
        # them; the grids may still change in between, as check does
        built = []
        build_preset = cli.build_preset

        def counted(*args, **kwargs):
            built.append(1)
            return build_preset(*args, **kwargs)

        monkeypatch.setattr(cli, "build_preset", counted)
        cfg = ExperimentConfig.from_dict(base_config(tmp_path, ["af"]))
        cfg.grids["levels"] = 40
        calls = []
        sample_many = bodies.sample_many

        def recorded(norm, u, levels, *args, **kwargs):
            calls.append(len(levels))
            return sample_many(norm, u, levels, *args, **kwargs)

        monkeypatch.setattr(bodies, "sample_many", recorded)
        assert run(cfg)["passed"]
        assert len(built) == 1
        assert calls == [40]

    def test_level_residual_row(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path, ["identities"]))
        rows = run(cfg)["tasks"]["identities"]["rows"]
        (row,) = [r for r in rows if r["case"] == "level-set residual max"]
        norm, u = cfg.built
        want = bodies.LevelTable(norm, u, 80, 512).residual_max
        assert row["value"] == want
        assert 0.0 <= want <= 1e-9
        assert row["tolerance"] == 1e-9 and row["passed"]

    def test_too_few_radial_nodes_is_an_error_row(self, tmp_path):
        raw = base_config(tmp_path, ["compare"])
        raw["grids"]["radial_nodes"] = 1
        report = run(ExperimentConfig.from_dict(raw))
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["case"] == ("task error (DomainError): the radial solver "
                               "needs nodes >= 2; got 1")

    def test_too_few_levels_is_an_error_row(self, tmp_path):
        # below 10 levels the level grid cannot reach t = 0
        raw = base_config(tmp_path, ["af"])
        raw["grids"]["levels"] = 5
        report = run(ExperimentConfig.from_dict(raw))
        assert not report["passed"]
        (row,) = report["tasks"]["af"]["rows"]
        assert row["case"].startswith("task error (DomainError): ")
        assert "at least 10 levels" in row["case"]

    def test_outputs_written(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(tmp_path, ["symmetrize"]))
        report = run(cfg)
        assert report["passed"]
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "symmetrize.csv").exists()
        assert (out / "rho_profile_k1.csv").exists()
        assert (out / "zeta_profile_k1.csv").exists()
        header = (out / "symmetrize.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "task"

    def test_determinism_excluding_runtime(self, tmp_path):
        raw = base_config(tmp_path, ["invariants", "af"])
        r1 = run(ExperimentConfig.from_dict(raw))
        r2 = run(ExperimentConfig.from_dict(raw))
        r1.pop("runtime_seconds")
        r2.pop("runtime_seconds")
        s1 = json.dumps(r1, sort_keys=True)
        s2 = json.dumps(r2, sort_keys=True)
        assert s1 == s2

    def test_csv_float_format_is_lossless(self, tmp_path):
        import csv as csv_mod

        cfg = ExperimentConfig.from_dict(base_config(tmp_path, ["af"]))
        report = run(cfg)
        text = (tmp_path / "out" / "af.csv").read_text()
        assert "\r" not in text
        with open(tmp_path / "out" / "af.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        # 17 significant digits round-trip the binary values exactly
        want = report["tasks"]["af"]["rows"][0]["value"]
        assert float(rows[0]["value"]) == want


def full_run_config(norm, field, orders, grids):
    """A config of every task but invariants, as the check corpus runs."""
    return {"norm": norm, "field": field, "orders": orders,
            "exponents": [1.5], "grids": grids,
            "tasks": [t for t in cli.TASKS if t != "invariants"],
            "output": {}, "seed": 7}


EUCLID2 = {"family": "euclidean", "dim": 2}


class TestLevelRule:
    """Configs the refined level grid failed: the Gauss levels of one probe
    ray pass every row of them."""

    @pytest.mark.parametrize("raw", [
        full_run_config(EUCLID2, {"preset": "radial_power",
                                  "params": {"radius": 32.0}},
                        [1], {"levels": 160, "rays": 512}),
        full_run_config(EUCLID2, {"preset": "quadratic_ellipsoid"}, [1, 2],
                        {"levels": 10, "rays": 512}),
        full_run_config({"family": "euclidean", "dim": 3},
                        {"preset": "quadratic_ellipsoid"}, [1],
                        {"levels": 10, "rays": 16, "volume_panels": 16}),
    ], ids=["radial-power-radius-32", "disc-10-levels", "ball3-10-levels"])
    def test_every_row_passes(self, raw):
        report = run(ExperimentConfig.from_dict(raw))
        failed = [(task, r["case"], r["k"], r["margin"])
                  for task, data in report["tasks"].items()
                  for r in data["rows"] if not r["passed"]]
        assert report["passed"] and not failed, failed

    def test_sixth_power_at_200_levels(self):
        # the lowest Gauss levels of a = 6 are skipped (they round onto the
        # minimum or are degenerate) and take the anchor limit; the
        # Polya-Szego and L^2 sides of this Wulff-radial field agree
        raw = full_run_config(
            {"family": "ellipsoid", "dim": 2,
             "matrix": [[4.0, 0.0], [0.0, 1.0]]},
            {"preset": "radial_power", "params": {"a": 6.0}}, [1, 2],
            {"levels": 200, "rays": 512})
        with pytest.warns(UserWarning, match="skipping degenerate level"):
            report = run(ExperimentConfig.from_dict(raw))
        assert report["passed"]
        rows = [r for task in ("polya_szego", "symmetrize")
                for r in report["tasks"][task]["rows"]
                if r["case"] in ("hessian energy drop", "L2 monotonicity")]
        assert len(rows) == 4
        for r in rows:
            assert abs(r["margin"]) <= 1e-12 * (1.0 + abs(r["value"])), r

class TestCheck:
    def test_corpus_passes(self, capsys):
        assert main(["check"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_check_tasks_all_have_rows(self, monkeypatch, capsys,
                                       fan_counts):
        # a task with no rows would pass on all([]); check requests
        # sobolev only where a (k, p) lies below the borderline n - k + 1.
        # Each entry builds one ray fan per direction count: 512 and 2048
        # in 2D, 96 x 48 in 3D, and the level rule's probe-ray
        # restriction; the invariant kernel samples nothing
        reports, fans = [], []
        real_run = cli.run

        def recorded(cfg):
            fan_counts.builds.clear()
            fan_counts.solves.clear()
            norm, u = cfg.built
            cfg.built = (norm, fan_counts.watch(u))
            reports.append(real_run(cfg))
            fans.append((cfg.norm["dim"], dict(fan_counts.builds),
                         dict(fan_counts.solves)))
            return reports[-1]

        monkeypatch.setattr(cli, "run", recorded)
        assert cli._check() == 0
        assert len(reports) == len(cli.regression_corpus()) + 1
        for report in reports:
            for task, data in report["tasks"].items():
                assert data["rows"], task
                assert all(r["case"] != "nothing to check"
                           for r in data["rows"]), task
        # coarea against direct energy on every corpus entry but the
        # regularized_p one, whose direct energy the ray count bounds, and
        # the aniso-cubic Polya-Szego sides
        for (name, raw), report in zip(cli.regression_corpus(), reports):
            rows = report["tasks"]["identities"]["rows"]
            coarea = [r for r in rows
                      if r["case"] == "coarea vs direct energy"]
            assert len(coarea) == len(raw["orders"]), name
            if name != "regp-wulff":
                for r in coarea:
                    assert abs(r["margin"]) <= 1e-10 * (
                        1.0 + abs(r["oracle"])), (name, r)
            if name == "aniso-cubic":
                (ps,) = [r for r in report["tasks"]["polya_szego"]["rows"]
                         if r["case"] == "hessian energy drop"]
                assert abs(ps["margin"]) <= 1e-10, ps
        with_sobolev = [r["config"]["orders"] for r in reports
                        if "sobolev" in r["tasks"]]
        assert len(with_sobolev) == 7
        want = {2: {512: 1, 2048: 1}, 3: {96 * 48: 1}}
        assert fans[:-1] == [(dim, {**want[dim], 1: 1}, want[dim])
                             for dim, _, _ in fans[:-1]]
        assert fans[-1] == (2, {}, {})

    def test_check_samples_96_rays_in_3d(self, monkeypatch):
        grids = []

        def stub(cfg):
            grids.append((cfg.norm["dim"], dict(cfg.grids)))
            return {"passed": True, "runtime_seconds": 0.0, "tasks": {}}

        monkeypatch.setattr(cli, "run", stub)
        assert cli._check() == 0
        in_3d = [g for dim, g in grids if dim == 3]
        assert len(in_3d) == 2
        assert all(g["rays"] == 96 for g in in_3d)

    def test_check_runs_the_corpus_configs_unedited(self, monkeypatch):
        # every grid, task and other setting of a check run is the one
        # its corpus entry validates to
        seen = []

        def stub(cfg):
            seen.append(cfg)
            return {"passed": True, "runtime_seconds": 0.0, "tasks": {}}

        monkeypatch.setattr(cli, "run", stub)
        assert cli._check() == 0
        want = [ExperimentConfig.from_dict(raw)
                for _, raw in cli.regression_corpus()]
        assert seen[:-1] == want


class TestMain:
    def test_run_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, ["af"])))
        assert main(["run", "--config", str(path)]) == 0

    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tasks": ["nope"]}))
        assert main(["run", "--config", str(path)]) == 2
        missing = tmp_path / "not-there.json"
        assert main(["run", "--config", str(missing)]) == 2

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "quadratic_ellipsoid" in out
        assert "radial_power" in out
        assert "perturbed_radial" in out

    @pytest.mark.parametrize("change, named", [
        ({"field": {"preset": "quadratic_ellipsoid",
                    "params": {"bogus": 1}}}, "axes"),
        ({"field": {"preset": "quadratic_ellipsoid", "params": [1]}},
         "params"),
        ({"orders": 1}, "orders"),
        ({"exponents": 2.0}, "exponents"),
        ({"grids": {"levels": None}}, "levels"),
        ({"seed": -1}, "seed"),
        ({"grids": {"levels": 40.7}}, "levels"),
        ({"orders": "12"}, "orders"),
        ({"output": {"formats": "json"}}, "formats"),
        ({"norm": {"family": "ellipsoid", "dim": 3,
                   "matrix": [[4.0, 0.0], [0.0, 1.0]]}},
         "dim must equal the matrix size 2; got 3"),
        ({"output": {"directory": 5}}, "directory"),
        ({"field": {"preset": "quadratic_ellipsoid",
                    "source_constant": "abc"}}, "source_constant"),
        ({"field": {"preset": "quadratic_ellipsoid",
                    "source_constant": -1}}, "source_constant"),
        ({"field": {"preset": "quadratic_ellipsoid",
                    "source_constant": True}}, "source_constant"),
        ({"exponents": [math.inf]}, "exponents must be finite; got inf"),
        ({"exponents": [math.nan]}, "exponents must be finite; got nan"),
        ({"norm": {"family": "regularized_p", "dim": 2, "eps": math.inf}},
         "norm eps must be finite"),
        ({"field": {"preset": "radial_power", "params": {"a": math.nan}}},
         "field params a must be finite"),
        ({"field": {"preset": "radial_power",
                    "params": {"radius": math.inf}}},
         "field params radius must be finite"),
        ({"field": {"preset": "perturbed_radial",
                    "params": {"strength": math.nan}}},
         "field params strength must be finite"),
        ({"field": {"preset": "perturbed_radial",
                    "params": {"weights": [1.0, math.nan]}}},
         "field params weights must be finite"),
    ], ids=["preset-param", "params-list", "orders-int", "exponents-float",
            "levels-null", "seed-negative", "levels-float", "orders-string",
            "formats-string", "ellipsoid-dim", "directory-int",
            "source-string", "source-negative", "source-bool", "exponent-inf",
            "exponent-nan", "eps-inf", "power-nan", "radius-inf",
            "strength-nan", "weights-nan"])
    def test_config_value_errors_exit_2(self, tmp_path, capsys, change,
                                        named):
        raw = base_config(tmp_path, ["invariants"])
        raw.update(change)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_budget_exit_2(self, monkeypatch, capsys, threads):
        monkeypatch.setenv("WULFFSYM_THREADS", threads)
        assert main(["presets"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: WULFFSYM_THREADS must be ")

    def test_unusable_output_directory_exit_2(self, tmp_path, capsys):
        raw = base_config(tmp_path, ["af"])
        taken = tmp_path / "out"
        taken.write_text("a file, not a directory")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(taken) in err
        # --out is an output directory too
        assert main(["run", "--config", str(path), "--out",
                     str(taken / "sub")]) == 2
        assert str(taken / "sub") in capsys.readouterr().err

    def test_invalid_norm_spec_exit_2(self, tmp_path):
        raw = base_config(tmp_path, ["af"])
        raw["norm"] = {"family": "ellipsoid", "dim": 2}  # matrix missing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2

    def test_small_perturbed_domain_passes_every_task(self, tmp_path):
        # {u < 0} lies far inside the base Wulff box; a sampled convexity
        # check at build once found no interior point and exited 2
        raw = base_config(tmp_path, list(cli.TASKS), orders=[1],
                          exponents=[1.5])
        raw["norm"] = {"family": "euclidean", "dim": 3}
        raw["field"] = {"preset": "perturbed_radial", "params": {
            "a": 5.035, "radius": 0.106, "strength": 0.027,
            "weights": [2.232, 1.964, 0.288]}}
        raw["grids"] = {"levels": 40, "rays": 32}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["tasks"]) == set(cli.TASKS)

    def test_task_failure_exit_1(self, tmp_path):
        # five levels are too few for a level grid; the task records the
        # failure and the run exits 1
        raw = base_config(tmp_path, ["compare"])
        raw["grids"]["levels"] = 5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["case"].startswith("task error (DomainError): ")

    @pytest.mark.parametrize("tasks, orders", [
        (["symmetrize", "polya_szego", "compare"], []),
        (["sobolev"], [2]),
    ], ids=["no-orders", "sobolev-borderline"])
    def test_task_with_nothing_to_check_fails(self, tmp_path, tasks, orders):
        # no orders leave the order-wise tasks without rows, and in 2D
        # the k = 2 Sobolev case has no exponent p = 2 below n - k + 1 = 1
        raw = base_config(tmp_path, tasks, orders=orders)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for task in tasks:
            (row,) = report["tasks"][task]["rows"]
            assert row["case"] == "nothing to check"
            assert not row["passed"] and not report["tasks"][task]["passed"]
        text = (tmp_path / "out" / f"{tasks[0]}.csv").read_text()
        assert (text.splitlines()[1]
                == f"{tasks[0]},nothing to check,,,,,,,false")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "_task_af", broken)
        with pytest.raises(TypeError):
            run(ExperimentConfig.from_dict(base_config(tmp_path, ["af"])))
