import json
from pathlib import Path

import numpy as np
import pytest

from wulffsym import bodies, cli, field_ops, rays
from wulffsym.cli import ExperimentConfig, main, run
from wulffsym.errors import InputError
from wulffsym.field_ops import (
    PolarTable,
    generalized_integral,
    hessian_integral,
    level_grid,
    lp_norm,
)

ELLIPSE_CONFIG = (Path(__file__).resolve().parents[1] / "scripts" / "configs"
                  / "ellipse_polya_szego.json")
BALL3D = {
    "norm": {"family": "euclidean", "dim": 3},
    "field": {"preset": "quadratic_ellipsoid"},
    "orders": [1],
    "exponents": [1.5],
    "grids": {"levels": 150, "rays": 96, "volume_panels": 96},
    "tasks": ["identities", "mixedvol", "af", "polya_szego", "sobolev"],
    "seed": 42,
}


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
        assert np.array_equal(calls[0], level_grid(u, 80))

    @pytest.mark.parametrize("name, most", [("ellipse", 3), ("ball3d", 1)],
                             ids=["ellipse", "ball3d"])
    def test_polar_rules_once_per_experiment(self, tmp_path, monkeypatch,
                                             name, most):
        # each polar rule is built once and its table serves every task;
        # it is counted in every wulffsym module that holds _polar_rule
        rules, tables = [], []
        polar_rule = rays._polar_rule

        def counted(u, count=None, panels=1):
            rules.append((count, panels))
            return polar_rule(u, count, panels)

        def recorded(norm, u, count, requests):
            tables.append((count, PolarTable(norm, u, count, requests)))
            return tables[-1][1]

        for mod in (rays, field_ops):
            monkeypatch.setattr(mod, "_polar_rule", counted)
        monkeypatch.setattr(cli, "PolarTable", recorded)
        raw = (json.loads(ELLIPSE_CONFIG.read_text()) if name == "ellipse"
               else dict(BALL3D))
        raw["output"] = {"directory": str(tmp_path / "out")}
        cfg = ExperimentConfig.from_dict(raw)
        report = run(cfg)
        assert report["passed"]
        assert len(rules) <= most
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
        # the constant source ties the rearranged density everywhere
        raw = base_config(tmp_path, ["compare"], norm=norm, field=field,
                          orders=[order])
        raw["grids"] = {"levels": 40, "rays": 32}
        report = run(ExperimentConfig.from_dict(raw))
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["passed"], row["case"]

    def test_rays_reach_comparison_grid(self, tmp_path, monkeypatch):
        # the S_k check reads the polar rule at grids.rays; rearrange reads
        # its own 256-ray, 43-panel grid
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
        assert calls == [(512, 1), (256, 43)]

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


class TestCheck:
    def test_fast_check_samples_96_rays_in_3d(self, monkeypatch):
        grids = []

        def stub(cfg):
            grids.append((cfg.norm["dim"], dict(cfg.grids)))
            return {"passed": True, "runtime_seconds": 0.0, "tasks": {}}

        monkeypatch.setattr(cli, "run", stub)
        assert cli._check(fast=True) == 0
        in_3d = [g for dim, g in grids if dim == 3]
        assert len(in_3d) == 2
        assert all(g["rays"] == 96 for g in in_3d)


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

    def test_seed_and_format_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(tmp_path, ["invariants"])))
        assert main(["run", "--config", str(path), "--seed", "3",
                     "--format", "json"]) == 0
        assert not (tmp_path / "out" / "invariants.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_invalid_norm_spec_exit_2(self, tmp_path):
        raw = base_config(tmp_path, ["af"])
        raw["norm"] = {"family": "ellipsoid", "dim": 2}  # matrix missing
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2

    def test_task_failure_exit_1(self, tmp_path):
        # a comparison source below S_k[u] violates the precondition; the
        # task records the failure and the run exits 1
        raw = base_config(tmp_path, ["compare"])
        raw["field"]["source_constant"] = 0.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (row,) = report["tasks"]["compare"]["rows"]
        assert row["case"].startswith("task error (InputError): ")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "_task_af", broken)
        with pytest.raises(TypeError):
            run(ExperimentConfig.from_dict(base_config(tmp_path, ["af"])))
