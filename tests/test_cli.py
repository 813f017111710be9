import json

import numpy as np
import pytest

from wulffsym import bodies, cli, symmetrize
from wulffsym.cli import ExperimentConfig, main, run
from wulffsym.errors import InputError
from wulffsym.field_ops import level_grid


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

        def recorded(norm, u, levels, rays=None):
            calls.append(np.array(levels))
            return sample_many(norm, u, levels, rays)

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

    def test_generalized_energy_once_per_experiment(self, tmp_path,
                                                    monkeypatch):
        # polya_szego and sobolev share each (k, p) energy; it is counted
        # in every wulffsym module that holds generalized_integral
        calls = []
        generalized_integral = cli.generalized_integral

        def counted(norm, u, k, p, rays=None):
            calls.append((k, p))
            return generalized_integral(norm, u, k, p, rays)

        for mod in (cli, symmetrize):
            if hasattr(mod, "generalized_integral"):
                monkeypatch.setattr(mod, "generalized_integral", counted)
        raw = base_config(tmp_path, ["polya_szego", "sobolev"],
                          exponents=[1.5])
        report = run(ExperimentConfig.from_dict(raw))
        assert report["passed"]
        assert calls == [(1, 1.5)]

    def test_rays_reach_comparison_grid(self, tmp_path, monkeypatch):
        calls = []
        polar_nodes = symmetrize.polar_nodes

        def recorded(u, rays=None, values_only=False):
            calls.append(rays)
            return polar_nodes(u, rays, values_only)

        monkeypatch.setattr(symmetrize, "polar_nodes", recorded)
        report = run(ExperimentConfig.from_dict(
            base_config(tmp_path, ["compare"])))
        assert report["passed"]
        assert calls == [512]

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
