"""End-to-end tests for the batch experiment harness.

Everything runs the real ``main`` in-process on small grids: exit codes
(0 pass / 1 failed check / 2 rejected config), the summary.csv schema,
byte-identical reruns, and the --seed / --out / environment precedence.
"""

import csv
import dataclasses
import filecmp
import json
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gbrownian import (CylinderFunctional, GBSDEProblem, GParams, SpaceGrid,
                        TimeGrid, pde_residual, solve_gheat, solve_ppde)
from gbrownian import cli
from gbrownian import gbsde as gbsde_mod
from gbrownian.gheat import gradient
from gbrownian.cli import OUT_DIR_ENV, main


def base_config(**overrides):
    cfg = {
        "band": {"sigma_lo": 1.0, "sigma_hi": 2.0},
        "grids": {"T": 1.0, "n_steps": 400, "x_min": -6.0, "x_max": 6.0,
                  "n_points": 121},
        "mc": {"n_paths": 300, "seed": 11, "n_steps": 64},
        "experiments": [],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="suite.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_summary(out_dir):
    with open(os.path.join(str(out_dir), "summary.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigRejection:
    def rejects(self, tmp_path, capsys, cfg, *needles):
        code = main(["run", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        for needle in needles:
            assert needle in err
        return err

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "frobnicate"}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]", "frobnicate")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = base_config()
        cfg["bands"] = {}
        self.rejects(tmp_path, capsys, cfg, "top level", "bands")

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg = base_config(mc={"paths": 10},
                          experiments=[{"name": "gexp"}])
        self.rejects(tmp_path, capsys, cfg, "paths")

    def test_unknown_payoff(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "gexp", "payoff": "cubic"}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]", "cubic")

    def test_degenerate_band(self, tmp_path, capsys):
        cfg = base_config(band={"sigma_lo": 0.0, "sigma_hi": 2.0},
                          experiments=[{"name": "gexp"}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]")

    def test_cfl_violation_names_the_experiment(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "solve-gheat"}])
        cfg["grids"]["n_steps"] = 50
        self.rejects(tmp_path, capsys, cfg, "experiments[0]")

    def test_infinite_grid_bound(self, tmp_path, capsys):
        # json writes and reads the bound as -Infinity
        cfg = base_config(experiments=[{"name": "gexp"}])
        cfg["grids"]["x_min"] = -math.inf
        self.rejects(tmp_path, capsys, cfg, "experiments[0]", "x_min")

    @pytest.mark.parametrize("experiment,location", [
        ({"name": "gexp", "payoff": "x2", "dates": [math.nan]},
         "experiments[0].dates"),
        ({"name": "gexp", "payoff": "x2", "dates": [math.inf]},
         "experiments[0].dates"),
        ({"name": "identify-drift",
          "eta": {"breaks": [0.0, math.nan, 1.0], "values": [1.0, -1.0]}},
         "experiments[0].eta.breaks"),
        ({"name": "verify-theorem35",
          "zeta": {"breaks": [0.0, 0.25, 1.0], "values": [math.inf, 0.5]}},
         "experiments[0].zeta.values"),
        ({"name": "gbsde", "rate": math.nan}, "experiments[0].rate"),
        ({"name": "decompose", "budget": math.nan}, "experiments[0].budget"),
        ({"name": "price-uvm", "payoff": "call", "strike": -math.inf},
         "experiments[0].strike"),
    ], ids=["gexp-dates-nan", "gexp-dates-inf", "drift-breaks-nan",
            "theorem35-zeta-inf", "gbsde-rate-nan", "decompose-budget-nan",
            "uvm-strike-minus-inf"])
    def test_non_finite_number(self, tmp_path, capsys, experiment, location):
        # json writes and reads these as NaN, Infinity and -Infinity
        self.rejects(tmp_path, capsys, base_config(experiments=[experiment]),
                     location, "finite")

    @pytest.mark.parametrize("experiment,location", [
        ({"name": "identify-drift", "eta": 1.0}, "experiments[0].eta"),
        ({"name": "verify-theorem35", "zeta": [0.0, 1.0]},
         "experiments[0].zeta"),
        ({"name": "identify-drift", "eta": {"values": [1.0, -1.0]}},
         "experiments[0].eta.breaks"),
        ({"name": "gexp", "payoff": "x2", "dates": 1.0},
         "experiments[0].dates"),
        ({"name": "gexp", "payoff": ["x2"]}, "experiments[0].payoff"),
        ({"name": "gbsde", "driver": ["zero"]}, "experiments[0].driver"),
        ({"name": ["gexp"]}, "experiments[0].name"),
        # a misspelled key is refused, not ignored in favour of its default
        ({"name": "gexp", "payof": "max2", "strik": 3},
         "experiments[0].payof"),
        ({"name": "gbsde", "driver": "zero", "rates": 0.2},
         "experiments[0].rates"),
        # a key that another runner reads
        ({"name": "gexp", "time_stride": 4}, "experiments[0].time_stride"),
        ({"name": "verify-martingale", "payoff": "x2"},
         "experiments[0].payoff"),
        ({"name": "gexp", "grids": {"n_pts": 3}}, "experiments[0].grids"),
    ], ids=["eta-not-an-object", "zeta-not-an-object", "eta-without-breaks",
            "dates-not-a-list", "payoff-a-list", "driver-a-list",
            "name-a-list", "payoff-typo", "gbsde-rate-typo",
            "another-runners-key", "payoff-on-a-payoff-free-runner",
            "grids-typo"])
    def test_malformed_shape(self, tmp_path, capsys, experiment, location):
        self.rejects(tmp_path, capsys, base_config(experiments=[experiment]),
                     location)

    def test_drift_breaks_must_increase(self, tmp_path, capsys):
        cfg = base_config(experiments=[{
            "name": "identify-drift",
            "eta": {"breaks": [0.0, 0.5, 0.5, 1.0], "values": [1.0, -1.0, 1.0]}}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]",
                     "strictly increasing", "0.5, 0.5")

    def test_theorem35_zeta_breaks_must_increase(self, tmp_path, capsys):
        # read unchecked, the step-2 table of an unsorted zeta passes
        cfg = base_config(experiments=[{
            "name": "verify-theorem35",
            "zeta": {"breaks": [0.0, 0.75, 0.25, 1.0],
                     "values": [1.0, 2.0, 3.0]}}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]",
                     "zeta breaks must be finite and strictly increasing")

    def test_wrong_number_of_dates(self, tmp_path, capsys):
        cfg = base_config(experiments=[
            {"name": "gexp", "payoff": "max2", "dates": [1.0]}])
        self.rejects(tmp_path, capsys, cfg, "experiments[0]", "max2")

    def test_experiments_must_be_a_list(self, tmp_path, capsys):
        cfg = base_config(experiments={"name": "gexp"})
        self.rejects(tmp_path, capsys, cfg, "experiments")

    def test_experiment_needs_a_name(self, tmp_path, capsys):
        self.rejects(tmp_path, capsys, base_config(experiments=[{}]),
                     "experiments[0]")

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_rejected_suite_writes_no_summary(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "frobnicate"}])
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        capsys.readouterr()
        assert not (out / "summary.csv").exists()


class TestExitCodes:
    def test_empty_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, base_config()),
                     "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout
        assert read_summary(out) == []

    def test_green_suite(self, tmp_path, capsys):
        cfg = base_config(experiments=[
            {"name": "solve-gheat", "payoff": "butterfly"},
            {"name": "gexp", "payoff": "x2"},
            {"name": "price-uvm", "payoff": "butterfly"},
            {"name": "gbsde", "payoff": "x2", "driver": "discount",
             "rate": 0.1},
            {"name": "decompose", "payoff": "x2"},
            {"name": "verify-martingale"},
        ])
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout
        rows = read_summary(out)
        assert rows and all(r["status"] in ("pass", "info") for r in rows)
        for i, name in enumerate(["solve-gheat", "gexp", "price-uvm",
                                  "gbsde", "decompose", "verify-martingale"]):
            assert (out / f"{i:02d}-{name}.csv").exists()
        upper = {(r["experiment"], r["metric"]): r["value"] for r in rows}
        assert float(upper[("01-gexp", "upper-value")]) == pytest.approx(
            4.0, abs=0.05)
        assert float(upper[("01-gexp", "lower-value")]) == pytest.approx(
            1.0, abs=0.05)

    def test_failed_check_returns_one(self, tmp_path, capsys):
        cfg = base_config(experiments=[
            {"name": "decompose", "payoff": "x2", "budget": 1e-15}])
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in stdout
        statuses = [r["status"] for r in read_summary(out)
                    if r["metric"] == "max-reconstruction-residual"]
        assert statuses == ["fail"]


class TestOutputs:
    def green(self, tmp_path, out_name, extra_args=()):
        cfg = base_config(experiments=[
            {"name": "decompose", "payoff": "abs"},
            {"name": "verify-martingale"},
        ])
        out = tmp_path / out_name
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out),
                     *extra_args])
        assert code == 0
        return out

    def test_summary_schema(self, tmp_path, capsys):
        out = self.green(tmp_path, "out")
        capsys.readouterr()
        with open(out / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["experiment", "metric", "value", "tolerance",
                          "seed", "status"]
        for row in read_summary(out):
            assert row["status"] in ("pass", "fail", "info")
            float(row["value"])  # floats and int flags round-trip
            if row["tolerance"]:
                assert float(row["tolerance"]) >= 0.0
            assert row["seed"] in ("", "11")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        first = self.green(tmp_path, "first")
        second = self.green(tmp_path, "second")
        capsys.readouterr()
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                                   shallow=False)
        assert (sorted(match), mismatch, errors) == (names, [], [])

    def test_residual_check_reads_every_interior_column(self, tmp_path, capsys):
        # README grids; the x2 residual peaks next to the boundary (grid
        # column 1), which a second interior slice would skip
        grids = {"T": 1.0, "n_steps": 2048, "x_min": -6.0, "x_max": 6.0,
                 "n_points": 241}
        cfg = base_config(grids=grids,
                          experiments=[{"name": "solve-gheat", "payoff": "x2"}])
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        surface = solve_gheat(lambda x: x * x, GParams(1.0, 2.0),
                              TimeGrid(1.0, 2048), SpaceGrid(-6.0, 6.0, 241))
        want = float(np.max(np.abs(pde_residual(surface))))
        got = {r["metric"]: float(r["value"]) for r in read_summary(out)}
        assert got["interior-equation-residual"] == want

    def test_gbsde_profile_is_the_solved_surface_row(self, tmp_path, capsys):
        cfg = base_config(experiments=[
            {"name": "gbsde", "payoff": "x2", "driver": "discount",
             "rate": 0.1}])
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        space = SpaceGrid(-6.0, 6.0, 121)
        xi = CylinderFunctional((1.0,), lambda x: x * x, 10.0, 25.0)
        problem = GBSDEProblem(xi, lambda t, y, z: -0.1 * y, GParams(1.0, 2.0),
                               0.1)
        y = solve_ppde(problem, TimeGrid(1.0, 400), space).y_values
        z = gradient(y, space.dx)       # the whole surface's gradient
        with open(out / "00-gbsde.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["y0"]).hex() for r in rows] == [v.hex() for v in y[0]]
        assert [float(r["z0"]).hex() for r in rows] == [v.hex() for v in z[0]]

    def test_surface_export_is_strided(self, tmp_path, capsys):
        cfg = base_config(experiments=[
            {"name": "solve-gheat", "payoff": "butterfly",
             "time_stride": 100}])
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "00-solve-gheat.csv").read_text().splitlines()
        assert lines[0] == "t,x,u,du_dx,d2u_dx2"
        assert len(lines) == 1 + 5 * 121  # times 0, .25, .5, .75, 1


class TestBudgetScales:
    """The checks' budget scale ``max(1, max |v|)`` is read from a surface's
    max and min: the whole-array formula's bits, with no surface-sized
    temporary.  The solvers are stubbed by ready surfaces whose largest
    magnitude is a minimum, so the runner's own scratch is what is traced."""

    WHERE = "experiments[0]"
    TIME = TimeGrid(1.0, 2000)
    SPACE = SpaceGrid(-6.0, 6.0, 121)

    def run(self, runner, exp, tmp_path):
        env = cli._Env(base_config(), exp, self.WHERE, None)
        tracemalloc.start()
        try:
            rows = runner(env, exp, "00", str(tmp_path), self.WHERE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {r["metric"]: r for r in rows}, peak

    @staticmethod
    def budget(rel, values):
        return (rel * max(1.0, float(np.max(np.abs(values))))).hex()

    def test_solve_gheat(self, monkeypatch, tmp_path):
        surface = solve_gheat(lambda x: -x * x, GParams(1.0, 2.0), self.TIME,
                              self.SPACE)
        monkeypatch.setattr(cli, "solve_gheat", lambda *a: surface)
        monkeypatch.setattr(cli, "export_surface_csv", lambda *a, **k: None)
        monkeypatch.setattr(cli, "pde_residual", lambda s: np.zeros(1))
        rows, peak = self.run(cli._run_solve_gheat,
                              {"name": "solve-gheat", "payoff": "x2"}, tmp_path)
        tol = float(rows["interior-equation-residual"]["tolerance"])
        assert tol.hex() == self.budget(1e-9, surface.values)
        assert peak <= surface.values.nbytes // 16, peak

    def test_gbsde(self, monkeypatch, tmp_path):
        xi = CylinderFunctional((1.0,), lambda x: -x * x, 10.0, 64.0)
        problem = GBSDEProblem(xi, lambda t, y, z: -0.1 * y,
                               GParams(1.0, 2.0), 0.1)
        solution = solve_ppde(problem, self.TIME, self.SPACE)
        y = solution.y_values
        picard = gbsde_mod.GBSDESolution(problem, dataclasses.replace(
            solution.surface, values=solution.surface.values * (1.0 + 1e-12)))
        relation = SimpleNamespace(k_initial=0.0, k_monotone=True)
        equiv = SimpleNamespace(pde_residual=0.0, pde_tol=1.0,
                                bsde_residual=0.0, bsde_tol=1.0,
                                relation=relation)
        monkeypatch.setattr(gbsde_mod, "solve_ppde", lambda *a: solution)
        monkeypatch.setattr(gbsde_mod, "solve_ppde_picard",
                            lambda *a: (picard, 2, 0.0))
        monkeypatch.setattr(cli, "simulate", lambda *a: None)
        monkeypatch.setattr(gbsde_mod, "equivalence_check", lambda s, b: equiv)
        rows, peak = self.run(cli._run_gbsde, {"name": "gbsde", "payoff": "x2"},
                              tmp_path)
        gap = rows["picard-agreement"]
        assert float(gap["value"]).hex() == \
            float(np.max(np.abs(picard.y_values - y))).hex()
        assert float(gap["tolerance"]).hex() == self.budget(1e-7, y)
        # the Picard gap takes one difference array, reduced in place
        assert peak <= y.nbytes + y.nbytes // 16, (peak, y.nbytes)


class TestSeedAndOutPrecedence:
    def run_decompose(self, tmp_path, out_name, *extra):
        cfg = base_config(experiments=[{"name": "decompose", "payoff": "x2"}])
        out = tmp_path / out_name
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out),
                     *extra]) == 0
        return out

    def test_seed_flag_overrides_the_config(self, tmp_path, capsys):
        out1 = self.run_decompose(tmp_path, "s1", "--seed", "1")
        out2 = self.run_decompose(tmp_path, "s2", "--seed", "2")
        capsys.readouterr()
        seeds1 = {r["seed"] for r in read_summary(out1) if r["seed"]}
        seeds2 = {r["seed"] for r in read_summary(out2) if r["seed"]}
        assert seeds1 == {"1"} and seeds2 == {"2"}
        assert not filecmp.cmp(out1 / "00-decompose.csv",
                               out2 / "00-decompose.csv", shallow=False)

    def test_out_comes_from_the_environment(self, tmp_path, capsys,
                                            monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv(OUT_DIR_ENV, str(target))
        cfg = base_config(experiments=[{"name": "gexp", "payoff": "abs"}])
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        assert (target / "summary.csv").exists()

    def test_out_flag_beats_the_environment(self, tmp_path, capsys,
                                            monkeypatch):
        decoy = tmp_path / "decoy"
        chosen = tmp_path / "chosen"
        monkeypatch.setenv(OUT_DIR_ENV, str(decoy))
        cfg = base_config(experiments=[{"name": "gexp", "payoff": "abs"}])
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(chosen)]) == 0
        capsys.readouterr()
        assert (chosen / "summary.csv").exists()
        assert not decoy.exists()


class TestVerificationSuites:
    def test_theorem35_defaults_pass(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "verify-theorem35"}])
        cfg["mc"]["n_paths"] = 400
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout
        rows = read_summary(out)
        metrics = {r["metric"]: r["status"] for r in rows}
        for metric in ("step1-compensating-level-gap",
                       "step2-aligned-gaps-exactly-zero",
                       "step2-per-block-identity",
                       "step3-k-martingale-under-rewrites",
                       "step3-block-budget-gap",
                       "step4-proportionality-exact"):
            assert metrics[metric] == "pass"

    def test_lemma32_matches_across_refinements(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "verify-lemma32"}])
        cfg["mc"]["n_paths"] = 400
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        match_rows = [r for r in read_summary(out)
                      if r["metric"].startswith("match-")]
        assert len(match_rows) == 9
        assert all(r["status"] == "pass" for r in match_rows)

    def test_identify_drift_recovers_the_rates(self, tmp_path, capsys):
        cfg = base_config(experiments=[{"name": "identify-drift"}])
        cfg["mc"]["n_paths"] = 2000
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [r for r in read_summary(out)
                if r["metric"].startswith("drift-rate-")]
        assert len(rows) == 2
        assert all(r["status"] == "pass" for r in rows)
        with open(out / "00-identify-drift.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [float(r["exact_c"]) for r in table] == [4.0, -1.0]
        for r in table:
            assert abs(float(r["identified_c"]) - float(r["exact_c"])) \
                <= 0.02 * max(abs(float(r["exact_c"])), 0.5)
