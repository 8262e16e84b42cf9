import ast
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioup import cli, linalg, model, spectra, superop, validate

from conftest import misindexed_reports


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


def fail_first_operator(monkeypatch):
    """Make the first operator of every grid stack non-finite, so that its
    eigensolve fails."""
    operators = superop.Generator.operators

    def first_fails(self, *args):
        stack = operators(self, *args)
        stack[0, 0, 0] = np.nan
        return stack

    monkeypatch.setattr(superop.Generator, "operators", first_fails)


BASE = {"model": "eff3", "params": {"omega": 30.0, "j": 10.0, "q": 1.0}}
HUGE = 10 ** 400  # valid JSON, too large for a float


class TestSpectrumCommand:
    def test_liouvillian_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert run(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["eigenvalues"]) == 9
        assert doc["classifications"].count("stationary") == 1
        assert len(doc["splittings"]) == 36
        assert doc["metadata"]["config"]["model"] == "eff3"

    def test_triple_coalescence_visible_at_ep_tolerance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 30.0 / math.sqrt(2.0), "q": 0.0},
        })
        assert run(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        orders = {(round(float(d["cluster_value"]["re"])), d["order"])
                  for d in doc["degeneracies"]}
        assert (-60, 3) in orders and (-30, 2) in orders

    def test_report_indices_point_at_listed_eigenvalues(self, tmp_path, capsys):
        # conjugate doubles at -30 +- 18.708i, listed in one order
        cfg = write_config(tmp_path, {"model": "eff3",
                                      "params": {"omega": 30.0, "j": 25.0, "q": 0.5}})
        assert run(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["degeneracies"]) >= 2
        assert misindexed_reports(doc) == []

    def test_four_level_group_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "full4",
            "params": {"omega": 30.0, "j": 10.0,
                       "gamma_sp": 2 * math.pi * 5.7e6, "q": 1.0},
        })
        assert run(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [g["size"] for g in doc["real_part_groups"]] == [9, 6, 1]

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepCommand:
    def test_csv_layout_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BASE,
            "sweep": {"parameter": "j", "start": 15.0, "stop": 25.0, "points": 21},
        })
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == (["j"] + [f"re_{k}" for k in range(1, 10)]
                                       + [f"im_{k}" for k in range(1, 10)])
        assert len(lines) == 22
        assert all(len(row.split(",")) == 19 for row in lines[1:])
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["config"]["sweep"]["points"] == 21
        assert "tolerances" in meta

    def test_splitting_asymptote_from_csv(self, tmp_path):
        # weak jumps: the two largest-real branches split by ~4*Omega*q/3
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 10.0, "q": 0.001},
            "sweep": {"parameter": "j", "start": 3900.0, "stop": 4000.0,
                      "points": 3},
        })
        out = tmp_path / "split.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        re_parts = np.sort(values[:, 1:10], axis=1)
        # the four lowest real parts are the three jump-coupled branches plus
        # the fixed -2*Omega one; the topmost of them splits off by 4*Omega*q/3
        d78 = re_parts[:, 3] - re_parts[:, 2]
        assert np.abs(d78 - 0.04).max() < 1e-3

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BASE,
            "sweep": {"parameter": "j", "start": 5.0, "stop": 9.0, "points": 5},
        })
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BASE,
            "sweep": {"parameter": "j", "start": 5.0, "stop": 9.0, "points": 5},
        })
        out1 = tmp_path / "a.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        cfg2 = write_config(tmp_path, meta["config"], name="replay.json")
        out2 = tmp_path / "b.csv"
        assert run(["sweep", "--config", cfg2, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("model", ["eff3", "full4"])
    def test_csv_does_not_depend_on_the_basis(self, tmp_path, model):
        # every command solves the real Gell-Mann form whatever the configured
        # basis, which is only echoed in the metadata
        params = {"omega": 30.0, "j": 10.0, "delta_rf": 4.0, "gamma_sp": 1e5,
                  "gamma_g": 0.5}
        blocks = {
            "sweep": {"params": {**params, "q": 0.5},
                      "sweep": {"parameter": "j", "start": 5.0, "stop": 40.0,
                                "points": 36}},
            "spectrum": {"params": {**params, "q": 0.5}},
            "find-ep": {"params": {"omega": 30.0, "j": 21.0, "gamma_sp": 1e5,
                                   "q": 0.0},
                        "findep": {"box": {"j": [20.5, 22.0]}, "target_mult": 3}},
            "evolve": {"params": {**params, "q": 1.0},
                       "evolve": {"rho0": "mixed", "t_max": 0.2, "steps": 4}},
        }
        for command, blk in blocks.items():
            outs = []
            for basis in ("gellmann", "fockliouville"):
                cfg = write_config(tmp_path, {"model": model, "basis": basis, **blk},
                                   name=f"{command}-{basis}.json")
                outs.append(tmp_path / f"{command}-{basis}.out")
                assert run([command, "--config", cfg, "--out", str(outs[-1])]) == 0
            if command in ("sweep", "evolve"):
                assert outs[0].read_bytes() == outs[1].read_bytes(), command
                continue
            docs = [json.loads(out.read_text()) for out in outs]
            assert [d.pop("metadata")["config"]["basis"] for d in docs] == [
                "gellmann", "fockliouville"]
            assert docs[0] == docs[1], command

    def test_rows_match_per_field_formatting(self, tmp_path, capsys, monkeypatch):
        # omega = -10 cannot give omega_r: the range is a config error
        cfg = {"model": "eff3",
               "params": {"omega": 30.0, "j": 10.0, "q": 0.0},
               "sweep": {"parameter": "omega", "start": -10.0, "stop": 30.0,
                         "points": 9, "level": "operator"}}
        out = tmp_path / "rows.csv"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 2
        assert "'config.sweep' has invalid params at {'omega': -10.0}" in (
            capsys.readouterr().err)
        assert not out.exists()
        # grid point 0 fails its eigensolve, so a NaN row is formatted too
        cfg["sweep"]["start"] = 0.0
        fail_first_operator(monkeypatch)
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 4
        grid = np.linspace(0.0, 30.0, 9)
        branches, _, _ = spectra.sweep(superop.generator("eff3").operators(
            cli.params_from_config(cfg), {"omega": grid}))
        want = [",".join([cli._fmt(x)] + [cli._fmt(z.real) for z in col]
                         + [cli._fmt(z.imag) for z in col])
                for x, col in zip(grid, branches.T)]
        assert out.read_bytes().decode().split("\r\n")[1:-1] == want
        assert want[0].count("nan") == 6

    def test_sidecar_lists_candidates_and_failures(self, tmp_path, capsys,
                                                   monkeypatch):
        # omega = -10 cannot give omega_r: the range is a config error
        cfg = {"model": "eff3",
               "params": {"omega": 30.0, "j": 30.0 / math.sqrt(2.0), "q": 0.0},
               "sweep": {"parameter": "omega", "start": -10.0, "stop": 30.0,
                         "points": 5, "level": "operator"}}
        out = tmp_path / "ep.csv"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 2
        assert "{'omega': -10.0}" in capsys.readouterr().err
        # grid point 0 fails its eigensolve; omega = 30 at j = 30/sqrt(2) is
        # the operator pair EP, but at the last grid point no step crosses it
        cfg["sweep"]["start"] = 0.0
        fail_first_operator(monkeypatch)
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 4
        assert "grid point 0 failed" in capsys.readouterr().err
        meta = json.loads((tmp_path / "ep.csv.meta.json").read_text())
        assert meta["ep_candidates"] == []
        [failure] = meta["failures"]
        assert failure["index"] == 0 and float(failure["omega"]) == 0.0
        assert failure["message"].startswith("ValueError")
        # the CSV keeps its layout: the failed row is NaN
        rows = out.read_text().splitlines()
        assert len(rows) == 6 and "nan" in rows[1]
        # up to omega = 45 the step from 22.5 to 33.75 crosses the EP, and
        # 33.75 lies nearer it
        cfg["sweep"]["stop"] = 45.0
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 4
        meta = json.loads((tmp_path / "ep.csv.meta.json").read_text())
        assert [c["index"] for c in meta["ep_candidates"]] == [3]
        assert float(meta["ep_candidates"][0]["omega"]) == 33.75

    @pytest.mark.parametrize("name,level,parameter,blocks", [
        ("eff3", "superoperator", "j", 2), ("full4", "operator", "omega_r", 1)])
    def test_builds_no_params_per_grid_point(self, tmp_path, monkeypatch, name,
                                             level, parameter, blocks):
        # a 1001-point sweep builds the base params and checks its two ends,
        # then solves its whole stack in one batched eigensolve per block: a
        # resonant superoperator splits into two
        superop.generator(name)
        counts = {"params": 0, "eigvals": 0}
        post_init, eigvals = model.ModelParams.__post_init__, linalg.eigvals

        def counting_post_init(self):
            counts["params"] += 1
            post_init(self)

        def counting_eigvals(a):
            counts["eigvals"] += 1
            return eigvals(a)

        monkeypatch.setattr(model.ModelParams, "__post_init__", counting_post_init)
        monkeypatch.setattr(linalg, "eigvals", counting_eigvals)
        cfg = write_config(tmp_path, {
            "model": name, "params": {"omega": 30.0, "j": 10.0, "q": 0.5},
            "sweep": {"parameter": parameter, "start": 5.0, "stop": 40.0,
                      "points": 1001, "level": level}})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
        assert counts == {"params": 3, "eigvals": blocks}

    def test_resonant_sweep_rarely_calls_the_assignment_solver(self, tmp_path,
                                                              monkeypatch):
        # within a block no exact double ties the nearest neighbours, so few
        # of the 1000 steps are unclear
        calls = []
        solve = spectra._assign

        def counting_solve(cost):
            calls.append(len(cost))
            return solve(cost)

        monkeypatch.setattr(spectra, "_assign", counting_solve)
        cfg = write_config(tmp_path, {
            "model": "eff3", "params": {"omega": 30.0, "j": 10.0, "q": 0.5},
            "sweep": {"parameter": "j", "start": 5.0, "stop": 40.0,
                      "points": 1001}})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("points", [6, 7])
    @pytest.mark.parametrize("level,parameter,stop", [
        ("operator", "delta_rf", 30.0), ("superoperator", "delta_rf", 30.0),
        ("superoperator", "delta_opt", 500.0)])
    def test_symmetric_range_solves_half_the_grid(self, tmp_path, monkeypatch,
                                                  points, level, parameter, stop):
        # the grid is exactly antisymmetric, with the configured ends, and
        # the CSV is the mirrored sweep of its stack
        calls, sweep = [], spectra.sweep

        def recording_sweep(stack, mirrored=False):
            calls.append((stack, mirrored))
            return sweep(stack, mirrored)

        monkeypatch.setattr(spectra, "sweep", recording_sweep)
        cfg = {"model": "full4", "params": {"omega": 30.0, "j": 12.0, "q": 0.4,
                                            "gamma_sp": 1e5, "delta_opt": 300.0},
               "sweep": {"parameter": parameter, "start": -stop, "stop": stop,
                         "points": points, "level": level}}
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        grid = np.array([float(r.split(",")[0]) for r in rows])
        assert np.array_equal(grid, -grid[::-1])
        assert (grid[0], grid[-1]) == (-stop, stop)
        [(stack, mirrored)] = calls
        assert mirrored and len(stack) == points
        monkeypatch.setattr(spectra, "sweep", sweep)
        branches = sweep(stack, mirrored=True)[0]
        assert rows == [",".join(cli._fmt(v) for v in row) for row in np.column_stack(
            [grid, branches.real.T, branches.imag.T])]

    @pytest.mark.parametrize("level,parameter,start,stop", [
        ("superoperator", "delta_rf", -30.0, 20.0),
        ("operator", "delta_opt", -500.0, 500.0),
        ("superoperator", "j", 5.0, 40.0)])
    def test_other_sweeps_solve_every_point(self, tmp_path, monkeypatch, level,
                                            parameter, start, stop):
        # an asymmetric range, and a field whose sign the spectrum keeps at
        # that level, give the output of a sweep with no mirror at all
        cfg = write_config(tmp_path, {
            "model": "eff3", "params": {"omega": 30.0, "j": 12.0, "q": 0.4,
                                        "gamma_sp": 1e5, "delta_opt": 300.0},
            "sweep": {"parameter": parameter, "start": start, "stop": stop,
                      "points": 41, "level": level}})
        outputs = []
        for table in (model.SIGN_SYMMETRIC, dict.fromkeys(model.SIGN_SYMMETRIC,
                                                          frozenset())):
            monkeypatch.setattr(model, "SIGN_SYMMETRIC", table)
            out = tmp_path / "s.csv"
            assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), (tmp_path / "s.csv.meta.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_failed_point_fails_its_mirror(self, tmp_path, capsys, monkeypatch):
        fail_first_operator(monkeypatch)
        cfg = {**BASE, "sweep": {"parameter": "delta_rf", "start": -30.0,
                                 "stop": 30.0, "points": 9, "level": "operator"}}
        out = tmp_path / "s.csv"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "grid point 0 failed" in err and "grid point 8 failed" in err
        first, last = json.loads((tmp_path / "s.csv.meta.json").read_text())["failures"]
        assert (first["index"], last["index"]) == (0, 8)
        assert first["message"] == last["message"]
        rows = out.read_text().splitlines()
        assert "nan" in rows[1] and "nan" in rows[9] and "nan" not in rows[5]

    def test_operator_level_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 10.0, "q": 0.0},
            "sweep": {"parameter": "j", "start": 15.0, "stop": 25.0,
                      "points": 5, "level": "operator"},
        })
        out = tmp_path / "op.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.count("re_") == 3


def per_value_rows(table):
    """The reference text: FLOAT_FMT % x per value, joined as a sweep CSV."""
    return "".join(",".join(cli.FLOAT_FMT % x for x in row) + "\r\n"
                   for row in table.tolist())


def assert_formats_as_per_value(values, cols):
    table = np.asarray(values, dtype=float)
    table = table[:table.size // cols * cols].reshape(-1, cols)
    assert "".join(cli._format_rows(table)) == per_value_rows(table)


class TestFloatFormat:
    EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
             1e22, -1e22, 1e-22, 1e100, -1e100, 1e-100, -1e-100,
             99.99999999999996, -99.99999999999996, 9.999999999999999e-10,
             9.99999999999999e22, 1.7976931348623157e308, 0.5, 2.5, 1.0, 0.1]

    @pytest.mark.parametrize("cols", [1, 3, 33])
    def test_edges_and_powers_of_ten(self, cols):
        powers = 10.0 ** np.arange(-40.0, 41.0)
        below_1000 = 1e3 * np.nextafter(1.0, 0.0) ** np.arange(1, 40)
        values = np.concatenate([
            self.EDGES, powers, -powers, np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf), below_1000])
        assert_formats_as_per_value(np.tile(values, 3), cols)

    def test_mantissas_near_a_half(self, rng):
        # 13 digits then 5: within rounding of a tie in the last printed digit,
        # and values just inside and outside the fast path's 4e-3 margin
        digits = rng.integers(10 ** 12, 10 ** 13, 400)
        exps = rng.integers(-30, 40, 400)
        values = np.array([
            float(f"{d}{tail}e{e}") for d, e in zip(digits.tolist(), exps.tolist())
            for tail in ("5", "4999", "5001", "496", "504", "4959", "5041")])
        values = np.concatenate([values, np.nextafter(values, 0.0),
                                 np.nextafter(values, np.inf), -values])
        assert_formats_as_per_value(values, 7)

    def test_random_bit_patterns_and_magnitudes(self, rng):
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        scaled = rng.normal(size=20000) * 10.0 ** rng.integers(-20, 40, 20000)
        assert_formats_as_per_value(np.concatenate([bits, scaled]), 33)

    def test_small_exponents_take_the_vectorized_path(self, rng, monkeypatch):
        # down to 1e-32 (evolve's route_diff lies near 1e-17 to 1e-13) two
        # exact powers of ten scale a value; 14 digits ending in 2 lie far
        # from a half in the 13th, so none needs FLOAT_FMT
        digits = rng.integers(10 ** 12, 10 ** 13, 2000)
        exps = rng.integers(-32, -10, 2000)
        values = np.array([float(f"{d}2e{e - 13}")
                           for d, e in zip(digits.tolist(), exps.tolist())])
        table = np.concatenate([values, -values]).reshape(-1, 5)
        want = per_value_rows(table)
        monkeypatch.setattr(cli, "FLOAT_FMT", "%r")
        assert "".join(cli._format_rows(table)) == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(), min_size=1, max_size=60),
           cols=st.integers(1, 5))
    def test_any_float(self, values, cols):
        assert_formats_as_per_value(values * cols, cols)


class TestFindEpCommand:
    def test_locates_pair_coalescence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 20.0, "q": 0.0},
            "findep": {"box": {"j": [15.0, 30.0]}, "target_mult": 2,
                       "level": "operator"},
        })
        assert run(["find-ep", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 1
        rep = doc["reports"][0]
        assert float(rep["params"]["j"]) == pytest.approx(30.0 / math.sqrt(2.0),
                                                          abs=1e-4)
        assert rep["kind"] == "exceptional"

    def test_builds_no_params_per_grid_point(self, tmp_path, monkeypatch):
        # the README config builds the base params, checks the box corners
        # (in the CLI and in find_ep) and gives the one report its params;
        # the 65-point coarse grid and the solver's evaluations build none
        superop.generator("eff3")
        built = []
        post_init = model.ModelParams.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(model.ModelParams, "__post_init__", counting_post_init)
        cfg = write_config(tmp_path, {
            "model": "eff3", "params": {"omega": 30.0, "j": 10.0, "q": 0.0},
            "findep": {"box": {"j": [15.0, 30.0]}, "target_mult": 2,
                       "level": "operator"}})
        out = tmp_path / "ep.json"
        assert run(["find-ep", "--config", cfg, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["reports"]) == 1
        assert len(built) <= 8

    @pytest.mark.parametrize("level,target", [
        ("operator", 4), ("superoperator", 10), ("operator", 10 ** 18),
    ])
    def test_rejects_a_multiplicity_above_the_dimension(self, tmp_path, capsys,
                                                         level, target):
        # eff3 is 3 x 3 at operator level and 9 x 9 at superoperator level
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 20.0, "q": 0.0},
            "findep": {"box": {"j": [15.0, 30.0]}, "target_mult": target,
                       "level": level},
        })
        assert run(["find-ep", "--config", cfg]) == 2
        assert "config.findep.target_mult" in capsys.readouterr().err


class TestEvolveCommand:
    def test_trace_column_constant(self, tmp_path):
        cfg = write_config(tmp_path, {
            **BASE,
            "evolve": {"rho0": "mixed", "t_max": 0.17, "steps": 12},
        })
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        traces = [float(r.split(",")[1]) for r in rows]
        assert max(abs(t - 1.0) for t in traces) <= 1e-9
        diffs = [float(r.split(",")[-1]) for r in rows]
        assert max(diffs) <= 1e-8

    def test_long_time_reaches_stationary_populations(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 25.0, "q": 1.0},
            "evolve": {"rho0": "mixed", "t_max": 4.0, "steps": 3},
        })
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        last = [float(v) for v in rows[-1].split(",")]
        prev = [float(v) for v in rows[-2].split(",")]
        assert max(abs(a - b) for a, b in zip(last[2:5], prev[2:5])) < 1e-8

    def test_rejects_hybrid_generator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 10.0, "q": 0.5},
            "evolve": {"rho0": "mixed", "t_max": 1.0, "steps": 3},
        })
        assert run(["evolve", "--config", cfg]) == 2
        assert "trace-preserving" in capsys.readouterr().err

    def test_accepts_a_hybrid_generator_without_dissipation(self, tmp_path):
        # at omega 0 and gamma_g 0 eff3 has no jumps, and L(q) = -i[H, .]
        # preserves the trace at q 0.5 as at 1
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 0.0, "j": 10.0, "delta_rf": 2.0, "q": 0.5},
            "evolve": {"rho0": [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
                       "t_max": 0.3, "steps": 7},
        })
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = [[float(v) for v in r.split(",")]
                for r in out.read_text().splitlines()[1:]]
        assert max(abs(r[1] - 1.0) for r in rows) <= 1e-12
        # the state moves: the populations are not constant
        assert max(abs(r[2] - 0.5) for r in rows) > 1e-3

    def test_explicit_initial_state(self, tmp_path):
        rho0 = [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.25, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]]
        cfg = write_config(tmp_path, {
            **BASE,
            "evolve": {"rho0": rho0, "t_max": 0.1, "steps": 3},
        })
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(0.5)

    @pytest.mark.parametrize("t_max", [0.17, 1e20])
    def test_csv_matches_per_value_formatting(self, tmp_path, t_max):
        # at t_max 1e20 the eigen-expansion overflows and route_diff is NaN,
        # which the table writer formats on its slow path
        cfg = {**BASE, "evolve": {"rho0": "mixed", "t_max": t_max, "steps": 4}}
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 0
        times = np.linspace(0.0, t_max, 4)
        l = superop.generator("eff3").matrices(cli.params_from_config(cfg))[0]
        states, route_diff = spectra.evolve_check(l, np.eye(3) / 3.0, t_max, 4)
        assert np.isnan(route_diff[-1]) == (t_max == 1e20)
        lines = ["t,trace,pop_1,pop_2,pop_3,route_diff"]
        for t, rho, diff in zip(times, states, route_diff):
            row = [cli.FLOAT_FMT % float(t), cli.FLOAT_FMT % float(np.trace(rho).real)]
            row += [cli.FLOAT_FMT % float(rho[k, k].real) for k in range(3)]
            row.append(cli.FLOAT_FMT % float(diff))
            lines.append(",".join(row))
        assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


class TestGeneratorOnly:
    def test_no_command_builds_a_model(self, tmp_path, monkeypatch):
        for name in ("eff3", "full4"):
            superop.generator(name)

        def forbidden(*args, **kwargs):
            raise AssertionError("a model builder ran at command time")

        for name in ("build_eff3", "build_full4_rwa", "reduce_effective"):
            monkeypatch.setattr(model, name, forbidden)
        params = {"omega": 30.0, "j": 21.0, "delta_rf": 1.0, "gamma_sp": 1e5,
                  "gamma_g": 0.5, "q": 0.0}
        for name in ("eff3", "full4"):
            blocks = [("spectrum", {}), ("evolve", {
                "params": {**params, "q": 1.0},
                "evolve": {"rho0": "mixed", "t_max": 0.1, "steps": 3}})]
            for level in ("operator", "superoperator"):
                blocks.append(("sweep", {"sweep": {
                    "parameter": "j", "start": 5.0, "stop": 40.0, "points": 8,
                    "level": level}}))
                blocks.append(("find-ep", {"findep": {
                    "box": {"j": [20.0, 22.0]}, "target_mult": 2, "level": level}}))
            for k, (command, blk) in enumerate(blocks):
                cfg = write_config(tmp_path, {"model": name, "params": params, **blk},
                                   name=f"{name}-{k}.json")
                out = tmp_path / f"{name}-{k}.out"
                assert run([command, "--config", cfg, "--out", str(out)]) == 0, (
                    name, command, blk)


class TestJsonExport:
    def test_matrix_round_trip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert np.array_equal(cli._matrix_from_json(rows), m)


class TestSchemaValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "bogus": 1})
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.bogus" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "eff3",
                                      "params": {"omega": 30.0, "jj": 1.0}})
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.params.jj" in capsys.readouterr().err

    def test_bad_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "eff5", "params": {"omega": 1.0}})
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.model" in capsys.readouterr().err

    def test_missing_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert run(["sweep", "--config", cfg]) == 2
        assert "config.sweep" in capsys.readouterr().err

    def test_bad_sweep_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE,
            "sweep": {"parameter": "j", "start": 1.0, "stop": 2.0, "points": 1},
        })
        assert run(["sweep", "--config", cfg]) == 2
        assert "points" in capsys.readouterr().err

    def test_bad_findep_box(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **BASE,
            "findep": {"box": {"j": [1.0]}, "target_mult": 2},
        })
        assert run(["find-ep", "--config", cfg]) == 2
        assert "config.findep.box.j" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"{not json",
        b'{"model": "eff3", "params": {"omega": 30.0, "j": 10.0}, "x": "\xe9"}',
        b"[" * 100_000,  # past the recursion limit
        b'{"model": "eff3", "params": {"omega": 3' + b"0" * 5000 + b"}}",
    ], ids=["not-json", "latin-1", "nested", "5000-digits"])
    def test_unreadable_config(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert run(["spectrum", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config:")
        assert err.count("\n") == 1

    def test_config_is_returned_as_parsed(self, tmp_path, capsys):
        # no key is defaulted into the config, so the metadata echoes it as read
        path = write_config(tmp_path, BASE)
        assert cli.load_config(path) == BASE
        assert run(["spectrum", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"] == BASE

    def test_only_load_config_checks_keys(self):
        tree = ast.parse(inspect.getsource(cli))
        callers = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                   for node in ast.walk(f) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_check_keys"}
        assert callers == {"load_config"}

    @pytest.mark.parametrize("command,blk,key", [
        ("sweep", {"sweep": {"parameter": "j", "start": math.nan, "stop": 40.0,
                             "points": 5}}, "config.sweep.start"),
        ("find-ep", {"findep": {"box": {"j": [math.nan, 30.0]}, "target_mult": 2}},
         "config.findep.box.j"),
        ("evolve", {"evolve": {"t_max": math.inf, "steps": 3}}, "config.evolve.t_max"),
        ("spectrum", {"params": {"omega": math.nan, "j": 10.0, "q": 1.0}},
         "config.params.omega"),
        ("evolve", {"evolve": {"rho0": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [math.nan, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
                               "t_max": 0.1, "steps": 3}}, "rho0"),
        ("spectrum", {"params": {"omega": 30.0, "j": HUGE, "q": 1.0}},
         "config.params.j"),
        ("sweep", {"sweep": {"parameter": "j", "start": 10.0, "stop": HUGE,
                             "points": 5}}, "config.sweep.stop"),
        ("find-ep", {"findep": {"box": {"j": [15.0, HUGE]}, "target_mult": 2}},
         "config.findep.box.j"),
        ("evolve", {"evolve": {"rho0": [[[HUGE, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
                               "t_max": 0.1, "steps": 3}}, "rho0"),
        # omega = omega_r**2 / gamma_sp overflows
        ("spectrum", {"params": {"omega_r": 1e200, "j": 1.0}}, "config.params"),
        ("spectrum", {"model": "full4", "params": {"omega_r": 1e200, "j": 1.0}},
         "config.params"),
        ("sweep", {"sweep": {"parameter": "omega_r", "start": 1.0, "stop": 1e200,
                             "points": 5}}, "config.sweep"),
    ])
    def test_numbers_that_are_not_finite(self, tmp_path, capsys, command, blk, key):
        # json.load accepts NaN, Infinity and integers beyond float range
        cfg = write_config(tmp_path, {**BASE, **blk})
        assert run([command, "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,blk,key", [
        ("sweep", {"sweep": 5}, "config.sweep"),
        ("sweep", {"sweep": {"parameter": "j", "start": 1.0, "stop": 2.0,
                             "points": 3, "level": "lindblad"}}, "config.sweep.level"),
        ("spectrum", {"basis": "pauli"}, "config.basis"),
        ("spectrum", {"params": {"omega": "30", "j": 10.0}}, "config.params.omega"),
        ("spectrum", {"spectrum": {}}, "config.spectrum"),  # no such block
        ("sweep", {"sweep": {"parameter": "gamma_sp", "start": 1e3, "stop": 1e4,
                             "points": 3}}, "config.sweep.parameter"),
        ("sweep", {"sweep": {"parameter": "j", "stop": 2.0, "points": 3}},
         "config.sweep.start"),
        ("sweep", {"sweep": {"parameter": "j", "start": 2.0, "stop": 2.0,
                             "points": 3}}, "config.sweep.stop"),
        ("find-ep", {}, "config.findep"),
        ("evolve", {}, "config.evolve"),
        ("find-ep", {"findep": {"box": [15.0, 30.0], "target_mult": 2}},
         "config.findep.box"),
        ("find-ep", {"findep": {"box": {"gamma_sp": [1e3, 1e4]}, "target_mult": 2}},
         "config.findep.box.gamma_sp"),
        ("evolve", {"evolve": {"t_max": 0.0, "steps": 3}}, "config.evolve.t_max"),
        ("evolve", {"evolve": {"rho0": [[[1.0, 0.0]]], "t_max": 0.1, "steps": 3}},
         "config.evolve.rho0"),
        ("evolve", {"evolve": {"rho0": "pure", "t_max": 0.1, "steps": 3}},
         "config.evolve.rho0"),
        # H_nh does not depend on q
        ("find-ep", {"params": {"omega": 30.0, "j": 21.0, "q": 0.0},
                     "findep": {"box": {"q": [0.2, 0.8]}, "target_mult": 2,
                                "level": "operator"}}, "config.findep.box.q"),
        ("sweep", {"sweep": {"parameter": "q", "start": 0.0, "stop": 1.0,
                             "points": 5, "level": "operator"}},
         "config.sweep.parameter"),
        ("sweep", {"sweep": {"parameter": ["j"], "start": 1.0, "stop": 2.0,
                             "points": 3}}, "config.sweep.parameter"),
        ("sweep", {"sweep": {"parameter": {"j": 1.0}, "start": 1.0, "stop": 2.0,
                             "points": 3}}, "config.sweep.parameter"),
        # every block present is checked, whether the command uses it or not
        ("spectrum", {"sweep": {"bogus": 1}}, "config.sweep.bogus"),
        ("spectrum", {"findep": [1]}, "config.findep"),
    ])
    def test_schema_branches_name_their_key(self, tmp_path, capsys, command, blk, key):
        assert run([command, "--config", write_config(tmp_path, {**BASE, **blk})]) == 2
        assert key in capsys.readouterr().err

    def test_missing_params(self, tmp_path, capsys):
        assert run(["spectrum", "--config", write_config(tmp_path, {"model": "eff3"})]) == 2
        assert "config.params" in capsys.readouterr().err

    @pytest.mark.parametrize("box,key", [
        ({"j": [30.0, 15.0]}, "j"),  # empty
        ({"j": [-5.0, 30.0]}, "j"),  # j must be non-negative
        ({"omega": [-10.0, 40.0]}, "omega"),  # omega_r = sqrt(omega gamma_sp)
    ])
    def test_findep_box_outside_the_model_domain(self, tmp_path, capsys, box, key):
        cfg = write_config(tmp_path, {
            "model": "eff3", "params": {"omega": 30.0, "j": 20.0, "q": 0.0},
            "findep": {"box": box, "target_mult": 2}})
        assert run(["find-ep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config.findep.box" in err and key in err

    @pytest.mark.parametrize("parameter,start,stop,end", [
        ("j", -5.0, 5.0, "{'j': -5.0}"),  # j must be non-negative
        ("gamma_g", -1.0, 1.0, "{'gamma_g': -1.0}"),
    ])
    def test_sweep_range_outside_the_model_domain(self, tmp_path, capsys, parameter,
                                                  start, stop, end):
        cfg = write_config(tmp_path, {
            "model": "eff3", "params": {"omega": 30.0, "j": 10.0, "q": 0.5},
            "sweep": {"parameter": parameter, "start": start, "stop": stop,
                      "points": 11}})
        assert run(["sweep", "--config", cfg]) == 2
        assert end in capsys.readouterr().err

    def test_inconsistent_rabi_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "omega_r": 1.0, "j": 1.0, "gamma_sp": 10.0},
        })
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.params" in capsys.readouterr().err


TINY_GAMMA = {"omega": 30.0, "j": 10.0, "gamma_sp": 1e-200}
HUGE_GAMMA = {"omega": 30.0, "j": 1.0, "gamma_sp": 1.2e154}
SLOW_DECAY = pytest.mark.filterwarnings("ignore:effective reduction assumes")


class TestExitCodes:
    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver broke")

        monkeypatch.setattr(spectra, "detect_degeneracy", fail)
        assert run(["spectrum", "--config", write_config(tmp_path, BASE)]) == 3
        assert "numerical failure: eigensolver broke" in capsys.readouterr().err

    @pytest.mark.parametrize("command,blk", [
        ("spectrum", {"params": {"omega": 30.0, "j": 1.0, "delta_opt": 1e200}}),
        ("spectrum", {"params": {"omega": 30.0, "j": 1.0, "gamma_sp": 1e200}}),
        ("find-ep", {"params": {"omega": 30.0, "j": 1.0, "q": 0.0},
                     "findep": {"box": {"delta_opt": [0.0, 1e200]},
                                "target_mult": 2}}),
        ("sweep", {"sweep": {"parameter": "delta_opt", "start": 0.0,
                             "stop": 1e200, "points": 5}}),
        # |h_e|^2 = delta_opt^2 + gamma_sp^2 / 4 underflows to 0 while |h_e|
        # is not yet singular; gamma_sp this small also warns of slow decay
        pytest.param("spectrum", {"params": TINY_GAMMA}, marks=SLOW_DECAY),
        pytest.param("sweep", {"params": TINY_GAMMA, "sweep": {
            "parameter": "j", "start": 0.0, "stop": 10.0, "points": 5}},
            marks=SLOW_DECAY),
        pytest.param("sweep", {"params": TINY_GAMMA, "sweep": {
            "parameter": "delta_opt", "start": -1e-200, "stop": 1e-200, "points": 5}},
            marks=SLOW_DECAY),
        # |h_e|^2 is finite but gamma_sp omega_r^2 = omega gamma_sp^2
        # overflows, and at delta_opt = gamma_sp so does omega_r^2 delta_opt
        ("spectrum", {"params": HUGE_GAMMA}),
        ("sweep", {"params": HUGE_GAMMA, "sweep": {
            "parameter": "j", "start": 0.0, "stop": 10.0, "points": 5}}),
        ("spectrum", {"params": {"omega": 30.0, "j": 1.0, "gamma_sp": 1e154,
                                 "delta_opt": 1e154}}),
    ])
    def test_coefficient_overflow_exits_3(self, tmp_path, capsys, command, blk):
        # valid params whose eff3 coefficients leave float range; the
        # message names the coefficient and the first point where |h_e|^2
        # over- or underflows, or where a coefficient overflows
        assert run([command, "--config", write_config(tmp_path, {**BASE, **blk})]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "decay rate gamma_sp omega_r^2 / |h_e|^2" in err
        assert "delta_opt = " in err and "gamma_sp = " in err

    def test_non_finite_evolution_exits_3(self, tmp_path, capsys, monkeypatch):
        # a trace-preserving Gell-Mann generator with the nilpotent chain of
        # basis elements 8 (the identity) -> 6 -> 0: states grow like t^2,
        # so on a grid of step 1e153 the propagator is finite but the states
        # leave float range from t = 3e154 on; the first bad time is named
        l = np.zeros((9, 9))
        l[6, 8] = l[0, 6] = 1.0
        monkeypatch.setattr(superop.Generator, "matrices", lambda self, p: l[None])
        cfg = write_config(tmp_path, {**BASE, "evolve": {"t_max": 4e154, "steps": 41}})
        out = tmp_path / "evolve.csv"
        assert run(["evolve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: expm(l t) is not finite at t = 3e+154\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("model_name,params,t_max,message", [
        # the model's coefficients overflow, so the generator is not finite
        pytest.param("full4", {"omega": 30.0, "j": 1e308, "delta_rf": 1e308,
                               "q": 1.0}, 1.0, "the generator is not finite",
                     id="generator"),
        # a finite generator times the last time leaves float range
        pytest.param("eff3", {"omega": 30.0, "j": 10.0, "q": 1.0}, 1e307,
                     "l t is not finite at t = 1e+307", id="l_t"),
    ])
    def test_evolve_beyond_float_range_exits_3(self, tmp_path, capsys, model_name,
                                              params, t_max, message):
        cfg = write_config(tmp_path, {
            "model": model_name, "params": params,
            "evolve": {"rho0": "mixed", "t_max": t_max, "steps": 3}})
        assert run(["evolve", "--config", cfg]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:effective reduction assumes:UserWarning")
    def test_sweep_distance_overflow_names_its_step(self, tmp_path, capsys):
        # j near 1e308: points 9 and 10 fail their eigensolve, and the
        # eigenvalues near 1e308 of the others overflow the tracker's
        # distances; from point 3 on some are infinite, and between points
        # 6 and 7 too many for any assignment of finite cost
        cfg = write_config(tmp_path, {**BASE, "sweep": {
            "parameter": "j", "start": 0.0, "stop": 1e308, "points": 11}})
        assert run(["sweep", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: eigenvalue distances are not finite "
                       "between grid points 6 and 7\n")

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # linalg.eig lets LAPACK's non-convergence through to cli.main
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        assert run(["spectrum", "--config", write_config(tmp_path, BASE)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("command,blk", [
        ("spectrum", {}),
        ("sweep", {"sweep": {"parameter": "j", "start": 1.0, "stop": 20.0,
                             "points": 5}}),
        ("find-ep", {"findep": {"box": {"j": [15.0, 30.0]}, "target_mult": 2,
                                "level": "operator"}}),
        ("evolve", {"evolve": {"rho0": "mixed", "t_max": 0.17, "steps": 3}}),
        ("validate", None),
    ])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                    blk):
        out = tmp_path / "missing" / "out.txt"
        argv = [command, "--out", str(out)]
        if blk is None:
            # the output is checked before the suite runs
            monkeypatch.setattr(validate, "run_all", lambda: pytest.fail(
                "validate ran its criteria before checking --out"))
        else:
            argv += ["--config", write_config(tmp_path, {**BASE, **blk})]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert err.count("\n") == 1 and str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("passed,rc,status", [(False, 1, "FAIL"),
                                                  (True, 0, "XFAIL")])
    def test_validate_exit_code(self, capsys, monkeypatch, passed, rc, status):
        canned = [validate.CriterionResult("1a", "holds", True),
                  validate.CriterionResult("2d", "limited", False, expected_fail=True)]
        if not passed:
            canned.append(validate.CriterionResult("3a", "broken", False))
        monkeypatch.setattr(validate, "run_all", lambda: canned)
        assert run(["validate"]) == rc
        out = capsys.readouterr().out
        assert f" {status} " in out
        assert (" FAIL " in out) == (not passed)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["spectrum"],
                                      ["validate", "--x"]])
    def test_usage_errors_repeat_on_the_shared_parser(self, capsys, argv):
        # the parser is built once per process; every call gets the same
        # usage message and exit status 2
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: lioup ")
        assert cli._parser() is cli._parser()
