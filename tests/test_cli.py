import json
import math

import numpy as np
import pytest

from lioup import cli, model, spectra, superop

from conftest import misindexed_reports


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


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
            "spectrum": {"tol_cluster": 5e-3},
        })
        assert run(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        orders = {(round(float(d["cluster_value"]["re"])), d["order"])
                  for d in doc["degeneracies"]}
        assert (-60, 3) in orders

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

    def test_rows_match_per_field_formatting(self, tmp_path):
        # grid point 0 fails (omega < 0), so a NaN row is formatted too
        cfg = {"model": "eff3",
               "params": {"omega": 30.0, "j": 10.0, "q": 0.0},
               "sweep": {"parameter": "omega", "start": -10.0, "stop": 30.0,
                         "points": 9, "level": "operator"}}
        out = tmp_path / "rows.csv"
        assert run(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 0
        res = spectra.sweep(
            superop.generator("eff3").operator, "omega",
            np.linspace(-10.0, 30.0, 9), cli.params_from_config(cfg))
        want = [",".join([cli._fmt(x)] + [cli._fmt(z.real) for z in col]
                         + [cli._fmt(z.imag) for z in col])
                for x, col in zip(res.grid, res.branches.T)]
        assert out.read_bytes().decode().split("\r\n")[1:-1] == want
        assert want[0].count("nan") == 6

    def test_sidecar_lists_candidates_and_failures(self, tmp_path, capsys):
        # omega = -10 cannot give omega_r; omega = 30 at j = 30/sqrt(2) is
        # the operator pair EP
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "j": 30.0 / math.sqrt(2.0), "q": 0.0},
            "sweep": {"parameter": "omega", "start": -10.0, "stop": 30.0,
                      "points": 5, "level": "operator"},
        })
        out = tmp_path / "ep.csv"
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "grid point 0 failed" in capsys.readouterr().err
        meta = json.loads((tmp_path / "ep.csv.meta.json").read_text())
        assert [c["index"] for c in meta["ep_candidates"]] == [4]
        assert float(meta["ep_candidates"][0]["omega"]) == 30.0
        [failure] = meta["failures"]
        assert failure["index"] == 0 and float(failure["omega"]) == -10.0
        assert failure["message"].startswith("ValueError")
        # the CSV keeps its layout: the failed row is NaN
        rows = out.read_text().splitlines()
        assert len(rows) == 6 and "nan" in rows[1]

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

    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["spectrum", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("command,blk,key", [
        ("sweep", {"sweep": {"parameter": "j", "start": math.nan, "stop": 40.0,
                             "points": 5}}, "config.sweep.start"),
        ("find-ep", {"findep": {"box": {"j": [math.nan, 30.0]}, "target_mult": 2}},
         "config.findep.box.j"),
        ("evolve", {"evolve": {"t_max": math.inf, "steps": 3}}, "config.evolve.t_max"),
        ("spectrum", {"spectrum": {"tol_cluster": math.inf}},
         "config.spectrum.tol_cluster"),
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
    ])
    def test_numbers_that_are_not_finite(self, tmp_path, capsys, command, blk, key):
        # json.load accepts NaN, Infinity and integers beyond float range
        cfg = write_config(tmp_path, {**BASE, **blk})
        assert run([command, "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_inconsistent_rabi_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "omega_r": 1.0, "j": 1.0, "gamma_sp": 10.0},
        })
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.params" in capsys.readouterr().err
