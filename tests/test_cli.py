import json
import math

import numpy as np
import pytest

from lioup import cli


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


BASE = {"model": "eff3", "params": {"omega": 30.0, "j": 10.0, "q": 1.0}}


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

    def test_inconsistent_rabi_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": "eff3",
            "params": {"omega": 30.0, "omega_r": 1.0, "j": 1.0, "gamma_sp": 10.0},
        })
        assert run(["spectrum", "--config", cfg]) == 2
        assert "config.params" in capsys.readouterr().err
