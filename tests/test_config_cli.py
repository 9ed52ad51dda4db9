import json

import numpy as np
import pytest

from taskload import ConfigError, default_config
from taskload.cli import main
from taskload.config import parse_config


class TestConfig:
    def test_defaults_carry_published_tables(self):
        cfg = default_config()
        lat = cfg.distributions["lateral"]
        assert (lat.gamma, lat.delta) == (0.4566, 1.897)
        assert lat.scale_lambda == 0.0443
        assert cfg.distributions["vertical"].xi == 10.0362
        assert cfg.ou["lateral"].kappa == 3.492
        assert cfg.ou["vertical"].sigma == 8.683
        # scenario dynamics center the reversion mean on the nominal path
        assert all(p.mu == 0.0 for p in cfg.ou.values())
        assert cfg.flows[0].t_cross_min == 20.0
        assert cfg.flows[0].speed_kt == 480.0
        assert cfg.flows[0].tolerance.lateral_nm == 0.1
        assert cfg.geometry.d_min_nm == 5.0
        assert cfg.horizon_min == 120.0

    def test_run_count_tables(self):
        cfg = default_config()
        cfg.flows[0] = type(cfg.flows[0])(intensity_per_hour=60.0)
        assert cfg.resolved_runs() == 41702
        cfg.kind = "crossing"
        assert cfg.resolved_runs() == 10463

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"mc": {"kind": "single_lane", "horizonmin": 10}})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"extra_section": {}})

    def test_standard_and_tolerance_conflict(self):
        with pytest.raises(ConfigError):
            parse_config({"flows": [{"intensity_per_hour": 5,
                                     "standard": "lax",
                                     "tolerance": {"lateral_nm": 1,
                                                   "vertical_ft": 1,
                                                   "longitudinal_nm": 1}}]})

    def test_named_standard(self):
        cfg = parse_config({"flows": [{"intensity_per_hour": 5,
                                       "standard": "lax"}]})
        assert cfg.flows[0].tolerance.lateral_nm == 0.2

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            parse_config({"schema_version": 99})

    def test_hash_stability(self):
        a, b = default_config(), default_config()
        assert a.sha256() == b.sha256()
        b.seed = 1
        assert a.sha256() != b.sha256()

    def test_round_trip_through_canonical_dict(self):
        cfg = default_config()
        again = parse_config(cfg.to_canonical_dict())
        assert again.sha256() == cfg.sha256()


def read_payload(path):
    with open(path) as fh:
        return fh.read()


class TestCli:
    def test_generate_header_only(self, tmp_path):
        out = tmp_path / "fte.csv"
        rc = main(["generate", "--axis", "lateral", "-n", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = [l for l in read_payload(out).splitlines()
                 if not l.startswith("#")]
        assert lines == ["lat_nm"]

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["generate", "--axis", "lateral", "-n", "1000",
                       "--seed", "5", "--out", str(path)])
            assert rc == 0
        assert read_payload(a) == read_payload(b)

    def test_generate_moments(self, tmp_path):
        out = tmp_path / "fte.csv"
        main(["generate", "--axis", "lateral", "-n", "200000",
              "--seed", "5", "--out", str(out)])
        vals = np.array([float(l) for l in read_payload(out).splitlines()
                         if not (l.startswith("#") or l == "lat_nm")])
        assert abs(vals.mean() - (-0.028)) < 3 * vals.std() / np.sqrt(vals.size) + 1e-4
        assert abs(vals.var() / 7.784e-4 - 1) < 0.05

    def test_calibrate_affine_fixture(self, tmp_path):
        data = tmp_path / "series.csv"
        x = [1.0]
        for _ in range(199):
            x.append(0.5 * x[-1] + 0.1)
        data.write_text("lat_nm\n" + "\n".join(f"{v!r}" for v in x) + "\n")
        out = tmp_path / "report.json"
        rc = main(["calibrate", "--in", str(data), "--method", "both",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(read_payload(out))
        ls = report["reports"]["lateral"]["least_squares"]
        ml = report["reports"]["lateral"]["mle"]
        assert ls["kappa_per_min"] == pytest.approx(np.log(2), rel=1e-9)
        assert ls["mu"] == pytest.approx(0.2, rel=1e-9)
        assert ml["kappa_per_min"] == pytest.approx(ls["kappa_per_min"],
                                                    rel=1e-9)
        # a fit draws nothing: no seed in its provenance
        assert "seed" not in report["provenance"]
        assert "stream_id" not in report["provenance"]

    def test_calibrate_round_trip_from_generate(self, tmp_path):
        fte = tmp_path / "fte.csv"
        main(["generate", "--axis", "lateral", "-n", "100000",
              "--seed", "9", "--out", str(fte)])
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--in", str(fte), "--out", str(out)])
        assert rc == 0
        rep = json.loads(read_payload(out))["reports"]["lateral"]
        moments = rep["sample_moments"]
        assert abs(moments["mu1"] - (-0.028)) < 5e-4
        # i.i.d. draws: either flagged memoryless or near-zero slope
        ls = rep["least_squares"]
        assert ls["flags"] == ["no_mean_memory"] or abs(ls["a_hat"]) < 0.02

    def test_calibrate_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lat_nm\n0.1\nnot_a_number\n")
        rc = main(["calibrate", "--in", str(bad), "--out",
                   str(tmp_path / "r.json")])
        assert rc == 3

    def test_calibrate_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong_column\n0.1\n0.2\n")
        rc = main(["calibrate", "--in", str(bad), "--out",
                   str(tmp_path / "r.json")])
        assert rc == 3

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": {"kind": "warp_drive"}}))
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        rc = main(["generate", "--axis", "lateral", "-n", "-5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 4

    def test_simulate_writes_components_and_reproduces(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": 10.0}],
            "mc": {"kind": "single_lane", "n_runs": 50, "seed": 21},
        }))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out2)]) == 0
        for name in ("mc_total.csv", "mc_lateral.csv",
                     "config_resolved.json"):
            assert read_payload(out1 / name) == read_payload(out2 / name)
        header = [l for l in read_payload(out1 / "mc_total.csv").splitlines()
                  if not l.startswith("#")][0]
        assert header == "n,prob,ci_lo,ci_hi,below_floor"

    def test_simulate_reproduces_from_resolved_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": 5.0}],
            "mc": {"kind": "single_lane", "n_runs": 30, "seed": 8},
        }))
        out1 = tmp_path / "o1"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        out2 = tmp_path / "o2"
        main(["simulate", "--config", str(out1 / "config_resolved.json"),
              "--out", str(out2)])
        assert read_payload(out1 / "mc_total.csv") == \
            read_payload(out2 / "mc_total.csv")

    def test_provenance_block_present(self, tmp_path):
        out = tmp_path / "fte.csv"
        main(["generate", "--axis", "vertical", "-n", "10", "--out",
              str(out)])
        text = read_payload(out)
        assert "# schema_version=1" in text
        assert "# config_sha256=" in text
        assert "# seed=" in text

    def test_safe_zone_command(self, tmp_path):
        out = tmp_path / "zone.csv"
        rc = main(["safe-zone", "--alpha", "90", "--out", str(out)])
        assert rc == 0
        rows = [l for l in read_payload(out).splitlines()
                if not l.startswith("#")]
        header, values = rows[0].split(","), rows[1].split(",")
        t_safe = float(values[header.index("t_safe_min")])
        assert abs(t_safe - 1.0) < 0.3
        assert "# seed=" not in read_payload(out)

    def test_compare_command_pass_and_fail(self, tmp_path):
        analytic = tmp_path / "a.csv"
        mc = tmp_path / "m.csv"
        analytic.write_text("n,prob\n0,0.5\n1,0.5\ntruncation,0\n")
        mc.write_text("# n_runs=10000\nn,prob\n0,0.5\n1,0.5\ntruncation,0\n")
        assert main(["compare", "--analytic", str(analytic), "--mc", str(mc),
                     "--tv", "0.02"]) == 0
        mc.write_text("# n_runs=10000\nn,prob\n0,0.9\n1,0.1\ntruncation,0\n")
        assert main(["compare", "--analytic", str(analytic), "--mc", str(mc),
                     "--tv", "0.02",
                     "--out", str(tmp_path / "rep.json")]) == 5

    def test_analytic_command_zero_intensity(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": 0.0}],
            "mc": {"kind": "single_lane", "seed": 2},
            "analytic": {"oracle_paths": 2000},
        }))
        out = tmp_path / "an"
        rc = main(["analytic", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = [l for l in read_payload(out / "analytic_total.csv").splitlines()
                if not l.startswith("#")]
        assert rows[1].startswith("0,1")


def lane_config(tmp_path, **sections):
    cfg = tmp_path / "cfg.json"
    data = {"flows": [{"intensity_per_hour": 60.0}],
            "mc": {"kind": "single_lane", "n_runs": 400, "seed": 31},
            "analytic": {"oracle_paths": 20000}}
    for key, val in sections.items():
        data[key] = {**data.get(key, {}), **val}
    cfg.write_text(json.dumps(data))
    return cfg


class TestConfigReachesOutput:
    def test_compare_reads_run_count_from_provenance(self, tmp_path):
        cfg = lane_config(tmp_path)
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "an")]) == 0
        z = {}
        for fmt in ("csv", "json"):
            mc = tmp_path / fmt
            assert main(["simulate", "--config", str(cfg), "--format", fmt,
                         "--out", str(mc)]) == 0
            for extra in ([], ["--runs", "400"]):
                rep = tmp_path / "rep.json"
                main(["compare", "--analytic",
                      str(tmp_path / "an" / "analytic_total.csv"),
                      "--mc", str(mc / f"mc_total.{fmt}"),
                      "--out", str(rep)] + extra)
                z[fmt, bool(extra)] = json.loads(
                    read_payload(rep))["max_abs_z"]
        assert z["csv", False] == z["csv", True] == z["json", False]
        bare = tmp_path / "bare.csv"
        bare.write_text("n,prob\n0,0.5\n1,0.5\n")
        assert main(["compare", "--analytic", str(bare),
                     "--mc", str(bare)]) == 3

    def test_output_format_from_config(self, tmp_path):
        cfg = lane_config(tmp_path, output={"format": "json"},
                          mc={"n_runs": 5})
        for cmd in ("analytic", "simulate"):
            out = tmp_path / cmd
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
            tables = [p.name for p in out.iterdir()
                      if p.name != "config_resolved.json"]
            assert tables and all(n.endswith(".json") for n in tables)
            json.loads(read_payload(out / tables[0]))
        out = tmp_path / "flag"
        assert main(["simulate", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
        assert (out / "mc_total.csv").exists()
        assert not (out / "mc_total.json").exists()

    def test_n_max_reaches_per_aircraft_pmf(self, tmp_path, monkeypatch):
        from taskload import pipeline
        seen = []
        real = pipeline.per_aircraft_pmf

        def spy(*args, **kwargs):
            seen.append(kwargs.get("n_max"))
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "per_aircraft_pmf", spy)
        cfg = lane_config(tmp_path, analytic={"n_max": 4,
                                              "oracle_paths": 2000})
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "an")]) == 0
        assert seen == [4]


class TestAnalyticIsDeterministic:
    def test_tables_ignore_seed_and_oracle_paths(self, tmp_path):
        # whole files, provenance included: nothing analytic is drawn, so
        # no seed is written
        tables = []
        for paths, seed in ((2000, "1"), (500000, "987")):
            cfg = lane_config(tmp_path, analytic={"oracle_paths": paths})
            out = tmp_path / f"an{seed}"
            assert main(["analytic", "--config", str(cfg), "--seed", seed,
                         "--out", str(out)]) == 0
            tables.append({p.name: read_payload(p) for p in out.iterdir()})
        # 3 axes and the total, 3 densities, the resolved config
        assert len(tables[0]) == 8
        assert tables[0] == tables[1]
        assert "# seed=" not in tables[0]["analytic_total.csv"]
        assert "# stream_id=" not in tables[0]["analytic_total.csv"]

    def test_oracle_paths_validated_but_not_hashed(self):
        base = default_config()
        cfg = parse_config({"analytic": {"oracle_paths": 1234}})
        assert "oracle_paths" not in cfg.to_canonical_dict()["analytic"]
        assert cfg.sha256() == base.sha256()
        with pytest.raises(ConfigError):
            parse_config({"analytic": {"oracle_paths": 0}})
