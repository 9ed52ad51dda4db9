import contextlib
import copy
import json
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import taskload
from taskload import ConfigError, cli, default_config
from taskload.cli import build_parser, main
from taskload.config import parse_config

from oracles import csv_payload_csv_writer


#: A crossing config with every key set off its default: bounds on one
#: flow, a standard name on the other.
OFF_DEFAULT = {
    "schema_version": 1,
    "distributions": {
        "lateral": {"gamma": 0.5, "delta": 2.0, "scale_lambda": 0.05,
                    "xi": -0.04},
        "vertical": {"gamma": -0.2, "delta": 1.5, "scale_lambda": 8.0,
                     "xi": 9.0},
        "longitudinal": {"gamma": 0.1, "delta": 1.2, "scale_lambda": 0.3,
                         "xi": 0.2}},
    "ou": {"lateral": {"kappa": 3.0, "mu": 0.01, "sigma": 0.08},
           "vertical": {"kappa": 2.0, "mu": -1.0, "sigma": 9.0},
           "longitudinal": {"kappa": 2.5, "mu": 0.05, "sigma": 0.3}},
    "flows": [{"intensity_per_hour": 7.5, "t_cross_min": 15.0,
               "tolerance": {"lateral_nm": 0.3, "vertical_ft": 35.0,
                             "longitudinal_nm": 1.2}},
              {"intensity_per_hour": 4.0, "t_cross_min": 25.0,
               "standard": "severe"}],
    "geometry": {"alpha_deg": 60.0, "e1_nm": 2.0, "e2_nm": 1.5,
                 "d_min_nm": 3.0, "speed_kt": 420.0},
    "mc": {"kind": "crossing", "horizon_min": 90.0, "obs_dt_min": 0.5,
           "n_runs": 123, "seed": 9, "stream_id": 4},
    "output": {"format": "json"},
}

PINNED_SHA256 = {
    "default":
        "70073ce1341d058de700c8581f0b0af04d28767524fa7b852fb436bde98e0684",
    "off_default":
        "78c8014277e86e060d5244d67071c8becf675c9172e9549e22a47d78b3fe3ab4"}


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
        assert cfg.geometry.speed_kt == 480.0
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

    def test_every_key_off_its_default(self):
        cfg = parse_config(OFF_DEFAULT)
        defaults = dict(leaves(default_config().to_canonical_dict()))
        for path, value in leaves(cfg.to_canonical_dict()):
            # each flow is compared with the default lane
            base = (path[0], 0, *path[2:]) if path[0] == "flows" else path
            assert path == ("schema_version",) or value != defaults[base], \
                path

    def test_off_default_round_trip(self):
        cfg = parse_config(OFF_DEFAULT)
        again = parse_config(cfg.to_canonical_dict())
        assert again == cfg
        assert again.sha256() == cfg.sha256()

    def test_pinned_hashes(self):
        # a change of the canonical form moves every provenance hash
        assert default_config().sha256() == PINNED_SHA256["default"]
        assert parse_config(OFF_DEFAULT).sha256() == \
            PINNED_SHA256["off_default"]

    @pytest.mark.parametrize("change, message", [
        ({"kind": "warp_drive"}, "mc.kind: unknown scenario"),
        ({"kind": "crossing"}, "takes exactly 2 flows, got 1"),
        ({"flows": []}, "takes exactly 1 flow, got 0"),
        ({"horizon_min": 0.0}, "mc.horizon_min must be > 0"),
        ({"obs_dt_min": -1.0}, "mc.obs_dt_min must be > 0"),
        ({"n_runs": 0}, "mc.n_runs must be a positive integer"),
        ({"ou": {}}, "ou: no parameters for axis"),
    ])
    def test_built_configs_checked_like_files(self, change, message):
        # the harness and the pipeline take a ConfigFile built in code
        # too; it is held to the same checks as one read from a file
        with pytest.raises(ConfigError, match=message):
            replace(default_config(), **change)

    def test_count_full_horizon_loads_only_off(self):
        with pytest.warns(UserWarning, match="mc.count_full_horizon"):
            cfg = parse_config({"mc": {"count_full_horizon": False}})
        assert "count_full_horizon" not in cfg.to_canonical_dict()["mc"]
        assert cfg.sha256() == default_config().sha256()
        with pytest.raises(ConfigError, match="count_full_horizon was removed"):
            parse_config({"mc": {"count_full_horizon": True}})


def read_payload(path):
    with open(path) as fh:
        return fh.read()


def seed_config(tmp_path, seed):
    """A default config drawing at mc.seed = seed."""
    cfg = tmp_path / f"seed{seed}.json"
    cfg.write_text(json.dumps({"mc": {"seed": seed}}))
    return cfg


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
        cfg = seed_config(tmp_path, 5)
        for path in (a, b):
            rc = main(["generate", "--axis", "lateral", "-n", "1000",
                       "--config", str(cfg), "--out", str(path)])
            assert rc == 0
        assert read_payload(a) == read_payload(b)

    def test_generate_moments(self, tmp_path):
        out = tmp_path / "fte.csv"
        main(["generate", "--axis", "lateral", "-n", "200000",
              "--config", str(seed_config(tmp_path, 5)), "--out", str(out)])
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
        rc = main(["calibrate", "--in", str(data), "--out", str(out)])
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
              "--config", str(seed_config(tmp_path, 9)), "--out", str(fte)])
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

    @pytest.mark.parametrize("values", ["0.1\n0.2\n", "0.1\nnan\n0.3\n"],
                             ids=["two_values", "nan"])
    def test_calibrate_unusable_series_is_a_data_error(self, tmp_path,
                                                        capsys, values):
        bad = tmp_path / "bad.csv"
        bad.write_text("lat_nm\n" + values)
        out = tmp_path / "r.json"
        rc = main(["calibrate", "--in", str(bad), "--out", str(out)])
        assert rc == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_reads_what_generate_writes_as_json(self, tmp_path):
        reports = []
        for fmt in ("csv", "json"):
            cfg = tmp_path / f"seed9_{fmt}.json"
            cfg.write_text(json.dumps({"mc": {"seed": 9},
                                       "output": {"format": fmt}}))
            fte, out = tmp_path / f"fte.{fmt}", tmp_path / f"cal_{fmt}.json"
            assert main(["generate", "--axis", "vertical", "-n", "2000",
                         "--config", str(cfg), "--out", str(fte)]) == 0
            assert main(["calibrate", "--in", str(fte),
                         "--out", str(out)]) == 0
            reports.append(json.loads(read_payload(out))["reports"])
        assert set(reports[0]) == {"vertical"}
        assert reports[0] == reports[1]

    def test_table_read_by_content_not_name(self, tmp_path):
        # a JSON table named .csv and a CSV table named .json calibrate
        # to the reports of the same tables under their own suffix
        reports = {}
        for fmt, other in (("csv", "json"), ("json", "csv")):
            cfg = tmp_path / f"seed9_{fmt}.json"
            cfg.write_text(json.dumps({"mc": {"seed": 9},
                                       "output": {"format": fmt}}))
            for suffix in (fmt, other):
                fte = tmp_path / f"{fmt}_table.{suffix}"
                out = tmp_path / f"cal_{fmt}_{suffix}.json"
                assert main(["generate", "--axis", "lateral", "-n", "500",
                             "--config", str(cfg), "--out", str(fte)]) == 0
                assert main(["calibrate", "--in", str(fte),
                             "--out", str(out)]) == 0
                reports[fmt, suffix] = json.loads(read_payload(out))[
                    "reports"]
        assert reports["csv", "json"] == reports["csv", "csv"]
        assert reports["json", "csv"] == reports["json", "json"]

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": {"kind": "warp_drive"}}))
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bin.json"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "an")]) == 2
        assert f"config {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # a lane too dense for P[0] to be a normal float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flows": [{"intensity_per_hour": 6e4}]}))
        rc = main(["analytic", "--config", str(cfg),
                   "--out", str(tmp_path / "an")])
        assert rc == 4

    def test_kernel_above_max_nodes_exits_4(self, tmp_path, capsys):
        # kappa = 0 and a per-observation sd of 0.01 NM: a 7 NM lateral
        # bound is 700 deviations wide, yet 400 observations spread the
        # chain to within 40 of its deviations (0.2 NM), so the lane's
        # first-hit kernel needs 4 200 nodes, above MAX_NODES
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ou": {"lateral": {"kappa": 0.0, "mu": 0.0, "sigma": 0.01}},
            "flows": [{"intensity_per_hour": 5.0, "t_cross_min": 400.0,
                       "tolerance": {"lateral_nm": 7.0}}],
            "mc": {"kind": "single_lane", "n_runs": 5, "seed": 1}}))
        out = tmp_path / "mc"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 4
        assert "needs 4200 nodes" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("kind, intensities, fmt", [
        ("single_lane", [5.0], "csv"), ("multilane", [5.0, 10.0], "csv"),
        ("crossing", [5.0, 5.0], "csv"), ("single_lane", [5.0], "json")],
        ids=["single_lane", "multilane", "crossing", "single_lane_json"])
    def test_simulate_reproduces_from_resolved_config(self, tmp_path, kind,
                                                      intensities, fmt):
        # the crossing's replay solves its safe zone again: the solved
        # fields are not part of the resolved config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": lam} for lam in intensities],
            "mc": {"kind": kind, "n_runs": 30, "seed": 8},
            "output": {"format": fmt},
        }))
        out1 = tmp_path / "o1"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out1)]) == 0
        out2 = tmp_path / "o2"
        assert main(["simulate", "--config",
                     str(out1 / "config_resolved.json"),
                     "--out", str(out2)]) == 0
        written = sorted(p.name for p in out1.iterdir())
        assert written == sorted(p.name for p in out2.iterdir())
        assert len(written) > 2
        assert all(name.endswith(f".{fmt}") for name in written
                   if name != "config_resolved.json")
        for name in written:
            assert read_payload(out1 / name) == read_payload(out2 / name)

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
        rc = main(["safe-zone", "--out", str(out)])
        assert rc == 0
        rows = [l for l in read_payload(out).splitlines()
                if not l.startswith("#")]
        header, values = rows[0].split(","), rows[1].split(",")
        t_safe = float(values[header.index("t_safe_min")])
        assert abs(t_safe - 1.0) < 0.3
        assert "# seed=" not in read_payload(out)

    def test_safe_zone_json_on_stdout(self, tmp_path, capsys):
        # without --out the table goes to stdout in the chosen format
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"format": "json"}}))
        out = tmp_path / "zone.json"
        assert main(["safe-zone", "--config", str(cfg),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["safe-zone", "--config", str(cfg)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(read_payload(out))
        assert printed["columns"] == written["columns"]
        assert printed["rows"] == written["rows"]
        assert "t_safe_min" in printed["columns"]

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

    def test_compare_non_finite_law_is_a_numerical_failure(self, tmp_path,
                                                           capsys):
        analytic = tmp_path / "a.csv"
        mc = tmp_path / "m.csv"
        analytic.write_text("n,prob\n0,nan\n1,1\n")
        mc.write_text("# n_runs=10\nn,prob\n0,0\n1,1\n")
        rep = tmp_path / "rep.json"
        assert main(["compare", "--analytic", str(analytic), "--mc", str(mc),
                     "--out", str(rep)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not rep.exists()

    def test_analytic_command_zero_intensity(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": 0.0}],
            "mc": {"kind": "single_lane", "seed": 2},
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
            "mc": {"kind": "single_lane", "n_runs": 400, "seed": 31}}
    for key, val in sections.items():
        data[key] = {**data.get(key, {}), **val}
    cfg.write_text(json.dumps(data))
    return cfg


class TestCsvPayload:
    """_csv_payload against the csv.writer builder it replaced."""

    def test_every_table_kind_matches_csv_writer(self, tmp_path,
                                                 monkeypatch):
        built = []
        build = cli._csv_payload

        def recording(prov, header, rows):
            built.append((header, len(rows), build(prov, header, rows),
                          csv_payload_csv_writer(prov, header, rows)))
            return built[-1][2]

        monkeypatch.setattr(cli, "_csv_payload", recording)
        cfg = str(lane_config(tmp_path, mc={"n_runs": 50}))
        for argv in (["analytic"], ["simulate"],
                     ["generate", "--axis", "lateral", "-n", "0"],
                     ["generate", "--axis", "vertical", "-n", "5"],
                     ["safe-zone"]):
            out = tmp_path / f"{argv[0]}{len(built)}"
            assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        for header, n_rows, text, want in built:
            assert text == want, header
        kinds = {(tuple(header), n_rows > 0) for header, n_rows, *_ in built}
        assert kinds >= {
            (("n", "prob"), True),        # PMF, its truncation row last
            (("n", "prob", "ci_lo", "ci_hi", "below_floor"), True),
            (("t_min", "value"), True), (("lat_nm",), False),
            (("vert_ft",), True), (("alpha_deg", "e1_nm", "e2_nm",
                                     "d_min_nm", "x1_nm", "x2_nm",
                                     "t_safe_min"), True)}

    @pytest.mark.parametrize("header,rows", [
        (["n", "label"], [[0, "a,b"]]), (["n", "label"], [[0, 'say "a"']]),
        (["n", "label"], [[0, "two\nlines"]]),
        (["n", "label"], [[0, "cr\r"]]), (["label"], [[""]]),
        (["a,b"], [])])
    def test_field_that_needs_quoting_raises(self, header, rows):
        with pytest.raises(ValueError, match="needs CSV quoting"):
            cli._csv_payload({}, header, rows)


class TestConfigReachesOutput:
    def test_compare_reads_run_count_from_provenance(self, tmp_path):
        cfg = lane_config(tmp_path)
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "an")]) == 0
        z = {}
        for fmt in ("csv", "json"):
            mc = tmp_path / fmt
            cfg = lane_config(tmp_path, output={"format": fmt})
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(mc)]) == 0
            rep = tmp_path / "rep.json"
            main(["compare", "--analytic",
                  str(tmp_path / "an" / "analytic_total.csv"),
                  "--mc", str(mc / f"mc_total.{fmt}"), "--out", str(rep)])
            z[fmt] = json.loads(read_payload(rep))["max_abs_z"]
        assert z["csv"] == z["json"]
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


RETIRED = ("mc.dt_min", "analytic.oracle_paths", "flows[].speed_kt",
           "flows[].lateral_extent_nm")


def payload(path):
    """A written table without its provenance."""
    text = path.read_text()
    if path.suffix == ".json":
        body = json.loads(text)
        body.pop("provenance", None)
        return body
    return [line for line in text.splitlines() if not line.startswith("#")]


def tables(out_dir):
    return {p.name: payload(p) for p in sorted(out_dir.iterdir())
            if p.name != "config_resolved.json"}


def main_recording(*argvs):
    """Exit codes of commands run in one process, and the warnings shown
    under the default filter, which shows each message once."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("default")
        codes = [main(argv) for argv in argvs]
    return codes, [str(w.message) for w in rec]


class TestAnalyticIsDeterministic:
    def test_tables_ignore_seed_and_oracle_paths(self, tmp_path):
        # nothing analytic is drawn: mc.seed moves no table row and no
        # seed is written; the retired oracle_paths moves no byte
        files = {}
        for paths, seed in ((2000, 1), (500000, 1), (None, 987)):
            sections = {"mc": {"seed": seed}}
            if paths is not None:
                sections["analytic"] = {"oracle_paths": paths}
            cfg = lane_config(tmp_path, **sections)
            out = tmp_path / f"an{paths}-{seed}"
            with (pytest.warns(UserWarning, match="analytic.oracle_paths")
                  if paths is not None else contextlib.nullcontext()):
                assert main(["analytic", "--config", str(cfg),
                             "--out", str(out)]) == 0
            files[paths, seed] = {p.name: p.read_text()
                                  for p in out.iterdir()}
        # 3 axes and the total, 3 densities, the resolved config
        assert len(files[2000, 1]) == 8
        assert files[2000, 1] == files[500000, 1]
        assert tables(tmp_path / "an2000-1") == tables(tmp_path / "anNone-987")
        assert "# seed=" not in files[2000, 1]["analytic_total.csv"]
        assert "# stream_id=" not in files[2000, 1]["analytic_total.csv"]

    def test_retired_keys_dropped_unhashed(self):
        # accepted whatever their value, named once each, then dropped
        data = {"mc": {"dt_min": 0.0}, "analytic": {"oracle_paths": "any"},
                "flows": [{"intensity_per_hour": 2.5, "speed_kt": -1,
                           "lateral_extent_nm": None}]}
        with pytest.warns(UserWarning) as rec:
            cfg = parse_config(data)
        notices = [str(w.message) for w in rec]
        assert len(notices) == len(RETIRED)
        for key in RETIRED:
            assert sum(key in n for n in notices) == 1
        canonical = cfg.to_canonical_dict()
        assert "dt_min" not in canonical["mc"]
        assert "analytic" not in canonical
        assert set(canonical["flows"][0]) == {"intensity_per_hour",
                                              "t_cross_min", "tolerance"}
        assert cfg.sha256() == default_config().sha256()
        # any other unknown key is still rejected with its path
        with pytest.raises(ConfigError, match=r"at mc$"):
            parse_config({"mc": {"dt": 0.1}})
        with pytest.raises(ConfigError, match=r"at flows\[1\]$"):
            parse_config({"flows": [{}, {"speed": 480.0}]})


class TestCommandLineValues:
    """Flags a command does not use, and out-of-range values, are usage
    errors: exit 2 before anything runs."""

    @pytest.mark.parametrize("argv, message", [
        (["analytic", "--seed", "1", "--out", "o"], "unrecognized"),
        (["calibrate", "--seed", "1", "--in", "x.csv", "--out", "r.json"],
         "unrecognized"),
        (["safe-zone", "--seed", "1"], "unrecognized"),
        (["simulate", "--dt", "0.1", "--out", "o"], "unrecognized"),
        (["safe-zone", "--alpha", "200"], "unrecognized"),
        (["simulate", "--runs", "0", "--out", "o"], "unrecognized"),
        (["generate", "--axis", "lateral", "-n", "-3", "--out", "x.csv"],
         "-3 is not"),
        (["calibrate", "--dt", "0", "--in", "x.csv", "--out", "r.json"],
         "0 is not"),
        (["compare", "--analytic", "a.csv", "--mc", "m.csv", "--runs", "0"],
         "unrecognized"),
        (["calibrate", "--format", "csv", "--in", "x.csv", "--out", "r.csv"],
         "unrecognized"),
        (["calibrate", "--config", "c.json", "--in", "x.csv",
          "--out", "r.json"], "unrecognized"),
        (["compare", "--analytic", "a.csv", "--mc", "m.csv", "--tv", "nan",
          "--out", "rep.json"], "nan is not"),
        (["compare", "--analytic", "a.csv", "--mc", "m.csv", "--tv", "-1",
          "--out", "rep.json"], "-1 is not"),
        (["generate", "--seed", "1", "--axis", "lateral", "-n", "3",
          "--out", "x.csv"], "unrecognized"),
        (["simulate", "--seed", "1", "--out", "o"], "unrecognized"),
        (["calibrate", "--method", "both", "--in", "x.csv",
          "--out", "r.json"], "unrecognized"),
        (["generate", "--format", "json", "--axis", "lateral", "-n", "3",
          "--out", "x.csv"], "unrecognized"),
        (["analytic", "--format", "json", "--out", "o"], "unrecognized"),
        (["simulate", "--format", "json", "--out", "o"], "unrecognized"),
        (["safe-zone", "--format", "json", "--out", "zone.json"],
         "unrecognized"),
    ])
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, argv,
                                 message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analytic", "--out", "afile"],
        ["generate", "--axis", "lateral", "-n", "3", "--out", "afile/x.csv"],
        ["compare", "--analytic", "a.csv", "--mc", "m.csv",
         "--out", "afile/r.json"]], ids=["analytic", "generate", "compare"])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys,
                                    argv):
        # a file stands where the output directory would go
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").touch()
        (tmp_path / "a.csv").write_text("n,prob\n0,1\n")
        (tmp_path / "m.csv").write_text("# n_runs=1\nn,prob\n0,1\n")
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert "afile" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_bytes() == b""


def file_ids(directory):
    """(inode, mtime in ns) of each file in directory, by name; no
    temporary file may be left there."""
    ids = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
           for p in directory.iterdir()}
    assert not [name for name in ids if name.endswith(".tmp")]
    return ids


@pytest.fixture
def held_open():
    """Keeps files open so that a file replaced meanwhile cannot hand
    its inode number on to its replacement."""
    with contextlib.ExitStack() as stack:
        yield lambda directory: [stack.enter_context(open(p, "rb"))
                                 for p in directory.iterdir()]


@pytest.fixture
def set_umask():
    """Sets the process umask for one test, and the mode the writer
    reads from it once per process; both are restored afterwards."""
    old = os.umask(0o022)
    os.umask(old)

    def set_to(mask):
        os.umask(mask)
        cli._file_mode.cache_clear()
    yield set_to
    set_to(old)


class TestWrites:
    """Every output is written atomically, a file that already holds
    the bytes to be written is left in place, and new files take the
    umask's mode."""

    def run_both(self, cfg, out):
        for command in ("analytic", "simulate"):
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 0

    def test_unchanged_files_left_in_place(self, tmp_path, held_open):
        out = tmp_path / "out"
        cfg = lane_config(tmp_path, mc={"n_runs": 20})
        self.run_both(cfg, out)
        before = file_ids(out)
        assert "config_resolved.json" in before
        assert sum(name.startswith("mc_") for name in before) == 4
        held_open(out)
        self.run_both(cfg, out)
        assert file_ids(out) == before

    def test_another_seed_rewrites_config_and_mc_tables(self, tmp_path,
                                                        held_open):
        out = tmp_path / "out"
        self.run_both(lane_config(tmp_path, mc={"n_runs": 20}), out)
        before = file_ids(out)
        held_open(out)
        assert main(["simulate", "--config",
                     str(lane_config(tmp_path, mc={"n_runs": 20, "seed": 32})),
                     "--out", str(out)]) == 0
        after = file_ids(out)
        assert sorted(after) == sorted(before)
        changed = {name for name in after if after[name][0] != before[name][0]}
        assert changed == {name for name in after
                           if name == "config_resolved.json"
                           or name.startswith("mc_")}
        assert json.loads(read_payload(out / "config_resolved.json"))[
            "mc"]["seed"] == 32

    def test_same_size_file_with_one_byte_changed_replaced(self, tmp_path,
                                                           held_open):
        out = tmp_path / "out"
        cfg = lane_config(tmp_path, mc={"n_runs": 20})
        self.run_both(cfg, out)
        table = out / "mc_total.csv"
        written = table.read_bytes()
        at = written.index(b"\n0,") + 1
        table.write_bytes(written[:at] + b"1" + written[at + 1:])
        before = file_ids(out)
        held_open(out)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert table.read_bytes() == written
        after = file_ids(out)
        assert {name for name in after if after[name] != before[name]} == \
            {"mc_total.csv"}

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["022", "077"])
    def test_files_take_the_umask_mode(self, tmp_path, set_umask, mask,
                                       mode):
        set_umask(mask)
        with open(tmp_path / "plain.txt", "w"):
            pass
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == mode
        out = tmp_path / "out"
        self.run_both(lane_config(tmp_path, mc={"n_runs": 20}), out)
        assert main(["generate", "--axis", "lateral", "-n", "3",
                     "--out", str(out / "x.csv")]) == 0
        modes = {name: stat.S_IMODE((out / name).stat().st_mode)
                 for name in file_ids(out)}
        assert len(modes) > 5
        assert set(modes.values()) == {mode}

    @pytest.mark.parametrize("argv, out", [
        (["generate", "--axis", "lateral", "-n", "3"], "new/a/x.csv"),
        (["compare", "--analytic", "a.csv", "--mc", "m.csv"], "new/b/r.json"),
        (["safe-zone"], "new/c/s.csv"),
        (["calibrate", "--in", "series.csv"], "new/d/r.json")],
        ids=["generate", "compare", "safe-zone", "calibrate"])
    def test_single_file_commands_make_parent_directories(
            self, tmp_path, monkeypatch, argv, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text("n,prob\n0,1\n")
        (tmp_path / "m.csv").write_text("# n_runs=1\nn,prob\n0,1\n")
        (tmp_path / "series.csv").write_text(
            "lat_nm\n" + "\n".join(str(0.01 * (i % 7)) for i in range(50)))
        assert main(argv + ["--out", out]) == 0
        assert (tmp_path / out).stat().st_size > 0
        assert list(tmp_path.rglob("*.tmp")) == []


class TestFlowCountPerKind:
    """Flows that do not fit mc.kind are a config error on both routes,
    before anything is written."""

    @pytest.mark.parametrize("kind, n_flows, takes", [
        ("single_lane", 2, "exactly 1 flow"),
        ("crossing", 1, "exactly 2 flows"),
        ("crossing", 3, "exactly 2 flows")])
    def test_exits_2(self, tmp_path, capsys, kind, n_flows, takes):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "flows": [{"intensity_per_hour": 5.0}] * n_flows,
            "mc": {"kind": kind, "n_runs": 5}}))
        for command in ("analytic", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"mc.kind '{kind}' takes {takes}, got {n_flows}" in err
            assert not out.exists()


class TestMalformedValues:
    """A section that is not an object, or a JSON boolean where a count
    belongs, is a config error naming its path: exit 2 on both routes,
    nothing written."""

    @staticmethod
    def assert_exits_2(tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        for command in ("analytic", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("data, path", [
        ({"mc": None}, "mc"),
        ({"analytic": []}, "analytic"),
        ({"output": "csv"}, "output"),
        ({"geometry": []}, "geometry"),
        ({"flows": [5]}, "flows[0]"),
        ({"flows": [{}, None]}, "flows[1]"),
        ({"ou": []}, "ou"),
        ({"distributions": {"lateral": 1.0}}, "distributions.lateral"),
    ])
    def test_section_not_an_object(self, tmp_path, capsys, data, path):
        self.assert_exits_2(tmp_path, capsys, data,
                            f"{path} must be an object")

    @pytest.mark.parametrize("data, path", [
        ({"geometry": {"alpha_deg": None}}, "geometry.alpha_deg"),
        ({"flows": [{"intensity_per_hour": None}]},
         "flows[0].intensity_per_hour"),
        ({"flows": [{"t_cross_min": None}]}, "flows[0].t_cross_min"),
        ({"flows": [{"tolerance": {"lateral_nm": None}}]},
         "flows[0].tolerance.lateral_nm"),
        ({"ou": {"lateral": {"kappa": None}}}, "ou.lateral.kappa"),
        ({"distributions": {"lateral": {"delta": None}}},
         "distributions.lateral.delta"),
    ])
    def test_null_is_not_a_number(self, tmp_path, capsys, data, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**data, "mc": {"n_runs": 5}}))
        for command in ("analytic", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"{path} must be a number, got None" in err
            assert err.count(path) == 1
            assert not out.exists()

    def test_null_run_count_is_unset(self):
        cfg = parse_config({"mc": {"n_runs": None}})
        assert cfg.n_runs is None
        assert cfg.resolved_runs() == default_config().resolved_runs()

    def test_boolean_is_not_an_integer(self, tmp_path, capsys):
        for data, message in (
                ({"mc": {"n_runs": True}},
                 "mc.n_runs must be a positive integer, got True"),
                ({"mc": {"n_runs": 5, "seed": True}},
                 "mc.seed must be an integer, got True"),
                ({"mc": {"n_runs": 5, "stream_id": False}},
                 "mc.stream_id must be an integer, got False"),
                ({"mc": {"n_runs": 5}, "schema_version": True},
                 "unsupported schema_version True")):
            self.assert_exits_2(tmp_path, capsys, data, message)


def test_readme_commands_parse():
    # every `taskload ...` line of README's code blocks, backslash
    # continuations joined, parses; nothing runs
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    text = "\n".join(blocks).replace("\\\n", " ")
    commands = [line.split()[1:] for line in text.splitlines()
                if line.startswith("taskload ")]
    assert len(commands) >= 6
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_runtime_never_imports_scipy(tmp_path):
    # a fresh interpreter, so that the test session's own scipy does
    # not hide an import from the library
    cfg = lane_config(tmp_path)
    code = "\n".join([
        "import json, sys",
        "import taskload.cli",
        "from taskload.config import load_config",
        f"load_config({str(cfg)!r})",
        "for cmd in ('analytic', 'simulate'):",
        f"    assert taskload.cli.main([cmd, '--config', {str(cfg)!r},",
        f"        '--out', {str(tmp_path / 'out')!r} + cmd]) == 0",
        "print(json.dumps([m for m in sys.modules",
        "                  if m.split('.')[0] == 'scipy']))"])
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def fresh_env():
    """The environment of a fresh interpreter that imports this taskload."""
    src = os.path.dirname(os.path.dirname(taskload.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_one_process_writes_what_fresh_processes_write(tmp_path):
    # the parser is built once per process: no option of one call may
    # reach the next
    json_cfg = lane_config(tmp_path, mc={"n_runs": 5},
                           output={"format": "json"}).rename(
        tmp_path / "json_cfg.json")
    cfg = lane_config(tmp_path, mc={"n_runs": 5})
    assert taskload.cli.build_parser() is taskload.cli.build_parser()
    for i, argv in enumerate([["simulate", "--config", str(json_cfg)],
                              ["simulate", "--config", str(cfg)]]):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert main(argv + ["--out", str(here)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "taskload.cli", *argv, "--out", str(fresh)],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written = sorted(p.name for p in here.iterdir())
        assert written == sorted(p.name for p in fresh.iterdir())
        assert [read_payload(here / n) for n in written] == \
            [read_payload(fresh / n) for n in written]


def bench_shaped_config(tmp_path, kind, intensities, retired):
    """A scenario config laid out like the benchmark's generated ones,
    with or without the retired keys those carry."""
    flows = [{"intensity_per_hour": lam, "t_cross_min": 20.0,
              "tolerance": {"lateral_nm": 0.1, "vertical_ft": 20.0,
                            "longitudinal_nm": 0.5}} for lam in intensities]
    mc = {"kind": kind, "horizon_min": 120.0, "obs_dt_min": 1.0,
          "n_runs": 30, "seed": 5}
    data = {"schema_version": 1, "flows": flows, "mc": mc}
    if kind == "crossing":
        data["geometry"] = {"alpha_deg": 90.0, "e1_nm": 1.0, "e2_nm": 1.0,
                            "d_min_nm": 5.0, "speed_kt": 480.0}
    if retired:
        for flow in flows:
            flow["speed_kt"] = 480.0
        mc["dt_min"] = 0.1
        data["analytic"] = {"oracle_paths": 20000}
    path = tmp_path / f"{kind}-{retired}.json"
    path.write_text(json.dumps(data))
    return path


class TestRetiredKeysStillLoad:
    @pytest.mark.parametrize("kind, intensities", [
        ("single_lane", [60.0]), ("multilane", [5.0, 5.0, 5.0]),
        ("crossing", [5.0, 5.0])])
    def test_bench_shaped_configs_run_unchanged(self, tmp_path, kind,
                                                intensities):
        files = {}
        for retired in (True, False):
            cfg = bench_shaped_config(tmp_path, kind, intensities, retired)
            codes, notices = main_recording(*(
                [command, "--config", str(cfg),
                 "--out", str(tmp_path / f"{retired}" / command)]
                for command in ("analytic", "simulate")))
            assert codes == [0, 0]
            named = RETIRED[:3] if retired else ()
            assert len(notices) == len(named)
            for key in named:
                assert sum(key in n for n in notices) == 1
            files[retired] = {p.relative_to(tmp_path / f"{retired}"):
                              p.read_bytes()
                              for p in (tmp_path / f"{retired}").rglob("*")
                              if p.is_file()}
        # the retired keys reach neither the hash nor the tables
        assert len(files[True]) > 8
        assert files[True] == files[False]


class TestRetiredCountCap:
    """Counts are carried to a 1e-15 tail and never exceed the number of
    observations, so analytic.n_max caps nothing: it loads as retired."""

    def test_n_max_loads_with_one_warning_unhashed(self):
        with pytest.warns(UserWarning) as rec:
            cfg = parse_config({"analytic": {"n_max": 3}})
        assert [str(w.message) for w in rec] == [
            "config key analytic.n_max is retired and ignored"]
        assert cfg.sha256() == default_config().sha256()

    def test_n_max_moves_no_byte(self, tmp_path):
        files = {}
        for n_max in (3, None):
            sections = {"mc": {"n_runs": 20}}
            if n_max is not None:
                sections["analytic"] = {"n_max": n_max}
            cfg = lane_config(tmp_path, **sections)
            out = tmp_path / f"n_max-{n_max}"
            codes, notices = main_recording(*(
                [command, "--config", str(cfg), "--out", str(out / command)]
                for command in ("analytic", "simulate")))
            assert codes == [0, 0]
            assert len(notices) == (n_max is not None)
            files[n_max] = {p.relative_to(out): p.read_bytes()
                            for p in out.rglob("*") if p.is_file()}
        assert len(files[3]) > 8
        assert files[3] == files[None]

    def test_tight_bound_carries_every_count(self, tmp_path):
        # a lateral bound hit at almost every observation: up to 120
        # counts per aircraft, all of them kept
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"flows": [{"tolerance": {"lateral_nm": 0.01}}]}))
        out = tmp_path / "an"
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = payload(out / "analytic_total.csv")[1:]
        mass = sum(float(row.split(",")[1]) for row in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)


def recorded_horizon(path):
    """The horizon_min a written table records, or None."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["provenance"].get("horizon_min")
    return next((float(line.partition("=")[2])
                 for line in path.read_text().splitlines()
                 if line.startswith("# horizon_min=")), None)


class TestCompareChecksHorizons:
    """Each count table records its own horizon; compare refuses a pair
    whose recorded horizons differ and compares every other pair."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_crossing_deviation_control_refused(self, tmp_path, capsys, fmt):
        cfg = bench_shaped_config(tmp_path, "crossing", [5.0, 5.0], False)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                                   "output": {"format": fmt}}))
        out = {}
        for command in ("analytic", "simulate"):
            out[command] = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out[command])]) == 0
        analytic = out["analytic"] / f"analytic_deviation_control.{fmt}"
        mc = out["simulate"] / f"mc_deviation_control.{fmt}"
        t_safe = recorded_horizon(analytic)
        assert t_safe == pytest.approx(1.0088834764831847, rel=1e-12)
        assert recorded_horizon(mc) == 120.0
        capsys.readouterr()
        assert main(["compare", "--analytic", str(analytic),
                     "--mc", str(mc)]) == 3
        err = capsys.readouterr().err
        assert f"horizon_min={t_safe}" in err
        assert "horizon_min=120.0" in err
        # window-free laws record no horizon and still compare
        for name in ("occupancy", "conflict_resolution"):
            assert recorded_horizon(
                out["analytic"] / f"analytic_{name}.{fmt}") is None
        assert main(["compare", "--analytic",
                     str(out["analytic"] / f"analytic_conflict_resolution"
                         f".{fmt}"),
                     "--mc", str(out["simulate"]
                                 / f"mc_conflict_resolution.{fmt}")]) in (0, 5)

    @pytest.mark.parametrize("name, text", [
        ("garbled.json", "not json"),
        ("no_rows.json", '{"columns": ["n", "prob"]}'),
        ("list.json", "[1, 2]"),
        ("short_row.csv", "n,prob\n0\n"),
        ("text_prob.csv", "n,prob\n0,half\n"),
        ("bad_horizon.csv", "# horizon_min=soon\nn,prob\n0,1\n"),
        ("gap.csv", "n,prob\n0,0.5\n3,0.5\n"),
        ("unnumbered.csv", "n,prob\nfoo,1\n"),
        ("not_utf8.json", b"\xff\xfe\x00bad")])
    def test_malformed_table_is_a_data_error(self, tmp_path, capsys, name,
                                             text):
        bad = tmp_path / name
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        good = tmp_path / "good.csv"
        good.write_text("# n_runs=10\nn,prob\n0,1\n")
        assert main(["compare", "--analytic", str(bad),
                     "--mc", str(good)]) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("analytic_text, name, mc_text", [
        ("n,prob\n0,0.5\n1,0.5\n", "fractional_runs.json",
         '{"provenance": {"n_runs": 2.5}, "rows": [[0, 0.5], [1, 0.5]]}'),
        ("n,prob\n0,1\n", "bool_runs.json",
         '{"provenance": {"n_runs": true}, "rows": [[0, 1]]}'),
        ("# horizon_min=1.0\nn,prob\n0,0.5\n1,0.5\n", "bool_horizon.json",
         '{"provenance": {"n_runs": 2, "horizon_min": true},'
         ' "rows": [[0, 0.5], [1, 0.5]]}'),
        ("n,prob\n0,1\n", "inf_horizon.csv",
         "# n_runs=1\n# horizon_min=inf\nn,prob\n0,1\n")],
        ids=["fractional_runs", "bool_runs", "bool_horizon", "inf_horizon"])
    def test_recorded_value_read_strictly(self, tmp_path, capsys,
                                          analytic_text, name, mc_text):
        # read loosely, each pair compares with exit 0: 2.5 runs as 2,
        # true as 1 run or a 1.0 horizon, inf as a horizon
        analytic, mc = tmp_path / "a.csv", tmp_path / name
        analytic.write_text(analytic_text)
        mc.write_text(mc_text)
        assert main(["compare", "--analytic", str(analytic),
                     "--mc", str(mc)]) == 3
        assert str(mc) in capsys.readouterr().err

    def test_mc_table_not_whole_run_counts_is_a_data_error(self, tmp_path,
                                                            capsys):
        # 0.5 of 3 runs is no whole number of runs
        analytic, mc = tmp_path / "a.csv", tmp_path / "m.csv"
        analytic.write_text("n,prob\n0,0.5\n1,0.5\ntruncation,0\n")
        mc.write_text("# n_runs=3\nn,prob\n0,0.5\n1,0.5\n")
        rep = tmp_path / "rep.json"
        assert main(["compare", "--analytic", str(analytic), "--mc", str(mc),
                     "--out", str(rep)]) == 3
        assert str(mc) in capsys.readouterr().err
        assert not rep.exists()

    def test_lane_pair_compares_as_without_horizons(self, tmp_path):
        cfg = lane_config(tmp_path)
        for command in ("analytic", "simulate"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / command)]) == 0
        for name in ("lateral", "vertical", "longitudinal", "total"):
            pair = [tmp_path / "analytic" / f"analytic_{name}.csv",
                    tmp_path / "simulate" / f"mc_{name}.csv"]
            assert [recorded_horizon(p) for p in pair] == [120.0, 120.0]
            bare = []
            for p in pair:
                bare.append(tmp_path / f"bare_{p.name}")
                bare[-1].write_text("".join(
                    line for line in p.read_text().splitlines(True)
                    if not line.startswith("# horizon_min=")))
            reports = []
            for a, m in (pair, bare):
                rep = tmp_path / "rep.json"
                code = main(["compare", "--analytic", str(a), "--mc", str(m),
                             "--out", str(rep)])
                reports.append((code, payload(rep)))
            assert reports[0][0] in (0, 5)
            assert reports[0] == reports[1]


def leaves(obj, path=()):
    """(key path, value) of every leaf of a nested dict/list."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, val in items:
            yield from leaves(val, path + (key,))
    else:
        yield path, obj


class TestEveryLeafReachesOutput:
    """Each config leaf, perturbed, changes the table rows of at least
    one command; provenance and config_resolved.json do not count."""

    BASE = {"flows": [{"intensity_per_hour": 10.0}],
            "mc": {"kind": "single_lane", "n_runs": 20, "seed": 3}}
    # where a plain step would leave the output alone or be invalid
    CHOSEN = {("mc", "kind"): "multilane", ("output", "format"): "json"}

    @classmethod
    def perturbed(cls, path, value):
        if path in cls.CHOSEN:
            return cls.CHOSEN[path]
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        return value * 1.25 + 0.01

    @staticmethod
    def outputs(tmp_path, data, tag):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / tag
        runs = [["analytic", "--out", str(out / "analytic")],
                ["simulate", "--out", str(out / "simulate")],
                ["safe-zone", "--out", str(out / "safe-zone" / "zone.csv")]]
        runs += [["generate", "--axis", axis, "-n", "5",
                  "--out", str(out / "generate" / f"{axis}.csv")]
                 for axis in ("lateral", "vertical", "longitudinal")]
        for argv in runs:
            assert main(argv + ["--config", str(cfg)]) == 0, argv
        return {d.name: tables(d) for d in sorted(out.iterdir())}

    def test_every_leaf_changes_some_table(self, tmp_path):
        canonical = parse_config(self.BASE).to_canonical_dict()
        # schema_version tags the format; any other value is rejected
        # (test_bad_schema_version)
        del canonical["schema_version"]
        base = self.outputs(tmp_path, canonical, "base")
        ignored = []
        for i, (path, value) in enumerate(leaves(canonical)):
            data = copy.deepcopy(canonical)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = self.perturbed(path, value)
            if self.outputs(tmp_path, data, f"leaf{i}") == base:
                ignored.append(path)
        assert ignored == []
