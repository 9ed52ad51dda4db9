import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from scipy import stats

import taskload
from taskload import (OU_FTE_CENTERED, TOLERANCE_STANDARDS, CrossingGeometry,
                      FlowSpec, TaskloadPmf, compound_poisson_pmf,
                      conflict_interventions_pmf, conflict_pmf, convolve_pmf,
                      crossing_pmf, delta_pmf, min_corner_separation,
                      multilane_pmf, per_aircraft_pmf, poisson_occupancy,
                      single_lane_pmf, solve_safe_zone, tv_distance)
from taskload.flow import (CP_TAIL, occupancy_pmf,
                           safe_zone_printed_residuals, solve_safe_zone_printed)


def poisson_pmf(lam, kmax=80, horizon=None):
    n = np.arange(kmax + 1)
    return TaskloadPmf(stats.poisson.pmf(n, lam), stats.poisson.sf(kmax, lam),
                       horizon)


class TestOccupancy:
    def test_zero_intensity(self):
        occ = poisson_occupancy(FlowSpec(intensity_per_hour=0.0))
        assert occ.probs.tolist() == [1.0]

    def test_direct_value(self):
        occ = poisson_occupancy(FlowSpec(intensity_per_hour=3.0,
                                         t_cross_min=20.0))
        assert occ.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mean_is_intensity_times_residency(self):
        occ = poisson_occupancy(FlowSpec(intensity_per_hour=60.0,
                                         t_cross_min=20.0))
        assert occ.mean() == pytest.approx(20.0, abs=1e-6)


def run_python(code: str, timeout: float = 30.0):
    """Run code in a fresh interpreter that imports this taskload; a hang
    fails as subprocess.TimeoutExpired instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(taskload.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestCompoundPoisson:
    def test_matches_brute_force_mixture(self):
        # lane_dense: one 60/h stringent lane, 20 min residency, 120 min
        per_ac = per_aircraft_pmf(OU_FTE_CENTERED, FlowSpec(60.0), 120.0,
                                  1.0)["total"]
        m = 20.0
        probs = np.zeros(1)
        conv = np.array([1.0])                   # f^{*0}
        for k in range(121):
            term = stats.poisson.pmf(k, m) * conv
            probs = np.pad(probs, (0, max(0, term.size - probs.size)))
            probs[:term.size] += term
            conv = np.convolve(conv, per_ac.probs)
        brute = TaskloadPmf(probs, 1.0 - probs.sum(), 120.0)
        out = compound_poisson_pmf(m, per_ac)
        assert tv_distance(out, brute) <= 1e-11

    def test_point_mass_one_is_poisson(self):
        for m in (0.5, 20.0, 300.0):
            out = compound_poisson_pmf(m, delta_pmf(1))
            ref = stats.poisson.pmf(np.arange(out.probs.size), m)
            assert np.abs(out.probs - ref).max() < 1e-13
            assert out.truncation_mass <= 1e-12

    def test_heterogeneous_lanes_match_convolution(self):
        rng = np.random.default_rng(11)
        flows, pmfs = [], []
        for name, t_cross in (("stringent", 20.0), ("severe", 12.0),
                              ("intermediate", 30.0), ("lax", 7.5)):
            flows.append(FlowSpec(intensity_per_hour=float(rng.uniform(5, 60)),
                                  t_cross_min=t_cross,
                                  tolerance=TOLERANCE_STANDARDS[name].bounds))
            pmfs.append(TaskloadPmf(rng.dirichlet(np.ones(2 + len(pmfs))),
                                    horizon=120.0))
        lanes = [single_lane_pmf(f, p) for f, p in zip(flows, pmfs)]
        assert tv_distance(multilane_pmf(flows, pmfs),
                           reduce(convolve_pmf, lanes)) <= 1e-10

    def test_defective_law_truncates_exactly(self):
        t_a = 0.01
        per_ac = TaskloadPmf(np.array([0.5, 0.3, 0.19]), t_a, 120.0)
        for m in (0.3, 5.0, 30.0):
            out = compound_poisson_pmf(m, per_ac)
            assert out.truncation_mass == pytest.approx(-math.expm1(-m * t_a),
                                                        abs=1e-12)
            # the recursion stops at the first index that leaves at most
            # CP_TAIL of the placeable mass exp(-m t_a) unplaced
            kept = math.exp(-m * t_a)
            assert kept - out.probs.sum() <= CP_TAIL
            assert kept - out.probs[:-1].sum() > CP_TAIL

    def test_lattice_law_is_not_cut_short(self):
        # delta(10) places nothing between multiples of 10: a stop on a
        # small term would end at n = 1
        out = compound_poisson_pmf(0.5, delta_pmf(10))
        assert out.mean() == pytest.approx(5.0, abs=1e-10)

    def test_crossing_of_unlike_flows_mixes_control_laws(self):
        g = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
        flows = [FlowSpec(intensity_per_hour=2.5, t_cross_min=g.t_safe_min,
                          tolerance=TOLERANCE_STANDARDS["stringent"].bounds),
                 FlowSpec(intensity_per_hour=7.5, t_cross_min=g.t_safe_min,
                          tolerance=TOLERANCE_STANDARDS["lax"].bounds)]
        pmfs = [TaskloadPmf(np.array([0.9, 0.08, 0.02]), horizon=g.t_safe_min),
                TaskloadPmf(np.array([0.99, 0.01]), horizon=g.t_safe_min)]
        total = crossing_pmf(g, flows, pmfs)
        # reference: control is the sum of the two flows' own lane laws,
        # combined with A - 1 conflicts as displayed
        control = convolve_pmf(*(single_lane_pmf(f, p)
                                 for f, p in zip(flows, pmfs))).probs
        occ = conflict_pmf(g, 2.5, 7.5).probs
        ref = np.zeros(control.size + occ.size)
        ref[0] = occ[0]
        for i in range(occ.size - 1):
            ref[i:i + control.size] += occ[i + 1] * control
        assert tv_distance(total, TaskloadPmf(ref, 1.0 - ref.sum(),
                                              g.t_safe_min)) <= 1e-10

    def test_bad_mean_raises(self):
        for m in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                compound_poisson_pmf(m, delta_pmf(1))


class TestDenseLanes:
    def test_occupancy_beyond_float_range_raises_promptly(self):
        res = run_python(
            "from taskload.flow import occupancy_pmf\n"
            "try:\n    occupancy_pmf(1.0, 800.0)\n"
            "except ValueError:\n    print('raised')\n")
        assert res.stdout.strip() == "raised", res.stderr

    def test_subnormal_p0_raises(self):
        # exp(-740) is subnormal: a law built from it would be off by ~4e-5
        with pytest.raises(ValueError, match="underflows"):
            occupancy_pmf(1.0, 740.0)

    @pytest.mark.parametrize("lam, rc", [(2400.0, 0), (60000.0, 4)])
    def test_dense_lane_analytic_command(self, tmp_path, lam, rc):
        # 2400/h puts 800 aircraft in the lane: exp(-800) underflows, but
        # the lane law's P[0] = exp(-800 (1 - f[0])) ~ 1.6e-19 does not, so
        # the command succeeds; at 60 000/h P[0] underflows and it exits 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flows": [{"intensity_per_hour": lam}],
                                   "mc": {"kind": "single_lane"}}))
        out = tmp_path / "out"
        res = run_python(
            "import sys\nfrom taskload.cli import main\n"
            f"sys.exit(main(['analytic', '--config', {str(cfg)!r}, "
            f"'--out', {str(out)!r}]))\n")
        assert res.returncode == rc, res.stderr
        if rc == 0:
            rows = [ln.split(",") for ln in
                    (out / "analytic_total.csv").read_text().splitlines()
                    if ln[0].isdigit()]
            mean = sum(int(n) * float(p) for n, p in rows)
            per_ac = per_aircraft_pmf(OU_FTE_CENTERED, FlowSpec(lam), 120.0,
                                      1.0)["total"]
            assert mean == pytest.approx(800.0 * per_ac.mean(), rel=1e-9)


class TestSingleLane:
    def test_idle_aircraft(self):
        flow = FlowSpec(intensity_per_hour=10.0)
        out = single_lane_pmf(flow, delta_pmf(0, horizon=120.0))
        assert out.probs[0] == pytest.approx(1.0, abs=1e-11)

    def test_one_each_reproduces_occupancy(self):
        flow = FlowSpec(intensity_per_hour=9.0)
        out = single_lane_pmf(flow, delta_pmf(1, horizon=120.0))
        occ = poisson_occupancy(flow)
        assert tv_distance(out, TaskloadPmf(occ.probs, occ.truncation_mass,
                                            120.0)) < 1e-9

    def test_wald_mean_identity(self):
        flow = FlowSpec(intensity_per_hour=25.0)
        per_ac = TaskloadPmf(np.array([0.7, 0.2, 0.1]), horizon=120.0)
        lane = single_lane_pmf(flow, per_ac)
        expected = poisson_occupancy(flow).mean() * per_ac.mean()
        assert lane.mean() == pytest.approx(expected, rel=1e-6)


class TestMultilane:
    def test_superposition_identity(self):
        # two identical lanes equal one lane at summed intensity
        per_ac = TaskloadPmf(np.array([0.95, 0.04, 0.01]), horizon=120.0)
        lanes = [FlowSpec(intensity_per_hour=30.0)] * 2
        merged = multilane_pmf(lanes, [per_ac, per_ac])
        single = single_lane_pmf(FlowSpec(intensity_per_hour=60.0), per_ac)
        assert tv_distance(merged, single) <= 1e-9

    def test_identity_for_arbitrary_intensity_splits(self):
        per_ac = TaskloadPmf(np.array([0.9, 0.08, 0.02]), horizon=120.0)
        single = single_lane_pmf(FlowSpec(intensity_per_hour=48.0), per_ac)
        for split in ((1.0, 47.0), (12.0, 36.0), (24.0, 24.0)):
            parts = [single_lane_pmf(FlowSpec(intensity_per_hour=s), per_ac)
                     for s in split]
            total = convolve_pmf(parts[0], parts[1])
            assert tv_distance(total, single) <= 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        flows, pmfs = [], []
        for name in ("stringent", "severe", "intermediate", "lax"):
            flows.append(FlowSpec(intensity_per_hour=float(rng.uniform(5, 60)),
                                  tolerance=TOLERANCE_STANDARDS[name].bounds))
            raw = rng.dirichlet(np.ones(4))
            pmfs.append(TaskloadPmf(raw, horizon=120.0))
        base = multilane_pmf(flows, pmfs)
        for perm in ((3, 1, 0, 2), (2, 3, 1, 0)):
            out = multilane_pmf([flows[i] for i in perm],
                                [pmfs[i] for i in perm])
            assert tv_distance(out, base) < 1e-12

    def test_requires_two_flows(self):
        with pytest.raises(ValueError):
            multilane_pmf([FlowSpec(intensity_per_hour=1.0)],
                          [delta_pmf(0)])


class TestSafeZone:
    def test_zero_extent_right_angle(self):
        g = CrossingGeometry(alpha_deg=90.0, e1_nm=0.0, e2_nm=0.0,
                             d_min_nm=5.0)
        out = solve_safe_zone(g)
        assert out.x1_nm == pytest.approx(5.0 / math.sqrt(2), abs=1e-9)
        assert out.x2_nm == pytest.approx(5.0 / math.sqrt(2), abs=1e-9)

    def test_brute_force_corner_oracle(self):
        # minimum corner-to-corner separation is exactly the minimum
        # approach distance, and shrinking the zone violates it
        g = CrossingGeometry(alpha_deg=90.0, e1_nm=1.0, e2_nm=1.0,
                             d_min_nm=5.0)
        out = solve_safe_zone(g)
        x = out.x1_nm
        assert min_corner_separation(g, x, x) == pytest.approx(5.0, abs=1e-9)
        assert min_corner_separation(g, 0.98 * x, 0.98 * x) < 5.0
        # dense 2-D grid over boundary cross-sections agrees with the
        # corner reduction (distance extremes sit at corners)
        a = math.radians(90.0)
        u2 = np.array([math.cos(a), math.sin(a)])
        n2 = np.array([-math.sin(a), math.cos(a)])
        offs = np.linspace(-0.5, 0.5, 41)
        pts1 = np.array([[sx * x, o] for sx in (-1, 1) for o in offs])
        pts2 = np.array([sx * x * u2 + o * n2 for sx in (-1, 1) for o in offs])
        d = np.linalg.norm(pts1[:, None, :] - pts2[None, :, :], axis=2)
        assert d.min() >= 5.0 - 1e-9
        assert d.min() == pytest.approx(5.0, abs=1e-6)

    def test_scale_covariance(self):
        g = CrossingGeometry(alpha_deg=75.0, e1_nm=0.8, e2_nm=1.2,
                             d_min_nm=5.0)
        base = solve_safe_zone(g)
        for s in (0.5, 3.0):
            scaled = solve_safe_zone(CrossingGeometry(
                alpha_deg=75.0, e1_nm=0.8 * s, e2_nm=1.2 * s, d_min_nm=5.0 * s))
            assert scaled.x1_nm == pytest.approx(s * base.x1_nm, rel=1e-9)

    def test_right_angle_transit_time_near_one_minute(self):
        g = CrossingGeometry(alpha_deg=90.0, e1_nm=1.0, e2_nm=1.0,
                             d_min_nm=5.0, speed_kt=480.0)
        out = solve_safe_zone(g)
        assert abs(out.t_safe_min - 1.0) / 1.0 < 0.3

    def test_ninety_degrees_is_smallest_extent(self):
        xs = {}
        for alpha in (30.0, 90.0, 120.0):
            out = solve_safe_zone(CrossingGeometry(alpha_deg=alpha))
            xs[alpha] = out.x1_nm
        assert xs[90.0] < xs[30.0]
        assert xs[90.0] < xs[120.0]

    def test_printed_equalities_have_no_positive_pair(self):
        # the published boundary system, solved as simultaneous
        # equalities, yields only mixed-sign roots here; the geometric
        # solver is the production route
        g = CrossingGeometry(alpha_deg=90.0, e1_nm=1.0, e2_nm=1.0,
                             d_min_nm=5.0)
        roots = solve_safe_zone_printed(g)
        assert roots, "the printed system does have real roots"
        assert not any(x1 > 0 and x2 > 0 for x1, x2 in roots)
        for x1, x2 in roots:
            r1, r2 = safe_zone_printed_residuals(g, x1, x2)
            assert abs(r1) < 1e-6 and abs(r2) < 1e-6


class TestConflicts:
    def test_zero_intensity(self):
        g = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
        occ = conflict_pmf(g, 0.0, 0.0)
        assert occ.probs.tolist() == [1.0]

    def test_published_occupancy_values(self):
        g = CrossingGeometry(alpha_deg=90.0)
        g.t_safe_min = 1.0
        g.x1_nm = g.x2_nm = 4.0
        occ = conflict_pmf(g, 2.5, 2.5)
        assert occ.probs[0] == pytest.approx(math.exp(-1.0 / 12.0), abs=1e-5)
        assert occ.p_geq(2) == pytest.approx(3.29e-3, abs=5e-5)

    def test_doubling_transit_raises_conflicts(self):
        g1 = CrossingGeometry(alpha_deg=90.0)
        g1.t_safe_min, g1.x1_nm, g1.x2_nm = 1.0, 4.0, 4.0
        g2 = CrossingGeometry(alpha_deg=90.0)
        g2.t_safe_min, g2.x1_nm, g2.x2_nm = 2.0, 8.0, 8.0
        assert conflict_pmf(g2, 2.5, 2.5).p_geq(2) > \
            conflict_pmf(g1, 2.5, 2.5).p_geq(2)

    def test_requires_solved_geometry(self):
        with pytest.raises(ValueError):
            conflict_pmf(CrossingGeometry(alpha_deg=90.0), 2.5, 2.5)


class TestCrossing:
    @staticmethod
    def _setup(per_ac=None):
        g = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
        flows = [FlowSpec(intensity_per_hour=2.5, t_cross_min=g.t_safe_min)] * 2
        if per_ac is None:
            per_ac = TaskloadPmf(np.array([0.99, 0.01]),
                                 horizon=g.t_safe_min)
        return g, flows, per_ac

    def test_forced_single_occupancy_reduces_to_control(self):
        g, flows, per_ac = self._setup()
        control = single_lane_pmf(
            replace(flows[0], intensity_per_hour=5.0), per_ac)
        # monkeypatch-free check: with A = 1 surely, total = control
        forced = TaskloadPmf(np.array([0.0, 1.0]))
        out_probs = np.zeros(control.probs.size + 1)
        out_probs[0] = forced.probs[0]
        out_probs[0:control.probs.size] += forced.probs[1] * control.probs
        manual = TaskloadPmf(out_probs, 1 - out_probs.sum())
        assert tv_distance(manual, control) < 1e-12

    def test_idle_aircraft_leaves_conflicts_only(self):
        g, flows, _ = self._setup()
        idle = delta_pmf(0, horizon=g.t_safe_min)
        total = crossing_pmf(g, flows, [idle, idle])
        occ = conflict_pmf(g, 2.5, 2.5)
        shifted = conflict_interventions_pmf(occ)
        assert tv_distance(total, TaskloadPmf(
            shifted.probs, shifted.truncation_mass, g.t_safe_min)) < 1e-9

    def test_zero_line_as_displayed(self):
        g, flows, per_ac = self._setup()
        total = crossing_pmf(g, flows, [per_ac, per_ac])
        occ = conflict_pmf(g, 2.5, 2.5)
        control = single_lane_pmf(
            replace(flows[0], intensity_per_hour=5.0), per_ac)
        expected0 = occ.probs[0] + occ.probs[1] * control.probs[0]
        assert total.probs[0] == pytest.approx(expected0, rel=1e-12)

    def test_mass_normalizes(self):
        g, flows, per_ac = self._setup()
        total = crossing_pmf(g, flows, [per_ac, per_ac])
        assert total.probs.sum() + total.truncation_mass == pytest.approx(
            1.0, abs=1e-9)
