import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from taskload import (AXES, OU_FTE_CENTERED, OU_FTE_FIT, CrossingGeometry,
                      EmpiricalPmf, FlowSpec, RandomSource, TaskloadPmf,
                      compare, compare_empirical, conflict_interventions_pmf,
                      conflict_pmf, default_config, delta_pmf, run_crossing,
                      run_multilane, run_single_lane, solve_safe_zone,
                      transition_coeffs, wilson_interval)
from taskload.flow import TOLERANCE_STANDARDS
from taskload import harness


def lane_cfg(**kw):
    defaults = dict(kind="single_lane",
                    flows=[FlowSpec(intensity_per_hour=10.0)],
                    n_runs=200, seed=3)
    defaults.update(kw)
    return replace(default_config(), **defaults)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        a = run_single_lane(lane_cfg())
        b = run_single_lane(lane_cfg())
        for key in a.components:
            assert np.array_equal(a.components[key].counts,
                                  b.components[key].counts)
        assert a.n_aircraft == b.n_aircraft

    def test_seed_changes_results(self):
        a = run_single_lane(lane_cfg(seed=3))
        b = run_single_lane(lane_cfg(seed=4))
        assert any(not np.array_equal(a.components[k].counts,
                                      b.components[k].counts)
                   for k in a.components)

    def test_merge_equals_single_big_run(self):
        # seed-disjoint batches keyed by run offset merge exactly
        whole = run_single_lane(lane_cfg(n_runs=200))
        first = run_single_lane(lane_cfg(n_runs=120))
        second = run_single_lane(lane_cfg(n_runs=80), run_offset=120)
        merged = first.merge(second)
        for key in whole.components:
            assert np.array_equal(merged.components[key].counts,
                                  whole.components[key].counts)

    @pytest.mark.parametrize("other", [{"seed": 2}, {"stream_id": 1}])
    def test_merge_rejects_another_stream(self, other):
        # runs 0-4 of one stream and 5-9 of another are not runs 0-9 of
        # either
        first = run_single_lane(lane_cfg(n_runs=5, seed=1))
        second = run_single_lane(lane_cfg(n_runs=5, **{"seed": 1, **other}),
                                 run_offset=5)
        with pytest.raises(ValueError, match="stream mismatch"):
            first.merge(second)

    def test_merge_rejects_another_horizon(self):
        first = run_single_lane(lane_cfg(n_runs=5, horizon_min=120.0))
        second = run_single_lane(lane_cfg(n_runs=5, horizon_min=60.0),
                                 run_offset=5)
        with pytest.raises(ValueError, match="horizon mismatch"):
            first.merge(second)
        with pytest.raises(ValueError, match="horizon mismatch"):
            first.components["total"].merge(second.components["total"])

    @pytest.mark.parametrize("offset", [0, 10], ids=["self", "gapped"])
    def test_merge_rejects_ranges_not_adjacent(self, offset):
        # runs 0-4 twice would double every count; runs 0-4 and 10-14
        # are not the estimate of any one run range
        first = run_single_lane(lane_cfg(n_runs=5, seed=1))
        other = run_single_lane(lane_cfg(n_runs=5, seed=1), run_offset=offset)
        for a, b in ((first, other), (other, first)):
            with pytest.raises(ValueError, match="not adjacent"):
                a.merge(b)

    def test_merge_in_either_order_starts_at_the_lower_offset(self):
        whole = run_single_lane(lane_cfg(n_runs=50), run_offset=7)
        first = run_single_lane(lane_cfg(n_runs=20), run_offset=7)
        second = run_single_lane(lane_cfg(n_runs=30), run_offset=27)
        for merged in (first.merge(second), second.merge(first)):
            assert merged.run_offset == 7
            assert merged.n_aircraft == whole.n_aircraft
            for key in whole.components:
                assert np.array_equal(merged.components[key].counts,
                                      whole.components[key].counts)


def reference_counts(cfg, flows, t_star=None):
    """Per-run (lane, axis) counts, aircraft total and occupancy at t_star
    from a plain loop over runs, lanes, aircraft, axes and observations,
    drawing in the documented order."""
    src = RandomSource(cfg.seed, cfg.stream_id)
    coeffs = [transition_coeffs(cfg.ou[a], cfg.obs_dt_min) for a in AXES]
    per_run = np.zeros((cfg.n_runs, len(flows), len(AXES)), dtype=int)
    occupancy = np.zeros(cfg.n_runs, dtype=int)
    n_aircraft = 0
    for r in range(cfg.n_runs):
        rs = src.substream(r)
        for li, flow in enumerate(flows):
            window = cfg.horizon_min + flow.t_cross_min
            k = int(rs.poisson(flow.intensity_per_min * window))
            n_aircraft += k
            if k == 0:
                continue
            entries = -flow.t_cross_min + rs.uniform(k) * window
            if t_star is not None:
                occupancy[r] += sum(e <= t_star < e + flow.t_cross_min
                                    for e in entries)
            m_last = math.floor(flow.t_cross_min / cfg.obs_dt_min + 1e-9)
            if m_last == 0:
                continue
            z = rs.standard_normal((m_last, k, len(AXES)))
            for i in range(k):
                for j, axis in enumerate(AXES):
                    a, b, s = coeffs[j]
                    bound = flow.tolerance.for_axis(axis)
                    x = 0.0
                    for m in range(1, m_last + 1):
                        x = a * x + b + s * z[m - 1, i, j]
                        if abs(x) >= bound:
                            t_obs = entries[i] + m * cfg.obs_dt_min
                            if -1e-9 <= t_obs <= cfg.horizon_min + 1e-9:
                                per_run[r, li, j] += 1
                            x = 0.0
    return per_run, n_aircraft, occupancy


def bincount(values):
    return np.bincount(values, minlength=int(values.max(initial=0)) + 1)


ENGINE_BLOCK_ROWS = 512


class TestEngine:
    """The block engine against a plain per-aircraft loop. Run counts are
    not multiples of any block, and each case spans several blocks of
    ENGINE_BLOCK_ROWS aircraft."""

    @pytest.fixture(autouse=True)
    def pinned_block_rows(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", ENGINE_BLOCK_ROWS)

    @staticmethod
    def assert_lane_matches_reference_loop(cfg):
        est = run_single_lane(cfg)
        per_run, n_aircraft, _ = reference_counts(cfg, cfg.flows)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        assert (per_run.sum(axis=(0, 1)) > 0).all()
        for j, axis in enumerate(AXES):
            assert np.array_equal(est.components[axis].counts,
                                  bincount(per_run[:, 0, j]))
        assert np.array_equal(est.components["total"].counts,
                              bincount(per_run.sum(axis=(1, 2))))

    def test_single_lane_matches_reference_loop(self):
        self.assert_lane_matches_reference_loop(lane_cfg(n_runs=97, seed=51))

    def test_single_lane_with_reversion_means_matches_reference_loop(self):
        # nonzero means give every axis its own b, so a coefficient
        # repeated along the wrong axis of a block changes the counts
        assert len({transition_coeffs(p, 1.0)[1]
                    for p in OU_FTE_FIT.values()}) == len(AXES)
        self.assert_lane_matches_reference_loop(
            lane_cfg(n_runs=89, seed=57, ou=dict(OU_FTE_FIT)))

    def test_multilane_matches_reference_loop(self):
        # lanes of unequal residency pad the shorter ones' noise in a block
        flows = [FlowSpec(intensity_per_hour=20.0, t_cross_min=t_cross,
                          tolerance=TOLERANCE_STANDARDS[name])
                 for name, t_cross in (("stringent", 20.0), ("severe", 7.5),
                                       ("intermediate", 30.0))]
        # slow reversion keeps an unreset excursion beyond the bound
        slow = {a: replace(p, kappa=p.kappa / 20)
                for a, p in OU_FTE_CENTERED.items()}
        cfg = replace(default_config(), kind="multilane", flows=flows,
                      ou=slow, n_runs=41, seed=53)
        est = run_multilane(cfg)
        per_run, n_aircraft, _ = reference_counts(cfg, flows)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        for prefix in (1, 2, 3):
            assert np.array_equal(
                est.components[f"lanes{prefix}_total"].counts,
                bincount(per_run[:, :prefix].sum(axis=(1, 2))))
            assert np.array_equal(
                est.components[f"lanes{prefix}_lateral"].counts,
                bincount(per_run[:, :prefix, 0].sum(axis=1)))

    def test_multilane_with_unobserved_lane_matches_reference_loop(self):
        # the half-minute lane is never observed at a 1-minute cadence:
        # its aircraft count, but it adds no intervention
        flows = [FlowSpec(intensity_per_hour=20.0, t_cross_min=t_cross,
                          tolerance=TOLERANCE_STANDARDS[name])
                 for name, t_cross in (("stringent", 0.5), ("severe", 7.5),
                                       ("stringent", 20.0))]
        slow = {a: replace(p, kappa=p.kappa / 20)
                for a, p in OU_FTE_CENTERED.items()}
        cfg = replace(default_config(), kind="multilane", flows=flows,
                      ou=slow, obs_dt_min=1.0, n_runs=29, seed=59)
        est = run_multilane(cfg)
        per_run, n_aircraft, _ = reference_counts(cfg, flows)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        assert per_run[:, 0].sum() == 0
        assert (per_run[:, 1:].sum(axis=(0, 2)) > 0).all()
        for prefix in (1, 2, 3):
            assert np.array_equal(
                est.components[f"lanes{prefix}_total"].counts,
                bincount(per_run[:, :prefix].sum(axis=(1, 2))))
            assert np.array_equal(
                est.components[f"lanes{prefix}_lateral"].counts,
                bincount(per_run[:, :prefix, 0].sum(axis=1)))

    def test_crossing_matches_reference_loop(self):
        geom = solve_safe_zone(CrossingGeometry(alpha_deg=30.0))
        flows = [FlowSpec(intensity_per_hour=60.0),
                 FlowSpec(intensity_per_hour=30.0,
                          tolerance=TOLERANCE_STANDARDS["severe"])]
        cfg = replace(default_config(), kind="crossing", flows=flows,
                      geometry=geom, n_runs=23, seed=55)
        est = run_crossing(cfg)
        transits = [replace(f, t_cross_min=geom.t_safe_min) for f in flows]
        per_run, n_aircraft, occupancy = reference_counts(
            cfg, transits, t_star=cfg.horizon_min / 2.0)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        dev = per_run.sum(axis=(1, 2))
        conf = np.maximum(occupancy - 1, 0)
        assert dev.sum() > 0
        assert np.array_equal(est.components["deviation_control"].counts,
                              bincount(dev))
        assert np.array_equal(est.components["conflict_resolution"].counts,
                              bincount(conf))
        assert np.array_equal(est.components["total"].counts,
                              bincount(dev + conf))

    def test_crossing_occupancy_without_observations(self):
        # a surveillance step longer than the zone transit scores no
        # aircraft, yet every arrival still counts toward the snapshot
        geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
        flows = [FlowSpec(intensity_per_hour=60.0)] * 2
        cfg = replace(default_config(), kind="crossing", flows=flows,
                      geometry=geom, obs_dt_min=2 * geom.t_safe_min,
                      n_runs=31, seed=57)
        est = run_crossing(cfg)
        transits = [replace(f, t_cross_min=geom.t_safe_min) for f in flows]
        _, n_aircraft, occupancy = reference_counts(
            cfg, transits, t_star=cfg.horizon_min / 2.0)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        assert est.components["deviation_control"].counts.tolist() == [31]
        conf = np.maximum(occupancy - 1, 0)
        assert conf.sum() > 0
        assert np.array_equal(est.components["conflict_resolution"].counts,
                              bincount(conf))

    def test_merge_split_inside_a_block(self):
        # about 22 runs of a 10/h lane fill one block, so run 37 falls
        # inside the second block of the whole range
        whole = run_single_lane(lane_cfg(n_runs=150))
        first = run_single_lane(lane_cfg(n_runs=37))
        second = run_single_lane(lane_cfg(n_runs=113), run_offset=37)
        merged = first.merge(second)
        assert merged.n_aircraft == whole.n_aircraft
        for key in whole.components:
            assert np.array_equal(merged.components[key].counts,
                                  whole.components[key].counts)


def unequal_multilane_cfg():
    flows = [FlowSpec(intensity_per_hour=20.0, t_cross_min=t_cross)
             for t_cross in (20.0, 7.5, 30.0)]
    return replace(default_config(), kind="multilane", flows=flows,
                   n_runs=37, seed=61)


def crossing_cfg():
    return replace(default_config(), kind="crossing",
                   flows=[FlowSpec(intensity_per_hour=60.0)] * 2,
                   geometry=solve_safe_zone(CrossingGeometry(alpha_deg=30.0)),
                   n_runs=43, seed=63)


@pytest.mark.parametrize("runner, cfg", [
    (run_single_lane, lane_cfg(n_runs=53, seed=65)),
    (run_multilane, unequal_multilane_cfg()),
    (run_crossing, crossing_cfg()),
], ids=["single_lane", "multilane", "crossing"])
def test_block_size_changes_no_output(monkeypatch, runner, cfg):
    estimates = []
    for rows in (1, 7, 512, 10**6):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", rows)
        estimates.append(runner(cfg))
    first = estimates[0]
    assert first.n_aircraft > 512
    assert first.components["total"].counts.size > 1  # some run counts
    for est in estimates[1:]:
        assert est.n_aircraft == first.n_aircraft
        assert est.components.keys() == first.components.keys()
        for key, comp in first.components.items():
            assert np.array_equal(est.components[key].counts, comp.counts)


class TestSingleLane:
    def test_zero_intensity(self):
        est = run_single_lane(lane_cfg(
            flows=[FlowSpec(intensity_per_hour=0.0)], n_runs=50))
        assert est.components["total"].probs[0] == 1.0

    def test_lane_mean_matches_exposure_rate(self):
        # lateral stringent bound at the 1-minute cadence: per-observation
        # exceedance 2*Phi(-0.1/0.0275) = 2.78e-4 over ~2400 aircraft-min
        est = run_single_lane(lane_cfg(
            flows=[FlowSpec(intensity_per_hour=60.0)], n_runs=600, seed=11))
        lat = est.components["lateral"]
        mean = float(np.arange(lat.counts.size) @ lat.probs)
        expected = 2400.0 * 2 * stats.norm.sf(0.1 / 0.0275089)
        se = np.sqrt(expected / 600)  # Poisson-ish
        assert abs(mean - expected) < 4 * se


class TestMultilane:
    def test_one_lane_equals_single_lane(self):
        flows = [FlowSpec(intensity_per_hour=10.0)]
        single = run_single_lane(lane_cfg(n_runs=150))
        multi = run_multilane(replace(
            default_config(), kind="multilane", flows=flows, n_runs=150,
            seed=3))
        assert np.array_equal(multi.components["lanes1_total"].counts,
                              single.components["total"].counts)

    def test_prefixes_are_nested(self):
        flows = [FlowSpec(intensity_per_hour=30.0,
                          tolerance=TOLERANCE_STANDARDS[name])
                 for name in ("stringent", "severe")]
        est = run_multilane(replace(
            default_config(), kind="multilane", flows=flows, n_runs=100,
            seed=5))
        m = lambda e: float(np.arange(e.counts.size) @ e.probs)
        assert m(est.components["lanes2_total"]) >= m(
            est.components["lanes1_total"])

    def test_identical_lanes_match_summed_intensity(self):
        half = [FlowSpec(intensity_per_hour=30.0)] * 2
        twin = run_multilane(replace(
            default_config(), kind="multilane", flows=half, n_runs=2000,
            seed=17))
        single = run_single_lane(replace(
            default_config(), kind="single_lane",
            flows=[FlowSpec(intensity_per_hour=60.0)], n_runs=2000, seed=23))
        report = compare_empirical(twin.components["total"],
                                   single.components["total"], z_max=3.5)
        assert report.passed


class TestCrossing:
    @staticmethod
    def cfg(**kw):
        geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
        flows = [FlowSpec(intensity_per_hour=2.5)] * 2
        defaults = dict(kind="crossing", flows=flows, geometry=geom,
                        n_runs=3000, seed=29)
        defaults.update(kw)
        return replace(default_config(), **defaults), geom

    def test_conflict_counts_match_occupancy_shift(self):
        cfg, geom = self.cfg()
        est = run_crossing(cfg)
        analytic = conflict_interventions_pmf(conflict_pmf(geom, 2.5, 2.5))
        rep = compare(TaskloadPmf(analytic.probs, analytic.truncation_mass),
                      est.components["conflict_resolution"],
                      tv_threshold=0.03)
        assert rep.passed

    def test_lax_standards_rarely_intervene(self):
        flows = [FlowSpec(intensity_per_hour=2.5,
                          tolerance=TOLERANCE_STANDARDS["lax"])] * 2
        cfg, _ = self.cfg(flows=flows, n_runs=500)
        est = run_crossing(cfg)
        assert est.components["deviation_control"].probs[0] > 0.99

    def test_total_is_dev_plus_conflict(self):
        cfg, _ = self.cfg(n_runs=400)
        est = run_crossing(cfg)
        m = lambda e: float(np.arange(e.counts.size) @ e.probs)
        assert m(est.components["total"]) == pytest.approx(
            m(est.components["deviation_control"])
            + m(est.components["conflict_resolution"]), abs=1e-9)

    def test_right_angle_maximizes_no_control_probability(self):
        # the 90-degree zone is the shortest transit, so it leaves the
        # highest chance of needing no deviation control; the acute
        # crossing is clearly lower, the obtuse one statistically tied
        p0, se = {}, {}
        for alpha, seed in ((30.0, 31), (90.0, 37), (120.0, 41)):
            geom = solve_safe_zone(CrossingGeometry(alpha_deg=alpha))
            est = run_crossing(replace(
                default_config(), kind="crossing",
                flows=[FlowSpec(intensity_per_hour=2.5)] * 2, geometry=geom,
                n_runs=20000, seed=seed))
            dev = est.components["deviation_control"]
            p0[alpha] = dev.probs[0]
            se[alpha] = np.sqrt(p0[alpha] * (1 - p0[alpha]) / dev.n_runs)
        gap_30 = p0[90.0] - p0[30.0]
        assert gap_30 > 2 * np.hypot(se[90.0], se[30.0])
        assert p0[90.0] >= p0[120.0] - 3 * np.hypot(se[90.0], se[120.0])


class TestEmpiricalPmf:
    def test_counts_must_sum_to_runs(self):
        with pytest.raises(ValueError):
            EmpiricalPmf(np.array([3, 2]), n_runs=10, n_observations=0)

    def test_needs_a_run(self):
        # 0 runs would give 0/0 probabilities
        with pytest.raises(ValueError, match="n_runs=0"):
            EmpiricalPmf(np.array([0]), n_runs=0, n_observations=0)

    def test_resolution_floor_reporting(self):
        emp = EmpiricalPmf(np.array([990, 10]), n_runs=1000,
                           n_observations=50000)
        p, below = emp.prob_geq(1)
        assert p == pytest.approx(0.01)
        assert not below
        p, below = emp.prob_geq(5)
        assert p == 0.0
        assert below

    def test_ci_calibration(self):
        # 95% intervals over repeated synthetic runs cover the truth in
        # at least 90% of trials, on bins with enough expected mass for
        # a binomial interval to mean anything (np >= 5)
        lam, n_runs, trials, nb = 1.0, 2000, 100, 5
        truth = stats.poisson.pmf(np.arange(nb), lam)
        covered = np.zeros(nb)
        for t in range(trials):
            draws = RandomSource(300 + t).poisson(lam, n_runs)
            counts = np.bincount(draws, minlength=nb)[:nb]
            lo, hi = wilson_interval(counts, n_runs)
            covered += (lo <= truth) & (truth <= hi)
        assert np.all(covered / trials >= 0.90)


class TestCompare:
    def test_identical_pmfs(self):
        pmf = TaskloadPmf(np.array([0.6, 0.3, 0.1]))
        emp = EmpiricalPmf(np.array([600, 300, 100]), 1000, 0)
        rep = compare(pmf, emp, tv_threshold=0.02)
        assert rep.tv == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_disjoint_pmfs_fail(self):
        emp = EmpiricalPmf(np.array([0, 100]), 100, 0)
        rep = compare(delta_pmf(0), emp, tv_threshold=0.02)
        assert rep.tv == pytest.approx(1.0)
        assert not rep.passed

    def test_incompatible_horizons_rejected(self):
        pmf = TaskloadPmf(np.array([1.0]), horizon=60.0)
        emp = EmpiricalPmf(np.array([10]), 10, 0, horizon=120.0)
        with pytest.raises(ValueError):
            compare(pmf, emp)
