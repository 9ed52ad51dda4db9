import numpy as np
import pytest

from taskload import (CrossingGeometry, FlowSpec, solve_safe_zone,
                      tv_distance)
from taskload.flow import TOLERANCE_STANDARDS, _superposed
from taskload.ou import OU_FTE_CENTERED
from taskload.pipeline import (analytic_crossing, analytic_multilane,
                               analytic_single_lane, per_aircraft_pmf)


def test_per_aircraft_pmf_total_is_axis_convolution():
    flow = FlowSpec(intensity_per_hour=60.0)
    out = per_aircraft_pmf(OU_FTE_CENTERED, flow, 120.0, 1.0)
    assert set(out) == {"lateral", "vertical", "longitudinal", "total"}
    means = {k: v.mean() for k, v in out.items()}
    assert means["total"] == pytest.approx(
        means["lateral"] + means["vertical"] + means["longitudinal"],
        rel=1e-9, abs=1e-12)
    # lateral stringent at the 1-minute cadence: ~2.78e-4/min over 2 h
    assert means["lateral"] == pytest.approx(120 * 2.78e-4, rel=0.15)


def test_analytic_single_lane_mean_scales_with_intensity():
    pmfs = {}
    for lam in (10.0, 20.0):
        flow = FlowSpec(intensity_per_hour=lam)
        pmfs[lam] = analytic_single_lane(flow, OU_FTE_CENTERED, 120.0, 1.0)
    ratio = pmfs[20.0]["total"].mean() / pmfs[10.0]["total"].mean()
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_analytic_multilane_prefixes():
    flows = [FlowSpec(intensity_per_hour=60.0,
                      tolerance=TOLERANCE_STANDARDS[n])
             for n in ("stringent", "severe", "intermediate", "lax")]
    out = analytic_multilane(flows, OU_FTE_CENTERED, 120.0, 1.0)
    m = [out[f"lanes{k}_total"].mean() for k in (1, 2, 3, 4)]
    # nondecreasing up to convolution/truncation float noise
    assert m[0] <= m[1] + 1e-6 and m[1] <= m[2] + 1e-6 and m[2] <= m[3] + 1e-6
    # the stringent lane dominates; wider lanes are marginal
    assert m[3] - m[1] < 0.01 * m[1] + 1e-3
    assert tv_distance(out["lanes4_total"], out["lanes2_total"]) < 0.01


def test_analytic_crossing_components():
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
    flows = [FlowSpec(intensity_per_hour=2.5)] * 2
    out = analytic_crossing(geom, flows, OU_FTE_CENTERED, 1.0)
    occ = out["occupancy"]
    assert occ.probs[0] == pytest.approx(np.exp(-5 / 60 * geom.t_safe_min),
                                         rel=1e-6)
    # total zero line exactly as displayed:
    # P[0] = P[A=0] + P[A=1] P[control=0]
    expected0 = occ.probs[0] + occ.probs[1] * out["deviation_control"].probs[0]
    assert out["total"].probs[0] == pytest.approx(expected0, rel=1e-9)
    # per-transit control is rare at stringent bounds: one observation
    # at ~2.9e-4 per axis-observation, merged over two 2.5/h flows
    assert out["deviation_control"].probs[0] > 0.995


def test_crossing_transit_without_observation_counts_nothing():
    # a transit shorter than one observation step is never observed
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
    flows = [FlowSpec(intensity_per_hour=2.5)] * 2
    out = analytic_crossing(geom, flows, OU_FTE_CENTERED,
                            obs_dt=2.0 * geom.t_safe_min)
    assert out["deviation_control"].probs.size == 1
    assert out["deviation_control"].mean() == 0.0
    assert tv_distance(out["total"], out["conflict_resolution"]) < 1e-9


def test_crossing_scores_each_flow_with_its_own_law():
    # unequal bounds and intensities: the deviation-control law must mix
    # each flow's own per-aircraft law, whichever flow is listed first
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
    stringent = FlowSpec(intensity_per_hour=30.0)
    lax = FlowSpec(intensity_per_hour=10.0,
                   tolerance=TOLERANCE_STANDARDS["lax"])
    ab = analytic_crossing(geom, [stringent, lax], OU_FTE_CENTERED, 1.0)
    ba = analytic_crossing(geom, [lax, stringent], OU_FTE_CENTERED, 1.0)
    for name, pmf in ab.items():
        assert np.array_equal(pmf.probs, ba[name].probs), name
        assert pmf.truncation_mass == ba[name].truncation_mass, name
    laws = [per_aircraft_pmf(OU_FTE_CENTERED, f, geom.t_safe_min, 1.0)["total"]
            for f in (stringent, lax)]
    mixed = _superposed([f.intensity_per_min * geom.t_safe_min
                         for f in (stringent, lax)], laws)
    assert tv_distance(ab["deviation_control"], mixed) <= 1e-15
    assert mixed.mean() == pytest.approx(
        geom.t_safe_min * (0.5 * laws[0].mean() + laws[1].mean() / 6.0),
        rel=1e-9)
