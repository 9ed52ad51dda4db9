"""Acceptance suite: one test (or test group) per release criterion.

Each check prints an ``ACCEPTANCE <id>: PASS/FAIL`` line; run with

    pytest tests/test_acceptance.py -v -s

to see them all. Heavy Monte Carlo artifacts are session-scoped and
shared between the criteria that reuse them (the dt-robustness study
re-runs criterion 4 at half step, and checks criterion 7's lane against
a simulation that crosses each observation interval in two exact
half steps).

One check is expected to fail by design of the model itself (see
README, "Known model limits"): the 0.3 NM first-passage probability
anchor (c04a), which the documented Gaussian dynamics put at 2.71e-20
instead of ~6e-4. Its failure message carries the quantitative analysis,
with that probability computed by the discrete-monitoring kernel.

The safe-zone checks (c09a-c) hold the solver to the paper's sizing
rule: boundary points of the two flows sit exactly at the separation
minimum. The paper's 90-degree zone (1 minute) meets that rule; its
30- and 120-degree crossing times (2 and 3 minutes) do not, and are
scenario inputs of its simulations rather than zone sizes, so c09c
checks those angles against an independent sampled-boundary oracle.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import taskload as tl
from taskload import (Barrier, CrossingGeometry, EmpiricalPmf, FlowSpec,
                      RandomSource, TaskloadPmf, compare, compare_empirical,
                      default_config, first_passage_mc, multilane_pmf,
                      run_crossing, run_multilane, run_single_lane,
                      single_lane_pmf, solve_safe_zone, tv_distance)
from taskload.cli import main as cli_main
from taskload.flow import TOLERANCE_STANDARDS, conflict_interventions_pmf, conflict_pmf
from taskload.hitting import first_hit_law, intervention_pmf
from taskload.pipeline import analytic_single_lane, per_aircraft_pmf

from oracles import ou_path

LAT_FIT = tl.OU_FTE_FIT["lateral"]
CENTERED = tl.OU_FTE_CENTERED
JOHNSON_LAT = tl.JOHNSON_FTE["lateral"]


def announce(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- shared heavy artifacts -------------------------------------------------

@pytest.fixture(scope="session")
def c4_runs():
    """First-passage runs at 1e6 paths for both bounds and both steps."""
    out = {}
    for dt in (0.1, 0.05):
        for level in (0.3, 0.4):
            fp = first_passage_mc(LAT_FIT, Barrier("two_sided", level),
                                  horizon=120.0, dt=dt, n_paths=10 ** 6,
                                  src=RandomSource(4001, int(level * 10)))
            out[(dt, level)] = fp
    return out


@pytest.fixture(scope="session")
def c7_bundle():
    """Very-high-density stringent lane: analytic route plus one MC run."""
    flow = FlowSpec(intensity_per_hour=60.0)
    analytic = analytic_single_lane(flow, CENTERED, 120.0, 1.0)
    cfg = replace(default_config(), kind="single_lane", flows=[flow],
                  n_runs=16000, seed=7002)
    return {"flow": flow, "analytic": analytic, "mc": run_single_lane(cfg)}


def substepped_lane(flow, n_runs, seed, horizon=120.0, obs_dt=1.0,
                    block_runs=256):
    """Lateral and total lane counts from a simulation written apart from
    the harness: each observation interval is crossed in two exact
    half-interval transitions. Arrivals, scoring window and resets follow
    the harness; runs are stacked in blocks."""
    src = RandomSource(seed)
    a, b, s = (np.array(c) for c in zip(
        *(tl.transition_coeffs(CENTERED[ax], obs_dt / 2) for ax in tl.AXES)))
    bounds = np.array([flow.tolerance.for_axis(ax) for ax in tl.AXES])
    window = horizon + flow.t_cross_min
    m_last = math.floor(flow.t_cross_min / obs_dt + 1e-9)
    lateral, total = [], []
    for start in range(0, n_runs, block_runs):
        runs = min(block_runs, n_runs - start)
        run = np.repeat(np.arange(runs), src.poisson(
            flow.intensity_per_min * window, runs))
        entries = -flow.t_cross_min + src.uniform(run.size) * window
        x = np.zeros((run.size, bounds.size))
        counts = np.zeros_like(x)
        for m in range(1, m_last + 1):
            for _ in range(2):
                x = a * x + b + s * src.standard_normal(x.shape)
            hit = np.abs(x) >= bounds
            t_obs = entries + m * obs_dt
            scored = (t_obs >= -1e-9) & (t_obs <= horizon + 1e-9)
            counts += hit & scored[:, None]
            x[hit] = 0.0
        lateral.append(np.bincount(run, counts[:, 0], runs))
        total.append(np.bincount(run, counts.sum(axis=1), runs))
    return {name: EmpiricalPmf(np.bincount(np.concatenate(c).astype(int)),
                               n_runs, 0)
            for name, c in (("lateral", lateral), ("total", total))}


# --- criterion 1: transform anchors ----------------------------------------

def test_c01_johnson_transform_anchors():
    anchors = {
        "lateral": ([-6.98e-2, -3.89e-2, -1.46e-2, 9.98e-3], 1e-3),
        "vertical": ([1.147, 6.215, 10.2, 14.27], 0.05),
        "longitudinal": ([-0.302, -0.152, -3.52e-2, 8.42e-2], 1e-3),
    }
    worst = 0.0
    for axis, (values, tol) in anchors.items():
        p = tl.JOHNSON_FTE[axis]
        for z, want in zip((-1.5, -0.5, 0.5, 1.5), values):
            err = abs(tl.johnson_transform(z, p) - want) / tol
            worst = max(worst, err)
    ok = announce("c01", worst < 1.0,
                  f"12 quartile anchors, worst error {worst:.2f}x tolerance")
    assert ok


# --- criterion 2: generator moments -----------------------------------------

def test_c02_generator_moments():
    n = 10 ** 6
    s = tl.johnson_sample(JOHNSON_LAT, RandomSource(101), n)
    se = s.std(ddof=1) / math.sqrt(n)
    mean_ok = abs(s.mean() - (-0.028)) < 3 * se
    var_ratio = s.var(ddof=1) / 9e-4
    var_ok = abs(var_ratio - 1.0) < 0.15
    ok = announce("c02", mean_ok and var_ok,
                  f"mean {s.mean():.6f} vs -0.028 (3se {3*se:.1e}), "
                  f"variance ratio {var_ratio:.3f} (within 15%)")
    assert ok


# --- criterion 3: calibration round trip ------------------------------------

def test_c03_calibration_round_trip():
    # ranges sized so 1e5 samples identify each parameter to a few
    # percent: mu-precision scales like sigma/(kappa |mu| sqrt(T))
    rng = np.random.default_rng(33001)
    trials, hits, agree_worst = 20, 0, 0.0
    for trial in range(trials):
        truth = tl.OuParams(
            kappa=float(np.exp(rng.uniform(math.log(0.8), math.log(4.0)))),
            mu=float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)),
            sigma=float(rng.uniform(0.2, 0.8)))
        _, x = ou_path(truth, truth.mu, horizon=10 ** 4, dt=0.1,
                       src=RandomSource(33100 + trial))
        ts = tl.TimeSeries(x, dt=0.1)
        ls, ml = tl.fit_least_squares(ts), tl.fit_mle(ts)
        within = all(
            abs(getattr(rep.params, f) - getattr(truth, f))
            / abs(getattr(truth, f)) <= 0.05
            for rep in (ls, ml) for f in ("kappa", "mu", "sigma"))
        hits += within
        agree_worst = max(
            agree_worst,
            abs(ml.params.kappa - ls.params.kappa) / abs(ls.params.kappa),
            abs(ml.params.mu - ls.params.mu) / abs(ls.params.mu))
    ok = announce("c03", hits >= 19 and agree_worst < 1e-6,
                  f"{hits}/20 within 5% on all parameters; "
                  f"LS-vs-MLE worst relative gap {agree_worst:.1e}")
    assert ok


# --- criterion 4: first-passage anchors -------------------------------------

def test_c04a_first_passage_probability_anchor(c4_runs):
    fp = c4_runs[(0.1, 0.3)]
    ok = 3e-4 <= fp.probability <= 1.2e-3
    announce("c04a", ok,
             f"P[hit 0.3 NM within 2 h] = {fp.probability:.2e} "
             f"({fp.n_hits}/{fp.n_paths} paths), required [3e-4, 1.2e-3]")
    kernel = first_hit_law(LAT_FIT, 0.3, 0.1, 1200).sum()
    assert ok, (
        f"observed {fp.probability:.2e}, required [3e-4, 1.2e-3]. "
        "The Gaussian mean-reverting engine cannot reach this anchor: the "
        "0.3 NM bound sits 9.9 stationary deviations (sd 0.0275 NM) above "
        "the fitted mean 0.0279 NM and 11.9 below it, and the "
        "discrete-monitoring kernel (a Nystrom quadrature of the killed "
        "Gaussian chain) monitored every 0.1 min for 120 min gives "
        f"P[hit] = {kernel:.3g}. Heavy-tailed generator "
        "arithmetic, P[|FTE| >= 0.3 NM] = 5.5e-6 per 1-minute sample x 120 "
        "samples = 6.6e-4, matches the reference but does not explain it: "
        "at 0.4 NM the same arithmetic gives 3.5e-7 x 120 = 4.2e-5, about "
        "42 hits in 1e6 paths, against c04b's anchor of zero hits. A "
        "Gaussian diffusion with about twice the fitted stationary spread "
        "(0.055 NM) would meet both anchors. See README 'Known model "
        "limits'.")


def test_c04b_zero_hits_at_wider_bound(c4_runs):
    fp = c4_runs[(0.1, 0.4)]
    ok = announce("c04b", fp.n_hits == 0,
                  f"0.4 NM bound: {fp.n_hits} hits in 1e6 paths")
    assert ok


# --- criterion 5: renewal-Poisson oracle ------------------------------------

def test_c05_renewal_poisson_oracle():
    # the observation-lattice form of "exponential gaps count Poisson":
    # gaps that end at each 0.05-min observation with probability p count
    # Binomial(n_obs, p) through the production renewal count
    worst = 0.0
    h, n_obs = 0.05, 2400
    for rate_per_hour in (0.1, 1.0, 10.0):
        p = -math.expm1(-rate_per_hour / 60.0 * h)
        f = np.zeros(n_obs + 1)
        f[1:] = p * (1.0 - p) ** np.arange(n_obs)
        pmf = intervention_pmf(f, n_obs)
        n = np.arange(pmf.probs.size)
        target = TaskloadPmf(stats.binom.pmf(n, n_obs, p),
                             stats.binom.sf(n[-1], n_obs, p), 120.0)
        worst = max(worst, tv_distance(pmf, target))
    ok = announce("c05", worst <= 1e-3,
                  f"geometric gaps vs binomial counts, worst TV {worst:.1e}")
    assert ok


# --- criterion 6: superposition ---------------------------------------------

def test_c06a_superposition_analytic():
    flow = FlowSpec(intensity_per_hour=30.0)
    per_ac = per_aircraft_pmf(CENTERED, flow, 120.0, 1.0)["total"]
    merged = multilane_pmf([flow, flow], [per_ac, per_ac])
    single = single_lane_pmf(replace(flow, intensity_per_hour=60.0), per_ac)
    tv = tv_distance(merged, single)
    ok = announce("c06a", tv <= 1e-9,
                  f"two identical lanes vs doubled intensity, TV {tv:.1e}")
    assert ok


def test_c06b_superposition_monte_carlo():
    twin = run_multilane(replace(
        default_config(), kind="multilane",
        flows=[FlowSpec(intensity_per_hour=30.0)] * 2, n_runs=4000,
        seed=6002))
    single = run_single_lane(replace(
        default_config(), kind="single_lane",
        flows=[FlowSpec(intensity_per_hour=60.0)], n_runs=4000, seed=6003))
    rep = compare_empirical(twin.components["total"],
                            single.components["total"], z_max=3.5)
    ok = announce("c06b", rep.passed,
                  f"MC twin lanes vs merged lane, max|z| "
                  f"{np.max(np.abs(rep.z_scores)):.2f} (joint limit 3.5)")
    assert ok


# --- criterion 7: single-lane cross-validation -------------------------------

def test_c07a_single_lane_cross_validation(c7_bundle):
    est = c7_bundle["mc"]
    results = []
    for comp in ("lateral", "total"):
        rep = compare(c7_bundle["analytic"][comp], est.components[comp],
                      tv_threshold=0.02)
        results.append((comp, rep.tv, rep.passed))
    ok = all(passed for _, _, passed in results)
    detail = ", ".join(f"{c} TV {tv:.4f}" for c, tv, _ in results)
    ok = announce("c07a", ok, f"analytic vs MC at 60/h stringent: {detail}")
    assert ok


def test_c07b_support_bounded_by_resolution_floor(c7_bundle):
    lat = c7_bundle["mc"].components["lateral"]
    p_tail, below = lat.prob_geq(11)
    ok = announce("c07b", below,
                  f"P[N > 10] = {p_tail:.1e} reported below the resolution "
                  f"floor {lat.resolution_floor:.1e}")
    assert ok


# --- criterion 8: multilane marginality --------------------------------------

def test_c08_multilane_marginality():
    names = ("stringent", "severe", "intermediate", "lax")
    flows = [FlowSpec(intensity_per_hour=60.0,
                      tolerance=TOLERANCE_STANDARDS[n]) for n in names]
    est = run_multilane(replace(
        default_config(), kind="multilane", flows=flows, n_runs=4000,
        seed=8001))
    worst = 0.0
    for comp in ("total", "lateral"):
        base = est.components[f"lanes2_{comp}"]
        for k in (3, 4):
            ext = est.components[f"lanes{k}_{comp}"]
            size = max(base.counts.size, ext.counts.size)
            a = np.zeros(size)
            a[:base.counts.size] = base.probs
            b = np.zeros(size)
            b[:ext.counts.size] = ext.probs
            worst = max(worst, float(np.abs(a - b).max()))
    ok = announce("c08", worst < 0.01,
                  f"intermediate+lax lanes shift PMF entries by at most "
                  f"{worst:.5f} (< 0.01)")
    assert ok


# --- criterion 9: safe-zone geometry -----------------------------------------

def test_c09a_zero_extent_right_angle_exact():
    out = solve_safe_zone(CrossingGeometry(alpha_deg=90.0, e1_nm=0.0,
                                           e2_nm=0.0, d_min_nm=5.0))
    err = max(abs(out.x1_nm - 5.0 / math.sqrt(2)),
              abs(out.x2_nm - 5.0 / math.sqrt(2)))
    ok = announce("c09a", err < 1e-9,
                  f"x1 = x2 = {out.x1_nm:.12f} vs 5/sqrt(2), error {err:.1e}")
    assert ok


def _solved_by_angle():
    return {alpha: solve_safe_zone(CrossingGeometry(alpha_deg=alpha))
            for alpha in (30.0, 90.0, 120.0)}


def _cross_sections(alpha_deg, x, half_width, n=201):
    """Points sampled densely across both boundary cross-sections (at -x
    and +x along the centerline) of a flow heading alpha_deg."""
    a = math.radians(alpha_deg)
    u = np.array([math.cos(a), math.sin(a)])
    normal = np.array([-math.sin(a), math.cos(a)])
    offs = np.linspace(-half_width, half_width, n)[:, None]
    return np.concatenate([end * x * u + offs * normal for end in (-1.0, 1.0)])


def _boundary_separation(g, x):
    """Smallest distance between the sampled zone boundaries of the two
    flows for common half-length x (full segments, not only corners)."""
    p = _cross_sections(0.0, x, g.e1_nm / 2.0)
    q = _cross_sections(g.alpha_deg, x, g.e2_nm / 2.0)
    return float(np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2).min())


def _oracle_half_length(g, step=0.25, span=40.0):
    """Smallest half-length past which every boundary pair keeps D apart.

    A coarse scan finds the last grid point that breaks the minimum,
    then bisection closes the gap to the next (feasible) grid point.
    """
    grid = np.arange(0.0, span + step, step)
    ok = [_boundary_separation(g, x) >= g.d_min_nm for x in grid]
    assert ok[-1], "oracle scan span too short"
    lo = grid[max(i for i, good in enumerate(ok) if not good)]
    hi = lo + step
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _boundary_separation(g, mid) >= g.d_min_nm:
            hi = mid
        else:
            lo = mid
    return hi


def test_c09b_extent_ordering():
    # the binding boundary pair scales like D / (2 min(sin, cos)(alpha/2)):
    # min(sin, cos) is 0.707 at 90, 0.5 at 120 and 0.259 at 30 degrees
    solved = _solved_by_angle()
    xs = {a: g.x1_nm for a, g in solved.items()}
    order_ok = xs[90.0] < xs[120.0] < xs[30.0]
    # an acute zone no larger than the solved 120-degree zone cannot hold
    # the minimum, so 30 degrees must come out largest
    g30 = CrossingGeometry(alpha_deg=30.0)
    worst_sep = max(_boundary_separation(g30, x)
                    for x in np.linspace(0.0, xs[120.0], 25))
    acute_ok = worst_sep < g30.d_min_nm
    ok = announce("c09b", order_ok and acute_ok,
                  f"extents 90:{xs[90.0]:.2f} 120:{xs[120.0]:.2f} "
                  f"30:{xs[30.0]:.2f} NM, required 90 < 120 < 30; a 30-degree "
                  f"zone up to {xs[120.0]:.2f} NM keeps at most "
                  f"{worst_sep:.2f} NM (< 5)")
    assert ok


def test_c09c_transit_times_vs_reference():
    # The paper's crossing times {90: 1, 30: 2, 120: 3 min} are the
    # scenario settings its simulations ran (CROSSING_RUNS keeps
    # runs x P[A >= 1] near 837 at 5/h for each). Only the 90-degree one
    # is a zone that meets the sizing rule; the others are checked
    # against an independent oracle for the rule itself.
    solved = _solved_by_angle()
    speed = solved[90.0].speed_kt / 60.0
    t90 = solved[90.0].t_safe_min
    anchor_ok = abs(t90 - 1.0) / 1.0 <= 0.30
    oracle = {a: 2.0 * _oracle_half_length(CrossingGeometry(alpha_deg=a))
                 / speed for a in (30.0, 120.0)}
    rel = {a: abs(solved[a].t_safe_min - t) / t for a, t in oracle.items()}
    oracle_ok = max(rel.values()) <= 1e-6
    # the published 30-degree zone breaks the minimum; the published
    # 120-degree zone has no boundary pair anywhere near D
    d = solved[90.0].d_min_nm
    published = {a: _boundary_separation(CrossingGeometry(alpha_deg=a),
                                         t * speed / 2.0)
                 for a, t in ((30.0, 2.0), (120.0, 3.0))}
    published_off = published[30.0] < d and published[120.0] > 1.30 * d
    ok = announce(
        "c09c", anchor_ok and oracle_ok and published_off,
        f"90deg {t90:.2f} min vs paper 1 (30% tolerance); "
        + ", ".join(f"{a:.0f}deg {solved[a].t_safe_min:.4f} min vs oracle "
                    f"{oracle[a]:.4f} (rel {rel[a]:.1e})" for a in oracle)
        + "; published zones 30deg/2 min and 120deg/3 min keep "
        f"{published[30.0]:.2f} and {published[120.0]:.2f} NM vs D = {d:.0f}")
    assert ok


# --- criterion 10: crossing behavior ------------------------------------------

def test_c10a_lax_standards_drive_no_deviation_control():
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
    flows = [FlowSpec(intensity_per_hour=2.5,
                      tolerance=TOLERANCE_STANDARDS["lax"])] * 2
    est = run_crossing(replace(default_config(), kind="crossing", flows=flows,
                               geometry=geom, n_runs=3000, seed=10001))
    p0 = est.components["deviation_control"].probs[0]
    ok = announce("c10a", p0 > 0.99,
                  f"P[no deviation-control interventions] = {p0:.5f}")
    assert ok


def test_c10b_conflict_pmf_cross_validation():
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=90.0))
    flows = [FlowSpec(intensity_per_hour=2.5)] * 2
    est = run_crossing(replace(default_config(), kind="crossing", flows=flows,
                               geometry=geom, n_runs=10463, seed=10002))
    shifted = conflict_interventions_pmf(conflict_pmf(geom, 2.5, 2.5))
    rep = compare(TaskloadPmf(shifted.probs, shifted.truncation_mass),
                  est.components["conflict_resolution"], tv_threshold=0.03)
    ok = announce("c10b", rep.passed,
                  f"conflict-resolution MC vs occupancy analytics, "
                  f"TV {rep.tv:.5f} (< 0.03)")
    assert ok


# --- criterion 11: discretization robustness ----------------------------------

def test_c11a_first_passage_dt_robustness(c4_runs):
    deltas = []
    for level in (0.3, 0.4):
        a, b = c4_runs[(0.1, level)], c4_runs[(0.05, level)]
        width = math.hypot(a.ci_high - a.ci_low, b.ci_high - b.ci_low)
        deltas.append((level, abs(a.probability - b.probability), width))
    ok = all(d <= max(w, 1e-12) for _, d, w in deltas)
    ok = announce("c11a", ok,
                  "; ".join(f"{lvl} NM: |dP| {d:.1e} vs widths {w:.1e}"
                            for lvl, d, w in deltas))
    assert ok


def test_c11b_lane_dt_robustness(c7_bundle):
    # the harness steps once per observation; half steps must not move it
    substepped = substepped_lane(c7_bundle["flow"], n_runs=16000, seed=7003)
    worst_ratio = 0.0
    for comp in ("lateral", "total"):
        a = c7_bundle["mc"].components[comp]
        b = substepped[comp]
        size = max(a.counts.size, b.counts.size)
        pa = np.zeros(size)
        pa[:a.counts.size] = a.probs
        pb = np.zeros(size)
        pb[:b.counts.size] = b.probs
        wa = np.zeros(size)
        lo, hi = a.ci
        wa[:a.counts.size] = hi - lo
        wb = np.zeros(size)
        lo, hi = b.ci
        wb[:b.counts.size] = hi - lo
        widths = np.sqrt(wa ** 2 + wb ** 2)
        ratio = np.abs(pa - pb) / np.maximum(widths, 1e-12)
        worst_ratio = max(worst_ratio, float(ratio.max()))
    ok = announce("c11b", worst_ratio <= 1.0,
                  f"two half-interval transitions per observation move "
                  f"lane probabilities by at most {worst_ratio:.2f}x their "
                  f"CI widths")
    assert ok


# --- criterion 12: reproducibility ---------------------------------------------

def test_c12_reproducibility(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "flows": [{"intensity_per_hour": 10.0}],
        "mc": {"kind": "single_lane", "n_runs": 60, "seed": 12001},
    }))
    out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
    # re-execute from the emitted provenance config
    assert cli_main(["simulate",
                     "--config", str(out1 / "config_resolved.json"),
                     "--out", str(out3)]) == 0
    identical = True
    for name in ("mc_total.csv", "mc_lateral.csv", "mc_vertical.csv",
                 "mc_longitudinal.csv"):
        a = (out1 / name).read_bytes()
        identical &= a == (out2 / name).read_bytes()
        identical &= a == (out3 / name).read_bytes()
    ok = announce("c12", identical,
                  "re-runs and provenance-config replay byte-identical")
    assert ok
