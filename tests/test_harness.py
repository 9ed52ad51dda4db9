import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from taskload import (AXES, OU_FTE_CENTERED, OU_FTE_FIT, CrossingGeometry,
                      EmpiricalPmf, FlowSpec, RandomSource, TaskloadPmf,
                      compare, compare_empirical, conflict_interventions_pmf,
                      conflict_pmf, default_config, delta_pmf, run_crossing,
                      run_multilane, run_single_lane, solve_safe_zone,
                      transition_coeffs, wilson_interval)
from taskload.distributions import normal_cdf
from taskload.flow import TOLERANCE_STANDARDS, ToleranceBounds
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


class ReferenceAxis:
    """One axis of a lane observed n times from 0, with its tables in
    plain scalar code: exact tails from scipy and the union bounds U_L."""

    def __init__(self, coeffs, bound, n):
        self.a, self.b, self.s = coeffs
        self.bound, self.n = bound, n
        self.mean, self.var, self.tails = [], [], []
        m = v = 0.0
        for _ in range(n):
            m, v = self.a * m + self.b, self.a * self.a * v + self.s ** 2
            self.mean.append(m)
            self.var.append(v)
            if self.s > 0.0:
                sd = math.sqrt(v)
                self.tails += [special.ndtr((m - bound) / sd),
                               special.ndtr((-bound - m) / sd)]
        self.union = list(itertools.accumulate(self.tails))[1::2]
        self.thin = self.s > 0.0 and self.union[-1] < 1.0

    def event(self, u, length):
        """(j, sign) of the event that u in [0, 1) picks on a stretch."""
        u, acc = u * self.union[length - 1], 0.0
        for event in range(2 * length):
            acc += self.tails[event]
            if u < acc:
                break
        return event // 2, (1.0, -1.0)[event % 2]

    def first_hit(self, j, x_j, noise, u):
        """The first hit (1-based) of a stretch given X_j = x_j, its path
        noise and its acceptance uniform u, or 0 if rejected."""
        x, path = 0.0, []
        for z in noise:
            x = self.a * x + self.b + self.s * z
            path.append(x)
        beyond = []
        for i, y in enumerate(path):
            cov = self.a ** abs(i - j) * self.var[min(i, j)]
            if i == j or abs(y + cov / self.var[j] * (x_j - path[j])) \
                    >= self.bound:
                beyond.append(i)
        return beyond[0] + 1 if u * len(beyond) < 1.0 else 0


def reference_truncated_normals(rs, cases):
    """X ~ Normal(mean, sd^2) given sign X >= bound for each (mean, sd,
    bound, sign) case, scalar per case, drawing the rejection rounds of
    Robert's exponential proposal as the harness documents."""
    alpha = [(bound - sign * mean) / sd for mean, sd, bound, sign in cases]
    t, left = [None] * len(cases), list(range(len(cases)))
    while left:
        u, rejected = rs.uniform((2, len(left))), []
        for i, proposal, accept in zip(left, u[0], u[1]):
            lam = (alpha[i] + math.sqrt(alpha[i] * alpha[i] + 4.0)) / 2.0
            proposal = alpha[i] - math.log1p(-proposal) / lam
            if accept <= math.exp(-((proposal - lam) ** 2) / 2.0):
                t[i] = proposal
            else:
                rejected.append(i)
        left = rejected
    return [sign * max(sign * mean + sd * ti, bound)
            for (mean, sd, bound, sign), ti in zip(cases, t)]


def reference_candidate_hits(rs, laws):
    """(candidate, observation) of every hit of candidates on axes laws,
    in the rounds the harness documents, each stretch a (candidate, hits
    before it, length) triple handled one at a time."""
    found, stretches = [], [(c, 0, law.n) for c, law in enumerate(laws)]
    while stretches:
        found += [(c, start + 1) for c, start, length in stretches
                  if length == 1]
        stretches = [st for st in stretches if st[2] > 1]
        if not stretches:
            break
        events = [laws[c].event(u, length) for (c, _, length), u
                  in zip(stretches, rs.uniform(len(stretches)))]
        x_js = reference_truncated_normals(rs, [
            (laws[c].mean[j], math.sqrt(laws[c].var[j]), laws[c].bound, sign)
            for (c, _, _), (j, sign) in zip(stretches, events)])
        noise = iter(rs.standard_normal(sum(st[2] for st in stretches)))
        paths = [[next(noise) for _ in range(length)]
                 for _, _, length in stretches]
        accepted = []
        for (c, start, length), (j, _), x_j, path, u in zip(
                stretches, events, x_js, paths, rs.uniform(len(stretches))):
            first = laws[c].first_hit(j, x_j, path, u)
            if first:
                found.append((c, start + first))
                if length > first:
                    accepted.append((c, start + first, length - first))
        stretches = [(c, start, left) for (c, start, left), u
                     in zip(accepted, rs.uniform(len(accepted)))
                     if u < laws[c].union[left - 1]]
    return found


CHUNK_RUNS = 32


def reference_counts(cfg, flows, t_star=None):
    """Per-run (lane, axis) counts, aircraft total and occupancy at t_star
    from a plain loop over chunks, lanes, runs, aircraft and axes, drawing
    in the order the harness documents. Runs 32 c .. 32 c + 31 draw from
    substream c: the (run, lane) arrival counts, then per lane the arrival
    times, a gate uniform per aircraft and thinned axis and the stepped
    axes' normals, then the candidates of all 32 runs in run, lane,
    aircraft and axis order, sampled in rounds."""
    src = RandomSource(cfg.seed, cfg.stream_id)
    coeffs = [transition_coeffs(cfg.ou[a], cfg.obs_dt_min) for a in AXES]
    per_run = np.zeros((cfg.n_runs, len(flows), len(AXES)), dtype=int)
    occupancy = np.zeros(cfg.n_runs, dtype=int)
    n_aircraft = 0
    for c in range(math.ceil(cfg.n_runs / CHUNK_RUNS)):
        rs = src.substream(c)
        runs = range(c * CHUNK_RUNS, min((c + 1) * CHUNK_RUNS, cfg.n_runs))
        k = rs.poisson([f.intensity_per_min * (cfg.horizon_min + f.t_cross_min)
                        for f in flows], (CHUNK_RUNS, len(flows)))
        lanes = []  # per lane: its aircraft's runs, entries, laws, hits
        candidates = []   # (run, lane, aircraft, axis)
        for li, flow in enumerate(flows):
            window = cfg.horizon_min + flow.t_cross_min
            owner = [c * CHUNK_RUNS + r for r in range(CHUNK_RUNS)
                     for _ in range(k[r, li])]
            entries = -flow.t_cross_min + rs.uniform(len(owner)) * window
            m_last = math.floor(flow.t_cross_min / cfg.obs_dt_min + 1e-9)
            bounds = [flow.tolerance.for_axis(axis) for axis in AXES]
            laws, hits = None, []   # hits: (aircraft, axis, observation)
            if m_last:
                laws = [ReferenceAxis(coeff, bound, m_last)
                        for coeff, bound in zip(coeffs, bounds)]
                thinned = [j for j, law in enumerate(laws) if law.thin]
                stepped = [j for j, law in enumerate(laws) if not law.thin]
                if thinned:
                    gates = rs.uniform((len(owner), len(thinned)))
                    for i, (col, j) in itertools.product(
                            range(len(owner)), enumerate(thinned)):
                        if gates[i, col] < laws[j].union[-1]:
                            candidates.append((owner[i], li, i, j))
                if stepped:
                    noise = rs.standard_normal((m_last, len(stepped),
                                                len(owner)))
                for col, j in enumerate(stepped):
                    a, b, s = coeffs[j]
                    for i in range(len(owner)):
                        x = 0.0
                        for m in range(1, m_last + 1):
                            x = a * x + b + s * noise[m - 1, col, i]
                            if abs(x) >= bounds[j]:
                                hits.append((i, j, m))
                                x = 0.0
            lanes.append((owner, entries, laws, hits))
        candidates.sort(key=lambda cand: cand[0])
        found = reference_candidate_hits(
            rs, [lanes[li][2][j] for _, li, _, j in candidates])
        for cand, m in found:
            _, li, i, j = candidates[cand]
            lanes[li][3].append((i, j, m))
        for li, (owner, entries, _, hits) in enumerate(lanes):
            n_aircraft += sum(r in runs for r in owner)
            if t_star is not None:
                for r, e in zip(owner, entries):
                    if r in runs and e <= t_star < e + flows[li].t_cross_min:
                        occupancy[r] += 1
            for i, j, m in hits:
                t_obs = entries[i] + m * cfg.obs_dt_min
                if (owner[i] in runs
                        and -1e-9 <= t_obs <= cfg.horizon_min + 1e-9):
                    per_run[owner[i], li, j] += 1
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
        # bounds tight enough that every axis has candidates (U_20 of
        # 0.22, 0.04 and 0.17), some hitting twice and some rejected
        flow = FlowSpec(intensity_per_hour=10.0,
                        tolerance=ToleranceBounds(0.07, 14.0, 0.35))
        self.assert_lane_matches_reference_loop(
            lane_cfg(flows=[flow], n_runs=97, seed=51))

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

    def test_multilane_candidates_match_reference_loop(self):
        # every axis of both lanes thins, so each hit is a candidate's, and
        # a chunk's candidates of the two lanes interleave run by run
        flows = [FlowSpec(intensity_per_hour=20.0, t_cross_min=t_cross)
                 for t_cross in (20.0, 7.5)]
        cfg = replace(default_config(), kind="multilane", flows=flows,
                      n_runs=41, seed=73)
        est = run_multilane(cfg)
        per_run, n_aircraft, _ = reference_counts(cfg, flows)
        assert est.n_aircraft == n_aircraft > 2 * ENGINE_BLOCK_ROWS
        assert (per_run[:32].sum(axis=(0, 2)) > 0).all()
        for prefix in (1, 2):
            assert np.array_equal(
                est.components[f"lanes{prefix}_total"].counts,
                bincount(per_run[:, :prefix].sum(axis=(1, 2))))

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
        # a 32-run chunk of a 10/h lane (about 740 aircraft) fills a
        # block, so run 37 falls inside the second chunk and block
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


def addressing_cases():
    """(runner, config, the flows _lane_counts sees) of a lane with
    candidates, a multilane with an unobserved lane and both candidates
    and stepped axes, and a crossing, each of 100 runs."""
    tight = ToleranceBounds(0.07, 14.0, 0.35)
    lane = lane_cfg(flows=[FlowSpec(intensity_per_hour=10.0, tolerance=tight)],
                    n_runs=100, seed=67)
    slow = {a: replace(p, kappa=p.kappa / 20)
            for a, p in OU_FTE_CENTERED.items()}
    multilane = replace(default_config(), kind="multilane", ou=slow,
                        n_runs=100, seed=69, flows=[
                            FlowSpec(intensity_per_hour=10.0, t_cross_min=t,
                                     tolerance=TOLERANCE_STANDARDS[name])
                            for name, t in (("stringent", 0.5),
                                            ("severe", 7.5),
                                            ("stringent", 20.0))])
    geom = solve_safe_zone(CrossingGeometry(alpha_deg=30.0))
    severe = TOLERANCE_STANDARDS["severe"]
    crossing = replace(default_config(), kind="crossing", geometry=geom,
                       n_runs=100, seed=71,
                       flows=[FlowSpec(intensity_per_hour=60.0),
                              FlowSpec(intensity_per_hour=30.0,
                                       tolerance=severe)])
    transits = [replace(f, t_cross_min=geom.t_safe_min)
                for f in crossing.flows]
    return {"lane": (run_single_lane, lane, lane.flows),
            "multilane": (run_multilane, multilane, multilane.flows),
            "crossing": (run_crossing, crossing, transits)}


#: Split points around the first two chunk boundaries, and one inside a
#: chunk
SPLITS = (31, 32, 33, 37, 63, 64, 65)


class TestChunkAddressing:
    """Runs 32 c .. 32 c + 31 share substream c, yet every run range
    draws each of its runs as the range [0, 100) does."""

    @pytest.mark.parametrize("case", ["lane", "multilane", "crossing"])
    def test_ranges_count_the_rows_of_the_whole(self, case):
        _, cfg, flows = addressing_cases()[case]
        snapshot = cfg.horizon_min / 2.0
        whole, aircraft, occupancy = harness._lane_counts(
            cfg, flows, 100, 0, snapshot)
        assert whole.sum() > 0 and occupancy.sum() > 0
        ranges = [(0, split) for split in SPLITS] + [(37, 65), (64, 65)]
        ranges += [(split, 100) for split in SPLITS]
        drawn = {}
        for start, stop in ranges:
            per_run, drawn[start, stop], occ = harness._lane_counts(
                cfg, flows, stop - start, start, snapshot)
            assert np.array_equal(per_run, whole[start:stop])
            assert np.array_equal(occ, occupancy[start:stop])
        for split in SPLITS:
            assert drawn[0, split] + drawn[split, 100] == aircraft

    @pytest.mark.parametrize("case", ["lane", "multilane", "crossing"])
    def test_merge_at_each_split_equals_the_whole(self, case):
        runner, cfg, _ = addressing_cases()[case]
        whole = runner(cfg)
        for split in SPLITS:
            first = runner(replace(cfg, n_runs=split))
            second = runner(replace(cfg, n_runs=100 - split), run_offset=split)
            merged = first.merge(second)
            assert (merged.n_runs, merged.run_offset) == (100, 0)
            assert merged.n_aircraft == whole.n_aircraft
            for key, comp in whole.components.items():
                assert np.array_equal(merged.components[key].counts,
                                      comp.counts)


class TestTruncatedNormal:
    """harness._truncated_normals, X ~ Normal(mean, sd^2) given sign X >=
    bound over arrays, against the exact truncated law built from
    normal_cdf."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.6, 8.0, 37.0])
    def test_matches_exact_law(self, alpha, sign):
        mean, sd = 0.5 * sign, 2.0
        bound = 0.5 + sd * alpha   # standardised limit alpha on either side
        rs = RandomSource(81, int(10 * alpha) + (sign < 0))
        x = harness._truncated_normals(rs, *(np.full(4000, v) for v in
                                             (mean, sd, bound, sign)))
        t = sign * (x - mean) / sd
        # P[T <= t | T >= alpha] = 1 - Phi(-t) / Phi(-alpha)
        cdf = lambda v: 1.0 - normal_cdf(-v) / normal_cdf(-alpha)
        assert stats.kstest(t, cdf).pvalue > 1e-3

    def test_every_draw_lies_beyond_its_limit(self):
        gen = np.random.default_rng(82)
        rs = RandomSource(83)
        mean, sd = gen.normal(0.0, 3.0, 3000), gen.uniform(1e-3, 5.0, 3000)
        sign = gen.choice([1.0, -1.0], 3000)
        bound = sign * mean + sd * gen.uniform(-3.0, 40.0, 3000)
        x = harness._truncated_normals(rs, mean, sd, bound, sign)
        assert (sign * x >= bound).all()


def stepped_counts(cfg, seed):
    """Per-run (lane, axis) counts from a simulation written apart from
    the harness, in a stream of its own: every aircraft-axis steps
    through each observation of its residency and resets at each hit,
    counted inside the horizon. Runs are stacked in blocks."""
    src = RandomSource(seed, 1)
    a, b, s = (np.array(c) for c in zip(
        *(transition_coeffs(cfg.ou[ax], cfg.obs_dt_min) for ax in AXES)))
    per_run = np.zeros((cfg.n_runs, len(cfg.flows), len(AXES)), dtype=int)
    for start in range(0, cfg.n_runs, 500):
        runs = min(500, cfg.n_runs - start)
        for li, flow in enumerate(cfg.flows):
            bounds = np.array([flow.tolerance.for_axis(ax) for ax in AXES])
            window = cfg.horizon_min + flow.t_cross_min
            run = np.repeat(np.arange(runs), src.poisson(
                flow.intensity_per_min * window, runs))
            entries = -flow.t_cross_min + src.uniform(run.size) * window
            x = np.zeros((run.size, len(AXES)))
            counts = np.zeros_like(x, dtype=int)
            for m in range(1, math.floor(flow.t_cross_min / cfg.obs_dt_min
                                         + 1e-9) + 1):
                x = a * x + b + s * src.standard_normal(x.shape)
                hit = np.abs(x) >= bounds
                t_obs = entries + m * cfg.obs_dt_min
                counts += hit & ((t_obs >= -1e-9)
                                 & (t_obs <= cfg.horizon_min + 1e-9))[:, None]
                x[hit] = 0.0
            for j in range(len(AXES)):
                per_run[start:start + runs, li, j] = np.bincount(
                    run, counts[:, j], runs)
    return per_run


def pooled_chi2_p(a, b):
    """p-value of a chi-square test that two samples of per-run counts
    share one law. Bins are pooled upward from 0 until every expected
    cell count is at least 5, and a short tail joins the last bin."""
    size = int(max(a.max(), b.max())) + 1
    table = np.stack([np.bincount(a, minlength=size),
                      np.bincount(b, minlength=size)])
    need = 5.0 * table.sum() / table.sum(axis=1).min()
    starts, acc = [0], 0
    for i, col in enumerate(table.sum(axis=0)):
        acc += col
        if acc >= need:
            starts.append(i + 1)
            acc = 0
    if len(starts) < 3:
        return 1.0   # one pooled bin: nothing to compare
    pooled = np.add.reduceat(table, starts[:-1], axis=1)
    return stats.chi2_contingency(pooled, correction=False).pvalue


SLOW = {a: replace(p, kappa=p.kappa / 20) for a, p in OU_FTE_CENTERED.items()}
BROWNIAN = {a: replace(p, kappa=0.0) for a, p in OU_FTE_CENTERED.items()}

#: name -> (dynamics, bounds, intensity per hour, runs); the union bounds
#: U_20 that decide the branch per axis are in the comments
LAW_CASES = {
    **{f"{name}_{lam:g}": (OU_FTE_CENTERED, TOLERANCE_STANDARDS[name], lam,
                           runs)
       for name in TOLERANCE_STANDARDS
       for lam, runs in ((5.0, 4000), (60.0, 1000))},
    # U_20 7.6, 4.9, 6.7: every axis stepped
    "slow_tight": (SLOW, TOLERANCE_STANDARDS["stringent"], 5.0, 1500),
    # U_20 0.65, 0.91, 0.55: correlated candidates, often rejected
    "slow_wide": (SLOW, ToleranceBounds(0.25, 36.0, 1.2), 10.0, 3000),
    # kappa = 0, U_20 1.9, 0.88, 0.74: lateral stepped, the others thinned
    "brownian": (BROWNIAN, ToleranceBounds(0.4, 60.0, 2.0), 10.0, 1500),
    # nonzero reversion means: tails differ above and below
    "fitted_means": (OU_FTE_FIT, TOLERANCE_STANDARDS["stringent"], 20.0,
                     3000),
}


class TestThinnedLaw:
    """The runners' count laws against a per-step simulation in a stream
    of its own, by chi-square at fixed seeds and run counts."""

    P_MIN = 1e-4

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_single_lane_matches_stepped_simulation(self, case):
        ou, bounds, lam, runs = LAW_CASES[case]
        cfg = lane_cfg(ou=dict(ou), n_runs=runs, seed=71,
                       flows=[FlowSpec(intensity_per_hour=lam,
                                       tolerance=bounds)])
        est = run_single_lane(cfg)
        ref = stepped_counts(cfg, seed=72)[:, 0]
        laws = {axis: ref[:, j] for j, axis in enumerate(AXES)}
        laws["total"] = ref.sum(axis=1)
        for key, counts in laws.items():
            runner = np.repeat(np.arange(est.components[key].counts.size),
                               est.components[key].counts)
            assert pooled_chi2_p(runner, counts) > self.P_MIN, key

    @pytest.mark.parametrize("ou", [OU_FTE_CENTERED, OU_FTE_FIT],
                             ids=["stringent", "fitted_means"])
    def test_one_observation_lanes_match_stepped_simulation(self, ou):
        # residencies of 1 and 1.5 minutes: one observation, so each hit
        # is a gate uniform below U_1, the sum of both tails (b != 0 with
        # the fitted means)
        flows = [FlowSpec(intensity_per_hour=60.0, t_cross_min=t_cross)
                 for t_cross in (1.0, 1.5)]
        cfg = replace(default_config(), kind="multilane", flows=flows,
                      ou=dict(ou), n_runs=4000, seed=75)
        est = run_multilane(cfg)
        ref = stepped_counts(cfg, seed=76)
        for prefix in (1, 2):
            for key, counts in (
                    (f"lanes{prefix}_total", ref[:, :prefix].sum(axis=(1, 2))),
                    (f"lanes{prefix}_lateral", ref[:, :prefix, 0].sum(axis=1))):
                comp = est.components[key].counts
                assert comp.size > 1, key   # some run hits
                runner = np.repeat(np.arange(comp.size), comp)
                assert pooled_chi2_p(runner, counts) > self.P_MIN, key

    def test_unequal_residencies_match_stepped_simulation(self):
        # residencies of 0.5 (never observed), 2, 7.5 and 20 observations
        flows = [FlowSpec(intensity_per_hour=20.0, t_cross_min=t_cross,
                          tolerance=bounds)
                 for t_cross, bounds in (
                     (0.5, TOLERANCE_STANDARDS["stringent"]),
                     (2.0, ToleranceBounds(0.06, 12.0, 0.3)),
                     (7.5, ToleranceBounds(0.07, 14.0, 0.35)),
                     (20.0, TOLERANCE_STANDARDS["stringent"]))]
        cfg = replace(default_config(), kind="multilane", flows=flows,
                      n_runs=3000, seed=73)
        est = run_multilane(cfg)
        ref = stepped_counts(cfg, seed=74)
        for prefix in range(1, len(flows) + 1):
            for key, counts in (
                    (f"lanes{prefix}_total", ref[:, :prefix].sum(axis=(1, 2))),
                    (f"lanes{prefix}_lateral", ref[:, :prefix, 0].sum(axis=1))):
                comp = est.components[key].counts
                runner = np.repeat(np.arange(comp.size), comp)
                assert pooled_chi2_p(runner, counts) > self.P_MIN, key


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

    def test_equal_lanes_share_one_sampler(self):
        # a sampler holds only tables, so lanes with equal observations
        # and bounds share one; another bound or residency gets its own
        flows = [FlowSpec(intensity_per_hour=5.0)] * 3 + [
            FlowSpec(intensity_per_hour=5.0,
                     tolerance=TOLERANCE_STANDARDS["severe"]),
            FlowSpec(intensity_per_hour=5.0, t_cross_min=7.5)]
        cfg = replace(default_config(), kind="multilane", flows=flows)
        block = harness._Block(cfg, flows, None)
        first, second, third, severe, short = block.lanes
        assert isinstance(first, harness._Lane)
        assert second is first and third is first
        assert len({id(lane) for lane in (first, severe, short)}) == 3
        assert (severe.tables["bound"] != first.tables["bound"]).all()
        assert short.n == 7 and first.n == 20

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
