"""Tests of the benchmark's independent reference.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math

import numpy as np
import pytest

import reference

# Paper dynamics centred on the nominal path, with the stringent bounds.
AXES = {
    "lateral": (3.492, 7.27e-2, 0.1),
    "vertical": (1.841, 8.683, 20.0),
    "longitudinal": (2.1662, 0.2774, 0.5),
}


@pytest.mark.parametrize("axis", sorted(AXES))
def test_node_count_convergence(axis):
    kappa, sigma, bound = AXES[axis]
    runs = [reference.first_hit_pmf(kappa, 0.0, sigma, 1.0, bound, 120,
                                    nodes=n) for n in (100, 200, 400)]
    for f in runs[:2]:
        assert np.max(np.abs(f - runs[2])) < 1e-9
        assert np.max(np.abs(reference.hit_per_obs(f)
                             - reference.hit_per_obs(runs[2]))) < 1e-9


def test_stringent_lateral_hit_probability():
    kappa, sigma, bound = AXES["lateral"]
    f = reference.first_hit_pmf(kappa, 0.0, sigma, 1.0, bound, 120)
    assert abs(f.sum() - 0.0327954) < 5e-8


def test_tiny_probabilities_keep_their_sign():
    # c04a's bound: far below double-precision resolution of 1 - survival
    f = reference.first_hit_pmf(3.492, 0.0279, 7.27e-2, 0.1, 0.3, 1200)
    assert 0.0 < f.sum() < 1e-15
    assert np.all(f >= 0.0)


@pytest.mark.parametrize("axis", ["lateral", "longitudinal"])
def test_matches_plain_simulation_of_reset_chain(axis):
    kappa, sigma, bound = AXES[axis]
    n_paths, n_obs = 100_000, 60
    a = math.exp(-kappa)
    s = sigma * math.sqrt((1.0 - a * a) / (2.0 * kappa))
    rng = np.random.default_rng(12345)
    x = np.zeros(n_paths)
    counts = np.zeros(n_paths, dtype=np.int64)
    first_hit = np.zeros(n_paths, dtype=bool)
    hits_at = np.zeros(n_obs + 1)
    for m in range(1, n_obs + 1):
        x = a * x + s * rng.standard_normal(n_paths)
        hit = np.abs(x) >= bound
        hits_at[m] = hit.mean()
        counts += hit
        first_hit |= hit
        x[hit] = 0.0

    f = reference.first_hit_pmf(kappa, 0.0, sigma, 1.0, bound, n_obs)
    h = reference.hit_per_obs(f)
    p_first = f.sum()
    z_first = (first_hit.mean() - p_first) \
        / math.sqrt(p_first * (1.0 - p_first) / n_paths)
    mean, second = reference.count_moments(f, n_obs)
    assert mean == pytest.approx(h[1:].sum(), rel=1e-12)
    z_mean = (counts.mean() - mean) \
        / math.sqrt((second - mean ** 2) / n_paths)
    assert abs(z_first) < 5.0
    assert abs(z_mean) < 5.0
    # early observations, one at a time
    for m in (1, 2, 5):
        se = math.sqrt(h[m] * (1.0 - h[m]) / n_paths)
        assert abs(hits_at[m] - h[m]) < 5.0 * se


def test_renewal_mean_se_matches_spread_of_estimates():
    kappa, sigma, bound = AXES["lateral"]
    n_obs, n_paths = 120, 20_000
    f = reference.first_hit_pmf(kappa, 0.0, sigma, 1.0, bound, n_obs)
    se = reference.renewal_mean_se(f, n_obs, n_paths)
    rng = np.random.default_rng(7)
    p = np.append(f[1:], 1.0 - f.sum())
    estimates = []
    for _ in range(200):
        hits = rng.multinomial(n_paths, p)[:-1] / n_paths
        g = np.concatenate([[0.0], hits])
        estimates.append(reference.count_moments(g, n_obs)[0])
    assert np.std(estimates) == pytest.approx(se, rel=0.15)


def test_right_angle_safe_zone():
    # closest boundary points sit at (x, e/2) and (e/2, x)
    x = reference.safe_zone_half_length(90.0, 1.0, 1.0, 5.0)
    assert x == pytest.approx(0.5 + 5.0 / math.sqrt(2.0), rel=1e-9)
