import numpy as np
import pytest
from scipy import stats

from taskload import (TaskloadPmf, convolve_pmf, delta_pmf, tv_distance,
                      wilson_interval)


def poisson_pmf(lam, kmax=64):
    n = np.arange(kmax + 1)
    return TaskloadPmf(stats.poisson.pmf(n, lam), stats.poisson.sf(kmax, lam))


def test_mass_validation():
    with pytest.raises(ValueError):
        TaskloadPmf(np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(ValueError):
        TaskloadPmf(np.array([0.5, -0.6, 1.1]))


@pytest.mark.parametrize("probs, trunc", [
    ([np.nan, 0.5], 0.0), ([np.inf, 0.5], 0.0), ([1.0], np.nan),
    ([0.5, 0.5], np.inf)], ids=["nan_prob", "inf_prob", "nan_truncation",
                                "inf_truncation"])
def test_non_finite_mass_rejected(probs, trunc):
    # a NaN compares False with every bound, so each check must ask for
    # finite values outright
    with pytest.raises(ValueError, match="non-finite"):
        TaskloadPmf(np.array(probs), trunc)


@pytest.mark.parametrize("probs, trunc, message", [
    ([np.nan, 1.0], 0.0, "non-finite"),
    ([np.inf, 0.5], 0.0, "non-finite"),
    ([-np.inf, 1.0], 0.0, "non-finite"),
    ([1.0], np.inf, "non-finite"),
    ([1.0], -np.inf, "non-finite"),
    ([1.0 + 2e-9, -2e-9], 0.0, "negative probability -2e-09"),
    ([1.0 + 2e-9], -2e-9, "negative truncation mass -2e-09"),
    ([0.5, 0.5 - 2e-9], 0.0, "PMF mass .* is not 1"),
    ([0.5], 0.5 + 2e-9, "PMF mass .* is not 1"),
    ([[0.5, 0.5]], 0.0, "non-empty 1-D"),
    ([], 0.0, "non-empty 1-D")],
    ids=["nan", "inf", "minus_inf", "inf_truncation", "minus_inf_truncation",
         "negative_prob", "negative_truncation", "mass_low", "mass_high",
         "two_d", "empty"])
def test_each_rejection_keeps_its_message(probs, trunc, message):
    with pytest.raises(ValueError, match=message):
        TaskloadPmf(np.array(probs), trunc)


def test_small_negatives_clip_to_zero():
    p = TaskloadPmf(np.array([1.0, -1e-9, -0.0]), -1e-9)
    assert p.probs.tolist() == [1.0, 0.0, 0.0]
    assert not np.signbit(p.probs).any()
    assert p.truncation_mass == 0.0


def test_zero_d_input_becomes_one_d():
    p = TaskloadPmf(np.float64(1.0))
    assert p.probs.shape == (1,) and p.probs[0] == 1.0


def test_probs_are_a_copy_of_the_callers_array():
    given = np.array([0.25, 0.75])
    p = TaskloadPmf(given)
    assert not np.shares_memory(p.probs, given)
    given[0] = 0.5
    assert p.probs.tolist() == [0.25, 0.75]


def test_identity_element():
    q = TaskloadPmf(np.array([0.2, 0.3, 0.5]))
    out = convolve_pmf(delta_pmf(0), q)
    assert np.allclose(out.probs[:3], q.probs)


def test_fair_coin_autoconvolution():
    p = TaskloadPmf(np.array([0.5, 0.5]))
    out = convolve_pmf(p, p)
    assert np.allclose(out.probs, [0.25, 0.5, 0.25])


def test_poisson_closed_under_convolution():
    a, b = 1.3, 2.9
    out = convolve_pmf(poisson_pmf(a), poisson_pmf(b))
    assert tv_distance(out, poisson_pmf(a + b, kmax=128)) < 1e-9


def test_truncation_carried_without_cancellation():
    # P[X > 14 or Y > 20] for independent Poisson counts is 3.06e-13;
    # 1 - sum(probs) would lose it to rounding of the O(1) mass
    p, q = poisson_pmf(1.0, kmax=14), poisson_pmf(2.0, kmax=20)
    sf_p, sf_q = stats.poisson.sf(14, 1.0), stats.poisson.sf(20, 2.0)
    out = convolve_pmf(p, q)
    assert out.truncation_mass == pytest.approx(sf_p + sf_q - sf_p * sf_q,
                                                rel=1e-12)
    assert convolve_pmf(delta_pmf(0), p).truncation_mass == sf_p


def test_horizon_mismatch_rejected():
    p = TaskloadPmf(np.array([1.0]), horizon=120.0)
    q = TaskloadPmf(np.array([1.0]), horizon=60.0)
    with pytest.raises(ValueError):
        convolve_pmf(p, q)


def test_tv_distance_extremes():
    assert tv_distance(delta_pmf(0), delta_pmf(0)) == 0.0
    assert tv_distance(delta_pmf(0), delta_pmf(1)) == 1.0


def test_mean_and_tail():
    p = poisson_pmf(3.0)
    assert p.mean() == pytest.approx(3.0, abs=1e-9)
    assert p.p_geq(1) == pytest.approx(1 - np.exp(-3), abs=1e-12)
    assert p.p_geq(0) == pytest.approx(1.0, abs=1e-12)


def test_trimmed_moves_mass_to_truncation():
    p = poisson_pmf(1.0, kmax=64).trimmed(1e-10)
    assert p.probs.size < 30
    assert p.probs.sum() + p.truncation_mass == pytest.approx(1.0, abs=1e-12)


def test_wilson_interval_covers():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
