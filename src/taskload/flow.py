"""Macroscopic corridor layer: Poisson occupancy, lane and crossing taskload.

Every flow element is one compound Poisson law: a Poisson number of
aircraft (mean lambda * T_cross for a lane in steady state), each adding
an independent count, evaluated by Panjer's recursion in
`compound_poisson_pmf`. Occupancy is the case of one count per aircraft.
Independent compound Poissons superpose into one whose aircraft draw
their law from each element in proportion to its mean occupancy, so
parallel lanes and the two flows through a crossing's safe zone mix
their per-aircraft laws by occupancy.

Crossings add scheduling conflicts: a safe zone around the centerline
intersection admits one aircraft at a time, and with A aircraft inside,
A-1 must be delayed. The zone is sized so that any two aircraft sitting
on the zone boundaries of different flows (anywhere across their
corridor widths) are at least the separation minimum apart.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

# convolve_pmf stays bound for perfbench/tracing.py, which wraps it here
from .pmf import (TaskloadPmf, common_horizon, convolve_pmf,  # noqa: F401
                  delta_pmf)

KT_TO_NM_PER_MIN = 1.0 / 60.0


@dataclass(frozen=True)
class ToleranceBounds:
    """Per-axis two-sided deviation bounds (NM, ft, NM)."""

    lateral_nm: float
    vertical_ft: float
    longitudinal_nm: float

    def __post_init__(self):
        for v in (self.lateral_nm, self.vertical_ft, self.longitudinal_nm):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"tolerance bounds must be > 0, got {v}")

    def for_axis(self, axis: str) -> float:
        return {"lateral": self.lateral_nm, "vertical": self.vertical_ft,
                "longitudinal": self.longitudinal_nm}[axis]


#: The four named control tolerance standards.
TOLERANCE_STANDARDS = {
    "stringent": ToleranceBounds(0.1, 20.0, 0.5),
    "severe": ToleranceBounds(0.12, 22.0, 0.6),
    "intermediate": ToleranceBounds(0.15, 25.0, 0.8),
    "lax": ToleranceBounds(0.2, 30.0, 1.0),
}


@dataclass(frozen=True)
class FlowSpec:
    """One lane: Poisson intensity, residency and tolerance bounds."""

    intensity_per_hour: float
    t_cross_min: float = 20.0
    tolerance: ToleranceBounds = TOLERANCE_STANDARDS["stringent"]

    def __post_init__(self):
        if self.intensity_per_hour < 0.0:
            raise ValueError("intensity must be >= 0")
        if self.t_cross_min <= 0.0:
            raise ValueError("t_cross must be > 0")

    @property
    def intensity_per_min(self) -> float:
        return self.intensity_per_hour / 60.0


@dataclass
class CrossingGeometry:
    """Two flows crossing at angle alpha, with a derived safe zone.

    e1/e2 are the full lateral extents (corridor widths) of the flows;
    x1/x2 the safe-zone half-lengths along each centerline once solved,
    and t_safe the equalized transit time at `speed_kt`.
    """

    alpha_deg: float
    e1_nm: float = 1.0
    e2_nm: float = 1.0
    d_min_nm: float = 5.0
    speed_kt: float = 480.0
    x1_nm: float | None = None
    x2_nm: float | None = None
    t_safe_min: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha_deg < 180.0:
            raise ValueError(f"alpha must be in (0, 180), got {self.alpha_deg}")
        if self.e1_nm < 0.0 or self.e2_nm < 0.0:
            raise ValueError("extents must be >= 0")
        if self.d_min_nm <= 0.0 or self.speed_kt <= 0.0:
            raise ValueError("d_min and speed must be > 0")

    @property
    def solved(self) -> bool:
        return self.t_safe_min is not None


#: Mass a compound Poisson law may leave unplaced past its last index; it
#: must exceed the running sum's rounding (~1e-13 after 1000 terms).
CP_TAIL = 1e-12


def compound_poisson_pmf(mean_aircraft: float,
                         per_aircraft: TaskloadPmf) -> TaskloadPmf:
    """Law of the total count of Poisson(mean_aircraft) independent aircraft.

    Panjer's recursion (1981), every term nonnegative: g[0] =
    exp(-m (1 - f[0])), n g[n] = m sum_j j f[j] g[n-j]. With per-aircraft
    truncation mass t only exp(-m t) can be placed; the rest,
    P[some aircraft truncated] = -expm1(-m t), is truncation mass. The
    recursion stops once at most CP_TAIL of the placeable mass is left,
    or once the last len(f) - 1 terms are zero (so are all later ones).
    Raises when g[0] is below the smallest normal float.
    """
    m = float(mean_aircraft)
    if not 0.0 <= m < math.inf:
        raise ValueError(f"mean aircraft count must be finite, >= 0: {m}")
    f = per_aircraft.probs
    g0 = math.exp(-m * (1.0 - f[0]))
    if g0 < sys.float_info.min:
        raise ValueError(f"compound Poisson P[0] = exp({-m * (1.0 - f[0]):.6g})"
                         f" underflows; mean {m:.6g} aircraft is too dense")
    lost = -math.expm1(-m * per_aircraft.truncation_mass)
    kept = 1.0 - lost
    k_max = f.size - 1
    rev_jf = (m * np.arange(f.size) * f)[:0:-1]  # m j f[j] for j = K..1
    g, placed = [g0], g0
    while kept - placed > CP_TAIL:
        window = g[-k_max:] if k_max else []   # g[n-j] for j = min(n, K)..1
        if not any(window):
            break
        g.append(float(rev_jf[k_max - len(window):] @ window) / len(g))
        placed += g[-1]
    return TaskloadPmf(np.array(g), lost + max(0.0, kept - placed),
                       per_aircraft.horizon)


def _superposed(means: list[float], per_aircraft: list[TaskloadPmf]
                ) -> TaskloadPmf:
    """Sum of independent compound Poissons with these means: one compound
    Poisson whose aircraft draw per_aircraft[i] with probability
    means[i] / sum(means)."""
    weights = means if sum(means) > 0.0 else None   # no aircraft: any mix
    size = max(p.probs.size for p in per_aircraft)
    mixed = TaskloadPmf(
        np.average([p.padded(size) for p in per_aircraft], axis=0,
                   weights=weights),
        np.average([p.truncation_mass for p in per_aircraft], weights=weights),
        reduce(common_horizon, (p.horizon for p in per_aircraft)))
    return compound_poisson_pmf(sum(means), mixed)


def occupancy_pmf(intensity_per_min: float, window_min: float) -> TaskloadPmf:
    """Poisson(intensity * window) PMF: one count per aircraft present."""
    return compound_poisson_pmf(intensity_per_min * window_min, delta_pmf(1))


def poisson_occupancy(flow: FlowSpec) -> TaskloadPmf:
    """PMF of the number of aircraft simultaneously present in the lane."""
    return occupancy_pmf(flow.intensity_per_min, flow.t_cross_min)


def single_lane_pmf(flow: FlowSpec, per_aircraft: TaskloadPmf) -> TaskloadPmf:
    """Lane taskload: compound Poisson over lambda * t_cross aircraft."""
    return compound_poisson_pmf(flow.intensity_per_min * flow.t_cross_min,
                                per_aircraft)


def multilane_pmf(flows: list[FlowSpec],
                  per_aircraft: list[TaskloadPmf]) -> TaskloadPmf:
    """Taskload of independent lanes: parallel lanes, or the flows
    through a crossing's safe zone (lanes whose residency is the transit).

    The lanes' compound Poissons superpose into one whose aircraft mix
    the per-aircraft laws by lane occupancy lambda * t_cross; identical
    lanes reduce to one lane at the summed intensity.
    """
    if len(flows) < 2:
        raise ValueError("multilane requires at least 2 flows")
    if len(flows) != len(per_aircraft):
        raise ValueError("one per-aircraft PMF per flow required")
    return _superposed([f.intensity_per_min * f.t_cross_min for f in flows],
                       per_aircraft)


# --- safe-zone geometry -------------------------------------------------

def _corner_pairs(g: CrossingGeometry) -> list[tuple]:
    """(p1, k1, p2, k2) for each pairing of zone-boundary corners across
    the two flows: at half-lengths x1 and x2 the corners sit at
    x1 p1 + k1 and x2 p2 + k2, each vector an (x, y) pair of floats."""
    a = math.radians(g.alpha_deg)
    cos, sin = math.cos(a), math.sin(a)
    return [((end1, 0.0), (0.0, side1 * g.e1_nm / 2.0),
             (end2 * cos, end2 * sin),
             (-side2 * g.e2_nm / 2.0 * sin, side2 * g.e2_nm / 2.0 * cos))
            for end1 in (-1.0, 1.0) for side1 in (-1.0, 1.0)
            for end2 in (-1.0, 1.0) for side2 in (-1.0, 1.0)]


def min_corner_separation(g: CrossingGeometry, x1: float, x2: float) -> float:
    """Smallest distance between zone-boundary corners of the two flows."""
    return min(math.hypot(x1 * p1[0] + k1[0] - (x2 * p2[0] + k2[0]),
                          x1 * p1[1] + k1[1] - (x2 * p2[1] + k2[1]))
               for p1, k1, p2, k2 in _corner_pairs(g))


def solve_safe_zone(g: CrossingGeometry) -> CrossingGeometry:
    """Size the safe zone: minimal half-lengths honoring the separation minimum.

    For every pairing of zone-boundary corners across the two flows the
    squared distance is quadratic in the common half-length x, so the
    minimal feasible x for each pairing is a quadratic root and the zone
    half-length is their maximum. Both flows carry the same speed, so
    equal transit times force x1 = x2 and t_safe = 2 x / speed.

    Raises when no positive half-length satisfies every pairing.
    """
    d2 = g.d_min_nm ** 2
    x_req = 0.0
    for p1, k1, p2, k2 in _corner_pairs(g):
        # corner difference = x*(p1 - p2) + (k1 - k2)
        dx, dy = p1[0] - p2[0], p1[1] - p2[1]
        kx, ky = k1[0] - k2[0], k1[1] - k2[1]
        qa = dx * dx + dy * dy
        qb = 2.0 * (dx * kx + dy * ky)
        qc = kx * kx + ky * ky - d2
        if qa < 1e-14:
            # parallel boundary motion: distance fixed in x
            if qc < 0.0 and qb <= 0.0:
                raise ValueError("no positive safe-zone half-length exists")
            if qb > 0.0 and qc < 0.0:
                x_req = max(x_req, -qc / qb)
            continue
        disc = qb * qb - 4.0 * qa * qc
        if disc <= 0.0:
            continue  # pairing never violates the minimum
        root = (-qb + math.sqrt(disc)) / (2.0 * qa)
        x_req = max(x_req, root)
    if x_req <= 0.0:
        raise ValueError("no positive safe-zone half-length exists")
    sep = min_corner_separation(g, x_req, x_req)
    if sep < g.d_min_nm - 1e-9:
        raise ValueError(f"solver inconsistency: separation {sep}")
    speed_nm_min = g.speed_kt * KT_TO_NM_PER_MIN
    return replace(g, x1_nm=x_req, x2_nm=x_req,
                   t_safe_min=2.0 * x_req / speed_nm_min)


# --- crossing taskload ---------------------------------------------------

def conflict_pmf(g: CrossingGeometry, lam1_per_h: float,
                 lam2_per_h: float) -> TaskloadPmf:
    """PMF of the safe-zone occupancy A: Poisson((lam1+lam2) * t_safe)."""
    if not g.solved:
        raise ValueError("solve_safe_zone first: t_safe unknown")
    if lam1_per_h < 0.0 or lam2_per_h < 0.0:
        raise ValueError("intensities must be >= 0")
    return occupancy_pmf((lam1_per_h + lam2_per_h) / 60.0, g.t_safe_min)


def conflict_interventions_pmf(occupancy: TaskloadPmf) -> TaskloadPmf:
    """PMF of max(A-1, 0): every aircraft beyond the first is delayed."""
    probs = occupancy.probs
    if probs.size == 1:
        return TaskloadPmf(np.array([1.0 - occupancy.truncation_mass]),
                           occupancy.truncation_mass)
    out = probs[1:].copy()
    out[0] += probs[0]
    return TaskloadPmf(out, occupancy.truncation_mass)


def crossing_pmf(occupancy: TaskloadPmf, control: TaskloadPmf) -> TaskloadPmf:
    """Total crossing taskload: conflicts plus deviation control.

    Combines the safe-zone occupancy A with the deviation-control law N
    of the aircraft in the zone (the flows' compound Poissons over the
    transit, superposed) through the conflict count A-1:

        P[total = n] = sum_i P[A = i+1] P[N = n-i]   (n >= 1)
        P[total = 0] = P[A = 0] + P[A = 1] P[N = 0]

    exactly as displayed; the A = 0 branch carries no control taskload
    since an empty zone needs no in-zone interventions.
    """
    # P[A = i + 1] weights the control law shifted by i
    out = np.convolve(occupancy.padded(occupancy.probs.size + 1)[1:],
                      control.probs)
    out[0] += occupancy.probs[0]
    trunc = (occupancy.truncation_mass
             + occupancy.probs[1:].sum() * control.truncation_mass)
    return TaskloadPmf(out, trunc, control.horizon)
