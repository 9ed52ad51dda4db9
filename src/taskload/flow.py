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


@dataclass(frozen=True)
class ToleranceStandard:
    name: str
    bounds: ToleranceBounds


#: The four named control tolerance standards.
TOLERANCE_STANDARDS = {
    "stringent": ToleranceStandard("stringent", ToleranceBounds(0.1, 20.0, 0.5)),
    "severe": ToleranceStandard("severe", ToleranceBounds(0.12, 22.0, 0.6)),
    "intermediate": ToleranceStandard("intermediate", ToleranceBounds(0.15, 25.0, 0.8)),
    "lax": ToleranceStandard("lax", ToleranceBounds(0.2, 30.0, 1.0)),
}


@dataclass(frozen=True)
class FlowSpec:
    """One lane: Poisson intensity, residency, speed, bounds, width."""

    intensity_per_hour: float
    t_cross_min: float = 20.0
    speed_kt: float = 480.0
    tolerance: ToleranceBounds = TOLERANCE_STANDARDS["stringent"].bounds
    lateral_extent_nm: float = 1.0

    def __post_init__(self):
        if self.intensity_per_hour < 0.0:
            raise ValueError("intensity must be >= 0")
        if self.t_cross_min <= 0.0 or self.speed_kt <= 0.0:
            raise ValueError("t_cross and speed must be > 0")
        if self.lateral_extent_nm < 0.0:
            raise ValueError("lateral extent must be >= 0")

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
    """Taskload of parallel independent lanes.

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

def _zone_corners(x: float, half_width: float, direction: np.ndarray,
                  normal: np.ndarray) -> list[np.ndarray]:
    """The four corner points of a zone boundary pair on one flow."""
    return [end * x * direction + side * half_width * normal
            for end in (-1.0, 1.0) for side in (-1.0, 1.0)]


def min_corner_separation(g: CrossingGeometry, x1: float, x2: float) -> float:
    """Smallest distance between zone-boundary corners of the two flows."""
    a = math.radians(g.alpha_deg)
    u1, n1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    u2 = np.array([math.cos(a), math.sin(a)])
    n2 = np.array([-math.sin(a), math.cos(a)])
    c1 = _zone_corners(x1, g.e1_nm / 2.0, u1, n1)
    c2 = _zone_corners(x2, g.e2_nm / 2.0, u2, n2)
    return min(float(np.linalg.norm(p - q)) for p in c1 for q in c2)


def solve_safe_zone(g: CrossingGeometry) -> CrossingGeometry:
    """Size the safe zone: minimal half-lengths honoring the separation minimum.

    For every pairing of zone-boundary corners across the two flows the
    squared distance is quadratic in the common half-length x, so the
    minimal feasible x for each pairing is a quadratic root and the zone
    half-length is their maximum. Both flows carry the same speed, so
    equal transit times force x1 = x2 and t_safe = 2 x / speed.

    Raises when no positive half-length satisfies every pairing.
    """
    a = math.radians(g.alpha_deg)
    u1, n1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    u2 = np.array([math.cos(a), math.sin(a)])
    n2 = np.array([-math.sin(a), math.cos(a)])
    d2 = g.d_min_nm ** 2
    x_req = 0.0
    for end1 in (-1.0, 1.0):
        for side1 in (-1.0, 1.0):
            for end2 in (-1.0, 1.0):
                for side2 in (-1.0, 1.0):
                    # corner difference = x*(end1 u1 - end2 u2) + const
                    dvec = end1 * u1 - end2 * u2
                    kvec = (side1 * g.e1_nm / 2.0 * n1
                            - side2 * g.e2_nm / 2.0 * n2)
                    qa = float(dvec @ dvec)
                    qb = 2.0 * float(dvec @ kvec)
                    qc = float(kvec @ kvec) - d2
                    if qa < 1e-14:
                        # parallel boundary motion: distance fixed in x
                        if qc < 0.0 and qb <= 0.0:
                            raise ValueError(
                                "no positive safe-zone half-length exists")
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


def safe_zone_printed_residuals(g: CrossingGeometry, x1: float,
                                x2: float) -> tuple[float, float]:
    """Residuals of the published boundary equations, kept for traceability.

    Both equations as printed (with the first equation's leading
    parenthesis squared, by symmetry with the second and the squared
    right-hand side):

      (x1 + x2 cos a - e2/2 cos a)^2 + (-e1/2 + x2 sin a + e2/2 sin a)^2 = D^2
      (x1 + x2 cos a - e2/2 sin a)^2 + (-e1/2 + x2 sin a + e2/2 cos a)^2 = D^2

    The equality system generally admits no positive root pair (checked
    against a brute-force corner oracle), so the geometric solver above
    is the production route.
    """
    a = math.radians(g.alpha_deg)
    c, s = math.cos(a), math.sin(a)
    h2 = g.e2_nm / 2.0
    h1 = g.e1_nm / 2.0
    d2 = g.d_min_nm ** 2
    r1 = (x1 + x2 * c - h2 * c) ** 2 + (-h1 + x2 * s + h2 * s) ** 2 - d2
    r2 = (x1 + x2 * c - h2 * s) ** 2 + (-h1 + x2 * s + h2 * c) ** 2 - d2
    return r1, r2


def solve_safe_zone_printed(g: CrossingGeometry,
                            span: float = 25.0) -> list[tuple[float, float]]:
    """All real roots of the published equality system inside [-span, span].

    Diagnostic only. Uses dense Newton polishing from a coarse grid of
    starts; duplicates collapse to 6-decimal resolution.
    """
    from scipy.optimize import fsolve

    def system(v):
        return safe_zone_printed_residuals(g, v[0], v[1])

    roots: set[tuple[float, float]] = set()
    starts = np.linspace(-span, span, 9)
    for s1 in starts:
        for s2 in starts:
            sol, _, ier, _ = fsolve(system, [s1, s2], full_output=True)
            if ier == 1 and max(abs(r) for r in system(sol)) < 1e-8:
                roots.add((round(float(sol[0]), 6), round(float(sol[1]), 6)))
    return sorted(roots)


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


def crossing_pmf(g: CrossingGeometry, flows: list[FlowSpec],
                 per_aircraft: list[TaskloadPmf]) -> TaskloadPmf:
    """Total crossing taskload: conflicts plus deviation control.

    The two flows merge into one Poisson stream through the zone; the
    deviation-control PMF is its compound Poisson over the zone transit,
    each aircraft drawn from flow i with probability lam_i / (lam1 +
    lam2). The total combines it with the conflict count A-1:

        P[total = n] = sum_i P[A = i+1] P[N = n-i]   (n >= 1)
        P[total = 0] = P[A = 0] + P[A = 1] P[N = 0]

    exactly as displayed; the A = 0 branch carries no control taskload
    since an empty zone needs no in-zone interventions.
    """
    if len(flows) != 2 or len(per_aircraft) != 2:
        raise ValueError("a crossing joins exactly two flows")
    if not g.solved:
        raise ValueError("solve_safe_zone first: t_safe unknown")
    occ = conflict_pmf(g, flows[0].intensity_per_hour,
                       flows[1].intensity_per_hour)
    control = _superposed([f.intensity_per_min * g.t_safe_min for f in flows],
                          per_aircraft)
    # P[A = i + 1] weights the control law shifted by i
    out = np.convolve(occ.padded(occ.probs.size + 1)[1:], control.probs)
    out[0] += occ.probs[0]
    trunc = (occ.truncation_mass
             + occ.probs[1:].sum() * control.truncation_mass)
    return TaskloadPmf(out, trunc, control.horizon)
