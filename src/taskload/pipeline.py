"""Analytic taskload pipeline: first-hit laws -> per-aircraft PMFs -> scenarios.

Glues the discrete-monitoring kernel to the flow layer. The per-aircraft
count PMF on each axis follows from its first-hit law at the
surveillance cadence (hits are renewals: after an intervention the axis
restarts from the nominal trajectory), axes combine by convolution, and
the flow layer mixes aircraft into lane, multilane, and crossing PMFs.
Nothing here samples: no table depends on a seed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .distributions import AXES
from .flow import (CrossingGeometry, FlowSpec, conflict_interventions_pmf,
                   conflict_pmf, crossing_pmf, multilane_pmf, single_lane_pmf,
                   solve_safe_zone)
# the uncalled simulation cross-checks stay bound for perfbench/tracing.py
from .hitting import (DensityGrid, first_hit_laws,  # noqa: F401
                      fpt_density_oracle, intervention_pmf)
from .ou import OuParams, intervention_count_mc, lattice_steps  # noqa: F401
from .pmf import TaskloadPmf, convolve_pmf, delta_pmf


def per_aircraft_pmf(ou: dict[str, OuParams], flow: FlowSpec, horizon: float,
                     obs_dt: float,
                     densities_out: dict[str, DensityGrid] | None = None
                     ) -> dict[str, TaskloadPmf]:
    """Per-axis and combined intervention-count PMFs for one aircraft
    observed every obs_dt over the horizon.

    Axis counts are independent, so the combined PMF is the convolution
    of the per-axis PMFs. Pass a dict as densities_out to also collect
    the per-axis first-hit densities.
    """
    n_obs = lattice_steps(horizon, obs_dt)
    out: dict[str, TaskloadPmf] = {}
    combined = delta_pmf(0, horizon)
    laws = first_hit_laws([ou[axis] for axis in AXES],
                          [flow.tolerance.for_axis(axis) for axis in AXES],
                          obs_dt, n_obs)
    for axis, f in zip(AXES, laws):
        if densities_out is not None:
            densities_out[axis] = DensityGrid(0.0, obs_dt,
                                              np.append(f, 0.0) / obs_dt)
        out[axis] = intervention_pmf(f, n_obs, horizon=horizon)
        combined = convolve_pmf(combined, out[axis]).trimmed(1e-15)
    out["total"] = combined
    return out


def _per_flow_laws(ou: dict[str, OuParams], flows: list[FlowSpec],
                   horizon: float, obs_dt: float
                   ) -> list[dict[str, TaskloadPmf]]:
    """per_aircraft_pmf of each flow, computed once per distinct
    tolerance: flows with equal bounds share one per-aircraft law."""
    laws = {tol: per_aircraft_pmf(ou, f, horizon, obs_dt)
            for tol, f in {f.tolerance: f for f in flows}.items()}
    return [laws[f.tolerance] for f in flows]


def analytic_single_lane(flow: FlowSpec, ou: dict[str, OuParams],
                         horizon: float, obs_dt: float,
                         densities_out: dict[str, DensityGrid] | None = None
                         ) -> dict[str, TaskloadPmf]:
    """Lane taskload PMFs keyed by axis plus 'total'."""
    per_ac = per_aircraft_pmf(ou, flow, horizon, obs_dt,
                              densities_out=densities_out)
    return {key: single_lane_pmf(flow, pmf) for key, pmf in per_ac.items()}


def analytic_multilane(flows: list[FlowSpec], ou: dict[str, OuParams],
                       horizon: float, obs_dt: float
                       ) -> dict[str, TaskloadPmf]:
    """Cumulative lane-prefix taskload PMFs (total and lateral). Lanes
    with equal bounds share one per-aircraft law."""
    per_ac = _per_flow_laws(ou, flows, horizon, obs_dt)
    out: dict[str, TaskloadPmf] = {}
    for k in range(1, len(flows) + 1):
        for name in ("total", "lateral"):
            pmfs = [pa[name] for pa in per_ac[:k]]
            out[f"lanes{k}_{name}"] = (
                single_lane_pmf(flows[0], pmfs[0]) if k == 1
                else multilane_pmf(flows[:k], pmfs))
            out[name] = out[f"lanes{k}_{name}"]
    return out


def analytic_crossing(geometry: CrossingGeometry, flows: list[FlowSpec],
                      ou: dict[str, OuParams], obs_dt: float
                      ) -> dict[str, TaskloadPmf]:
    """Crossing taskload: conflict, deviation-control, and total PMFs.

    Deviation control counts each aircraft over the observations of its
    safe-zone transit, floor(t_safe / obs_dt) of them (none gives zero
    counts), under its own flow's bounds; flows with equal bounds share
    one per-aircraft law. The conflict PMF is the zone-occupancy law
    shifted by one. No table depends on the scenario horizon. The safe
    zone is always solved from the geometry; a filled-in t_safe is unread.
    """
    geom = solve_safe_zone(geometry)
    lam1, lam2 = (f.intensity_per_hour for f in flows)
    occupancy = conflict_pmf(geom, lam1, lam2)
    # a zone transit is a lane whose residency is the safe-zone time
    transits = [replace(f, t_cross_min=geom.t_safe_min) for f in flows]
    laws = _per_flow_laws(ou, transits, geom.t_safe_min, obs_dt)
    control = multilane_pmf(transits, [law["total"] for law in laws])
    return {
        "occupancy": occupancy,
        "conflict_resolution": conflict_interventions_pmf(occupancy),
        "deviation_control": control,
        "total": crossing_pmf(occupancy, control),
    }
