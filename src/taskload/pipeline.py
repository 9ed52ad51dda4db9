"""Analytic taskload pipeline: densities -> per-aircraft PMFs -> scenarios.

Glues the hitting-time oracle to the flow layer. The per-aircraft count
PMF on each axis comes from the simulated hitting density at the
surveillance cadence (hits are renewals: after an intervention the axis
restarts from the nominal trajectory), axes combine by convolution, and
the flow layer mixes aircraft into lane, multilane, and crossing PMFs.
"""

from __future__ import annotations

from dataclasses import replace

from .distributions import AXES
from .flow import (CrossingGeometry, FlowSpec, conflict_interventions_pmf,
                   conflict_pmf, crossing_pmf, multilane_pmf, single_lane_pmf,
                   solve_safe_zone)
from .hitting import DensityGrid, fpt_density_oracle, intervention_pmf
from .ou import Barrier, OuParams, intervention_count_mc
from .pmf import TaskloadPmf, convolve_pmf, delta_pmf
from .rng import RandomSource


def axis_hit_density(params: OuParams, bound: float, horizon: float,
                     obs_dt: float, n_paths: int,
                     src: RandomSource) -> DensityGrid:
    """Hitting density of the two-sided bound from the nominal start."""
    barrier = Barrier(kind="two_sided", level=bound, origin=0.0)
    return fpt_density_oracle(params, barrier, horizon, obs_dt, n_paths, src)


def per_aircraft_pmf(ou: dict[str, OuParams], flow: FlowSpec, horizon: float,
                     obs_dt: float, n_paths: int, src: RandomSource,
                     axes: tuple[str, ...] = AXES, n_max: int = 32,
                     densities_out: dict[str, DensityGrid] | None = None
                     ) -> dict[str, TaskloadPmf]:
    """Per-axis and combined intervention-count PMFs for one aircraft.

    Axis counts are independent, so the combined PMF is the convolution
    of the per-axis PMFs. Distinct axes draw from distinct substreams of
    src so the estimates are independent and reproducible. Pass a dict
    as densities_out to also collect the per-axis hitting densities.
    """
    out: dict[str, TaskloadPmf] = {}
    combined = delta_pmf(0, horizon)
    for i, axis in enumerate(axes):
        dens = axis_hit_density(ou[axis], flow.tolerance.for_axis(axis),
                                horizon, obs_dt, n_paths, src.substream(i))
        if densities_out is not None:
            densities_out[axis] = dens
        pmf = intervention_pmf(dens, horizon, n_max=n_max)
        out[axis] = pmf
        combined = convolve_pmf(combined, pmf).trimmed(1e-15)
    out["total"] = combined
    return out


def analytic_single_lane(flow: FlowSpec, ou: dict[str, OuParams],
                         horizon: float, obs_dt: float, n_paths: int,
                         src: RandomSource, axes: tuple[str, ...] = AXES,
                         densities_out: dict[str, DensityGrid] | None = None,
                         n_max: int = 32) -> dict[str, TaskloadPmf]:
    """Lane taskload PMFs keyed by axis plus 'total'."""
    per_ac = per_aircraft_pmf(ou, flow, horizon, obs_dt, n_paths, src, axes,
                              n_max=n_max, densities_out=densities_out)
    return {key: single_lane_pmf(flow, pmf)
            for key, pmf in per_ac.items()}


def analytic_multilane(flows: list[FlowSpec], ou: dict[str, OuParams],
                       horizon: float, obs_dt: float, n_paths: int,
                       src: RandomSource, axes: tuple[str, ...] = AXES,
                       n_max: int = 32) -> dict[str, TaskloadPmf]:
    """Cumulative lane-prefix taskload PMFs (total and lateral)."""
    out: dict[str, TaskloadPmf] = {}
    per_ac = [per_aircraft_pmf(ou, f, horizon, obs_dt, n_paths,
                               src.substream(i), axes, n_max=n_max)
              for i, f in enumerate(flows)]
    for prefix in range(1, len(flows) + 1):
        sub_flows = flows[:prefix]
        for key, name in (("total", "total"), ("lateral", "lateral")):
            pmfs = [pa[key] for pa in per_ac[:prefix]]
            if prefix == 1:
                out[f"lanes1_{name}"] = single_lane_pmf(sub_flows[0], pmfs[0])
            else:
                out[f"lanes{prefix}_{name}"] = multilane_pmf(sub_flows, pmfs)
    out["total"] = out[f"lanes{len(flows)}_total"]
    out["lateral"] = out[f"lanes{len(flows)}_lateral"]
    return out


def analytic_crossing(geometry: CrossingGeometry, flows: list[FlowSpec],
                      ou: dict[str, OuParams], horizon: float, obs_dt: float,
                      n_paths: int, src: RandomSource,
                      axes: tuple[str, ...] = AXES,
                      n_max: int = 32) -> dict[str, TaskloadPmf]:
    """Crossing taskload: conflict, deviation-control, and total PMFs.

    Deviation control uses the safe-zone transit as the per-aircraft
    residency; the conflict PMF is the zone-occupancy law shifted by one.
    """
    geom = geometry if geometry.solved else solve_safe_zone(geometry)
    lam1, lam2 = (f.intensity_per_hour for f in flows)
    occupancy = conflict_pmf(geom, lam1, lam2)
    transit_flow = replace(flows[0], t_cross_min=geom.t_safe_min)
    # a zone transit spans only a few observations; the renewal/density
    # route is ill-conditioned there, so count transit interventions
    # directly instead
    combined = delta_pmf(0, geom.t_safe_min)
    for i, axis in enumerate(axes):
        barrier = Barrier("two_sided",
                          transit_flow.tolerance.for_axis(axis))
        axis_pmf = intervention_count_mc(
            ou[axis], barrier, geom.t_safe_min, obs_dt, 0.0, n_paths,
            src.substream(i), n_max=n_max)
        combined = convolve_pmf(combined, axis_pmf).trimmed(1e-15)
    merged = replace(transit_flow,
                     intensity_per_hour=lam1 + lam2)
    control = single_lane_pmf(merged, combined)
    total = crossing_pmf(geom, [replace(f, t_cross_min=geom.t_safe_min)
                                for f in flows],
                         [combined, combined])
    return {
        "occupancy": occupancy,
        "conflict_resolution": conflict_interventions_pmf(occupancy),
        "deviation_control": control,
        "total": total,
    }
