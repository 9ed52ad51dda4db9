"""Controller-taskload analytics for stochastic 4-D flow corridors.

Quantifies the rate of corrective controller interventions needed to
keep aircraft inside RNP tolerance bounds: a Johnson S_U generator for
flight technical error, an exact mean-reverting deviation engine with
calibration, a deterministic discrete-monitoring kernel with renewal
counting, Poisson flow composition for lanes/multilanes/crossings, and
a reproducible Monte Carlo harness that cross-validates the analytic
layer.
"""

from .calibration import (CalibrationReport, DegenerateDataError, TimeSeries,
                          fit_least_squares, fit_mle, sample_moments)
from .config import (TOOL_VERSION as __version__, ConfigError, ConfigFile,
                     default_config, load_config)
from .distributions import (AXES, JOHNSON_FTE, JohnsonSuParams, MomentSet,
                            johnson_cdf, johnson_density, johnson_inverse,
                            johnson_moments, johnson_sample, johnson_transform)
from .flow import (TOLERANCE_STANDARDS, CrossingGeometry, FlowSpec,
                   ToleranceBounds, compound_poisson_pmf,
                   conflict_interventions_pmf, conflict_pmf, crossing_pmf,
                   min_corner_separation, multilane_pmf, poisson_occupancy,
                   single_lane_pmf, solve_safe_zone)
from .harness import (EmpiricalPmf, McEstimate, compare, compare_empirical,
                      run_crossing, run_multilane, run_single_lane)
from .hitting import (DensityGrid, convolve_density, first_hit_law,
                      fpt_density_oracle, intervention_pmf)
from .ou import (OU_FTE_CENTERED, OU_FTE_FIT, Barrier, FirstPassageResult,
                 OuParams, first_passage_mc, intervention_count_mc,
                 pmf_from_counts, transition_coeffs)
from .pipeline import (analytic_crossing, analytic_multilane,
                       analytic_single_lane, per_aircraft_pmf)
from .pmf import (TaskloadPmf, convolve_pmf, delta_pmf, tv_distance,
                  wilson_interval)
from .rng import RandomSource
