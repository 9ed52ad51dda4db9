"""Spans at the module boundaries of ``taskload``, recorded from outside.

The tracer wraps the public functions each module calls in another
module. A name bound by ``from .x import y`` is patched where the
importing module binds it, so every cross-module call goes through a
wrapper while the program's own files stay untouched. Each span records
its name, start, end, parent and the root span (one command) it belongs
to, plus counts taken at the same boundary. Spans stay in memory until
the benchmark writes them out at the end of the run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

import numpy as np

# span record fields
ID, PARENT, ROOT, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn recording one span per call; attrs(args, kwargs, result)
        returns the counts recorded on the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[ID] if parent else -1,
                    parent[ROOT] if parent else len(spans), name, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        for owner, attr, name, attrs in targets:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, attrs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def boundary_targets() -> list[tuple]:
    """(owner, attribute, span name, attrs) for every wrapped boundary."""
    from taskload import cli, flow, harness, hitting, ou, pipeline
    from taskload.rng import RandomSource

    def path_steps(fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, result):
            a = sig.bind(*args, **kwargs).arguments
            return {"path_steps": a["n_paths"]
                    * math.floor(a["horizon"] / a["dt"] + 1e-9)}
        return attrs

    def harness_counts(args, kwargs, result):
        return {"runs": args[0].n_runs, "aircraft": result.n_aircraft}

    def normal_draws(args, kwargs, result):
        size = args[1] if len(args) > 1 else kwargs.get("size")
        return {"draws": 1 if size is None else int(np.prod(size))}

    def payload_bytes(args, kwargs, result):
        return {"bytes": len(args[1].encode("utf-8"))}

    return [
        (cli, "_atomic_write", "cli.write", payload_bytes),
        (cli, "load_config", "config.load_config", None),
        (cli, "analytic_single_lane", "pipeline.analytic_single_lane", None),
        (cli, "analytic_multilane", "pipeline.analytic_multilane", None),
        (cli, "analytic_crossing", "pipeline.analytic_crossing", None),
        (cli, "run_single_lane", "harness.run_single_lane", harness_counts),
        (cli, "run_multilane", "harness.run_multilane", harness_counts),
        (cli, "run_crossing", "harness.run_crossing", harness_counts),
        (pipeline, "per_aircraft_pmf", "pipeline.per_aircraft_pmf", None),
        (pipeline, "fpt_density_oracle", "hitting.fpt_density_oracle", None),
        (pipeline, "intervention_pmf", "hitting.intervention_pmf", None),
        (pipeline, "intervention_count_mc", "ou.intervention_count_mc",
         path_steps(ou.intervention_count_mc)),
        (pipeline, "single_lane_pmf", "flow.single_lane_pmf", None),
        (pipeline, "multilane_pmf", "flow.multilane_pmf", None),
        (pipeline, "crossing_pmf", "flow.crossing_pmf", None),
        (pipeline, "conflict_pmf", "flow.conflict_pmf", None),
        (pipeline, "solve_safe_zone", "flow.solve_safe_zone", None),
        (pipeline, "convolve_pmf", "pmf.convolve_pmf", None),
        (hitting, "first_passage_mc", "ou.first_passage_mc",
         path_steps(ou.first_passage_mc)),
        (hitting, "convolve_density", "hitting.convolve_density", None),
        (flow, "single_lane_pmf", "flow.single_lane_pmf", None),
        (flow, "conflict_pmf", "flow.conflict_pmf", None),
        (flow, "convolve_pmf", "pmf.convolve_pmf", None),
        (harness, "solve_safe_zone", "flow.solve_safe_zone", None),
        (RandomSource, "standard_normal", "rng.standard_normal",
         normal_draws),
        (RandomSource, "substream", "rng.substream", None),
    ]


# --- per-layer metrics ---------------------------------------------------

def _attr_sum(spans, key: str) -> float:
    return float(sum(s[ATTRS][key] for s in spans if s[ATTRS]))


def layer_metrics(spans: list[list], roots: dict[int, tuple[str, int]],
                  n_axes: int) -> dict:
    """Per-layer metrics of one traced round.

    roots maps each root span id to its command ("analytic" or
    "simulate") and the observations each aircraft of its scenario is
    scored at; rng.* counts only the calls made by ``simulate``.
    """
    covered = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def total(name):
        return sum(s[END] - s[START] for s in by_name[name])

    def self_time(names):
        return sum(s[END] - s[START] - covered[s[ID]]
                   for n in names for s in by_name[n])

    def simulate(name):
        return [s for s in by_name[name] if roots[s[ROOT]][0] == "simulate"]

    harness = [n for n in by_name if n.startswith("harness.")]
    harness_spans = [s for n in harness for s in by_name[n]]
    fp_s = total("ou.first_passage_mc")
    fp_steps = _attr_sum(by_name["ou.first_passage_mc"], "path_steps")
    aircraft = _attr_sum(harness_spans, "aircraft")
    aircraft_obs = n_axes * float(sum(s[ATTRS]["aircraft"] * roots[s[ROOT]][1]
                                      for s in harness_spans if s[ATTRS]))
    normals = simulate("rng.standard_normal")
    draws = _attr_sum(normals, "draws")
    substreams = simulate("rng.substream")
    return {
        "ou.first_passage_mc_s": fp_s,
        "ou.first_passage_path_steps": fp_steps,
        "ou.first_passage_steps_per_s": fp_steps / fp_s if fp_s else 0.0,
        "pipeline.per_aircraft_pmf_calls": len(by_name["pipeline.per_aircraft_pmf"]),
        "pipeline.per_aircraft_pmf_s": total("pipeline.per_aircraft_pmf"),
        "hitting.fpt_density_oracle_self_s":
            self_time(["hitting.fpt_density_oracle"]),
        "hitting.intervention_pmf_s": total("hitting.intervention_pmf"),
        "hitting.density_convolutions": len(by_name["hitting.convolve_density"]),
        "flow.lane_mixture_s": total("flow.single_lane_pmf"),
        "pmf.convolve_pmf_calls": len(by_name["pmf.convolve_pmf"]),
        "pmf.convolve_pmf_s": total("pmf.convolve_pmf"),
        "ou.intervention_count_mc_s": total("ou.intervention_count_mc"),
        "ou.intervention_count_path_steps":
            _attr_sum(by_name["ou.intervention_count_mc"], "path_steps"),
        "flow.solve_safe_zone_s": total("flow.solve_safe_zone"),
        "harness.self_s": self_time(harness),
        "harness.runs": _attr_sum(harness_spans, "runs"),
        "harness.aircraft": aircraft,
        "harness.aircraft_obs": aircraft_obs,
        "harness.draws_per_obs": draws / aircraft_obs if aircraft_obs else 0.0,
        "rng.normal_draws": draws,
        "rng.normal_s": sum(s[END] - s[START] for s in normals),
        "rng.substream_calls": len(substreams),
        "rng.substream_s": sum(s[END] - s[START] for s in substreams),
        "cli.self_s": self_time(["cli.main", "cli.write"]),
        "cli.bytes_written": _attr_sum(by_name["cli.write"], "bytes"),
        "config.load_config_s": total("config.load_config"),
    }
