"""Every name the benchmark tracer patches is still called.

``perfbench/tracing.py`` wraps names at the module boundaries of
``taskload``. A refactor that stops calling one of them breaks nothing:
the per-layer metric built from that span just reads 0 on every run.
This test wraps each (owner, attribute) binding of
``tracing.boundary_targets()`` under its own name, runs ``analytic`` and
``simulate`` on one small config per scenario kind, and requires every
binding to fire except the pinned set below, which no command calls.
"""

import json

from taskload import cli

from test_trace_contract import load_tracing

#: Bindings the tracer patches that no command calls. The check is a
#: superset one, so retargeting the tracer may shrink this set.
NEVER_CALLED = {"pipeline.fpt_density_oracle", "pipeline.intervention_count_mc",
                "hitting.first_passage_mc", "flow.single_lane_pmf",
                "flow.conflict_pmf", "flow.convolve_pmf",
                "RandomSource.substream"}

CONFIGS = {
    "single_lane": [10.0],
    "multilane": [10.0, 5.0],
    "crossing": [5.0, 5.0],
}


def binding(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def test_every_traced_binding_fires(tmp_path):
    tracing = load_tracing()
    targets = [(owner, attr, binding(owner, attr), None)
               for owner, attr, _, _ in tracing.boundary_targets()]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        for kind, intensities in CONFIGS.items():
            cfg = tmp_path / f"{kind}.json"
            cfg.write_text(json.dumps({
                "flows": [{"intensity_per_hour": lam} for lam in intensities],
                "mc": {"kind": kind, "horizon_min": 30.0, "seed": 3}}))
            for argv in (["analytic"], ["simulate", "--runs", "5"]):
                out = tmp_path / f"{kind}_{argv[0]}"
                assert cli.main(argv + ["--config", str(cfg),
                                        "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    fired = {span[tracing.NAME] for span in tracer.spans}
    expected = {name for _, _, name, _ in targets} - NEVER_CALLED
    assert sorted(expected - fired) == []
