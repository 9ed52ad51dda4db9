"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` patches names at the module boundaries of
``taskload`` and reads the run count from the first argument of each
Monte Carlo runner. A rename, a moved function or a runner whose first
argument carries no run count breaks a traced benchmark run
(``perfbench/run.py --trace 1``); this test shows it in the test suite.
"""

import importlib.util
import json
from pathlib import Path

from taskload import OU_FTE_CENTERED, Barrier, RandomSource, cli, hitting
from taskload.config import MONOLANE_RUNS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_record_the_run_count(tmp_path):
    tracing = load_tracing()
    cfg = tmp_path / "lane.json"
    # no mc.n_runs: the run count is the reference one of a 10/h lane
    cfg.write_text(json.dumps({"flows": [{"intensity_per_hour": 10.0}],
                               "mc": {"kind": "single_lane", "seed": 4}}))
    targets = tracing.boundary_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert missing == []
    runner = cli.run_single_lane
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    roots = {}
    tracer.install(targets)
    try:
        for argv in (["analytic", "--out", str(tmp_path / "analytic")],
                     ["simulate", "--out", str(tmp_path / "simulate")]):
            # each aircraft of a 20-minute lane is scored 20 times
            roots[len(tracer.spans)] = (argv[0], 20)
            assert traced_main(argv + ["--config", str(cfg)]) == 0
    finally:
        tracer.uninstall()
    assert cli.run_single_lane is runner
    harness = [s for s in tracer.spans
               if s[tracing.NAME].startswith("harness.")]
    assert [s[tracing.NAME] for s in harness] == ["harness.run_single_lane"]
    runs = MONOLANE_RUNS[10.0]
    assert all(s[tracing.ATTRS]["runs"] == runs for s in harness)
    metrics = tracing.layer_metrics(tracer.spans, roots, 3)
    assert metrics["harness.runs"] == runs
    # every normal draw goes through RandomSource.standard_normal, which
    # the tracer wraps: the thinned axes gate each aircraft-axis with a
    # uniform, so only the paths of the few candidates draw normals, far
    # fewer than one per aircraft-axis
    assert 0 < metrics["rng.normal_draws"] < 3 * metrics["harness.aircraft"]


def test_first_passage_path_steps_bind():
    # the tracer binds first_passage_mc's arguments by name to count its
    # path-steps, n_paths x floor(horizon / dt), on either route
    tracing = load_tracing()
    targets = [t for t in tracing.boundary_targets()
               if t[2] == "ou.first_passage_mc"]
    tracer = tracing.Tracer()
    tracer.install(targets)
    p = OU_FTE_CENTERED["lateral"]
    try:
        # U_n about 0.03 (thinned), then a walk from an origin off 0
        hitting.first_passage_mc(p, Barrier("two_sided", 0.09), 30.0, 1.0,
                                 300, RandomSource(1))
        hitting.first_passage_mc(p, Barrier("two_sided", 0.06, origin=0.01),
                                 horizon=12.5, dt=0.5, n_paths=200,
                                 src=RandomSource(2))
    finally:
        tracer.uninstall()
    assert [s[tracing.ATTRS]["path_steps"] for s in tracer.spans] == [
        300 * 30, 200 * 25]
