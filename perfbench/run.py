#!/usr/bin/env python3
"""Taskload benchmark: one workload, run for a fixed time in one process.

    python3 perfbench/run.py --workload lane_dense --seed 1 --seconds 50 --trace 0

Run from the repository root; ``--workload all`` runs every workload,
each in a fresh process of its own, and prints a summary of all their
metrics. For one workload the benchmark generates the config of each of
the workload's scenarios from ``--seed``, times several fresh
interpreters that import ``taskload.cli`` and load those configs
(``setup_s``), then repeats rounds until the next round would overrun
``--seconds``. A round runs, per scenario, ``taskload analytic`` then
``taskload simulate``, driven in-process through ``taskload.cli.main``.
Every round uses the same configs, so every round's tables must be
byte-identical; each command's tables are also
checked against the independent reference (see ``workloads.py``). A
command that exits non-zero, raises, or writes tables that fail a check
is a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
timings are medians over rounds, ``mc_runs_per_s`` is the Monte Carlo
runs of all untraced rounds over their total ``simulate`` time. With ``--trace 1`` rounds alternate untraced and
traced; the traced rounds wrap the module boundaries of ``taskload``
(see ``tracing.py``) and the line reports the per-layer metrics (medians
over traced rounds) plus the tracing overhead, the traced minus the
untraced median ``workload_s``. Spans are written to
``perfbench/_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
SETUP_CHILD = (
    "import sys\n"
    "import taskload.cli\n"
    "from taskload.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def measure_setup(cfg_paths: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    taskload.cli and loaded the configs, once per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, *cfg_paths],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def table_digests(out_dir: str, prefixes: tuple[str, ...]) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(prefixes):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Command:
    """One CLI command of a round, with its check and its reference
    digests from the first round."""

    def __init__(self, name: str, kind: str, cfg_path: str, out_dir: str,
                 prefixes, check):
        self.name = name
        self.kind = kind
        self.argv = [kind, "--config", cfg_path, "--out", out_dir]
        self.out_dir = out_dir
        self.prefixes = prefixes
        self.check = check
        self.first_digests = None

    def run(self, main, exp) -> tuple[float, list[str], float]:
        """(wall seconds, failures, worst |z|)."""
        out_dir = self.out_dir
        for name in os.listdir(out_dir):
            if name.startswith(self.prefixes):
                os.unlink(os.path.join(out_dir, name))
        # leave the checks' garbage out of the timed command
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = main(self.argv)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - t0
            return elapsed, [f"raised:\n{traceback.format_exc()}"], 0.0
        elapsed = time.perf_counter() - t0
        if rc != 0:
            return elapsed, [f"exit code {rc}"], 0.0
        try:
            chk = self.check(out_dir, exp)
        except Exception:
            return elapsed, [f"check raised on the output:\n"
                             f"{traceback.format_exc()}"], 0.0
        failures = list(chk.failures)
        digests = table_digests(out_dir, self.prefixes)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            failures.append("tables differ from the first round's "
                            "(same config and seed)")
        return elapsed, failures, chk.worst_z


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "taskload", "cli.py")):
        log(f"no taskload sources under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, HERE)
    import tracing
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, tracing, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh process of its own, then one summary."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"{name} exited with code {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def run(args, tracing, workloads, work: str) -> int:
    tracer = tracing.Tracer()
    cfg_paths = []
    commands = []   # (Command, Expected, scored observations per aircraft)
    n_runs = 0      # Monte Carlo runs per round
    for scenario in workloads.WORKLOADS[args.workload]:
        cfg = workloads.make_config(scenario, args.seed)
        cfg_path = os.path.join(work, f"{scenario}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        cfg_paths.append(cfg_path)
        out_dir = os.path.join(work, scenario)
        os.makedirs(out_dir)
        exp = workloads.Expected(cfg)
        check_analytic, check_mc = workloads.CHECKS[scenario]
        residency = exp.t_safe if exp.t_safe is not None \
            else cfg["flows"][0]["t_cross_min"]
        obs = exp.obs_per_aircraft(residency)
        commands += [
            (Command(f"{scenario} analytic", "analytic", cfg_path, out_dir,
                     ("analytic_", "density_"), check_analytic), exp, obs),
            (Command(f"{scenario} simulate", "simulate", cfg_path, out_dir,
                     ("mc_",), check_mc), exp, obs),
        ]
        n_runs += cfg["mc"]["n_runs"]

    setup = [] if args.trace else measure_setup(cfg_paths)

    sys.path.insert(0, SRC)
    from taskload import cli

    targets = tracing.boundary_targets() if args.trace else []
    traced_main = tracer.wrap("cli.main", cli.main)
    rounds = []         # (traced, analytic_s, simulate_s)
    layer_rounds = []   # per-layer metrics of each traced round
    attempted = failed = 0
    worst_z = 0.0
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install(targets)
            first_span = len(tracer.spans)
        roots = {}
        times = {"analytic": 0.0, "simulate": 0.0}
        each = []
        try:
            for cmd, exp, obs in commands:
                roots[len(tracer.spans)] = (cmd.kind, obs)
                elapsed, failures, z = cmd.run(
                    traced_main if traced else cli.main, exp)
                times[cmd.kind] += elapsed
                each.append(f"{cmd.name} {elapsed:.4f}")
                attempted += 1
                worst_z = max(worst_z, z)
                if failures:
                    failed += 1
                    log(f"round {len(rounds)} {cmd.name} FAILED: "
                        + "; ".join(failures))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(tracing.layer_metrics(
                tracer.spans[first_span:], roots, len(workloads.AXES)))
        rounds.append((traced, times["analytic"], times["simulate"]))
        log(f"round {len(rounds) - 1}{' traced' if traced else ''}: "
            f"analytic {times['analytic']:.4f} s, "
            f"simulate {times['simulate']:.4f} s ({', '.join(each)})")
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(a + s for _, a, s in rounds)
        min_rounds = 2 if args.trace else 1
        # whole rounds only; stop where the next one would end past the
        # deadline by more than half a round
        if len(rounds) >= min_rounds and elapsed + typical / 2 > args.seconds:
            break
    log(f"{len(rounds)} rounds in {time.perf_counter() - t_start:.1f} s, "
        f"worst |z| {worst_z:.2f}, {failed} of {attempted} operations failed")

    untraced = [(a, s) for t, a, s in rounds if not t]
    workload_s = statistics.median(a + s for a, s in untraced)
    if args.trace:
        metrics = {}
        for name in layer_rounds[0]:
            metrics[name] = statistics.median(m[name] for m in layer_rounds)
        traced_s = statistics.median(a + s for t, a, s in rounds if t)
        metrics["trace.overhead_s"] = traced_s - workload_s
        metrics["trace.overhead_share"] = (traced_s - workload_s) / workload_s
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "root", "name", "start",
                                  "end", "attrs"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "workload_s": workload_s,
            "analytic_s": statistics.median(a for a, _ in untraced),
            "mc_runs_per_s": n_runs * len(untraced) / sum(s for _, s in untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are measured or declared, not both")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
