"""One workload in one process: preparation, then the timed rounds.

Started by run.py, never by hand.  Prints one JSON object as its last line.
With ``--phase setup`` it stops after the preparation and reports only the
set-up time, which run.py samples several times.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, span_cost
from workloads import NON_IDEMPOTENT, WORKLOADS


def import_fluidsym(root: Path):
    """Import fluidsym from the checkout's src directory and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import fluidsym
    from fluidsym import cli, expr, fluid, liealg, odesolve, reduction, symmetry
    if Path(fluidsym.__file__).resolve().parent != (src / "fluidsym").resolve():
        raise SystemExit(f"fluidsym imported from {fluidsym.__file__}, not {src}")
    return argparse.Namespace(cli=cli, expr=expr, fluid=fluid, liealg=liealg,
                              odesolve=odesolve, reduction=reduction,
                              symmetry=symmetry)


def run_task(fn):
    try:
        return fn()
    except Exception as err:  # a raising task is a failed task, not a crash
        return False, f"{type(err).__name__}: {err}", None


def per_layer(tracer, round_tasks) -> dict:
    """Per-layer metrics of a traced round, before name checking."""
    out = dict(tracer.counters)
    for name, secs in tracer.self_by_name().items():
        out[f"{name}.self_s"] = secs
    steps = out.get("odesolve.integrate.steps", 0)
    busy = out.get("odesolve.integrate.self_s", 0.0)
    out["odesolve.integrate.steps_per_s"] = steps / busy if busy else 0.0
    out["liealg.normalize_element.non_idempotent"] = sum(
        1 for _n, _dt, _ok, _d, defect in round_tasks
        if defect == NON_IDEMPOTENT)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    fs = import_fluidsym(args.root)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        root_span = tracer.begin(f"benchmark.{args.workload}")
    rng = random.Random(f"{args.workload}:{args.seed}")
    tasks = WORKLOADS[args.workload](fs, rng)
    setup_s = time.time() - args.t_spawn
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # A traced run makes exactly one round, so its counters are per round and
    # repeat for a seed; an untraced run repeats rounds for --seconds.
    rounds = []
    records = []
    t_run = time.perf_counter()
    while not rounds or (not tracer and time.perf_counter() - t_run < args.seconds):
        round_tasks = []
        t_round = time.perf_counter()
        for index, (name, fn) in enumerate(tasks):
            if tracer:
                tracer.trace_id = index
                span = tracer.begin(f"task.{name}")
            t0 = time.perf_counter()
            ok, detail, defect = run_task(fn)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            round_tasks.append((name, dt, ok, detail, defect))
        rounds.append(time.perf_counter() - t_round)
        records.extend(round_tasks)

    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "task_s": [dt for _n, dt, _ok, _d, _df in records],
        # a task of the fixed list fails if any of its rounds fails, so the
        # counts depend on the seed only, not on how many rounds fit
        "failures": list({i % len(tasks): [n, d, df]
                          for i, (n, _dt, ok, d, df) in enumerate(records)
                          if not ok}.values()),
        "attempted": len(tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.trace_id = None
        tracer.end(root_span)
        tracer.uninstall()
        out["per_layer"] = per_layer(tracer, round_tasks)
        out["root_s"] = root_span[4] - root_span[3]
        out["self_sum_s"] = sum(tracer.self_times().values())
        out["spans"] = len(tracer.spans)
        out["span_cost_s"] = span_cost()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
