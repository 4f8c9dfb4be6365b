"""fluidsym benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fluidsym is imported from its
``src`` directory.  Each workload runs in processes of its own, one at a
time (closed loop, one caller, no threads).  The seed is the benchmark's
argument; the program sees only the inputs drawn from it.

--trace 0 prints the end-to-end metrics: set-up time (the median of
SETUP_SAMPLES fresh processes, each timed from spawn through ``import
fluidsym`` and the workload's preparation), run time (the mean round) and
peak RSS, which BENCHMARK.json gates, and the per-task median and tail and
the failed fraction, which it does not.  --trace 1 makes one traced round and
prints the per-layer metrics.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with an
environment block goes to benchmark/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("symmetry-solve", "reduction-check", "stability-sweep")
SETUP_SAMPLES = 3
# Workers keep BLAS to one thread.  fluidsym's only BLAS use is a 5 x 5
# matrix exponential, but numpy's import starts a BLAS thread pool, whose
# start-up was half of the import on a 2-vCPU host and made set-up time
# swing with the load on the other vCPU.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}
DEADLINE_S = 170.0
TAIL_BEYOND = 10
E2E_UNITS = {"setup_s": "s", "run_s": "s", "task_p50_s": "s", "task_tail_s": "s",
             "peak_rss_mb": "MB"}


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_state() -> dict:
    """Load average and steal ticks, read before and after each run."""
    cpu = _read("/proc/stat").split("\n", 1)[0].split()
    return {"loadavg": _read("/proc/loadavg").split()[:3],
            "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None}


def environment() -> dict:
    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), "unknown")
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "fluidsym").glob("*.py")))
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "src_lines": src_lines,
        "commit": commit(),
        "machine": "nothing on the machine was dropped, pinned or tuned; "
                   "only this benchmark's own processes were measured",
    }


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    text = _read(str(head)).strip()
    if not text:
        return "unknown (not a git checkout)"
    if text.startswith("ref: "):
        ref = text[5:]
        sha = _read(str(ROOT / ".git" / ref)).strip()
        if not sha:
            for ln in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if ln.endswith(" " + ref):
                    sha = ln.split()[0]
        return sha or f"unknown ({ref})"
    return text


def spawn(args, phase: str, deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase]
    if spans:
        cmd += ["--spans", str(spans)]
    t_spawn = time.time()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], capture_output=True,
                          text=True, env=dict(os.environ, **WORKER_ENV),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def task_stats(times: list, rounds: int) -> tuple:
    """(p50, tail, tail percentile) over the tasks of the list.

    Every round repeats the same tasks, so a task's time is its mean over the
    rounds; the host's speed changes from second to second, and the mean
    spreads each task over the whole run.  The tail is the highest percentile
    with TAIL_BEYOND tasks beyond it (every workload has more than TAIL_BEYOND
    tasks).
    """
    n = len(times) // rounds
    per_task = sorted(statistics.fmean(times[r * n + i] for r in range(rounds))
                      for i in range(n))
    return (statistics.median(per_task), per_task[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fluidsym" / "__init__.py").is_file():
        return fail(f"no fluidsym source under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    before = machine_state()
    try:
        if args.trace:
            res = spawn(args, "run", deadline, spans=RESULTS / f"{stem}.spans.jsonl")
            setups = [res["setup_s"]]
        else:
            # set-up samples before and after the measuring worker, so that
            # they come from different stretches of the host's time
            before_n = (SETUP_SAMPLES - 1) // 2
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(before_n)]
            res = spawn(args, "run", deadline)
            setups.append(res["setup_s"])
            setups += [spawn(args, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1 - before_n)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        return fail(str(err))
    after = machine_state()

    failures = res["failures"]
    known = [f for f in failures if f[2]]
    attempted = res["attempted"]
    run_s = statistics.fmean(res["rounds"])
    p50_s, tail_s, tail_pct = task_stats(res["task_s"], len(res["rounds"]))
    e2e = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "task_p50_s": p50_s,
        "task_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(res['rounds'])} round(s) of {attempted} tasks")
    if args.trace:
        wanted = declared("per_layer")
        # a layer the workload never calls reads zero
        metrics = {n: res["per_layer"].get(n, 0 if u == "count" else 0.0)
                   for n, u in wanted.items()}
        for n, v in metrics.items():
            print(f"  {n} = {v:.6g} {wanted[n]}")
        prev = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
        if prev.is_file():
            untraced = json.loads(prev.read_text())["metrics"]["run_s"]["value"]
            print(f"  tracing overhead = {run_s - untraced:.6g} s "
                  f"(traced run_s {run_s:.6g} s - untraced run_s {untraced:.6g} s)")
        else:
            print("  tracing overhead: no untraced run of this workload and seed "
                  "in benchmark/results to compare with")
        print(f"  instrumentation cost = {res['spans'] * res['span_cost_s']:.6g} s "
              f"({res['spans']} spans at {res['span_cost_s'] * 1e6:.3g} us each)")
        print(f"  self times sum to {res['self_sum_s']:.6g} s"
              f" of a {res['root_s']:.6g} s root span")
    else:
        wanted = declared("end_to_end")
        metrics = {n: e2e[n] for n in wanted}
        for n, v in e2e.items():
            extra = (f" (p{tail_pct:.4g} of {attempted} tasks,"
                     f" each the mean of {len(res['rounds'])} rounds)"
                     if n == "task_tail_s" else "")
            gate = "" if n in wanted else " [printed, not gated]"
            print(f"  {n} = {v:.6g} {E2E_UNITS[n]}{extra}{gate}")
        print(f"  failed_frac = {len(failures) / attempted:.6g} "
              f"({len(failures)} of {attempted} tasks) [printed, not gated]")
    for name, detail, defect in failures[:20]:
        print(f"  FAILED {name}: {detail}" + (f" [known defect: {defect}]" if defect else ""))

    # correct: every check passed except those failing on a documented defect
    correct = len(known) == len(failures)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {n: {"value": v, "unit": wanted[n]}
                          for n, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failed_frac=len(failures) / attempted,
                  known_defect_failures=len(known),
                  task_tail_percentile=tail_pct, task_s=res["task_s"],
                  rounds=res["rounds"], setup_samples=setups,
                  failures=failures, environment=environment(),
                  machine_before=before, machine_after=after,
                  **{k: res[k] for k in ("spans", "span_cost_s", "self_sum_s", "root_s")
                     if k in res})
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
