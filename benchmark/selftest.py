"""Self-tests of the benchmark itself.

    python3 benchmark/selftest.py

Run from the root of a source checkout; takes about a minute.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracing import WRAPPED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(*args) -> dict:
    proc = bench(*args)
    check(proc.returncode == 0, f"run.py {' '.join(args)} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        out = result("--workload", "stability-sweep", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
        names = [m["name"] for m in spec[kind]]
        check(list(out["metrics"]) == names, f"--trace {trace} prints the {kind} names")
        units = {m["name"]: m["unit"] for m in spec[kind]}
        check(all(v["unit"] == units[n] for n, v in out["metrics"].items()),
              f"--trace {trace} prints the {kind} units")
    wrapped = {f"{m}.{f}" for m, f in WRAPPED}
    check(all(".".join(m["name"].split(".")[:2]) in wrapped for m in spec["per_layer"]),
          "every per-layer metric belongs to a wrapped function")


def test_counters_repeat():
    runs = [result("--workload", "stability-sweep", "--seed", "11", "--seconds", "1",
                   "--trace", "1") for _ in range(2)]
    counts = [{n: v["value"] for n, v in r["metrics"].items() if v["unit"] == "count"}
              for r in runs]
    check(counts[0] == counts[1] and counts[0]["odesolve.integrate.steps"] > 0,
          "two traced runs with one seed give identical counters")


def test_counts_repeat():
    runs = [result("--workload", "stability-sweep", "--seed", "5", "--seconds", s,
                   "--trace", "0") for s in ("1", "6")]
    counts = [(r["attempted"], r["failed"]) for r in runs]
    check(counts[0] == counts[1],
          "runs with one seed and different lengths give identical attempted and failed"
          f" counts {counts}")


def test_self_times_sum_to_root():
    tr = Tracer()
    root = tr.begin("root")
    for _ in range(3):
        a = tr.begin("a")
        time.sleep(0.002)
        b = tr.begin("b")
        time.sleep(0.001)
        tr.end(b)
        tr.end(a)
    tr.end(root)
    total = sum(tr.self_times().values())
    check(abs(total - (root[4] - root[3])) < 1e-9, "synthetic span tree: self times sum to root")
    rec = json.loads((HERE / "results" / "stability-sweep-seed11-trace1.json").read_text())
    check(abs(rec["self_sum_s"] - rec["root_s"]) < 1e-6 * rec["root_s"],
          "traced run: self times sum to the root span")


def test_refuses_without_source():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in HERE.glob("*.py"):
        shutil.copy(p, bare / "benchmark")
    proc = bench("--workload", "stability-sweep", "--seed", "1", "--seconds", "1",
                 cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the fluidsym source the benchmark exits nonzero and prints no result")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
