"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that ``BENCHMARK.json`` keeps to
its schema and names the metrics ``run.py`` prints, then runs every workload
at a tiny size, untraced and traced, and checks the shape of the JSON object
on the last line of each run: its keys, its counts, and one numeric value
with the listed unit for each listed metric.  Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from worker import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402  (needs the path above)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def fail(msg):
    sys.exit(f"smoke check failed: {msg}")


def check_benchmark_json(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from worker.WORKLOADS")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
    for key, units, keys in (("end_to_end", END_TO_END, {"name", "unit", "better", "bound"}),
                             ("per_layer", PER_LAYER, {"name", "unit", "better"})):
        listed = {m["name"]: m for m in spec[key]}
        if list(listed) != list(units):
            fail(f"{key} names differ from what run.py prints: "
                 f"{sorted(set(listed) ^ set(units))}")
        for m in spec[key]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["unit"] != units[m["name"]] or m["better"] not in ("higher", "lower"):
                fail(f"{key} entry {m}")
            if key == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    if setup["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def check_run(workload, trace, units):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace={trace}: an output failed its check: {proc.stderr[-400:]}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1
            and type(result["failed"]) is int and 0 <= result["failed"] <= result["attempted"]):
        fail(f"{workload} trace={trace}: counts {result['attempted']}, {result['failed']}")
    if list(result["metrics"]) != list(units):
        fail(f"{workload} trace={trace}: metric names differ")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name] \
                or type(m["value"]) not in (int, float):
            fail(f"{workload} trace={trace}: metric {name} = {m}")
    print(f"ok {workload} trace={trace}: {result['attempted']} operations, "
          f"{result['failed']} failed")


def main():
    check_benchmark_json(json.loads(Path("BENCHMARK.json").read_text()))
    for workload in WORKLOADS:
        check_run(workload, 0, END_TO_END)
        check_run(workload, 1, PER_LAYER)


if __name__ == "__main__":
    main()
