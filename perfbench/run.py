"""Benchmark of egraphqe: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported from
its ``src/``.  Workloads: ``qel-euf``, ``mbp-arrays``, ``oracle-check`` and
``deep-shared`` (see ``workloads.py``).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run, whose
spans are written to ``.perfbench_out/``.  ``--seed`` makes the inputs, so
the same seed gives the same inputs.  Every output is checked; the
``correct`` field says whether all of them passed.

Each measurement happens in a child process (``worker.py``), so a workload's
memory is its own.  Times are the child's CPU time, scaled to a nominal
machine speed (see ``worker.py``).  Without tracing, ``setup_s`` is the
median over ``SETUP_RUNS`` extra child processes and the measured one of
the time from starting the process to its first timed operation.

``perfbench/smoke.py`` runs every workload at a tiny size and checks the
shape of the output against ``BENCHMARK.json``.
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

SETUP_RUNS = 10
RUN_LIMIT_S = 170            # the whole invocation must end within 180 s

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from worker import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402  (needs the path above)


def spawn(root, args, deadline):
    """Run worker.py with ``args``; its last stdout line, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"   # the same string-hash order in every process
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("benchmark process ran out of time")
    if proc.returncode != 0:
        sys.exit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke check")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd().resolve()
    if not (root / "src" / "egraphqe" / "__init__.py").is_file():
        sys.exit(f"no egraphqe sources under {root / 'src'}; run from a checkout root")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])

    if args.trace:
        res = spawn(root, common + ["--trace", "1"], deadline)
        units = PER_LAYER
    else:
        setups = [spawn(root, common + ["--setup-only"], deadline)
                  for _ in range(0 if args.tiny else SETUP_RUNS)]
        res = spawn(root, common, deadline)
        for key in ("metrics", "unscaled"):
            res[key]["setup_s"] = statistics.median(
                [p[key]["setup_s"] for p in setups + [res]])
        print("unscaled CPU figures: " + ", ".join(
            f"{k} {v:.6g}" for k, v in res["unscaled"].items()), file=sys.stderr)
        units = END_TO_END
    for what, times in res["failures"].items():
        print(f"failed {times}x: {what}", file=sys.stderr)
    for what, why in res.get("probe_failures", {}).items():
        print(f"probe failed (counted in pass_share): {what}: {why}", file=sys.stderr)
    for line in res["errors"]:
        print(f"wrong output: {line}", file=sys.stderr)
    if res.get("digest"):
        print(f"digest {args.workload} seed {args.seed}: {res['digest']}", file=sys.stderr)
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
