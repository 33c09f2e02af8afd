"""One benchmark process: set up one workload, then measure it.

Started by ``run.py``, once per set-up run and once per measured run, so
that every workload runs in a process of its own and ``peak_rss_mb`` is that
workload's.  Prints one JSON object on its last line of standard output.

Load is a closed loop on one thread: the next operation starts when the
previous one returns.  Each operation has a deadline (one second, half a
second on ``oracle-check``) and the process an address-space ceiling; an
operation that takes longer, raises, or returns an output that fails its
check is a failed operation.  A wall-clock alarm at twice the deadline
aborts an operation that runs on.

Without ``--trace`` the loop runs pass after pass over the load inputs for
``--seconds`` of operation time, so every input runs about ten times.  The
latency percentiles are over the load inputs (at least 100 of them): an
input's time is the median of its runs, and an input that failed in any run
counts as the deadline.  ``ops_per_s`` is the number of inputs that passed
over the sum of their times.  After the passes, each probe (an input that
fails at the commit the benchmark was written at, see ``workloads.py``)
runs once and is checked like the load; probes are not in ``attempted`` or
``failed``, and not in the latencies, the output sizes or ``peak_rss_mb``.
``pass_share`` is the share of all inputs, load and probes, that never
failed, and ``decided_share`` counts the probes' oracle calls too.

All times are CPU time of this process (``time.process_time``), and the
end-to-end ones are scaled to a nominal machine speed (``Speed``).  On the
shared 2-vCPU virtual machine the benchmark was built on, wall time ran up
to 60% over CPU time (steal), and CPU time itself switched between two
speeds about a factor two apart, for stretches of a fraction of a second to
half a minute; unscaled figures of one workload varied by a quarter between
runs, scaled ones by under 5%.  A fixed pure-Python reference, independent
of the code under test, is timed every 0.1 s of operation time, and each
operation's time is multiplied by the reference's nominal time over the
median of its last five timings, to the power ``Speed.EXPONENT``.  The
unscaled figures go to standard error.
``setup_s`` is the CPU time from process start, interpreter start-up
included, to the first timed operation, scaled by the median of five
reference timings taken before the set-up and five after it.

With ``--trace`` the run alternates untraced and traced passes over the
whole input set for ``--seconds``; in a traced pass every call into a layer
is a span (name, start, end, parent span, operation id), spans stay in
memory and are written to ``.perfbench_out/`` when the run ends, and the
per-layer metrics are unscaled CPU seconds per pass.  The tracing overhead
is the mean traced pass time minus the mean untraced one.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

WORKLOADS = ("qel-euf", "mbp-arrays", "oracle-check", "deep-shared")
MEMORY_CEILING = 2 << 30     # bytes of address space per workload process
clock = time.process_time

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pass_share": "ratio",
    "out_literals": "count",
    "out_chars": "count",
    "vars_kept": "count",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}

LADDER_STAGES = ("op", "egraph.build", "qel.refine_defs", "extraction.to_formula",
                 "mbp.saturate", "mbp.tail")
GROWTH_STAGES = ("parser.parse", "egraph.build", "qel.find_defs", "qel.refine_defs",
                 "qel.find_core", "extraction.to_formula", "terms.print",
                 "mbp.call", "mbp.saturate", "mbp.tail")
LAYERS = ("parser", "egraph", "qel", "extraction", "terms", "mbp", "model",
          "oracle", "cli", "bench")
RULES = ("elim_wr_rd", "partial_eq", "elim_wr", "elim_eq", "ackermann",
         "adt_deconstruct_eq", "adt_split_diseq")
RUNGS = 7                    # five measured rungs and up to two traced-only ones


def per_layer_units():
    units = {
        "parser.parse_s": "s", "parser.model_parse_s": "s",
        "parser.chars_per_s": "1/s",
        "egraph.build_s": "s", "egraph.nodes": "count", "egraph.classes": "count",
        "qel.call_s": "s", "qel.find_defs_s": "s", "qel.refine_defs_s": "s",
        "qel.find_core_s": "s",
        "extraction.to_formula_s": "s",
        "terms.mk_formula_s": "s", "terms.print_s": "s",
        "mbp.call_s": "s", "mbp.tail_s": "s", "mbp.saturate_s": "s",
        "mbp.nodes_in": "count", "mbp.nodes_saturated": "count",
        "mbp.fires_total": "count",
    }
    units.update({f"mbp.fires.{r}": "count" for r in RULES})
    units.update({
        "model.satisfies_s": "s",
        "oracle.find_model_s": "s", "oracle.implies_s": "s", "oracle.equiv_s": "s",
        "oracle.refusals": "count", "oracle.skipped_interps": "count",
        "cli.main_s": "s",
    })
    units.update({f"self.{layer}_s": "s" for layer in LAYERS})
    units.update({"trace.untraced_pass_s": "s", "trace.traced_pass_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_share": "ratio"})
    units.update({f"{stage}_growth": "ratio" for stage in GROWTH_STAGES})
    for k in range(RUNGS):
        units.update({f"ladder.r{k}.{stage}_s": "s" for stage in LADDER_STAGES})
    return units


PER_LAYER = per_layer_units()


class Deadline(BaseException):
    """Raised in an operation that outlives its deadline.  A BaseException,
    so that no ``except Exception`` inside the library can swallow it."""


def _alarm(signum, frame):
    raise Deadline()


def timed(fn, item, deadline):
    """(failure kind or "", CPU seconds spent, output) of one operation."""
    # a CPU-time timer (ITIMER_PROF) would be the natural deadline, but while
    # one is armed this kernel reports process CPU time in whole 4 ms ticks
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, 2 * deadline)
        try:
            out = fn(item)
            dt = clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return "deadline", clock() - t0, None
    except (RecursionError, MemoryError) as e:
        return type(e).__name__, clock() - t0, None
    except Exception as e:  # any other crash of the code under test is a failure
        return f"{type(e).__name__}: {e}", clock() - t0, None
    if dt > deadline:
        return "deadline", dt, None
    return "", dt, out


# -- tracing ---------------------------------------------------------------------

class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "id")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.start = self.end = 0.0

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1].id if tr.stack else -1
        self.op = tr.op
        self.id = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        self.end = clock()
        self.tracer.stack.pop()
        return False

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.adds = defaultdict(Counter)   # op id -> counts recorded in it

    def span(self, name):
        return Span(self, name)

    def add(self, name, value):
        self.adds[self.op][name] += value

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "spans": rows}))


# -- the runs --------------------------------------------------------------------

class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def reference():
    """Fixed pure-Python work of the same kind as the library's (small
    objects, tuples as dictionary keys, sets, sorting, string joins) and
    independent of it, so that its time follows the speed of the machine."""
    gc.disable()
    try:
        table = {}
        nodes = []
        for i in range(1500):
            kids = tuple(nodes[j] for j in (i // 2, i // 3) if j < len(nodes))
            node = _Node((i % 97, len(kids)), kids)
            nodes.append(node)
            table.setdefault(node.key, set()).add(i)
        names = sorted(f"{k[0]}:{len(v)}" for k, v in table.items())
        return len(" ".join(names))
    finally:
        gc.enable()


class Speed:
    """The machine's current speed, from the reference timed every
    ``EVERY_S`` of operation time; ``scale(t)`` is CPU time ``t`` expressed at
    the nominal speed, at which the reference takes ``NOMINAL_S``."""

    EVERY_S = 0.1
    WINDOW = 5
    NOMINAL_S = 0.0035   # the reference's median on the 2-vCPU VM it was tuned on
    # the library's CPU time swings less than the reference's between the
    # machine's speeds: over 30 runs of 20 s of each workload on that VM it
    # went as the reference's to a power of 0.7 to 1.0; scaled by the full
    # ratio, mbp-arrays' runs spread up to twice as much as with 0.9
    EXPONENT = 0.9

    def __init__(self):
        self.times = []
        self.since = 0.0
        for _ in range(self.WINDOW):
            self.sample()

    def sample(self):
        self.times.append(time_reference())
        self.since = 0.0

    def tick(self, dt):
        """Count ``dt`` of operation time; sample when one is due."""
        self.since += dt
        if self.since >= self.EVERY_S:
            self.sample()

    def scale(self, t, before=()):
        """``t`` at the nominal speed; ``before`` are reference times taken
        before ``t`` began, to be counted with the latest ones."""
        ref = statistics.median([*before, *self.times[-self.WINDOW:]])
        return t * (self.NOMINAL_S / ref) ** self.EXPONENT


def time_reference():
    t0 = clock()
    reference()
    return clock() - t0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_checked(wl, item, notrace):
    """(failure kind or "", check error or "", CPU seconds, output) of one
    operation and, if it returned, its correctness gate."""
    fail, dt, out = timed(wl.run, item, wl.deadline_s)
    err = ""
    if not fail:
        try:
            err = wl.check(item, out, notrace)
        except Exception as e:  # a gate that crashes rejects the output
            err = f"check raised {type(e).__name__}: {e}"
    return fail, err, dt, out


def measure(wl, items, order, probes, seconds, speed, notrace):
    uses_oracle = getattr(wl, "uses_oracle", False)
    deadline = wl.deadline_s
    attempted = 0
    elapsed = 0.0
    times = defaultdict(list)   # item index -> scaled times of its passing runs
    raw = defaultdict(list)     # the same, unscaled
    failed_items = set()
    failures = Counter()
    errors = []
    first = {}         # item index -> text of its first output
    sizes = {}         # item index -> (literals, chars, vars) of that output
    calls = Counter()  # oracle outcomes
    digests = []
    npass = 0
    while npass == 0 or elapsed < seconds:
        digest = hashlib.sha256()
        clean = True   # no operation of this pass failed
        for i in order:
            item = items[i]
            if i in first:
                fail, dt, out = timed(wl.run, item, deadline)
                err = ""
                if not fail and out.text + "\n" + out.note != first[i]:
                    err = "output differs from the first output of this input"
            else:
                fail, err, dt, out = run_checked(wl, item, notrace)
                if not fail and not err:
                    first[i] = out.text + "\n" + out.note
                    sizes[i] = out.sizes()
            elapsed += dt
            attempted += 1
            if not fail:
                if err:
                    errors.append(f"{item.kind}/{item.size}: {err}")
                    fail = "wrong output"
                calls.update(out.oracle)
                digest.update((out.text + "\n" + out.note).encode())
            elif uses_oracle:
                calls["aborted"] += 1
            if fail:
                failures[f"{item.kind}/{item.size}: {fail}"] += 1
                failed_items.add(i)
                clean = False
            else:
                times[i].append(speed.scale(dt))
                raw[i].append(dt)
            speed.tick(dt)
            if npass > 0 and elapsed >= seconds:
                break
        else:
            if clean:
                digests.append(digest.hexdigest())
        npass += 1

    def figures(per_item):
        t = {i: statistics.median(v) for i, v in per_item.items() if i not in failed_items}
        lat = [1000.0 * t.get(i, deadline) for i in order]
        return len(t) / sum(t.values()), percentile(lat, 50), percentile(lat, 90)

    ops, p50, p90 = figures(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_failures = {}
    for i in probes:
        item = items[i]
        fail, err, _, out = run_checked(wl, item, notrace)
        if fail:
            probe_failures[f"{item.kind}/{item.size}"] = fail
            if uses_oracle:
                calls["aborted"] += 1
            continue
        calls.update(out.oracle)
        if err:
            errors.append(f"probe {item.kind}/{item.size}: {err}")
            probe_failures[f"{item.kind}/{item.size}"] = "wrong output"
    ncalls = sum(calls.values())
    metrics = {
        "ops_per_s": ops,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "pass_share": (len(order) + len(probes) - len(failed_items) - len(probe_failures))
        / (len(order) + len(probes)),
        "out_literals": sum(s[0] for s in sizes.values()),
        "out_chars": sum(s[1] for s in sizes.values()),
        "vars_kept": sum(s[2] for s in sizes.values()),
        # a workload that makes no oracle call leaves none undecided
        "decided_share": calls["decided"] / ncalls if ncalls else 1.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": not errors and len(set(digests)) <= 1,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
        "unscaled": dict(zip(("ops_per_s", "latency_p50_ms", "latency_p90_ms"),
                             figures(raw))),
        "failures": dict(failures),
        "probe_failures": probe_failures,
        "errors": errors[:20],
        "digest": digests[0] if digests else "",
    }


def traced(wl, items, order, seconds, spans_path):
    # untraced and traced passes alternate, so that both sample the same
    # stretch of machine speed and their difference is the tracing overhead
    untraced = []
    tr = Tracer()
    errors = []
    failures = Counter()
    outcomes = Counter()
    op_item = {}
    failed_ops = set()
    pass_walls = []
    while not pass_walls or sum(pass_walls) + sum(untraced) < seconds:
        untraced.append(sum(timed(wl.run, items[i], wl.deadline_s)[1] for i in order))
        wall = 0.0
        for i in order:
            item = items[i]
            tr.op = len(op_item)
            op_item[tr.op] = i
            root = tr.span("op")
            with root:
                fail, dt, out = timed(lambda it: wl.run_traced(it, tr), item,
                                      wl.deadline_s)
            wall += dt
            if fail:
                failures[f"{item.kind}/{item.size}: {fail}"] += 1
                failed_ops.add(tr.op)
                continue
            outcomes.update(out.oracle)
            tr.add("oracle.skipped_interps", out.skipped)
            with tr.span("check"):
                try:
                    err = wl.check(item, out, tr)
                except Exception as e:  # a gate that crashes rejects the output
                    err = f"check raised {type(e).__name__}: {e}"
            if err:
                errors.append(f"{item.kind}/{item.size}: {err}")
        pass_walls.append(wall)
    tr.dump(spans_path)
    print(f"traced {len(op_item)} operations in {len(pass_walls)} passes, "
          f"{len(tr.spans)} spans, written to {spans_path}", file=sys.stderr)
    ladder_ops = {op: i for op, i in op_item.items() if op not in failed_ops}
    return layer_metrics(tr, items, ladder_ops, pass_walls, statistics.mean(untraced),
                         outcomes), \
        len(op_item), errors, failures


def layer_metrics(tr, items, ladder_ops, pass_walls, untraced, outcomes):
    """Per-layer metrics per pass; ``ladder_ops`` maps the operations that
    passed to their items, for the stage times per ladder rung."""
    npass = len(pass_walls)
    dur = Counter()
    self_time = Counter()
    child = Counter()
    per_op = defaultdict(Counter)
    for s in tr.spans:
        d = s.dur
        dur[s.name] += d
        per_op[s.op][s.name] += d
        if s.parent >= 0:
            child[s.parent] += d
    for s in tr.spans:
        layer = s.name.split(".")[0]
        layer = "bench" if layer in ("op", "check") else layer
        self_time[layer] += s.dur - child[s.id]
    counts = Counter()
    for op, adds in tr.adds.items():
        counts.update(adds)
        per_op[op]["mbp.saturate"] += adds.get("mbp.saturate_s", 0.0)
    m = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith("_s") and name[:-2] in dur:
            m[name] = dur[name[:-2]] / npass
        elif name in counts:
            m[name] = counts[name] / npass
    if dur["parser.parse"]:
        m["parser.chars_per_s"] = counts["parser.chars"] / dur["parser.parse"]
    m["oracle.refusals"] = outcomes["refused"] / npass
    for layer in LAYERS:
        m[f"self.{layer}_s"] = self_time[layer] / npass
    traced_pass = sum(pass_walls) / npass
    m.update({"trace.untraced_pass_s": untraced, "trace.traced_pass_s": traced_pass,
              "trace.overhead_s": traced_pass - untraced,
              "trace.overhead_share": (traced_pass - untraced) / untraced})
    # growth per doubling: stage time per operation at each ladder rung
    rung_ops = defaultdict(list)
    for op, i in ladder_ops.items():
        if items[i].rung >= 0:
            rung_ops[items[i].rung].append(op)
    mean = {}
    for k, ops in rung_ops.items():
        for stage in set(LADDER_STAGES) | set(GROWTH_STAGES):
            mean[k, stage] = sum(per_op[op][stage] for op in ops) / len(ops)
        for stage in LADDER_STAGES:
            m[f"ladder.r{k}.{stage}_s"] = mean[k, stage]
    if len(rung_ops) >= 2:
        # from the top rung and the rung nearest half its size
        size = {k: items[ladder_ops[ops[0]]].size for k, ops in rung_ops.items()}
        hi = max(rung_ops)
        lo = min((k for k in rung_ops if k != hi),
                 key=lambda k: abs(math.log2(2 * size[k] / size[hi])))
        doublings = math.log2(size[hi] / size[lo])
        for stage in GROWTH_STAGES:
            if mean[lo, stage] > 0:
                m[f"{stage}_growth"] = (mean[hi, stage] / mean[lo, stage]) ** (1 / doublings)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    # the machine's speed changes within tens of milliseconds, so set-up is
    # scaled by reference times from both its ends; these first ones are not
    # part of it
    before = [time_reference() for _ in range(Speed.WINDOW)]

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    ceiling = MEMORY_CEILING if hard == resource.RLIM_INFINITY else min(MEMORY_CEILING, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    signal.signal(signal.SIGALRM, _alarm)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import egraphqe
    if src not in Path(egraphqe.__file__).resolve().parents:
        sys.exit(f"egraphqe was imported from {egraphqe.__file__}, not from {src}")
    import workloads

    wl = workloads.make(args.workload, root)
    rng = random.Random(f"{args.workload}:{args.seed}")
    items = wl.items(rng, args.tiny, bool(args.trace))
    order = [i for i, it in enumerate(items) if not it.probe]
    probes = [i for i, it in enumerate(items) if it.probe]
    notrace = workloads.NO_TRACE
    fail, _, _ = timed(wl.run, items[order[0]], wl.deadline_s)
    if fail:
        sys.exit(f"warm-up operation failed: {fail}")
    gc.collect()
    gc.freeze()
    setup_s = clock() - sum(before)
    speed = Speed()
    if args.setup_only:
        print(json.dumps({"metrics": {"setup_s": speed.scale(setup_s, before)},
                          "unscaled": {"setup_s": setup_s}}))
        return
    if args.trace:
        spans_path = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.json"
        metrics, ops, errors, failures = traced(wl, items, order, args.seconds,
                                                spans_path)
        result = {"correct": not errors, "attempted": ops,
                  "failed": sum(failures.values()) + len(errors), "metrics": metrics,
                  "failures": dict(failures), "errors": errors[:20]}
    else:
        result = measure(wl, items, order, probes, args.seconds, speed, notrace)
        result["metrics"]["setup_s"] = speed.scale(setup_s, before)
        result["unscaled"]["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
