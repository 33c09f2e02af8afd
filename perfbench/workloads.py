"""Seeded inputs and timed operations of the four benchmark workloads.

Every workload is a class with the same four methods:

* ``items(rng, tiny, traced)`` builds the fixed input set of one run from
  the seed.  The load items repeat, pass after pass, for as long as the
  run lasts.  Items marked ``probe`` are inputs that fail at the commit the
  benchmark was written at (see below); they run once, after the measured
  passes.  A traced run adds
  larger rungs to the size ladders, for the growth per doubling.
* ``run(item)`` is the timed operation, made only of calls into the public
  functions of ``egraphqe``, the way a caller would make them.
* ``run_traced(item, tr)`` does the same work one layer call at a time, each
  wrapped in a span of ``tr``; where a layer's time is hidden inside another
  call (the saturation in ``mbp``), the layer calls around it are made again
  so that the difference can be taken.
* ``check(item, out, tr)`` is the untimed correctness gate.  It judges the output
  against references that are not the code under test: the finite-model
  oracle where the instance is within its reach (``oracle-check``), and
  otherwise the model planted by the generator and the syntactic contract of
  the operation.

Each workload has at least 100 load inputs, sized so that each of them
runs about ten times in a run of 20 seconds and stays well inside the
workload's deadline, and none of which fails.  The inputs that fail at the
commit the benchmark was written at (chains of depth 1000 and more, three
slow ``--check`` demos) are probes: they stay in the set and run in every
run, but outside the load, so that ``attempted`` and ``failed`` count the
load only; each probe that fails lowers ``pass_share`` and is named on
standard error, and one that starts to pass raises it.
"""
from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import egraphqe as eq
import egraphqe.cli
from egraphqe.extraction import to_formula
from egraphqe.qel import find_core, find_defs, refine_defs
from egraphqe.sexpr import read_all
from egraphqe.terms import mk_formula

@dataclass
class Item:
    kind: str                 # generator shape, e.g. "euf", "chain", "demo"
    size: int                 # ladder size: nodes, reads or depth
    text: str = ""            # problem in the SMT-LIB subset
    model: str = ""           # planted model in the model-file format
    project: tuple = ()       # variables mbp must eliminate
    args: tuple = ()          # command line, for demos run through the CLI
    rung: int = -1            # ladder rung, -1 when not on a ladder
    probe: bool = False       # fails today; run once per run, outside the load


@dataclass
class Out:
    text: str                 # the printed result formula
    prob: object = None
    formula: object = None
    model: object = None      # model the output must satisfy, if any
    oracle: list = field(default_factory=list)  # "decided" / "refused"
    skipped: int = 0          # interpretations the oracle skipped
    error: str = ""           # a contract violation found inside the op
    note: str = ""            # further output that must repeat byte for byte

    def sizes(self):
        """(literals, printed characters, variables kept) of the result."""
        if self.formula is not None:
            return (len(self.formula.literals), len(self.text),
                    len(self.formula.free_vars))
        kept = next((line.split(":", 1)[1].strip() for line in self.note.splitlines()
                     if line.startswith("remaining:")), "(none)")
        nvars = 0 if kept == "(none)" else len(kept.split(", "))
        return literal_count(self.text), len(self.text), nvars


# -- shared helpers -------------------------------------------------------------

def elem(sort, k):
    return f"(elem {sort} {k})"


def table_text(name, sort, table, default=0):
    """``define-fun-values`` line for a planted function table."""
    rows = " ".join(f"(({' '.join(elem(sort, a) for a in args)}) {elem(sort, v)})"
                    for args, v in sorted(table.items()))
    return f"(define-fun-values {name} (default {elem(sort, default)}) {rows})"


def literal_count(text):
    """Number of conjuncts in a printed result: ``true``, one literal, or
    ``(and ...)``."""
    form = read_all(text)[0]
    if not isinstance(form, list):
        return 0 if str(form) == "true" else 1
    return len(form) - 1 if str(form[0]) == "and" else 1


def traced_qel(tr, prob):
    """The stages of ``qel`` called one by one, each in a span."""
    sig, store, formula = prob.sig, prob.store, prob.formula
    var_names = formula.free_vars
    with tr.span("egraph.build"):
        g = eq.EGraph.from_formula(sig, store, formula)
    tr.add("egraph.nodes", len(g.nodes))
    tr.add("egraph.classes", g.num_classes())
    with tr.span("qel.find_defs"):
        r = find_defs(g)
    with tr.span("qel.refine_defs"):
        r = refine_defs(g, r, var_names)
    with tr.span("qel.find_core"):
        core = find_core(g, r, var_names)
    with tr.span("extraction.to_formula"):
        out = to_formula(g, r, set(g.node_ids()) - core)
    with tr.span("terms.mk_formula"):
        mk_formula(store, out.literals)
    return out


def traced_mbp(tr, prob, project, model):
    """``mbp`` in one span, with the egraph build before it and the reduction
    tail after it made again on their own, so that saturation time is the
    call minus both."""
    sig, store, formula = prob.sig, prob.store, prob.formula
    t_build = tr.span("egraph.build")
    with t_build:
        g_in = eq.EGraph.from_formula(sig, store, formula)
    tr.add("mbp.nodes_in", len(g_in.nodes))
    t_call = tr.span("mbp.call")
    with t_call:
        res = eq.mbp(sig, store, formula, project, model)
    g = res.graph
    tr.add("mbp.nodes_saturated", len(g.nodes))
    for rule, fires in res.rule_fires.items():
        tr.add(f"mbp.fires.{rule}", fires)
    tr.add("mbp.fires_total", sum(res.rule_fires.values()))
    t_tail = tr.span("mbp.tail")
    with t_tail:
        all_vars = g.var_names()
        with tr.span("qel.find_defs"):
            r = find_defs(g)
        with tr.span("qel.refine_defs"):
            r = refine_defs(g, r, all_vars)
        with tr.span("qel.find_core"):
            core = find_core(g, r, all_vars)
        with tr.span("extraction.to_formula"):
            to_formula(g, r, set(g.node_ids()) - core)
    tr.add("mbp.saturate_s", max(0.0, t_call.dur - t_build.dur - t_tail.dur))
    with tr.span("terms.mk_formula"):
        mk_formula(store, res.formula.literals)
    return res


def vars_subset_error(out_formula, in_formula):
    extra = set(out_formula.free_vars) - set(in_formula.free_vars)
    return f"output has variables not in the input: {sorted(extra)}" if extra else ""


def euf_value(model, term, memo):
    """Value of an EUF term under a planted model, by an iterative post-order
    walk memoized on term ids, so that the gate handles terms of any depth."""
    stack = [term]
    while stack:
        t = stack[-1]
        if t.id in memo:
            stack.pop()
            continue
        todo = [c for c in t.children if c.id not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if t.children:
            default, table = model.functions[t.label]
            memo[t.id] = table.get(tuple(memo[c.id] for c in t.children), default)
        else:
            memo[t.id] = model.constants[t.label]
    return memo[term.id]


def euf_satisfies(model, formula):
    memo = {}
    for lit in formula.literals:
        same = euf_value(model, lit.lhs, memo) == euf_value(model, lit.rhs, memo)
        if same != (lit.kind != "diseq"):
            return False
    return True


class TextQel:
    """Problem text -> ``parse_problem`` -> ``qel`` -> ``formula_to_sexpr``."""

    deadline_s = 1.0

    def run(self, item):
        prob = eq.parse_problem(item.text)
        out = eq.qel(prob.sig, prob.store, prob.formula)
        return Out(eq.formula_to_sexpr(out), prob, out)

    def run_traced(self, item, tr):
        with tr.span("parser.parse"):
            prob = eq.parse_problem(item.text)
        tr.add("parser.chars", len(item.text))
        out = traced_qel(tr, prob)
        with tr.span("terms.print"):
            text = eq.formula_to_sexpr(out)
        return Out(text, prob, out)


# -- qel-euf ----------------------------------------------------------------------

def ladder(wl, rng, tiny, traced):
    """Items on the size ladder of ``wl``, instance-major, so that any prefix
    of a pass covers every rung; a traced run adds ``wl.TRACE_RUNGS``."""
    if tiny:
        rungs, per = wl.RUNGS[:2], 1
    else:
        rungs, per = wl.RUNGS + (wl.TRACE_RUNGS if traced else ()), wl.PER_RUNG
    return [wl.item(rng, size, k)
            for j in range(per) for k, size in enumerate(rungs)
            if k < len(wl.RUNGS) or j < wl.TRACE_PER_RUNG]


class QelEuf(TextQel):
    """Random EUF conjunctions on a ladder of sizes that doubles."""

    name = "qel-euf"
    RUNGS = (50, 100, 200, 400, 800)   # egraph nodes, roughly
    PER_RUNG = 20
    TRACE_RUNGS = (1600, 3200)
    TRACE_PER_RUNG = 2

    def items(self, rng, tiny, traced):
        return ladder(self, rng, tiny, traced)

    def item(self, rng, nodes, rung):
        text, model = self.generate(rng, nodes)
        return Item("euf", nodes, text, model, rung=rung)

    @staticmethod
    def generate(rng, nodes):
        """Terms over f, g (unary) and h (binary) on one sort, with values in
        a planted model; variables are equated to terms and to each other
        where the model agrees, and every fourth one is left free, so some
        classes have ground definitions and some do not."""
        nv = max(2, nodes // 2)
        nc = max(2, nodes // 20)
        universe = max(8, nodes // 4)
        val = {}
        tables = {"f": {}, "g": {}, "h": {}}
        decls = ["(declare-sort S 0)", "(declare-fun f (S) S)",
                 "(declare-fun g (S) S)", "(declare-fun h (S S) S)"]
        leaves = []
        shallow = []   # terms of depth <= 1 may appear as arguments
        pool = []
        for i in range(nc):
            c = f"c{i}"
            decls.append(f"(declare-const {c} S)")
            val[c] = rng.randrange(universe)
            leaves.append(c)
        shallow.extend(leaves)
        pool.extend(leaves)

        def app(fn, args):
            key = tuple(val[a] for a in args)
            table = tables[fn]
            if key not in table:
                table[key] = rng.randrange(universe)
            text = f"({fn} {' '.join(args)})"
            val[text] = table[key]
            return text

        lits = []
        for i in range(nv):
            v = f"v{i}"
            decls.append(f"(declare-var {v} S)")
            if i % 4 == 0:
                val[v] = rng.randrange(universe)
            else:
                t = rng.choice(pool)
                val[v] = val[t]
                lits.append(f"(= {v} {t})")
            shallow.append(v)
            pool.append(v)
            for _ in range(2):
                fn = rng.choice("fgh")
                args = [rng.choice(shallow) for _ in range(2 if fn == "h" else 1)]
                t = app(fn, args)
                pool.append(t)
                if rng.random() < 0.5:
                    shallow.append(t)
        by_val = {}
        for t in pool:
            by_val.setdefault(val[t], []).append(t)
        groups = [g for g in by_val.values() if len(g) >= 2]
        for _ in range(nv // 2):
            a, b = rng.sample(rng.choice(groups), 2)
            lits.append(f"(= {a} {b})")
        for _ in range(nv // 8):
            a, b = rng.sample(pool, 2)
            if val[a] != val[b]:
                lits.append(f"(distinct {a} {b})")
        text = "\n".join(decls + [f"(assert {l})" for l in lits]) + "\n"
        model = [f"(universe S {universe})"]
        model += [f"(define-value {n} {elem('S', val[n])})"
                  for n in leaves + [f"v{i}" for i in range(nv)]]
        model += [table_text(fn, "S", tables[fn]) for fn in "fgh"]
        return text, "\n".join(model) + "\n"

    def check(self, item, out, tr):
        err = vars_subset_error(out.formula, out.prob.formula)
        if err:
            return err
        model = eq.parse_model(item.model, out.prob.sig)
        with tr.span("model.satisfies"):
            sat_in = eq.satisfies(model, out.prob.sig, out.prob.formula)
            sat_out = eq.satisfies(model, out.prob.sig, out.formula)
        if not sat_in:
            return "generator bug: the planted model does not satisfy the input"
        if not sat_out:
            return "the planted model does not satisfy the output"
        return ""


# -- deep-shared ------------------------------------------------------------------

class DeepShared(TextQel):
    """Narrow, deep or heavily shared DAGs through the same path as qel-euf."""

    name = "deep-shared"
    # five equally weighted shapes: the median lands on the middle one and
    # the 90th percentile inside the most expensive one
    SHAPES = (("chain", 100), ("chain", 400), ("tower", 12), ("tower", 14),
              ("tower", 15))
    PER_SHAPE = 20
    # RecursionError in parser._term today
    PROBES = (("chain", 1000), ("chain", 3000), ("chain", 10000))

    def items(self, rng, tiny, traced):
        shapes = (("chain", 50), ("tower", 8)) if tiny else self.SHAPES
        per = 1 if tiny else self.PER_SHAPE
        out = []
        for _ in range(per):
            for kind, depth in shapes:
                out.append(self.generate(rng, kind, depth, probe=False))
        for kind, depth in self.PROBES[:1] if tiny else self.PROBES:
            out.append(self.generate(rng, kind, depth, probe=True))
        return out

    @staticmethod
    def generate(rng, kind, depth, probe):
        """A chain ``x = u1(u2(...(c)))`` of random unary symbols, or a tower
        ``t(k+1) = h(t(k), t(k))`` of random binary symbols; the top is kept
        by a disequality with ``d`` and a self-referential variable ``y``
        survives, so the output is never empty."""
        universe = 6
        fixed = rng.randrange(universe)
        if kind == "chain":
            syms, arity = ("f", "g"), 1
        else:
            syms, arity = ("h", "k"), 2
        tables = {s: {} for s in syms}
        for s in syms:
            tables[s][(fixed,) * arity] = fixed   # y = s(y, ...) holds

        def apply(s, v):
            key = (v,) * arity
            if key not in tables[s]:
                tables[s][key] = rng.randrange(universe)
            return tables[s][key]

        sig = " ".join(f"(declare-fun {s} ({' '.join(['S'] * arity)}) S)"
                       for s in syms)
        lines = ["(declare-sort S 0)", sig, "(declare-const c S)",
                 "(declare-const d S)", "(declare-var y S)"]
        values = {"c": rng.randrange(universe), "y": fixed}
        v = values["c"]
        if kind == "chain":
            term = "c"
            for _ in range(depth):
                s = rng.choice(syms)
                term = f"({s} {term})"
                v = apply(s, v)
            lines.append("(declare-var x S)")
            lines.append(f"(assert (= x {term}))")
            top = "x"
        else:
            lines.append("(declare-var t0 S)")
            lines.append("(assert (= t0 c))")
            for k in range(depth):
                s = rng.choice(syms)
                lines.append(f"(declare-var t{k + 1} S)")
                lines.append(f"(assert (= t{k + 1} ({s} t{k} t{k})))")
                v = apply(s, v)
                values[f"t{k + 1}"] = v
            values["t0"] = values["c"]
            top = f"t{depth}"
        values[top] = v
        values["d"] = (v + 1 + rng.randrange(universe - 1)) % universe
        lines.append(f"(assert (distinct {top} d))")
        s = syms[0]
        lines.append(f"(assert (= y ({s} {' '.join(['y'] * arity)})))")
        model = [f"(universe S {universe})"]
        model += [f"(define-value {n} {elem('S', x)})" for n, x in values.items()]
        model += [table_text(s, "S", tables[s]) for s in syms]
        return Item(kind, depth, "\n".join(lines) + "\n", "\n".join(model) + "\n",
                    probe=probe)

    def check(self, item, out, tr):
        # the library evaluator recurses once per term level, so a gate built
        # on it would fail on exactly the deep outputs this workload makes
        err = vars_subset_error(out.formula, out.prob.formula)
        if err:
            return err
        model = eq.parse_model(item.model, out.prob.sig)
        with tr.span("model.satisfies"):
            sat_in = euf_satisfies(model, out.prob.formula)
            sat_out = euf_satisfies(model, out.formula)
        if not sat_in:
            return "generator bug: the planted model does not satisfy the input"
        if not sat_out:
            return "the planted model does not satisfy the output"
        return ""


# -- mbp-arrays -------------------------------------------------------------------

class MbpArrays:
    """Array and datatype projection under models planted by the generator."""

    name = "mbp-arrays"
    deadline_s = 1.0
    RUNGS = (1, 2, 4, 8, 12)     # reads of the projected array
    PER_RUNG = 20
    TRACE_RUNGS = (16,)          # at 20 reads one operation nears the deadline
    TRACE_PER_RUNG = 2

    def items(self, rng, tiny, traced):
        return ladder(self, rng, tiny, traced)

    def item(self, rng, n, rung):
        text, model, project = self.generate(rng, n)
        return Item("arrays", n, text, model, project, rung=rung)

    @staticmethod
    def generate(rng, n):
        """One instance with three parts, all satisfied by the planted model:

        * ``n`` reads ``read(a, i) = e`` of the projected array ``a``, plus a
          few reads at index variables ``x`` (Ackermann pairs);
        * a write chain over the projected array ``b`` equated to a kept
          array, one read over a write of ``b``, and reads of ``b`` (partial
          equality, write unwinding, ``elim_eq``, read over write);
        * projected pairs ``p = pair(a, l)``, stored into a kept array of
          pairs, and ``p2 = pair(a, l)``, stored nowhere, both kept apart
          from a kept pair ``r`` (deconstruction and disequality splits)."""
        nx = max(1, n // 4)
        ui, uv = n + nx + 2, 4
        dv = 0
        decls = ["(declare-sort I 0)", "(declare-sort V 0)",
                 "(declare-datatype Pair ((pair (fst (Array I V)) (snd V))))",
                 "(declare-var a (Array I V))", "(declare-var b (Array I V))",
                 "(declare-var p Pair)", "(declare-var p2 Pair)",
                 "(declare-const c (Array I V))", "(declare-const l V)",
                 "(declare-const l2 V)",
                 "(declare-const r Pair)", "(declare-const q1 (Array I Pair))",
                 "(declare-const q2 (Array I Pair))", "(declare-const jj I)"]
        values = {}
        lits = []
        arr_a = {k: rng.randrange(uv) for k in range(ui)}
        arr_b = {k: rng.randrange(uv) for k in range(ui)}

        def const(name, sort, value):
            decls.append(f"(declare-const {name} {sort})")
            values[name] = value

        # the model's index values are random, but their pattern of equalities
        # is fixed (reads come in pairs at one index), so the work of the
        # saturation does not hang on chance either
        perm = rng.sample(range(ui), ui)
        used = [perm[k // 2] for k in range(n)]
        rng.shuffle(used)
        for k, iv in enumerate(used):
            const(f"i{k}", "I", elem("I", iv))
            const(f"e{k}", "V", elem("V", arr_a[iv]))
            lits.append(f"(= (read a i{k}) e{k})")
        # index variables: the model puts the even ones on an index already
        # read, which defines them, and the odd ones on fresh indices, which
        # keeps them; so the count of kept variables does not hang on chance
        spare = rng.sample(sorted(set(range(ui)) - set(used)), nx)
        for j in range(nx):
            iv = rng.choice(used) if j % 2 == 0 else spare[j]
            decls.append(f"(declare-var x{j} I)")
            values[f"x{j}"] = elem("I", iv)
            const(f"y{j}", "V", elem("V", arr_a[iv]))
            lits.append(f"(= (read a x{j}) y{j})")
        chain = "b"
        arr_c = dict(arr_b)
        for k, iv in enumerate(rng.sample(range(ui), max(1, n // 4))):
            wv = rng.randrange(uv)
            const(f"w{k}", "I", elem("I", iv))
            const(f"u{k}", "V", elem("V", wv))
            chain = f"(write {chain} w{k} u{k})"
            arr_c[iv] = wv
        lits.append(f"(= c {chain})")
        iv, jv = rng.sample(range(ui), 2)
        const("wi", "I", elem("I", iv))
        const("wu", "V", elem("V", rng.randrange(uv)))
        const("wj", "I", elem("I", jv))
        const("wz", "V", elem("V", arr_b[jv]))
        lits.append("(= (read (write b wi wu) wj) wz)")
        for k, kv in enumerate(rng.sample(range(ui), max(1, n // 4))):
            const(f"k{k}", "I", elem("I", kv))
            const(f"z{k}", "V", elem("V", arr_b[kv]))
            lits.append(f"(= (read b k{k}) z{k})")

        def arr_text(arr):
            rows = " ".join(f"({elem('I', k)} {elem('V', v)})"
                            for k, v in sorted(arr.items()) if v != dv)
            return f"(array (default {elem('V', dv)}) {rows})"

        lv = rng.randrange(uv)
        pair_p = f"(pair {arr_text(arr_a)} {elem('V', lv)})"
        values["l"] = elem("V", lv)
        values["r"] = f"(pair {arr_text({})} {elem('V', (lv + 1) % uv)})"
        jv = rng.randrange(ui)
        values["jj"] = elem("I", jv)
        empty_pair = f"(pair {arr_text({})} {elem('V', dv)})"
        values["q1"] = f"(array (default {empty_pair}))"
        values["q2"] = f"(array (default {empty_pair}) ({elem('I', jv)} {pair_p}))"
        values["l2"] = elem("V", lv)
        lits += ["(= p (pair a l))", "(= q2 (write q1 jj p))", "(distinct p r)",
                 "(= p2 (pair a l2))", "(distinct p2 r)"]
        values["a"] = arr_text(arr_a)
        values["b"] = arr_text(arr_b)
        values["c"] = arr_text(arr_c)
        values["p"] = values["p2"] = pair_p
        text = "\n".join(decls + [f"(assert {l})" for l in lits]) + "\n"
        model = [f"(universe I {ui})", f"(universe V {uv})"]
        model += [f"(define-value {k} {v})" for k, v in values.items()]
        return text, "\n".join(model) + "\n", ("a", "b", "p", "p2")

    def run(self, item):
        prob = eq.parse_problem(item.text)
        model = eq.parse_model(item.model, prob.sig)
        res = eq.mbp(prob.sig, prob.store, prob.formula, item.project, model)
        return Out(eq.formula_to_sexpr(res.formula), prob, res.formula, res.model)

    def run_traced(self, item, tr):
        with tr.span("parser.parse"):
            prob = eq.parse_problem(item.text)
        tr.add("parser.chars", len(item.text))
        with tr.span("parser.model_parse"):
            model = eq.parse_model(item.model, prob.sig)
        res = traced_mbp(tr, prob, item.project, model)
        with tr.span("terms.print"):
            text = eq.formula_to_sexpr(res.formula)
        return Out(text, prob, res.formula, res.model)

    def check(self, item, out, tr):
        left = set(out.formula.free_vars) & set(item.project)
        if left:
            return f"projected variables survived: {sorted(left)}"
        err = vars_subset_error(out.formula, out.prob.formula)
        if err:
            return err
        with tr.span("model.satisfies"):
            sat = eq.satisfies(out.model, out.prob.sig, out.formula)
        if not sat:
            return "the extended model does not satisfy the output"
        return ""


# -- oracle-check -------------------------------------------------------------------

class OracleCheck:
    """Operations that each end in a verdict of the finite-model oracle."""

    name = "oracle-check"
    uses_oracle = True
    # the load operations take at most about 70 milliseconds; half a second
    # is far above them and bounds what the probe demos cost a run
    deadline_s = 0.5
    DEMOS = (("qel", "circular_defs.smt2"), ("qel", "congruent_funs.smt2"))
    # over the deadline with --check today: about 1.4 s, 15 s and 7.6 s
    PROBE_DEMOS = (("qel", "no_ground_defs.smt2"), ("qel", "read_chain.smt2"),
                   ("mbp", "nested_pair_array.smt2", "nested_pair_array.model"))
    ARR_SHAPES = 4
    ADT_SHAPES = 3
    PROJ_COPIES = 2

    def __init__(self, root):
        self.demo_dir = Path(root) / "demos"

    def items(self, rng, tiny, traced):
        # the operations enumerate fixed families, the same for every seed, so
        # that the mix of their costs is too; the seed swaps the names of the
        # two index constants and of the two EUF constants, which changes the
        # texts and outputs but not the work, and orders the operations
        i0, i1 = rng.sample(("i0", "i1"), 2)
        c0, c1 = rng.sample(("c0", "c1"), 2)
        shapes = [(arr, adt)
                  for n_arr, n_adt in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
                  for arr in itertools.product(range(self.ARR_SHAPES), repeat=n_arr)
                  for adt in itertools.product(range(self.ADT_SHAPES), repeat=n_adt)]
        copies = 1 if tiny else self.PROJ_COPIES
        out = [Item("proj", len(a) + len(d), self.projection(a, d, copy, i0, i1),
                    project=tuple([f"av{i}" for i in range(len(a))]
                                  + [f"pv{i}" for i in range(len(d))]))
               for copy in range(copies) for a, d in (shapes[:2] if tiny else shapes)]
        qels = list(itertools.product((c0, c1), range(3), (1, 2), (0, 1), (False, True)))
        out += [Item("qel", 0, self.small_qel(*q, c0, c1))
                for q in (qels[:2] if tiny else qels)]
        out += [self.demo(d, False) for d in (self.DEMOS[:1] if tiny else self.DEMOS)]
        rng.shuffle(out)
        return out + [self.demo(d, True) for d in (() if tiny else self.PROBE_DEMOS)]

    def demo(self, demo, probe):
        args = [demo[0], str(self.demo_dir / demo[1]), "--check"]
        if demo[0] == "mbp":
            args += ["--model", str(self.demo_dir / demo[2])]
        return Item(f"demo {demo[1]}", 0, args=tuple(args), probe=probe)

    @staticmethod
    def projection(arr_shapes, adt_shapes, copy, i0, i1):
        """Criterion-5 style instance: projected arrays and records occur only
        under read/write, constructor equalities and disequalities, so the
        instance is satisfiable and within the projection rules' reach.  Where
        a shape takes either index, the copy number picks it."""
        lines = ["(declare-sort I 0)", "(declare-sort V 0)",
                 "(declare-datatype Rec ((mk (fld V) (pos I)) (unit)))",
                 "(declare-const b (Array I V))", "(declare-const i0 I)",
                 "(declare-const i1 I)", "(declare-const e0 V)",
                 "(declare-const r0 Rec)"]
        lits = []
        idx = (i0, i1)
        for k, shape in enumerate(arr_shapes):
            v = f"av{k}"
            pick = idx[(copy + k) % 2]
            lines.append(f"(declare-var {v} (Array I V))")
            if shape == 0:
                lits.append(f"(= {v} (write b {pick} e0))")
            elif shape == 1:
                lits.append(f"(= (read {v} {i0}) e0)")
                lits.append(f"(= (read {v} {i1}) (read b {i1}))")
            elif shape == 2:
                lits.append(f"(= {v} b)")
            else:
                lits.append(f"(= (read (write {v} {i0} e0) {pick}) e0)")
        for k, shape in enumerate(adt_shapes):
            v = f"pv{k}"
            pick = idx[(copy + k + 1) % 2]
            lines.append(f"(declare-var {v} Rec)")
            if shape == 0:
                lits.append(f"(= {v} (mk e0 {pick}))")
            elif shape == 1:
                lits.append(f"(distinct {v} r0)")
            else:
                lits.append(f"(= {v} (mk e0 {i0}))")
                lits.append(f"(distinct {v} r0)")
        return "\n".join(lines + [f"(assert {l})" for l in lits]) + "\n"

    @staticmethod
    def small_qel(const, depth0, depth1, depth2, extra, c0, c1):
        """Small EUF conjunction within the oracle's default bounds: two
        constants, one unary function and three variables.  ``v0`` is equal to
        a ground term, ``v2`` to a term over ``v0``, and ``v1`` only to terms
        over itself, so exactly one variable is kept."""
        lines = ["(declare-sort U 0)", "(declare-fun f (U) U)",
                 "(declare-const c0 U)", "(declare-const c1 U)"]
        lines += [f"(declare-var v{i} U)" for i in range(3)]

        def wrap(t, depth):
            for _ in range(depth):
                t = f"(f {t})"
            return t

        lits = [f"(= v0 {wrap(const, depth0)})", f"(= v1 {wrap('v1', depth1)})",
                f"(= v2 {wrap('v0', depth2)})"]
        if extra:
            lits.append(f"(= {wrap(c0, 1)} {c1})")
        return "\n".join(lines + [f"(assert {l})" for l in lits]) + "\n"

    # bounds of the criterion-5 loop at its two-element universe, which keeps
    # every projection instance far inside the per-operation deadline
    PROJ_BOUNDS = dict(universe=2)

    def run(self, item):
        return self._run(item, NO_TRACE)

    def run_traced(self, item, tr):
        return self._run(item, tr)

    def _run(self, item, tr):
        if item.args:
            return self._demo(item, tr)
        with tr.span("parser.parse"):
            prob = eq.parse_problem(item.text)
        tr.add("parser.chars", len(item.text))
        sig, store, formula = prob.sig, prob.store, prob.formula
        out = Out("", prob)
        if item.kind == "qel":
            with tr.span("qel.call"):
                result = eq.qel(sig, store, formula)
            out.formula = result
            with tr.span("oracle.equiv"):
                self._verdict(out, lambda: eq.equiv_exists(sig, store, formula, result))
        else:
            bounds = eq.Bounds(**self.PROJ_BOUNDS)
            with tr.span("oracle.find_model"):
                model = self._oracle(out, lambda: eq.find_model(sig, store, formula, bounds))
            if model is None:
                out.error = "no model found for a satisfiable instance"
                return out
            if tr.enabled:
                res = traced_mbp(tr, prob, item.project, model)
            else:
                res = eq.mbp(sig, store, formula, item.project, model)
            out.formula, out.model = res.formula, res.model
            with tr.span("model.satisfies"):
                sat = eq.satisfies(res.model, sig, res.formula)
            if not sat:
                out.error = "the extended model does not satisfy the output"
            with tr.span("oracle.implies"):
                self._verdict(out, lambda: eq.implies_exists(sig, store, res.formula,
                                                             formula, bounds))
        with tr.span("terms.print"):
            out.text = eq.formula_to_sexpr(out.formula)
        out.note = " ".join(out.oracle)
        return out

    @staticmethod
    def _oracle(out, call):
        try:
            value = call()
        except eq.SearchSpaceError:
            out.oracle.append("refused")
            return None
        out.oracle.append("decided")
        return value

    def _verdict(self, out, call):
        verdict = self._oracle(out, call)
        if verdict is not None:
            out.skipped += verdict.skipped
            if not verdict.ok:
                out.error = f"oracle rejects the output; witness {verdict.witness}"

    def _demo(self, item, tr):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tr.span("cli.main"):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = egraphqe.cli.main(list(item.args))
        err = stderr.getvalue()
        out = Out(stdout.getvalue().strip(), note=f"exit {code}\n{err}")
        out.oracle.append("refused" if "check skipped" in err else "decided")
        if code != 0:
            out.error = f"exit code {code}: {err.strip()}"
        return out

    def check(self, item, out, tr):
        if out.error:
            return out.error
        if item.kind == "proj":
            left = set(out.formula.free_vars) & set(item.project)
            if left:
                return f"projected variables survived: {sorted(left)}"
        elif item.kind == "qel":
            return vars_subset_error(out.formula, out.prob.formula)
        return ""


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTrace:
    """Stand-in tracer for the untraced path of a shared operation body."""

    enabled = False
    _null = _Null()

    def span(self, name):
        return self._null

    def add(self, name, value):
        pass


NO_TRACE = _NoTrace()


def make(name, root):
    for cls in (QelEuf, MbpArrays, DeepShared):
        if cls.name == name:
            return cls()
    if name == OracleCheck.name:
        return OracleCheck(root)
    raise KeyError(name)

