"""Model-based projection of array and datatype variables.

Saturates theory projection rules over the egraph of the input under a
satisfying model, then runs the quantifier-reduction tail (``qel.reduce``)
with every array/datatype variable as taint, which drops every node whose
extraction still mentions one.  Rules only ever add terms, merges, and
disequalities.  Nodes and disequalities are append-only, so each rule
family keeps one watermark pair (how many nodes and disequalities its
passes have offered) and offers each node and each disequality once.  One
offering visits distinct keys, so a rule keeps no record of what it did,
except ``partial_eq``, which meets a pair of array nodes from both ends.  A
pass asks the egraph, which keeps constructive groundness as rules add
nodes and merge classes, which nodes to skip; it reads the answer live, so
a rule sees what the rules before it made ground.

The array rules rewrite read-over-write patterns, turn array equalities
into partial-equality obligations, unwind writes out of those obligations,
solve them for projected variables with fresh write values, and
Ackermannize the reads over one projected array: the reads are split into
classes by the model value of their index, as in Spacer's array MBP, so a
read costs one index equality, or one disequality per class seen before.
The datatype rules split projected-variable equalities into selector
equalities and resolve disequalities by the model, except that a
disequality whose both sides sit in ground classes is skipped: its
operands are rewritten to ground terms in the output, so no splitting is
necessary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .egraph import EGraph
from .model import Model, array_read, eval_term, satisfies
from .qel import reduce
from .terms import Formula, InputError, Signature, SortKind, Term, TermStore


class ModelMismatchError(InputError):
    pass


class SaturationBudgetError(Exception):
    pass


@dataclass
class MbpResult:
    formula: Formula
    model: Model              # input model plus any fresh constants
    rule_fires: dict          # rule name -> number of applications
    graph: EGraph             # the saturated egraph
    repr_fn: dict             # node id -> representative id, for extraction


@dataclass
class _State:
    g: EGraph
    model: Model
    budget: int
    fires: dict = field(default_factory=dict)
    total: int = 0
    fresh: int = 0
    peqs: set = field(default_factory=set)  # node pairs partial_eq did
    # projected base node id -> {index value: (first read id, index term)}
    index_classes: dict = field(default_factory=dict)

    @property
    def sig(self):
        return self.g.sig

    @property
    def store(self):
        return self.g.store

    def fired(self, rule):
        self.fires[rule] = self.fires.get(rule, 0) + 1
        self.total += 1
        if self.total > self.budget:
            raise SaturationBudgetError(
                f"more than {self.budget} rule applications")

    def meval(self, term: Term):
        return eval_term(self.model, self.sig, term)

    def projected(self, label) -> bool:
        return label in self.sig.variables

    def term_has_projected(self, term: Term) -> bool:
        return not term.ground

    def fresh_name(self) -> str:
        while True:
            name = f"d!{self.fresh}"
            self.fresh += 1
            if name not in self.sig.functions and name not in self.sig.variables:
                return name


def mbp(sig: Signature, store: TermStore, formula: Formula, var_names,
        model: Model, budget: int = 10_000) -> MbpResult:
    """Project the given array/datatype variables out of the conjunction.

    The result implies the input's existential closure, is satisfied by the
    (possibly extended) model, and contains no projected array or datatype
    variable.  Variables the rules introduce along the way are eliminated by
    the same pipeline.
    """
    if budget < 0:
        raise InputError(f"budget must not be negative, got {budget}")
    var_names = list(var_names)
    for v in var_names:
        sort = sig.variables.get(v)
        if sort is None:
            raise InputError(f"'{v}' is not a declared variable")
        if sort.kind not in (SortKind.ARRAY, SortKind.ADT):
            raise InputError(f"variable '{v}' is neither array- nor ADT-sorted")
    if not satisfies(model, sig, formula):
        raise ModelMismatchError("the given model does not satisfy the input")

    g = EGraph.from_formula(sig, store, formula)
    state = _State(g, model, budget)
    _saturate(state)

    all_vars = g.var_names()  # original plus rule-introduced variables
    taint = frozenset(v for v in all_vars if sig.variables[v].kind
                      in (SortKind.ARRAY, SortKind.ADT))
    r, out = reduce(g, all_vars, taint)
    return MbpResult(out, state.model, state.fires, g, r)


# -- saturation loop ----------------------------------------------------------

def _saturate(state: _State):
    """Run the array family to its fixpoint, then the datatype family, and
    repeat until neither makes progress."""
    watermarks = dict.fromkeys(_FAMILIES, (0, 0))
    progress = True
    while progress:
        progress = False
        for family in _FAMILIES:
            fired = True
            while fired:
                fired, watermarks[family] = apply_rules(
                    state, family, watermarks[family])
                progress = progress or fired


def apply_rules(state: _State, family, watermark: tuple) -> tuple:
    """One pass of a rule family (node rules, read rules, disequality
    rules) from a watermark, the (node count, disequality count) that
    earlier passes offered.  The nodes from there to the node count at the
    start of the pass go to the node rules (equality bookkeeping always,
    others only when not constructively ground).  The reads among them, in
    id order, go to each read rule at once, ground or not.  The
    disequalities from there to the count when the disequality rules start
    go to those rules, except those whose sides are both in ground classes.
    Whether a rule fires on a disequality depends only on its two nodes and
    on groundness, which only grows, so none is offered twice.  Groundness
    is read when each node or disequality is offered, not at the start of
    the pass.  Returns whether a rule fired and the watermark for the next
    pass."""
    node_rules, read_rules, diseq_rules = family
    g = state.g
    progress = False
    start, diseq_start = watermark
    size = len(g.nodes)
    for n in range(start, size):
        if g.nodes[n].label == "peq" or not g.cground(n):
            for rule in node_rules:
                if rule(state, n):
                    progress = True
    if read_rules:
        reads = [n for n in range(start, size) if g.nodes[n].label == "read"]
        for rule in read_rules:
            if rule(state, reads):
                progress = True
    diseq_size = len(g.diseqs)
    for rule in diseq_rules:
        for a, b in g.diseqs[diseq_start:diseq_size]:
            if g.ground_class(a) and g.ground_class(b):
                continue  # both sides become ground terms; no split needed
            if rule(state, a, b):
                progress = True
    return progress, (size, diseq_size)


# -- array rules --------------------------------------------------------------

def _rule_elim_wr_rd(state: _State, n: int) -> bool:
    """read over a write whose array part mentions a projected variable:
    merge with the written value or with a read of the inner array,
    depending on whether the model equates the two indices."""
    g = state.g
    node = g.nodes[n]
    if node.label != "read":
        return False
    arr, j = node.children
    fired = False
    for w in g.class_of(arr.id):
        wnode = g.nodes[w]
        if wnode.label != "write":
            continue
        s, i, v = wnode.children
        if not state.term_has_projected(s):
            continue
        if state.meval(i) == state.meval(j):
            g.assert_eq(i, j)
            g.assert_eq(node, v)
        else:
            g.assert_diseq(i, j)
            g.assert_eq(node, state.store.mk_app("read", (s, j)))
        state.fired("elim_wr_rd")
        fired = True
    return fired


def _rule_partial_eq(state: _State, n: int) -> bool:
    """An array equality (two array nodes in one class) involving a
    projected variable becomes a partial-equality obligation with an empty
    exception set."""
    g = state.g
    node = g.nodes[n]
    if node.sort.kind is not SortKind.ARRAY:
        return False
    fired = False
    for m in g.class_of(n):
        if m == n:
            continue
        a, b = g.nodes[min(n, m)], g.nodes[max(n, m)]
        if not (state.term_has_projected(a) or state.term_has_projected(b)):
            continue
        if (a.id, b.id) in state.peqs:
            continue
        state.peqs.add((a.id, b.id))
        g.assert_eq(state.store.mk_app("peq", (a, b)), state.store.top)
        state.fired("partial_eq")
        fired = True
    return fired


def _rule_elim_wr(state: _State, n: int) -> bool:
    """Unwind a write inside a partial equality: peq(s, write(u, i, v), I)
    yields read(s, i) = v plus peq(s, u, I + [i]) when i is fresh w.r.t. I
    under the model; otherwise only the write is dropped, recording the
    index equality the model used."""
    g = state.g
    node = g.nodes[n]
    if node.label != "peq":
        return False
    store = state.store
    fired = False
    lhs, rhs = node.children[:2]
    # each side once: peq(s, s, I) has one
    for s, w in dict.fromkeys(((lhs, rhs), (rhs, lhs))):
        if w.label != "write":
            continue
        if not state.term_has_projected(w):
            continue
        u, i, v = w.children
        idx_terms = list(node.children[2:])
        ival = state.meval(i)
        clash = next((ix for ix in idx_terms if state.meval(ix) == ival), None)
        if clash is None:
            g.assert_eq(store.mk_app("read", (s, i)), v)
            new_idx = idx_terms + [i]
        else:
            g.assert_eq(i, clash)
            new_idx = idx_terms
        g.assert_eq(store.mk_app("peq", (s, u, *new_idx)), store.top)
        state.fired("elim_wr")
        fired = True
    return fired


def _rule_elim_eq(state: _State, n: int) -> bool:
    """Solve a partial equality for a projected array variable: the variable
    equals the other side overwritten at the exception indices with fresh
    values, and the model is extended to keep satisfying the result."""
    g = state.g
    node = g.nodes[n]
    if node.label != "peq":
        return False
    store, sig = state.store, state.sig
    lhs, rhs = node.children[:2]
    for v, e in ((lhs, rhs), (rhs, lhs)):
        if not (state.projected(v.label) and not v.children):
            continue
        if v.label in e.vars:
            continue
        chosen = []
        seen_vals = []
        for ix in node.children[2:]:
            val = state.meval(ix)
            if val not in seen_vals:  # duplicates modulo the model collapse
                seen_vals.append(val)
                chosen.append(ix)
        chain = e
        for ix in chosen:
            name = state.fresh_name()
            value_sort = v.sort.value
            if value_sort.kind in (SortKind.ARRAY, SortKind.ADT):
                sig.declare_var(name, value_sort)
            else:
                sig.declare_const(name, value_sort)
            dterm = store.mk_const(name)
            state.model = state.model.with_constant(
                name, array_read(state.meval(v), state.meval(ix)))
            chain = store.mk_app("write", (chain, ix, dterm))
        g.assert_eq(v, chain)
        state.fired("elim_eq")
        return True
    return False


def _rule_ackermann(state: _State, reads) -> bool:
    """Ackermannize the new reads over projected array variables, split by
    the model: per base node, state.index_classes maps each index value met
    so far to the first read at it and that read's index term.  A read at a
    known value gets its index equated with that first index (the reads
    then merge by congruence); a read at a new value gets its index made
    disequal to the first index of every class before it and starts a
    class.  That is one fire per read plus one per pair of values, where
    all pairs of reads would be n(n-1)/2.  The decisions are applied in
    (older read, newer read) order, the order in which a pass over all pairs
    meets them, so the graph and its disequality record come out the same."""
    g = state.g
    decisions = []
    for b in reads:
        base, idx = g.nodes[b].children
        if not (state.projected(base.label) and not base.children):
            continue
        classes = state.index_classes.setdefault(base.id, {})
        value = state.meval(idx)
        first = classes.get(value)
        if first is not None:
            decisions.append((first[0], b, True, first[1], idx))
        else:
            decisions += [(a, b, False, t, idx) for a, t in classes.values()]
            classes[value] = (b, idx)
    decisions.sort(key=lambda d: d[:2])
    for _, _, equal, t1, t2 in decisions:
        if equal:
            g.assert_eq(t1, t2)
        else:
            g.assert_diseq(t1, t2)
        state.fired("ackermann")
    return bool(decisions)


# -- datatype rules -----------------------------------------------------------

def _rule_adt_deconstruct_eq(state: _State, n: int) -> bool:
    """A projected datatype variable equal to a constructor application:
    assert one selector equality per constructor argument."""
    g = state.g
    node = g.nodes[n]
    if not (state.projected(node.label) and not node.children):
        return False
    if node.sort.kind is not SortKind.ADT:
        return False
    store = state.store
    fired = False
    for m in g.class_of(n):
        mnode = g.nodes[m]
        role = state.sig.datatype.get(mnode.label)
        if role is None or role[0] != "constructor" or role[1].arity == 0:
            continue
        ctor = role[1]
        for (sel, _), arg in zip(ctor.selectors, mnode.children):
            g.assert_eq(store.mk_app(sel, (node,)), arg)
        state.fired("adt_deconstruct_eq")
        fired = True
    return fired


def _rule_adt_split_diseq(state: _State, a: int, b: int) -> bool:
    """Resolve a datatype disequality on a projected variable using the
    model: different constructors yield tester literals, equal constructors
    yield a selector disequality at an argument where the values differ."""
    g = state.g
    ta, tb = g.nodes[a], g.nodes[b]
    for v, t in ((ta, tb), (tb, ta)):
        if not (state.projected(v.label) and not v.children):
            continue
        if v.sort.kind is not SortKind.ADT:
            continue
        store = state.store
        vv = state.meval(v)
        tv = state.meval(t)
        if vv == tv:
            raise ModelMismatchError(
                f"model equates disequal terms {v!r} and {t!r}")
        vctor = state.sig.datatype[vv.ctor][1]
        if vv.ctor != tv.ctor:
            g.assert_eq(store.mk_app(vctor.tester, (v,)), store.top)
            g.assert_eq(store.mk_app(vctor.tester, (t,)), store.bot)
        else:
            i = next(i for i in range(vctor.arity) if vv.args[i] != tv.args[i])
            sel = vctor.selectors[i][0]
            g.assert_diseq(store.mk_app(sel, (v,)), store.mk_app(sel, (t,)))
        state.fired("adt_split_diseq")
        return True
    return False


# -- rule families: (node rules, read rules, disequality rules) ---------------

_ARRAY_RULES = ((_rule_elim_wr_rd, _rule_partial_eq, _rule_elim_wr,
                 _rule_elim_eq), (_rule_ackermann,), ())
_ADT_RULES = ((_rule_adt_deconstruct_eq,), (), (_rule_adt_split_diseq,))
_FAMILIES = (_ARRAY_RULES, _ADT_RULES)
