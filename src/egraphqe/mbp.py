"""Model-based projection of array and datatype variables.

Saturates theory projection rules over the egraph of the input under a
satisfying model, then runs the quantifier-reduction tail (``qel.reduce``)
with every array/datatype variable as taint, which drops every node whose
extraction still mentions one.  Rules only ever add terms, merges,
disequalities and partial equalities.  A partial equality (arrays s and t
equal outside some indices) is a record (s, t, exceptions), not a term:
exceptions maps each excepted index's model value to the first index term
with that value.  An array node is paired with the oldest other member of
its class, so a class of k array nodes gets at most k - 1 records.  Nodes,
partial equalities and disequalities are append-only, so each rule family
keeps one watermark triple (how many of each its passes have offered) and
offers each once, a record in the pass that made it.  A pass is due
exactly when its family's watermark is behind those counts, so rules
report nothing and saturation ends when no watermark is behind.  One
offering visits distinct keys, so a rule keeps no record of what it did,
except that a partial equality is made once per (s, t, index terms), since
two nodes may pick each other and two write chains may unwind to one, and
that ``elim_eq`` keeps what each variable's solutions mention.
A pass asks the egraph, which keeps constructive groundness as rules add
nodes and merge classes, which nodes to skip; it reads the answer live, so
a rule sees what the rules before it made ground.

The array rules rewrite read-over-write patterns, turn array equalities
into partial equalities, unwind writes out of them, solve them for
projected variables with fresh write values, and Ackermannize the reads
over one projected array: the reads are split into classes by the model
value of their index, as in Spacer's array MBP, so a read costs one index
equality, or one disequality per class seen before.  The datatype rules
split projected-variable equalities into selector equalities and resolve
disequalities by the model, except that a disequality whose both sides sit
in ground classes is skipped: its operands are rewritten to ground terms in
the output, so no splitting is necessary.
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
    # partial equalities (s, t, exceptions) in the order made: exceptions
    # maps each excepted index's model value to the first index term with it
    peqs: list = field(default_factory=list)
    peq_keys: set = field(default_factory=set)  # (s.id, t.id, *index ids)
    # variable id -> the sets of variables its solutions by elim_eq mention
    solved: dict = field(default_factory=dict)
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

    def partial_eq(self, s: Term, t: Term, exceptions: dict) -> bool:
        """Record that s and t agree outside the exceptions, unless that
        record exists; returns whether it is new."""
        key = (s.id, t.id, *[ix.id for ix in exceptions.values()])
        if key in self.peq_keys:
            return False
        self.peq_keys.add(key)
        self.peqs.append((s, t, exceptions))
        return True

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
    the same pipeline.  Today every declared variable is treated as
    projected, whether or not it is in ``var_names``.
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
    """Run each family, array then datatype, while its watermark is behind
    the counts (nodes, partial equalities, disequalities), and repeat until
    neither is.  A pass is due exactly then: one from the counts offers
    nothing.  Every node, record or disequality a rule makes comes with a
    fire, so the budget bounds the loop."""
    g = state.g
    watermarks = dict.fromkeys(_FAMILIES, (0, 0, 0))

    def behind(family):
        return watermarks[family] != (len(g.nodes), len(state.peqs), len(g.diseqs))

    while any(map(behind, _FAMILIES)):
        for family in _FAMILIES:
            while behind(family):
                watermarks[family] = apply_rules(state, family, watermarks[family])


def apply_rules(state: _State, family, watermark: tuple) -> tuple:
    """One pass of a rule family (node rules, partial-equality rules, read
    rules, disequality rules) from a watermark, the (node count, partial
    equality count, disequality count) that earlier passes offered.  The
    nodes from there to the node count at the start of the pass go to the
    node rules, unless constructively ground.  Then the partial equalities
    from there go to their rules until no more are made, so a record is
    offered in the pass that made it.  The reads among the nodes, in id
    order, go to each read rule at once, ground or not.  The disequalities
    from there to the count when the disequality rules start go to those
    rules, except those whose sides are both in ground classes.  Whether a
    rule fires on a disequality depends only on its two nodes and on
    groundness, which only grows, so none is offered twice.  Groundness is
    read when each node or disequality is offered, not at the start of the
    pass.  Returns the watermark for the next pass: the node count at its
    start, the record count, and the disequality count at the start of its
    disequality rules."""
    node_rules, peq_rules, read_rules, diseq_rules = family
    g = state.g
    start, k, diseq_start = watermark
    size = len(g.nodes)
    for n in range(start, size):
        if not g.cground(n):
            for rule in node_rules:
                rule(state, n)
    while k < len(state.peqs):
        for rule in peq_rules:
            rule(state, state.peqs[k])
        k += 1
    if read_rules:
        reads = [n for n in range(start, size) if g.nodes[n].label == "read"]
        for rule in read_rules:
            rule(state, reads)
    diseq_size = len(g.diseqs)
    for rule in diseq_rules:
        for a, b in g.diseqs[diseq_start:diseq_size]:
            if g.ground_class(a) and g.ground_class(b):
                continue  # both sides become ground terms; no split needed
            rule(state, a, b)
    return size, k, diseq_size


# -- array rules --------------------------------------------------------------

def _rule_elim_wr_rd(state: _State, n: int):
    """read over a write whose array part mentions a projected variable:
    merge with the written value or with a read of the inner array,
    depending on whether the model equates the two indices."""
    g = state.g
    node = g.nodes[n]
    if node.label != "read":
        return
    arr, j = node.children
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


def _rule_partial_eq(state: _State, n: int):
    """An array equality involving a projected variable becomes a partial
    equality with no exceptions: a node is paired with the oldest other
    member of its class, the root, and the root with the next oldest.  A
    ground member, never offered itself, is thus met by every node when it
    is the root and by the root when it is the next oldest.  Classes that
    merge after their nodes were offered get no record."""
    g = state.g
    node = g.nodes[n]
    if node.sort.kind is not SortKind.ARRAY:
        return
    root = g.find(n)
    for m in [root] if root != n else g.class_of(n)[1:2]:
        a, b = g.nodes[min(n, m)], g.nodes[max(n, m)]
        if (state.term_has_projected(a) or state.term_has_projected(b)) \
                and state.partial_eq(a, b, {}):
            state.fired("partial_eq")


def _rule_elim_wr(state: _State, peq):
    """Unwind a write inside a partial equality: s =_I write(u, i, v)
    yields read(s, i) = v plus s =_(I + [i]) u when no index of I has i's
    model value; otherwise only the write is dropped, recording the index
    equality the model used."""
    g, store = state.g, state.store
    lhs, rhs, exceptions = peq
    # each side once: s =_I s has one
    for s, w in dict.fromkeys(((lhs, rhs), (rhs, lhs))):
        if w.label != "write":
            continue
        if not state.term_has_projected(w):
            continue
        u, i, v = w.children
        ival = state.meval(i)
        clash = exceptions.get(ival)
        if clash is None:
            g.assert_eq(store.mk_app("read", (s, i)), v)
            state.partial_eq(s, u, {**exceptions, ival: i})
        else:
            g.assert_eq(i, clash)
            state.partial_eq(s, u, exceptions)
        state.fired("elim_wr")


def _rule_elim_eq(state: _State, peq):
    """Solve a partial equality for a projected array variable: the variable
    equals the other side overwritten at the exception indices with fresh
    values, and the model is extended to keep satisfying the result.  A
    variable is solved again only while its class has no ground member,
    and only over a set of variables that no solution of it mentioned
    before: a solution makes the class ground once the variables it
    mentions are, so a second one over the same set adds nothing.  Each
    solution puts a write into the class, which partial_eq pairs with the
    root, and solving every such record would mint fresh values without end."""
    g = state.g
    store, sig = state.store, state.sig
    lhs, rhs, exceptions = peq
    for v, e in ((lhs, rhs), (rhs, lhs)):
        if not (state.projected(v.label) and not v.children):
            continue
        tried = state.solved.setdefault(v.id, set())
        mentions = frozenset(e.vars)
        if v.label in mentions or mentions in tried \
                or tried and g.ground_class(v.id):
            continue
        tried.add(mentions)
        chain = e
        for ix in exceptions.values():
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
        return


def _rule_ackermann(state: _State, reads):
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


# -- datatype rules -----------------------------------------------------------

def _rule_adt_deconstruct_eq(state: _State, n: int):
    """A projected datatype variable equal to a constructor application:
    assert one selector equality per constructor argument."""
    g = state.g
    node = g.nodes[n]
    if not (state.projected(node.label) and not node.children):
        return
    if node.sort.kind is not SortKind.ADT:
        return
    store = state.store
    for m in g.class_of(n):
        mnode = g.nodes[m]
        role = state.sig.datatype.get(mnode.label)
        if role is None or role[0] != "constructor" or role[1].arity == 0:
            continue
        ctor = role[1]
        for (sel, _), arg in zip(ctor.selectors, mnode.children):
            g.assert_eq(store.mk_app(sel, (node,)), arg)
        state.fired("adt_deconstruct_eq")


def _rule_adt_split_diseq(state: _State, a: int, b: int):
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
        return


# -- rule families: (node, partial-equality, read, disequality rules) --------

_ARRAY_RULES = ((_rule_elim_wr_rd, _rule_partial_eq),
                (_rule_elim_wr, _rule_elim_eq), (_rule_ackermann,), ())
_ADT_RULES = ((_rule_adt_deconstruct_eq,), (), (), (_rule_adt_split_diseq,))
_FAMILIES = (_ARRAY_RULES, _ADT_RULES)
