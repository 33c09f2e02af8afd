"""Representative functions and node-to-term / egraph-to-formula extraction.

A representative function picks one node per class: a plain dict from node
id to representative node id, where an absent key means undefined.
Extraction rebuilds a term for a node by replacing every child with the
extraction of its representative.  That terminates exactly when the induced
graph (node -> representative of child) is acyclic, which together with
per-class uniqueness and root-consistency makes the function admissible.
Extraction is an iterative post-order walk memoized by node id, so it takes
each representative once and any depth; it catches a cycle when a
representative it meets is already on the current path from the start node.
"""
from __future__ import annotations

from .egraph import EGraph
from .terms import Formula, Literal, Term, mk_formula


class InadmissibleReprError(Exception):
    pass


class ExtractionBudgetError(InadmissibleReprError):
    """Extraction met a cycle in the representative graph."""


def build_repr_graph(g: EGraph, r: dict) -> set:
    """Edge set {(n, repr(c)) | c child of n, repr(c) defined}."""
    edges = set()
    for node in g.nodes:
        for c in node.children:
            rep = r.get(c.id)
            if rep is not None:
                edges.add((node.id, rep))
    return edges


def has_cycle(g: EGraph, r: dict) -> bool:
    succ = {}
    for a, b in build_repr_graph(g, r):
        succ.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in g.node_ids()}
    for start in g.node_ids():
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = GRAY
        while stack:
            n, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[n] = BLACK
                stack.pop()
    return False


def _class_consistent(g: EGraph, r: dict) -> bool:
    """Every member of every class is assigned, all to one member."""
    view = g.view()
    get = r.get
    for m, root in enumerate(view.root):
        rep = get(root)
        if get(m) != rep or (m == root and rep not in view.members[m]):
            return False
    return True


def is_admissible(g: EGraph, r: dict) -> bool:
    """Total admissibility: unique in-class representative per class,
    representative equivalence = root equivalence, acyclic repr graph."""
    return _class_consistent(g, r) and not has_cycle(g, r)


def to_expr(g: EGraph, n: int, r: dict, _memo=None) -> Term:
    """Term of node n with every child replaced by its representative's
    extraction.  Raises ExtractionBudgetError when the walk meets a
    representative that is already on its current path from n: the repr
    graph has a cycle, so r is not admissible."""
    memo = _memo if _memo is not None else {}
    hit = memo.get(n)
    if hit is not None:
        return hit
    get = r.get
    nodes = g.nodes
    node = nodes[n]
    store = g.store
    args = tuple([memo.get(get(c.id)) for c in node.children])
    if None not in args:  # every child extracted already
        memo[n] = term = _rebuilt(store, node, args)
        return term
    path = {n}
    stack = [(node, iter(node.children))]
    while stack:
        node, it = stack[-1]
        for c in it:
            rep = get(c.id)
            if rep is None:
                raise InadmissibleReprError(f"representative undefined for node {c.id}")
            if rep in memo:
                continue
            if rep in path:
                raise ExtractionBudgetError(
                    f"node {rep} is on its own extraction path; "
                    "repr graph has a cycle")
            child = nodes[rep]
            if child.children:
                path.add(rep)
                stack.append((child, iter(child.children)))
                break
            memo[rep] = child
        else:
            stack.pop()
            path.discard(node.id)
            memo[node.id] = _rebuilt(
                store, node, tuple([memo[get(c.id)] for c in node.children]))
    return memo[n]


def _rebuilt(store, term, args) -> Term:
    """term over the extracted children args, a tuple: term itself, found
    with no store lookup, when they are its own children."""
    return term if args == term.children else store.mk_app(term.label, args)


def to_formula(g: EGraph, r: dict, exclude=frozenset(), _memo=None) -> Formula:
    """Formula of the egraph under r, omitting literals for the node ids in
    exclude, a set.

    Per class, emits representative-extraction = member-extraction for each
    non-excluded member; the recorded disequalities (``g.diseqs``, their
    only record) are emitted over the representative extractions whenever
    both endpoint classes keep at least one non-excluded node.  Duplicate
    and reflexive literals are dropped.  With an empty exclusion set the
    result's existential closure matches the input formula's.  _memo, node
    id -> extraction under r, is shared with the to_expr calls of a caller
    that has extracted some nodes first.
    """
    if not _class_consistent(g, r):
        raise InadmissibleReprError("not a unique in-class assignment per class")
    memo = _memo if _memo is not None else {}
    literals = []
    seen_pairs = set()

    def emit(kind, lhs, rhs):
        if lhs is rhs and kind == "eq":
            return
        key = (kind, frozenset((lhs.id, rhs.id)))
        if key in seen_pairs:
            return
        seen_pairs.add(key)
        literals.append(Literal(kind, lhs, rhs))

    kept = set()  # representatives of the classes with a non-excluded member
    members = g.view().members
    get = r.get
    for node in g.nodes:
        n = node.id
        if get(n) != n:
            continue
        rep_term = to_expr(g, n, r, _memo=memo)
        for m in members[n]:
            if m in exclude:
                continue
            kept.add(n)
            if m == n:
                continue
            emit("eq", rep_term, to_expr(g, m, r, _memo=memo))

    for a, b in g.diseqs:
        ra, rb = get(a), get(b)
        if ra in kept and rb in kept:
            emit("diseq", to_expr(g, ra, r, _memo=memo),
                 to_expr(g, rb, r, _memo=memo))

    return mk_formula(g.store, literals)
