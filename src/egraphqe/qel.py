"""Quantifier reduction over egraphs.

The pipeline: build the egraph of the input conjunction, pick an admissible
representative function that is maximally ground (ground classes get a
constructively ground representative), refine variable representatives into
variable-free ones where acyclicity allows it, shrink the node set to a
core whose extraction keeps the existential closure, and extract.  Every
variable equated (even implicitly, through transitivity and congruence) to
a ground term is guaranteed to disappear.  Everything after the build is
``reduce``, the one reduction tail, which ``mbp`` runs on its saturated
egraph as well.  The tail never asks the egraph's groundness analysis
(``EGraph.cground``): seeding the search with the ground leaves already
gives every ground class a constructively ground representative.

The representative function is a plain dict, node id -> representative
id.  The tail reads the graph's frozen class view (``EGraph.view``), built
once: class roots and member lists by node id; ``refine_defs`` retargets a
class by writing its member list.  The representative search is a counter
fixpoint: each node counts its distinct children not yet assigned, and
becomes ready when the count reaches zero.  The core compares congruence
keys within each class of two or more members only, since congruent nodes
share a class.
"""
from __future__ import annotations

from typing import Iterable

from .egraph import EGraph
from .extraction import to_expr, to_formula
from .terms import Formula, Signature, TermStore


def process(g: EGraph, r: dict, todo: Iterable[int]) -> dict:
    """Assign representatives bottom-up starting from the given nodes.

    Work proceeds in waves: the seed list in order, then the parents whose
    children all became assigned, newest node first within a wave.  A popped
    node whose class is already assigned is skipped, so only nodes with all
    children assigned ever become representatives, which keeps the partial
    assignment admissible at every step.

    Each node keeps a counter of its distinct children that are still
    unassigned; assigning a class decrements the counter of every parent of
    its members, and a parent whose counter reaches zero is ready.  So each
    parent edge is looked at once, not once per child.  r must assign whole
    classes, as find_defs and process leave it.
    """
    unmet = [len({c for c in node.children if c.id not in r}) for node in g.nodes]
    _process(g, g.view(), r, todo, unmet)
    return r


def _process(g: EGraph, view, r: dict, todo, unmet: list):
    """process on a class view, with the unassigned-children counters of r,
    which it keeps up to date."""
    members = view.members
    parents = g.parents
    wave = todo
    while wave:
        ready = []
        for n in wave:
            if n in r:
                continue
            cls = members[n]
            for m in cls:
                r[m] = n
            for m in cls:
                for p in parents(m):
                    left = unmet[p] - 1
                    unmet[p] = left
                    if not left and p not in r:
                        ready.append(p)
        ready.sort(reverse=True)
        wave = ready


def find_defs(g: EGraph) -> dict:
    """Total admissible representative function, maximally ground: ground
    leaves are processed first so every ground class ends up with a
    constructively ground representative.  Both passes share one set of
    counters (see process), so each parent edge is looked at once."""
    view = g.view()
    r = {}
    unmet = [len(set(node.children)) for node in g.nodes]
    leaves = [t for t in g.nodes if not t.children]
    _process(g, view, r, [t.id for t in leaves if t.ground], unmet)
    _process(g, view, r, [t.id for t in leaves], unmet)
    return r


def refine_defs(g: EGraph, r: dict, var_names) -> dict:
    """Retarget variable-labeled representatives to a non-variable class
    member whenever that keeps the representative graph acyclic.  Ground
    class representatives are never variables, so ground maximality is
    preserved."""
    var_names = set(var_names)
    members = g.view().members
    nodes = g.nodes
    get = r.get
    for node in nodes:
        n = node.id
        if get(n) != n or node.label not in var_names:
            continue
        for m in members[n]:
            if m == n or nodes[m].label in var_names:
                continue
            if not _makes_cycle(g, r, m):
                r.update(dict.fromkeys(members[m], m))
                break
    return r


def _makes_cycle(g: EGraph, r: dict, candidate: int) -> bool:
    """Would retargeting candidate's class onto candidate close a cycle?
    All new edges point into the candidate, so it suffices to look for a
    path from the candidate back to itself.  The walk reads each child's
    representative as it would be after the retarget: the candidate for a
    child of the candidate's class, r's otherwise."""
    root_of = g.view().root
    get = r.get
    root = root_of[candidate]
    stack = [candidate]
    visited = set()
    while stack:
        for c in g.nodes[stack.pop()].children:
            rep = candidate if root_of[c.id] == root else get(c.id)
            if rep == candidate:
                return True
            if rep is not None and rep not in visited:
                visited.add(rep)
                stack.append(rep)
    return False


def find_core(g: EGraph, r: dict, var_names) -> set:
    """Node subset whose extraction already carries the existential closure:
    all representatives, minus non-representative variable nodes and minus
    nodes congruent to a node already kept (same label, child classes).

    Congruent nodes always share a class, since the graph is congruence
    closed, so the graph's congruence keys are compared within a class
    only, and a class with one member needs none.  The graph is final, so
    its roots are the view's."""
    var_names = set(var_names)
    members = g.view().members
    nodes = g.nodes
    get = r.get
    core = set()
    for n in range(len(nodes)):
        if get(n) != n:
            continue
        core.add(n)
        cls = members[n]
        if len(cls) == 1:
            continue
        keys = {g.congruence_key(n)}
        for m in cls:
            if m == n or nodes[m].label in var_names:
                continue
            k = g.congruence_key(m)
            if k not in keys:
                keys.add(k)
                core.add(m)
    return core


def reduce(g: EGraph, var_names, taint=frozenset()):
    """The reduction tail shared by qel and mbp: pick representatives,
    refine them, shrink to the core and extract.  With a non-empty taint,
    a core node is dropped when its extraction, or its representative's,
    mentions a tainted variable.  Returns the representative function and
    the formula."""
    r = find_defs(g)
    r = refine_defs(g, r, var_names)
    core = find_core(g, r, var_names)
    memo = {}  # one extraction per node, shared by the filter and to_formula
    if taint:
        extractions = {n: to_expr(g, n, r, _memo=memo) for n in core}
        core = {n for n in core
                if taint.isdisjoint(extractions[n].vars)
                and taint.isdisjoint(extractions[r.get(n)].vars)}
    return r, to_formula(g, r, set(g.node_ids()) - core, _memo=memo)


def qel(sig: Signature, store: TermStore, formula: Formula,
        var_names=None) -> Formula:
    """Quantifier reduction: returns a conjunction over a subset of the
    input's variables whose existential closure is equivalent."""
    if var_names is None:
        var_names = formula.free_vars
    return reduce(EGraph.from_formula(sig, store, formula), var_names)[1]
