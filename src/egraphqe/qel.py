"""Quantifier reduction over egraphs.

The pipeline: build the egraph of the input conjunction, pick an admissible
representative function that is maximally ground (ground classes get a
constructively ground representative), refine variable representatives into
variable-free ones where acyclicity allows it, shrink the node set to a
core whose extraction keeps the existential closure, and extract.  Every
variable equated (even implicitly, through transitivity and congruence) to
a ground term is guaranteed to disappear.  Everything after the build is
``reduce``, the one reduction tail, which ``mbp`` runs on its saturated
egraph as well.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .egraph import EGraph
from .extraction import ReprFn, to_expr, to_formula
from .terms import Formula, Signature, TermStore


@dataclass
class CGroundInfo:
    cground: set        # node ids that rewrite into ground terms
    ground_class: set   # roots of classes containing such a node
    nodes: int = 0      # the graph's node count when computed
    merges: int = 0     # the length of its merge log then


def compute_cground(g: EGraph, info: CGroundInfo = None) -> CGroundInfo:
    """Least fixpoint of: a node is constructively ground if its own term is
    ground, or it has children and every child's class contains one.

    Given info, an earlier result for g (which has since only gained nodes
    and merged classes), updates it in place from the nodes added and the
    merges logged since, and returns it.  A merged class that holds an
    earlier ground root is ground: its absorbed roots leave ground_class,
    and the parents of all its members are re-queued, since members of the
    side that was not ground now sit in a ground class (either side may be
    the one absorbed)."""
    if info is None:  # no class is ground yet, so no merge needs a look
        info = CGroundInfo(set(), set(), 0, len(g.merge_log))
    ground_class = info.ground_class
    pending = deque()

    def mark(n):
        info.cground.add(n)
        root = g.find(n)
        if root not in ground_class:
            ground_class.add(root)
            for m in g.class_of(root):
                pending.extend(g.parents(m))

    for root in {g.find(r) for r in g.merge_log[info.merges:]}:
        members = g.class_of(root)
        old_roots = [m for m in members if m in ground_class]
        if old_roots:
            ground_class.difference_update(old_roots)
            ground_class.add(root)
            for m in members:
                pending.extend(g.parents(m))
    for n in range(info.nodes, len(g.nodes)):
        if g.nodes[n].term.ground:
            mark(n)
        else:
            pending.append(n)
    while pending:
        p = pending.popleft()
        node = g.nodes[p]
        if p in info.cground or not node.children:
            continue
        if all(g.find(c) in ground_class for c in node.children):
            mark(p)
    info.nodes, info.merges = len(g.nodes), len(g.merge_log)
    return info


def process(g: EGraph, r: ReprFn, todo: Iterable[int]) -> ReprFn:
    """Assign representatives bottom-up starting from the given nodes.

    Work proceeds in waves: the seed list in order, then the parents whose
    children all became assigned, newest node first within a wave.  A popped
    node whose class is already assigned is skipped, so only nodes with all
    children assigned ever become representatives, which keeps the partial
    assignment admissible at every step.
    """
    current = deque(todo)
    while current:
        ready = []
        while current:
            n = current.popleft()
            if r.defined(n):
                continue
            r.set_class(g, n)
            for m in g.class_of(n):
                for p in sorted(g.parents(m)):
                    if not r.defined(p) and \
                            all(r.defined(c) for c in g.nodes[p].children):
                        ready.append(p)
        seen = set()
        for p in sorted(ready, reverse=True):
            if p not in seen:
                seen.add(p)
                current.append(p)
    return r


def find_defs(g: EGraph) -> ReprFn:
    """Total admissible representative function, maximally ground: ground
    leaves are processed first so every ground class ends up with a
    constructively ground representative."""
    r = ReprFn()
    process(g, r, [n.id for n in g.nodes if not n.children and n.term.ground])
    process(g, r, [n.id for n in g.nodes if not n.children])
    return r


def refine_defs(g: EGraph, r: ReprFn, var_names) -> ReprFn:
    """Retarget variable-labeled representatives to a non-variable class
    member whenever that keeps the representative graph acyclic.  Ground
    class representatives are never variables, so ground maximality is
    preserved."""
    var_names = set(var_names)
    for node in g.nodes:
        if r.get(node.id) != node.id or node.label not in var_names:
            continue
        for m in g.class_of(node.id):
            if m == node.id or g.nodes[m].label in var_names:
                continue
            if not _makes_cycle(g, r, m):
                r.set_class(g, m)
                break
    return r


def _makes_cycle(g: EGraph, r: ReprFn, candidate: int) -> bool:
    """Would retargeting candidate's class onto candidate close a cycle?
    All new edges point into the candidate, so it suffices to look for a
    path from the candidate back to itself.  The walk reads each child's
    representative as it would be after the retarget: the candidate for a
    child of the candidate's class, r's otherwise."""
    root = g.find(candidate)
    stack = [candidate]
    visited = set()
    while stack:
        for c in g.nodes[stack.pop()].children:
            rep = candidate if g.find(c) == root else r.get(c)
            if rep == candidate:
                return True
            if rep is not None and rep not in visited:
                visited.add(rep)
                stack.append(rep)
    return False


def find_core(g: EGraph, r: ReprFn, var_names) -> set:
    """Node subset whose extraction already carries the existential closure:
    all representatives, minus non-representative variable nodes and minus
    nodes congruent to a node already kept (same label, child classes)."""
    var_names = set(var_names)
    core = set()
    keys = set()
    for node in g.nodes:
        if r.get(node.id) != node.id:
            continue
        core.add(node.id)
        keys.add(g.congruence_key(node.id))
        for m in g.class_of(node.id):
            if m == node.id:
                continue
            if g.nodes[m].label in var_names:
                continue
            key = g.congruence_key(m)
            if key in keys:
                continue
            keys.add(key)
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
