"""Egraph: a term DAG plus a congruence-closed equivalence on its nodes.

A node is its store term: ``nodes`` is the adopted prefix of
``store.terms``, so node id = term id, and a child's node id is its ``id``.
``add_term`` adopts the store terms up to the one asked for in store order,
children first, with no walk or map, so a term made for another purpose
becomes a node of the next graph grown past it on the store.  The class
fields sit next to the terms, in lists and dicts keyed by node id.  Nodes
are never removed.  Each node stores its class root (quick-find): a merge
relabels the members of the absorbed class in the walk it makes over them
anyway, so ``find`` is a list read.  The oldest node id stays class root,
so class enumeration is deterministic; ``class_of`` returns a new sorted
list of a class's members on each call.  A disequality is recorded once, as
a node pair in ``diseqs``, and adds no node beyond its two sides; a
``distinct`` term in the input is an ordinary Bool term.  Disequalities
never drive merging but make the graph reject inconsistent inputs, and
extraction emits them from ``diseqs``.

Each class root keeps the list of recorded disequalities with an endpoint in
the class.  A merge can only violate a disequality whose endpoints lie one in
each merging class, so it scans the shorter of the two lists and appends it
to the longer one; no assertion rescans every disequality.

The graph keeps constructive groundness as an e-class analysis (egg,
Willsey et al., POPL 2021, section 4): a node is ``cground`` if it is a
leaf with a ground term or every child's class is ground, and a class is
ground if it holds such a node.  A question first settles the nodes added
since the last one (a node-count watermark), and a merge that grounds one
side re-checks only the parents of the members that just became ground.
The node count and a merge counter stamp ``view``, the read-only
``ClassView`` that the reduction tail reads once the graph is final.
"""
from __future__ import annotations

from .terms import Formula, InputError, Signature, Term, TermStore


class InconsistentFormulaError(InputError):
    pass


_TRUTH = ("true", "false")  # the labels of the Bool constants' leaves


class ClassView:
    """The classes of a graph that no longer changes, for the reduction tail:
    per node id, its class root (``root``) and its class's member ids in
    creation order (``members``, one list shared by the whole class)."""
    __slots__ = ("root", "members")

    def __init__(self, root, members):
        self.root = root
        self.members = members


class EGraph:
    def __init__(self, sig: Signature, store: TermStore):
        self.sig = sig
        self.store = store
        self.nodes = []
        self._root = []        # class root per node id
        self._members = {}     # root id -> list of member ids
        self._parents = []     # node id -> set of structural parent ids
        self._cong = {}        # (label, child root ids) -> node id
        self.diseqs = []       # recorded (node id, node id) pairs
        self._diseq_set = set()   # the same pairs, for duplicate checks
        self._class_diseqs = {}   # root id -> recorded pairs touching the class
        self._violation = None    # first disequal pair found merged
        self._merges = 0          # merges so far, for the view stamp
        self._view = None         # (node count, merge count, ClassView)
        self._cground = set()     # cground node ids among the settled ones
        self._ground = set()      # roots of the ground classes
        self._settled = 0         # nodes below this id are in the analysis
        self._truth = {}          # "true" and "false" -> node id, once added

    # -- construction ------------------------------------------------------

    @classmethod
    def from_formula(cls, sig, store, formula: Formula) -> "EGraph":
        g = cls(sig, store)
        for lit in formula.literals:
            if lit.kind == "eq":
                g.assert_eq(lit.lhs, lit.rhs)
            elif lit.kind == "ueq":
                g.add_term(store.mk_app("ueq", (lit.lhs, lit.rhs)))
                g.assert_eq(lit.lhs, lit.rhs)
            elif lit.kind == "diseq":
                g.assert_diseq(lit.lhs, lit.rhs)
            else:
                raise InputError(f"unknown literal kind '{lit.kind}'")
        return g

    def add_term(self, term: Term) -> int:
        """term's node, whose id is term's: every store term up to it
        becomes a node, in order.  Another store's term is a ValueError."""
        n = term.id
        terms = self.store.terms
        if n >= len(terms) or terms[n] is not term:
            raise ValueError(f"'{term!r}' is not a term of the graph's store")
        nodes = self.nodes
        while len(nodes) <= n:
            self._add_node(terms[len(nodes)])
        return n

    def _add_node(self, term: Term) -> int:
        """Adopt term, the next store term, whose children are nodes
        already, merged at once with a congruent node if there is one."""
        parents = self._parents
        nid = term.id
        self.nodes.append(term)
        self._root.append(nid)
        self._members[nid] = [nid]
        parents.append(set())
        for c in term.children:
            parents[c.id].add(nid)
        if not term.children and term.label in _TRUTH:
            self._truth[term.label] = nid
        other = self._cong.setdefault(self._canon_key(term), nid)
        if other != nid:
            self._merge(nid, other)
        return nid

    def assert_eq(self, t1: Term, t2: Term):
        a, b = self.add_term(t1), self.add_term(t2)
        self._merge(a, b)
        self._check_consistent()

    def assert_diseq(self, t1: Term, t2: Term):
        a, b = self.add_term(t1), self.add_term(t2)
        if (a, b) not in self._diseq_set and (b, a) not in self._diseq_set:
            self._diseq_set.add((a, b))
            self.diseqs.append((a, b))
            for n in (a, b):
                self._class_diseqs.setdefault(self.find(n), []).append((a, b))
        if self.find(a) == self.find(b):
            self._violation = self._violation or (a, b)
            self._check_consistent()

    # -- class roots + congruence closure -----------------------------------

    def find(self, n: int) -> int:
        return self._root[n]

    def _merge(self, a, b):
        root = self._root
        queue = [(a, b)]
        regrounded = []  # members of the side that was not ground
        while queue:
            x, y = queue.pop()
            rx, ry = root[x], root[y]
            if rx == ry:
                continue
            if rx > ry:
                rx, ry = ry, rx  # the older id stays root
            absorbed = self._members.pop(ry)
            for m in absorbed:
                root[m] = rx
            self._merges += 1
            ground = self._ground
            if rx in ground or ry in ground:
                if rx not in ground or ry not in ground:
                    regrounded += absorbed if rx in ground else self._members[rx]
                ground.discard(ry)
                ground.add(rx)
            self._members[rx].extend(absorbed)
            moved = self._class_diseqs.pop(ry, None)
            if moved is not None:
                self._move_diseqs(rx, moved)
            # re-canonicalize parents of the absorbed class
            for m in absorbed:
                for p in self._parents[m]:
                    key = self._canon_key(self.nodes[p])
                    q = self._cong.setdefault(key, p)
                    if root[q] != root[p]:
                        queue.append((q, p))
        if regrounded:
            self._settle([p for m in regrounded for p in self._parents[m]])

    def _move_diseqs(self, rx, moved):
        """Give root rx the disequalities of a class merged into it, noting
        the first one now violated.  A violated pair is in both lists, so
        only the shorter one is scanned."""
        kept = self._class_diseqs.setdefault(rx, [])
        if len(kept) < len(moved):
            kept, moved = moved, kept
            self._class_diseqs[rx] = kept
        if self._violation is None:
            for a, b in moved:
                if self._root[a] == self._root[b]:
                    self._violation = (a, b)
                    break
        kept.extend(moved)

    # -- constructive groundness -------------------------------------------

    def cground(self, n: int) -> bool:
        """Whether node n rewrites into a ground term: it is a leaf whose
        term is ground, or every child's class is ground."""
        if self._settled < len(self.nodes):
            self._settle(range(self._settled, len(self.nodes)))
            self._settled = len(self.nodes)
        return n in self._cground

    def ground_class(self, n: int) -> bool:
        """Whether n's class holds a constructively ground node."""
        return self.cground(n) or self._root[n] in self._ground

    def _settle(self, pending):
        """Check the pending nodes, and the parents of the members of every
        class that becomes ground, until no node changes."""
        cground, ground, root = self._cground, self._ground, self._root
        pending = list(pending)
        while pending:
            n = pending.pop()
            t = self.nodes[n]
            if n in cground or not (all(root[c.id] in ground for c in t.children)
                                    if t.children else t.ground):
                continue
            cground.add(n)
            r = root[n]
            if r not in ground:
                ground.add(r)
                for m in self._members[r]:
                    pending += self._parents[m]

    def congruence_key(self, n: int):
        """(label, child class roots): equal keys mean congruent nodes."""
        return self._canon_key(self.nodes[n])

    def _canon_key(self, t: Term):
        root = self._root
        return (t.label, tuple([root[c.id] for c in t.children]))

    def _check_consistent(self):
        truth = self._truth
        if len(truth) == 2 and self.find(truth["true"]) == self.find(truth["false"]):
            raise InconsistentFormulaError("true and false were merged")
        if self._violation is not None:
            ta, tb = (self.nodes[n] for n in self._violation)
            raise InconsistentFormulaError(f"disequal terms merged: {ta!r} and {tb!r}")

    # -- views ---------------------------------------------------------------

    def view(self) -> ClassView:
        """The classes as they are now, built in one pass and handed out
        again until a node is added or a merge happens.  It is read-only."""
        stamp = (len(self.nodes), self._merges)
        if self._view is not None and self._view[:2] == stamp:
            return self._view[2]
        members = [None] * len(self.nodes)
        for cls in self._members.values():
            cls = sorted(cls)
            for m in cls:
                members[m] = cls
        view = ClassView(self._root[:], members)
        self._view = (*stamp, view)
        return view

    def class_of(self, n: int) -> list:
        """Member ids of n's class, in creation order: a new list on each
        call, so a merge leaves a list returned before it unchanged."""
        return sorted(self._members[self.find(n)])

    def parents(self, n: int) -> set:
        """Ids of the nodes that have n as a child.  This is the graph's own
        set, not a copy: it is read-only, and it grows when a parent of n
        is added."""
        return self._parents[n]

    def node_ids(self) -> range:
        return range(len(self.nodes))

    def roots(self) -> list:
        return sorted(self._members.keys())

    def num_classes(self) -> int:
        return len(self._members)

    def var_names(self) -> list:
        """Variable labels present in the graph, in node-id order."""
        variables = self.sig.variables
        return list(dict.fromkeys(node.label for node in self.nodes
                                  if node.label in variables))

    def dump_dot(self, repr_fn=None) -> str:
        """DOT rendering: solid child edges, dashed red root edges, and
        dotted blue representative edges when a representative dict is
        given.  A label escapes the backslashes and quotes of its symbol."""
        lines = ["digraph egraph {"]
        for node in self.nodes:
            label = node.label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{node.id} [label="{node.id}: {label}"];')
        for node in self.nodes:
            for c in node.children:
                lines.append(f"  n{node.id} -> n{c.id};")
        for node in self.nodes:
            root = self.find(node.id)
            if root != node.id:
                lines.append(f"  n{node.id} -> n{root} [style=dashed, color=red];")
        if repr_fn is not None:
            for node in self.nodes:
                for c in node.children:
                    rep = repr_fn.get(c.id)
                    if rep is not None:
                        lines.append(
                            f"  n{node.id} -> n{rep} [style=dotted, color=blue];")
        lines.append("}")
        return "\n".join(lines)
