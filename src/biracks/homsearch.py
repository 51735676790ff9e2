"""Enumerate birack labelings of a diagram by propagation + backtracking.

A labeling assigns a birack element to every semiarc so that at each
positive crossing with over-input o, under-input u, over-output o' and
under-output u':

    u' = B1(o, u)    and    o' = B2(o, u)

and at each negative crossing (o', u') = (B1^-1(u, o), B2^-1(u, o)),
equivalently B(o', u') = (u, o).  Each valid labeling is one birack
homomorphism from the diagram's fundamental structure into the birack.

Internally every crossing is normalized to a quadruple (x, y, z, w) of
semiarc indices satisfying B(x, y) = (z, w): a positive crossing is
(o, u, u', o'), a negative one (o', u', u, o).  Four exact determinations
then drive propagation:

    (x, y) known -> (z, w) = B(x, y)
    (z, w) known -> (x, y) = B^-1(z, w)
    (z, x) known -> (w, y) = S(z, x)
    (w, y) known -> (z, x) = S^-1(w, y)

The aliased pairs (x, w) and (y, z) do not determine the rest and only
get checked once more slots fill in.

Before searching, a plan of branch semiarcs is built once per diagram:
greedily, the semiarc whose closure under the four determinations grows
the most, ties to the lowest index (the fail-first order of Haralick and
Elliott, 1980).  Branching along a strand would mostly fill aliased
pairs, which propagate nothing; the plan instead closes crossings early,
so wrong values fail near the root.  The search tries the values of each
plan semiarc in increasing order on an explicit stack, so its depth is
not bounded by the interpreter's recursion limit; enumerate_labelings
sorts the labelings into lexicographic order of the assignment vector.

cut_labelings runs the same plan and search once on a diagram cut open:
each component with crossings enters its pass 0 on a fresh head semiarc
instead of its tail, the semiarc leaving its last pass.  Its labelings
serve every framing at once (a run of m positive kinks between tail and
head is the edge head = pi^m(tail)); the invariants module reads them
per framing.  A crossing-free component is never cut, its tail being its
head, and at rank 1 nothing is cut: there is one framing only, and the
closing crossings keep their propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .core import FiniteBirack, subbirack_closure
from .diagram import Diagram


@dataclass(frozen=True)
class Labeling:
    """One semiarc assignment satisfying every crossing condition."""

    assignment: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.assignment)

    def __getitem__(self, semiarc: int) -> int:
        return self.assignment[semiarc]


Quad = tuple[int, int, int, int]


def _crossing_quads(d: Diagram, cut: bool = False
                    ) -> tuple[list[Quad], int, tuple[int, ...], tuple[int, ...]]:
    """Crossing quads, semiarc count, and each component's tail and head.

    A component's tail is the semiarc leaving its last pass and its head
    the semiarc entering its pass 0.  Closed, they are one semiarc.  Cut,
    every component with crossings enters pass 0 on a fresh head semiarc,
    numbered after all of d's own; a crossing-free component stays whole.
    """
    size = d.semiarc_count
    tails, heads = [], []
    for ci, comp in enumerate(d.components):
        tails.append(d.semiarc_after(ci, max(len(comp), 1) - 1))
        if cut and comp:
            heads.append(size)
            size += 1
        else:
            heads.append(tails[-1])
    quads = []
    for cid in sorted(d.crossings):
        cr = d.crossings[cid]
        oi, ui, uo, oo = d.crossing_semiarcs(cid)
        if cr.over[1] == 0:
            oi = heads[cr.over[0]]
        if cr.under[1] == 0:
            ui = heads[cr.under[0]]
        quads.append((oi, ui, uo, oo) if cr.sign > 0 else (oo, uo, ui, oi))
    return quads, size, tuple(tails), tuple(heads)


def _plan(quads: list[Quad], touching: list[list[int]]) -> list[int]:
    """Branch semiarcs, greedily picking the one whose closure grows most.

    A semiarc's closure is itself plus every semiarc the four
    determinations then fix, given what earlier picks already fixed.
    Ties go to the lowest index.  A candidate's closure can change only
    if it holds a semiarc that shares a crossing with the semiarcs a pick
    fixed, so only those candidates are recomputed after each pick.
    """
    size = len(touching)
    known = [False] * size

    def closure(s: int) -> set[int]:
        grown = {s}
        queue = list(touching[s])
        while queue:
            quad = quads[queue.pop()]
            x, y, z, w = (known[t] or t in grown for t in quad)
            if (x and y) or (z and w) or (z and x) or (w and y):
                for t in quad:
                    if not (known[t] or t in grown):
                        grown.add(t)
                        queue.extend(touching[t])
        return grown

    grows = [closure(s) for s in range(size)]
    # watchers[t]: the unknown semiarcs whose closure holds t
    watchers: list[set[int]] = [set() for _ in range(size)]
    for s, grown in enumerate(grows):
        for t in grown:
            watchers[t].add(s)
    heap = [(-len(grown), s) for s, grown in enumerate(grows)]
    heapify(heap)
    plan = []
    while heap:
        gain, s = heappop(heap)
        if known[s] or -gain != len(grows[s]):
            continue  # picked already, or a stale gain
        plan.append(s)
        fresh = grows[s]
        for t in fresh:
            known[t] = True
        near = {u for t in fresh for qi in touching[t] for u in quads[qi]} | fresh
        for c in {c for t in near for c in watchers[t]}:
            for t in grows[c]:
                watchers[t].discard(c)
            if not known[c]:
                grows[c] = closure(c)
                for t in grows[c]:
                    watchers[t].add(c)
                heappush(heap, (-len(grows[c]), c))
    return plan


def _search(quads: list[Quad], size: int,
            b: FiniteBirack) -> tuple[list[tuple[int, ...]], int]:
    """Labeling assignments of size semiarcs under quads, in search order,
    and the search nodes tried.

    One node is one value tried at a branch point.
    """
    touching: list[list[int]] = [[] for _ in range(size)]
    for qi, quad in enumerate(quads):
        for sm in set(quad):
            touching[sm].append(qi)
    plan = _plan(quads, touching)

    assign: list[int | None] = [None] * size
    trail: list[int] = []
    results: list[tuple[int, ...]] = []

    def set_value(sm: int, value: int, queue: list[int]) -> bool:
        current = assign[sm]
        if current is not None:
            return current == value
        assign[sm] = value
        trail.append(sm)
        queue.extend(touching[sm])
        return True

    def propagate(queue: list[int]) -> bool:
        while queue:
            x, y, z, w = quads[queue.pop()]
            vx, vy, vz, vw = assign[x], assign[y], assign[z], assign[w]
            if vx is not None and vy is not None:
                if not (set_value(z, b.b1[vx][vy], queue)
                        and set_value(w, b.b2[vx][vy], queue)):
                    return False
            elif vz is not None and vw is not None:
                if not (set_value(x, b.b1inv[vz][vw], queue)
                        and set_value(y, b.b2inv[vz][vw], queue)):
                    return False
            elif vz is not None and vx is not None:
                if not (set_value(w, b.s1[vz][vx], queue)
                        and set_value(y, b.s2[vz][vx], queue)):
                    return False
            elif vw is not None and vy is not None:
                if not (set_value(z, b.s1inv[vw][vy], queue)
                        and set_value(x, b.s2inv[vw][vy], queue)):
                    return False
        return True

    # Propagation fixes exactly the plan's closures, so every plan
    # semiarc is still unassigned when its level is reached and the
    # assignment is complete below the last level.  next_value[level] and
    # mark[level] are the value to try next and the trail length on entry.
    depth = len(plan)
    next_value = [0] * (depth + 1)
    mark = [0] * (depth + 1)
    nodes = 0
    level = 0
    while level >= 0:
        if level == depth:
            results.append(tuple(assign))  # propagation kept every crossing consistent
            level -= 1
            continue
        while len(trail) > mark[level]:
            assign[trail.pop()] = None
        value = next_value[level]
        if value == b.n:
            level -= 1
            continue
        next_value[level] = value + 1
        nodes += 1
        queue: list[int] = []
        if set_value(plan[level], value, queue) and propagate(queue):
            level += 1
            next_value[level] = 0
            mark[level] = len(trail)
    return results, nodes


def enumerate_labelings(d: Diagram, b: FiniteBirack) -> list[Labeling]:
    """All labelings of d by b, duplicate-free, in lexicographic order."""
    quads, size, _, _ = _crossing_quads(d)
    return [Labeling(r) for r in sorted(_search(quads, size, b)[0])]


def count_labelings(d: Diagram, b: FiniteBirack) -> int:
    """|Hom| for one framed diagram; same semantics as enumerate_labelings."""
    quads, size, _, _ = _crossing_quads(d)
    return len(_search(quads, size, b)[0])


@dataclass(frozen=True)
class CutLabelings:
    """The labelings of a diagram cut open, from one search.

    Each assignment labels the cut diagram's semiarcs: the diagram's own,
    then one head per cut component.  tails[i] and heads[i] index
    component i's tail and head semiarcs; they are equal where the
    component is not cut.  nodes counts the search nodes tried.
    """

    diagram: Diagram
    birack: FiniteBirack
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    assignments: tuple[tuple[int, ...], ...]
    nodes: int


def cut_labelings(d: Diagram, b: FiniteBirack) -> CutLabelings:
    """Search d by b once, every component with crossings cut open when
    the rank is above 1 (at rank 1 there is one framing and no cut)."""
    quads, size, tails, heads = _crossing_quads(d, cut=b.rank > 1)
    found, nodes = _search(quads, size, b)
    return CutLabelings(d, b, tails, heads, tuple(found), nodes)


def labeling_image(labeling: Labeling, b: FiniteBirack) -> frozenset[int]:
    """The subbirack generated by the labels a labeling uses."""
    return subbirack_closure(b, set(labeling.assignment))
