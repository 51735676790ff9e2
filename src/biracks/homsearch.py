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
(o, u, u', o'), a negative one (o', u', u, o).  Invertibility and
sideways invertibility make four slot pairs each fix the other two; one
rule table, _RULES, writes these determinations once, in this order:

    (x, y) known -> (z, w) = B(x, y)
    (z, w) known -> (x, y) = B^-1(z, w)
    (z, x) known -> (w, y) = S(z, x)
    (w, y) known -> (z, x) = S^-1(w, y)

The aliased pairs (x, w) and (y, z) fix nothing.  Before searching, a
plan of branch semiarcs is built once per diagram: greedily, the semiarc
whose closure under the rules grows the most, ties to the lowest index
(the fail-first order of Haralick and Elliott, 1980), so crossings close
early and wrong values fail near the root.  As in Minoux's lazy greedy
(1978), the plan computes only the closures that can change a pick.
With nothing fixed, a semiarc's closure is itself unless it fills both
sources of a rule at one quad (a kink).  After a pick, only the
candidates whose closures share a quad with a semiarc the pick fixed are
recomputed, in increasing index order, and once one of them fixes every
unfixed semiarc the later ones are skipped: no closure gains more than
the unfixed count, and ties go to the lowest index.  So the plan is the
one that recomputing every closure at every level gives, and each pick
reuses the steps its closure was computed with.  Which rule fires at a quad depends only on
which slots are known, never on their values, so each plan level
compiles once into a list of steps, each writing or checking one slot
from one table.  A quad fires once, by the first rule whose sources are
known: its slots then satisfy B(x, y) = (z, w), to which every rule is
equivalent, so it needs no second check.  The search tries the values of
each plan semiarc in increasing order on an explicit stack, so its depth
is not bounded by the interpreter's recursion limit; enumerate_labelings
sorts the labelings into lexicographic order of the assignment vector.

A plan depends on the diagram and on whether it is cut, never on the
birack, so _compiled builds it once per (diagram, cut) key, with the
semiarc count, tails and heads, as nested tuples whose steps name their
tables; a search binds the birack's tables to those names.  Every
birack, invariant kind, request and thread searching an equal diagram
shares the plan.  The cache keeps the _PLANS_KEPT (32) most recently used
plans.  One costs about 0.36 KB per crossing and keeps its key diagram
(about 0.5 KB per crossing) alive: 1.02 MB in all for a 1,200-kink
unknot and 2.66 MB for a 3,000-kink one (tracemalloc), so the worst case
is 32 times the largest diagram searched.

cut_labelings runs the same plan and search once on a diagram cut open:
each component with crossings enters its pass 0 on a fresh head semiarc
instead of its tail, the semiarc leaving its last pass.  Its labelings
serve every framing at once (a run of m positive kinks between tail and
head is the edge head = pi^m(tail)); the invariants module reads them
per framing.  A crossing-free component is never cut, its tail being its
head, and at rank 1 nothing is cut: there is one framing only, and the
closing crossings keep their determinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

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


def _crossing_quads(d: Diagram, cut: bool
                    ) -> tuple[list[Quad], int, tuple[int, ...], tuple[int, ...]]:
    """Crossing quads, semiarc count, and each component's tail and head.

    A component's tail is the semiarc leaving its last pass and its head
    the semiarc entering its pass 0.  Closed, they are one semiarc.  Cut,
    every component with crossings enters pass 0 on a fresh head semiarc,
    numbered after all of d's own; a crossing-free component stays whole.
    """
    size = d.semiarc_count
    tails, heads = [], []
    for comp, span in zip(d.components, d.component_semiarcs):
        tails.append(span[-1])
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


# (source positions, target positions, tables) of a quad (x, y, z, w)
_RULES = (
    ((0, 1), (2, 3), ("b1", "b2")),        # (z, w) = B(x, y)
    ((2, 3), (0, 1), ("b1inv", "b2inv")),  # (x, y) = B^-1(z, w)
    ((2, 0), (3, 1), ("s1", "s2")),        # (w, y) = S(z, x)
    ((3, 1), (2, 0), ("s1inv", "s2inv")),  # (z, x) = S^-1(w, y)
)

# (t, table, a, c, check): slot t gets table[a][c], or is compared with it
# if check is set
Step = tuple[int, str, int, int, bool]


def _fire(quads: list[Quad], touching: list[list[int]], known: list[bool],
          s: int) -> tuple[list[int], list[Step]]:
    """The semiarcs that fixing s fixes given the known ones, s first, and
    the steps that fix them, in order.

    The quads touching each newly fixed semiarc go on a stack; a popped
    quad fires its first rule whose sources are fixed, once, writing its
    unfixed targets and checking its fixed ones.  The semiarcs it grows are
    marked known while it runs and unmarked before it returns.
    """
    grown = [s]
    steps: list[Step] = []
    known[s] = True
    fired: set[int] = set()
    stack = list(touching[s])
    while stack:
        qi = stack.pop()
        if qi in fired:
            continue
        quad = quads[qi]
        for (i, j), targets, tables in _RULES:
            a, c = quad[i], quad[j]
            if known[a] and known[c]:
                fired.add(qi)
                for k, table in zip(targets, tables):
                    t = quad[k]
                    steps.append((t, table, a, c, known[t]))
                    if not known[t]:
                        known[t] = True
                        grown.append(t)
                        stack.extend(touching[t])
                break
    for t in grown:
        known[t] = False
    return grown, steps


def _plan(quads: list[Quad], size: int) -> list[tuple[int, list[Step]]]:
    """Branch semiarcs, greedily picking the one whose closure grows most,
    each with the steps that fix its closure.

    A semiarc's closure is itself plus every semiarc the rules then fix,
    given what earlier picks fixed; it is kept with its steps, and ties go
    to the lowest index.  Each closure starts as its semiarc alone.  It
    can change only if a quad it visits gains a fixed semiarc, which then
    shares that quad with one of its semiarcs.  Each round refires just
    those candidates, in increasing index order: first the kinks (with
    nothing fixed only they fix more than themselves), then after each
    pick the ones near what it fixed.  No closure gains more than the
    unfixed count, so once one reaches it, the next pick is it or a
    current lower-index one, and the later candidates are marked stale
    (an empty closure) and not fired.  The plan ends when all are fixed.
    """
    touching: list[list[int]] = [[] for _ in range(size)]
    for qi, quad in enumerate(quads):
        for sm in set(quad):
            touching[sm].append(qi)
    known = [False] * size
    closures = [([s], []) for s in range(size)]
    # watchers[t]: the unknown semiarcs whose closure holds t
    watchers = [{s} for s in range(size)]
    heap = [(-1, s) for s in range(size)]  # sorted, so already a heap
    # the first round refires the kink semiarcs
    near = {quad[i] for quad in quads for (i, j), _, _ in _RULES if quad[i] == quad[j]}
    levels = []
    unknown = size
    while unknown:
        full = False
        for c in sorted({c for t in near for c in watchers[t]}):
            for t in closures[c][0]:
                watchers[t].discard(c)
            if full or known[c]:
                closures[c] = ([], [])
                continue
            grown, _ = closures[c] = _fire(quads, touching, known, c)
            for t in grown:
                watchers[t].add(c)
            heappush(heap, (-len(grown), c))
            full = len(grown) == unknown
        gain, s = heappop(heap)
        while known[s] or -gain != len(closures[s][0]):
            gain, s = heappop(heap)  # picked already, or a stale gain
        fresh, steps = closures[s]
        levels.append((s, steps))
        for t in fresh:
            known[t] = True
        unknown -= len(fresh)
        near = {u for t in fresh for qi in touching[t] for u in quads[qi]}
    return levels


Level = tuple[int, tuple[Step, ...]]

# Plans kept at once.  One pass of a benchmark workload compiles at most
# 23 distinct (diagram, cut) keys (search_knots, seeds 0-3), and the
# data/sample_links.txt batch 12, so 32 keep a whole pass with room to
# spare while bounding what large diagrams can hold.
_PLANS_KEPT = 32


@lru_cache(maxsize=_PLANS_KEPT)
def _compiled(d: Diagram, cut: bool
              ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[Level, ...]]:
    """The semiarc count, tails, heads and plan levels of d, closed or cut,
    as tuples all through, each step naming its table.  Shared by every
    search of an equal diagram, so nothing in it may be mutated."""
    quads, size, tails, heads = _crossing_quads(d, cut)
    levels = tuple((s, tuple(steps)) for s, steps in _plan(quads, size))
    return size, tails, heads, levels


def _search(plan: tuple[Level, ...], size: int,
            b: FiniteBirack) -> tuple[list[tuple[int, ...]], int]:
    """Labeling assignments of size semiarcs under a compiled plan, in
    search order, and the search nodes tried.

    One node is one value tried at a branch point.  A level sets its
    branch semiarc and runs its steps, which read only what that level or
    an earlier one wrote; below the last level every semiarc is written.
    """
    levels = [(s, [(t, getattr(b, table), a, c, check) for t, table, a, c, check in steps])
              for s, steps in plan]
    assign = [0] * size
    results: list[tuple[int, ...]] = []
    depth = len(levels)
    next_value = [0] * (depth + 1)  # the value each level tries next
    nodes = level = 0
    while level >= 0:
        if level == depth:
            results.append(tuple(assign))  # every crossing checked on the way down
        elif next_value[level] < b.n:
            s, steps = levels[level]
            assign[s] = next_value[level]
            next_value[level] += 1
            nodes += 1
            for t, table, a, c, check in steps:
                v = table[assign[a]][assign[c]]
                if check and assign[t] != v:
                    break
                assign[t] = v
            else:
                level += 1
                next_value[level] = 0
            continue
        level -= 1  # back from a leaf, or every value of this level tried
    return results, nodes


def enumerate_labelings(d: Diagram, b: FiniteBirack) -> list[Labeling]:
    """All labelings of d by b, duplicate-free, in lexicographic order."""
    size, _, _, levels = _compiled(d, False)
    return [Labeling(r) for r in sorted(_search(levels, size, b)[0])]


def count_labelings(d: Diagram, b: FiniteBirack) -> int:
    """|Hom| for one framed diagram; same semantics as enumerate_labelings."""
    size, _, _, levels = _compiled(d, False)
    return len(_search(levels, size, b)[0])


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
    size, tails, heads, levels = _compiled(d, b.rank > 1)
    found, nodes = _search(levels, size, b)
    return CutLabelings(d, b, tails, heads, tuple(found), nodes)


def labeling_image(labeling: Labeling, b: FiniteBirack) -> frozenset[int]:
    """The subbirack generated by the labels a labeling uses."""
    return subbirack_closure(b, set(labeling.assignment))
