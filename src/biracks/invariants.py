"""Counting invariants of links from finite biracks, with enhancements.

Labeling counts of a framed diagram are periodic in each component's
writhe with period N, the birack rank.  Summing over one full framing
period (Z_N)^c therefore gives invariants of the unframed link:

* integral: total number of labelings over all framings.
* writhe-enhanced: the generating polynomial sum count(w) * q1^w1...qc^wc.
* image-enhanced: each labeling contributes z^(size of its image
  subbirack).
* polynomial-enhanced: each labeling contributes z^P where P is the
  subbirack polynomial of its image -- a four-variable fingerprint in
  s1, s2, t1, t2 recording how the image sits inside the whole birack.

The element statistics behind the four-variable fingerprint count
trivial actions:

    c1(x) = #{y : B1(x, y) = y}   labels unchanged passing under x
    c2(x) = #{y : B2(y, x) = y}   labels unchanged passing over x
    r1(x) = #{y : B1(y, x) = x}   over-labels under which x is unchanged
    r2(x) = #{y : B2(x, y) = x}   under-labels over which x is unchanged

and each element contributes s1^c1 s2^c2 t1^r1 t2^r2.  In matrix-block
terms c_i(x) counts fixed points down column x of block i and r_i(x)
counts occurrences of x along row x of block i.

The framing period is counted without a search per framing:
cut_labelings searches the diagram cut open at each component's closing
semiarc, and framing w appends m_i = (w_i - writhe_i) mod N positive
kinks to component i, which carry its tail label t to pi^m_i(t).  A cut
labeling is therefore a labeling of with_framing(d, w, N) exactly when
pi^m_i(tail label) = head label on every component, and the kink labels
follow from the tail label.  All four kinds, with their multiset forms
and per-framing counts, come from one fold in compute_invariant; phi_*
return its value.  Integral and writhe count the framings of each cut
labeling without building labelings.  The image and the subbirack
polynomial depend on a labeling only through the closure of its labels,
which is the closure of its cut labels, so image and rho weigh each
distinct cut label set by its framings, leave the closing to one fold
(core._join_fold) and compute one signature per distinct image.

Every diagram is searched group by group (_group_searches): components
that share crossings form a group, and each distinct group diagram gets
one search, keyed by that diagram (a connected diagram is one group,
searched whole; the c circles of a c-unlink are one circle, searched
once).  compute_invariant folds each distinct search once.  A labeling is
a tuple of its groups' labelings, on the framing that concatenates
theirs, so per-framing counts are products of the groups' counts, and
the image of a labeling is the closure of the union of its groups' cut
label sets.  Image and rho fold the groups' label-set weights by the
fold that builds the subbirack lattice (core._join_fold), which closes
each distinct join once per birack in its join cache (core._joins), so a
c-unlink over n elements costs one search of n labelings and at most as
many states as subbiracks, not n^c labelings (the split case of counting
homomorphisms by decomposition, Diaz, Serna and Thilikos, "Counting
H-colorings of partial k-trees", 2002).  A value holds counts only, no
labeling.  Only a dump needs the labelings: _framed_rows searches d's
groups through the same _group_searches, builds each distinct (group
diagram, group framing)'s rows of labels once, and gives framing w the
product of its groups' rows, once it has counted that the dump holds at
most LABELING_DUMP_LIMIT labels.  labelings_by_framing wraps the rows in
Labeling, and the CLI's --labelings dump prints them without building
any.

The rho signature of an image sums its elements' terms s1^c1 s2^c2 t1^r1
t2^r2 from a table of the four statistics, counted along rows and
columns once per element of some image per fold (and per element of the
set for birack_polynomial and subbirack_polynomial).

normalize() subtracts the signature counts of the crossing-free unlink
with the same number of components, so unlinks normalize to zero, and
packages the difference through compute_invariant's step.

Framing vectors are always enumerated in lexicographic order, making
multiset forms and per-framing counts deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, product, starmap
from math import prod
from operator import add, eq, itemgetter

from . import core
from .core import FiniteBirack, is_subbirack, perm_cycles
# with_framing, enumerate_labelings and labeling_image are not called
# here; they stay because bench/spans.py binds these names on this module.
from .diagram import Diagram, framed_semiarc_sources, unlink, with_framing  # noqa: F401
from .errors import KindMismatch, LengthMismatch, NotASubbirack, SizeTooLarge
from .homsearch import (  # noqa: F401
    CutLabelings,
    Labeling,
    cut_labelings,
    enumerate_labelings,
    labeling_image,
)
from .poly import MultiPoly, NestedPoly

KINDS = ("integral", "writhe", "image", "rho")

# The most framing vectors of a diagram that is counted or dumped:
# compute_invariant keeps one count per vector of (Z_N)^c, so its time and
# memory grow as N^c.
FRAMING_LIMIT = 10**6

# The most labels the dumps of one link, or of a CLI batch, hold, one per
# semiarc of each framed labeling, all in memory at once: the 6-component
# unlink over a 10-element birack (10^6 labelings of 6 labels) takes 1.8 s
# of CPU and 215 MB peak RSS in labelings_by_framing (2-vCPU Xeon, Python 3.11).
LABELING_DUMP_LIMIT = 6 * 10**6


# ---------------------------------------------------------------------------
# Birack polynomials
# ---------------------------------------------------------------------------

def _statistics(b: FiniteBirack, elements) -> dict[int, tuple[tuple[str, int], ...]]:
    """The term key s1^c1 s2^c2 t1^r1 t2^r2 of each of elements, in
    canonical form (zero exponents dropped); each count is one C-level
    pass along a row or a column of B1 or B2, the columns transposed once."""
    rng = range(b.n)
    columns1, columns2 = core._transpose(b.b1), core._transpose(b.b2)
    table = {}
    for x in elements:
        table[x] = tuple((v, e) for v, e in (
            ("s1", sum(map(eq, b.b1[x], rng))),
            ("s2", sum(map(eq, columns2[x], rng))),
            ("t1", columns1[x].count(x)),
            ("t2", b.b2[x].count(x))) if e)
    return table


def _statistics_sum(table, elements) -> MultiPoly:
    """The sum of the table's term keys over elements."""
    return MultiPoly._of(dict(Counter(map(table.__getitem__, elements))))


def birack_polynomial(b: FiniteBirack) -> MultiPoly:
    """Sum of s1^c1 s2^c2 t1^r1 t2^r2 over every element."""
    rng = range(b.n)
    return _statistics_sum(_statistics(b, rng), rng)


def subbirack_polynomial(b: FiniteBirack, subset) -> MultiPoly:
    """The same sum restricted to a subbirack Y, statistics still taken
    against all of X (the polynomial records how Y embeds in X)."""
    sub = frozenset(subset)
    if not is_subbirack(b, sub):
        raise NotASubbirack(f"{sorted(sub)} is not closed under B and S")
    return _statistics_sum(_statistics(b, sub), sub)


# ---------------------------------------------------------------------------
# Framing-period labelings
# ---------------------------------------------------------------------------

def _framing_keys(cut: CutLabelings) -> list[tuple]:
    """The framing key of each cut labeling, in the search's order.

    A key holds one (residue, period) pair per component, and the labeling
    belongs to framing w exactly when w_i = residue_i mod period_i for
    every i.  Framing w_i appends m_i = (w_i - writhe_i) mod N positive
    kinks, which carry the tail label t to pi^m_i(t); that must be the
    head label h, so m_i is fixed modulo the length of t's pi-cycle.  The
    pair is None where h is not on t's cycle: the labeling lies on no
    framing.  Each component's pair is computed once per distinct (tail
    label, head label) its labelings have; an uncut component's tail is
    its head.
    """
    b, found = cut.birack, cut.assignments
    cycle, position, length = [0] * b.n, [0] * b.n, [0] * b.n
    for cyc in perm_cycles(b.pi):
        for i, x in enumerate(cyc):
            cycle[x], position[x], length[x] = cyc[0], i, len(cyc)
    columns = []
    for tail, head, writhe in zip(cut.tails, cut.heads, cut.diagram.writhe_vector):
        ends = list(zip(map(itemgetter(tail), found), map(itemgetter(head), found)))
        pair = {
            (t, h): ((writhe + position[h] - position[t]) % length[t], length[t])
            if cycle[t] == cycle[h] else None
            for t, h in set(ends)
        }
        columns.append(map(pair.__getitem__, ends))
    return list(zip(*columns)) if columns else [()] * len(found)


def _framings(key, N: int):
    """The framing vectors of a key, in lexicographic order."""
    return product(*(range(residue, N, period) for residue, period in key))


def _framed_rows(d: Diagram, b: FiniteBirack, held: int = 0) -> tuple[list, int]:
    """(w, the sorted label tuples of with_framing(d, w, N)'s labelings)
    over (Z_N)^c in lexicographic order, and held plus their labels.

    Each distinct (group diagram, group framing) of d's groups
    (_group_searches) has its rows built once, sorted, and framing w has
    their product, group by group (sorted unless groups interleave; then
    each row is put back in d's semiarc order).  Framed semiarc (s, h) of
    framed_semiarc_sources carries the label h half-kinks past that of s:
    alpha(pi^j(x)) for h = 2j + 1, pi^(j+1)(x) for h = 2j + 2.  Raises
    SizeTooLarge, before any row is built, when held (the labels of a
    batch's earlier dumps) and the rows would pass LABELING_DUMP_LIMIT;
    framings are counted in order until they do.
    """
    N = b.rank
    groups, subs, searches = _group_searches(d, b)
    buckets: dict[tuple, list] = {}  # (group diagram, its framing vector) -> its cut labelings
    for sub, cut in searches.items():
        for a, key in zip(cut.assignments, _framing_keys(cut)):
            if None not in key:
                for w in _framings(key, N):
                    buckets.setdefault((sub, w), []).append(a)
    # (w, each group's bucket key if w has labelings, w's framed semiarcs
    # if it has), the labels counted until they pass the bound
    framings = []
    labels = held
    for w in product(range(N), repeat=len(d.components)):
        keys = [(sub, tuple(w[i] for i in g)) for g, sub in zip(groups, subs)]
        count = prod(len(buckets.get(key, ())) for key in keys)
        sources = framed_semiarc_sources(d, w, N) if count else ()
        labels += count * len(sources)
        if labels > LABELING_DUMP_LIMIT:
            raise SizeTooLarge(f"the labelings of {'the batch' if held else 'every framing'} "
                               f"would hold more than {LABELING_DUMP_LIMIT} labels")
        framings.append((w, keys if count else [], sources))
    group: dict[int, tuple[int, int]] = {}  # d's semiarc -> (group, the group diagram's semiarc)
    for gi, (g, sub) in enumerate(zip(groups, subs)):
        for i, span in zip(g, sub.component_semiarcs):
            group.update((s, (gi, t)) for s, t in zip(d.component_semiarcs[i], span))
    steps = [list(range(b.n))]  # steps[h][x]: the label h half-kinks past x
    for _ in range(N - 1):
        steps += [[b.alpha[x] for x in steps[-1]], [b.pi[x] for x in steps[-1]]]
    built: dict[tuple, list] = {}  # bucket key -> its framed rows, sorted
    framed = []
    for w, keys, sources in framings:
        rows = [()] if keys else []
        ranks = [group[s][0] for s, _ in sources]  # the group of each framed semiarc
        for gi, key in enumerate(keys):
            if key not in built:
                columns = [map(steps[h].__getitem__, map(itemgetter(group[s][1]), buckets[key]))
                           for (s, h), r in zip(sources, ranks) if r == gi]
                built[key] = sorted(zip(*columns)) if columns else [()] * len(buckets[key])
            rows = list(starmap(add, product(rows, built[key])))
        place = _place(sorted(range(len(ranks)), key=ranks.__getitem__))
        framed.append((w, sorted(map(place, rows)) if place else rows))
    return framed, labels


def labelings_by_framing(
    d: Diagram, b: FiniteBirack
) -> list[tuple[tuple[int, ...], list[Labeling]]]:
    """(w, labelings of with_framing(d, w, N)) over (Z_N)^c in lexicographic
    order; _framed_rows says how."""
    return [(w, list(map(Labeling, rows))) for w, rows in _framed_rows(d, b)[0]]


# ---------------------------------------------------------------------------
# The four invariants
# ---------------------------------------------------------------------------

def phi_integral(d: Diagram, b: FiniteBirack) -> int:
    """Total labelings over one full framing period."""
    return compute_invariant(d, b, "integral").value


def phi_writhe(d: Diagram, b: FiniteBirack) -> MultiPoly:
    """Sum of count(w) * q^w over the framing period."""
    return compute_invariant(d, b, "writhe").value


def phi_image(d: Diagram, b: FiniteBirack) -> MultiPoly:
    """Sum of z^(image size) over every labeling in the framing period."""
    return compute_invariant(d, b, "image").value


def phi_rho(d: Diagram, b: FiniteBirack) -> NestedPoly:
    """Sum of z^(subbirack polynomial of the image) over every labeling."""
    return compute_invariant(d, b, "rho").value


# ---------------------------------------------------------------------------
# Packaged values (multiset forms, per-framing counts, normalization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantValue:
    """An invariant value with its multiset form and per-framing counts.

    kind: "integral" | "writhe" | "image" | "rho"
    value: int (integral), MultiPoly (writhe/image) or NestedPoly (rho)
    multiset: (signature, multiplicity) pairs sorted by signature, raw
      and normalized alike; signatures are framing vectors (writhe,
      lexicographic), image sizes (image, numeric) or canonical subbirack
      polynomial strings (rho, by code point).  The integral invariant,
      having no signature, uses the single pair ((), total).
    per_framing: (framing vector, labeling count) pairs in lexicographic
      order; for normalized values these are count differences.
    normalized: True when an unlink value has been subtracted.
    """

    kind: str
    value: int | MultiPoly | NestedPoly
    multiset: tuple[tuple[object, int], ...]
    per_framing: tuple[tuple[tuple[int, ...], int], ...]
    normalized: bool = False

    def value_string(self) -> str:
        return str(self.value)  # a polynomial's str is its canonical string


def _package(kind, counts: dict, per_framing, normalized=False) -> InvariantValue:
    """The value of kind, raw or normalized alike, from signature counts:
    zero counts dropped, the multiset sorted by signature and the value
    built from it.  Each signature gives one term, its key built in
    canonical form (rho signatures are canonical strings already)."""
    multiset = tuple(sorted((s, m) for s, m in counts.items() if m))
    value: int | MultiPoly | NestedPoly
    if kind == "integral":
        value = sum(m for _, m in multiset)
    elif kind == "writhe":
        names = [f"q{i}" for i in range(1, len(per_framing[0][0]) + 1)]
        value = MultiPoly._of({tuple(compress(zip(names, w), w)): m for w, m in multiset})
    elif kind == "image":
        value = MultiPoly._of({(("z", size),): m for size, m in multiset})
    else:
        value = NestedPoly._of(dict(multiset))
    return InvariantValue(kind, value, multiset, per_framing, normalized)


def _linked_groups(d: Diagram) -> list[list[int]]:
    """d's components grouped by the crossings they share (union-find),
    each group in increasing order and the groups by their first
    component."""
    if len(d.components) < 2:  # knots, mostly: no union-find on that path
        return [list(range(len(d.components)))]
    root = list(range(len(d.components)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for cr in d.crossings.values():
        root[find(cr.over[0])] = find(cr.under[0])
    groups: dict[int, list[int]] = {}
    for i in range(len(root)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _place(order: list[int]):
    """The getter putting entry j of a tuple at position order[j]; None if order is sorted."""
    if order == sorted(order):
        return None
    return itemgetter(*sorted(range(len(order)), key=order.__getitem__))


def _group_searches(
    d: Diagram, b: FiniteBirack,
) -> tuple[list[list[int]], list[Diagram], dict[Diagram, CutLabelings]]:
    """d's linked groups, each group's diagram (its components of d, in
    order), and one cut search per distinct group diagram, keyed by it.

    Equal group diagrams, such as the c circles of a c-unlink, share one
    search.  A diagram of one group is its own group diagram.  Raises
    SizeTooLarge, before any search, when d has more than FRAMING_LIMIT
    framing vectors over b.
    """
    c, N = len(d.components), b.rank
    if N ** c > FRAMING_LIMIT:
        raise SizeTooLarge(
            f"{c} components over a rank-{N} birack have {N}^{c} framings, "
            f"more than {FRAMING_LIMIT}"
        )
    groups = _linked_groups(d)
    subs = [Diagram([d.components[i] for i in g]) for g in groups] if len(groups) > 1 else [d]
    return groups, subs, {sub: cut_labelings(sub, b) for sub in dict.fromkeys(subs)}


def _fold_search(cut: CutLabelings, images: bool) -> tuple[list[int], dict]:
    """The labeling count of each framing of cut's diagram, in lexicographic
    order, and, if images is set, the labelings over every framing by their
    cut label set.

    A framed labeling's labels lie between its cut labels and their
    closure (kink labels are alpha and pi images, and a set closed under B
    is closed under S and S^-1 by subbirack_closure's theorem), so its
    image is the closure of its cut label set, which compute_invariant's
    fold computes.
    """
    N = cut.birack.rank
    keys = _framing_keys(cut)
    counts: Counter = Counter()  # framing vector -> labelings
    for key, m in Counter(keys).items():
        if None not in key:
            for w in _framings(key, N):
                counts[w] += m
    per_framing = [counts[w] for w in product(range(N), repeat=len(cut.tails))]
    seeds: Counter = Counter()  # cut label set -> labelings over every framing
    if images:
        label_sets = map(frozenset, cut.assignments)
        for (key, labels), m in Counter(zip(keys, label_sets)).items():
            if None not in key:
                seeds[labels] += m * prod(N // period for _, period in key)
    return per_framing, seeds


def compute_invariant(d: Diagram, b: FiniteBirack, kind: str) -> InvariantValue:
    """Compute one invariant with multiset and per-framing bookkeeping.

    Raises SizeTooLarge, before any search, when d has more than
    FRAMING_LIMIT framing vectors over b.
    """
    if kind not in KINDS:
        raise KindMismatch(f"unknown invariant kind {kind!r}")
    images = kind in ("image", "rho")
    groups, subs, searches = _group_searches(d, b)
    folded = {sub: _fold_search(cut, images) for sub, cut in searches.items()}
    totals, seeds = zip(*map(folded.__getitem__, subs))
    # A labeling is one labeling per group, on every framing of each, so
    # counts multiply and images join across groups.
    framings = product(range(b.rank), repeat=len(d.components))
    per_framing = tuple(zip(framings, map(prod, product(*totals))))
    # those framing vectors list the components group by group; when
    # groups interleave, put them back in component order
    place = _place([i for g in groups for i in g])
    if place:
        per_framing = tuple(sorted((place(w), m) for w, m in per_framing))
    if kind == "integral":
        counts = {(): sum(m for _, m in per_framing)}
    elif kind == "writhe":
        counts = dict(per_framing)  # in lexicographic order, so sorting is linear
    else:
        counts = Counter()  # image size or MultiPoly -> labelings
        joined = core._join_fold(b, seeds)
        # each element's statistics once, for the elements of some image
        table = _statistics(b, frozenset().union(*joined)) if kind == "rho" else None
        for image, m in joined.items():
            counts[len(image) if kind == "image" else _statistics_sum(table, image)] += m
        if kind == "rho":
            counts = {p.canonical_string(): m for p, m in counts.items()}
    return _package(kind, counts, per_framing)


def normalize(v: InvariantValue, d: Diagram, b: FiniteBirack) -> InvariantValue:
    """Subtract the invariant of the unlink with d's component count.

    The c-unlink is c equal circles, so its value costs one search of
    b's n labels and a fold through the subbirack lattice, not a search
    of n^c labelings.  A diagram of no component is its own unlink, so
    its normalized value is zero.

    Raises LengthMismatch when v's framing vectors are not those of that
    unlink over b: v was computed for a diagram with another component
    count or over a birack of another rank.  Raises ValueError when v is
    normalized already.
    """
    if v.normalized:
        raise ValueError("the value is normalized already")
    c = len(d.components)
    base = compute_invariant(unlink(c) if c else Diagram([]), b, v.kind)
    if [w for w, _ in v.per_framing] != [w for w, _ in base.per_framing]:
        raise LengthMismatch(
            f"the value's framing vectors differ from those of the "
            f"{c}-component unlink over a rank-{b.rank} birack"
        )
    counts = Counter(dict(v.multiset))
    counts.subtract(dict(base.multiset))
    rows = zip(v.per_framing, base.per_framing)
    per_framing = tuple((w, m - bm) for (w, m), (_, bm) in rows)
    return _package(v.kind, counts, per_framing, normalized=True)
