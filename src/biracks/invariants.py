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

The framing period is surveyed with one search, not one per framing:
cut_labelings searches the diagram cut open at each component's closing
semiarc, and framing w appends m_i = (w_i - writhe_i) mod N positive
kinks to component i, which carry its tail label t to pi^m_i(t).  A cut
labeling is therefore a labeling of with_framing(d, w, N) exactly when
pi^m_i(tail label) = head label on every component, and the kink labels
follow from the tail label.  All four kinds, with their multiset forms
and per-framing counts, come from one fold of that survey in
compute_invariant; phi_* return its value.  Integral and writhe count the
framings of each cut labeling without building labelings.  The image and
the subbirack polynomial depend on a labeling only through the closure of
its labels, which is the closure of its cut labels, so image and rho
close each distinct cut label set once, weighted by its framings, and
compute one signature per distinct image.  framed_labelings writes the
labelings of every framed diagram out of the same survey on request.

normalize() subtracts the same invariant of the crossing-free unlink
with the same number of components, so unlinks normalize to zero.

Framing vectors are always enumerated in lexicographic order, making
multiset forms and per-framing counts deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product, repeat
from math import prod
from operator import itemgetter

from .core import FiniteBirack, is_subbirack, perm_cycles
# with_framing and enumerate_labelings are not called here; they stay
# because bench/spans.py binds both names on this module.
from .diagram import Diagram, framed_semiarc_sources, unlink, with_framing  # noqa: F401
from .errors import KindMismatch, LengthMismatch, NotASubbirack
from .homsearch import (  # noqa: F401
    CutLabelings,
    Labeling,
    cut_labelings,
    enumerate_labelings,
    labeling_image,
)
from .poly import MultiPoly, NestedPoly

KINDS = ("integral", "writhe", "image", "rho")


# ---------------------------------------------------------------------------
# Birack polynomials
# ---------------------------------------------------------------------------

def _statistics_sum(b: FiniteBirack, elements) -> MultiPoly:
    rng = range(b.n)
    return MultiPoly(Counter(
        (("s1", sum(1 for y in rng if b.b1[x][y] == y)),
         ("s2", sum(1 for y in rng if b.b2[y][x] == y)),
         ("t1", sum(1 for y in rng if b.b1[y][x] == x)),
         ("t2", sum(1 for y in rng if b.b2[x][y] == x)))
        for x in elements
    ))


def birack_polynomial(b: FiniteBirack) -> MultiPoly:
    """Sum of s1^c1 s2^c2 t1^r1 t2^r2 over every element."""
    return _statistics_sum(b, range(b.n))


def subbirack_polynomial(b: FiniteBirack, subset) -> MultiPoly:
    """The same sum restricted to a subbirack Y, statistics still taken
    against all of X (the polynomial records how Y embeds in X)."""
    sub = frozenset(subset)
    if not is_subbirack(b, sub):
        raise NotASubbirack(f"{sorted(sub)} is not closed under B and S")
    return _statistics_sum(b, sorted(sub))


# ---------------------------------------------------------------------------
# Framing-period labeling survey
# ---------------------------------------------------------------------------

def _framing_keys(cut: CutLabelings) -> list[tuple]:
    """The framing key of each cut labeling, in the survey's order.

    A key holds one (residue, period) pair per component, and the labeling
    belongs to framing w exactly when w_i = residue_i mod period_i for
    every i.  Framing w_i appends m_i = (w_i - writhe_i) mod N positive
    kinks, which carry the tail label t to pi^m_i(t); that must be the
    head label h, so m_i is fixed modulo the length of t's pi-cycle.  The
    pair is None where h is not on t's cycle: the labeling lies on no
    framing.
    """
    b, found = cut.birack, cut.assignments
    cycle, position, length = [0] * b.n, [0] * b.n, [0] * b.n
    for cyc in perm_cycles(b.pi):
        for i, x in enumerate(cyc):
            cycle[x], position[x], length[x] = cyc[0], i, len(cyc)
    uniform = len(set(length)) == 1  # every pi-cycle has one length (rank 1 included)
    columns = []
    for tail, head, writhe in zip(cut.tails, cut.heads, cut.diagram.writhe_vector):
        # uncut, every label gives the same pair: no pass over the survey
        if tail == head and uniform:
            columns.append(repeat((writhe % length[0], length[0]), len(found)))
            continue
        pair = {
            (t, h): ((writhe + position[h] - position[t]) % length[t], length[t])
            if cycle[t] == cycle[h] else None
            for t in range(b.n) for h in range(b.n)
        }
        ends = zip(map(itemgetter(tail), found), map(itemgetter(head), found))
        columns.append(map(pair.__getitem__, ends))
    return list(zip(*columns)) if columns else [()] * len(found)


def _framings(key, N: int):
    """The framing vectors of a key, in lexicographic order."""
    return product(*(range(residue, N, period) for residue, period in key))


def framed_labelings(
    cut: CutLabelings,
) -> list[tuple[tuple[int, ...], list[Labeling]]]:
    """(w, labelings of with_framing(d, w, N)) over (Z_N)^c, read off a cut
    search of d, in lexicographic order.

    A cut labeling labels d's semiarcs by d's own indices, so framed
    semiarc (s, h) of framed_semiarc_sources carries the label h
    half-kinks past cut label s: alpha(pi^j(x)) for h = 2j + 1 and
    pi^(j+1)(x) for h = 2j + 2.
    """
    d, b = cut.diagram, cut.birack
    N = b.rank
    steps = [list(range(b.n))]  # steps[h][x]: the label h half-kinks past x
    for _ in range(N - 1):
        steps += [[b.alpha[x] for x in steps[-1]], [b.pi[x] for x in steps[-1]]]
    by_key: dict[tuple, list[tuple[int, ...]]] = {}
    for a, key in zip(cut.assignments, _framing_keys(cut)):
        by_key.setdefault(key, []).append(a)
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for key, group in by_key.items():
        if None in key:
            continue
        for w in _framings(key, N):
            columns = [
                map(steps[h].__getitem__, map(itemgetter(s), group))
                for s, h in framed_semiarc_sources(d, w, N)
            ]
            found.setdefault(w, []).extend(zip(*columns))
    return [
        (w, [Labeling(f) for f in sorted(found.get(w, ()))])
        for w in product(range(N), repeat=len(d.components))
    ]


def labelings_by_framing(
    d: Diagram, b: FiniteBirack
) -> list[tuple[tuple[int, ...], list[Labeling]]]:
    """(framing vector, labelings) over (Z_N)^c in lexicographic order."""
    return framed_labelings(cut_labelings(d, b))


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
    multiset: (signature, multiplicity) pairs; signatures are framing
      vectors (writhe), image sizes (image) or canonical subbirack
      polynomial strings (rho).  The integral invariant, having no
      signature, uses the single pair ((), total).
    per_framing: (framing vector, labeling count) pairs in lexicographic
      order; for normalized values these are count differences.
    normalized: True when an unlink value has been subtracted.
    survey: the cut search the value was folded from (framed_labelings
      reads the labelings of every framing off it); None once normalized.
      Equality and repr ignore it.
    """

    kind: str
    value: int | MultiPoly | NestedPoly
    multiset: tuple[tuple[object, int], ...]
    per_framing: tuple[tuple[tuple[int, ...], int], ...]
    normalized: bool = False
    survey: CutLabelings | None = field(default=None, compare=False, repr=False)

    def value_string(self) -> str:
        if isinstance(self.value, int):
            return str(self.value)
        return self.value.canonical_string()


def compute_invariant(d: Diagram, b: FiniteBirack, kind: str) -> InvariantValue:
    """Compute one invariant with multiset and per-framing bookkeeping."""
    if kind not in KINDS:
        raise KindMismatch(f"unknown invariant kind {kind!r}")
    cut = cut_labelings(d, b)
    N = b.rank
    keys = _framing_keys(cut)
    counts: Counter = Counter()
    for key, m in Counter(keys).items():
        if None not in key:
            for w in _framings(key, N):
                counts[w] += m
    per_framing = tuple(
        (w, counts[w]) for w in product(range(N), repeat=len(d.components))
    )
    value: int | MultiPoly | NestedPoly
    if kind == "integral":
        value = sum(m for _, m in per_framing)
        multiset = (((), value),) if value else ()
    elif kind == "writhe":
        multiset = tuple((w, m) for w, m in per_framing if m)
        value = MultiPoly({
            tuple((f"q{i + 1}", wi) for i, wi in enumerate(w)): m for w, m in multiset
        })
    else:
        # A framed labeling's labels lie between its cut labels and their
        # closure (kink labels are alpha and pi images, and a set closed
        # under B is closed under S and S^-1 by subbirack_closure's
        # theorem), so its image is the closure of the cut label set: each
        # distinct set is closed once, each distinct image one signature.
        label_sets = list(map(frozenset, cut.assignments))
        uses: Counter = Counter()  # label set -> labelings over every framing
        for (key, labels), m in Counter(zip(keys, label_sets)).items():
            if None not in key:
                uses[labels] += m * prod(N // period for _, period in key)
        signature: dict[frozenset[int], object] = {}
        totals: Counter = Counter()  # image size or MultiPoly -> labelings
        for labels, m in uses.items():
            image = labeling_image(Labeling(tuple(labels)), b)
            if image not in signature:
                signature[image] = (
                    len(image) if kind == "image" else _statistics_sum(b, sorted(image))
                )
            totals[signature[image]] += m
        if kind == "image":
            multiset = tuple(sorted(totals.items()))
            value = MultiPoly({(("z", size),): m for size, m in multiset})
        else:
            multiset = tuple(sorted((p.canonical_string(), m) for p, m in totals.items()))
            value = NestedPoly(totals)
    return InvariantValue(kind, value, multiset, per_framing, survey=cut)


def _merge_multisets(a, bneg):
    counts: dict[object, int] = {}
    for key, m in a:
        counts[key] = counts.get(key, 0) + m
    for key, m in bneg:
        counts[key] = counts.get(key, 0) - m
        if counts[key] == 0:
            del counts[key]
    return tuple(sorted(counts.items(), key=lambda km: (repr(km[0]), km[1])))


def normalize(v: InvariantValue, d: Diagram, b: FiniteBirack) -> InvariantValue:
    """Subtract the invariant of the unlink with d's component count.

    Raises LengthMismatch when v's framing vectors are not those of that
    unlink over b: v was computed for a diagram with another component
    count or over a birack of another rank.
    """
    base = compute_invariant(unlink(len(d.components)), b, v.kind)
    if [w for w, _ in v.per_framing] != [w for w, _ in base.per_framing]:
        raise LengthMismatch(
            f"the value's framing vectors differ from those of the "
            f"{len(d.components)}-component unlink over a rank-{b.rank} birack"
        )
    return InvariantValue(
        v.kind,
        v.value - base.value,
        _merge_multisets(v.multiset, base.multiset),
        tuple((w, m - bm) for (w, m), (_, bm) in zip(v.per_framing, base.per_framing)),
        normalized=True,
    )
