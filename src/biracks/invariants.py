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

All four kinds, with their multiset forms and per-framing counts, come
from one fold in compute_invariant; phi_* return its value.  The image
and the subbirack polynomial depend on a labeling only through the set
of labels it uses, so image and rho close each distinct label set once
and compute one signature per distinct image.

normalize() subtracts the same invariant of the crossing-free unlink
with the same number of components, so unlinks normalize to zero.

Framing vectors are always enumerated in lexicographic order, making
multiset forms and per-framing counts deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .core import FiniteBirack, is_subbirack
from .diagram import Diagram, unlink, with_framing
from .errors import KindMismatch, NotASubbirack
from .homsearch import Labeling, enumerate_labelings, labeling_image
from .poly import MultiPoly, NestedPoly

KINDS = ("integral", "writhe", "image", "rho")


# ---------------------------------------------------------------------------
# Birack polynomials
# ---------------------------------------------------------------------------

def _statistics_sum(b: FiniteBirack, elements) -> MultiPoly:
    rng = range(b.n)
    out = MultiPoly.zero()
    for x in elements:
        out = out + MultiPoly.monomial({
            "s1": sum(1 for y in rng if b.b1[x][y] == y),
            "s2": sum(1 for y in rng if b.b2[y][x] == y),
            "t1": sum(1 for y in rng if b.b1[y][x] == x),
            "t2": sum(1 for y in rng if b.b2[x][y] == x),
        })
    return out


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

def labelings_by_framing(
    d: Diagram, b: FiniteBirack
) -> list[tuple[tuple[int, ...], list[Labeling]]]:
    """(framing vector, labelings) over (Z_N)^c in lexicographic order."""
    N = b.rank
    c = len(d.components)
    out = []
    for w in product(range(N), repeat=c):
        out.append((w, enumerate_labelings(with_framing(d, w, N), b)))
    return out


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
    labelings: the labelings_by_framing survey the value was folded from,
      in tuples; None once normalized.  Equality and repr ignore it.
    """

    kind: str
    value: int | MultiPoly | NestedPoly
    multiset: tuple[tuple[object, int], ...]
    per_framing: tuple[tuple[tuple[int, ...], int], ...] | None
    normalized: bool = False
    labelings: tuple | None = field(default=None, compare=False, repr=False)

    def value_string(self) -> str:
        if isinstance(self.value, int):
            return str(self.value)
        return self.value.canonical_string()


def compute_invariant(d: Diagram, b: FiniteBirack, kind: str) -> InvariantValue:
    """Compute one invariant with multiset and per-framing bookkeeping."""
    if kind not in KINDS:
        raise KindMismatch(f"unknown invariant kind {kind!r}")
    survey = tuple((w, tuple(labs)) for w, labs in labelings_by_framing(d, b))
    per_framing = tuple((w, len(labs)) for w, labs in survey)
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
        # A labeling's image is the closure of the labels it uses, so each
        # distinct label set is closed once and each distinct image gets
        # one signature.
        uses = Counter(frozenset(lab.assignment) for _, labs in survey for lab in labs)
        sample = {frozenset(lab.assignment): lab for _, labs in survey for lab in labs}
        signature: dict[frozenset[int], object] = {}
        counts: Counter = Counter()
        for labels, m in uses.items():
            image = labeling_image(sample[labels], b)
            if image not in signature:
                signature[image] = (
                    len(image) if kind == "image"
                    else _statistics_sum(b, sorted(image)).canonical_string()
                )
            counts[signature[image]] += m
        multiset = tuple(sorted(counts.items()))
        if kind == "image":
            value = MultiPoly({(("z", size),): m for size, m in multiset})
        else:
            value = NestedPoly(dict(multiset))
    return InvariantValue(kind, value, multiset, per_framing, labelings=survey)


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
    """Subtract the invariant of the unlink with d's component count."""
    base = compute_invariant(unlink(len(d.components)), b, v.kind)
    value = v.value - base.value
    per_framing = None
    if v.per_framing is not None and len(v.per_framing) == len(base.per_framing):
        per_framing = tuple(
            (w, m - bm)
            for (w, m), (_, bm) in zip(v.per_framing, base.per_framing)
        )
    return InvariantValue(
        v.kind,
        value,
        _merge_multisets(v.multiset, base.multiset),
        per_framing,
        normalized=True,
    )
