"""Shared fixtures, reference data and independent oracles.

The oracles here deliberately avoid the library's derived machinery:
brute_force_labelings filters raw assignments through the bare crossing
rule (forward B only), rack_counting_oracle implements the classical
arc-labeling rack count from scratch, tsr_labeling_count counts the
labelings of a linear birack as the kernel of the crossing matrix mod n,
framed_reference searches the kinked diagram with_framing builds for
every framing (no cut search), and per_labeling_multiset closes every
labeling's image of that reference separately, sharing nothing between
labelings.  naive_closure applies B and S to every pair of the set in
every round (S too, so it does not lean on the closure theorem), and
naive_subbiracks joins every found subbirack with every other.
reference_analyze is the axiom check as one plain sweep over the n^2
pairs, which fills B^-1, S and S^-1 entry by entry.
unlink_closed_form counts the c-component unlink's labelings by image
through Moebius inversion over the subbirack lattice.  Acceptance and
property tests compare the production code against these.
random_gauss_code draws legal signed Gauss codes from a seeded generator
for differential tests.
"""

from __future__ import annotations

import functools
import random
import re
from itertools import chain, product
from math import gcd

import pytest

from biracks import (
    CheckResult,
    FiniteBirack,
    Diagram,
    Pass,
    enumerate_biracks,
    enumerate_labelings,
    from_matrix,
    subbirack_closure,
    subbirack_polynomial,
    tsr_birack,
    unlink,
    ValidationReport,
    with_framing,
)
from biracks.core import _AXIOM_ORDER, _ybe_holds, _ybe_witness

# ---------------------------------------------------------------------------
# Reference biracks
# ---------------------------------------------------------------------------

TWO_ELEMENT_MATRIX = [
    [1, 1, 2, 2],
    [2, 2, 1, 1],
]

CONSTANT_ACTION_4_MATRIX = [
    [2, 2, 2, 2, 1, 1, 1, 1],
    [1, 1, 1, 1, 2, 2, 2, 2],
    [3, 3, 3, 3, 4, 4, 4, 4],
    [4, 4, 4, 4, 3, 3, 3, 3],
]

TWO_ORBIT_4_MATRIX = [
    [2, 2, 1, 1, 2, 2, 1, 1],
    [1, 1, 2, 2, 1, 1, 2, 2],
    [3, 4, 3, 3, 4, 3, 4, 4],
    [4, 3, 4, 4, 3, 4, 3, 3],
]

TEN_ELEMENT_MATRIX = [
    [1, 3, 5, 2, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [5, 2, 4, 1, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [4, 1, 3, 5, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
    [3, 5, 2, 4, 1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
    [2, 4, 1, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
    [7, 7, 7, 7, 7, 6, 10, 9, 8, 7, 8, 8, 8, 8, 8, 6, 6, 6, 6, 6],
    [9, 9, 9, 9, 9, 8, 7, 6, 10, 9, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7],
    [6, 6, 6, 6, 6, 10, 9, 8, 7, 6, 9, 9, 9, 9, 9, 8, 8, 8, 8, 8],
    [8, 8, 8, 8, 8, 7, 6, 10, 9, 8, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9],
    [10, 10, 10, 10, 10, 9, 8, 7, 6, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
]


def dihedral8_cayley():
    """Order-8 group of a 4-fold rotation a and reflection b with ab = b a^-1."""

    def idx(i, j):
        return 2 * (i % 4) + (j % 2)

    table = [[0] * 8 for _ in range(8)]
    for e1 in range(8):
        i, j = divmod(e1, 2)
        for e2 in range(8):
            k, l = divmod(e2, 2)
            table[e1][e2] = idx(i + (-1) ** j * k, j + l)
    return table


# ---------------------------------------------------------------------------
# Reference Gauss codes (classical diagrams from standard tables)
# ---------------------------------------------------------------------------

UNKNOT = ""
TREFOIL = "O1+,U2+,O3+,U1+,O2+,U3+"
FIGURE_EIGHT = "O1+,U2-,O4-,U1+,O3+,U4-,O2-,U3+"       # closure of (s1 s2^-1)^2
CINQUEFOIL = "O1+,U2+,O3+,U4+,O5+,U1+,O2+,U3+,O4+,U5+"  # (2,5) torus knot
STEVEDORE = "O1+,U2+,U4-,O6+,U7-,O5-,U6+,U1+,O2+,O3+,U5-,O7-,U3+,O4-"  # 6_1
HOPF = "O1+,U2+;U1+,O2+"


def kink_chain(kinks: int) -> str:
    """An unknot with the given number of positive kinks, O1+,U1+,O2+,U2+,..."""
    return ",".join(f"O{i}+,U{i}+" for i in range(1, kinks + 1))


KNOT_CODES = {
    "unknot": UNKNOT,
    "trefoil": TREFOIL,
    "figure_eight": FIGURE_EIGHT,
    "cinquefoil": CINQUEFOIL,
    "stevedore": STEVEDORE,
}


# ---------------------------------------------------------------------------
# Seeded random signed Gauss codes
# ---------------------------------------------------------------------------

def random_gauss_code(rng: random.Random, crossings: int = 5, components: int = 2) -> str:
    """A legal signed Gauss code with random signs, up to crossings
    crossings and up to components components.

    The passes are shuffled, so any O/U pairing occurs, virtual ones
    included.  Half the codes are knots; the rest are cut at sorted random
    points into 2 to components components (into exactly components when
    that bound is at most 2, which keeps the default draws).  A component
    may be a crossing-free circle.
    """
    passes = []
    for cid in range(1, rng.randint(0, crossings) + 1):
        sign = rng.choice("+-")
        passes += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(passes)
    if rng.random() < 0.5:
        return ",".join(passes)
    count = rng.randint(2, components) if components > 2 else components
    cuts = [0, *sorted(rng.randint(0, len(passes)) for _ in range(count - 1)), len(passes)]
    return ";".join(",".join(passes[i:j]) for i, j in zip(cuts, cuts[1:]))


def insert_curl(code: str, rng: random.Random) -> str:
    """code with one curl of a fresh crossing, O k+,U k+ or U k+,O k+ (sign
    and order drawn), its two passes adjacent at a random position of a
    random component: a Reidemeister I move that changes that component's
    writhe by the sign."""
    components = [part.split(",") if part else [] for part in code.split(";")]
    fresh = max(map(int, re.findall(r"\d+", code)), default=0) + 1
    sign = rng.choice("+-")
    curl = [f"{role}{fresh}{sign}" for role in rng.choice(("OU", "UO"))]
    passes = rng.choice(components)
    at = rng.randint(0, len(passes))
    passes[at:at] = curl
    return ";".join(map(",".join, components))


def relabel_crossings(code: str, rng: random.Random) -> str:
    """The same code with its crossing ids mapped to random distinct ids."""
    ids = sorted({int(m) for m in re.findall(r"\d+", code)})
    fresh = dict(zip(ids, rng.sample(range(1, 10 * len(ids) + 2), len(ids))))
    return re.sub(r"\d+", lambda m: str(fresh[int(m.group())]), code)


@functools.cache
def enumerated_biracks(n: int) -> tuple[FiniteBirack, ...]:
    """enumerate_biracks(n), enumerated once per test run: n = 3 takes over
    a second, and several modules read every birack on 3 elements."""
    return tuple(enumerate_biracks(n))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def two_element() -> FiniteBirack:
    """Smallest birack that is neither a biquandle nor a rack."""
    return from_matrix(2, TWO_ELEMENT_MATRIX)


@pytest.fixture(scope="session")
def constant4() -> FiniteBirack:
    return from_matrix(4, CONSTANT_ACTION_4_MATRIX)


@pytest.fixture(scope="session")
def two_orbit4() -> FiniteBirack:
    """Rank-2 birack on 4 elements with two proper subbiracks."""
    return from_matrix(4, TWO_ORBIT_4_MATRIX)


@pytest.fixture(scope="session")
def ten_element() -> FiniteBirack:
    return from_matrix(10, TEN_ELEMENT_MATRIX)


@pytest.fixture(scope="session")
def trefoil_birack() -> FiniteBirack:
    """tsr(3,1,2,2): B(x,y) = (y+2x, 2x) on Z_3, a rank-1 biquandle."""
    return tsr_birack(3, 1, 2, 2)


@pytest.fixture(scope="session")
def test_biracks(two_element, two_orbit4, trefoil_birack) -> dict[str, FiniteBirack]:
    """A spread of small biracks: ranks 1/2/2/2, with and without subbiracks."""
    return {
        "two_element": two_element,
        "two_orbit4": two_orbit4,
        "tsr3122": trefoil_birack,
        "tsr4323": tsr_birack(4, 3, 2, 3),
        "ts_rack_z4": tsr_birack(4, 1, 2, 1),      # rank-2 rack
        "dihedral3": tsr_birack(3, 2, 2, 1),       # Fox 3-coloring quandle
    }


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_force_labelings(d: Diagram, b: FiniteBirack) -> list[tuple[int, ...]]:
    """Filter every raw assignment through the bare crossing rule.

    Positive crossing: under-out = B1(over-in, under-in) and
    over-out = B2(over-in, under-in).  Negative crossing: the same rule
    read backwards, B(over-out, under-out) = (under-in, over-in).
    No derived tables (S, inverses) are consulted.
    """
    out = []
    crossings = [(d.crossing_semiarcs(cid), cr.sign) for cid, cr in d.crossings.items()]
    for assign in product(range(b.n), repeat=d.semiarc_count):
        ok = True
        for (oi, ui, uo, oo), sign in crossings:
            if sign > 0:
                if (assign[uo] != b.b1[assign[oi]][assign[ui]]
                        or assign[oo] != b.b2[assign[oi]][assign[ui]]):
                    ok = False
                    break
            else:
                if (assign[ui] != b.b1[assign[oo]][assign[uo]]
                        or assign[oi] != b.b2[assign[oo]][assign[uo]]):
                    ok = False
                    break
        if ok:
            out.append(assign)
    return out


def framed_reference(d: Diagram, b: FiniteBirack) -> list[tuple[tuple[int, ...], list]]:
    """(w, labelings of with_framing(d, w, N)) over (Z_N)^c in lexicographic
    order, one search of each kinked diagram: the reference for the cut
    search's per-framing counts, multisets and framed labelings."""
    N = b.rank
    return [(w, enumerate_labelings(with_framing(d, w, N), b))
            for w in product(range(N), repeat=len(d.components))]


def tsr_labeling_count(d: Diagram, n: int, t: int, s: int, r: int) -> int:
    """Labelings of d by tsr_birack(n, t, s, r), from linear algebra mod n.

    B(x, y) = (ty + sx, rx) is linear, so each crossing read as
    B(x, y) = (z, w) gives the rows z - ty - sx = 0 and w - rx = 0, and
    the labelings are the kernel of that matrix over Z_n.  Unit pivots
    are eliminated Gauss-style (each fixes its semiarc, a factor 1); the
    rest is diagonalized by unimodular row and column operations, as in
    the Smith normal form, so the count is the product of gcd(d_i, n)
    over the nonzero diagonal entries d_i times n^(free semiarcs - their
    number).
    """
    rows = []
    for cid, cr in d.crossings.items():
        oi, ui, uo, oo = d.crossing_semiarcs(cid)
        x, y, z, w = (oi, ui, uo, oo) if cr.sign > 0 else (oo, uo, ui, oi)
        for terms in (((z, 1), (y, -t), (x, -s)), ((w, 1), (x, -r))):
            row: dict[int, int] = {}
            for col, v in terms:
                row[col] = (row.get(col, 0) + v) % n
            rows.append({col: v for col, v in row.items() if v})
    free = d.semiarc_count
    rows = [row for row in rows if row]
    while True:
        pick = next(((i, c) for i, row in enumerate(rows)
                     for c, v in row.items() if gcd(v, n) == 1), None)
        if pick is None:
            break
        i, c = pick
        pivot = rows.pop(i)
        inv = pow(pivot[c], -1, n)
        for row in rows:
            f = row.get(c, 0) * inv % n
            for col, v in pivot.items():
                nv = (row.get(col, 0) - f * v) % n
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        rows = [row for row in rows if row]
        free -= 1
    cols = sorted({c for row in rows for c in row})
    diagonal = _smith_diagonal([[row.get(c, 0) for c in cols] for row in rows], n)
    count = n ** (free - len(diagonal))
    for v in diagonal:
        count *= gcd(v, n)
    return count


def _smith_diagonal(a: list[list[int]], n: int) -> list[int]:
    """Nonzero diagonal entries of a mod n after unimodular row and column
    operations; a is consumed."""
    a = [[v % n for v in row] for row in a]
    diagonal = []
    while a and a[0]:
        entries = [(v, i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            break
        # move the smallest entry to the corner, then reduce its row and
        # column by it; the remainders are smaller, so this ends
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            for k in range(len(row)):
                row[k] = (row[k] - q * a[0][k]) % n
        for k in range(1, len(a[0])):
            q = a[0][k] // p
            for row in a:
                row[k] = (row[k] - q * row[0]) % n
        if not any(row[0] for row in a[1:]) and not any(a[0][1:]):
            diagonal.append(p)
            a = [row[1:] for row in a[1:]]
    return diagonal


def per_labeling_multiset(d: Diagram, b: FiniteBirack, kind: str,
                          normalized: bool = False) -> tuple:
    """Image or rho multiset with each labeling's image closed on its own.

    Every labeling of framed_reference gets its own subbirack_closure
    and signature (image size, or canonical subbirack polynomial string).
    Normalized ones subtract the unlink's counts and drop zeros.  Both
    sort by signature, the order InvariantValue documents.
    """
    counts = _per_labeling_counts(d, b, kind)
    if normalized:
        for key, m in _per_labeling_counts(unlink(len(d.components)), b, kind).items():
            counts[key] = counts.get(key, 0) - m
    return tuple(sorted((key, m) for key, m in counts.items() if m))


def _per_labeling_counts(d: Diagram, b: FiniteBirack, kind: str) -> dict:
    counts: dict = {}
    for _, labs in framed_reference(d, b):
        for lab in labs:
            image = subbirack_closure(b, set(lab.assignment))
            key = (len(image) if kind == "image"
                   else subbirack_polynomial(b, image).canonical_string())
            counts[key] = counts.get(key, 0) + 1
    return counts


def unlink_closed_form(b: FiniteBirack, c: int) -> dict:
    """Per-framing counts and the multiset of every kind for the
    c-component unlink over b, in closed form.

    A crossing-free component labeled x lies on framing w exactly when
    pi^w(x) = x, that is when the length of x's pi-cycle divides w, so
    per_framing(w) = prod_i fix(pi^(w_i)), and x lies on N / |cycle of x|
    of the N framings.  The labelings over every framing with every label
    in a closed set S number f(S) = (sum over x in S of N / |cycle of x|)^c,
    and a labeling's labels lie in S exactly when its image does, so the
    ones whose image is S number g(S) = f(S) - sum of g(T) over the closed
    T strictly inside S (Moebius inversion over naive_subbiracks, which
    shares no code with the joins of compute_invariant's fold).
    """
    N = b.rank
    cycle = []
    for x in range(b.n):
        y, length = b.pi[x], 1
        while y != x:
            y, length = b.pi[y], length + 1
        cycle.append(length)
    fixed = [sum(1 for x in range(b.n) if m % cycle[x] == 0) for m in range(N)]
    per_framing = []
    for w in product(range(N), repeat=c):
        count = 1
        for m in w:
            count *= fixed[m]
        per_framing.append((w, count))
    exact: dict[frozenset[int], int] = {}
    for sub in naive_subbiracks(b):  # by size, so every T inside S comes first
        exact[sub] = (sum(N // cycle[x] for x in sub) ** c
                      - sum(g for t, g in exact.items() if t < sub))
    image: dict = {}
    rho: dict = {}
    for sub, g in exact.items():
        image[len(sub)] = image.get(len(sub), 0) + g
        key = subbirack_polynomial(b, sub).canonical_string()
        rho[key] = rho.get(key, 0) + g
    return {
        "per_framing": tuple(per_framing),
        "integral": (((), sum(m for _, m in per_framing)),),
        "writhe": tuple((w, m) for w, m in per_framing if m),
        "image": tuple(sorted((k, m) for k, m in image.items() if m)),
        "rho": tuple(sorted((k, m) for k, m in rho.items() if m)),
    }


def rack_counting_oracle(d: Diagram, b: FiniteBirack) -> int:
    """Classical rack counting invariant via arc labelings.

    Valid only for racks (B2(x, y) = x): over-strand labels never change,
    so semiarcs merge into arcs split at under-passes, and each crossing
    imposes out-arc = B1(over-arc, in-arc).  Summed over writhe framings
    mod the rack rank, realized by adding k extra self-kinks worth of
    constraints pi^k; here instead we reuse kinked diagrams, keeping the
    oracle purely combinatorial.
    """
    assert b.is_rack()
    N = b.rank
    total = 0
    for w in product(range(N), repeat=len(d.components)):
        framed = with_framing(d, w, N)
        total += _rack_arc_count(framed, b)
    return total


def _rack_arc_count(d: Diagram, b: FiniteBirack) -> int:
    # Arc id per semiarc: semiarcs between consecutive under-passes share one arc.
    arc_of_semiarc: dict[int, int] = {}
    next_arc = 0
    for ci, comp in enumerate(d.components):
        k = len(comp)
        if k == 0:
            arc_of_semiarc[d.semiarc_after(ci, 0)] = next_arc
            next_arc += 1
            continue
        under_positions = [pi for pi, p in enumerate(comp) if p.role == "U"]
        if not under_positions:
            arc = next_arc
            next_arc += 1
            for pi in range(k):
                arc_of_semiarc[d.semiarc_after(ci, pi)] = arc
            continue
        # semiarcs after an under-pass start a new arc
        start_arcs = {pos: next_arc + i for i, pos in enumerate(under_positions)}
        next_arc += len(under_positions)
        for pi in range(k):
            # walk back to the most recent under-pass at or before pi
            q = pi
            while comp[q].role != "U":
                q = (q - 1) % k
            arc_of_semiarc[d.semiarc_after(ci, pi)] = start_arcs[q]

    count = 0
    for assign in product(range(b.n), repeat=next_arc):
        ok = True
        for cid, cr in d.crossings.items():
            oi, ui, uo, oo = d.crossing_semiarcs(cid)
            over = assign[arc_of_semiarc[oi]]
            a_in = assign[arc_of_semiarc[ui]]
            a_out = assign[arc_of_semiarc[uo]]
            if cr.sign > 0:
                if a_out != b.b1[over][a_in]:
                    ok = False
                    break
            else:
                if a_in != b.b1[over][a_out]:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def naive_closure(b: FiniteBirack, seed) -> frozenset[int]:
    """Closure of seed under B1, B2, S1, S2, every pair applied each round."""
    current = set(seed)
    while True:
        new = set()
        for x in current:
            for y in current:
                for v in (b.b1[x][y], b.b2[x][y], b.s1[x][y], b.s2[x][y]):
                    if v not in current:
                        new.add(v)
        if not new:
            return frozenset(current)
        current |= new


def naive_subbiracks(b: FiniteBirack) -> list[frozenset[int]]:
    """Every non-empty subbirack, each found one joined with every other."""
    found = {naive_closure(b, {x}) for x in range(b.n)}
    pending = list(found)
    while pending:
        current = pending.pop()
        for other in list(found):
            joined = naive_closure(b, current | other)
            if joined not in found:
                found.add(joined)
                pending.append(joined)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def braid_closure(n_strands: int, word: list[int]) -> Diagram:
    """Signed Gauss code of a braid closure.

    Letter +j is a positive crossing of strand positions j, j+1 with the
    strand from position j passing over; -j is its negative mirror.
    """
    seen: set[int] = set()
    comps = []
    for start in range(1, n_strands + 1):
        if start in seen:
            continue
        passes, p = [], start
        while True:
            seen.add(p)
            for li, letter in enumerate(word):
                j, sgn = abs(letter), (1 if letter > 0 else -1)
                if p == j:
                    passes.append(Pass(li + 1, "O" if sgn > 0 else "U", sgn))
                    p = j + 1
                elif p == j + 1:
                    passes.append(Pass(li + 1, "U" if sgn > 0 else "O", sgn))
                    p = j
            if p == start:
                break
        comps.append(passes)
    return Diagram(comps)


def reference_analyze(b1, b2):
    """(report, derived-or-None) as core._analyze gives them, from one
    sweep over the n^2 pairs that writes B^-1, S and S^-1 entry by entry,
    the first preimage of each image kept.  The Yang-Baxter equation is
    decided by core._ybe_holds, which tests/test_core.py checks against
    the triple scan."""
    n = len(b1)
    rng = range(n)
    checks = []

    def record(witness, detail=""):
        name = _AXIOM_ORDER[len(checks)]
        if witness is None:
            checks.append(CheckResult(name, "pass"))
        else:
            checks.append(CheckResult(name, "fail", witness, detail.format(*witness)))
        return witness is None

    def report():
        skipped = [CheckResult(name, "skipped") for name in _AXIOM_ORDER[len(checks):]]
        return ValidationReport(n, tuple(checks + skipped))

    b1inv, b2inv, s1, s2, s1inv, s2inv = ([[-1] * n for _ in rng] for _ in range(6))
    pair_witness = None
    for x in rng:
        for y in rng:
            u, v = b1[x][y], b2[x][y]
            if b1inv[u][v] < 0:
                b1inv[u][v], b2inv[u][v] = x, y
            elif pair_witness is None:
                pair_witness = ((b1inv[u][v], b2inv[u][v]), (x, y))
            s1[u][x], s2[u][x] = v, y
            s1inv[v][y], s2inv[v][y] = u, x
    record(pair_witness, "B{} = B{}")

    sideways_witness = next(chain(
        (("B1-row", x) for x in rng if len(set(b1[x])) != n),
        (("B2-column", y) for y in rng if len({b2[x][y] for x in rng}) != n),
    ), None)
    if not record(sideways_witness, "{} {} is not a bijection"):
        return report(), None

    diag = {
        "S1 o diag": [s1[x][x] for x in rng],
        "S2 o diag": [s2[x][x] for x in rng],
        "S1^-1 o diag": [s1inv[x][x] for x in rng],
        "S2^-1 o diag": [s2inv[x][x] for x in rng],
    }
    diag_witness = next(
        ((name,) for name, mapping in diag.items() if len(set(mapping)) != n), None)
    if not record(diag_witness, "{} is not a bijection"):
        return report(), None

    if _ybe_holds(*([bytes(row) for row in t] for t in (b1, b2, s1)), n):
        record(None)
    else:
        record(*_ybe_witness(b1, b2, n))
    final = report()
    if not final.ok:
        return final, None

    alpha = [0] * n
    for x, v in enumerate(diag["S2^-1 o diag"]):
        alpha[v] = x
    pi = [diag["S1^-1 o diag"][alpha[x]] for x in rng]
    tables = tuple(tuple(map(tuple, t)) for t in (b1inv, b2inv, s1, s2, s1inv, s2inv))
    return final, (*tables, tuple(alpha), tuple(pi))
