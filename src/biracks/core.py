"""Finite biracks: verification, derived structure, matrix I/O.

A birack is a set X = {0, ..., n-1} with an invertible map
B(x, y) = (B1(x, y), B2(x, y)) on X x X satisfying:

  * sideways invertibility: there is a unique invertible S with
    S(B1(x, y), x) = (B2(x, y), y) -- equivalent to every row
    y -> B1(x, y) and every column x -> B2(x, y) being bijections;
  * diagonal bijectivity: x -> S1(x, x), x -> S2(x, x) and the same for
    S^-1 are bijections of X;
  * the set-theoretic Yang-Baxter equation, written componentwise as
      B1(x, B1(y, z)) = B1(B1(x, y), B1(B2(x, y), z))
      B1(B2(x, B1(y, z)), B2(y, z)) = B2(B1(x, y), B1(B2(x, y), z))
      B2(B2(x, B1(y, z)), B2(y, z)) = B2(B2(x, y), z)

In diagram language B1(o, u) gives the new under-strand label and
B2(o, u) the new over-strand label when the strand labeled u passes
under the strand labeled o at a positive crossing.

One pass over the tables checks the axioms in that order and, when they
all hold, builds every derived map: the pair check's sweep fills B^-1, S
and S^-1, and the diagonals of S^-1 give the kink structure: with
D(x) = (x, x),

  alpha = (S2^-1 o D)^-1        pi = (S1^-1 o D) o alpha

pi is the label change through a positive kink and its order N (the
birack rank) is the framing period of labeling counts.  The axioms give
the kink relation S(pi(x), x) = (alpha(x), alpha(x)): a positive kink
with in-label x has through-label alpha(x) and out-label pi(x).  Also
pi = (S1 o D) o (S2 o D)^-1.  Both are theorems, checked by the tests
rather than at construction.

Matrix file convention
----------------------
An n-element birack is stored as the block matrix [B1 | B2]: n rows of
2n entries, 1-indexed.  Row i, column j of the left block holds
B1(x_j, x_i) (note the transposition: the row is the *second* argument)
and row i, column j of the right block holds B2(x_i, x_j).  This is the
convention the worked example tables in the biquandle literature follow,
and it is pinned by this package's acceptance tests.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import lcm

from .errors import AxiomViolation, ParseError, SizeTooLarge

Perm = tuple[int, ...]
Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Permutation helpers
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def invert_perm(p) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def compose_perms(p, q) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(q)))


def perm_cycles(p) -> list[list[int]]:
    """Disjoint cycles (including fixed points), each starting at its min."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        cycles.append(cyc)
    return cycles


def perm_order(p) -> int:
    return lcm(*(len(c) for c in perm_cycles(p))) if p else 1


def cycle_string(p) -> str:
    """1-indexed cycle notation, fixed points omitted; identity is '()'."""
    parts = [
        "(" + " ".join(str(x + 1) for x in cyc) + ")"
        for cyc in perm_cycles(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, n: int) -> Perm:
    """Parse 1-indexed cycle notation like "(1 2)(3 4)" on {1..n}.

    Commas or spaces separate entries; points not mentioned are fixed.
    """
    perm = list(range(n))
    body = text.strip()
    if body in ("", "()", "id"):
        return tuple(perm)
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", body):
        raise ParseError(f"bad cycle notation {text!r}")
    chunks = re.findall(r"\(([^()]*)\)", body)
    touched: set[int] = set()
    for chunk in chunks:
        entries = [e for e in chunk.replace(",", " ").split() if e]
        try:
            points = [int(e) - 1 for e in entries]
        except ValueError:
            raise ParseError(f"bad cycle entry in {text!r}") from None
        if any(not 0 <= x < n for x in points):
            raise ParseError(f"cycle entry out of range 1..{n} in {text!r}")
        if len(set(points)) != len(points) or touched & set(points):
            raise ParseError(f"repeated point in cycle notation {text!r}")
        touched |= set(points)
        for i, x in enumerate(points):
            perm[x] = points[(i + 1) % len(points)]
    return tuple(perm)


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

AXIOM_PAIR = "NotPairBijective"
AXIOM_SIDEWAYS = "SidewaysNotUnique"
AXIOM_DIAGONAL = "DiagonalNotBijective"
AXIOM_YBE = "YangBaxterFails"
_AXIOM_ORDER = (AXIOM_PAIR, AXIOM_SIDEWAYS, AXIOM_DIAGONAL, AXIOM_YBE)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: tuple | None = None
    detail: str = ""

    def describe(self) -> str:
        line = f"{self.name}: {self.status}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass(frozen=True)
class ValidationReport:
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if c.status == "fail":
                return c
        return None

    def describe(self) -> str:
        head = f"candidate on {self.n} element(s): " + (
            "valid birack" if self.ok else "NOT a birack"
        )
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def _as_table(rows) -> Table:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _check_shape(b1, b2) -> int:
    n = len(b1)
    if n == 0 or len(b2) != n:
        raise ValueError("tables must be non-empty and of equal size")
    for t in (b1, b2):
        for row in t:
            if len(row) != n:
                raise ValueError("tables must be square")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} out of range 0..{n - 1}")
    return n


def _ybe_witness(b1: Table, b2: Table, n: int) -> tuple[tuple | None, str]:
    """The first triple (x, y, z), in lexicographic order, that breaks a
    component equation of the Yang-Baxter equation, with "component
    equation k" naming it; (None, "") when all n^3 triples satisfy it."""
    rng = range(n)
    for x in rng:
        for y in rng:
            b1xy = b1[x][y]
            b2xy = b2[x][y]
            for z in rng:
                m = b1[y][z]
                inner = b1[b2xy][z]
                if b1[x][m] != b1[b1xy][inner]:
                    return (x, y, z), "component equation 1"
                lhs_mid = b2[x][m]
                b2yz = b2[y][z]
                if b1[lhs_mid][b2yz] != b2[b1xy][inner]:
                    return (x, y, z), "component equation 2"
                if b2[lhs_mid][b2yz] != b2[b2xy][z]:
                    return (x, y, z), "component equation 3"
    return None, ""


def _analyze(b1: Table, b2: Table):
    """Run every axiom check in one pass; return (report, derived-or-None).

    derived is (B1^-1, B2^-1, S1, S2, S1^-1, S2^-1) as tables, all filled
    by the one sweep over the n^2 pairs, then the kink maps alpha and pi.
    Each axiom is recorded in _AXIOM_ORDER; when the sideways or diagonal
    check fails, the axioms after it need the structure it was meant to
    provide and are reported as skipped.
    """
    n = _check_shape(b1, b2)
    rng = range(n)
    checks: list[CheckResult] = []

    def record(witness, detail: str = "") -> bool:
        """Record the next axiom: a pass for witness None, else a fail whose
        detail is formatted with the witness's fields.  True on a pass."""
        name = _AXIOM_ORDER[len(checks)]
        if witness is None:
            checks.append(CheckResult(name, "pass"))
        else:
            checks.append(CheckResult(name, "fail", witness, detail.format(*witness)))
        return witness is None

    def report() -> ValidationReport:
        """The checks so far, the axioms not reached padded as skipped."""
        skipped = [CheckResult(name, "skipped") for name in _AXIOM_ORDER[len(checks):]]
        return ValidationReport(n, tuple(checks + skipped))

    # (x, y) -> (B1, B2) bijective on pairs.  The first preimage of each
    # image is recorded, which makes B^-1 when the check passes.  The same
    # sweep writes S(u, x) = (v, y) and S^-1(v, y) = (u, x); they are read
    # only once the sideways check passes, which makes each write unique.
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

    # Sideways map existence/uniqueness: B1 rows and B2 columns bijective.
    sideways_witness = next(itertools.chain(
        (("B1-row", x) for x in rng if len(set(b1[x])) != n),
        (("B2-column", y) for y in rng if len({b2[x][y] for x in rng}) != n),
    ), None)
    if not record(sideways_witness, "{} {} is not a bijection"):
        return report(), None

    # Diagonal bijectivity of S and S^-1.
    diag = {
        "S1 o diag": tuple(s1[x][x] for x in rng),
        "S2 o diag": tuple(s2[x][x] for x in rng),
        "S1^-1 o diag": tuple(s1inv[x][x] for x in rng),
        "S2^-1 o diag": tuple(s2inv[x][x] for x in rng),
    }
    diag_witness = next(
        ((name,) for name, mapping in diag.items() if len(set(mapping)) != n), None
    )
    if not record(diag_witness, "{} is not a bijection"):
        return report(), None

    # Set-theoretic Yang-Baxter equation, componentwise on all triples.
    record(*_ybe_witness(b1, b2, n))
    final = report()
    if not final.ok:
        return final, None

    # Kink structure: alpha = (S2^-1 o diag)^-1, pi = (S1^-1 o diag) o alpha.
    alpha = invert_perm(diag["S2^-1 o diag"])
    derived = (
        _as_table(b1inv),
        _as_table(b2inv),
        _as_table(s1),
        _as_table(s2),
        _as_table(s1inv),
        _as_table(s2inv),
        alpha,
        compose_perms(diag["S1^-1 o diag"], alpha),
    )
    return final, derived


def verify_axioms(b1, b2) -> ValidationReport:
    """Check candidate tables against every birack axiom.

    Failures are data, not errors: the report carries pass/fail per axiom
    with the first witness.  The report passes exactly when FiniteBirack
    would construct successfully from the same tables.
    """
    report, _ = _analyze(_as_table(b1), _as_table(b2))
    return report


# ---------------------------------------------------------------------------
# FiniteBirack
# ---------------------------------------------------------------------------

class FiniteBirack:
    """A verified finite birack with all derived structure.

    Tables use natural indexing: b1[x][y] = B1(x, y), b2[x][y] = B2(x, y),
    with elements 0-indexed (the file format is 1-indexed and transposes
    the B1 block; see the module docstring).  Instances are immutable and
    safe to share between threads.
    """

    __slots__ = (
        "n", "b1", "b2", "b1inv", "b2inv",
        "s1", "s2", "s1inv", "s2inv",
        "alpha", "pi", "rank",
    )

    def __init__(self, b1, b2):
        b1 = _as_table(b1)
        b2 = _as_table(b2)
        report, derived = _analyze(b1, b2)
        if not report.ok:
            bad = report.first_failure
            raise AxiomViolation(bad.name, bad.witness, bad.detail)
        self.n = report.n
        self.b1 = b1
        self.b2 = b2
        (self.b1inv, self.b2inv, self.s1, self.s2, self.s1inv, self.s2inv,
         self.alpha, self.pi) = derived
        self.rank = perm_order(self.pi)

    # ---------- maps ----------

    def apply(self, x: int, y: int) -> tuple[int, int]:
        """B(x, y)."""
        return self.b1[x][y], self.b2[x][y]

    def apply_inverse(self, u: int, v: int) -> tuple[int, int]:
        """B^-1(u, v)."""
        return self.b1inv[u][v], self.b2inv[u][v]

    def sideways(self, u: int, v: int) -> tuple[int, int]:
        """S(u, v)."""
        return self.s1[u][v], self.s2[u][v]

    def sideways_inverse(self, u: int, v: int) -> tuple[int, int]:
        """S^-1(u, v)."""
        return self.s1inv[u][v], self.s2inv[u][v]

    @property
    def kink_map(self) -> Perm:
        return self.pi

    def is_biquandle(self) -> bool:
        return self.pi == identity_perm(self.n)

    def is_rack(self) -> bool:
        return all(self.b2[x][y] == x for x in range(self.n) for y in range(self.n))

    # ---------- equality / hashing ----------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteBirack)
            and self.b1 == other.b1
            and self.b2 == other.b2
        )

    def __hash__(self) -> int:
        return hash((self.b1, self.b2))

    def __repr__(self) -> str:
        return f"FiniteBirack(n={self.n}, rank={self.rank})"


# ---------------------------------------------------------------------------
# Matrix I/O
# ---------------------------------------------------------------------------

def from_matrix(n: int, block) -> FiniteBirack:
    """Build a birack from an n x 2n block matrix [B1 | B2] of 1-indexed labels.

    Raises AxiomViolation (with the first witness) if the tables fail any
    axiom, ValueError on malformed input.
    """
    return FiniteBirack(*_block_tables(n, block))


def _block_tables(n: int, block) -> tuple[list[list[int]], list[list[int]]]:
    """The 0-indexed tables (B1, B2) of a [B1 | B2] block, axioms unchecked."""
    if n <= 0:
        raise ValueError("n must be positive")
    rows = [list(r) for r in block]
    if len(rows) != n or any(len(r) != 2 * n for r in rows):
        raise ValueError(f"expected {n} rows of {2 * n} entries")
    rows = [_labels(r, n) for r in rows]
    # Left block: row i, col j = B1(x_j, x_i); right: row i, col j = B2(x_i, x_j).
    b1 = [[rows[y][x] for y in range(n)] for x in range(n)]
    b2 = [[rows[x][n + y] for y in range(n)] for x in range(n)]
    return b1, b2


def _labels(entries, n: int) -> list:
    """The 0-indexed labels of 1-indexed entries; ValueError names the
    first entry outside 1..n."""
    for v in entries:
        if not 1 <= int(v) <= n:
            raise ValueError(f"entry {v} out of range 1..{n}")
    return [v - 1 for v in entries]


def to_matrix(b: FiniteBirack) -> list[list[int]]:
    """The n x 2n block matrix [B1 | B2], 1-indexed (inverse of from_matrix)."""
    n = b.n
    return [
        [b.b1[x][y] + 1 for x in range(n)] + [b.b2[y][x] + 1 for x in range(n)]
        for y in range(n)
    ]


def format_matrix(b: FiniteBirack) -> str:
    """Matrix file text: first line n, then the block matrix rows."""
    width = len(str(b.n))
    lines = [str(b.n)]
    for row in to_matrix(b):
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def _content_lines(lines) -> list[str]:
    """The lines, unstripped, that are neither blank nor '#' comments."""
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _int_row(line: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError(f"non-integer entry in row {line!r}") from None


def _parse_table(text: str, noun: str, width: int) -> tuple[int, list[list[int]]]:
    """Parse a count line n, then n rows of width * n integers; '#' lines
    are comments.  noun names the file kind in the errors."""
    lines = [ln.strip() for ln in _content_lines(text.splitlines())]
    if not lines:
        raise ParseError(f"empty {noun} file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the element count, got {lines[0]!r}") from None
    if n <= 0:
        raise ParseError("element count must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} {noun} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = _int_row(ln)
        if len(row) != width * n:
            raise ParseError(f"expected {width * n} entries per row, got {len(row)}")
        rows.append(row)
    return n, rows


def parse_matrix_text(text: str) -> tuple[int, list[list[int]]]:
    """Parse matrix file text -> (n, block rows); '#' lines are comments."""
    return _parse_table(text, "matrix", 2)


def read_matrix_file(path) -> FiniteBirack:
    with open(path, encoding="utf-8") as fh:
        n, block = parse_matrix_text(fh.read())
    try:
        return from_matrix(n, block)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subbiracks and classification
# ---------------------------------------------------------------------------

def subbirack_closure(b: FiniteBirack, seed) -> frozenset[int]:
    """Smallest superset of seed closed under B1 and B2 on pairs.

    Closure under B gives closure under S, B^-1 and S^-1.  For x in a
    finite Y closed under B, the injective row y -> B1(x, y) maps Y into
    Y, hence onto Y; so for a, x in Y the y with B1(x, y) = a lies in Y,
    and S(a, x) = (B2(x, y), y) lies in Y x Y.  B and S map Y x Y
    injectively into itself, hence onto, so B^-1 and S^-1 keep Y too.
    """
    seed = set(seed)
    for x in seed:
        if not 0 <= x < b.n:
            raise ValueError(f"seed element {x} out of range")
    return _close(b, set(), seed)


def _close(b: FiniteBirack, closed, frontier) -> frozenset[int]:
    """Closure of closed | frontier for a closed set closed.  Semi-naive
    fixpoint: each round starts with all pairs inside current - frontier
    applied, so it applies B1 and B2 only to pairs with a frontier
    element, in both orders; what is new is the next frontier."""
    current = {*closed, *frontier}
    while frontier:
        found = set()
        for x in frontier:
            for t in (b.b1, b.b2):
                row = t[x]
                for y in current:
                    found.add(row[y])
                    found.add(t[y][x])
        frontier = found - current
        current |= frontier
    return frozenset(current)


def is_subbirack(b: FiniteBirack, subset) -> bool:
    sub = frozenset(subset)
    return bool(sub) and subbirack_closure(b, sub) == sub


def all_subbiracks(b: FiniteBirack) -> list[frozenset[int]]:
    """Every non-empty closed subset, sorted by size then lexicographically.

    Every closed set is the join (closure of the union) of the singleton
    closures it holds, its atoms, so the search joins each found set with
    the atoms it lacks and never enumerates the 2^n seeds.
    """
    atoms = {subbirack_closure(b, {x}) for x in range(b.n)}
    found = set(atoms)
    pending = list(atoms)
    while pending:
        current = pending.pop()
        for atom in atoms:
            if not atom <= current:
                joined = _close(b, current, atom - current)
                if joined not in found:
                    found.add(joined)
                    pending.append(joined)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class BirackClass:
    is_biquandle: bool
    is_rack: bool
    is_quandle: bool
    is_semiquandle: bool
    is_simple: bool

    def flags(self) -> dict[str, bool]:
        return {
            "is_biquandle": self.is_biquandle,
            "is_rack": self.is_rack,
            "is_quandle": self.is_quandle,
            "is_semiquandle": self.is_semiquandle,
            "is_simple": self.is_simple,
        }


def classify(b: FiniteBirack) -> BirackClass:
    """Special-case flags: biquandle (pi = id), rack (B2(x,y) = x),
    quandle (both), semiquandle (pi = id and B o B = id), and simple
    (no proper non-empty subbirack)."""
    biquandle = b.is_biquandle()
    rack = b.is_rack()
    involutory = all(
        b.apply(*b.apply(x, y)) == (x, y)
        for x in range(b.n)
        for y in range(b.n)
    )
    # A proper non-empty subbirack holds the closure of any of its
    # elements, so a birack is simple iff every singleton closes to it all.
    simple = all(len(subbirack_closure(b, {x})) == b.n for x in range(b.n))
    return BirackClass(
        is_biquandle=biquandle,
        is_rack=rack,
        is_quandle=biquandle and rack,
        is_semiquandle=biquandle and involutory,
        is_simple=simple,
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small biracks
# ---------------------------------------------------------------------------

ENUMERATION_LIMIT = 3


def enumerate_biracks(n: int) -> list[FiniteBirack]:
    """All biracks on n elements (n <= 3), in a deterministic order.

    Candidates are the (n^2)! bijections of X x X, taken in lexicographic
    order of the flattened pair table; cheap bijectivity filters prune
    before the full axiom check, which runs once per surviving candidate.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUMERATION_LIMIT:
        raise SizeTooLarge(
            f"enumerate_biracks supports n <= {ENUMERATION_LIMIT}, got {n}"
        )
    rng = range(n)
    results = []
    for p in itertools.permutations(range(n * n)):
        b1 = [[p[x * n + y] // n for y in rng] for x in rng]
        if any(len(set(row)) != n for row in b1):
            continue
        b2 = [[p[x * n + y] % n for y in rng] for x in rng]
        if any(len({b2[x][y] for x in rng}) != n for y in rng):
            continue
        try:
            results.append(FiniteBirack(b1, b2))
        except AxiomViolation:
            pass
    return results
