"""Finite biracks: verification, derived structure, table file I/O.

A birack is a set X = {0, ..., n-1} with an invertible map
B(x, y) = (B1(x, y), B2(x, y)) on X x X satisfying:

  * sideways invertibility: there is a unique invertible S with
    S(B1(x, y), x) = (B2(x, y), y) -- equivalent to every row
    y -> B1(x, y) and every column x -> B2(x, y) being bijections;
  * diagonal bijectivity: x -> S1(x, x), x -> S2(x, x) and the same for
    S^-1 are bijections of X;
  * the set-theoretic Yang-Baxter equation, componentwise
      B1(x, B1(y, z)) = B1(B1(x, y), B1(B2(x, y), z))
      B1(B2(x, B1(y, z)), B2(y, z)) = B2(B1(x, y), B1(B2(x, y), z))
      B2(B2(x, B1(y, z)), B2(y, z)) = B2(B2(x, y), z)
    It is checked in permutation form, as 3n^2 identities between
    compositions of two maps (_ybe_holds); the triple scan (_ybe_witness)
    runs only to name the first failing triple.

In diagram language B1(o, u) gives the new under-strand label and
B2(o, u) the new over-strand label when the strand labeled u passes
under the strand labeled o at a positive crossing.

One pass over the tables checks the axioms in that order and, when they
all hold, builds every derived map.  The rows are bytes, and every map
comes from them by inverses and compositions that run in C: the columns
of S and S^-1 from the inverses of the B1 rows and B2 columns, B^-1 from
the inverses of the S1 rows, and the kink structure from the diagonals
of S^-1.  The same inverses test those rows for bijectivity, one family
in one comparison: the inverse bytes.maketrans(p, ident)[:n] of a row p
is the identity off the image of p, so p o p^-1 = id exactly when p is
onto.  FiniteBirack keeps the byte rows; _transpose gives every column.
With D(x) = (x, x),

  alpha = (S2^-1 o D)^-1        pi = (S1^-1 o D) o alpha

pi is the label change through a positive kink and its order N (the
birack rank) is the framing period of labeling counts.  The axioms give
the kink relation S(pi(x), x) = (alpha(x), alpha(x)): a positive kink
with in-label x has through-label alpha(x) and out-label pi(x).  Also
pi = (S1 o D) o (S2 o D)^-1.  Both are theorems, checked by the tests
rather than at construction.

Labels fit in a byte, so a birack has at most ELEMENT_LIMIT (256)
elements; _analyze, the table file loaders, the family constructors and
parse_cycles refuse more, through _bound.  _analyze checks the tables'
shape and labels on the same byte rows, so FiniteBirack and verify_axioms
check every table alike, whoever built it.

Subbiracks: _close is the semi-naive closure under B, called only by
_join_fold, the one fold of weighted seed sets through their lattice, for
subbirack_closure, all_subbiracks, classify and invariants.  The fold keeps
its joins in a cache per birack (_joins), shared across calls, requests
and threads and bounded in biracks (_BIRACKS_KEPT, 16) and in entries per
birack (_JOIN_LABELS // n); full, it holds at most about 50 MB.

Matrix file convention
----------------------
An n-element birack is stored as the block matrix [B1 | B2]: n rows of
2n entries, 1-indexed.  Row i, column j of the left block holds
B1(x_j, x_i) (note the transposition: the row is the *second* argument)
and row i, column j of the right block holds B2(x_i, x_j).  This is the
convention the worked example tables in the biquandle literature follow,
and it is pinned by this package's acceptance tests.

One loader reads matrix, Cayley and map files: _label_rows looks each
token up in one table of the spellings "1".."n", which checks it and
gives its 0-indexed label in one pass.  A token spelled otherwise sends
the file down the integer route (int() per token, then _entries per
row), which names the error, or reads a spelling such as 01 or +1 as
int() does.
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import lcm
from operator import getitem, itemgetter

from .errors import AxiomViolation, ParseError, SizeTooLarge

Perm = tuple[int, ...]
Table = tuple[bytes, ...]  # a FiniteBirack table: table[x] is bytes, table[x][y] an int

# The most elements a birack may have.  Labels then fit in a byte, so
# _analyze holds every row as bytes and composes rows with bytes.translate.
# The table file loaders, the family constructors and parse_cycles refuse
# more before building anything.
ELEMENT_LIMIT = 256


def _bound(n: int, subject: str) -> None:
    """SizeTooLarge when n, the element count of subject, is above
    ELEMENT_LIMIT."""
    if n > ELEMENT_LIMIT:
        raise SizeTooLarge(f"{subject} has {n} elements, more than {ELEMENT_LIMIT}")


# ---------------------------------------------------------------------------
# Permutation helpers
# ---------------------------------------------------------------------------

def compose_perms(p, q) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(q)))


# Rows of n labels as bytes.  A row p is the map x -> p[x], and with
# ident = _IDENTITY[:n] and pad = _IDENTITY[n:], p + pad is its
# bytes.translate table: q.translate(p + pad) is the row p o q, and
# bytes.maketrans(p, ident)[:n] the inverse of a permutation row p.  So
# compositions and inverses run in C.
_IDENTITY = bytes.maketrans(b"", b"")


def _transpose(rows: Table | list[bytes]) -> list[bytes]:
    """The columns of a square table of byte rows, as byte rows."""
    flat = b"".join(rows)
    return [flat[y::len(rows)] for y in range(len(rows))]


def _diagonal(rows: list[bytes]) -> bytes:
    """x -> rows[x][x]."""
    return bytes(map(getitem, rows, range(len(rows))))


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
    ValueError when n is not positive, SizeTooLarge above ELEMENT_LIMIT.
    """
    _int_params(n=n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _bound(n, "the permuted set")
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


def _entries(values, low: int, high: int) -> tuple:
    """values as a tuple; ValueError names the first entry that is not an
    int in low..high.  A file's labels are read through _label_rows' table
    instead, and birack tables are checked on byte rows by _analyze, which
    comes here through _tables only to name what is wrong."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"entry {v!r} is not an integer")
        if not low <= v <= high:
            raise ValueError(f"entry {v} out of range {low}..{high}")
    return values


def _int_params(**params) -> None:
    """ValueError naming the first parameter whose value is not an int."""
    for name, value in params.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _tables(b1, b2) -> None:
    """ValueError unless b1 and b2, tuples of rows, are n x n tables of
    labels in 0..n-1."""
    n = len(b1)
    if n == 0 or len(b2) != n:
        raise ValueError("tables must be non-empty and of equal size")
    tables = [[_entries(row, 0, n - 1) for row in t] for t in (b1, b2)]
    if any(len(row) != n for t in tables for row in t):
        raise ValueError("tables must be square")


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


def _pair_witness(b1: Table, b2: Table, n: int) -> tuple | None:
    """The first pair (x, y), in lexicographic order, that B maps to the
    image of an earlier pair (x0, y0), as ((x0, y0), (x, y)); None when B
    is injective on pairs, hence bijective."""
    first = {}
    for x in range(n):
        for y, image in enumerate(zip(b1[x], b2[x])):
            if image in first:
                return first[image], (x, y)
            first[image] = x, y
    return None


def _ybe_holds(b1, b2, s1, n: int) -> bool:
    """Whether B satisfies the Yang-Baxter equation, for bijective rows
    sigma_x = B1(x, .); b1, b2 and s1 are the rows of B1, B2 and S1 as
    bytes.

    With the derived operation x <| y = B1(y, S1(y, x)) and R_z = . <| z,
    the equation holds exactly when, for all x, y, z,

      (i)   sigma_x sigma_y = sigma_{B1(x, y)} sigma_{B2(x, y)}
      (ii)  R_z R_y = R_{y <| z} R_z
      (iii) sigma_x R_z = R_{sigma_x(z)} sigma_x

    (Etingof-Schedler-Soloviev, Duke Math. J. 1999; Soloviev, Math. Res.
    Lett. 2000).  Proof: write B(x, y) = (sigma_x y, tau_y x) with
    tau_y = B2(., y).  Then S1(sigma_x y, x) = tau_y x, so
    x <| sigma_x y = sigma_{sigma_x y} tau_y x.  On X^3 the bijection
    J(x, y, z) = (x, sigma_x y, sigma_x sigma_y z) gives

      J B12 (x, y, z) = (sigma_x y, x <| sigma_x y, sigma_{B1(x,y)} sigma_{B2(x,y)} z)
      D12 J (x, y, z) = (sigma_x y, x <| sigma_x y, sigma_x sigma_y z)

    for the derived map D(a, b) = (b, a <| b), so J B12 = D12 J exactly
    when (i) holds; (i) is component equation 1, so assume it.  Next
    J B23 J^-1 = C with C(a, b, c) = (a, c, b <|_a c), where
    b <|_a c = sigma_a(sigma_a^-1 b <| sigma_a^-1 c).  Conjugated by J,
    B12 B23 B12 = B23 B12 B23 becomes D12 C D12 = C D12 C, whose sides
    take (a, b, c) to

      (c, b <| c, (a <| b) <|_b c)  and  (c, b <|_a c, (a <| c) <|_c (b <|_a c)).

    The middle entries agree for all a, b, c exactly when every <|_a is
    <|, which is (iii); the last entries then agree exactly when
    (a <| b) <| c = (a <| c) <| (b <| c), which is (ii).

    (i) and (ii) alone say only that D solves the equation; (iii) is what
    makes J carry B23 to D23.  A constant action B(x, y) = (tau y, rho x)
    with tau rho != rho tau passes (i) and (ii), since every sigma_x is tau
    and every R_z is tau rho, and fails (iii) and the equation.

    Each family compares n blocks with n^2 rows gathered from the blocks
    of a second product.  A block, outer[a] composed with every inner row,
    is one bytes.translate of the joined inner rows, so the n^3 element
    steps run in C.  Each block of the second product is split into its
    rows once (struct), its rows are gathered by reference (itemgetter),
    and the gathered rows of a block are joined and compared with it in
    one step; no row is sliced out on its own.
    """
    if n == 1:  # the one table B(0, 0) = (0, 0); itemgetter(x) gives no tuple
        return True
    pad = _IDENTITY[n:]
    split = struct.Struct(f"{n}s" * n).unpack  # a block's n rows
    sigma_t = [p + pad for p in b1]  # rows as translation tables
    right = [q.translate(p) for p, q in zip(sigma_t, s1)]  # R_z = sigma_z S1(z, .)
    right_t = [p + pad for p in right]

    def products(outer, inner):
        """The blocks, one at a time: block a holds outer[a] o inner[b] as
        its row b, for every b; outer holds translation tables."""
        return map(b"".join(inner).translate, outer)

    def agree(lhs, gathered) -> bool:
        """Whether block a of lhs is the join of the rows gathered[a], for
        all a."""
        return all(map(bytes.__eq__, lhs, map(b"".join, gathered)))

    def row_a(rhs, outer):
        """For each a, row a of block outer[a][b] of rhs, for every b."""
        columns = zip(*map(split, rhs))  # row a of every block, for each a
        return (itemgetter(*p)(c) for p, c in zip(outer, columns))

    # A family's blocks are dropped before the next family's are built.
    # (i), at (x, y): row B2(x, y) of block B1(x, y).
    ss = list(products(sigma_t, b1))
    blocks = list(map(split, ss))
    if not agree(ss, (map(getitem, itemgetter(*p)(blocks), q) for p, q in zip(b1, b2))):
        return False
    del ss, blocks
    rr = list(products(right_t, right))
    if not agree(rr, row_a(rr, right)):  # (ii), at (z, y)
        return False
    del rr
    # (iii), at (x, z)
    return agree(products(sigma_t, right), row_a(products(right_t, b1), b1))


def _analyze(b1, b2):
    """Check that b1 and b2 are n x n tables of labels in 0..n-1, then run
    every axiom check in one pass; return (report, derived-or-None).
    ValueError from _tables names a bad shape or entry; SizeTooLarge comes
    after it, for more than ELEMENT_LIMIT elements.

    The check runs on the byte rows the axioms use: every row has n bytes
    and deleting the bytes 0..n-1 from the joined rows leaves nothing.
    Rows become tuples first, so a row that is an int raises TypeError
    instead of becoming that many zero bytes.  Past that input guard only
    the byte rows are read.

    derived is (B1, B2, B1^-1, B2^-1, S1, S2, S1^-1, S2^-1) as the tuples
    of byte rows FiniteBirack stores (so a label given as an object with
    __index__ is held as the int it indexes), then the kink maps alpha and
    pi as tuples of int.  Each axiom is recorded in
    _AXIOM_ORDER; when the sideways or diagonal check fails, the axioms
    after it need the structure it was meant to provide and are reported
    as skipped.

    Every map is built from rows of bytes, by inverting and composing them
    in C.  Once the B1 rows sigma_x and the B2 columns tau_y are bijective,
    S(u, x) = (B2(x, y), y) with y = sigma_x^-1(u): column x of S2 is
    sigma_x^-1 and column x of S1 is B2(x, .) o sigma_x^-1.  Likewise
    S^-1(v, y) = (B1(x, y), x) with x = tau_y^-1(v).

    B is then bijective exactly when every row x -> S1(u, x) is, because
    B is the composite

      (x, y) -> (x, sigma_x y) -> (sigma_x y, x) -> (u, S1(u, x)) for u = sigma_x y

    whose last map sends (u, x) to (u, B2(x, sigma_x^-1 u)) = B(x, y).
    The first two maps are bijections, and the last keeps u, so it is a
    bijection exactly when each of its rows is.  Its inverse gives
    B^-1(u, v) = (x, S2(u, x)) with x the preimage of v in row u of S1.

    Each family of rows (the B1 rows, the B2 columns, the S1 rows, the
    four diagonals) is tested for bijectivity against its inverses in one
    comparison (inverses).  The inverse of a row p is
    p^-1 = bytes.maketrans(p, ident)[:n], and p^-1 is the identity off
    the image of p, so p o p^-1 = id exactly when p is onto, and a map of
    X onto X is a bijection.  The per-row set scans, and the pair scan
    _pair_witness, run only when a family fails, to name its first
    failing row or colliding pairs.
    """
    b1, b2 = tuple(map(tuple, b1)), tuple(map(tuple, b2))
    n = len(b1)
    try:
        sigma, beta = list(map(bytes, b1)), list(map(bytes, b2))
    except (TypeError, ValueError):
        sigma = beta = []
    rows = sigma + beta
    if (len(rows) != 2 * n or set(map(len, rows)) != {n}
            or b"".join(rows).translate(None, _IDENTITY[:n])):
        _tables(b1, b2)
    _bound(n, "the candidate birack")
    rng = range(n)
    ident, pad, maketrans = _IDENTITY[:n], _IDENTITY[n:], bytes.maketrans
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

    def inverses(maps) -> list[bytes] | None:
        """The inverses of the rows p of maps, or None when one is not a
        bijection.  The inverse p^-1 = maketrans(p, ident)[:n] is the
        identity off the image of p, so p o p^-1 = id exactly when p is
        onto: the rows p o p^-1, joined, are compared once with as many
        copies of the identity."""
        inverse = [maketrans(p, ident)[:n] for p in maps]
        composed = b"".join([q.translate(p + pad) for p, q in zip(maps, inverse)])
        return inverse if composed == ident * len(maps) else None

    # Sideways map existence/uniqueness: B1 rows and B2 columns bijective.
    tau = _transpose(beta)
    sigma_inv, tau_inv = inverses(sigma), inverses(tau)
    sideways = bool(sigma_inv and tau_inv)

    # S and S^-1 built column by column and turned into rows, then
    # (x, y) -> (B1, B2) bijective on pairs read off the rows of S1, whose
    # inverses are the rows of B1^-1.
    b1inv = None
    if sideways:
        s1, s2, s1inv, s2inv = map(_transpose, (
            [q.translate(p + pad) for p, q in zip(beta, sigma_inv)], sigma_inv,
            [q.translate(p + pad) for p, q in zip(_transpose(sigma), tau_inv)], tau_inv))
        b1inv = inverses(s1)
    record(None if b1inv else _pair_witness(sigma, beta, n), "B{} = B{}")
    sideways_witness = None if sideways else next(itertools.chain(
        (("B1-row", x) for x in rng if len(set(sigma[x])) != n),
        (("B2-column", y) for y in rng if len(set(tau[y])) != n),
    ))
    if not record(sideways_witness, "{} {} is not a bijection"):
        return report(), None

    # Diagonal bijectivity of S and S^-1.
    names = ("S1 o diag", "S2 o diag", "S1^-1 o diag", "S2^-1 o diag")
    diag = [_diagonal(t) for t in (s1, s2, s1inv, s2inv)]
    diag_inv = inverses(diag)
    diag_witness = None if diag_inv else next(
        (name,) for name, mapping in zip(names, diag) if len(set(mapping)) != n)
    if not record(diag_witness, "{} is not a bijection"):
        return report(), None

    # Set-theoretic Yang-Baxter equation.  The permutation form decides a
    # pass; the triple scan names the first failing triple.
    if _ybe_holds(sigma, beta, s1, n):
        record(None)
    else:
        record(*_ybe_witness(sigma, beta, n))
    final = report()
    if not final.ok:
        return final, None

    # Kink structure: alpha = (S2^-1 o diag)^-1, pi = (S1^-1 o diag) o alpha.
    # B2^-1(u, v) = S2(u, B1^-1(u, v)).
    alpha = diag_inv[3]
    b2inv = [q.translate(p + pad) for p, q in zip(s2, b1inv)]
    derived = (
        *map(tuple, (sigma, beta, b1inv, b2inv, s1, s2, s1inv, s2inv)),
        tuple(alpha),
        tuple(alpha.translate(diag[2] + pad)),
    )
    return final, derived


def verify_axioms(b1, b2) -> ValidationReport:
    """Check candidate tables against every birack axiom.

    Failures are data, not errors: the report carries pass/fail per axiom
    with the first witness.  The report passes exactly when FiniteBirack
    would construct successfully from the same tables.  ValueError names
    the first bad shape or label, and SizeTooLarge means more than
    ELEMENT_LIMIT elements.
    """
    report, _ = _analyze(b1, b2)
    return report


# ---------------------------------------------------------------------------
# FiniteBirack
# ---------------------------------------------------------------------------

class FiniteBirack:
    """A verified finite birack with all derived structure.

    Tables use natural indexing: b1[x][y] = B1(x, y), b2[x][y] = B2(x, y),
    with elements 0-indexed (the file format is 1-indexed and transposes
    the B1 block; see the module docstring), at most ELEMENT_LIMIT of them.
    b1, b2, b1inv, b2inv, s1, s2, s1inv and s2inv are the byte rows
    _analyze builds, each table a tuple of n bytes (list(b1[x]) gives a
    list); alpha and pi are tuples of int.  The tables are checked as
    verify_axioms checks them, and the first failing axiom raises
    AxiomViolation.  Instances are immutable and safe to share between
    threads.
    """

    __slots__ = (
        "n", "b1", "b2", "b1inv", "b2inv",
        "s1", "s2", "s1inv", "s2inv",
        "alpha", "pi", "rank",
    )

    def __init__(self, b1, b2):
        report, derived = _analyze(b1, b2)
        if not report.ok:
            bad = report.first_failure
            raise AxiomViolation(bad.name, bad.witness, bad.detail)
        self.n = report.n
        (self.b1, self.b2, self.b1inv, self.b2inv, self.s1, self.s2,
         self.s1inv, self.s2inv, self.alpha, self.pi) = derived
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
        return self.pi == tuple(range(self.n))

    def is_rack(self) -> bool:
        """Whether B2(x, y) = x for all x, y."""
        return all(row.count(x) == self.n for x, row in enumerate(self.b2))

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
    _int_params(n=n)
    if n <= 0:
        raise ValueError("n must be positive")
    rows = [list(r) for r in block]
    if len(rows) != n or any(len(r) != 2 * n for r in rows):
        raise ValueError(f"expected {n} rows of {2 * n} entries")
    return FiniteBirack(*_split_block(n, [_labels(r, n) for r in rows]))


def _split_block(n: int, rows) -> tuple[tuple, tuple]:
    """(B1, B2) of the 0-indexed rows of a [B1 | B2] block.  Row i, col j
    of the left block is B1(x_j, x_i), of the right block B2(x_i, x_j)."""
    return tuple(itertools.islice(zip(*rows), n)), tuple(tuple(row[n:]) for row in rows)


def _labels(entries, n: int) -> list:
    """The 0-indexed labels of 1-indexed entries; ValueError names the
    first entry that is not an integer in 1..n."""
    return [v - 1 for v in _entries(entries, 1, n)]


def to_matrix(b: FiniteBirack) -> list[list[int]]:
    """The n x 2n block matrix [B1 | B2], 1-indexed (inverse of from_matrix)."""
    return [[v + 1 for v in col + row] for col, row in zip(_transpose(b.b1), b.b2)]


def format_matrix(b: FiniteBirack) -> str:
    """Matrix file text: first line n, then the block matrix rows."""
    width = len(str(b.n))
    text = [str(v + 1).rjust(width) for v in range(b.n)]  # each label, right-justified
    rows = (" ".join(map(text.__getitem__, col + row)) for col, row in zip(_transpose(b.b1), b.b2))
    return "\n".join([str(b.n), *rows]) + "\n"


def _content_lines(lines) -> list[str]:
    """The lines, unstripped, that are neither blank nor '#' comments."""
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _int_row(line: str) -> list[int]:
    try:
        return list(map(int, line.split()))
    except ValueError:
        raise ParseError(f"non-integer entry in row {line!r}") from None


def _int_rows(lines, count: int) -> list[list[int]]:
    """The integers of each line, each line checked to hold count of them."""
    rows = []
    for ln in lines:
        row = _int_row(ln)
        if len(row) != count:
            raise ParseError(f"expected {count} entries per row, got {len(row)}")
        rows.append(row)
    return rows


def _table_lines(text: str, noun: str) -> tuple[int, list[str]]:
    """The count line n of table file text and its n row lines, stripped;
    '#' lines are comments.  noun names the file kind in the errors."""
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
    return n, lines[1:]


def _label_rows(lines, n: int) -> list[list[int]] | None:
    """Each line's entries as 0-indexed labels, looked up in one table of
    the spellings "1".."n"; None when an entry is spelled any other way.
    Every file label from outside is read here."""
    label = {str(v + 1): v for v in range(n)}
    try:
        return [list(map(label.__getitem__, ln.split())) for ln in lines]
    except KeyError:
        return None


def _load_table(text: str, noun: str, width: int) -> tuple[int, list[list[int]]]:
    """The element count n of a table file and its n rows of width * n
    entries as 0-indexed labels.  '#' lines are comments; noun names the
    file kind in the errors.  ParseError on a malformed file, SizeTooLarge
    when n is above ELEMENT_LIMIT, ValueError naming the first entry that
    is not an integer in 1..n."""
    n, lines = _table_lines(text, noun)
    _bound(n, f"the {noun} file")
    rows = _label_rows(lines, n)
    if rows is None or any(len(row) != width * n for row in rows):
        # The integer route names the first bad row or entry, or reads a
        # label spelled otherwise, such as 01 or +1.
        rows = [_labels(row, n) for row in _int_rows(lines, width * n)]
    return n, rows


def _load_map(lines, n: int) -> list[int]:
    """The entries of a map file's lines, in order, as 0-indexed labels in
    0..n-1; '#' lines are comments.  ParseError on an entry that is not an
    integer, ValueError naming the first one outside 1..n."""
    lines = [ln.strip() for ln in _content_lines(lines)]
    rows = _label_rows(lines, n)
    if rows is None:
        return _labels([v for ln in lines for v in _int_row(ln)], n)
    return [v for row in rows for v in row]


def _read_lines(path, noun: str) -> list[str]:
    """The lines of a UTF-8 text file, as iterating it gives them.
    ParseError naming the file kind noun and the path when the file is
    not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{noun} file {path} is not UTF-8 text "
                         f"(byte {exc.object[exc.start]:#04x}: {exc.reason})") from None


def _matrix_tables(path) -> tuple[tuple, tuple]:
    """The checked 0-indexed tables (B1, B2) of a matrix file, axioms
    unchecked.  ParseError on a malformed file, one that is not UTF-8 or
    an entry outside 1..n, SizeTooLarge above ELEMENT_LIMIT elements."""
    text = "".join(_read_lines(path, "matrix"))
    try:
        return _split_block(*_load_table(text, "matrix", 2))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_matrix_text(text: str) -> tuple[int, list[list[int]]]:
    """Parse matrix file text -> (n, block rows); '#' lines are comments."""
    n, lines = _table_lines(text, "matrix")
    return n, _int_rows(lines, 2 * n)


def read_matrix_file(path) -> FiniteBirack:
    """The birack of a matrix file.  ParseError on a malformed file or an
    entry outside 1..n, SizeTooLarge above ELEMENT_LIMIT elements,
    AxiomViolation when the tables fail an axiom."""
    return FiniteBirack(*_matrix_tables(path))


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
    The closure holds int labels: a seed of True is label 1.  Once the
    labels are checked, the closure is _join_fold's over the one seed, so
    it shares b's join cache.
    """
    [closure] = _join_fold(b, ({frozenset(bytes(_entries(seed, 0, b.n - 1))): 1},))
    return closure


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


def _atoms(b: FiniteBirack):
    """The least element of each orbit of the kink maps alpha and pi,
    yielded lazily; nothing is closed.  all_subbiracks' docstring proves
    that the elements of an orbit share one closure."""
    seen = [False] * b.n
    for x in range(b.n):
        if seen[x]:
            continue
        seen[x] = True
        stack = [x]
        while stack:
            y = stack.pop()
            for z in (b.alpha[y], b.pi[y]):
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
        yield x


# Biracks whose joins are kept at once.  One pass of a benchmark workload
# joins over at most 10 distinct biracks (birack_tables; search_knots 4,
# enhanced_unlinks 2), so 16 keep a whole pass with room to spare.
_BIRACKS_KEPT = 16

# Labels whose joins one birack keeps: an n-element birack keeps at most
# _JOIN_LABELS // n entries, two per join (one per key order).  Scaling by
# n keeps the bytes level, since an entry's sets grow with n: a full cache
# of random joins holds at most 2.6 MB (n = 8) and 1.0 MB at n = 256
# (tracemalloc), where a flat 2^14 entries would hold 262 MB.  One pass of
# enhanced_unlinks keeps 308 entries over a 10-element birack, under a
# tenth of its 3,276.
_JOIN_LABELS = 1 << 15


@lru_cache(maxsize=_BIRACKS_KEPT)
def _joins(b: FiniteBirack) -> dict[tuple[frozenset[int], frozenset[int]], frozenset[int]]:
    """b's join cache, (closed set, seed set) -> closure of their union,
    in both key orders.  FiniteBirack hashes and compares by its tables, so
    a table read again from the same file finds it.  The key birack keeps
    its tables alive, 8 n^2 bytes (512 KB at n = 256), so the worst case
    is _BIRACKS_KEPT times 2.6 MB of joins and 512 KB of tables, under
    50 MB in all."""
    return {}


def _join_fold(b: FiniteBirack, parts) -> dict[frozenset[int], int]:
    """Fold parts, {seed set: weight} dicts, from {frozenset(): 1}: the
    closure of the union of one seed per part weighs the product of their
    weights, summed.  The states are closed sets.  A state that holds a
    seed keeps it; every other (state, seed) pair is closed through _close
    once, into b's join cache (_joins), which holds both key orders, as the
    join of a closed set with a seed is the closure of their union either
    way.  Every call, request and thread folding over a birack equal to b
    shares that cache; it is emptied before a join would take it past
    _JOIN_LABELS // n entries, which all_subbiracks over the twist
    tsr(16,1,0,1), whose 65,535 joins never repeat, does 64 times.  Each
    dict operation is atomic and every value is the closure of its key,
    so threads need no lock: two may close one pair twice, or each add a
    join past the bound before either empties the cache.
    """
    states: dict[frozenset[int], int] = {frozenset(): 1}
    joins = _joins(b)
    room = _JOIN_LABELS // b.n - 2  # entries that leave room for one more join
    for part in parts:
        folded: dict[frozenset[int], int] = {}
        for s, m in states.items():
            for t, k in part.items():
                if t <= s:
                    joined = s
                else:
                    joined = joins.get((s, t))
                    if joined is None:
                        if len(joins) > room:
                            joins.clear()
                        joined = joins[s, t] = joins[t, s] = _close(b, s, t - s)
                folded[joined] = folded.get(joined, 0) + m * k
        states = folded
    return states


def all_subbiracks(b: FiniteBirack) -> list[frozenset[int]]:
    """Every non-empty closed subset, sorted by size then lexicographically.

    Every closed set is the join (closure of the union) of the singleton
    closures it holds, so it is a state of _join_fold over one
    {empty set, {x}} part per x; the 2^n seeds are never enumerated.

    _atoms yields one x per orbit of the group generated by the kink
    maps alpha and pi, because all elements of an orbit share one closure.
    f(x) = S2^-1(x, x) and g(x) = S1^-1(x, x) lie in closure({x}) by
    subbirack_closure's theorem, so closure({f(x)}) lies in closure({x}).
    f is a bijection by the diagonal axiom: around a cycle of f the
    closures can only shrink and must come back, so they are equal on the
    cycle, and alpha = f^-1 has the same cycles.  pi(x) = g(alpha(x)) lies
    in closure({alpha(x)}) = closure({x}), and pi is a permutation, so
    its cycles share one closure too.  S is never read.
    """
    found = _join_fold(b, ({frozenset(): 1, frozenset((x,)): 1} for x in _atoms(b)))
    return sorted(filter(None, found), key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class BirackClass:
    is_biquandle: bool
    is_rack: bool
    is_quandle: bool
    is_semiquandle: bool
    is_simple: bool

    def flags(self) -> dict[str, bool]:
        return asdict(self)


def classify(b: FiniteBirack) -> BirackClass:
    """Special-case flags: biquandle (pi = id), rack (B2(x,y) = x),
    quandle (both), semiquandle (pi = id and B o B = id), and simple
    (no proper non-empty subbirack).  B is a bijection, so B o B = id
    exactly when B = B^-1: the tables are compared with their inverses.

    Simplicity closes the singleton of each representative _atoms yields,
    one per orbit of the kink maps alpha and pi, lazily, through
    subbirack_closure, and stops at the first proper closure.  That suffices:
    closure({x}) holds alpha^-1(x) = S2^-1(x, x), so closures are equal
    along the cycles of alpha, and then it holds
    pi(x) = S1^-1(alpha(x), alpha(x)), so they are equal along the cycles
    of pi (all_subbiracks has the full proof)."""
    biquandle = b.is_biquandle()
    rack = b.is_rack()
    involutory = b.b1 == b.b1inv and b.b2 == b.b2inv
    # A proper non-empty subbirack holds the closure of any of its
    # elements, so a birack is simple iff every singleton closes to it all.
    simple = all(len(subbirack_closure(b, (x,))) == b.n for x in _atoms(b))
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
    _int_params(n=n)
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
