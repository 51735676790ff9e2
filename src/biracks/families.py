"""Constructors for the standard birack families.

* constant_action(tau, rho): B(x, y) = (tau(y), rho(x)) for commuting
  bijections tau, rho.  The derived kink map is tau o rho.

* tsr_birack(n, t, s, r, m): the linear birack B(x, y) = (ty + sx, rx)
  on (Z_n)^m, defined whenever t and r are units and s^2 = (1 - tr)s
  (mod n).  Its kink map is multiplication by tr + s, so the rank is the
  multiplicative order of tr + s mod n.  Special cases: r = 1 gives
  (t, s)-racks, s = 1 - tr gives Alexander biquandles, both together
  give Alexander quandles, and (t, s, r) = (n - 1, 2, 1) gives the
  dihedral quandle.  It refuses more than core.ELEMENT_LIMIT elements.

* tau_sigma_rho_birack(cayley, tau, sigma, rho): the group-based birack
  B(x, y) = (tau(y) * sigma(x), rho(x)) for automorphisms tau, rho and an
  endomorphism sigma of a finite group G, with rho commuting with tau and
  sigma and the compatibility identity

      tau(sigma(y)) * sigma(z)
          = tau(sigma(rho(z))) * sigma(tau(y)) * sigma(sigma(z))

  holding for all y, z.  The kink map is x -> tau(rho(x)) * sigma(x).

Every constructor checks its arguments (integer parameters, and the
labels of maps and Cayley tables through core._entries) and refuses more
than core.ELEMENT_LIMIT elements before it builds a table.  It then builds
explicit tables and passes them to FiniteBirack, which checks their shape,
labels and axioms as it checks any caller's tables.  Last it checks its
family's closed-form kink map (and, for tsr, the rank) against the
tables, raising ConstructionError on a mismatch; the closed forms are
treated as checks, never as the source of truth.
"""

from __future__ import annotations

from math import gcd

from .core import ELEMENT_LIMIT, FiniteBirack, _bound, _entries, _int_params, compose_perms
from .errors import ConstructionError, SizeTooLarge


# ---------------------------------------------------------------------------
# Constant action biracks
# ---------------------------------------------------------------------------

def constant_action(tau, rho) -> FiniteBirack:
    """The birack B(x, y) = (tau(y), rho(x)) on a non-empty set; requires
    tau o rho = rho o tau."""
    tau, rho = tuple(tau), tuple(rho)
    n = len(tau)
    if len(rho) != n:
        raise ValueError("tau and rho must act on the same set")
    if not n:
        raise ValueError("tau and rho must act on a non-empty set")
    _bound(n, "the set tau and rho act on")
    for name, p in (("tau", tau), ("rho", rho)):
        if len(set(_entries(p, 0, n - 1))) != n:
            raise ValueError(f"{name} is not a permutation of 0..{n - 1}")
    if compose_perms(tau, rho) != compose_perms(rho, tau):
        raise ConstructionError("NonCommuting", "tau and rho do not commute")
    b1 = [[tau[y] for y in range(n)] for _ in range(n)]
    b2 = [[rho[x]] * n for x in range(n)]
    b = FiniteBirack(b1, b2)
    if b.pi != compose_perms(tau, rho):
        raise ConstructionError("KinkMapMismatch", "kink map is not tau o rho")
    return b


# ---------------------------------------------------------------------------
# (t, s, r) biracks on (Z_n)^m
# ---------------------------------------------------------------------------

def tsr_birack(n: int, t: int, s: int, r: int, m: int = 1) -> FiniteBirack:
    """Linear birack B(x, y) = (ty + sx, rx) componentwise on (Z_n)^m.

    Elements of (Z_n)^m are flattened by lexicographic index
    x0 + x1*n + ... + x_{m-1}*n^{m-1}.  Raises SizeTooLarge, before
    building any table, when n^m is above core.ELEMENT_LIMIT.
    """
    _int_params(n=n, t=t, s=s, r=r, m=m)
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if m < 1:
        raise ValueError("tuple length must be at least 1")
    # n >= 2, so n^m passes the limit once m reaches its bit length: the
    # check never builds n^m for a huge m
    if n ** min(m, ELEMENT_LIMIT.bit_length()) > ELEMENT_LIMIT:
        raise SizeTooLarge(
            f"(Z_{n})^{m} has {n}^{m} elements, more than {ELEMENT_LIMIT}"
        )
    t, s, r = t % n, s % n, r % n
    if gcd(t, n) != 1:
        raise ConstructionError("NotInvertible", f"t = {t} is not a unit mod {n}")
    if gcd(r, n) != 1:
        raise ConstructionError("NotInvertible", f"r = {r} is not a unit mod {n}")
    if (s * s - (1 - t * r) * s) % n != 0:
        raise ConstructionError(
            "IdealViolation", f"s^2 = {(s * s) % n} but (1 - tr)s = {((1 - t * r) * s) % n} mod {n}"
        )

    # k = tr + s is a unit, so its order below is finite.  With u = (tr)^-1,
    # s^2 = (1 - tr)s gives us^2 = us - s, so (1 - s)(1 + us) = 1 and
    # (tr + s) u (1 - s) = (1 + us)(1 - s) = 1 mod n.
    k = (t * r + s) % n

    # Element e has digits d_i(e) = (e // n^i) mod n.  Digit i of B1(x, y)
    # is (t d_i(y) + s d_i(x)) mod n, so row x of B1 is the sum over i of
    # the columns cols[i][s d_i(x) mod n], cols[i][a][y] = ((t d_i(y) + a) mod n) n^i.
    size = n ** m
    powers = [n ** i for i in range(m)]
    digits = [[(e // p) % n for e in range(size)] for p in powers]
    cols = [[[((t * d + a) % n) * p for d in ds] for a in range(n)]
            for ds, p in zip(digits, powers)]
    b1 = [list(map(sum, zip(*(col[(s * ds[x]) % n] for col, ds in zip(cols, digits)))))
          for x in range(size)]

    def times(c) -> list[int]:
        """The index of c x, componentwise, for every element x."""
        return [sum(((c * ds[x]) % n) * p for ds, p in zip(digits, powers))
                for x in range(size)]

    b2 = [[v] * size for v in times(r)]
    b = FiniteBirack(b1, b2)

    if b.pi != tuple(times(k)):
        raise ConstructionError("KinkMapMismatch", "kink map is not multiplication by tr + s")
    order = 1
    acc = k
    while acc != 1 % n:
        acc = (acc * k) % n
        order += 1
    if b.rank != order:
        raise ConstructionError("RankMismatch", "rank differs from the order of tr + s")
    return b


# ---------------------------------------------------------------------------
# Group-based (tau, sigma, rho) biracks
# ---------------------------------------------------------------------------

class CayleyGroup:
    """A finite group presented by its Cayley table (0-indexed), of at most
    core.ELEMENT_LIMIT elements."""

    def __init__(self, table):
        table = tuple(table)
        n = len(table)
        _bound(n, "the Cayley table")
        table = tuple(_entries(row, 0, n - 1) for row in table)
        if n == 0 or any(len(row) != n for row in table):
            raise ConstructionError("NotAGroup", "Cayley table must be square")
        self.n = n
        self.table = table

        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ConstructionError("NotAGroup", "no identity element")
        self.identity = identity

        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if table[x][y] == identity and table[y][x] == identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ConstructionError("NotAGroup", f"element {x} has no inverse")
        self.inverse = tuple(inv)

        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise ConstructionError(
                            "NotAGroup",
                            "multiplication is not associative",
                            witness=(x, y, z),
                        )

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def is_homomorphism(self, f) -> bool:
        return all(
            f[self.mul(x, y)] == self.mul(f[x], f[y])
            for x in range(self.n)
            for y in range(self.n)
        )


def tau_sigma_rho_birack(cayley, tau, sigma, rho) -> FiniteBirack:
    """Group birack B(x, y) = (tau(y) * sigma(x), rho(x)).

    cayley may be a CayleyGroup or a raw 0-indexed table.  tau and rho
    must be automorphisms, sigma an endomorphism; rho must commute with
    both, and the compatibility identity must hold for all pairs.
    """
    group = cayley if isinstance(cayley, CayleyGroup) else CayleyGroup(cayley)
    n = group.n
    tau, sigma, rho = (_entries(f, 0, n - 1) for f in (tau, sigma, rho))
    for name, f in (("tau", tau), ("sigma", sigma), ("rho", rho)):
        if len(f) != n:
            raise ValueError(f"{name} must list {n} images")
    for name, f in (("tau", tau), ("rho", rho)):
        if sorted(f) != list(range(n)) or not group.is_homomorphism(f):
            raise ConstructionError(
                "NotAutomorphism", f"{name} is not an automorphism"
            )
    if not group.is_homomorphism(sigma):
        raise ConstructionError("NotEndomorphism", "sigma is not an endomorphism")

    if compose_perms(rho, tau) != compose_perms(tau, rho):
        raise ConstructionError("NotCommuting", "rho and tau do not commute")
    if tuple(rho[sigma[x]] for x in range(n)) != tuple(sigma[rho[x]] for x in range(n)):
        raise ConstructionError("NotCommuting", "rho and sigma do not commute")

    mul = group.mul
    for y in range(n):
        for z in range(n):
            lhs = mul(tau[sigma[y]], sigma[z])
            rhs = mul(mul(tau[sigma[rho[z]]], sigma[tau[y]]), sigma[sigma[z]])
            if lhs != rhs:
                raise ConstructionError(
                    "Eq4Fails",
                    "compatibility identity fails",
                    witness=(y, z),
                )

    b1 = [[mul(tau[y], sigma[x]) for y in range(n)] for x in range(n)]
    b2 = [[rho[x]] * n for x in range(n)]
    b = FiniteBirack(b1, b2)

    expected_pi = tuple(mul(tau[rho[x]], sigma[x]) for x in range(n))
    if b.pi != expected_pi:
        raise ConstructionError("KinkMapMismatch", "kink map is not x -> tau(rho(x)) * sigma(x)")
    return b
