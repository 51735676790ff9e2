"""Exception types shared across the library.

Everything raised for *domain* reasons (bad axioms, unparseable input,
mismatched arguments) derives from BirackError so that callers -- the CLI
in particular -- can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class BirackError(Exception):
    """Base class for all domain errors raised by this library."""


class AxiomViolation(BirackError):
    """A candidate operation table fails one of the birack axioms.

    reason is machine readable, one of:
      "NotPairBijective", "SidewaysNotUnique", "DiagonalNotBijective",
      "YangBaxterFails"
    witness holds the first counterexample found (contents depend on the
    axiom; Yang-Baxter failures carry the offending triple (x, y, z),
    0-indexed).
    """

    def __init__(self, reason: str, witness=None, detail: str = ""):
        self.reason = reason
        self.witness = witness
        self.detail = detail
        msg = reason if not detail else f"{reason}: {detail}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class ConstructionError(BirackError):
    """A birack-family constructor was fed parameters outside its contract.

    reason is machine readable, one of:
      "NonCommuting", "NotInvertible", "IdealViolation", "NotAGroup",
      "NotAutomorphism", "NotEndomorphism", "NotCommuting", "Eq4Fails",
      or, when a closed form disagrees with the built tables,
      "KinkMapMismatch", "RankMismatch"
    An entry that is not an element label (not an int, or out of range)
    raises ValueError before any of these checks.
    """

    def __init__(self, reason: str, detail: str = "", witness=None):
        self.reason = reason
        self.detail = detail
        self.witness = witness
        msg = reason if not detail else f"{reason}: {detail}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class ParseError(BirackError):
    """Input text (Gauss code, matrix file, polynomial) is malformed."""


class BadPairing(ParseError):
    """A Gauss code's crossing ids do not pair up O/U with equal signs."""


class LengthMismatch(BirackError):
    """A framing vector's length differs from the diagram's component count,
    or an invariant value's framing vectors differ from those it is
    normalized against."""


class SizeTooLarge(BirackError):
    """Exhaustive enumeration was requested beyond its supported size, a
    birack, table file, family birack or permutation would have more
    elements than core.ELEMENT_LIMIT, a link has more framing vectors than
    invariants.FRAMING_LIMIT, a --labelings dump would print more labels
    than the CLI's bound, or a count has more digits than Python converts
    to text."""


class NotASubbirack(BirackError):
    """A subset is not closed under the birack and sideways operations."""


class KindMismatch(BirackError):
    """compute_invariant() was given an unknown kind, maybe by normalize()."""
