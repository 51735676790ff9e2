"""Exact multivariate integer polynomials with a canonical text form.

Two value types live here:

* MultiPoly -- integer-coefficient polynomials in named variables with
  nonnegative integer exponents.  Used for writhe-enhanced invariants
  (variables q1..qc), image-enhanced invariants (variable z) and the
  four-variable birack polynomials (s1, s2, t1, t2).

* NestedPoly -- formal integer combinations of terms z^P where each
  exponent P is itself a MultiPoly.  Used for polynomial-enhanced
  invariant values.  Exponents are stored by their canonical string so
  that equality, hashing and serialization are trivially stable.

Both are integer combinations of keyed terms and share one private base,
_Combination: the term dict, zero, addition, subtraction, negation,
equality, hashing and the signed " + " / " - " join of canonical_string.
Each subclass only normalizes, orders and renders its keys.

Canonical text grammar (also documented in the README):

  multipoly   := "0" | term (" + " term | " - " term)*
  term        := [coeff] factor*         -- coeff omitted when 1, at least
  factor      := var ["^" exponent]      -- one of coeff/factors present
  var         := letter+ digits*         -- e.g. q1, s2, t1, z
  nestedpoly  := "0" | nterm (" + " nterm | " - " nterm)*
  nterm       := [mult] "z^{" multipoly "}"

Variables are ordered q1 < q2 < ... < s1 < s2 < t1 < t2 < z, then any
other names lexicographically.  Monomials are ordered by total degree,
then by exponent vector, both descending, so the canonical string is
deterministic across runs and platforms.  A leading negative term is
rendered with a bare "-" prefix.
"""

from __future__ import annotations

import re
from collections import Counter

from .errors import ParseError

# Exponent vectors are stored as tuples of (variable, exponent) pairs,
# sorted by the canonical variable order, with zero exponents omitted.
ExponentKey = tuple[tuple[str, int], ...]

_FAMILY_ORDER = {"q": 0, "s": 1, "t": 2, "z": 3}

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def _var_key(name: str) -> tuple:
    """Sort key realizing q1 < q2 < ... < s1 < s2 < t1 < t2 < z < rest."""
    m = _VAR_RE.match(name)
    if m:
        letters, digits = m.group(1), m.group(2)
        if letters in _FAMILY_ORDER:
            return (_FAMILY_ORDER[letters], int(digits) if digits else 0, "")
    return (4, 0, name)


def _normalize_key(exponents) -> ExponentKey:
    items = dict(exponents).items()
    for v, e in items:
        if not isinstance(e, int):
            raise ValueError(f"exponent {e!r} for variable {v} is not an integer")
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {v}")
    return tuple(sorted(((v, e) for v, e in items if e), key=lambda ve: _var_key(ve[0])))


class _Combination:
    """Immutable integer combination of keyed terms, zero terms dropped.

    The shared core of MultiPoly and NestedPoly.  A subclass says how a
    key is normalized (_normalize), how keys are ordered in the canonical
    string (_ordered_keys) and how one term is rendered from its key and
    the magnitude of its coefficient (_render).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise ValueError(f"coefficient {coeff!r} is not an integer")
                if coeff == 0:
                    continue
                nkey = self._normalize(key)
                clean[nkey] = clean.get(nkey, 0) + coeff
                if clean[nkey] == 0:
                    del clean[nkey]
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict):
        """Wrap an already normalized term dict without a zero entry."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls):
        return cls()

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # ---------- arithmetic ----------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            new = merged.get(key, 0) + coeff
            if new == 0:
                merged.pop(key, None)
            else:
                merged[key] = new
        return self._of(merged)

    def __neg__(self):
        return self._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # ---------- canonical text ----------

    def canonical_string(self) -> str:
        if not self._terms:
            return "0"
        out: list[str] = []
        for key in self._ordered_keys():
            coeff = self._terms[key]
            if out:
                out.append(" - " if coeff < 0 else " + ")
            elif coeff < 0:
                out.append("-")
            out.append(self._render(key, abs(coeff)))
        return "".join(out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical_string()!r})"

    def __str__(self) -> str:
        return self.canonical_string()


class MultiPoly(_Combination):
    """Immutable multivariate polynomial with integer coefficients."""

    __slots__ = ()

    _normalize = staticmethod(_normalize_key)

    @staticmethod
    def constant(value: int) -> "MultiPoly":
        return MultiPoly({(): value})

    @staticmethod
    def monomial(exponents, coeff: int = 1) -> "MultiPoly":
        """Build coeff * prod(var^exp) from a {var: exp} mapping."""
        return MultiPoly({tuple(dict(exponents).items()): coeff})

    def coefficient(self, exponents) -> int:
        return self._terms.get(_normalize_key(exponents), 0)

    def total_sum(self) -> int:
        """Value at all variables = 1, i.e. the sum of the coefficients."""
        return sum(self._terms.values())

    def variables(self) -> list[str]:
        seen = {v for key in self._terms for v, _ in key}
        return sorted(seen, key=_var_key)

    def substitute_one(self, variable: str) -> "MultiPoly":
        """Set one variable to 1, merging the collapsed monomials."""
        merged: Counter = Counter()
        for key, coeff in self._terms.items():
            merged[tuple((v, e) for v, e in key if v != variable)] += coeff
        return MultiPoly(merged)

    def _ordered_keys(self) -> list[ExponentKey]:
        # Total degree, then the exponent vector over every variable
        # present anywhere in canonical order, both descending.
        variables = self.variables()

        def order(key):
            exponents = dict(key)
            return (sum(exponents.values()),
                    tuple(exponents.get(v, 0) for v in variables))

        return sorted(self._terms, key=order, reverse=True)

    @staticmethod
    def _render(key: ExponentKey, mag: int) -> str:
        factors = "".join(v if e == 1 else f"{v}^{e}" for v, e in key)
        if not factors:
            return str(mag)
        return factors if mag == 1 else f"{mag}{factors}"


class NestedPoly(_Combination):
    """Integer combination of z^P terms, P a canonical MultiPoly string."""

    __slots__ = ()

    @staticmethod
    def _normalize(exponent: "MultiPoly | str") -> str:
        if isinstance(exponent, MultiPoly):
            return exponent.canonical_string()
        # A string key is re-canonicalized so keys are always in normal form.
        return parse_multipoly(exponent).canonical_string()

    @staticmethod
    def single(exponent: "MultiPoly | str", mult: int = 1) -> "NestedPoly":
        return NestedPoly({exponent: mult})

    # ---------- specializations ----------

    def specialize_z_one(self) -> int:
        """Set z = 1: the total multiplicity."""
        return sum(self._terms.values())

    def specialize_exponents_one(self) -> MultiPoly:
        """Set every variable inside the exponents to 1.

        Each exponent polynomial collapses to an integer, leaving an
        ordinary polynomial in z.
        """
        collapsed: Counter = Counter()
        for exponent, mult in self._terms.items():
            collapsed[(("z", parse_multipoly(exponent).total_sum()),)] += mult
        return MultiPoly(collapsed)

    def _ordered_keys(self) -> list[str]:
        return sorted(self._terms)

    @staticmethod
    def _render(exponent: str, mag: int) -> str:
        return f"z^{{{exponent}}}" if mag == 1 else f"{mag}z^{{{exponent}}}"


# ---------------------------------------------------------------------------
# Parsing the canonical text back into values
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)?((?:[A-Za-z]+\d*(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"([A-Za-z]+\d*)(?:\^(\d+))?")


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level ' + ' / ' - ' separators; returns (sign, body)."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial text")
    out: list[tuple[int, str]] = []
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].lstrip()
    depth = 0
    current: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced braces in {text!r}")
        if depth == 0 and text.startswith(" + ", i):
            out.append((sign, "".join(current)))
            sign, current, i = 1, [], i + 3
            continue
        if depth == 0 and text.startswith(" - ", i):
            out.append((sign, "".join(current)))
            sign, current, i = -1, [], i + 3
            continue
        current.append(ch)
        i += 1
    if depth != 0:
        raise ParseError(f"unbalanced braces in {text!r}")
    out.append((sign, "".join(current)))
    return out


def parse_multipoly(text: str) -> MultiPoly:
    """Parse the canonical MultiPoly grammar (round-trips canonical_string)."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero()
    terms: Counter = Counter()
    for sign, body in _split_terms(text):
        body = body.strip()
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and not m.group(2)):
            raise ParseError(f"bad polynomial term {body!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exponents: dict[str, int] = {}
        # group 2 is a run of _FACTOR_RE matches, so finditer reads it whole
        for fm in _FACTOR_RE.finditer(m.group(2)):
            var = fm.group(1)
            exp = int(fm.group(2)) if fm.group(2) else 1
            exponents[var] = exponents.get(var, 0) + exp
        terms[tuple(exponents.items())] += sign * coeff
    return MultiPoly(terms)


def parse_nestedpoly(text: str) -> NestedPoly:
    """Parse the canonical NestedPoly grammar (round-trips canonical_string)."""
    text = text.strip()
    if text == "0":
        return NestedPoly.zero()
    terms: Counter = Counter()
    for sign, body in _split_terms(text):
        body = body.strip()
        m = re.match(r"^(\d+)?z\^\{(.*)\}$", body, re.DOTALL)
        if not m:
            raise ParseError(f"bad nested term {body!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        terms[parse_multipoly(m.group(2))] += sign * mult
    return NestedPoly(terms)
