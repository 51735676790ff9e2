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
rendered with a bare "-" prefix.  An exponent 1 is left out, except
after a name ending in a letter that another name follows: z times ab3
is "z^1ab3", as "zab3" would read as one name.  A name outside var
raises ValueError.

Both parsers read terms through one reader, _read_terms, which splits on
" + " / " - " outside braces.  Braces pair up one level deep (an exponent
is a multipoly), so nested braces are a parse error.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import itemgetter

from .errors import ParseError

# Exponent vectors are stored as tuples of (variable, exponent) pairs,
# sorted by the canonical variable order, with zero exponents omitted.
ExponentKey = tuple[tuple[str, int], ...]

_FAMILY_ORDER = {"q": 0, "s": 1, "t": 2, "z": 3}

_VAR_RE = re.compile(r"([A-Za-z]+)(\d*)")


def _var_key(name: str) -> tuple:
    """Sort key realizing q1 < q2 < ... < s1 < s2 < t1 < t2 < z < rest.
    ValueError for a name outside the grammar's letter+ digits*, whose
    text would not read back as that one variable."""
    m = _VAR_RE.fullmatch(name) if isinstance(name, str) else None
    if not m:
        raise ValueError(f"variable name {name!r} is not letters followed by digits")
    letters, digits = m.groups()
    if letters in _FAMILY_ORDER:
        return (_FAMILY_ORDER[letters], int(digits) if digits else 0, "")
    return (4, 0, name)


def _normalize_key(exponents) -> ExponentKey:
    keyed = []  # (_var_key(v), v, e) per variable of nonzero exponent
    for v, e in dict(exponents).items():
        order = _var_key(v)
        if not isinstance(e, int):
            raise ValueError(f"exponent {e!r} for variable {v} is not an integer")
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {v}")
        if e:
            keyed.append((order, v, e))
    keyed.sort(key=itemgetter(0))
    return tuple((v, e) for _, v, e in keyed)


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
        factors = "".join(v if e == 1 and not (v[-1:].isalpha() and i < len(key) - 1)
                          else f"{v}^{e}" for i, (v, e) in enumerate(key))
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

# A term ends at " + " / " - " or at the end; a braced exponent is read past.
_TERM_END_RE = re.compile(r"(\{[^{}]*\})| ([+-]) |$")
_BRACES_RE = re.compile(r"[^{}]*(?:\{[^{}]*\}[^{}]*)*")
_TERM_RE = re.compile(r"^(?=.)(\d+)?((?:[A-Za-z]+\d*(?:\^\d+)?)*)$")
_FACTOR_RE = re.compile(r"([A-Za-z]+\d*)(?:\^(\d+))?")
_NESTED_TERM_RE = re.compile(r"^(\d+)?z\^\{(.*)\}$", re.DOTALL)


def _read_terms(text: str, term_re: re.Pattern, kind: str):
    """Yield (sign, term_re match) per term of polynomial text, none for
    "0".  ParseError on empty text, nested or unpaired braces, a bad term."""
    text = text.strip()
    if text == "0":
        return
    if not text:
        raise ParseError("empty polynomial text")
    op, start = "+", 0
    if text.startswith("-"):
        op, text = "-", text[1:].lstrip()
    if not _BRACES_RE.fullmatch(text):
        raise ParseError(f"unbalanced braces in {text!r}")
    for end in _TERM_END_RE.finditer(text):
        if end.group(1):
            continue
        body = text[start:end.start()].strip()
        m = term_re.match(body)
        if not m:
            raise ParseError(f"bad {kind} term {body!r}")
        yield (-1 if op == "-" else 1), m
        op, start = end.group(2), end.end()


def parse_multipoly(text: str) -> MultiPoly:
    """Parse the canonical MultiPoly grammar (round-trips canonical_string)."""
    terms: Counter = Counter()
    for sign, m in _read_terms(text, _TERM_RE, "polynomial"):
        exponents: Counter = Counter()
        # group 2 is a run of _FACTOR_RE matches, so findall reads it whole
        for var, exp in _FACTOR_RE.findall(m.group(2)):
            exponents[var] += int(exp or 1)
        terms[tuple(exponents.items())] += sign * int(m.group(1) or 1)
    return MultiPoly(terms)


def parse_nestedpoly(text: str) -> NestedPoly:
    """Parse the canonical NestedPoly grammar (round-trips canonical_string)."""
    terms: Counter = Counter()
    for sign, m in _read_terms(text, _NESTED_TERM_RE, "nested"):
        terms[parse_multipoly(m.group(2))] += sign * int(m.group(1) or 1)
    return NestedPoly(terms)
