import random

import pytest

from biracks import (
    MultiPoly,
    NestedPoly,
    ParseError,
    parse_gauss,
    parse_multipoly,
    parse_nestedpoly,
    phi_writhe,
    tsr_birack,
)
from conftest import HOPF


def mono(coeff=1, **exps):
    return MultiPoly.monomial(exps, coeff)


class TestMultiPoly:
    def test_zero_and_constant(self):
        assert MultiPoly.zero().is_zero()
        assert MultiPoly.zero().canonical_string() == "0"
        assert MultiPoly.constant(4).canonical_string() == "4"
        assert MultiPoly.constant(0).is_zero()

    def test_subtraction_cancels(self):
        p = MultiPoly.constant(2) + mono(3, z=1) + mono(1, z=2)
        assert (p - p).is_zero()

    def test_multiset_generating_function(self):
        # the multiset {0,0,1,1,1,2} as a generating function
        p = MultiPoly.constant(2) + mono(3, z=1) + mono(1, z=2)
        assert p.canonical_string() == "z^2 + 3z + 2"
        assert p.total_sum() == 6

    def test_mixed_sign_terms(self):
        p = mono(4, q1=1, q2=1) - MultiPoly.constant(4)
        assert p.canonical_string() == "4q1q2 - 4"
        assert (-p).canonical_string() == "-4q1q2 + 4"

    def test_variable_ordering(self):
        p = mono(1, z=1) + mono(1, t2=1) + mono(1, s1=1) + mono(1, q2=1) + mono(1, q1=1)
        assert p.canonical_string() == "q1 + q2 + s1 + t2 + z"

    def test_degree_then_lex_descending(self):
        p = (mono(2, s1=4, s2=2, t1=3, t2=1)
             + mono(1, s1=2, t1=2, t2=2)
             + mono(1, s2=2, t1=2, t2=2))
        assert p.canonical_string() == "2s1^4s2^2t1^3t2 + s1^2t1^2t2^2 + s2^2t1^2t2^2"

    def test_equality_is_term_equality(self):
        assert mono(1, z=2) + mono(1, z=1) == mono(1, z=1) + mono(1, z=2)
        assert mono(1, z=2) != mono(1, z=3)
        assert hash(mono(2, z=1)) == hash(mono(1, z=1) + mono(1, z=1))

    def test_add_commutative_associative(self):
        a, b, c = mono(2, q1=1), mono(3, z=2), MultiPoly.constant(-1)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    def test_substitute_one(self):
        p = mono(4, q1=1, q2=1) + MultiPoly.constant(2)
        assert p.substitute_one("q1") == mono(4, q2=1) + MultiPoly.constant(2)
        assert p.substitute_one("q1").substitute_one("q2") == MultiPoly.constant(6)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.monomial({"z": -1})

    @pytest.mark.parametrize("terms,message", [
        ({(("z", 2.7),): 1}, "exponent 2.7 for variable z is not an integer"),
        ({(("z", "2"),): 1}, "exponent '2' for variable z is not an integer"),
        ({(("z", 2),): 1.9}, "coefficient 1.9 is not an integer"),
    ], ids=["float-exponent", "str-exponent", "float-coefficient"])
    def test_non_integer_rejected(self, terms, message):
        with pytest.raises(ValueError) as exc:
            MultiPoly(terms)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["x1y", "", "q-1", "q1\n", "a b", 1])
    @pytest.mark.parametrize("exponent", [0, 1, 2])
    def test_variable_name_outside_grammar_rejected(self, name, exponent):
        # each would render text that does not read back as that one variable
        message = f"variable name {name!r} is not letters followed by digits"
        for build in (lambda: MultiPoly.monomial({name: exponent}, 2),
                      lambda: MultiPoly.constant(1).coefficient({name: exponent})):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["z", "q1", "ab3", "Zz10", "t002"])
    def test_variable_names_in_grammar_read_back(self, name):
        p = MultiPoly.monomial({name: 2, "q1": 1}, 3) + MultiPoly.monomial({name: 1})
        assert parse_multipoly(p.canonical_string()) == p

    def test_zero_coefficients_skipped_before_normalizing(self):
        assert MultiPoly({(("z", -1),): 0}).is_zero()
        assert NestedPoly({"not a poly": 0}).is_zero()

    def test_canonical_string_lists_variables_once(self, monkeypatch):
        calls = []
        variables = MultiPoly.variables

        def counting(self):
            calls.append(1)
            return variables(self)

        monkeypatch.setattr(MultiPoly, "variables", counting)
        p = mono(2, q1=1, q2=2) + mono(1, q1=3) + mono(5, q2=1) + MultiPoly.constant(1)
        assert p.canonical_string() == "q1^3 + 2q1q2^2 + 5q2 + 1"
        assert len(calls) == 1

    def test_other_variables_sort_last_by_name(self):
        assert mono(1, x=1, q1=1, a=2, z=1).canonical_string() == "q1z^1a^2x"
        assert mono(1, w2=1, t2=1).canonical_string() == "t2w2"

    @pytest.mark.parametrize("exps,text", [
        ({"z": 1, "ab3": 1}, "z^1ab3"), ({"s": 1, "t1": 1}, "s^1t1"),
        ({"q": 1, "q1": 2}, "q^1q1^2"), ({"ab3": 1, "b": 1}, "ab3b"), ({"z": 1}, "z"),
    ])
    def test_exponent_one_kept_where_names_would_run_on(self, exps, text):
        # "zab3" would read as the one variable zab3
        assert mono(3, **exps).canonical_string() == "3" + text
        assert parse_multipoly("3" + text) == mono(3, **exps)

    def test_equal_keys_cancel_in_the_constructor(self):
        # (q1, s1^0) normalizes to q1, so the two terms meet and cancel
        assert MultiPoly({(("q1", 1),): 1, (("s1", 0), ("q1", 1)): -1}).is_zero()
        assert MultiPoly({(("q1", 1),): 2, (("q1", 1), ("s1", 0)): -1}) == mono(1, q1=1)

    def test_coefficient(self):
        p = mono(3, q1=2, z=1) + MultiPoly.constant(5)
        assert p.coefficient({"z": 1, "q1": 2}) == 3
        assert p.coefficient({"q1": 2, "z": 1, "s1": 0}) == 3
        assert p.coefficient({}) == 5
        assert p.coefficient({"z": 1}) == 0

    def test_mixed_types_do_not_combine(self):
        with pytest.raises(TypeError):
            MultiPoly.constant(1) + NestedPoly.single("1")
        with pytest.raises(TypeError):
            NestedPoly.single("1") - MultiPoly.constant(1)
        assert MultiPoly.zero() != NestedPoly.zero()


class TestRoundTrip:
    CASES = [
        MultiPoly.zero(),
        MultiPoly.constant(9),
        MultiPoly.constant(-3),
        mono(1, z=1) + mono(8, z=3),
        mono(4, q1=1, q2=1) - MultiPoly.constant(4),
        mono(2, s1=4, s2=2, t1=3, t2=1) + mono(1, s1=2, t1=2, t2=2),
        mono(5, s1=2, s2=6, t1=6, t2=10),
        mono(-7, q1=2) + mono(1, q2=5) - mono(2, z=1),
        # 216 terms in q1, q2, q3: the writhe polynomial of Hopf + circle
        phi_writhe(parse_gauss(HOPF + ";"), tsr_birack(7, 3, 0, 1)),
    ]

    @staticmethod
    def case_id(p):
        text = p.canonical_string()
        return text if len(text) < 80 else f"{len(p.terms)}-terms"

    @pytest.mark.parametrize("p", CASES, ids=case_id)
    def test_parse_inverts_canonical_string(self, p):
        assert parse_multipoly(p.canonical_string()) == p

    def test_canonical_string_injective(self):
        strings = {p.canonical_string() for p in self.CASES}
        assert len(strings) == len(self.CASES)

    def test_repeated_terms_add_up(self):
        assert parse_multipoly("z + z") == mono(2, z=1)
        assert parse_multipoly("s1t1 - 3t1s1 + z") == mono(-2, s1=1, t1=1) + mono(1, z=1)
        assert parse_nestedpoly("z^{s1 + t1} + 2z^{t1 + s1}") == NestedPoly.single("s1 + t1", 3)

    @pytest.mark.parametrize("bad", ["", "q1 +", "4^2", "z^", "q1**2", "{z}"])
    def test_bad_text_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_multipoly(bad)

    @pytest.mark.parametrize("parse", [parse_multipoly, parse_nestedpoly])
    @pytest.mark.parametrize("bad", ["z^{s1", "z^{s1}}", "z^{s1 + t1}} + z"])
    def test_unbalanced_braces(self, parse, bad):
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert str(exc.value) == f"unbalanced braces in {bad!r}"

    def test_bad_term_message(self):
        with pytest.raises(ParseError) as exc:
            parse_multipoly("2q1 + ^3")
        assert str(exc.value) == "bad polynomial term '^3'"

    @pytest.mark.parametrize("parse,bad", [
        (parse_nestedpoly, "z^{{s1}}"), (parse_multipoly, "{{z}}"),
        (parse_nestedpoly, "z^{s1} + 2z^{t1{t2}}"),
    ])
    def test_nested_braces(self, parse, bad):
        # an exponent is a multipoly, so braces never nest
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert str(exc.value) == f"unbalanced braces in {bad!r}"


VARIABLES = ["q1", "q2", "q10", "s1", "s2", "t1", "t2", "z", "ab3"]


def random_multipoly(rng, terms=6):
    """Up to terms monomials over VARIABLES: exponents 0..12, coefficients
    of either sign and up to 10^4."""
    return sum((mono(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 4)),
                     **{v: rng.randint(0, 12) for v in rng.sample(VARIABLES, rng.randint(0, 4))})
                for _ in range(rng.randint(0, terms))), MultiPoly.zero())


@pytest.mark.parametrize("seed", range(20))
def test_seeded_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(10):
        p = random_multipoly(rng)
        n = sum((NestedPoly.single(random_multipoly(rng, 3), rng.randint(-30, 30))
                 for _ in range(rng.randint(0, 5))), NestedPoly.zero())
        for parse, value in ((parse_multipoly, p), (parse_nestedpoly, n)):
            text = value.canonical_string()
            assert parse(text) == value
            assert parse(text).canonical_string() == text


class TestNestedPoly:
    PY = mono(1, s1=2, t1=2, t2=2) + mono(1, s2=2, t1=2, t2=2)
    PZ = mono(2, s1=4, s2=2, t1=3, t2=1)

    def test_canonical_string_orders_by_exponent_string(self):
        n = NestedPoly.single(self.PY, 4) + NestedPoly.single(self.PZ, 2)
        assert n.canonical_string() == (
            "2z^{2s1^4s2^2t1^3t2} + 4z^{s1^2t1^2t2^2 + s2^2t1^2t2^2}"
        )

    def test_equality_and_merge(self):
        a = NestedPoly.single(self.PY, 3) + NestedPoly.single(self.PY, 1)
        assert a == NestedPoly.single(self.PY, 4)
        assert (a - a).is_zero()
        assert NestedPoly.zero().canonical_string() == "0"

    def test_round_trip(self):
        n = NestedPoly.single(self.PY, 4) + NestedPoly.single(self.PZ, 2)
        assert parse_nestedpoly(n.canonical_string()) == n
        m = NestedPoly.single(self.PY, -2) + NestedPoly.single(self.PZ, 1)
        assert parse_nestedpoly(m.canonical_string()) == m

    def test_specializations(self):
        n = NestedPoly.single(self.PY, 4) + NestedPoly.single(self.PZ, 2)
        assert n.specialize_z_one() == 6
        # exponents at s=t=1 become image sizes: |Y| = 2, |Z| = 2
        assert n.specialize_exponents_one() == mono(6, z=2)

    def test_parse_zero(self):
        assert parse_nestedpoly("0") == NestedPoly.zero()
        assert parse_nestedpoly(" 0 ").is_zero()

    @pytest.mark.parametrize("bad,term", [
        ("z^2", "z^2"), ("2z^{s1} + q1", "q1"), ("2q1 + ^3", "2q1"),
    ])
    def test_bad_nested_term(self, bad, term):
        with pytest.raises(ParseError) as exc:
            parse_nestedpoly(bad)
        assert str(exc.value) == f"bad nested term {term!r}"

    def test_string_keys_are_renormalized(self):
        # a non-canonical exponent string is accepted and canonicalized
        n = NestedPoly({"t2^2t1^2s1^2 + s2^2t1^2t2^2": 4})
        assert n == NestedPoly.single(self.PY, 4)
