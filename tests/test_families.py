import itertools

import pytest

import biracks.core
import biracks.families
from biracks import (
    CayleyGroup,
    ConstructionError,
    FiniteBirack,
    SizeTooLarge,
    classify,
    constant_action,
    parse_cycles,
    to_matrix,
    tsr_birack,
    tau_sigma_rho_birack,
    verify_axioms,
)
from conftest import CONSTANT_ACTION_4_MATRIX, TWO_ELEMENT_MATRIX, dihedral8_cayley


def compose(p, q):
    return tuple(p[q[x]] for x in range(len(q)))


def tamper(monkeypatch, **changes):
    """Make the constructors see a FiniteBirack with attributes changed."""

    def build(b1, b2):
        b = FiniteBirack(b1, b2)
        for name, change in changes.items():
            setattr(b, name, change(getattr(b, name)))
        return b

    monkeypatch.setattr(biracks.families, "FiniteBirack", build)


def rotated(perm):
    return perm[1:] + perm[:1]


class TestClosedFormChecks:
    """Each closed-form check raises ConstructionError, also under -O."""

    def test_constant_action_kink_map(self, monkeypatch):
        tamper(monkeypatch, pi=rotated)
        with pytest.raises(ConstructionError, match="kink map is not tau o rho") as exc:
            constant_action((1, 0, 2, 3), (0, 1, 3, 2))
        assert exc.value.reason == "KinkMapMismatch"

    def test_tsr_kink_map(self, monkeypatch):
        tamper(monkeypatch, pi=rotated)
        with pytest.raises(ConstructionError, match="multiplication by tr") as exc:
            tsr_birack(5, 2, 0, 1)
        assert exc.value.reason == "KinkMapMismatch"

    def test_tsr_rank(self, monkeypatch):
        tamper(monkeypatch, rank=lambda rank: rank + 1)
        with pytest.raises(ConstructionError, match="order of tr") as exc:
            tsr_birack(5, 2, 0, 1)
        assert exc.value.reason == "RankMismatch"

    def _wrong_inverses(self, monkeypatch):
        # pow(., -1, n) is the only source of t^-1 and r^-1
        monkeypatch.setattr("biracks.families.pow", lambda *args: 0, raising=False)

    def test_tsr_first_ring_identity(self, monkeypatch):
        self._wrong_inverses(monkeypatch)
        with pytest.raises(ConstructionError, match=r"\(1 - s\)\(1 \+ t\^-1") as exc:
            tsr_birack(3, 1, 2, 2)  # s != 0
        assert exc.value.reason == "RingIdentityFails"

    def test_tsr_second_ring_identity(self, monkeypatch):
        self._wrong_inverses(monkeypatch)
        with pytest.raises(ConstructionError, match=r"\(tr \+ s\) t\^-1") as exc:
            tsr_birack(5, 2, 0, 1)  # s = 0 passes the first identity
        assert exc.value.reason == "RingIdentityFails"

    def test_group_kink_map(self, monkeypatch):
        tamper(monkeypatch, pi=rotated)
        z3 = [[(x + y) % 3 for y in range(3)] for x in range(3)]
        identity = (0, 1, 2)
        with pytest.raises(ConstructionError, match="tau\\(rho\\(x\\)\\)") as exc:
            tau_sigma_rho_birack(z3, identity, (0, 0, 0), identity)
        assert exc.value.reason == "KinkMapMismatch"


class TestConstantAction:
    def test_reproduces_reference_matrix(self):
        b = constant_action(parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4))
        assert to_matrix(b) == CONSTANT_ACTION_4_MATRIX

    def test_two_element(self):
        b = constant_action(parse_cycles("()", 2), parse_cycles("(1 2)", 2))
        assert to_matrix(b) == TWO_ELEMENT_MATRIX

    def test_noncommuting_rejected(self):
        with pytest.raises(ConstructionError) as exc:
            constant_action(parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3))
        assert exc.value.reason == "NonCommuting"

    @pytest.mark.parametrize("tau,rho,message", [
        ([0, 1], [0], "tau and rho must act on the same set"),
        ([0, 0], [0, 1], "tau is not a permutation of 0..1"),
        ([0, 1], [1, 1], "rho is not a permutation of 0..1"),
        ((), (), "tau and rho must act on a non-empty set"),
    ], ids=["length", "tau", "rho", "empty"])
    def test_rejects_bad_maps(self, tau, rho, message):
        with pytest.raises(ValueError) as exc:
            constant_action(tau, rho)
        assert str(exc.value) == message

    def test_element_limit(self, monkeypatch):
        # refused before any table is built: FiniteBirack is never reached
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 3)
        assert constant_action((1, 0, 2), (0, 1, 2)).n == 3
        monkeypatch.setattr(biracks.families, "FiniteBirack", None)
        with pytest.raises(SizeTooLarge) as exc:
            constant_action((1, 0, 2, 3), (0, 1, 3, 2))
        assert str(exc.value) == "the set tau and rho act on has 4 elements, more than 3"

    @pytest.mark.parametrize(
        "tau,rho",
        [("()", "()"), ("(1 2)", "(1 2)"), ("(1 2 3)", "(1 2 3)"), ("(1 2)", "(3 4)")],
    )
    def test_kink_map_is_tau_rho(self, tau, rho):
        n = 4
        t, r = parse_cycles(tau, n), parse_cycles(rho, n)
        b = constant_action(t, r)
        assert b.pi == compose(t, r) == compose(r, t)
        assert classify(b).is_biquandle == (compose(t, r) == tuple(range(n)))


class TestTsr:
    def test_z4_example(self):
        b = tsr_birack(4, 3, 2, 3)
        assert b.rank == 2
        assert b.pi == (0, 3, 2, 1)  # multiplication by tr+s = 3 mod 4

    def test_z4_m2_size_and_rank(self):
        b = tsr_birack(4, 3, 2, 3, m=2)
        assert b.n == 16 and b.rank == 2

    @pytest.mark.parametrize("n,t,s,r,m", [(3, 1, 2, 2, 2), (4, 3, 2, 3, 2), (2, 1, 0, 1, 3)])
    def test_tuple_tables(self, n, t, s, r, m):
        # B(x, y) = (ty + sx, rx) on (Z_n)^m, element x0 + x1*n + ...
        b = tsr_birack(n, t, s, r, m)
        assert b.n == n ** m

        def flat(coords):
            return sum(c * n ** i for i, c in enumerate(coords))

        for x in itertools.product(range(n), repeat=m):
            for y in itertools.product(range(n), repeat=m):
                assert b.apply(flat(x), flat(y)) == (
                    flat([(t * yc + s * xc) % n for xc, yc in zip(x, y)]),
                    flat([(r * xc) % n for xc in x]),
                )

    def test_digit_columns_match_tuple_index(self):
        # the tables equal the construction over tuples of (Z_n)^m and a
        # dict index, for every (t, s, r) that passes the parameter checks
        def tuple_index_tables(n, t, s, r, m):
            elements = [p[::-1] for p in itertools.product(range(n), repeat=m)]
            index = {x: e for e, x in enumerate(elements)}
            b1 = [[index[tuple((t * yc + s * xc) % n for xc, yc in zip(x, y))]
                   for y in elements] for x in elements]
            b2 = [[index[tuple((r * xc) % n for xc in x)]] * len(elements)
                  for x in elements]
            return b1, b2

        checked = {1: 0, 2: 0, 3: 0}
        for m, moduli in ((1, range(2, 9)), (2, range(2, 5)), (3, (2, 3))):
            for n in moduli:
                for t, s, r in itertools.product(range(n), repeat=3):
                    try:
                        b = tsr_birack(n, t, s, r, m)
                    except ConstructionError as exc:
                        assert exc.reason in ("NotInvertible", "IdealViolation",
                                              "RingIdentityFails")
                        continue
                    b1, b2 = tuple_index_tables(n, t, s, r, m)
                    assert b.b1 == tuple(map(tuple, b1))
                    assert b.b2 == tuple(map(tuple, b2))
                    checked[m] += 1
        assert checked == {1: 163, 2: 15, 3: 7}

    def test_trefoil_birack_is_rank_one(self):
        b = tsr_birack(3, 1, 2, 2)
        assert b.rank == 1
        # B(x,y) = (y + 2x, 2x)
        assert all(
            b.b1[x][y] == (y + 2 * x) % 3 and b.b2[x][y] == (2 * x) % 3
            for x in range(3)
            for y in range(3)
        )

    def test_identity_special_case(self):
        b = tsr_birack(6, 1, 0, 1)
        assert b.rank == 1
        assert all(b.apply(x, y) == (y, x) for x in range(6) for y in range(6))

    def test_kink_is_scalar_multiplication(self):
        for n, t, s, r in [(5, 2, 4, 1), (4, 1, 2, 1), (3, 2, 2, 1), (8, 3, 6, 5)]:
            b = tsr_birack(n, t, s, r)
            k = (t * r + s) % n
            assert b.pi == tuple((k * x) % n for x in range(n))

    def test_non_unit_rejected(self):
        for t, r in [(2, 3), (3, 2)]:
            with pytest.raises(ConstructionError) as exc:
                tsr_birack(4, t, 2, r)
            assert exc.value.reason == "NotInvertible"

    @pytest.mark.parametrize("args,message", [
        ((1, 1, 0, 1), "modulus must be at least 2"),
        ((0, 1, 0, 1), "modulus must be at least 2"),
        ((5, 2, 0, 1, 0), "tuple length must be at least 1"),
    ], ids=["n=1", "n=0", "m=0"])
    def test_rejects_bad_size(self, args, message):
        with pytest.raises(ValueError) as exc:
            tsr_birack(*args)
        assert str(exc.value) == message

    def test_element_limit(self, monkeypatch):
        # 2^3 = 8 elements build at a limit of 8; 3^2 = 9 do not, nor does
        # an m whose n^m is far too large to compute
        monkeypatch.setattr(biracks.families, "TSR_ELEMENT_LIMIT", 8)
        assert tsr_birack(2, 1, 0, 1, 3).n == 8
        for args, size in [((3, 2, 0, 1, 2), "3^2"), ((2, 1, 0, 1, 10**9), "2^1000000000")]:
            with pytest.raises(SizeTooLarge) as exc:
                tsr_birack(*args)
            assert str(exc.value) == f"(Z_{args[0]})^{args[4]} has {size} elements, more than 8"

    def test_ideal_violation_rejected(self):
        with pytest.raises(ConstructionError) as exc:
            tsr_birack(4, 3, 1, 3)
        assert exc.value.reason == "IdealViolation"

    def test_dihedral_quandle(self):
        b = tsr_birack(5, 4, 2, 1)
        flags = classify(b)
        assert flags.is_quandle
        assert all(b.b1[x][y] == (2 * x - y) % 5 for x in range(5) for y in range(5))


class TestTauSigmaRho:
    def test_element_limit(self, monkeypatch):
        # the order-8 dihedral group builds at a limit of 8, and at 7 it is
        # refused before its labels, its group axioms or any birack table
        maps = list(range(8)), [0] * 8, list(range(8))
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 8)
        assert tau_sigma_rho_birack(dihedral8_cayley(), *maps).n == 8
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 7)
        monkeypatch.setattr(biracks.families, "_entries", None)
        for call in (lambda: CayleyGroup(dihedral8_cayley()),
                     lambda: tau_sigma_rho_birack(dihedral8_cayley(), *maps)):
            with pytest.raises(SizeTooLarge) as exc:
                call()
            assert str(exc.value) == "the Cayley table has 8 elements, more than 7"

    def test_order8_example(self):
        # tau = rho: invert the rotation index, fix the reflection generator.
        # sigma squares the rotation part; its image lies in the center.
        table = dihedral8_cayley()
        tau = [2 * ((-i) % 4) + j for i, j in (divmod(e, 2) for e in range(8))]
        sigma = [2 * ((2 * i) % 4) for i, _ in (divmod(e, 2) for e in range(8))]
        b = tau_sigma_rho_birack(table, tau, sigma, tau)
        expected_pi = tuple(2 * ((3 * i) % 4) + j for i, j in (divmod(e, 2) for e in range(8)))
        assert b.pi == expected_pi
        assert b.rank == 2

    def test_word_reversal_is_not_an_automorphism_but_tables_verify(self):
        # The reversal map a^i b^j -> b^j a^i is only an anti-automorphism,
        # so the constructor refuses it; the raw tables it induces still
        # happen to satisfy every birack axiom with the same kink map,
        # because sigma's image is central.
        table = dihedral8_cayley()
        rev = [2 * (((-1) ** j * i) % 4) + j for i, j in (divmod(e, 2) for e in range(8))]
        sigma = [2 * ((2 * i) % 4) for i, _ in (divmod(e, 2) for e in range(8))]
        with pytest.raises(ConstructionError) as exc:
            tau_sigma_rho_birack(table, rev, sigma, rev)
        assert exc.value.reason == "NotAutomorphism"

        b1 = [[table[rev[y]][sigma[x]] for y in range(8)] for x in range(8)]
        b2 = [[rev[x]] * 8 for x in range(8)]
        assert verify_axioms(b1, b2).ok
        b = FiniteBirack(b1, b2)
        assert b.pi == tuple(2 * ((3 * i) % 4) + j for i, j in (divmod(e, 2) for e in range(8)))
        assert b.rank == 2

    def test_trivial_sigma_reduces_to_constant_action(self):
        table = dihedral8_cayley()
        tau = [2 * ((-i) % 4) + j for i, j in (divmod(e, 2) for e in range(8))]
        sigma = [0] * 8  # everything to the identity element
        b = tau_sigma_rho_birack(table, tau, sigma, tau)
        assert b == constant_action(tau, tau)

    def test_additive_group_matches_tsr(self):
        z4 = [[(a + c) % 4 for c in range(4)] for a in range(4)]
        b = tau_sigma_rho_birack(
            z4,
            [3 * x % 4 for x in range(4)],
            [2 * x % 4 for x in range(4)],
            [3 * x % 4 for x in range(4)],
        )
        assert b == tsr_birack(4, 3, 2, 3)

    def test_rejects_non_group(self):
        with pytest.raises(ConstructionError) as exc:
            CayleyGroup([[0, 1], [1, 1]])
        assert exc.value.reason == "NotAGroup"

    @pytest.mark.parametrize("table,message", [
        ([], "NotAGroup: Cayley table must be square"),
        ([[0], [0, 1]], "NotAGroup: Cayley table must be square"),
        ([[0, 0], [1, 1]], "NotAGroup: no identity element"),
        # 0 is the identity and every element its own inverse, but
        # (1 * 1) * 2 = 2 while 1 * (1 * 2) = 0
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]],
         "NotAGroup: multiplication is not associative (witness: (1, 1, 2))"),
    ], ids=["empty", "non-square", "no-identity", "non-associative"])
    def test_rejects_non_group_table(self, table, message):
        with pytest.raises(ConstructionError) as exc:
            CayleyGroup(table)
        assert str(exc.value) == message

    # the Klein four-group, elements 0..3 under exclusive or
    KLEIN = [[x ^ y for y in range(4)] for x in range(4)]

    @pytest.mark.parametrize("tau,sigma,rho,message", [
        ([0, 1, 2], [0, 1, 0, 1], [0, 2, 1, 3], "tau must list 4 images"),
        ([0, 1, 2, 3], [0, 1, 0, 1, 0], [0, 2, 1, 3], "sigma must list 4 images"),
    ], ids=["tau", "sigma"])
    def test_rejects_wrong_length_map(self, tau, sigma, rho, message):
        with pytest.raises(ValueError) as exc:
            tau_sigma_rho_birack(self.KLEIN, tau, sigma, rho)
        assert str(exc.value) == message

    @pytest.mark.parametrize("tau,sigma,message", [
        # the automorphisms swapping 2, 3 and 1, 2 do not commute
        ([0, 1, 3, 2], [0, 0, 0, 0], "NotCommuting: rho and tau do not commute"),
        # the projection onto {0, 1} does not commute with swapping 1, 2
        ([0, 1, 2, 3], [0, 1, 0, 1], "NotCommuting: rho and sigma do not commute"),
    ], ids=["tau", "sigma"])
    def test_rejects_non_commuting_rho(self, tau, sigma, message):
        with pytest.raises(ConstructionError) as exc:
            tau_sigma_rho_birack(self.KLEIN, tau, sigma, [0, 2, 1, 3])
        assert str(exc.value) == message

    def test_rejects_non_endomorphism(self):
        z4 = [[(a + c) % 4 for c in range(4)] for a in range(4)]
        with pytest.raises(ConstructionError) as exc:
            tau_sigma_rho_birack(z4, [1 * x % 4 for x in range(4)], [0, 1, 3, 2], [x for x in range(4)])
        assert exc.value.reason == "NotEndomorphism"

    def test_rejects_incompatible_maps(self):
        # symmetric group S3: the sign endomorphism breaks the compatibility
        # identity even though every commutation requirement holds
        perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]

        def mul(p, q):
            return tuple(p[q[i]] for i in range(3))

        table = [[perms.index(mul(p, q)) for q in perms] for p in perms]
        ident = list(range(6))
        # rho: conjugation by the transposition (0 1); sigma: sign map to {id, (01)}
        cj = perms.index((1, 0, 2))
        rho = [perms.index(mul(mul(perms[cj], p), perms[cj])) for p in perms]
        sign = [0 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else cj for p in perms]
        with pytest.raises(ConstructionError) as exc:
            tau_sigma_rho_birack(table, ident, sign, rho)
        assert exc.value.reason in ("NotCommuting", "Eq4Fails")
