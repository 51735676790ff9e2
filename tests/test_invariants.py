import dataclasses
import hashlib
import random
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import permutations, product
from operator import itemgetter
from pathlib import Path

import pytest

import biracks.core
import biracks.homsearch
import biracks.invariants
import biracks.poly
from biracks import (
    Diagram,
    InvariantValue,
    KindMismatch,
    Labeling,
    LengthMismatch,
    MultiPoly,
    NestedPoly,
    NotASubbirack,
    SizeTooLarge,
    all_subbiracks,
    birack_polynomial,
    compute_invariant,
    labelings_by_framing,
    normalize,
    parse_gauss,
    read_matrix_file,
    phi_image,
    phi_integral,
    phi_rho,
    phi_writhe,
    subbirack_polynomial,
    tsr_birack,
    unlink,
    with_framing,
)
from biracks.homsearch import cut_labelings
from biracks.invariants import KINDS
from conftest import (
    FIGURE_EIGHT,
    HOPF,
    KNOT_CODES,
    TREFOIL,
    UNKNOT,
    braid_closure,
    enumerated_biracks,
    framed_reference,
    insert_bigon,
    insert_curl,
    naive_closure,
    per_labeling_multiset,
    rack_counting_oracle,
    random_gauss_code,
    tsr_labeling_count,
    unlink_closed_form,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def mono(coeff=1, **exps):
    return MultiPoly.monomial(exps, coeff)


class TestIntegral:
    def test_hopf_and_unlink(self, two_element):
        assert phi_integral(parse_gauss(HOPF), two_element) == 4
        assert phi_integral(unlink(2), two_element) == 4

    def test_trefoil(self, trefoil_birack):
        assert phi_integral(parse_gauss(TREFOIL), trefoil_birack) == 9

    def test_figure_eight(self, trefoil_birack):
        # direct enumeration over all 3^8 assignments gives exactly the
        # one-parameter family (a, 2a, a, 2a, ...), so the count is 3
        assert phi_integral(parse_gauss(FIGURE_EIGHT), trefoil_birack) == 3

    def test_unknot_two_orbit(self, two_orbit4):
        assert phi_integral(parse_gauss(UNKNOT), two_orbit4) == 6


class TestWrithe:
    def test_hopf_vs_unlink(self, two_element):
        assert phi_writhe(parse_gauss(HOPF), two_element) == mono(4, q1=1, q2=1)
        assert phi_writhe(unlink(2), two_element) == MultiPoly.constant(4)

    def test_unknot(self, two_element):
        # the kinked unknot admits no labelings (pi has no fixed point)
        assert phi_writhe(parse_gauss(UNKNOT), two_element) == MultiPoly.constant(2)

    def test_rank_one_writhe_equals_integral(self, trefoil_birack):
        d = parse_gauss(TREFOIL)
        assert phi_writhe(d, trefoil_birack) == MultiPoly.constant(
            phi_integral(d, trefoil_birack)
        )

    def test_exponents_live_in_framing_box(self, two_orbit4):
        p = phi_writhe(parse_gauss(HOPF), two_orbit4)
        for key, _ in p.terms.items():
            assert all(0 <= e < two_orbit4.rank for _, e in key)


class TestImage:
    def test_trefoil_multiset(self, trefoil_birack):
        got = phi_image(parse_gauss(TREFOIL), trefoil_birack)
        assert got == mono(1, z=1) + mono(8, z=3)

    def test_unknot_multiset(self, trefoil_birack):
        got = phi_image(parse_gauss(UNKNOT), trefoil_birack)
        assert got == mono(1, z=1) + mono(2, z=3)

    def test_simple_birack_identity(self, two_element):
        # with no proper subbirack, phi_Z * z^n recovers the image version
        for code in (HOPF, UNKNOT, TREFOIL):
            d = parse_gauss(code)
            assert phi_image(d, two_element) == mono(
                phi_integral(d, two_element), z=two_element.n
            ) or phi_integral(d, two_element) == 0


class TestBirackPolynomial:
    def test_two_orbit_polynomial(self, two_orbit4):
        assert birack_polynomial(two_orbit4).canonical_string() == (
            "2s1^4s2^2t1^3t2 + s1^2t1^2t2^2 + s2^2t1^2t2^2"
        )

    def test_two_orbit_subbirack_polynomials(self, two_orbit4):
        assert subbirack_polynomial(two_orbit4, {0, 1}).canonical_string() == (
            "s1^2t1^2t2^2 + s2^2t1^2t2^2"
        )
        assert subbirack_polynomial(two_orbit4, {2, 3}).canonical_string() == (
            "2s1^4s2^2t1^3t2"
        )

    def test_whole_set_matches(self, two_orbit4):
        assert subbirack_polynomial(two_orbit4, range(4)) == birack_polynomial(two_orbit4)

    def test_not_a_subbirack(self, two_orbit4):
        with pytest.raises(NotASubbirack):
            subbirack_polynomial(two_orbit4, {0})

    def test_quandle_factor(self, test_biracks):
        # for a quandle, every element contributes full s2^n t2^n factors
        b = test_biracks["dihedral3"]
        p = birack_polynomial(b)
        for key, _ in p.terms.items():
            exps = dict(key)
            assert exps.get("s2") == b.n and exps.get("t2") == b.n

    def test_isomorphism_invariance(self, two_orbit4):
        from biracks import FiniteBirack

        # relabel by the birack automorphism swapping the two 2-element orbits?
        # (1 2) x (3 4) preserves the tables of this birack; check directly.
        perm = (1, 0, 3, 2)
        inv = (1, 0, 3, 2)
        n = two_orbit4.n
        b1 = [[perm[two_orbit4.b1[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
        b2 = [[perm[two_orbit4.b2[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
        relabeled = FiniteBirack(b1, b2)
        assert birack_polynomial(relabeled) == birack_polynomial(two_orbit4)

    def test_table_equals_scan(self):
        # the statistics table, counted along rows and columns, against a
        # scan of the four definitions for every element
        tables = [b for n in (1, 2, 3) for b in enumerated_biracks(n)]
        tables += [read_matrix_file(str(DATA / f"{name}.txt")) for name in DATA_BIRACKS]
        tables += [tsr_birack(*args) for args in ((3, 1, 2, 2), (4, 3, 2, 3), (7, 3, 0, 1),
                                                  (11, 2, 0, 1), (16, 1, 0, 1))]
        for b in tables:
            rng = range(b.n)

            def scan(elements):
                return MultiPoly(Counter(
                    (("s1", sum(1 for y in rng if b.b1[x][y] == y)),
                     ("s2", sum(1 for y in rng if b.b2[y][x] == y)),
                     ("t1", sum(1 for y in rng if b.b1[y][x] == x)),
                     ("t2", sum(1 for y in rng if b.b2[x][y] == x)))
                    for x in elements))

            assert birack_polynomial(b) == scan(rng)
            if b.n <= 10:
                for sub in all_subbiracks(b):
                    assert subbirack_polynomial(b, sub) == scan(sorted(sub))


class TestRho:
    def test_unknot_two_orbit(self, two_orbit4):
        expected = NestedPoly(
            {
                subbirack_polynomial(two_orbit4, {0, 1}).canonical_string(): 4,
                subbirack_polynomial(two_orbit4, {2, 3}).canonical_string(): 2,
            }
        )
        assert phi_rho(parse_gauss(UNKNOT), two_orbit4) == expected

    def test_singleton_birack(self):
        from biracks import from_matrix

        b = from_matrix(1, [[1, 1]])
        got = phi_rho(parse_gauss(TREFOIL), b)
        assert got == NestedPoly({"s1s2t1t2": phi_integral(parse_gauss(TREFOIL), b)})

    def test_specializations(self, two_orbit4, two_element, trefoil_birack):
        for code in (UNKNOT, HOPF, TREFOIL):
            d = parse_gauss(code)
            for b in (two_orbit4, two_element, trefoil_birack):
                rho = phi_rho(d, b)
                assert rho.specialize_z_one() == phi_integral(d, b)
                assert rho.specialize_exponents_one() == phi_image(d, b)
                w = phi_writhe(d, b)
                for q in [v for v in w.variables()]:
                    w = w.substitute_one(q)
                assert w == MultiPoly.constant(phi_integral(d, b)) or w.is_zero()


class TestNormalize:
    def test_unlink_normalizes_to_zero(self, two_element, two_orbit4):
        for b in (two_element, two_orbit4):
            for c in (1, 2):
                for kind in ("integral", "writhe", "image", "rho"):
                    v = compute_invariant(unlink(c), b, kind)
                    nv = normalize(v, unlink(c), b)
                    if kind == "integral":
                        assert nv.value == 0
                    else:
                        assert nv.value.is_zero()
                    assert nv.normalized

    def test_hopf_writhe_normalized(self, two_element):
        d = parse_gauss(HOPF)
        v = compute_invariant(d, two_element, "writhe")
        nv = normalize(v, d, two_element)
        assert nv.value_string() == "4q1q2 - 4"

    def test_trefoil_integral_normalized(self, trefoil_birack):
        d = parse_gauss(TREFOIL)
        v = compute_invariant(d, trefoil_birack, "integral")
        assert normalize(v, d, trefoil_birack).value == 9 - 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_normalized_value_is_refused(self, kind):
        # subtracting the unlink twice would give the unknot's integral -3
        # over tsr(3,1,2,2), still marked normalized
        b, d = tsr_birack(3, 1, 2, 2), parse_gauss(UNKNOT)
        nv = normalize(compute_invariant(d, b, kind), d, b)
        with pytest.raises(ValueError, match="normalized already"):
            normalize(nv, d, b)

    @pytest.mark.parametrize("kind", ["integral", "writhe", "image", "rho"])
    def test_mismatched_diagram_or_birack(self, kind, trefoil_birack, two_element):
        trefoil, hopf = parse_gauss(TREFOIL), parse_gauss(HOPF)
        v = compute_invariant(trefoil, trefoil_birack, kind)
        with pytest.raises(LengthMismatch, match="2-component unlink over a rank-1 "):
            normalize(v, hopf, trefoil_birack)
        with pytest.raises(LengthMismatch, match="1-component unlink over a rank-2 "):
            normalize(v, trefoil, two_element)
        with pytest.raises(KindMismatch):
            normalize(replace(v, kind="bogus"), hopf, trefoil_birack)


class TestInvariantValueBook:
    def test_per_framing_lex_order(self, two_orbit4):
        v = compute_invariant(parse_gauss(HOPF), two_orbit4, "integral")
        framings = [w for w, _ in v.per_framing]
        assert framings == sorted(framings)
        assert framings == list(product(range(two_orbit4.rank), repeat=2))

    def test_multiset_totals(self, two_orbit4):
        d = parse_gauss(TREFOIL)
        for kind in ("writhe", "image", "rho"):
            v = compute_invariant(d, two_orbit4, kind)
            total = sum(m for _, m in v.multiset)
            assert total == phi_integral(d, two_orbit4)


def _pi_orbit(b, x) -> set[int]:
    orbit = {x}
    while b.pi[x] not in orbit:
        x = b.pi[x]
        orbit.add(x)
    return orbit


class TestSurvey:
    """A value is folded from one cut search per distinct group and keeps
    counts only; a dump searches the groups again."""

    @pytest.mark.parametrize("kind", ["integral", "writhe", "image", "rho"])
    def test_one_cut_search(self, kind, two_orbit4, monkeypatch):
        d = parse_gauss(HOPF)
        calls = []
        search = biracks.homsearch._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(biracks.homsearch, "_search", counted)
        compute_invariant(d, two_orbit4, kind)
        assert len(calls) == 1
        framed = labelings_by_framing(d, two_orbit4)
        assert len(calls) == 2
        assert [(w, [lab.assignment for lab in labs]) for w, labs in framed] == [
            (w, [lab.assignment for lab in labs])
            for w, labs in framed_reference(d, two_orbit4)
        ]
        cut = cut_labelings(d, two_orbit4)
        assert isinstance(cut.assignments, tuple)
        assert all(isinstance(a, tuple) for a in cut.assignments)

    def test_value_holds_no_labelings(self):
        assert [f.name for f in dataclasses.fields(InvariantValue)] == [
            "kind", "value", "multiset", "per_framing", "normalized"]
        assert not hasattr(biracks.invariants, "framed_labelings")

    @pytest.mark.parametrize("kind", ["integral", "writhe"])
    def test_counts_build_no_labelings_or_framed_diagrams(self, kind, test_biracks,
                                                          monkeypatch):
        cases = [(parse_gauss(code), b) for code in (HOPF, TREFOIL, HOPF + ";")
                 for b in test_biracks.values()]
        expected = [compute_invariant(d, b, kind) for d, b in cases]

        def forbidden(*args):
            raise AssertionError("built a Labeling or a framed diagram")

        for name in ("biracks.invariants.Labeling", "biracks.homsearch.Labeling",
                     "biracks.invariants.with_framing", "biracks.diagram.with_framing"):
            monkeypatch.setattr(name, forbidden)
        assert [compute_invariant(d, b, kind) for d, b in cases] == expected

    @pytest.mark.parametrize("kind", ["image", "rho"])
    @pytest.mark.parametrize("birack", ["two_orbit4", "ten_element"])
    def test_one_closure_per_label_set(self, kind, birack, request, monkeypatch):
        b = request.getfixturevalue(birack)
        calls = []
        close = biracks.core._close

        def counted(*args):
            calls.append(args)
            return close(*args)

        monkeypatch.setattr(biracks.core, "_close", counted)
        # a split diagram is searched group by group, equal groups once:
        # unlink(2) is two equal unknots, searched and folded as one
        for d, groups in ((unlink(2), [unlink(1)] * 2), (parse_gauss(HOPF), [parse_gauss(HOPF)]),
                          (parse_gauss(TREFOIL), [parse_gauss(TREFOIL)])):
            parts = []
            for group in groups:
                cut = cut_labelings(group, b)
                # the distinct label sets of the cut labelings on some framing
                parts.append({frozenset(a) for a in cut.assignments
                              if all(a[h] in _pi_orbit(b, a[t])
                                     for t, h in zip(cut.tails, cut.heads))})
            # the fold closes each unordered pair of a state and a label
            # set it does not hold, once: every label set with the empty
            # state, then, for unlink(2), the second unknot's with each image
            states, pairs = {frozenset()}, set()
            for part in parts:
                pairs |= {frozenset((s, t)) for s in states for t in part if not t <= s}
                states = {naive_closure(b, s | t) for s in states for t in part}
            # once per call: each diagram starts from a cold join cache,
            # and the same call again finds every join kept
            biracks.core._joins.cache_clear()
            calls.clear()
            compute_invariant(d, b, kind)
            assert len(calls) == len(pairs)
            compute_invariant(d, b, kind)
            assert len(calls) == len(pairs)

    def test_unknown_kind(self, two_element, monkeypatch):
        d = parse_gauss(HOPF)
        v = compute_invariant(d, two_element, "integral")

        def no_search(*args):
            raise AssertionError("searched before checking the kind")

        monkeypatch.setattr("biracks.invariants.cut_labelings", no_search)
        with pytest.raises(KindMismatch, match="unknown invariant kind 'bogus'"):
            compute_invariant(d, two_element, "bogus")
        with pytest.raises(KindMismatch, match="unknown invariant kind 'bogus'"):
            normalize(replace(v, kind="bogus"), d, two_element)


def _sample_links() -> list[tuple[str, str]]:
    lines = (DATA / "sample_links.txt").read_text(encoding="utf-8").splitlines()
    return [tuple(ln.split("\t")) for ln in lines if not ln.startswith("#")]


DATA_BIRACKS = sorted(p.stem for p in DATA.glob("*.txt") if p.name != "sample_links.txt")
RANDOM_CODES = [random_gauss_code(random.Random(seed)) for seed in range(40)]


def _framings_counted(monkeypatch) -> list:
    """The framing vectors whose framed semiarcs a dump reads, in order:
    once for each framing that has labelings, to count its labels, and
    kept from then on to build its rows."""
    calls = []
    sources = biracks.invariants.framed_semiarc_sources

    def counting(d, w, rank):
        calls.append(w)
        return sources(d, w, rank)

    monkeypatch.setattr(biracks.invariants, "framed_semiarc_sources", counting)
    return calls


def _assert_matches_framed_reference(d, b, multisets: bool) -> None:
    """Per-framing counts, framed labelings and (optionally) image and rho
    multisets from the cut search equal searching every with_framing
    diagram."""
    reference = [(w, [lab.assignment for lab in labs]) for w, labs in framed_reference(d, b)]
    v = compute_invariant(d, b, "writhe")
    assert list(v.per_framing) == [(w, len(labs)) for w, labs in reference]
    framed = labelings_by_framing(d, b)
    assert [(w, [lab.assignment for lab in labs]) for w, labs in framed] == reference
    if multisets:
        for kind in ("image", "rho"):
            assert compute_invariant(d, b, kind).multiset == per_labeling_multiset(d, b, kind)


class TestCutMatchesFramedReference:
    """The cut search against one search per with_framing diagram."""

    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    @pytest.mark.parametrize("name,code", _sample_links())
    def test_sample_links_data_biracks(self, name, code, birack):
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        _assert_matches_framed_reference(parse_gauss(code), b, multisets=True)

    @pytest.mark.parametrize("args", [(5, 2, 0, 1), (7, 3, 0, 1), (11, 2, 0, 1)])
    @pytest.mark.parametrize("name,code", _sample_links())
    def test_sample_links_tsr(self, name, code, args):
        b = tsr_birack(*args)
        _assert_matches_framed_reference(parse_gauss(code), b, multisets=b.rank < 10)

    def test_framed_labelings_unchanged(self):
        # sha256 of repr(labelings_by_framing(...)) over every data birack
        # x the sample links and the 1- to 4-unlinks, recorded when each
        # labeling was built one by one, before _framed_rows wrote rows
        codes = [code for _, code in _sample_links()] + [";" * c for c in range(4)]
        digest = hashlib.sha256()
        for birack in DATA_BIRACKS:
            b = read_matrix_file(str(DATA / f"{birack}.txt"))
            for code in codes:
                d = parse_gauss(code)
                framed = labelings_by_framing(d, b)
                digest.update(repr(framed).encode())
        assert digest.hexdigest() == (
            "3682c71fb1196382dd49323595c2516fe951231b00e925521ab42ef6a7749afb")

    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    def test_empty_diagram(self, birack):
        # no component, no framing entry: the one framing () has the one
        # empty labeling, as its count of 1 says
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        d = Diagram([])
        v = compute_invariant(d, b, "integral")
        assert v.per_framing == (((), 1),)
        assert labelings_by_framing(d, b) == [((), [Labeling(())])]

    def test_random_codes(self, two_element, constant4, two_orbit4):
        tables = (two_element, constant4, two_orbit4, tsr_birack(5, 2, 0, 1))
        for code in RANDOM_CODES:
            for b in tables:
                _assert_matches_framed_reference(parse_gauss(code), b, multisets=True)
        rank6 = tsr_birack(7, 3, 0, 1)
        for code in RANDOM_CODES[:20]:
            _assert_matches_framed_reference(parse_gauss(code), rank6, multisets=False)


def _shifted(code: str, offset: int) -> list[str]:
    """The components of code with every crossing id raised by offset."""
    return re.sub(r"\d+", lambda m: str(int(m.group()) + offset), code).split(";")


def _split_unions(seed: int) -> list[str]:
    """Two seeded random codes A and B with B's crossing ids after A's, as
    A;B, B;A and A's components around B's first."""
    rng = random.Random(seed)
    a = random_gauss_code(rng).split(";")
    b = _shifted(random_gauss_code(rng), 10)
    return [";".join(a + b), ";".join(b + a), ";".join(a[:1] + b[:1] + a[1:] + b[1:])]


# linked components around a crossing-free circle, and around a trefoil
AROUND = ["O1+,U2+;;U1+,O2+", ";".join([HOPF.split(";")[0], *_shifted(TREFOIL, 2),
                                         HOPF.split(";")[1]])]


class TestSplitDiagrams:
    """A split diagram is searched group by group and folded through the
    subbirack lattice; its values equal the whole-diagram references."""

    def test_random_unions(self, two_element, constant4, two_orbit4):
        interleaved = 0
        for seed in range(8):
            for code in _split_unions(seed):
                d = parse_gauss(code)
                order = [i for g in biracks.invariants._linked_groups(d) for i in g]
                interleaved += order != sorted(order)
                for b in (two_element, constant4, two_orbit4):
                    _assert_matches_framed_reference(d, b, multisets=True)
        assert interleaved == 3

    @pytest.mark.parametrize("code", AROUND)
    def test_components_around_others(self, code, test_biracks):
        d = parse_gauss(code)
        assert biracks.invariants._linked_groups(d) == [[0, 2], [1]]
        for b in test_biracks.values():
            _assert_matches_framed_reference(d, b, multisets=True)

    @pytest.mark.parametrize("birack", ["two_orbit4", "tsr(5,2,0,1)"])
    def test_every_component_order(self, birack, request):
        # a Hopf link, a trefoil and a circle, their four components in
        # every order: the Hopf link's group interleaves with the others in
        # the 12 orders that part its two components, so the dump puts its
        # rows back in the diagram's semiarc order there.  The reference
        # searches each framing of one order; another order permutes the
        # framing's entries and each framed labeling's component blocks.
        b = request.getfixturevalue(birack) if birack == "two_orbit4" else tsr_birack(5, 2, 0, 1)
        parts = [*HOPF.split(";"), *_shifted(TREFOIL, 2), ""]
        base = parse_gauss(";".join(parts))
        reference = {v: (with_framing(base, v, b.rank).component_semiarcs,
                         [lab.assignment for lab in labs])
                     for v, labs in framed_reference(base, b)}
        interleaved = 0
        for order in permutations(range(len(parts))):
            d = parse_gauss(";".join(parts[k] for k in order))
            components = [i for g in biracks.invariants._linked_groups(d) for i in g]
            interleaved += components != sorted(components)
            expected = []
            for w in product(range(b.rank), repeat=len(parts)):
                spans, rows = reference[tuple(w[order.index(k)] for k in range(len(parts)))]
                blocks = itemgetter(*(s for k in order for s in spans[k]))
                expected.append((w, sorted(map(blocks, rows))))
            assert compute_invariant(d, b, "writhe").per_framing == tuple(
                (w, len(rows)) for w, rows in expected)
            assert [(w, [lab.assignment for lab in labs])
                    for w, labs in labelings_by_framing(d, b)] == expected
        assert interleaved == 12

    def test_product_at_scale(self, ten_element):
        # the 5-unlink over the rank-1 ten_element has one framing, whose
        # 10^5 labelings are the product of its circles' 10 labels each
        [(w, labs)] = labelings_by_framing(unlink(5), ten_element)
        assert w == (0,) * 5
        assert [lab.assignment for lab in labs] == list(product(range(10), repeat=5))

    @pytest.mark.parametrize("kind", ["integral", "writhe", "image", "rho"])
    def test_one_search_per_group(self, kind, two_orbit4, monkeypatch):
        calls = []
        search = biracks.homsearch._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(biracks.homsearch, "_search", counted)
        # (diagram, searches, groups): equal group diagrams, the 3-unlink's
        # three circles, share one search; two Hopf links on other
        # crossings, or a Hopf link and a circle, get one each
        two_hopf = parse_gauss("O1+,U2+;U1+,O2+;O3+,U4+;U3+,O4+")
        cases = [(unlink(3), 1, 3), (two_hopf, 2, 2), (parse_gauss(HOPF + ";"), 2, 2),
                 (parse_gauss(AROUND[0]), 2, 2), (parse_gauss(AROUND[1]), 2, 2),
                 (parse_gauss(HOPF), 1, 1), (Diagram([]), 1, 1)]
        for d, searches, groups in cases:
            calls.clear()
            compute_invariant(d, two_orbit4, kind)
            assert len(calls) == searches
            # the helper keys one search by each distinct group diagram
            calls.clear()
            found, subs, cuts = biracks.invariants._group_searches(d, two_orbit4)
            assert len(calls) == searches
            assert len(found) == len(subs) == groups
            assert list(cuts) == list(dict.fromkeys(subs))
            assert all(cut.diagram == sub for sub, cut in cuts.items())
            assert subs == ([Diagram([d.components[i] for i in g]) for g in found]
                            if groups > 1 else [d])

    @pytest.mark.parametrize("kind", ["image", "rho"])
    def test_join_count(self, kind, ten_element, monkeypatch):
        # 6 equal groups share one search of 10 labelings, which closes 10
        # singletons once; the fold then joins each pair of closed sets,
        # neither inside the other, once, whichever order it meets them in
        closures, joins = [], []
        close = biracks.core._close

        def counted(b, closed, frontier):
            (joins if closed else closures).append(frontier)
            return close(b, closed, frontier)

        monkeypatch.setattr(biracks.core, "_close", counted)
        compute_invariant(unlink(6), ten_element, kind)
        assert (len(closures), len(joins)) == (10, 119)

    def test_empty_diagram(self, test_biracks):
        for b in test_biracks.values():
            values = [compute_invariant(Diagram([]), b, kind) for kind in KINDS]
            assert [v.value_string() for v in values] == ["1", "1", "z^0", "z^{0}"]
            assert all(v.per_framing == (((), 1),) for v in values)
            # the empty diagram is its own unlink
            for v in values:
                nv = normalize(v, Diagram([]), b)
                assert (nv.per_framing, nv.multiset, nv.normalized) == ((((), 0),), (), True)
                assert nv.value_string() == "0"


class TestFramingBound:
    """compute_invariant refuses more than FRAMING_LIMIT framing vectors
    before it searches anything."""

    MESSAGE = "23 components over a rank-2 birack have 2^23 framings, more than 1000000"

    def test_refused_before_any_search(self, two_element, monkeypatch):
        def forbidden(*args):
            raise AssertionError("searched a diagram with too many framings")

        v = compute_invariant(Diagram([]), two_element, "integral")
        monkeypatch.setattr(biracks.homsearch, "_search", forbidden)
        d = unlink(23)
        for kind in KINDS:
            with pytest.raises(SizeTooLarge) as info:
                compute_invariant(d, two_element, kind)
            assert str(info.value) == self.MESSAGE
        with pytest.raises(SizeTooLarge, match=re.escape(self.MESSAGE)):
            labelings_by_framing(d, two_element)
        with pytest.raises(SizeTooLarge, match=re.escape(self.MESSAGE)):
            normalize(v, d, two_element)

    def test_bound_is_inclusive(self, two_element, monkeypatch):
        # the 8 framings of the 3-unlink pass a bound of 8; the 4-unlink's 16 do not
        monkeypatch.setattr(biracks.invariants, "FRAMING_LIMIT", 8)
        assert len(compute_invariant(unlink(3), two_element, "writhe").per_framing) == 8
        with pytest.raises(SizeTooLarge) as info:
            compute_invariant(unlink(4), two_element, "writhe")
        assert str(info.value) == "4 components over a rank-2 birack have 2^4 framings, more than 8"

    def test_rank_one_has_one_framing(self, ten_element):
        v = compute_invariant(unlink(30), ten_element, "integral")
        assert (v.value, v.per_framing) == (10**30, (((0,) * 30, 10**30),))


class TestLabelingDumpBound:
    """labelings_by_framing refuses more than LABELING_DUMP_LIMIT labels
    before it builds any row."""

    def test_refused_before_any_row(self, ten_element, monkeypatch):
        # the 7-unlink over the rank-1 ten_element has one framing of 10^7
        # labelings of 7 labels; counting it reads its semiarcs once
        calls = _framings_counted(monkeypatch)
        with pytest.raises(SizeTooLarge) as info:
            labelings_by_framing(unlink(7), ten_element)
        assert str(info.value) == (
            "the labelings of every framing would hold more than 6000000 labels")
        assert calls == [(0,) * 7]

    def test_batch_labels_count(self, ten_element, monkeypatch):
        # the labels of a batch's earlier dumps count against the bound:
        # the 3-unlink's 3 * 10^3 labels fit after 3 * 10^3 held at a bound
        # of 6 * 10^3, and after one more are refused before any row is built
        monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", 6000)
        framed, held = biracks.invariants._framed_rows(unlink(3), ten_element, 3000)
        assert ([w for w, _ in framed], len(framed[0][1]), held) == ([(0, 0, 0)], 10**3, 6000)

        def forbidden(*args):
            raise AssertionError("built a row")

        monkeypatch.setattr(biracks.invariants, "starmap", forbidden)
        with pytest.raises(SizeTooLarge) as info:
            biracks.invariants._framed_rows(unlink(3), ten_element, 3001)
        assert str(info.value) == "the labelings of the batch would hold more than 6000 labels"

    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    def test_framed_semiarcs_read_once(self, birack, monkeypatch):
        # each framing with labelings has its framed semiarcs read once, for
        # its label count and its rows, and a framing without any is not
        # read; over four_element_two_orbits all 16 framings of the
        # 4-unlink and all 8 of Hopf with a circle have labelings
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        calls = _framings_counted(monkeypatch)
        codes = [code for _, code in _sample_links()] + [";;;", "O1+,U2+;U1+,O2+;"]
        for code in codes:
            calls.clear()
            framed = labelings_by_framing(parse_gauss(code), b)
            assert calls == [w for w, labs in framed if labs], code


class TestSearchAndClosureCounts:
    """compute_invariant's cut_labelings, subbirack closure (core._close), plan
    (homsearch._plan) and plan closure (homsearch._fire) calls over the
    sample links, unlink(2..4) and a Hopf link with a circle, by data
    birack and kind, from cold plan and join caches, pinned so a change
    that searches, plans or closes more fails: one search per distinct
    group diagram, no subbirack closure for the integral and writhe kinds,
    each join closed once per birack (later diagrams find the joins earlier
    ones kept), one plan per distinct (diagram, cut) key over every
    birack, and no plan closure computed twice."""

    # the same for every kind: the searches are the same.  The 12 plans are
    # the 6 sample links closed and cut; the unlinks' circle and the Hopf
    # link with a circle reuse the unknot's and the Hopf link's.
    PLANS, FIRES = 12, 30

    @pytest.mark.parametrize("kind,searches,closures", [
        ("integral", 44, 0), ("writhe", 44, 0), ("image", 44, 187), ("rho", 44, 187)])
    def test_counts(self, kind, searches, closures, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(biracks.invariants, "cut_labelings",
                            counted("search", biracks.invariants.cut_labelings))
        monkeypatch.setattr(biracks.core, "_close", counted("closure", biracks.core._close))
        for name in ("_plan", "_fire"):
            monkeypatch.setattr(biracks.homsearch, name,
                                counted(name, getattr(biracks.homsearch, name)))
        diagrams = [parse_gauss(code) for _, code in _sample_links()]
        diagrams += [unlink(2), unlink(3), unlink(4), parse_gauss(HOPF + ";")]
        for birack in DATA_BIRACKS:
            b = read_matrix_file(str(DATA / f"{birack}.txt"))
            for d in diagrams:
                compute_invariant(d, b, kind)
        assert (calls["search"], calls["closure"], calls["_plan"], calls["_fire"]) == (
            searches, closures, self.PLANS, self.FIRES)


class TestJoinCache:
    """core._joins keeps each birack's joins for every later fold, request
    and thread, in at most _BIRACKS_KEPT biracks and _JOIN_LABELS // n
    entries per birack; every test starts from an empty cache
    (conftest.cold_caches)."""

    @staticmethod
    def cases():
        diagrams = [parse_gauss(code) for _, code in _sample_links()]
        diagrams += [unlink(2), unlink(3), unlink(4), parse_gauss(HOPF + ";")]
        return [(d, read_matrix_file(str(DATA / f"{birack}.txt")), kind)
                for birack in DATA_BIRACKS for kind in ("image", "rho") for d in diagrams]

    @staticmethod
    def values(case):
        v = compute_invariant(*case)
        nv = normalize(v, *case[:2])
        return v, v.value_string(), nv, nv.value_string()

    @staticmethod
    def counted(monkeypatch) -> list:
        calls = []
        close = biracks.core._close

        def counting(*args):
            calls.append(args)
            return close(*args)

        monkeypatch.setattr(biracks.core, "_close", counting)
        return calls

    def test_cold_and_warm_values(self, monkeypatch):
        cases = self.cases()
        cold = []
        for case in cases:
            biracks.core._joins.cache_clear()
            cold.append(self.values(case))
        calls = self.counted(monkeypatch)
        assert [self.values(case) for case in cases] == cold
        assert calls
        calls.clear()
        assert [self.values(case) for case in cases] == cold
        assert calls == []

    def test_birack_read_again_closes_nothing(self, monkeypatch):
        path = str(DATA / "ten_element.txt")
        first, again = read_matrix_file(path), read_matrix_file(path)
        assert first is not again
        calls = self.counted(monkeypatch)
        value = compute_invariant(unlink(3), first, "rho")
        assert calls
        calls.clear()
        assert compute_invariant(unlink(3), again, "rho") == value
        assert calls == []

    @pytest.mark.parametrize("n,labels", [(12, biracks.core._JOIN_LABELS), (8, 8 * 16)])
    def test_entries_bounded(self, n, labels, monkeypatch):
        # the twist B(x, y) = (y, x): every subset is closed, and none of
        # its 2^n - 1 joins repeats
        monkeypatch.setattr(biracks.core, "_JOIN_LABELS", labels)
        b = tsr_birack(n, 1, 0, 1)
        joins = biracks.core._joins(b)
        kept = []
        close = biracks.core._close

        def counting(*args):
            kept.append(len(joins))
            return close(*args)

        monkeypatch.setattr(biracks.core, "_close", counting)
        assert len(all_subbiracks(b)) == 2 ** n - 1
        assert len(kept) == 2 ** n - 1
        # each join adds two entries to what was kept before it, and the
        # 2 (2^n - 1) entries of all the joins would pass the bound
        assert max(kept) + 2 <= labels // n < 2 ** (n + 1)
        assert len(joins) <= labels // n

    def test_biracks_bounded(self):
        bound = biracks.core._BIRACKS_KEPT
        assert biracks.core._joins.cache_info().maxsize == bound
        tables = [tsr_birack(n, 1, 0, 1) for n in range(2, bound + 7)]
        for b in tables:
            assert biracks.core.subbirack_closure(b, {0}) == {0}
            assert biracks.core._joins.cache_info().currsize <= bound
        info = biracks.core._joins.cache_info()
        assert (info.misses, info.currsize) == (bound + 5, bound)

    @pytest.mark.parametrize("labels", [biracks.core._JOIN_LABELS, 64])
    def test_threads_share_the_cache(self, labels, monkeypatch):
        # with 64 labels a 10-element birack keeps 6 entries, so threads
        # empty the cache while others read it
        monkeypatch.setattr(biracks.core, "_JOIN_LABELS", labels)
        cases = self.cases()
        serial = [self.values(case) for case in cases]
        biracks.core._joins.cache_clear()
        start = threading.Barrier(4, timeout=60)

        def run():
            start.wait()
            return [self.values(case) for case in cases]

        # switch threads often, so that they interleave inside the cache
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(run) for _ in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4


class TestUnlinkClosedForm:
    """c-unlinks against Moebius inversion over the subbirack lattice."""

    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    def test_unlinks(self, birack):
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        for c in range(1, 9):
            expected = unlink_closed_form(b, c)
            for kind in KINDS:
                v = compute_invariant(unlink(c), b, kind)
                assert v.multiset == expected[kind], (c, kind)
                assert v.per_framing == expected["per_framing"], (c, kind)


class TestRhoRendersOnce:
    def test_signatures_are_never_parsed(self, monkeypatch):
        # each image's MultiPoly keys the total, so no canonical string is
        # parsed back into a polynomial
        cases = [(parse_gauss(code), read_matrix_file(str(DATA / f"{birack}.txt")))
                 for birack in DATA_BIRACKS for _, code in _sample_links()]

        def values():
            out = []
            for d, b in cases:
                v = compute_invariant(d, b, "rho")
                nv = normalize(v, d, b)
                out.append((v, v.value_string(), nv, nv.value_string()))
            return out

        expected = values()

        def forbidden(text):
            raise AssertionError(f"parsed {text!r}")

        monkeypatch.setattr(biracks.poly, "parse_multipoly", forbidden)
        assert values() == expected


class TestOnePackagingStep:
    """normalize packages its counts through the same step as
    compute_invariant."""

    CASES = [(birack, name, kind) for birack in DATA_BIRACKS
             for name, _ in _sample_links() for kind in ("integral", "writhe", "image", "rho")]

    @pytest.mark.parametrize("birack,name,kind", CASES)
    def test_normalize_matches_subtraction(self, birack, name, kind):
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        d = parse_gauss(dict(_sample_links())[name])
        v = compute_invariant(d, b, kind)
        base = compute_invariant(unlink(len(d.components)), b, kind)
        difference = dict(v.multiset)
        for key, m in base.multiset:
            difference[key] = difference.get(key, 0) - m
        nv = normalize(v, d, b)
        assert nv.value == v.value - base.value
        assert (v.value, nv.value) == (self._rebuilt(v), self._rebuilt(nv))
        assert dict(nv.multiset) == {key: m for key, m in difference.items() if m}
        assert [key for key, _ in nv.multiset] == sorted(key for key, m in difference.items() if m)
        assert nv.per_framing == tuple(
            (w, m - bm) for (w, m), (_, bm) in zip(v.per_framing, base.per_framing))

    @staticmethod
    def _rebuilt(v):
        """v's value rebuilt from its multiset by the normalizing constructors."""
        if v.kind == "integral":
            return sum(m for _, m in v.multiset)
        if v.kind == "rho":
            return NestedPoly(dict(v.multiset))
        return MultiPoly({
            tuple((f"q{i + 1}", e) for i, e in enumerate(s)) if v.kind == "writhe"
            else (("z", s),): m
            for s, m in v.multiset
        })

    def test_rho_renders_each_polynomial_once(self, monkeypatch):
        cases = [(parse_gauss(code), read_matrix_file(str(DATA / f"{birack}.txt")))
                 for birack in DATA_BIRACKS for _, code in _sample_links()]
        calls = []
        render = MultiPoly.canonical_string

        def counting(self):
            calls.append(self)
            return render(self)

        monkeypatch.setattr(MultiPoly, "canonical_string", counting)
        for d, b in cases:
            normalize(compute_invariant(d, b, "rho"), d, b)
        assert len(calls) == 109


class TestLinearOracle:
    """Per-framing counts over tsr biracks against the kernel of the
    crossing matrix mod n, at sizes brute force cannot reach."""

    THREE_COMPONENT = {
        "chain": "O1+,U2+;U1+;O2+",
        "hopf_circle": HOPF + ";",
        "unlink3": ";;",
        "borromean": "O1+,U2-,O4-,U5+;U1+,O3+,U4-,O6-;O2-,U3+,O5+,U6-",
    }

    @staticmethod
    def _check(d, args) -> None:
        b = tsr_birack(*args)
        v = compute_invariant(d, b, "writhe")
        assert list(v.per_framing) == [
            (w, tsr_labeling_count(with_framing(d, w, b.rank), *args))
            for w in product(range(b.rank), repeat=len(d.components))
        ]

    @pytest.mark.parametrize("args", [(5, 2, 0, 1), (7, 3, 0, 1), (4, 3, 2, 3), (8, 3, 6, 5)])
    def test_random_codes(self, args):
        for seed in range(100):
            self._check(parse_gauss(random_gauss_code(random.Random(seed))), args)

    def test_random_codes_rank_10(self):
        for seed in range(30):
            self._check(parse_gauss(random_gauss_code(random.Random(seed))), (11, 2, 0, 1))

    @pytest.mark.parametrize("name", sorted(THREE_COMPONENT))
    def test_three_components_rank_6(self, name):
        self._check(parse_gauss(self.THREE_COMPONENT[name]), (7, 3, 0, 1))

    @pytest.mark.parametrize("name", ["chain", "borromean"])
    def test_three_components_rank_10(self, name):
        self._check(parse_gauss(self.THREE_COMPONENT[name]), (11, 2, 0, 1))

    def test_borromean_code(self):
        d = parse_gauss(self.THREE_COMPONENT["borromean"])
        assert d == braid_closure(3, [1, -2, 1, -2, 1, -2])


class TestPerLabelingOracle:
    """image/rho multisets match closing every labeling's image separately."""

    DIAGRAMS = {
        "unknot": lambda: parse_gauss(UNKNOT),
        "trefoil": lambda: parse_gauss(TREFOIL),
        "figure_eight": lambda: parse_gauss(FIGURE_EIGHT),
        "hopf": lambda: parse_gauss(HOPF),
        "unlink2": lambda: unlink(2),
        "unlink3": lambda: unlink(3),
    }

    @pytest.mark.parametrize("diagram", sorted(DIAGRAMS))
    @pytest.mark.parametrize("birack", [
        "two_element", "two_orbit4", "tsr3122", "tsr4323", "ts_rack_z4", "dihedral3",
    ])
    def test_multisets(self, birack, diagram, test_biracks):
        b = test_biracks[birack]
        d = self.DIAGRAMS[diagram]()
        for kind in ("image", "rho"):
            v = compute_invariant(d, b, kind)
            assert v.multiset == per_labeling_multiset(d, b, kind)
            assert normalize(v, d, b).multiset == per_labeling_multiset(
                d, b, kind, normalized=True)


class TestRackAgreement:
    """Integral/writhe values agree with a from-scratch rack counting oracle."""

    @pytest.mark.parametrize("code", [UNKNOT, TREFOIL, HOPF, FIGURE_EIGHT])
    def test_rack_counting(self, code, test_biracks):
        d = parse_gauss(code)
        for name in ("ts_rack_z4", "dihedral3"):
            b = test_biracks[name]
            assert phi_integral(d, b) == rack_counting_oracle(d, b)


class TestMoveInvariance:
    MOVE_PAIRS = [
        (";", "O1+,O2-;U1+,U2-"),            # direct type II insertion
        (";", "O1+,O2-;U2-,U1+"),            # reverse type II insertion
        (TREFOIL, "O1+,O4+,O5-,U2+,O3+,U4+,U5-,U1+,O2+,U3+"),   # direct II
        (TREFOIL, "O1+,O4+,O5-,U2+,O3+,U5-,U4+,U1+,O2+,U3+"),   # reverse II
        ("O1+,O2+,U2+,U3+;U1+,O3+", "O2+,O3+,U1+,U2+;O1+,U3+"),  # type III slide
    ]

    @pytest.mark.parametrize("code_a,code_b", MOVE_PAIRS)
    def test_per_framing_counts_invariant(self, code_a, code_b, test_biracks):
        da, db = parse_gauss(code_a), parse_gauss(code_b)
        for b in test_biracks.values():
            per_a = [(w, len(labs)) for w, labs in labelings_by_framing(da, b)]
            per_b = [(w, len(labs)) for w, labs in labelings_by_framing(db, b)]
            assert per_a == per_b

    @pytest.mark.parametrize("code_a,code_b", MOVE_PAIRS)
    def test_enhanced_values_invariant(self, code_a, code_b, test_biracks):
        da, db = parse_gauss(code_a), parse_gauss(code_b)
        for b in test_biracks.values():
            assert phi_image(da, b) == phi_image(db, b)
            assert phi_rho(da, b) == phi_rho(db, b)

    @pytest.mark.parametrize("birack", [*DATA_BIRACKS, "tsr(5,2,0,1)"])
    def test_seeded_curl_insertions(self, birack):
        # a curl moves a component's writhe, and per-framing counts are
        # keyed by the framing itself, so every value stays as it was;
        # the data biracks have rank at most 2, the tsr birack rank 4
        if birack.startswith("tsr"):
            b = tsr_birack(5, 2, 0, 1)
        else:
            b = read_matrix_file(str(DATA / f"{birack}.txt"))
        codes = [code for _, code in _sample_links()] + RANDOM_CODES + [
            random_gauss_code(random.Random(seed), crossings=8, components=3)
            for seed in range(40, 50)]
        for seed, code in enumerate(codes):
            curled = insert_curl(code, random.Random(seed))
            d, dc = parse_gauss(code), parse_gauss(curled)
            assert dc.writhe_vector != d.writhe_vector
            for kind in KINDS:
                assert compute_invariant(dc, b, kind) == compute_invariant(d, b, kind), curled

    @pytest.mark.parametrize("birack", [*DATA_BIRACKS, "tsr(5,2,0,1)", "tsr(7,3,0,1)"])
    def test_seeded_bigon_insertions(self, birack):
        # a bigon adds two crossings of opposite signs, so the writhe
        # vector and every value stay as they were; the tsr biracks have
        # rank 4 and 6
        if birack.startswith("tsr"):
            b = tsr_birack(*map(int, re.findall(r"\d+", birack)))
        else:
            b = read_matrix_file(str(DATA / f"{birack}.txt"))
        codes = [code for _, code in _sample_links()] + RANDOM_CODES
        for seed, code in enumerate(codes):
            bigon = insert_bigon(code, random.Random(seed))
            d, db = parse_gauss(code), parse_gauss(bigon)
            assert len(db.crossings) == len(d.crossings) + 2
            assert db.writhe_vector == d.writhe_vector
            for kind in KINDS:
                assert compute_invariant(db, b, kind) == compute_invariant(d, b, kind), bigon

    # The six sign patterns of the braid relation, sigma_i as i and its
    # inverse as I, with j = i + 1: each pair is a Reidemeister III move.
    BRAID_RELATIONS = [("iji", "jij"), ("IJI", "JIJ"), ("ijI", "Jij"),
                       ("Iji", "jiJ"), ("iJI", "JIj"), ("IJi", "jIJ")]

    @staticmethod
    def _braid_pairs(swap):
        """(strands, left word, right word) for 3 and 4 strands, two seeds
        per relation: a seeded word with left or right spliced in at a
        seeded position and generator i, right rewritten by swap."""
        def letters(pattern, i):
            return [(i if c in "iI" else i + 1) * (1 if c.islower() else -1) for c in pattern]

        pairs = []
        for strands in (3, 4):
            for r, (left, right) in enumerate(TestMoveInvariance.BRAID_RELATIONS):
                for seed in range(2):
                    rng = random.Random(100 * strands + 10 * r + seed)
                    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                            for _ in range(rng.randint(0, 4))]
                    i, at = rng.randint(1, strands - 2), rng.randint(0, len(word))
                    pairs.append((strands, word[:at] + letters(left, i) + word[at:],
                                  word[:at] + letters(swap(right), i) + word[at:]))
        return pairs

    @pytest.mark.parametrize("birack", [*DATA_BIRACKS, "tsr(5,2,0,1)", "tsr(7,3,0,1)"])
    def test_seeded_braid_relations(self, birack):
        # the closures of two braid words one braid relation apart are
        # one link, with the same components and writhe vector; the tsr
        # biracks have rank 4 and 6
        if birack.startswith("tsr"):
            b = tsr_birack(*map(int, re.findall(r"\d+", birack)))
        else:
            b = read_matrix_file(str(DATA / f"{birack}.txt"))
        for strands, left, right in self._braid_pairs(lambda word: word):
            da, db = braid_closure(strands, left), braid_closure(strands, right)
            assert da != db and da.writhe_vector == db.writhe_vector
            for kind in KINDS:
                assert compute_invariant(da, b, kind) == compute_invariant(db, b, kind), (
                    left, right)

    def test_braid_crossing_change_is_seen(self):
        # negative control: with the middle crossing of the right side
        # changed the substitution is not a move, and some value differs
        sample = [read_matrix_file(str(DATA / f"{name}.txt")) for name in DATA_BIRACKS]
        sample += [tsr_birack(5, 2, 0, 1), tsr_birack(7, 3, 0, 1)]
        changed = 0
        for strands, left, right in self._braid_pairs(lambda word: word[0] + word[1].swapcase()
                                                      + word[2]):
            da, db = braid_closure(strands, left), braid_closure(strands, right)
            changed += any(compute_invariant(da, b, kind) != compute_invariant(db, b, kind)
                           for b in sample for kind in KINDS)
        # 8 of the 24 pairs here
        assert changed > 0

    def test_kink_insertion_invariant(self, test_biracks):
        # adding a positive kink to the input code only realigns framings
        da = parse_gauss(TREFOIL)
        db = parse_gauss(TREFOIL + ",O9+,U9+")
        for b in test_biracks.values():
            assert phi_integral(da, b) == phi_integral(db, b)
            assert phi_writhe(da, b) == phi_writhe(db, b)
            assert phi_rho(da, b) == phi_rho(db, b)


class TestRecodingInvariance:
    VARIANTS = [
        TREFOIL,
        "U2+,O3+,U1+,O2+,U3+,O1+",   # rotated pass sequence
        "O7+,U5+,O9+,U7+,O5+,U9+",   # relabeled crossing ids
    ]

    def test_knot_recodings(self, test_biracks):
        for b in test_biracks.values():
            values = {phi_rho(parse_gauss(v), b) for v in self.VARIANTS}
            assert len(values) == 1

    def test_component_swap_renames_q(self, two_orbit4):
        base = "O1+,U1+;O2+,U2+,O3-,U3-"
        swapped = "O2+,U2+,O3-,U3-;O1+,U1+"
        pa = phi_writhe(parse_gauss(base), two_orbit4)
        pb = phi_writhe(parse_gauss(swapped), two_orbit4)
        renamed = MultiPoly.zero()
        for key, coeff in pb.terms.items():
            flip = {"q1": "q2", "q2": "q1"}
            renamed = renamed + MultiPoly.monomial(
                {flip[v]: e for v, e in key}, coeff
            )
        assert pa == renamed
        assert phi_integral(parse_gauss(base), two_orbit4) == phi_integral(
            parse_gauss(swapped), two_orbit4
        )


class TestPowerLaw:
    """Over (Z_p)^m linear biracks every count is a power of p."""

    @pytest.mark.parametrize("p,t,s,r", [(3, 1, 2, 2), (3, 2, 2, 1), (5, 4, 2, 1), (5, 2, 4, 1)])
    def test_counts_are_prime_powers(self, p, t, s, r):
        b = tsr_birack(p, t, s, r)
        for code in KNOT_CODES.values():
            count = phi_integral(parse_gauss(code), b)
            while count % p == 0:
                count //= p
            assert count == 1


class TestDeterminantProfile:
    """Labeling counts through dihedral and linear quandles recover the
    classical determinant data of the reference knots, pinning the Gauss
    codes to the intended knot types."""

    def test_fox_three_colorings(self):
        b = tsr_birack(3, 2, 2, 1)
        expected = {"unknot": 3, "trefoil": 9, "figure_eight": 3,
                    "cinquefoil": 3, "stevedore": 9}
        for name, code in KNOT_CODES.items():
            assert phi_integral(parse_gauss(code), b) == expected[name], name

    def test_fox_five_colorings(self):
        b = tsr_birack(5, 4, 2, 1)
        expected = {"unknot": 5, "trefoil": 5, "figure_eight": 25,
                    "cinquefoil": 25, "stevedore": 5}
        for name, code in KNOT_CODES.items():
            assert phi_integral(parse_gauss(code), b) == expected[name], name

    def test_linear_quandle_t2_over_z5(self):
        # t=2 linear quandle distinguishes the stevedore knot (6_1)
        b = tsr_birack(5, 2, 4, 1)
        expected = {"unknot": 5, "trefoil": 5, "figure_eight": 5,
                    "cinquefoil": 5, "stevedore": 25}
        for name, code in KNOT_CODES.items():
            assert phi_integral(parse_gauss(code), b) == expected[name], name
