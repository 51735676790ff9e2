import json
import random

import pytest

from biracks import (
    BadPairing,
    LengthMismatch,
    ParseError,
    parse_gauss,
    unlink,
    with_framing,
    writhe_vector,
)
from biracks.diagram import framed_semiarc_sources
from conftest import FIGURE_EIGHT, HOPF, TREFOIL, braid_closure, random_gauss_code


class TestParse:
    def test_single_kink(self):
        d = parse_gauss("O1+,U1+")
        assert len(d.components) == 1
        assert len(d.crossings) == 1
        assert d.semiarc_count == 2
        assert d.writhe_vector == (1,)

    def test_empty_component_is_unknot(self):
        d = parse_gauss("")
        assert d.semiarc_count == 1
        assert not d.crossings
        assert d.writhe_vector == (0,)

    def test_hopf(self):
        d = parse_gauss(HOPF)
        assert len(d.components) == 2
        assert len(d.crossings) == 2
        assert d.writhe_vector == (0, 0)  # no self-crossings

    def test_trefoil(self):
        assert writhe_vector(parse_gauss(TREFOIL)) == (3,)

    def test_negative_kink(self):
        assert writhe_vector(parse_gauss("O1-,U1-")) == (-1,)

    def test_figure_eight_balanced(self):
        d = parse_gauss(FIGURE_EIGHT)
        assert d.writhe_vector == (0,)
        assert d.semiarc_count == 8

    def test_whitespace_tolerated(self):
        assert parse_gauss(" O1+ , U2+ ; U1+ , O2+ ") == parse_gauss(HOPF)

    def test_semiarc_count_rule(self):
        # total passes plus crossing-free components
        d = parse_gauss("O1+,U1+;;O2-,U2-")
        assert d.semiarc_count == 2 + 1 + 2

    @pytest.mark.parametrize(
        "bad,exc",
        [
            ("O1*,U1+", ParseError),
            ("X1+,U1+", ParseError),
            ("O0+,U0+", ParseError),
            ("O1+", BadPairing),
            ("O1+,U1+,O1+", BadPairing),
            ("O1+,O1+", BadPairing),
            ("O1+,U1-", BadPairing),
        ],
    )
    def test_rejects_malformed(self, bad, exc):
        with pytest.raises(exc):
            parse_gauss(bad)


class TestSerialize:
    @pytest.mark.parametrize("code", [TREFOIL, FIGURE_EIGHT, HOPF, "", ";", "O1-,U1-"])
    def test_round_trip(self, code):
        d = parse_gauss(code)
        assert parse_gauss(d.serialize()) == d

    def test_token_normalization(self):
        assert parse_gauss(" O1+ ,U2+; U1+,O2+").serialize() == HOPF

    def test_json_export(self):
        d = parse_gauss(TREFOIL)
        payload = json.loads(d.to_json())
        assert payload["writhe_vector"] == [3]
        assert len(payload["semiarcs"]) == 6
        assert payload["crossings"]["1"]["sign"] == 1
        assert payload["crossings"]["1"]["over"] == [0, 0]


class TestUnlink:
    def test_one_component(self):
        d = unlink(1)
        assert d.semiarc_count == 1 and d.writhe_vector == (0,)

    def test_matches_parse(self):
        assert unlink(2) == parse_gauss(";")

    def test_positive_count_required(self):
        with pytest.raises(ValueError):
            unlink(0)


class TestFraming:
    def test_hopf_target(self):
        d = parse_gauss(HOPF)
        framed = with_framing(d, (1, 1), 2)
        assert len(framed.crossings) == 4
        assert framed.writhe_vector == (1, 1)

    def test_no_op_when_target_reached(self):
        d = parse_gauss(TREFOIL)
        assert with_framing(d, (3 % 2,), 2) == d

    def test_unknot_kink(self):
        assert with_framing(parse_gauss(""), (1,), 2).serialize() == "O1+,U1+"

    def test_fresh_ids_and_original_untouched(self):
        d = parse_gauss(HOPF)
        framed = with_framing(d, (1, 0), 2)
        assert set(d.crossings) < set(framed.crossings)
        for cid, cr in d.crossings.items():
            assert framed.crossings[cid].sign == cr.sign

    def test_kink_count_bounds(self):
        d = parse_gauss(TREFOIL)
        for target in range(5):
            framed = with_framing(d, (target,), 5)
            added = len(framed.crossings) - len(d.crossings)
            assert 0 <= added <= 4
            assert framed.writhe_vector[0] % 5 == target % 5

    def test_other_components_untouched(self):
        d = parse_gauss(HOPF)
        framed = with_framing(d, (1, 0), 2)
        assert framed.components[1] == d.components[1]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            with_framing(parse_gauss(HOPF), (1,), 2)


class TestFramedSemiarcSources:
    def test_hopf_and_circle(self):
        # kinks follow each closing semiarc (1, 3 and the circle's 4); the
        # kinked circle has no semiarc of its own left
        d = parse_gauss(HOPF + ";")
        assert framed_semiarc_sources(d, (1, 0, 2), 3) == [
            (0, 0), (1, 0), (1, 1), (1, 2),
            (2, 0), (3, 0),
            (4, 1), (4, 2), (4, 3), (4, 4),
        ]

    def test_unkinked_is_identity(self):
        d = parse_gauss(HOPF + ";")
        assert framed_semiarc_sources(d, (0, 0, 0), 3) == [(s, 0) for s in range(5)]

    def test_one_entry_per_framed_semiarc(self):
        for code in (TREFOIL, HOPF, HOPF + ";", ";;"):
            d = parse_gauss(code)
            for target in ((1,) * len(d.components), (4,) * len(d.components)):
                assert len(framed_semiarc_sources(d, target, 5)) == (
                    with_framing(d, target, 5).semiarc_count
                )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            framed_semiarc_sources(parse_gauss(HOPF), (1,), 2)


class TestBraidClosure:
    def test_trefoil_word(self):
        assert braid_closure(2, [1, 1, 1]).serialize() == TREFOIL

    def test_figure_eight_word(self):
        assert braid_closure(3, [1, -2, 1, -2]).serialize() == FIGURE_EIGHT

    def test_torus_25(self):
        d = braid_closure(2, [1] * 5)
        assert d.writhe_vector == (5,) and len(d.crossings) == 5


class TestRandomGaussCode:
    def test_default_draws_pinned(self):
        # every seeded test built on the default bounds keeps its inputs
        assert [random_gauss_code(random.Random(seed)) for seed in (5, 19, 24)] == [
            "U4-,O2-,O3+,O4-,U1-,O1-;U3+,U2-",
            "O4-;U2+,U1+,U3+,O1+,U4-,U5-,O2+,O3+,O5-",
            "U2+,O3+,O5+,O1-,U4+,U3+,O4+,U5+,U1-,O2+;",
        ]

    def test_bounds(self):
        drawn = [parse_gauss(random_gauss_code(random.Random(seed), crossings=12, components=6))
                 for seed in range(200)]
        assert {len(d.components) for d in drawn} == {1, 2, 3, 4, 5, 6}
        assert max(len(d.crossings) for d in drawn) == 12


class TestWrithe:
    def test_self_crossing_signs(self):
        # the passes of each crossing, read from the code text: a crossing
        # adds its sign to a component that holds both of its passes
        for seed in range(200):
            code = random_gauss_code(random.Random(seed), crossings=12, components=6)
            fields = code.split(";")
            passes: dict[str, list[tuple[int, str]]] = {}
            for ci, field in enumerate(fields):
                for token in filter(None, field.split(",")):
                    passes.setdefault(token[1:-1], []).append((ci, token[-1]))
            expected = [0] * len(fields)
            for (c1, sign), (c2, _) in passes.values():
                if c1 == c2:
                    expected[c1] += 1 if sign == "+" else -1
            assert writhe_vector(parse_gauss(code)) == tuple(expected), code
