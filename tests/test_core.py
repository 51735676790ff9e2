import collections
import functools
import itertools
import json
import random
from pathlib import Path

import pytest

import biracks.core
import biracks.families
from biracks import (
    AxiomViolation,
    CayleyGroup,
    CheckResult,
    FiniteBirack,
    ParseError,
    SizeTooLarge,
    all_subbiracks,
    classify,
    constant_action,
    cycle_string,
    enumerate_biracks,
    format_matrix,
    from_matrix,
    is_subbirack,
    parse_cycles,
    parse_matrix_text,
    read_matrix_file,
    subbirack_closure,
    tau_sigma_rho_birack,
    to_matrix,
    tsr_birack,
    unlink,
    verify_axioms,
    with_framing,
)
from biracks.cli import main
from biracks.diagram import framed_semiarc_sources
from conftest import (
    TWO_ELEMENT_MATRIX,
    dihedral8_cayley,
    enumerated_biracks,
    naive_closure,
    naive_subbiracks,
    reference_analyze,
)

DATA = Path(__file__).resolve().parent.parent / "data"
TSR = [(3, 1, 2, 2), (4, 3, 2, 3), (4, 1, 2, 1), (3, 2, 2, 1), (5, 1, 3, 3), (3, 1, 2, 2, 2),
       (7, 3, 0, 1), (11, 2, 0, 1)]
# up to 67 elements, two with m = 2
ORACLE_TSR = [(3, 1, 2, 2), (4, 3, 2, 3), (67, 2, 0, 1), (3, 2, 0, 1, 2), (5, 2, 0, 1, 2)]


def _tables(tsr=TSR) -> list[FiniteBirack]:
    """Every data/*.txt birack, every birack on 2 elements and tsr tables."""
    tables = [read_matrix_file(p) for p in sorted(DATA.glob("*.txt"))
              if p.name != "sample_links.txt"]
    return tables + enumerate_biracks(2) + [tsr_birack(*args) for args in tsr]


@functools.cache
def _oracle_cases() -> tuple:
    """(birack, seeds, their naive closures, naive lattice) for
    _tables(ORACLE_TSR), every birack on 3 elements and the order-8 group
    birack of test_families' TestTauSigmaRho.test_order8_example.  Seeds:
    every seed of size <= 2 up to 8 elements, else the singletons, and 10
    random seeds of size <= 4."""
    tau = [2 * ((-i) % 4) + j for i, j in (divmod(e, 2) for e in range(8))]
    sigma = [2 * ((2 * i) % 4) for i, _ in (divmod(e, 2) for e in range(8))]
    dihedral8 = tau_sigma_rho_birack(dihedral8_cayley(), tau, sigma, tau)
    rng = random.Random(1)
    cases = []
    for b in [*_tables(ORACLE_TSR), *enumerated_biracks(3), dihedral8]:
        sizes = (1, 2) if b.n <= 8 else (1,)
        seeds = [set(c) for k in sizes for c in itertools.combinations(range(b.n), k)]
        seeds += [set(rng.sample(range(b.n), rng.randint(1, min(4, b.n))))
                  for _ in range(10)]
        closures = [naive_closure(b, seed) for seed in seeds]
        cases.append((b, seeds, closures, naive_subbiracks(b)))
    return tuple(cases)


def identity_birack(n: int) -> FiniteBirack:
    return FiniteBirack(
        [[y for y in range(n)] for _ in range(n)],
        [[x] * n for x in range(n)],
    )


class TestFromMatrix:
    def test_constant_action_4(self, constant4):
        assert cycle_string(constant4.pi) == "(1 2)(3 4)"
        assert constant4.rank == 2

    def test_singleton(self):
        b = from_matrix(1, [[1, 1]])
        assert b.pi == (0,) and b.rank == 1

    def test_two_element(self, two_element):
        assert cycle_string(two_element.pi) == "(1 2)"
        assert two_element.rank == 2

    def test_round_trip(self, constant4, two_element, two_orbit4, ten_element):
        for b in (constant4, two_element, two_orbit4, ten_element):
            assert from_matrix(b.n, to_matrix(b)) == b

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_matrix(2, [[1, 1, 2, 3], [2, 2, 1, 1]])

    @pytest.mark.parametrize("entry,message", [
        (1.5, "entry 1.5 is not an integer"),
        ("2", "entry '2' is not an integer"),
    ])
    def test_rejects_non_integer(self, entry, message):
        with pytest.raises(ValueError) as exc:
            from_matrix(2, [[entry, 1, 2, 2], [2, 2, 1, 1]])
        assert str(exc.value) == message

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            from_matrix(2, [[1, 1, 2, 2]])

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_non_positive_n(self, n):
        with pytest.raises(ValueError) as exc:
            from_matrix(n, [])
        assert str(exc.value) == "n must be positive"

    def test_kink_map_hash_and_repr(self, two_orbit4):
        assert two_orbit4.kink_map == two_orbit4.pi == (0, 1, 3, 2)
        same = from_matrix(4, to_matrix(two_orbit4))
        assert same is not two_orbit4 and hash(same) == hash(two_orbit4)
        assert {two_orbit4: 1}[same] == 1
        assert repr(two_orbit4) == "FiniteBirack(n=4, rank=2)"

    def test_axiom_violation_carries_reason(self):
        # B1 column (second argument fixed) with a repeat: B1(x,-) not bijective
        with pytest.raises(AxiomViolation) as exc:
            from_matrix(2, [[1, 1, 2, 2], [1, 2, 1, 1]])
        assert exc.value.reason in ("NotPairBijective", "SidewaysNotUnique")


class TestParseCycles:
    def test_cycles(self):
        assert parse_cycles("(1 2)(3, 4)", 5) == (1, 0, 3, 2, 4)
        assert parse_cycles(" () ", 2) == (0, 1)

    @pytest.mark.parametrize("text,message", [
        ("(1 a)", "bad cycle entry in '(1 a)'"),
        ("(1 2.5)", "bad cycle entry in '(1 2.5)'"),
        ("(1 2", "bad cycle notation '(1 2'"),
        ("(1 4)", "cycle entry out of range 1..3 in '(1 4)'"),
        ("(1 2)(2 3)", "repeated point in cycle notation '(1 2)(2 3)'"),
    ])
    def test_rejects(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_cycles(text, 3)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,n", [("()", -3), ("(1)", 0), ("", 0)])
    def test_rejects_empty_set(self, text, n):
        with pytest.raises(ValueError) as exc:
            parse_cycles(text, n)
        assert str(exc.value) == f"n must be positive, got {n}"

    def test_element_limit(self, monkeypatch):
        assert parse_cycles("(1 256)", 256)[0] == 255
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 4)
        assert parse_cycles("(1 4)", 4) == (3, 1, 2, 0)
        with pytest.raises(SizeTooLarge) as exc:
            parse_cycles("()", 5)
        assert str(exc.value) == "the permuted set has 5 elements, more than 4"


Z2 = [[0, 1], [1, 0]]
# Each takes one 0-indexed element label from outside, on two elements.
LABEL_TAKERS = {
    "FiniteBirack": lambda v: FiniteBirack([[v, 0], [1, 0]], [[0, 0], [1, 1]]),
    "verify_axioms": lambda v: verify_axioms([[v, 0], [1, 0]], [[0, 0], [1, 1]]),
    "CayleyGroup": lambda v: CayleyGroup([[0, 1], [1, v]]),
    "constant_action": lambda v: constant_action([1, v], [0, 1]),
    "tau_sigma_rho_birack": lambda v: tau_sigma_rho_birack(Z2, [0, 1], [0, v], [0, 1]),
    "subbirack_closure": lambda v: subbirack_closure(identity_birack(2), {v}),
}


class TestLabelCheck:
    """Every element label from outside is checked, never coerced."""

    @pytest.mark.parametrize("entry,message", [
        (1.5, "entry 1.5 is not an integer"),
        ("1", "entry '1' is not an integer"),
        (2, "entry 2 out of range 0..1"),
        (-1, "entry -1 out of range 0..1"),
        (256, "entry 256 out of range 0..1"),
    ], ids=["float", "str", "range", "negative", "byte"])
    @pytest.mark.parametrize("taker", sorted(LABEL_TAKERS))
    def test_rejects_bad_label(self, taker, entry, message):
        with pytest.raises(ValueError) as exc:
            LABEL_TAKERS[taker](entry)
        assert str(exc.value) == message

    @pytest.mark.parametrize("call,message", [
        (lambda: tsr_birack(5, 2.0, 0, 1), "t must be an integer, got 2.0"),
        (lambda: tsr_birack(5.0, 2, 0, 1), "n must be an integer, got 5.0"),
        (lambda: tsr_birack(5, 2, 0, 1, 1.5), "m must be an integer, got 1.5"),
        (lambda: enumerate_biracks(2.5), "n must be an integer, got 2.5"),
        (lambda: unlink(1.5), "c must be an integer, got 1.5"),
        (lambda: parse_cycles("(1 2)", 2.5), "n must be an integer, got 2.5"),
        (lambda: from_matrix(2.0, [[1, 2, 1, 2], [2, 1, 2, 1]]), "n must be an integer, got 2.0"),
        (lambda: with_framing(unlink(1), (1,), 2.0), "N must be an integer, got 2.0"),
        (lambda: with_framing(unlink(1), (1,), "2"), "N must be an integer, got '2'"),
        (lambda: framed_semiarc_sources(unlink(1), (1,), 2.0), "N must be an integer, got 2.0"),
    ], ids=["tsr_t", "tsr_n", "tsr_m", "enumerate_biracks", "unlink", "parse_cycles",
            "from_matrix", "with_framing", "with_framing_str", "framed_semiarc_sources"])
    def test_rejects_non_integer_parameter(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestLabelCheckedOnce:
    """A file label is checked by the loader's label table, and only a
    label spelled otherwise reaches _entries.  Birack tables, a caller's,
    a loader's or a family's, are checked on their byte rows by _analyze,
    which reaches _entries only to name a bad entry; Cayley tables and
    family maps are checked by _entries where they come in."""

    @pytest.fixture
    def entry_checks(self, monkeypatch):
        calls = []
        entries = biracks.core._entries

        def counting(values, low, high):
            calls.append((low, high))
            return entries(values, low, high)

        monkeypatch.setattr(biracks.core, "_entries", counting)
        monkeypatch.setattr(biracks.families, "_entries", counting)
        return calls

    def test_matrix_file_rows(self, tmp_path, entry_checks):
        b = tsr_birack(67, 2, 0, 1)
        path = tmp_path / "tsr67.txt"
        path.write_text(format_matrix(b), encoding="utf-8")
        entry_checks.clear()
        assert read_matrix_file(path) == b
        assert entry_checks == []  # every entry is a key of the label table
        # one 01 sends the file down the integer route: one check per row
        path.write_text(format_matrix(b).replace("\n 1 ", "\n01 ", 1), encoding="utf-8")
        assert read_matrix_file(path) == b
        assert entry_checks == [(1, 67)] * 67

    def test_verify_checks_file_labels_once(self, tmp_path, entry_checks, monkeypatch,
                                            capsys):
        tables = []
        monkeypatch.setattr(biracks.core, "_tables", lambda *t: tables.append(t))
        text = format_matrix(tsr_birack(11, 2, 0, 1))
        path = tmp_path / "tsr11.txt"
        for variant, checks in ((text, []), (text.replace("\n 1 ", "\n01 ", 1), [(1, 11)] * 11)):
            path.write_text(variant, encoding="utf-8")
            entry_checks.clear()
            assert main(["verify", str(path)]) == 0
            assert "valid birack" in capsys.readouterr().out
            assert entry_checks == checks
        assert tables == []  # verify runs no second check of the loaded tables

    def test_family_tables(self, entry_checks):
        tsr_birack(67, 2, 0, 1)
        assert entry_checks == []

    def test_enumerated_tables(self, entry_checks):
        enumerate_biracks(2)
        assert entry_checks == []

    def test_make_tsrho(self, tmp_path, entry_checks, capsys):
        # the order-8 dihedral group: the loader checks the 64 Cayley and 24
        # map labels, then the group checks each table row and the birack
        # each map, as for any caller: 8 + 3
        tau = [2 * ((-i) % 4) + j for i, j in (divmod(e, 2) for e in range(8))]
        sigma = [2 * ((2 * i) % 4) for i, _ in (divmod(e, 2) for e in range(8))]
        files = {"cayley": dihedral8_cayley(), "tau": [tau], "sigma": [sigma], "rho": [tau]}
        argv = ["make", "tsrho"]
        for key, rows in files.items():
            text = "".join(" ".join(str(v + 1) for v in row) + "\n" for row in rows)
            (tmp_path / key).write_text((f"{len(rows)}\n" if key == "cayley" else "") + text,
                                        encoding="utf-8")
            argv += [f"--{key}", str(tmp_path / key)]
        assert main(argv) == 0
        assert entry_checks == [(0, 7)] * 11
        entry_checks.clear()
        assert capsys.readouterr().out == format_matrix(
            tau_sigma_rho_birack(dihedral8_cayley(), tau, sigma, tau))
        # the library call checks each table row and map once: 8 + 3
        assert entry_checks == [(0, 7)] * 11

    def test_caller_tables_still_checked(self, entry_checks, constant4):
        FiniteBirack(constant4.b1, constant4.b2)
        verify_axioms(constant4.b1, constant4.b2)
        assert entry_checks == []  # the byte rows pass
        # a bad entry sends the tables through _entries, which names it
        with pytest.raises(ValueError, match="entry 4 out of range 0..3"):
            FiniteBirack(constant4.b1, (*constant4.b2[:-1], (4, 3, 3, 3)))
        assert entry_checks[-1] == (0, 3)


class TestVerifyAxioms:
    def test_valid_tables_pass_every_axiom(self, constant4):
        report = verify_axioms(constant4.b1, constant4.b2)
        assert report.ok
        assert [c.status for c in report.checks] == ["pass"] * 4
        assert report.first_failure is None

    @pytest.mark.parametrize("b1,b2,message", [
        ([], [], "tables must be non-empty and of equal size"),
        ([[0]], [[0], [0]], "tables must be non-empty and of equal size"),
        ([[0, 1], [0]], [[0, 0], [1, 1]], "tables must be square"),
        ([[0, 1], [1, 0]], [[0, 0], [1, 1, 0]], "tables must be square"),
        ([b"\x00\x01", b"\x01\x02"], [b"\x00\x00", b"\x01\x01"],
         "entry 2 out of range 0..1"),
        ([b"\x00\x01", b"\x01"], [b"\x00\x00", b"\x01\x01"], "tables must be square"),
        # the entry is named before the element bound is reached
        ([list(range(257))] * 256 + [[*range(256), 257]], [[x] * 257 for x in range(257)],
         "entry 257 out of range 0..256"),
    ], ids=["empty", "unequal", "short-row", "long-row", "bytes-range", "bytes-short-row",
            "257-bad-entry"])
    def test_rejects_bad_shape(self, b1, b2, message):
        for check in (verify_axioms, FiniteBirack):
            with pytest.raises(ValueError) as exc:
                check(b1, b2)
            assert str(exc.value) == message

    def test_int_row_is_not_a_row(self):
        # bytes(1) would be the row (0,), and ((0,),), ((0,),) is a birack:
        # a row that is an int raises instead
        for check in (verify_axioms, FiniteBirack):
            for b1, b2 in (([1], [[0]]), ([[0]], [1])):
                with pytest.raises(TypeError):
                    check(b1, b2)

    @pytest.mark.parametrize("relabel", [bytes, lambda row: [v == 1 for v in row]],
                             ids=["bytes-rows", "bools"])
    def test_byte_labels(self, two_element, relabel):
        # rows given as bytes, and True and False, read as labels 1 and 0
        b1, b2 = ([relabel(row) for row in t] for t in (two_element.b1, two_element.b2))
        assert verify_axioms(b1, b2) == verify_axioms(two_element.b1, two_element.b2)
        assert FiniteBirack(b1, b2) == two_element

    def test_index_object_is_its_label(self, two_element):
        # bytes() reads any object with __index__, as a numpy integer has,
        # so such a label passes where _entries refuses it (CayleyGroup,
        # family maps, closure seeds); the birack stores the int it indexes
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        b1 = [[Index(x) for x in row] for row in two_element.b1]
        b2 = [[Index(x) for x in row] for row in two_element.b2]
        assert verify_axioms(b1, b2).ok
        b = FiniteBirack(b1, b2)
        assert b == two_element
        assert {type(x) for table in (b.b1, b.b2) for row in table for x in row} == {int}
        assert to_matrix(b) == to_matrix(two_element)
        json.dumps(to_matrix(b))
        assert subbirack_closure(b, {0}) == subbirack_closure(two_element, {0})
        with pytest.raises(ValueError, match="is not an integer"):
            CayleyGroup([[0, 1], [1, Index(1)]])

    def test_noncommuting_constant_action_fails_ybe(self):
        tau = parse_cycles("(1 2)", 3)
        rho = parse_cycles("(2 3)", 3)
        b1 = [[tau[y] for y in range(3)] for _ in range(3)]
        b2 = [[rho[x]] * 3 for x in range(3)]
        report = verify_axioms(b1, b2)
        assert not report.ok
        failure = report.first_failure
        assert failure.name == "YangBaxterFails"
        assert len(failure.witness) == 3
        assert "equation 2" in failure.detail  # the tau rho = rho tau component

    def test_degenerate_row_reports_sideways(self):
        report = verify_axioms([[0, 0], [1, 1]], [[0, 1], [0, 1]])
        assert report.first_failure.name == "SidewaysNotUnique"
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["DiagonalNotBijective"] == "skipped"

    def test_pair_collision_detected(self):
        report = verify_axioms([[0, 1], [0, 1]], [[0, 0], [0, 0]])
        assert not report.ok
        assert report.checks[0].name == "NotPairBijective"
        assert report.checks[0].status == "fail"
        # the first preimage of the image (0, 0), then the colliding pair
        assert report.checks[0].witness == ((0, 0), (1, 0))

    def test_report_matches_construction(self, two_orbit4):
        report = verify_axioms(two_orbit4.b1, two_orbit4.b2)
        assert report.ok
        FiniteBirack(two_orbit4.b1, two_orbit4.b2)  # does not raise


PAIR, SIDEWAYS, DIAGONAL, YBE = (
    "NotPairBijective", "SidewaysNotUnique", "DiagonalNotBijective", "YangBaxterFails",
)

# Failing candidates: B1 and B2 tables, the report's checks as (name,
# status, witness, detail), its describe() text and the AxiomViolation
# message.  One case per sideways kind, per diagonal map and per YBE
# component equation, and a pair failure followed by a diagonal failure.
FAILING_REPORTS = {
    "b1_row": (
        [[0, 0], [1, 1]],
        [[0, 1], [0, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "fail", ("B1-row", 0), "B1-row 0 is not a bijection"),
            (DIAGONAL, "skipped", None, ""),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 2 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: fail (B1-row 0 is not a bijection)\n"
         "  DiagonalNotBijective: skipped\n"
         "  YangBaxterFails: skipped"),
        "SidewaysNotUnique: B1-row 0 is not a bijection (witness: ('B1-row', 0))",
    ),
    "b2_column": (
        [[0, 1], [1, 0]],
        [[0, 1], [0, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "fail", ("B2-column", 0), "B2-column 0 is not a bijection"),
            (DIAGONAL, "skipped", None, ""),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 2 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: fail (B2-column 0 is not a bijection)\n"
         "  DiagonalNotBijective: skipped\n"
         "  YangBaxterFails: skipped"),
        "SidewaysNotUnique: B2-column 0 is not a bijection (witness: ('B2-column', 0))",
    ),
    "s1_diag": (
        [[0, 1], [0, 1]],
        [[0, 1], [1, 0]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "fail", ("S1 o diag",), "S1 o diag is not a bijection"),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 2 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: fail (S1 o diag is not a bijection)\n"
         "  YangBaxterFails: skipped"),
        "DiagonalNotBijective: S1 o diag is not a bijection (witness: ('S1 o diag',))",
    ),
    "s2_diag": (
        [[0, 1], [1, 0]],
        [[0, 0], [1, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "fail", ("S2 o diag",), "S2 o diag is not a bijection"),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 2 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: fail (S2 o diag is not a bijection)\n"
         "  YangBaxterFails: skipped"),
        "DiagonalNotBijective: S2 o diag is not a bijection (witness: ('S2 o diag',))",
    ),
    "s1inv_diag": (
        [[2, 1, 0], [0, 1, 2], [2, 1, 0]],
        [[1, 1, 1], [0, 0, 0], [2, 2, 2]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "fail", ("S1^-1 o diag",), "S1^-1 o diag is not a bijection"),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 3 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: fail (S1^-1 o diag is not a bijection)\n"
         "  YangBaxterFails: skipped"),
        "DiagonalNotBijective: S1^-1 o diag is not a bijection (witness: ('S1^-1 o diag',))",
    ),
    "s2inv_diag": (
        [[2, 1, 0], [2, 1, 0], [2, 1, 0]],
        [[0, 2, 0], [1, 1, 2], [2, 0, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "fail", ("S2^-1 o diag",), "S2^-1 o diag is not a bijection"),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 3 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: fail (S2^-1 o diag is not a bijection)\n"
         "  YangBaxterFails: skipped"),
        "DiagonalNotBijective: S2^-1 o diag is not a bijection (witness: ('S2^-1 o diag',))",
    ),
    "ybe_1": (
        [[1, 0, 2], [0, 2, 1], [2, 1, 0]],
        [[2, 2, 2], [0, 0, 0], [1, 1, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "pass", None, ""),
            (YBE, "fail", (0, 0, 0), "component equation 1"),
        ],
        ("candidate on 3 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: pass\n"
         "  YangBaxterFails: fail (component equation 1)"),
        "YangBaxterFails: component equation 1 (witness: (0, 0, 0))",
    ),
    "ybe_2": (
        [[0, 2, 1], [0, 2, 1], [0, 2, 1]],
        [[0, 2, 0], [2, 0, 2], [1, 1, 1]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "pass", None, ""),
            (YBE, "fail", (0, 0, 1), "component equation 2"),
        ],
        ("candidate on 3 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: pass\n"
         "  YangBaxterFails: fail (component equation 2)"),
        "YangBaxterFails: component equation 2 (witness: (0, 0, 1))",
    ),
    "ybe_3": (
        [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
        [[0, 2, 0], [2, 1, 1], [1, 0, 2]],
        [
            (PAIR, "pass", None, ""),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "pass", None, ""),
            (YBE, "fail", (0, 1, 0), "component equation 3"),
        ],
        ("candidate on 3 element(s): NOT a birack\n"
         "  NotPairBijective: pass\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: pass\n"
         "  YangBaxterFails: fail (component equation 3)"),
        "YangBaxterFails: component equation 3 (witness: (0, 1, 0))",
    ),
    "pair_then_diag": (
        [[0, 1], [1, 0]],
        [[1, 0], [0, 1]],
        [
            (PAIR, "fail", ((0, 1), (1, 0)), "B(0, 1) = B(1, 0)"),
            (SIDEWAYS, "pass", None, ""),
            (DIAGONAL, "fail", ("S2 o diag",), "S2 o diag is not a bijection"),
            (YBE, "skipped", None, ""),
        ],
        ("candidate on 2 element(s): NOT a birack\n"
         "  NotPairBijective: fail (B(0, 1) = B(1, 0))\n"
         "  SidewaysNotUnique: pass\n"
         "  DiagonalNotBijective: fail (S2 o diag is not a bijection)\n"
         "  YangBaxterFails: skipped"),
        "NotPairBijective: B(0, 1) = B(1, 0) (witness: ((0, 1), (1, 0)))",
    ),
}


def _matrix_text(b1, b2) -> str:
    """Matrix file text of candidate tables, in to_matrix's block layout."""
    n = len(b1)
    rows = [[b1[x][y] + 1 for x in range(n)] + [b2[y][x] + 1 for x in range(n)]
            for y in range(n)]
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


class TestFailingReports:
    @pytest.mark.parametrize("case", FAILING_REPORTS)
    def test_report_and_violation(self, case):
        b1, b2, checks, describe, message = FAILING_REPORTS[case]
        report = verify_axioms(b1, b2)
        assert report.checks == tuple(CheckResult(*c) for c in checks)
        assert report.describe() == describe
        with pytest.raises(AxiomViolation) as exc:
            FiniteBirack(b1, b2)
        name, _, witness, detail = next(c for c in checks if c[1] == "fail")
        assert (exc.value.reason, exc.value.witness, exc.value.detail) == (name, witness, detail)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", FAILING_REPORTS)
    def test_verify_command(self, case, tmp_path, capsys):
        b1, b2, checks, describe, _ = FAILING_REPORTS[case]
        path = tmp_path / "candidate.txt"
        path.write_text(_matrix_text(b1, b2))
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == describe + "\n"
        assert main(["verify", str(path), "--json"]) == 1
        payload = {
            "checks": [
                {"axiom": name, "detail": detail, "status": status, "witness": witness}
                for name, status, witness, detail in checks
            ],
            "n": len(b1),
            "ok": False,
        }
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"


def _nondegenerate(rows, columns) -> tuple[list, list]:
    """Tables (B1, B2) whose B1 rows are rows and whose B2 columns are columns."""
    n = len(rows)
    return [list(r) for r in rows], [[columns[y][x] for y in range(n)] for x in range(n)]


def _ybe_conditions(b1, b2) -> tuple[bool, bool, bool]:
    """(i), (ii) and (iii) of core._ybe_holds, elementwise from their
    definitions, for bijective B1 rows."""
    n = len(b1)
    s1 = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        s1[b1[x][y]][x] = b2[x][y]

    def op(x, y):
        return b1[y][s1[y][x]]

    triples = list(itertools.product(range(n), repeat=3))
    return (
        all(b1[x][b1[y][z]] == b1[b1[x][y]][b1[b2[x][y]][z]] for x, y, z in triples),
        all(op(op(x, y), z) == op(op(x, z), op(y, z)) for x, y, z in triples),
        all(b1[x][op(y, z)] == op(b1[x][y], b1[x][z]) for x, y, z in triples),
    )


@pytest.fixture
def ybe_outcomes(monkeypatch):
    """(permutation form, scan passes) for every core._ybe_holds call."""
    outcomes = []
    holds = biracks.core._ybe_holds

    def checking(b1, b2, s1, n):
        fast = holds(b1, b2, s1, n)
        outcomes.append((fast, biracks.core._ybe_witness(b1, b2, n)[0] is None))
        return fast

    monkeypatch.setattr(biracks.core, "_ybe_holds", checking)
    return outcomes


def _count_scans(monkeypatch, name) -> list:
    """The element count n of every call of the scan core.<name>."""
    calls = []
    scan = getattr(biracks.core, name)

    def counting(b1, b2, n):
        calls.append(n)
        return scan(b1, b2, n)

    monkeypatch.setattr(biracks.core, name, counting)
    return calls


@pytest.fixture
def scans(monkeypatch):
    """The element count n of every core._ybe_witness call."""
    return _count_scans(monkeypatch, "_ybe_witness")


@pytest.fixture
def pair_scans(monkeypatch):
    """The element count n of every core._pair_witness call."""
    return _count_scans(monkeypatch, "_pair_witness")


class TestYangBaxterForm:
    """core._ybe_holds against the triple scan core._ybe_witness."""

    def test_agrees_with_scan_on_small_tables(self, ybe_outcomes):
        # every table on <= 3 elements with bijective B1 rows and B2
        # columns, so every one that reaches the Yang-Baxter check
        for n in (1, 2, 3):
            perms = list(itertools.permutations(range(n)))
            for rows, columns in itertools.product(
                    itertools.product(perms, repeat=n), repeat=2):
                biracks.core._analyze(*_nondegenerate(rows, columns))
        assert all(fast == scan for fast, scan in ybe_outcomes)
        # tables that reach the check, and Yang-Baxter solutions among them
        assert (len(ybe_outcomes), sum(scan for _, scan in ybe_outcomes)) == (509, 71)

    def test_agrees_with_scan_on_random_tables(self, ybe_outcomes):
        rng = random.Random(14)
        for n in range(2, 7):
            for _ in range(300):
                rows = [rng.sample(range(n), n) for _ in range(n)]
                columns = [rng.sample(range(n), n) for _ in range(n)]
                biracks.core._analyze(*_nondegenerate(rows, columns))
                # constant actions B(x, y) = (tau y, rho x) pass (i) and (ii)
                tau, rho = rng.sample(range(n), n), rng.sample(range(n), n)
                biracks.core._analyze(*_nondegenerate([tau] * n, [rho] * n))
        assert all(fast == scan for fast, scan in ybe_outcomes)
        assert (len(ybe_outcomes), sum(scan for _, scan in ybe_outcomes)) == (1576, 629)

    def test_condition_iii_is_needed(self, ybe_outcomes):
        # tau = (1 2) and rho = (2 3) do not commute: every sigma_x is tau
        # and every R_z is tau rho, so (i) and (ii) hold and (iii) fails
        tau, rho = parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)
        b1, b2 = _nondegenerate([tau] * 3, [rho] * 3)
        assert _ybe_conditions(b1, b2) == (True, True, False)
        assert verify_axioms(b1, b2).first_failure.name == YBE
        assert ybe_outcomes == [(False, False)]

    def test_valid_biracks_skip_scan(self, scans, pair_scans):
        for path in sorted(DATA.glob("*.txt")):
            if path.name != "sample_links.txt":
                read_matrix_file(path)
        tsr_birack(67, 2, 0, 1)
        tsr_birack(251, 2, 0, 1)
        assert scans == pair_scans == []

    def test_valid_tables_build_no_row_sets(self, monkeypatch, scans, pair_scans):
        # each family of rows is tested against its inverses in one
        # comparison, so a valid table builds no set per row: the one set
        # of row lengths that checks the shape is all
        b = tsr_birack(67, 2, 0, 1)
        sizes = []

        def counting(*args):
            made = set(*args)
            sizes.append(len(made))
            return made

        monkeypatch.setattr(biracks.core, "set", counting, raising=False)
        report, derived = biracks.core._analyze(b.b1, b.b2)
        assert report.ok and derived[:2] == (b.b1, b.b2)
        assert len(sizes) <= 1
        assert scans == pair_scans == []

    @pytest.mark.parametrize("case", ["ybe_1", "ybe_2", "ybe_3"])
    def test_failing_table_scans_once(self, case, scans):
        b1, b2, checks, _, _ = FAILING_REPORTS[case]
        assert verify_axioms(b1, b2).checks == tuple(CheckResult(*c) for c in checks)
        assert len(scans) == 1

    def test_257_elements_refused(self):
        # byte labels: B(x, y) = (y, x) on 257 elements is a birack, but
        # its labels do not fit in a byte
        n = 257
        b1, b2 = [list(range(n))] * n, [[x] * n for x in range(n)]
        for build in (FiniteBirack, verify_axioms):
            with pytest.raises(SizeTooLarge) as exc:
                build(b1, b2)
            assert str(exc.value) == "the candidate birack has 257 elements, more than 256"


class TestAnalyzeMatchesSweep:
    """core._analyze, which builds every map from byte rows, against the
    plain n^2 sweep conftest.reference_analyze: equal reports, witnesses
    and details, and equal derived tables."""

    @staticmethod
    def _same(b1, b2):
        got = biracks.core._analyze(b1, b2)
        assert got == reference_analyze(b1, b2)
        return got[0]

    def test_valid_tables(self):
        # every data birack, every birack on at most 3 elements, and tsr
        # tables up to 251 elements, the largest prime below 256, and of
        # 256, whose rows fill a bytes.translate table with no padding
        tables = [*_tables([*TSR, *ORACLE_TSR, (128, 3, 0, 5), (251, 2, 0, 1),
                            (256, 3, 0, 1)]),
                  *enumerate_biracks(1), *enumerated_biracks(3)]
        assert all(self._same(b.b1, b.b2).ok for b in tables)
        assert (len(tables), max(b.n for b in tables)) == (91, 256)

    def test_failing_tables(self, pair_scans):
        # valid tables with one entry changed or two entries of one row
        # swapped, and tables with random bijective B1 rows and B2 columns
        rng = random.Random(26)
        seeds = [b for b in [*_tables(), *enumerated_biracks(3)] if b.n > 1]
        cases = []
        for _ in range(2400):
            b = rng.choice(seeds)
            t1, t2 = [list(map(list, t)) for t in (b.b1, b.b2)]
            row = rng.choice(rng.choice((t1, t2)))
            i, j = rng.sample(range(b.n), 2)
            if rng.random() < 0.5:
                row[i] = (row[i] + rng.randrange(1, b.n)) % b.n
            else:
                row[i], row[j] = row[j], row[i]
            cases.append((t1, t2))
        for n in range(2, 7):
            for _ in range(200):
                cases.append(_nondegenerate([rng.sample(range(n), n) for _ in range(n)],
                                            [rng.sample(range(n), n) for _ in range(n)]))
        # tables whose one non-bijective row is the last B1 row or the last
        # B2 column, which a bijectivity test over a family's joined rows
        # passes if it drops or shifts a row
        b = tsr_birack(11, 2, 0, 1)
        t1, t2 = [list(map(list, t)) for t in (b.b1, b.b2)]
        t1[-1][0] = t1[-1][1]
        t2[0][-1] = t2[1][-1]
        cases += [(t1, b.b2), (b.b1, t2)]
        reports = [self._same(*case) for case in cases]
        # tables failing each axiom, and tables passing all four
        failed = collections.Counter(c.name for r in reports for c in r.checks
                                     if c.status == "fail")
        failed["valid"] = sum(r.ok for r in reports)
        assert failed == {"valid": 591, PAIR: 2231, SIDEWAYS: 1315, DIAGONAL: 1393, YBE: 103}
        # the pair scan runs only when the pair or sideways check fails
        assert len(pair_scans) == sum(
            "fail" in (r.checks[0].status, r.checks[1].status) for r in reports)

    def test_no_lone_non_bijective_s1_row(self):
        # With bijective B1 rows and B2 columns, no row of S1 is the only
        # non-bijective one: a label is once in each B2 column, so n times
        # in S1, and n - 1 bijective rows leave it once for the last.  So a
        # table failing the pair check on the last S1 row fails it on
        # another too.
        rng = random.Random(29)
        bad_rows = collections.Counter()
        for n in range(3, 6):
            for _ in range(200):
                t1, t2 = _nondegenerate([rng.sample(range(n), n) for _ in range(n)],
                                        [rng.sample(range(n), n) for _ in range(n)])
                s1 = [[0] * n for _ in range(n)]
                for x, y in itertools.product(range(n), repeat=2):
                    s1[t1[x][y]][x] = t2[x][y]
                bad = [u for u in range(n) if len(set(s1[u])) != n]
                if bad[-1:] == [n - 1]:
                    bad_rows[len(bad)] += 1
                    checks = self._same(t1, t2).checks
                    assert (checks[0].status, checks[1].status) == ("fail", "pass")
        # tables by their count of non-bijective S1 rows: never 1
        assert bad_rows == {2: 89, 3: 86, 4: 134, 5: 144}


class TestRepresentation:
    """FiniteBirack holds each of its eight tables once, as a tuple of n
    byte rows, and its kink maps as tuples of int, whatever type its input
    has; biracks from equal tables are equal and hash alike, and the
    matrix forms round-trip."""

    TABLES = ("b1", "b2", "b1inv", "b2inv", "s1", "s2", "s1inv", "s2inv")

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    @staticmethod
    def _sources() -> dict[str, FiniteBirack]:
        """Every data/*.txt birack and a birack of each family."""
        files = {p.stem: read_matrix_file(p) for p in sorted(DATA.glob("*.txt"))
                 if p.name != "sample_links.txt"}
        return {**files,
                "constant_action": constant_action((1, 0, 3, 2), (0, 1, 3, 2)),
                "tsr": tsr_birack(5, 2, 0, 1),
                "tsr_m2": tsr_birack(3, 2, 0, 1, 2),
                "tau_sigma_rho": tau_sigma_rho_birack(Z2, [0, 1], [0, 0], [0, 1])}

    def _same(self, built: FiniteBirack, b: FiniteBirack) -> None:
        for name in self.TABLES:
            table = getattr(built, name)
            assert type(table) is tuple and len(table) == built.n
            assert all(type(row) is bytes and len(row) == built.n for row in table)
        for perm in (built.alpha, built.pi, built.kink_map):
            assert type(perm) is tuple and len(perm) == built.n
            assert all(type(v) is int for v in perm)
        assert built == b and hash(built) == hash(b)

    def test_input_types(self, tmp_path):
        sources = self._sources()
        for name, b in sources.items():
            t1, t2 = ([list(row) for row in t] for t in (b.b1, b.b2))
            path = tmp_path / f"{name}.txt"
            path.write_text(format_matrix(b), encoding="utf-8")
            matrix = to_matrix(b)
            assert all(type(v) is int for row in matrix for v in row)
            for built in (
                b,
                FiniteBirack(t1, t2),
                FiniteBirack(tuple(tuple(row) for row in t1), tuple(tuple(row) for row in t2)),
                FiniteBirack(*([[self.Index(v) for v in row] for row in t] for t in (t1, t2))),
                from_matrix(b.n, matrix),
                read_matrix_file(path),
            ):
                self._same(built, b)
                assert to_matrix(built) == matrix
                assert format_matrix(built) == path.read_text(encoding="utf-8")
        assert len(sources) == 8

    def test_numpy_int64(self):
        # numpy is optional: the package and its tests need only pytest
        numpy = pytest.importorskip("numpy")
        for b in self._sources().values():
            built = FiniteBirack(*(numpy.array([list(row) for row in t], dtype=numpy.int64)
                                   for t in (b.b1, b.b2)))
            self._same(built, b)


class TestDerivedStructure:
    """The defining relations, checked directly against the tables."""

    def test_sideways_relation(self, test_biracks):
        for b in [*test_biracks.values(), *_tables(ORACLE_TSR), *enumerated_biracks(3)]:
            for x in range(b.n):
                for y in range(b.n):
                    assert b.sideways(b.b1[x][y], x) == (b.b2[x][y], y)

    def test_inverses(self, test_biracks):
        for b in [*test_biracks.values(), *_tables(ORACLE_TSR), *enumerated_biracks(3)]:
            # an entry left unwritten would index a row without an error
            for table in (b.b1inv, b.b2inv, b.s1, b.s2, b.s1inv, b.s2inv):
                assert all(0 <= v < b.n for row in table for v in row)
            for x in range(b.n):
                for y in range(b.n):
                    assert b.apply_inverse(*b.apply(x, y)) == (x, y)
                    assert b.apply(*b.apply_inverse(x, y)) == (x, y)
                    assert b.sideways_inverse(*b.sideways(x, y)) == (x, y)
                    assert b.sideways(*b.sideways_inverse(x, y)) == (x, y)

    def test_kink_relation(self, test_biracks):
        # S(pi(x), x) = (alpha(x), alpha(x)): a positive kink with in-label
        # x has through-label alpha(x) and out-label pi(x)
        for b in [*test_biracks.values(), *_tables()]:
            for x in range(b.n):
                a = b.alpha[x]
                assert b.sideways(b.pi[x], x) == (a, a)

    def test_double_kink_maps_coincide(self, test_biracks):
        for b in [*test_biracks.values(), *_tables()]:
            d1 = [b.s1[x][x] for x in range(b.n)]
            d2 = [b.s2[x][x] for x in range(b.n)]
            inv_d2 = [0] * b.n
            for i, v in enumerate(d2):
                inv_d2[v] = i
            assert tuple(d1[inv_d2[x]] for x in range(b.n)) == b.pi

    def test_rank_is_order_of_pi(self, test_biracks):
        for b in test_biracks.values():
            power = list(range(b.n))
            for k in range(1, b.rank + 1):
                power = [b.pi[x] for x in power]
                if k < b.rank:
                    assert power != list(range(b.n))
            assert power == list(range(b.n))


class TestSubbiracks:
    def test_two_orbit_closures(self, two_orbit4):
        assert subbirack_closure(two_orbit4, {0}) == frozenset({0, 1})
        assert subbirack_closure(two_orbit4, {2}) == frozenset({2, 3})
        assert subbirack_closure(two_orbit4, set()) == frozenset()
        assert subbirack_closure(two_orbit4, range(4)) == frozenset(range(4))

    def test_bool_seed_closes_to_int_labels(self, two_element):
        closure = subbirack_closure(two_element, [True])
        assert json.dumps(sorted(closure)) == "[0, 1]"
        assert {type(x) for x in closure} == {int}
        assert {type(x) for x in subbirack_closure(two_element, [False, True])} == {int}

    def test_all_subbiracks_two_orbit(self, two_orbit4):
        assert all_subbiracks(two_orbit4) == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
        ]

    def test_two_element_is_simple(self, two_element):
        assert all_subbiracks(two_element) == [frozenset({0, 1})]

    def test_singleton(self):
        b = from_matrix(1, [[1, 1]])
        assert all_subbiracks(b) == [frozenset({0})]

    def test_tsr_closure_is_everything(self, trefoil_birack):
        assert subbirack_closure(trefoil_birack, {1}) == frozenset({0, 1, 2})

    def test_members_are_biracks_in_their_own_right(self, two_orbit4, ten_element):
        for b in (two_orbit4, ten_element):
            for sub in all_subbiracks(b):
                order = sorted(sub)
                index = {x: i for i, x in enumerate(order)}
                b1 = [[index[b.b1[x][y]] for y in order] for x in order]
                b2 = [[index[b.b2[x][y]] for y in order] for x in order]
                assert verify_axioms(b1, b2).ok

    def test_is_subbirack(self, two_orbit4):
        assert is_subbirack(two_orbit4, {0, 1})
        assert not is_subbirack(two_orbit4, {0})
        assert not is_subbirack(two_orbit4, set())


class TestClassify:
    def test_two_element_flags(self, two_element):
        flags = classify(two_element)
        assert not flags.is_biquandle
        assert not flags.is_rack
        assert flags.is_simple

    def test_identity_birack_is_quandle(self):
        flags = classify(identity_birack(3))
        assert flags.is_biquandle and flags.is_rack
        assert flags.is_quandle and flags.is_semiquandle
        assert not flags.is_simple  # singletons are closed

    def test_tsr_4323_not_biquandle(self):
        from biracks import tsr_birack

        assert not classify(tsr_birack(4, 3, 2, 3)).is_biquandle

    def test_rack_flag(self, test_biracks):
        assert classify(test_biracks["ts_rack_z4"]).is_rack
        assert classify(test_biracks["dihedral3"]).is_quandle


class TestIsRack:
    def test_matches_pairwise_definition(self):
        tables = [read_matrix_file(p) for p in sorted(DATA.glob("*.txt"))
                  if p.name != "sample_links.txt"]
        tables += [b for n in (1, 2, 3) for b in enumerated_biracks(n)]
        tables += [tsr_birack(*args) for args in [(67, 2, 0, 1), (5, 2, 0, 1, 2), (3, 1, 2, 2)]]
        flags = [b.is_rack() for b in tables]
        assert flags == [all(b.b2[x][y] == x for x in range(b.n) for y in range(b.n))
                         for b in tables]
        assert (len(flags), sum(flags)) == (78, 18)


class TestIsSemiquandle:
    def test_matches_pairwise_definition(self):
        # classify compares B with B^-1; the definition is B o B = id
        tables = [read_matrix_file(p) for p in sorted(DATA.glob("*.txt"))
                  if p.name != "sample_links.txt"]
        tables += [b for n in (1, 2, 3) for b in enumerated_biracks(n)]
        tables += [tsr_birack(*args) for args in [(67, 2, 0, 1), (5, 2, 0, 1, 2), (3, 1, 2, 2)]]
        flags = [classify(b).is_semiquandle for b in tables]
        assert flags == [b.is_biquandle() and all(b.apply(*b.apply(x, y)) == (x, y)
                                                  for x in range(b.n) for y in range(b.n))
                         for b in tables]
        assert (len(flags), sum(flags)) == (78, 15)


class TestIsSimple:
    """is_simple, decided from singleton closures, agrees with the lattice."""

    def test_matches_all_subbiracks(self):
        tables = _tables()
        flags = [classify(b).is_simple for b in tables]
        assert flags == [all_subbiracks(b) == [frozenset(range(b.n))] for b in tables]
        assert True in flags and False in flags


class TestClosureTheorem:
    """subbirack_closure iterates B only; S and the inverse maps follow."""

    def test_closures_are_closed_under_inverse_maps(self):
        rng = random.Random(0)
        checked = 0
        for b in _tables():
            seeds = [{x} for x in range(b.n)]
            seeds += [set(rng.sample(range(b.n), rng.randint(1, min(3, b.n))))
                      for _ in range(10)]
            for seed in seeds:
                closed = subbirack_closure(b, seed)
                for x in closed:
                    for y in closed:
                        for table in (b.s1, b.s2, b.b1inv, b.b2inv, b.s1inv, b.s2inv):
                            assert table[x][y] in closed
                checked += 1
        assert checked > 100


class TestSemiNaiveClosure:
    """The semi-naive closure and the atom joins equal the all-pairs oracles."""

    def test_closure_matches_oracle(self):
        checked = 0
        for b, seeds, closures, _ in _oracle_cases():
            assert [subbirack_closure(b, seed) for seed in seeds] == closures
            checked += len(seeds)
        assert checked > 1000

    def test_lattice_and_joins_match_oracle(self):
        rng = random.Random(2)
        extra = [
            constant_action((1, 0, 3, 2, 4, 5, 6, 7), (0, 1, 2, 3, 5, 4, 6, 7)),
            tsr_birack(8, 1, 0, 1),  # the twist: every subset is closed
        ]
        cases = [(b, lattice) for b, _, _, lattice in _oracle_cases()]
        cases += [(b, naive_subbiracks(b)) for b in extra]
        joins = 0
        for b, lattice in cases:
            assert all_subbiracks(b) == lattice
            for _ in range(10):
                x, y = rng.choice(lattice), rng.choice(lattice)
                expected = naive_closure(b, x | y)
                assert subbirack_closure(b, x | y) == expected
                assert biracks.core._close(b, x, y - x) == expected
                joins += x != expected
        assert len(lattice) == 2 ** 8 - 1
        assert joins > 20


class TestClosureUnderBAlone:
    """Closure and the lattice read only B1 and B2: S is never indexed."""

    class _Unreadable:
        def __getitem__(self, key):
            raise AssertionError("S was read")

    def test_s_is_never_read(self):
        rng = random.Random(4)
        for b, seeds, closures, lattice in _oracle_cases():
            pairs = [(rng.choice(lattice), rng.choice(lattice)) for _ in range(5)]
            joins = [naive_closure(b, x | y) for x, y in pairs]
            fresh = FiniteBirack(b.b1, b.b2)
            fresh.s1 = fresh.s2 = self._Unreadable()
            assert [subbirack_closure(fresh, seed) for seed in seeds] == closures
            assert [biracks.core._close(fresh, x, y - x) for x, y in pairs] == joins
            assert all_subbiracks(fresh) == lattice


class TestOrbitAtoms:
    """_atoms yields one representative per orbit of the kink maps alpha
    and pi, its least element, and closes nothing; the orbit shares the
    representative's closure."""

    def test_orbits_share_one_closure(self):
        for b, seeds, closures, _ in _oracle_cases():
            atom = {next(iter(seed)): c for seed, c in zip(seeds, closures) if len(seed) == 1}
            assert len(atom) == b.n
            reps = list(biracks.core._atoms(b))
            orbits = []
            for x in reps:
                orbit, stack = {x}, [x]
                while stack:
                    y = stack.pop()
                    for z in (b.alpha[y], b.pi[y]):
                        if z not in orbit:
                            orbit.add(z)
                            stack.append(z)
                # the representative's closure holds along alpha and pi
                assert all(atom[b.alpha[y]] == atom[y] == atom[b.pi[y]] == atom[x]
                           for y in orbit)
                assert min(orbit) == x
                orbits.append(orbit)
            # the orbits partition the elements, one representative each
            assert sorted(y for orbit in orbits for y in orbit) == list(range(b.n))
            assert set(atom[x] for x in reps) == set(atom.values())
            # observed on every case, not proven: distinct orbits, distinct atoms
            assert len(reps) == len(set(atom[x] for x in reps))

    @pytest.mark.parametrize("args,closures", [
        ((67, 11, 0, 1), 2), ((67, 2, 0, 1), 2), ((16, 1, 0, 1), 16), ((3, 2, 0, 1, 2), 5),
    ])
    def test_closure_count(self, monkeypatch, args, closures):
        b = tsr_birack(*args)
        reps = list(biracks.core._atoms(b))
        proper = [len(subbirack_closure(b, {x})) < b.n for x in reps]
        biracks.core._joins.cache_clear()  # count from a cold join cache
        calls = []
        close = biracks.core._close

        def counting(b, closed, frontier):
            calls.append(frontier)
            return close(b, closed, frontier)

        monkeypatch.setattr(biracks.core, "_close", counting)
        # one representative per orbit, and no closure to find them
        assert len(list(biracks.core._atoms(b))) == closures
        assert calls == []
        # classify closes the representatives in order, up to the first
        # proper closure
        simple = classify(b).is_simple
        assert len(calls) == (proper.index(True) + 1 if any(proper) else closures)
        assert simple is not any(proper)
        # the joins are kept, so classifying b again closes nothing
        calls.clear()
        assert classify(b).is_simple is simple
        assert calls == []


class TestAtomJoins:
    """all_subbiracks folds one singleton per kink-map orbit through
    core._join_fold: each state is closed with a singleton at most once,
    and not at all when it holds it.  The counts are deterministic and
    include the singletons' own closures, from the empty state."""

    @staticmethod
    def _counted(monkeypatch, b):
        calls = []
        close = biracks.core._close

        def counting(b, closed, frontier):
            calls.append(frontier)
            return close(b, closed, frontier)

        monkeypatch.setattr(biracks.core, "_close", counting)
        subs = all_subbiracks(b)
        monkeypatch.undo()
        return subs, len(calls)

    def test_close_calls(self, monkeypatch, ten_element):
        subs, calls = self._counted(monkeypatch, tsr_birack(3, 2, 0, 1, 2))
        assert (len(subs), calls) == (31, 31)
        # twist B(x, y) = (y, x): every subset is closed, the atoms are the
        # 8 singletons, and each non-empty set is closed once, as a
        # singleton or as the join of a set with the next atom
        subs, calls = self._counted(monkeypatch, tsr_birack(8, 1, 0, 1))
        assert (len(subs), calls) == (255, 255)
        assert calls <= 255 * 8
        # 10 singletons, then 50 joins for 24 sets: distinct states join to one
        # set here, so a set can be closed more than once, and the count
        # depends on the atom order
        subs, calls = self._counted(monkeypatch, ten_element)
        assert (len(subs), calls) == (24, 60)

    def test_twist_lists_every_subset(self, tmp_path, capsys):
        path = tmp_path / "twist10.txt"
        path.write_text(format_matrix(tsr_birack(10, 1, 0, 1)))
        assert main(["subbiracks", str(path)]) == 0
        # by size, then lexicographically: the CLI's order
        subsets = [c for k in range(1, 11) for c in itertools.combinations(range(1, 11), k)]
        assert len(subsets) == 1023
        assert capsys.readouterr().out.splitlines() == [
            "{" + ", ".join(map(str, c)) + "}" for c in subsets
        ]


class TestRackCrossValidation:
    """Classical rack axioms and the birack axioms agree on rack tables."""

    def test_every_classical_rack_is_a_birack(self):
        from itertools import product

        n = 3
        perms = [p for p in product(range(n), repeat=n) if len(set(p)) == n]
        racks = []
        for cols in product(perms, repeat=n):  # cols[y][x] = x acted on by y
            if all(
                cols[z][cols[y][x]] == cols[cols[z][y]][cols[z][x]]
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ):
                racks.append(cols)
        assert len(racks) == 13  # classical labeled count on 3 elements
        for cols in racks:
            b1 = [[cols[o][u] for u in range(n)] for o in range(n)]
            b2 = [[o] * n for o in range(n)]
            assert verify_axioms(b1, b2).ok
            assert classify(FiniteBirack(b1, b2)).is_rack

    def test_enumeration_finds_exactly_the_racks(self):
        # among all 3-element biracks, the rack-flagged ones are the 13 above
        found = enumerated_biracks(3)
        assert sum(1 for b in found if classify(b).is_rack) == 13
        assert sum(1 for b in found if classify(b).is_quandle) == 5


class TestEnumerate:
    def test_n1(self):
        assert len(enumerate_biracks(1)) == 1

    def test_n2_regression(self, two_element):
        found = enumerate_biracks(2)
        assert len(found) == 4  # frozen by exhaustive filter over all 24 pair bijections
        assert two_element in found
        assert any(
            not classify(b).is_biquandle and not classify(b).is_rack for b in found
        )

    def test_n2_all_verify(self):
        for b in enumerate_biracks(2):
            assert verify_axioms(b.b1, b.b2).ok

    def test_too_large(self):
        with pytest.raises(SizeTooLarge):
            enumerate_biracks(4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive(self, n):
        with pytest.raises(ValueError) as exc:
            enumerate_biracks(n)
        assert str(exc.value) == "n must be positive"

    def test_one_analysis_per_candidate(self, monkeypatch):
        calls = []
        analyze = biracks.core._analyze

        def counting(b1, b2):
            calls.append((tuple(map(tuple, b1)), tuple(map(tuple, b2))))
            return analyze(b1, b2)

        monkeypatch.setattr(biracks.core, "_analyze", counting)
        assert len(enumerate_biracks(2)) == 4
        # the candidates with bijective B1 rows and B2 columns pass the prefilters
        n = 2
        survivors = sum(
            all(len({p[x * n + y] // n for y in range(n)}) == n for x in range(n))
            and all(len({p[x * n + y] % n for x in range(n)}) == n for y in range(n))
            for p in itertools.permutations(range(n * n))
        )
        assert len(calls) == survivors
        assert len(set(calls)) == survivors


class TestMatrixText:
    def test_format_parse_round_trip(self, two_orbit4):
        n, block = parse_matrix_text(format_matrix(two_orbit4))
        assert n == 4 and block == to_matrix(two_orbit4)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n2\n\n1 1 2 2\n2 2 1 1\n"
        n, block = parse_matrix_text(text)
        assert n == 2 and block == TWO_ELEMENT_MATRIX

    @pytest.mark.parametrize(
        "bad",
        ["", "x", "2\n1 1 2 2", "2\n1 1 2\n2 2 1 1", "2\n1 1 2 2\n2 2 1 q"],
    )
    def test_malformed(self, bad):
        from biracks import ParseError

        with pytest.raises(ParseError):
            parse_matrix_text(bad)


class TestCycles:
    def test_parse_and_print(self):
        p = parse_cycles("(1 2)(3 4)", 5)
        assert p == (1, 0, 3, 2, 4)
        assert cycle_string(p) == "(1 2)(3 4)"
        assert cycle_string(parse_cycles("()", 3)) == "()"

    def test_commas_allowed(self):
        assert parse_cycles("(1,2,3)", 3) == (1, 2, 0)

    @pytest.mark.parametrize("bad", ["(1 2", "(0 1)", "(1 1)", "(1 2)(2 3)", "1 2"])
    def test_bad_notation(self, bad):
        from biracks import ParseError

        with pytest.raises(ParseError):
            parse_cycles(bad, 4)


def test_witness_error_messages():
    """AxiomViolation takes (reason, witness, detail) and ConstructionError
    (reason, detail, witness); both keep the three as attributes and write
    "reason: detail (witness: ...)", leaving out what is not given."""
    from biracks import BirackError, ConstructionError

    cases = [
        (AxiomViolation("YangBaxterFails", (0, 1, 2), "B1 differs"),
         "YangBaxterFails: B1 differs (witness: (0, 1, 2))", (0, 1, 2), "B1 differs"),
        (AxiomViolation("NotPairBijective"), "NotPairBijective", None, ""),
        (AxiomViolation("SidewaysNotUnique", witness=0), "SidewaysNotUnique (witness: 0)", 0, ""),
        (ConstructionError("NotAGroup", "no identity element", 3),
         "NotAGroup: no identity element (witness: 3)", 3, "no identity element"),
        (ConstructionError("Eq4Fails"), "Eq4Fails", None, ""),
        (ConstructionError("NotInvertible", witness=(1,)), "NotInvertible (witness: (1,))",
         (1,), ""),
    ]
    for exc, message, witness, detail in cases:
        assert isinstance(exc, BirackError)
        assert (str(exc), exc.args) == (message, (message,))
        assert (exc.witness, exc.detail) == (witness, detail)
        assert exc.reason == message.partition(":")[0].partition(" ")[0]
