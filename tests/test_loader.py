"""The table file loader reads every label through one table of the
spellings "1".."n".  Its result, or its error's type and message, equals
the integer route's: int() per token, then a range check per row.  That
route is written out here as the reference, and the public parse_matrix_text
and from_matrix, which still take it, are compared too."""

import functools
import json
from pathlib import Path

import pytest

import biracks.core
import biracks.families
from biracks import (
    BirackError,
    ParseError,
    SizeTooLarge,
    format_matrix,
    from_matrix,
    parse_matrix_text,
    read_matrix_file,
    tsr_birack,
    verify_axioms,
)
from biracks.cli import _read_cayley, _read_map, main
from biracks.core import _load_map, _load_table
from conftest import dihedral8_cayley, enumerated_biracks

DATA = Path(__file__).resolve().parent.parent / "data"
# (n, t, s, r): dihedral quandles (n - 1, 2, 1) and a few others, up to 67
TSR = [(2, 1, 2, 1), (3, 2, 2, 1), (5, 4, 2, 1), (8, 7, 2, 1), (11, 10, 2, 1),
       (11, 2, 0, 1), (30, 29, 2, 1), (3, 1, 0, 2), (67, 2, 0, 1)]


def _reference_table(text: str, noun: str, width: int):
    """(n, 0-indexed rows) by the integer route, or its error."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
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
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ParseError(f"non-integer entry in row {ln!r}") from None
        if len(row) != width * n:
            raise ParseError(f"expected {width * n} entries per row, got {len(row)}")
        rows.append(row)
    for v in (v for row in rows for v in row):
        if not 1 <= v <= n:
            raise ValueError(f"entry {v} out of range 1..{n}")
    return n, [[v - 1 for v in row] for row in rows]


def _reference_map(lines, n: int):
    lines = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    values = []
    for ln in lines:
        try:
            values += [int(tok) for tok in ln.split()]
        except ValueError:
            raise ParseError(f"non-integer entry in row {ln!r}") from None
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"entry {v} out of range 1..{n}")
    return [v - 1 for v in values]


def _outcome(fn, *args):
    """fn's result, or its error's type and message."""
    try:
        return fn(*args)
    except (BirackError, ValueError) as exc:
        return type(exc), str(exc)


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _mutations(text: str) -> list[str]:
    """text, then copies with one entry respelled, a row cut short or grown,
    a row dropped or repeated, a bad count line, comments and CRLF."""
    lines = text.splitlines()
    head, rows = lines[0], lines[1:]
    n = int(head)
    first, *rest = rows[0].split()
    *body, last = rows[-1].split()

    def with_first(tok):
        return "\n".join([head, " ".join([tok, *rest]), *rows[1:]]) + "\n"

    def with_last(tok):
        return "\n".join([head, *rows[:-1], " ".join([*body, tok])]) + "\n"

    spellings = ["0", str(n + 1), "01", "+1", "1_0", "١", "1.0", "x", "-1", " 1",
                 f"0{last}", last + "٠"]
    return [
        text,
        *map(with_first, spellings),
        *map(with_last, spellings),
        with_first(""),  # a short first row
        with_last(f"{last} 1"),  # a long last row
        with_first(f"{first} x"),  # a long row with a bad entry
        "\n".join([head, *rows[:-1]]) + "\n",
        "\n".join([head, *rows, rows[-1]]) + "\n",
        "\n".join(["x", *rows]) + "\n",
        "\n".join(["0", *rows]) + "\n",
        "\n".join([f"+{n}", *rows]) + "\n",
        "\n".join([f"{n} {n}", *rows]) + "\n",
        "",
        "# nothing\n\n",
        "# a comment\n\n" + "\n  # indented\n\n".join(lines) + "\n#\n",
        text.replace("\n", "\r\n"),
        "\t" + text.replace(" ", " \t "),
    ]


@functools.cache
def _matrix_texts() -> tuple[str, ...]:
    biracks = [read_matrix_file(p) for p in sorted(DATA.glob("*.txt"))
               if p.name != "sample_links.txt"]
    biracks += [b for n in (1, 2, 3) for b in enumerated_biracks(n)]
    biracks += [tsr_birack(*args) for args in TSR]
    return tuple(map(format_matrix, biracks))


def _old_read(text: str):
    """read_matrix_file by the integer route."""
    try:
        return from_matrix(*parse_matrix_text(text))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@functools.cache
def _matrix_cases() -> tuple[str, ...]:
    """Every data file, and the mutations of every third matrix text and
    of an 11-element one (whose label 10 is also spelled 1_0)."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.txt"))]
    for base in (*_matrix_texts()[::3], format_matrix(tsr_birack(11, 2, 0, 1))):
        texts += _mutations(base)
    return tuple(texts)


def test_cases_cover_every_outcome():
    outcomes = [_outcome(_load_table, text, "matrix", 2) for text in _matrix_cases()]
    assert {o[0] if _failed(o) else "rows" for o in outcomes} == {"rows", ParseError,
                                                                  ValueError}


def test_respelled_labels():
    """Entries the label table does not hold take the integer route, which
    reads them as before."""
    head, first, *rows = format_matrix(tsr_birack(11, 2, 0, 1)).splitlines()
    entry, rest = first.split(maxsplit=1)
    assert entry == "1"

    def load(spelling):
        return _load_table("\n".join([head, f"{spelling} {rest}", *rows]), "matrix", 2)

    n, labels = load("1")
    for spelling in ("01", "+1", "١", "0001", "1 "):
        assert load(spelling) == (n, labels)
    assert load("1_0")[1] == [[9, *labels[0][1:]], *labels[1:]]


def test_matrix_files():
    for text in _matrix_texts():
        assert _load_table(text, "matrix", 2) == _reference_table(text, "matrix", 2)


def test_mutated_matrix_files(tmp_path):
    path = tmp_path / "m.txt"
    for text in _matrix_cases():
        expected = _outcome(_reference_table, text, "matrix", 2)
        assert _outcome(_load_table, text, "matrix", 2) == expected, text
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_matrix_file, path) == _outcome(_old_read, text), text


def _verify_expected(text: str, as_json: bool) -> tuple[int, str, str]:
    try:
        n, rows = _reference_table(text, "matrix", 2)
    except (ParseError, ValueError) as exc:
        return 1, "", f"error: {exc}\n"
    b1 = [[rows[y][x] for y in range(n)] for x in range(n)]
    b2 = [row[n:] for row in rows]
    report = verify_axioms(b1, b2)
    if as_json:
        checks = [{"axiom": c.name, "status": c.status, "witness": c.witness,
                   "detail": c.detail} for c in report.checks]
        out = json.dumps({"n": report.n, "ok": report.ok, "checks": checks}, sort_keys=True)
    else:
        out = report.describe()
    return int(not report.ok), out + "\n", ""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_verify_output(as_json, tmp_path, capsys):
    path = tmp_path / "m.txt"
    for text in _matrix_cases():
        path.write_bytes(text.encode("utf-8"))
        code = main(["verify", str(path)] + ["--json"] * as_json)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _verify_expected(text, as_json), text


def _cayley_text(table) -> str:
    return f"{len(table)}\n" + "".join(" ".join(str(v + 1) for v in row) + "\n" for row in table)


CAYLEY_CASES = [
    case
    for table in ([[0]], [[(a + c) % 4 for c in range(4)] for a in range(4)], dihedral8_cayley(),
                  [[(a + c) % 11 for c in range(11)] for a in range(11)])
    for case in _mutations(_cayley_text(table))
]


def test_cayley_files(tmp_path):
    path = tmp_path / "cayley.txt"
    for text in CAYLEY_CASES:
        expected = _outcome(_reference_table, text, "Cayley table", 1)
        assert _outcome(_load_table, text, "Cayley table", 1) == expected, text
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(_read_cayley, str(path)) == (
            expected if _failed(expected) else expected[1]), text


MAP_CASES = [
    (n, case) for n, text in (
        (4, "1 4 3 2\n"), (4, "1 3\n1 3\n"), (11, "# tau\n2 3 4 5 6\n\n7 8 9 10 11 1\n"),
    )
    for case in [
        text, text.replace("1", "01"), text.replace("1", "+1"), text.replace("1", "0"),
        text.replace("1", "١"), text.replace("2", "1.0"), text.replace("3", "x"),
        text.replace("2", str(n + 1)), text.replace("4", "1_0"), text.replace("\n", "\r\n"),
        text.replace(" ", "\n# c\n"), text + "1\n", text[:-2] + "\n", "", "# only\n",
    ]
]


def test_map_files(tmp_path):
    path = tmp_path / "tau.txt"
    for n, text in MAP_CASES:
        expected = _outcome(_reference_map, text.splitlines(keepends=True), n)
        assert _outcome(_load_map, text.splitlines(keepends=True), n) == expected, text
        path.write_bytes(text.encode("utf-8"))
        if _failed(expected):
            expected = ParseError, f"map file {path}: {expected[1]}"
        elif len(expected) != n:
            expected = BirackError, f"map file {path} must list {n} images"
        assert _outcome(_read_map, str(path), n) == expected, text


class TestElementLimit:
    """A matrix or Cayley file with more than ELEMENT_LIMIT elements is
    refused before any row is read, and so is every other birack of more
    than ELEMENT_LIMIT elements."""

    def test_shared_with_tsr(self):
        assert biracks.core.ELEMENT_LIMIT == biracks.families.TSR_ELEMENT_LIMIT == 256

    def test_refused_before_rows(self):
        text = "257\n" + "x\n" * 257
        for noun, width in (("matrix", 2), ("Cayley table", 1)):
            with pytest.raises(SizeTooLarge) as exc:
                _load_table(text, noun, width)
            assert str(exc.value) == f"the {noun} file has 257 elements, more than 256"
        with pytest.raises(ParseError, match="non-integer entry"):
            _load_table("256\n" + "x\n" * 256, "matrix", 2)

    def test_256_elements_build(self):
        assert tsr_birack(2, 1, 0, 1, 8).n == 256

    @pytest.mark.parametrize("command,message", [
        (["verify", "{}"], "the matrix file has 257 elements"),
        (["verify", "{}", "--json"], "the matrix file has 257 elements"),
        (["rank", "{}"], "the matrix file has 257 elements"),
        (["classify", "{}"], "the matrix file has 257 elements"),
        (["subbiracks", "{}"], "the matrix file has 257 elements"),
        (["poly", "{}"], "the matrix file has 257 elements"),
        (["invariant", "--birack", "{}", "--gauss", "O1+,U1+", "--type", "integral"],
         "the matrix file has 257 elements"),
        (["make", "tsrho", "--cayley", "{}", "--tau", "{}", "--sigma", "{}", "--rho", "{}"],
         "the Cayley table file has 257 elements"),
        (["make", "tsr", "--n", "257", "--t", "1", "--s", "0", "--r", "1"],
         "(Z_257)^1 has 257^1 elements"),
        (["make", "ca", "--tau", "()", "--rho", "()", "--size", "257"],
         "the permuted set has 257 elements"),
    ], ids=["verify", "verify-json", "rank", "classify", "subbiracks", "poly", "invariant",
            "tsrho", "tsr", "ca"])
    def test_257_elements_cli_one_line(self, command, message, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("257\n" + ("1 " * 514 + "\n") * 257, encoding="utf-8")
        assert main([arg.format(path) for arg in command]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}, more than 256\n")

    @pytest.mark.parametrize("command", [["verify"], ["verify", "--json"], ["rank"],
                                         ["classify"], ["subbiracks"], ["poly"]])
    def test_cli_one_line(self, command, monkeypatch, tmp_path, capsys):
        path = tmp_path / "tsr9.txt"
        path.write_text(format_matrix(tsr_birack(9, 8, 2, 1)), encoding="utf-8")
        argv = [command[0], str(path), *command[1:]]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 8)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: the matrix file has 9 elements, more than 8\n")

    def test_cayley_cli_one_line(self, monkeypatch, tmp_path, capsys):
        files = {"cayley": _cayley_text(dihedral8_cayley()), "tau": "1 2 3 4 5 6 7 8\n",
                 "sigma": "1 1 1 1 1 1 1 1\n", "rho": "1 2 3 4 5 6 7 8\n"}
        argv = ["make", "tsrho"]
        for key, text in files.items():
            (tmp_path / key).write_text(text, encoding="utf-8")
            argv += [f"--{key}", str(tmp_path / key)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(biracks.core, "ELEMENT_LIMIT", 7)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: the Cayley table file has 8 elements, more than 7\n")
