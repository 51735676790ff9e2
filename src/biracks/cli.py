"""Command-line front end.

Subcommands:

  verify PATH                 check a birack matrix file axiom by axiom
  make tsr|ca|tsrho ...       build a family birack and emit its matrix
  rank PATH                   print the birack rank (kink map order)
  classify PATH               biquandle/rack/quandle/semiquandle/simple flags
  subbiracks PATH             list every non-empty subbirack
  poly PATH [--subbirack S]   birack polynomial (or one subbirack's)
  invariant ...               counting invariants of Gauss codes
  enumerate --n N             list all biracks on N elements (N <= 3)

Exit codes: 0 success, 1 domain error (axiom violation, parse failure,
a matrix or Cayley file or a family birack of more than
core.ELEMENT_LIMIT (256) elements, a link with more than
invariants.FRAMING_LIMIT framings, --labelings dumps of a link or a
batch over invariants.LABELING_DUMP_LIMIT labels in all, a count with
more digits than Python converts to text), a computation that ran out of
stack or memory (reported as "error: <message>", or "error: <type>"
when the message is empty), or any other failure inside a subcommand
(reported as "error: <type>: <message>"), 2 usage error.
All output is deterministic: two runs on the same inputs are
byte-identical, and --json payloads are schema-stable.

File formats are documented in the README: matrix files carry the
element count on line 1 and then the n x 2n block [B1 | B2] (1-indexed),
and Cayley tables the same with n entries per row; map files list n
1-indexed images; batch link files carry one "name<TAB>gauss-code" pair
per line; '#' lines are comments in all of them.  A file's tables go
through the public constructors that check any caller's: verify_axioms,
FiniteBirack, CayleyGroup and tau_sigma_rho_birack.

An invariant --labelings dump, in text and in --json, is rendered by
one helper, _dump_rows.  Per framing it builds one table of label texts
per row position, separators attached, and renders all of the
framing's rows with one "".join over a C-level map: a label costs one
table lookup, and no Python code runs per row or per label.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain, cycle, repeat
from math import log10
from operator import add, getitem

from . import __version__
from .core import (
    _content_lines,
    _labels,
    _load_map,
    _load_table,
    _matrix_tables,
    _read_lines,
    all_subbiracks,
    classify,
    cycle_string,
    enumerate_biracks,
    format_matrix,
    parse_cycles,
    read_matrix_file,
    to_matrix,
    verify_axioms,
)
# Not called here, but bench/spans.py rebinds this name in this module to
# trace it, and its install() fails on a name that is gone.
from .core import parse_matrix_text  # noqa: F401
from .diagram import parse_gauss
from .errors import BirackError, NotASubbirack, ParseError, SizeTooLarge
from .families import CayleyGroup, constant_action, tau_sigma_rho_birack, tsr_birack
from .invariants import (
    KINDS,
    _framed_rows,
    birack_polynomial,
    compute_invariant,
    normalize,
    subbirack_polynomial,
)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_matrix(b, out: str | None) -> None:
    text = format_matrix(b)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = verify_axioms(*_matrix_tables(args.path))
    if args.json:
        payload = {
            "n": report.n,
            "ok": report.ok,
            "checks": [
                {
                    "axiom": c.name,
                    "status": c.status,
                    "witness": c.witness,
                    "detail": c.detail,
                }
                for c in report.checks
            ],
        }
        _emit(json.dumps(payload, sort_keys=True))
    else:
        _emit(report.describe())
    return 0 if report.ok else 1


def _cmd_make(args) -> int:
    if args.family == "tsr":
        b = tsr_birack(args.n, args.t, args.s, args.r, args.m)
    elif args.family == "ca":
        tau = parse_cycles(args.tau, args.size)
        rho = parse_cycles(args.rho, args.size)
        b = constant_action(tau, rho)
    else:  # tsrho
        group = CayleyGroup(_read_cayley(args.cayley))
        tau = _read_map(args.tau_file, group.n)
        sigma = _read_map(args.sigma_file, group.n)
        rho = _read_map(args.rho_file, group.n)
        b = tau_sigma_rho_birack(group, tau, sigma, rho)
    _write_matrix(b, args.out)
    return 0


def _read_cayley(path: str) -> list[list[int]]:
    return _load_table("".join(_read_lines(path, "Cayley table")), "Cayley table", 1)[1]


def _read_map(path: str, n: int) -> list[int]:
    lines = _read_lines(path, "map")
    try:
        labels = _load_map(lines, n)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"map file {path}: {exc}") from None
    if len(labels) != n:
        raise BirackError(f"map file {path} must list {n} images")
    return labels


def _cmd_rank(args) -> int:
    b = read_matrix_file(args.path)
    _emit(str(b.rank))
    return 0


def _cmd_classify(args) -> int:
    b = read_matrix_file(args.path)
    flags = classify(b).flags()
    if args.json:
        payload = {**flags, "n": b.n, "rank": b.rank, "kink_map": cycle_string(b.pi)}
        _emit(json.dumps(payload, sort_keys=True))
    else:
        _emit(f"n: {b.n}")
        _emit(f"rank: {b.rank}")
        _emit(f"kink map: {cycle_string(b.pi)}")
        for name, value in flags.items():
            _emit(f"{name}: {'yes' if value else 'no'}")
    return 0


def _cmd_subbiracks(args) -> int:
    b = read_matrix_file(args.path)
    subs = all_subbiracks(b)
    if args.json:
        _emit(json.dumps([sorted(x + 1 for x in s) for s in subs]))
    else:
        for s in subs:
            _emit("{" + ", ".join(str(x + 1) for x in sorted(s)) + "}")
    return 0


def _cmd_poly(args) -> int:
    b = read_matrix_file(args.path)
    if args.subbirack is not None:
        entries = set()
        for tok in args.subbirack.replace(",", " ").split():
            try:
                entries.add(int(tok))
            except ValueError:
                raise ParseError(f"--subbirack entry {tok!r} is not an integer") from None
        entries = sorted(entries)
        if not entries:
            raise BirackError("--subbirack lists no elements")
        try:
            value = subbirack_polynomial(b, _labels(entries, b.n))
        except NotASubbirack:
            raise NotASubbirack(f"{entries} is not closed under B and S") from None
    else:
        value = birack_polynomial(b)
    if args.json:
        _emit(json.dumps({"polynomial": value.canonical_string()}))
    else:
        _emit(value.canonical_string())
    return 0


def _invariant_json(name, kind, birack_file, code, value, labelings, text) -> str:
    """One result as json.dumps(payload, sort_keys=True) renders it.  The
    labelings rows, when given, are rendered from text, the label strings,
    by _dump_rows, as the text dump's are, and spliced in at the
    "labelings" key, which sorts between the payload's other keys: json's
    per-number chunks of every label would take several times the
    output's memory."""
    payload = {
        "invariant": kind + ("-normalized" if value.normalized else ""),
        "birack_file": birack_file,
        "gauss_code": code,
        "link": name,
        "value_canonical_string": value.value_string(),
        "multiset": value.multiset,
        "per_framing_counts": value.per_framing,
    }
    if labelings is None:
        return json.dumps(payload, sort_keys=True)
    head = json.dumps({k: v for k, v in payload.items() if k < "labelings"}, sort_keys=True)
    tail = json.dumps({k: v for k, v in payload.items() if k > "labelings"}, sort_keys=True)
    framings = ", ".join(f"[[{', '.join(map(str, w))}], [{rows}]]" for w, rows in
                         _dump_rows(labelings, text, lambda w: "[", ", ", "]", between=", "))
    return f'{head[:-1]}, "labelings": [{framings}], {tail[1:]}'


def _dump_rows(labelings, text, opener, sep, closer, between=""):
    """(w, the text of its rows) for each (w, rows) of a --labelings dump.

    A row renders as opener(w), the text of its labels (text[v] for label
    v) joined by sep, then closer, and every row after a framing's first
    is preceded by between.  Each position k of a row has a table,
    tables[k][v] being text[v] with sep attached (closer at the last
    position) and, at the first position, between + opener(w) before it;
    only the first table changes from framing to framing.  One "".join
    then renders all of a framing's rows, so no Python code runs per row
    or per label, and the first row's between is cut off.  Every row holds
    at least one label, as every component has a semiarc.
    """
    middle = list(map(add, text, repeat(sep)))
    last = list(map(add, text, repeat(closer)))
    for w, rows in labelings:
        if not rows:
            yield w, ""
            continue
        width = len(rows[0])
        head = between + opener(w)
        first = list(map(add, repeat(head), middle if width > 1 else last))
        tables = [first, *[middle] * (width - 2), last][:width]
        yield w, "".join(map(getitem, cycle(tables), chain.from_iterable(rows)))[len(between):]


def _check_digits(value, d, b) -> None:
    """Raise SizeTooLarge when a count of value, a multiplicity or a
    per-framing count, has more digits than Python converts to text
    (sys.get_int_max_str_digits(); 0, or no such function, for no limit).

    A labeling of a framing is fixed by its labels on d cut open, at most
    semiarcs + c of them, so over the N^c framings every count, and every
    difference from the unlink's counts, is at most N^c n^(semiarcs + c);
    the counts are read only when that bound comes within a digit of the
    limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    c = len(d.components)
    if not limit or c * log10(b.rank) + (d.semiarc_count + c) * log10(b.n) < limit - 1:
        return
    counts = (m for _, m in chain(value.multiset, value.per_framing))
    if max(map(abs, counts)) >= 10**limit:
        raise SizeTooLarge(f"a count of the value has more than {limit} digits, "
                           f"more than Python converts to text")


def _cmd_invariant(args) -> int:
    b = read_matrix_file(args.birack)
    jobs: list[tuple[str, str]] = []
    if args.gauss is not None:
        jobs.append(("-", args.gauss))
    else:
        for ln in _content_lines(_read_lines(args.batch, "batch")):
            name, tab, code = ln.rstrip("\n").partition("\t")
            if not tab:
                raise ParseError(f"batch line {ln.strip()!r} has no TAB after the name")
            jobs.append((name.strip(), code.strip()))
    results = []
    held = 0  # the labels of the dumps so far
    for name, code in jobs:
        d = parse_gauss(code)
        value = compute_invariant(d, b, args.type)
        # Frame the labelings only if the output prints them, searching
        # the link's groups again; a dump that would take the batch's
        # labels past the bound is refused before any of its rows is built.
        labelings, held = _framed_rows(d, b, held) if args.labelings else (None, held)
        if args.normalize:
            value = normalize(value, d, b)
        _check_digits(value, d, b)
        results.append((name, code, value, labelings))
    text = [str(v + 1) for v in range(b.n)]  # each label's 1-indexed text
    if args.json:
        rendered = [
            _invariant_json(name, args.type, args.birack, code, value, labelings, text)
            for name, code, value, labelings in results
        ]
        _emit(rendered[0] if args.gauss is not None else f"[{', '.join(rendered)}]")
    else:
        for name, code, value, labelings in results:
            if args.gauss is not None:
                _emit(value.value_string())
            else:
                _emit(f"{name}\t{args.type}\t{value.value_string()}")
            if labelings is not None:
                for _, rows in _dump_rows(labelings, text,
                                          lambda w: f"  w=({','.join(map(str, w))}): ", " ", "\n"):
                    sys.stdout.write(rows)
    return 0


def _cmd_enumerate(args) -> int:
    biracks = enumerate_biracks(args.n)
    if args.json:
        payload = [
            {
                "matrix": to_matrix(b),
                "rank": b.rank,
                "flags": classify(b).flags(),
            }
            for b in biracks
        ]
        _emit(json.dumps(payload, sort_keys=True))
    else:
        _emit(f"{len(biracks)} birack(s) on {args.n} element(s)")
        for i, b in enumerate(biracks, start=1):
            flags = classify(b).flags()
            names = [k.removeprefix("is_") for k, v in flags.items() if v]
            _emit(f"# {i}: rank {b.rank}" + (f" ({', '.join(names)})" if names else ""))
            for row in to_matrix(b):
                _emit(" ".join(str(v) for v in row))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="biracks",
        description="Finite biracks and birack counting invariants of links.",
    )
    parser.add_argument("--version", action="version", version=f"biracks {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a birack matrix file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("make", help="construct a family birack")
    fam = p.add_subparsers(dest="family", required=True)
    ptsr = fam.add_parser("tsr", help="linear birack B(x,y) = (ty+sx, rx) on (Z_n)^m")
    ptsr.add_argument("--n", type=int, required=True)
    ptsr.add_argument("--t", type=int, required=True)
    ptsr.add_argument("--s", type=int, required=True)
    ptsr.add_argument("--r", type=int, required=True)
    ptsr.add_argument("--m", type=int, default=1)
    ptsr.add_argument("--out")
    ptsr.set_defaults(func=_cmd_make)
    pca = fam.add_parser("ca", help="constant action birack from two commuting cycles")
    pca.add_argument("--tau", required=True, help='cycle notation, e.g. "(1 2)"')
    pca.add_argument("--rho", required=True, help='cycle notation, e.g. "(3 4)"')
    pca.add_argument("--size", type=int, required=True)
    pca.add_argument("--out")
    pca.set_defaults(func=_cmd_make)
    pg = fam.add_parser("tsrho", help="group birack B(x,y) = (tau(y)sigma(x), rho(x))")
    pg.add_argument("--cayley", required=True, help="Cayley table file (1-indexed)")
    pg.add_argument("--tau", dest="tau_file", required=True, help="map file for tau")
    pg.add_argument("--sigma", dest="sigma_file", required=True, help="map file for sigma")
    pg.add_argument("--rho", dest="rho_file", required=True, help="map file for rho")
    pg.add_argument("--out")
    pg.set_defaults(func=_cmd_make)

    p = sub.add_parser("rank", help="print the birack rank")
    p.add_argument("path")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("classify", help="special-case flags of a birack")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("subbiracks", help="list all non-empty subbiracks")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_subbiracks)

    p = sub.add_parser("poly", help="birack polynomial (or a subbirack's)")
    p.add_argument("path")
    p.add_argument("--subbirack", help='1-indexed elements, e.g. "1,2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("invariant", help="counting invariant of a Gauss code")
    p.add_argument("--birack", required=True, help="birack matrix file")
    links = p.add_mutually_exclusive_group(required=True)
    links.add_argument("--gauss", help="signed Gauss code")
    links.add_argument("--batch", help="file of name<TAB>gauss-code lines")
    p.add_argument("--type", required=True, choices=KINDS)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--labelings", action="store_true",
                   help="also dump every labeling per framing vector")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("enumerate", help="list all biracks on n elements (n <= 3)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (BirackError, ValueError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
