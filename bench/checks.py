"""Correctness checks on the captured stdout of every benchmark request.

The oracles avoid biracks' derived machinery.  Matrix files are read with
their documented layout, labelings are counted with the bare crossing rule
of tests/conftest.py::brute_force_labelings (forward B only), framed
diagrams are rebuilt by the kink construction documented in
biracks/diagram.py, and polynomials are read back as text.  The checks:

* every request exits 0 with nothing on stderr, and every repetition of a
  request prints the same bytes;
* a request marked same_as prints what the marked request printed, line by
  line for the same link (rotated or relabeled codes give the same values);
* per (birack, link): integral = writhe, image and rho at 1 = the sum of the
  per-framing counts; a normalized value is the raw value minus the
  unlink's, so a normalized unlink is 0;
* unlinks are counted in closed form from the kink map; diagrams with at
  most 10 semiarcs in every framing over at most 4 elements are counted by
  brute force; every dumped labeling satisfies the crossing rule;
* table commands: `make` prints the table the family's formula gives,
  ranks and flags follow from the tables, every listed subbirack is closed
  and the list is complete, and polynomials match the element statistics.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import product
from math import lcm, prod
from pathlib import Path

BRUTE_MAX_ELEMENTS = 4
BRUTE_MAX_SEMIARCS = 10


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

class Table:
    """b1[x][y] = B1(x, y) and b2[x][y] = B2(x, y), 0-indexed."""

    def __init__(self, b1, b2):
        self.n = len(b1)
        self.b1, self.b2 = b1, b2
        # A positive kink with in-label a carries label b between its two
        # passes where B2(a, b) = b, and leaves with B1(a, b).
        pi = []
        for a in range(self.n):
            mids = [b for b in range(self.n) if b2[a][b] == b]
            if len(mids) != 1:
                raise ValueError(f"element {a + 1} has {len(mids)} kink labels")
            pi.append(b1[a][mids[0]])
        if sorted(pi) != list(range(self.n)):
            raise ValueError("kink map is not a bijection")
        self.pi = pi
        self.rank = lcm(*(len(c) for c in _cycles(pi)))

    @classmethod
    def parse(cls, text: str) -> "Table":
        rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        n = int(rows[0][0])
        block = [[int(v) - 1 for v in r] for r in rows[1:]]
        # Left block: row y, column x holds B1(x, y); right: row x, column y holds B2(x, y).
        return cls([[block[y][x] for y in range(n)] for x in range(n)],
                   [[block[x][n + y] for y in range(n)] for x in range(n)])

    def render(self) -> str:
        """The matrix file text, laid out as biracks.format_matrix documents it."""
        w = len(str(self.n))
        rng = range(self.n)
        lines = [str(self.n)] + [
            " ".join(str(v + 1).rjust(w) for v in
                     [self.b1[x][y] for x in rng] + [self.b2[y][x] for x in rng])
            for y in rng
        ]
        return "\n".join(lines) + "\n"

    def fixed_points(self, k: int) -> int:
        count = 0
        for x in range(self.n):
            y = x
            for _ in range(k):
                y = self.pi[y]
            count += y == x
        return count

    def closure(self, seed) -> frozenset[int]:
        """Smallest superset closed under B1 and B2 (each pair visited once)."""
        members = set(seed)
        order = list(members)
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for y in order[:i]:
                for v in (self.b1[x][y], self.b2[x][y], self.b1[y][x], self.b2[y][x]):
                    if v not in members:
                        members.add(v)
                        order.append(v)
        return frozenset(members)

    def statistics(self, x: int) -> tuple[int, int, int, int]:
        rng = range(self.n)
        return (sum(self.b1[x][y] == y for y in rng), sum(self.b2[y][x] == y for y in rng),
                sum(self.b1[y][x] == x for y in rng), sum(self.b2[x][y] == x for y in rng))


def _cycles(p):
    seen, out = set(), []
    for s in range(len(p)):
        if s not in seen:
            c, x = [], s
            while x not in seen:
                seen.add(x)
                c.append(x)
                x = p[x]
            out.append(c)
    return out


def family_table(params: dict) -> Table:
    """The table a family's defining formula gives, independently of biracks."""
    if params["family"] == "ca":
        size = params["size"]
        tau, rho = (_perm(params[k], size) for k in ("tau", "rho"))
        return Table([[tau[y] for y in range(size)] for _ in range(size)],
                     [[rho[x]] * size for x in range(size)])
    n, t, s, r, m = (params[k] for k in "ntsrm")
    coords = list(product(range(n), repeat=m))
    index = {c[::-1]: i for i, c in enumerate(coords)}  # x0 + x1*n + ...
    elems = [c[::-1] for c in coords]
    size = n ** m
    b1 = [[index[tuple((t * yc + s * xc) % n for xc, yc in zip(elems[x], elems[y]))]
           for y in range(size)] for x in range(size)]
    b2 = [[index[tuple((r * xc) % n for xc in elems[x])]] * size for x in range(size)]
    return Table(b1, b2)


def _perm(cycles: str, size: int) -> list[int]:
    p = list(range(size))
    for body in re.findall(r"\(([^)]*)\)", cycles):
        pts = [int(v) - 1 for v in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            p[a] = b
    return p


# ---------------------------------------------------------------------------
# Diagrams and labelings
# ---------------------------------------------------------------------------

def parse_code(code: str) -> list[list[tuple[int, str, int]]]:
    return [[(int(t[1:-1]), t[0], 1 if t[-1] == "+" else -1) for t in comp.split(",")]
            if comp.strip() else [] for comp in code.split(";")]


def framed(comps, w, rank: int):
    """Append positive kinks so component i has writhe w[i] mod rank."""
    nxt = max((c for comp in comps for c, _, _ in comp), default=0) + 1
    out = []
    for i, comp in enumerate(comps):
        unders = {c for c, role, _ in comp if role == "U"}
        writhe = sum(s for c, role, s in comp if role == "O" and c in unders)
        comp = list(comp)
        for _ in range((w[i] - writhe) % rank):
            comp += [(nxt, "O", 1), (nxt, "U", 1)]
            nxt += 1
        out.append(comp)
    return out


def semiarc_quads(comps):
    """(semiarc count, [(sign, over-in, under-in, under-out, over-out)])."""
    where, offset = {}, 0
    for comp in comps:
        k = max(len(comp), 1)
        for p, (c, role, sign) in enumerate(comp):
            where[c, role] = (offset + (p - 1) % k, offset + p, sign)
        offset += k
    quads = []
    for (c, role), (before, after, sign) in where.items():
        if role == "O":
            ui, uo, _ = where[c, "U"]
            quads.append((sign, before, ui, uo, after))
    return offset, quads


def _holds(q, a, t: Table) -> bool:
    sign, oi, ui, uo, oo = q
    if sign > 0:
        return a[uo] == t.b1[a[oi]][a[ui]] and a[oo] == t.b2[a[oi]][a[ui]]
    return a[ui] == t.b1[a[oo]][a[uo]] and a[oi] == t.b2[a[oo]][a[uo]]


def brute_count(comps, t: Table) -> int:
    """Assignments satisfying every crossing, checked as soon as all four
    semiarcs of a crossing are set (the filtered product, pruned early)."""
    size, quads = semiarc_quads(comps)
    due = [[] for _ in range(size)]
    for q in quads:
        due[max(q[1:])].append(q)
    assign = [0] * size

    def extend(i: int) -> int:
        if i == size:
            return 1
        total = 0
        for v in range(t.n):
            assign[i] = v
            if all(_holds(q, assign, t) for q in due[i]):
                total += extend(i + 1)
        return total

    return extend(0)


def per_framing_oracle(code: str, t: Table):
    """[(framing, count)] in lexicographic order, or None if out of reach."""
    comps = parse_code(code)
    frames = list(product(range(t.rank), repeat=len(comps)))
    if all(not comp for comp in comps):
        return [(w, prod(t.fixed_points(k) for k in w)) for w in frames]
    if t.n > BRUTE_MAX_ELEMENTS:
        return None
    diagrams = [framed(comps, w, t.rank) for w in frames]
    if any(semiarc_quads(d)[0] > BRUTE_MAX_SEMIARCS for d in diagrams):
        return None
    return [(w, brute_count(d, t)) for w, d in zip(frames, diagrams)]


# ---------------------------------------------------------------------------
# Polynomial text
# ---------------------------------------------------------------------------

def _split_terms(text: str) -> list[tuple[int, str]]:
    """Top-level ' + ' / ' - ' split (braces of nested exponents skipped)."""
    terms, depth, start, sign = [], 0, 0, 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        depth += (ch == "{") - (ch == "}")
        if depth == 0 and text.startswith((" + ", " - "), i):
            terms.append((sign, text[start:i]))
            sign, start = (1 if text[i + 1] == "+" else -1), i + 3
            i += 3
            continue
        i += 1
    terms.append((sign, text[start:]))
    return terms


def poly_total(text: str) -> int:
    """A canonical value string evaluated with every variable at 1."""
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return sum(sign * int(re.match(r"\d*", body).group() or 1)
               for sign, body in _split_terms(text))


def poly_terms(text: str) -> Counter:
    """Monomials of a birack polynomial as {(c1, c2, r1, r2): coefficient}."""
    out = Counter()
    for sign, body in _split_terms(text):
        coeff = re.match(r"\d*", body).group()
        exps = dict.fromkeys(("s1", "s2", "t1", "t2"), 0)
        for var, e in re.findall(r"([st][12])(?:\^(\d+))?", body[len(coeff):]):
            exps[var] = int(e or 1)
        out[tuple(exps.values())] += sign * int(coeff or 1)
    return out


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

class Checker:
    """Checks the first output of every request; check_all returns
    {request index: reason} for every request that is wrong."""

    def __init__(self, workdir: Path, requests):
        self.workdir = workdir
        self.requests = requests
        self._tables: dict[str, Table] = {}
        self._oracles: dict = {}
        self.facts: dict = {}  # (birack, code, normalized) -> [(total, request index)]

    def table(self, name: str) -> Table:
        if name not in self._tables:
            self._tables[name] = Table.parse((self.workdir / name).read_text(encoding="utf-8"))
        return self._tables[name]

    def oracle(self, birack: str, code: str):
        key = birack, code
        if key not in self._oracles:
            self._oracles[key] = per_framing_oracle(code, self.table(birack))
        return self._oracles[key]

    def check_all(self, outputs: dict[int, str]) -> dict[int, str]:
        wrong = {}
        for i, req in enumerate(self.requests):
            if i not in outputs:
                continue
            try:
                reason = self.check(i, req, outputs)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                wrong[i] = reason
        for (birack, code, normalized), seen in self.facts.items():
            if normalized:
                raw = self.facts.get((birack, code, False))
                unl = self.oracle(birack, ";" * (len(parse_code(code)) - 1))
                for total, i in seen:
                    if raw and total != raw[0][0] - sum(m for _, m in unl):
                        wrong.setdefault(i, f"normalized total {total} != raw {raw[0][0]} - unlink")
            else:
                for total, i in seen:
                    if total != seen[0][0]:
                        wrong.setdefault(i, f"total {total} != {seen[0][0]} from another kind")
        return wrong

    def check(self, i: int, req, outputs) -> str | None:
        meta, out = req.meta, outputs[i]
        if "same_as" in meta:
            base = outputs.get(meta["same_as"], "")
            if meta.get("batch"):
                lines = dict(ln.split("\t", 1) for ln in base.splitlines())
                same = all(lines.get(name) == rest for name, rest in
                           (ln.split("\t", 1) for ln in out.splitlines()))
            else:
                same = out == base
            if not same:
                return f"output differs from request {meta['same_as']} on an equivalent input"
        if "kind" in meta:
            return self._invariant(i, meta, out)
        return self._table_command(req.argv, meta, out)

    # ----- invariants -----

    def _invariant(self, i: int, meta: dict, out: str) -> str | None:
        birack, kind, norm = meta["birack"], meta["kind"], meta["normalize"]
        if meta["batch"] is None:
            links = [("-", meta["gauss"])]
        else:
            text = (self.workdir / meta["batch"]).read_text(encoding="utf-8")
            links = [tuple(part.strip() for part in ln.split("\t", 1))
                     for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if meta["json"]:
            payloads = json.loads(out)
            payloads = [payloads] if meta["batch"] is None else payloads
            values = [p["value_canonical_string"] for p in payloads]
        elif meta["batch"] is None:
            values, payloads = [out.rstrip("\n")], [None]
        else:
            rows = [ln.split("\t") for ln in out.splitlines()]
            if [r[:2] for r in rows] != [[name, kind] for name, _ in links]:
                return "batch lines do not follow the link file"
            values, payloads = [r[2] for r in rows], [None] * len(rows)
        if len(values) != len(links):
            return f"{len(values)} values for {len(links)} links"
        t = self.table(birack)
        for (name, code), value, payload in zip(links, values, payloads):
            total = poly_total(value)
            expected = self.oracle(birack, code)
            if expected is not None:
                want = sum(m for _, m in expected)
                if norm:
                    want -= sum(m for _, m in self.oracle(birack, ";" * code.count(";")))
                if total != want:
                    return f"{name}: total {total}, oracle {want}"
            if payload is not None:
                reason = self._payload(payload, total, norm, expected, parse_code(code), t)
                if reason:
                    return f"{name}: {reason}"
            self.facts.setdefault((birack, code, norm), []).append((total, i))
        return None

    def _payload(self, p: dict, total: int, norm: bool, expected, comps, t: Table):
        counts = [m for _, m in p["per_framing_counts"]]
        if sum(counts) != total or sum(m for _, m in p["multiset"]) != total:
            return "per-framing counts or multiset do not sum to the value"
        if expected is not None and not norm and [
                (tuple(w), m) for w, m in p["per_framing_counts"]] != expected:
            return "per-framing counts differ from the oracle"
        if "labelings" not in p:
            return None
        image = p["invariant"].startswith("image")  # "image" or "image-normalized"
        sizes = Counter()
        for (w, labs), m in zip(p["labelings"], counts):
            # Normalized counts are differences; the dump lists raw labelings.
            if len({tuple(a) for a in labs}) != len(labs) or not norm and len(labs) != m:
                return f"framing {w}: {len(labs)} labelings dumped for count {m}"
            size, quads = semiarc_quads(framed(comps, w, t.rank))
            for lab in labs:
                a = [v - 1 for v in lab]
                if len(a) != size or not all(_holds(q, a, t) for q in quads):
                    return f"framing {w}: labeling {lab} breaks a crossing"
                if image:
                    sizes[len(t.closure(a))] += 1
        # A normalized multiset is a difference of multisets, so only a raw
        # one can be compared with the closures of the (raw) dumped labelings.
        if image and not norm and sorted(sizes.items()) != [tuple(x) for x in p["multiset"]]:
            return "image sizes differ from the closures of the dumped labelings"
        return None

    # ----- table commands -----

    def _table_command(self, argv, meta: dict, out: str) -> str | None:
        cmd, name = meta["command"], meta["table"]
        want = family_table(meta["params"])
        t = self.table(name)
        if t.render() != want.render():
            return "generated file differs from the family formula"
        n = t.n
        if cmd == "make":
            return None if out == want.render() else "make output differs from the family formula"
        if cmd == "verify":
            if out.startswith("{"):
                p = json.loads(out)
                ok = p["ok"] and p["n"] == n and all(c["status"] == "pass" for c in p["checks"])
            else:
                lines = out.splitlines()
                ok = (lines[0] == f"candidate on {n} element(s): valid birack"
                      and all(ln.split(": ", 1)[1].startswith("pass") for ln in lines[1:]))
            return None if ok else "verify does not report a valid birack"
        if cmd == "rank":
            return None if out == f"{t.rank}\n" else f"rank {out.strip()} != {t.rank}"
        rng = range(n)
        minimal = {t.closure({x}) for x in rng}
        if cmd == "classify":
            biquandle = t.pi == list(rng)
            rack = all(t.b2[x][y] == x for x in rng for y in rng)
            involutory = all(t.b1[t.b1[x][y]][t.b2[x][y]] == x and t.b2[t.b1[x][y]][t.b2[x][y]] == y
                             for x in rng for y in rng)
            flags = {"is_biquandle": biquandle, "is_rack": rack, "is_quandle": biquandle and rack,
                     "is_semiquandle": biquandle and involutory,
                     "is_simple": minimal == {frozenset(rng)}}
            if "--json" in argv:
                p = json.loads(out)
                ok = p.pop("n") == n and p.pop("rank") == t.rank and p.pop("kink_map") and p == flags
            else:
                lines = out.splitlines()
                got = dict(ln.split(": ", 1) for ln in lines[3:])
                ok = (lines[:2] == [f"n: {n}", f"rank: {t.rank}"]
                      and got == {k: "yes" if v else "no" for k, v in flags.items()})
            return None if ok else "classify flags differ from the tables"
        if cmd == "subbiracks":
            rows = json.loads(out) if "--json" in argv else [
                re.findall(r"\d+", ln) for ln in out.splitlines()]
            listed = [frozenset(int(v) - 1 for v in row) for row in rows]
            if listed != sorted(set(listed), key=lambda s: (len(s), sorted(s))):
                return "subbiracks not distinct and sorted"
            found = set(listed)
            if any(t.closure(s) != s for s in found) or not minimal <= found:
                return "a listed set is not closed, or a minimal subbirack is missing"
            if any(t.closure(a | b) not in found for a in found for b in found):
                return "the list is not closed under joins"
            return None
        if cmd == "poly":
            elems = ([int(v) - 1 for v in argv[argv.index("--subbirack") + 1].split(",")]
                     if "--subbirack" in argv else list(rng))
            want_terms = Counter(t.statistics(x) for x in elems)
            return None if poly_terms(out.strip()) == want_terms else "polynomial differs from the statistics"
        return f"unchecked command {cmd}"
