"""Signed Gauss codes: parsing, semiarc structure, writhe and framing.

Grammar
-------
A link diagram is written as one component per ';'-separated field, each
component a ','-separated sequence of crossing passes:

    pass      := ("O" | "U") crossing-id sign
    crossing-id := positive integer
    sign      := "+" | "-"

"O1+,U2+,O3+,U1+,O2+,U3+" is a trefoil; "" is a crossing-free circle;
"O1+,U2+;U1+,O2+" is a Hopf link.  Every crossing id must appear exactly
twice, once as O and once as U, with equal signs.  Virtual crossings are
not recorded at all: a virtual link is encoded by the Gauss data of its
classical crossings, so non-planar codes are legal.

Semiarcs
--------
A component with k >= 1 passes has k semiarcs; semiarc i runs from pass i
to pass i+1 (cyclically), i.e. it is the strand segment *leaving* pass i.
A crossing-free component has a single semiarc.  Semiarcs are numbered
globally, component by component.

Writhe and framing
------------------
The writhe vector collects, per component, the sum of signs over its
self-crossings (crossings whose O and U passes both lie on that
component); crossings between distinct components are linking, not
framing, and do not contribute.  with_framing() realizes a target
framing vector mod N by appending positive kinks -- consecutive O-then-U
passes of a fresh crossing -- at the traversal end of each component.
That chirality makes a kink apply the birack's kink map pi (never its
inverse) to the strand label, so per-framing labeling counts are
reproducible.  The invariants never search these kinked diagrams: they
read every framing off one search of the diagram cut open at each
component's closing semiarc (homsearch.cut_labelings), and with_framing
stays the reference the tests compare that survey with.
framed_semiarc_sources says where each semiarc of a with_framing diagram
comes from, so the framed labelings can be written out of that survey.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import BadPairing, LengthMismatch, ParseError

_PASS_RE = re.compile(r"^([OU])(\d+)([+-])$")


class Pass(NamedTuple):
    crossing: int
    role: str  # "O" or "U"
    sign: int  # +1 or -1

    def token(self) -> str:
        return f"{self.role}{self.crossing}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class Crossing:
    over: tuple[int, int]   # (component, position) of the O pass
    under: tuple[int, int]  # (component, position) of the U pass
    sign: int


class Diagram:
    """A validated signed Gauss code with semiarc indexing.

    Immutable after construction; framing changes return new diagrams.
    """

    def __init__(self, components: Iterable[Iterable[Pass]]):
        comps: list[tuple[Pass, ...]] = [
            tuple(Pass(int(c), r, int(s)) for c, r, s in comp)
            for comp in components
        ]
        occurrences: dict[int, list[tuple[int, int, str, int]]] = {}
        for ci, comp in enumerate(comps):
            for pi, p in enumerate(comp):
                if p.role not in ("O", "U") or p.sign not in (1, -1) or p.crossing <= 0:
                    raise ParseError(f"bad pass {p!r}")
                occurrences.setdefault(p.crossing, []).append(
                    (ci, pi, p.role, p.sign)
                )

        crossings: dict[int, Crossing] = {}
        for cid, occ in occurrences.items():
            if len(occ) != 2:
                raise BadPairing(
                    f"crossing {cid} appears {len(occ)} time(s), expected exactly 2"
                )
            (c1, p1, r1, s1), (c2, p2, r2, s2) = occ
            if {r1, r2} != {"O", "U"}:
                raise BadPairing(f"crossing {cid} needs one O pass and one U pass")
            if s1 != s2:
                raise BadPairing(f"crossing {cid} has mismatched signs")
            over, under = ((c1, p1), (c2, p2)) if r1 == "O" else ((c2, p2), (c1, p1))
            crossings[cid] = Crossing(over=over, under=under, sign=s1)

        self.components = tuple(comps)
        self.crossings = crossings

        offsets = []
        total = 0
        for comp in comps:
            offsets.append(total)
            total += max(len(comp), 1)
        self._offsets = tuple(offsets)
        self.semiarc_count = total

        writhe = [0] * len(comps)
        for cr in crossings.values():
            if cr.over[0] == cr.under[0]:
                writhe[cr.over[0]] += cr.sign
        self.writhe_vector = tuple(writhe)

    # ---------- semiarc indexing ----------

    def semiarc_after(self, component: int, position: int) -> int:
        """Global index of the semiarc leaving a pass."""
        return self._offsets[component] + position

    def semiarc_before(self, component: int, position: int) -> int:
        """Global index of the semiarc entering a pass."""
        k = len(self.components[component])
        return self._offsets[component] + (position - 1) % k

    def semiarc_map(self) -> list[tuple[int, int]]:
        """Global semiarc index -> (component, position-it-leaves)."""
        out = []
        for ci, comp in enumerate(self.components):
            for pi in range(max(len(comp), 1)):
                out.append((ci, pi))
        return out

    def crossing_semiarcs(self, cid: int) -> tuple[int, int, int, int]:
        """(over-in, under-in, under-out, over-out) global semiarc indices."""
        cr = self.crossings[cid]
        return (
            self.semiarc_before(*cr.over),
            self.semiarc_before(*cr.under),
            self.semiarc_after(*cr.under),
            self.semiarc_after(*cr.over),
        )

    # ---------- serialization ----------

    def serialize(self) -> str:
        return ";".join(",".join(p.token() for p in comp) for comp in self.components)

    def to_json_dict(self) -> dict:
        return {
            "components": [
                [{"crossing": p.crossing, "role": p.role, "sign": p.sign} for p in comp]
                for comp in self.components
            ],
            "crossings": {
                str(cid): {
                    "over": list(cr.over),
                    "under": list(cr.under),
                    "sign": cr.sign,
                }
                for cid, cr in sorted(self.crossings.items())
            },
            "semiarcs": [list(pair) for pair in self.semiarc_map()],
            "writhe_vector": list(self.writhe_vector),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"Diagram({self.serialize()!r})"


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code; see the module docstring for the grammar."""
    components: list[list[Pass]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        passes: list[Pass] = []
        if chunk:
            for token in chunk.split(","):
                token = token.strip()
                m = _PASS_RE.match(token)
                if not m:
                    raise ParseError(f"bad Gauss-code token {token!r}")
                passes.append(
                    Pass(int(m.group(2)), m.group(1), 1 if m.group(3) == "+" else -1)
                )
        components.append(passes)
    return Diagram(components)


def unlink(c: int) -> Diagram:
    """The crossing-free unlink with c components."""
    if c < 1:
        raise ValueError("component count must be positive")
    return Diagram([[] for _ in range(c)])


def writhe_vector(d: Diagram) -> tuple[int, ...]:
    """Per-component self-crossing sign sums (the framing data)."""
    return d.writhe_vector


def _kink_counts(d: Diagram, target, N: int) -> list[int]:
    """Positive kinks per component taking d's writhe to target mod N."""
    target = tuple(int(v) for v in target)
    if len(target) != len(d.components):
        raise LengthMismatch(
            f"target has {len(target)} entries for {len(d.components)} component(s)"
        )
    if N < 1:
        raise ValueError("rank must be at least 1")
    return [(t - w) % N for t, w in zip(target, d.writhe_vector)]


def with_framing(d: Diagram, target, N: int) -> Diagram:
    """Append positive kinks so each component's writhe hits target mod N.

    Component i receives (target[i] - writhe[i]) mod N kinks, each a fresh
    crossing appearing as consecutive O-then-U passes at the end of the
    component.  Original crossings are untouched; passing a target
    congruent to the writhe returns an equal diagram.
    """
    next_id = max(d.crossings, default=0) + 1
    new_components = []
    for comp, kinks in zip(d.components, _kink_counts(d, target, N)):
        passes = list(comp)
        for _ in range(kinks):
            passes.append(Pass(next_id, "O", 1))
            passes.append(Pass(next_id, "U", 1))
            next_id += 1
        new_components.append(passes)
    return Diagram(new_components)


def framed_semiarc_sources(d: Diagram, target, N: int) -> list[tuple[int, int]]:
    """Where each semiarc of with_framing(d, target, N) comes from, in order.

    Entry (s, h) says the framed semiarc lies h half-kinks past semiarc s
    of d: h = 0 is s itself, h = 2j + 1 runs between the O and U passes of
    the component's kink j, and h = 2j + 2 leaves that kink's U pass.  A
    component's kinks all follow its closing semiarc s; the last one
    returns to the semiarc entering pass 0.  A crossing-free component
    with kinks is all kink semiarcs, its semiarc 0 the middle of its first
    kink.
    """
    sources = []
    for ci, (comp, kinks) in enumerate(zip(d.components, _kink_counts(d, target, N))):
        first = d.semiarc_after(ci, 0)
        closing = first + max(len(comp), 1) - 1
        if comp or not kinks:
            sources += [(s, 0) for s in range(first, closing + 1)]
        sources += [(closing, h) for h in range(1, 2 * kinks + 1)]
    return sources
