"""Seeded inputs for the benchmark workloads.

build() writes every input file of one workload into a work directory and
returns the request list of one pass.  A request is one `biracks` CLI
invocation; its argv names files relative to the work directory, which is
the worker's current directory, so outputs never contain a machine path.

Seed 0 is the default: every seeded transform is then the identity, and
sample_links.txt is rebuilt verbatim from the generators below (run.py
checks it against data/sample_links.txt).  Any other seed relabels the
crossings of Gauss codes and picks primitive roots, constant-action cycles
and, for one small split link, crossing signs and a rotation.  Relabeling
and the choice of primitive root leave the work unchanged; rotations and
signs change a search's size, so they only touch a request far from the
percentiles that the benchmark reports.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from biracks import constant_action, format_matrix, parse_cycles, tsr_birack

KINDS = ("integral", "writhe", "image", "rho")
WORKLOADS = ("search_knots", "framing_sweep", "enhanced_unlinks", "birack_tables")
DATA_BIRACKS = (
    "constant_action_4.txt", "four_element_two_orbits.txt",
    "ten_element.txt", "two_element.txt",
)
STEVEDORE = "O1+,U2+,U4-,O6+,U7-,O5-,U6+,U1+,O2+,O3+,U5-,O7-,U3+,O4-"
_PASS = re.compile(r"([OU])(\d+)([+-])")


@dataclass
class Request:
    argv: list[str]
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Gauss codes
# ---------------------------------------------------------------------------

def unlink(c: int) -> str:
    return ";" * (c - 1)


def braid_closure(strands: int, word) -> str:
    """Closure of a braid word; letter +j crosses strand j over strand j+1."""
    seen: set[int] = set()
    comps = []
    for start in range(1, strands + 1):
        if start in seen:
            continue
        passes, p = [], start
        while True:
            seen.add(p)
            for cid, letter in enumerate(word, start=1):
                j, sign = abs(letter), "+" if letter > 0 else "-"
                if p == j:
                    passes.append(f"{'O' if letter > 0 else 'U'}{cid}{sign}")
                    p = j + 1
                elif p == j + 1:
                    passes.append(f"{'U' if letter > 0 else 'O'}{cid}{sign}")
                    p = j
            if p == start:
                break
        comps.append(",".join(passes))
    return ";".join(comps)


def torus(k: int) -> str:
    """The (2, k) torus knot or link."""
    return braid_closure(2, [1] * k)


def sample_links() -> list[tuple[str, str]]:
    return [
        ("unknot", unlink(1)),
        ("hopf", torus(2)),
        ("trefoil", torus(3)),
        ("figure_eight", braid_closure(3, [1, -2, 1, -2])),
        ("cinquefoil", torus(5)),
        ("stevedore", STEVEDORE),
    ]


def links_text(links) -> str:
    return "# name<TAB>signed Gauss code\n" + "".join(f"{n}\t{c}\n" for n, c in links)


def relabel(code: str, rng: random.Random | None) -> str:
    """Renumber the crossings by a seeded permutation."""
    ids = sorted({int(m.group(2)) for m in _PASS.finditer(code)})
    if rng is None or not ids:
        return code
    new = ids[:]
    rng.shuffle(new)
    mapping = dict(zip(ids, new))
    return _PASS.sub(lambda m: f"{m.group(1)}{mapping[int(m.group(2))]}{m.group(3)}", code)


def rotate(code: str, rng: random.Random | None) -> str:
    """Start every component at a seeded pass."""
    if rng is None:
        return code
    comps = []
    for comp in code.split(";"):
        passes = comp.split(",") if comp else []
        r = rng.randrange(len(passes)) if passes else 0
        comps.append(",".join(passes[r:] + passes[:r]))
    return ";".join(comps)


def signed_word(letters, rng: random.Random | None) -> list[int]:
    """Give each braid letter a seeded sign (all positive at seed 0)."""
    return [j if rng is None or rng.random() < 0.5 else -j for j in letters]


# ---------------------------------------------------------------------------
# Birack tables
# ---------------------------------------------------------------------------

def primitive_roots(n: int) -> list[int]:
    return [g for g in range(2, n) if gcd(g, n) == 1
            and len({pow(g, k, n) for k in range(n - 1)}) == n - 1]


def commuting_cycles(rng: random.Random | None) -> tuple[str, str, int]:
    """On 8 points: tau a 3-cycle and a 2-cycle, rho a 2-cycle on other
    points, and the remaining fixed point (a one-element subbirack)."""
    pts = list(range(1, 9))
    if rng is not None:
        rng.shuffle(pts)
    a, b, c, d, e, f, g, fixed = pts
    return f"({a} {b} {c})({d} {e})", f"({f} {g})", fixed


def write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def invariant(birack: str, kind: str, *, gauss=None, batch=None, normalize=False,
              labelings=False, json=False, **meta) -> Request:
    argv = ["invariant", "--birack", birack, "--type", kind]
    argv += ["--gauss", gauss] if batch is None else ["--batch", batch]
    argv += ["--normalize"] * normalize + ["--labelings"] * labelings + ["--json"] * json
    meta.update(birack=birack, kind=kind, gauss=gauss, batch=batch,
                normalize=normalize, labelings=labelings, json=json)
    return Request(argv, meta)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, workdir: Path, data_dir: Path):
    """Write the workload's inputs; return (requests of one pass, probe, record)."""
    rng = None if seed == 0 else random.Random(seed)
    record: dict = {"seed": seed, "files": {}, "codes": {}}
    for name in DATA_BIRACKS:
        write(workdir, name, (data_dir / name).read_text(encoding="utf-8"))
    write(workdir, "sample_links.txt", links_text(sample_links()))
    requests, probe = globals()["_" + workload](workdir, rng, record)
    for path in sorted(workdir.iterdir()):
        record["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return requests, probe, record


def _search_knots(workdir, rng, record):
    reqs = []
    # The end-to-end batch of the ROADMAP: every data birack x every kind.
    for birack in DATA_BIRACKS:
        for kind in KINDS:
            reqs.append(invariant(birack, kind, batch="sample_links.txt"))
    # A seeded relabeling of each sample link over the small biracks: every
    # line must equal the plain batch's line for that link.
    variants = [(n, relabel(c, rng)) for n, c in sample_links()]
    write(workdir, "variant_links.txt", links_text(variants))
    record["codes"]["variant_links"] = variants
    for birack in DATA_BIRACKS:
        if birack == "ten_element.txt":
            continue
        for kind in KINDS:
            base = DATA_BIRACKS.index(birack) * len(KINDS) + KINDS.index(kind)
            reqs.append(invariant(birack, kind, batch="variant_links.txt", same_as=base))
    # (2, k) torus knots over a rank-1 birack: the search alone grows as 8^(k/2).
    write(workdir, "tsr_3_1_2_2.txt", format_matrix(tsr_birack(3, 1, 2, 2)))
    for k in range(3, 12, 2):
        reqs.append(invariant("tsr_3_1_2_2.txt", "integral", gauss=torus(k)))
        if k <= 7:
            base = len(reqs) - 1
            reqs.append(invariant("tsr_3_1_2_2.txt", "integral",
                                  gauss=relabel(torus(k), rng), same_as=base))
    # Known defect: a long kink chain overflows the recursive search.
    kinks = ",".join(f"O{i}+,U{i}+" for i in range(1, 1201))
    probe = invariant("tsr_3_1_2_2.txt", "integral", gauss=kinks, name="unknot_1200_kinks")
    return reqs, probe


def _framing_sweep(workdir, rng, record):
    rank6 = write(workdir, "tsr_7_3_0_1.txt", format_matrix(tsr_birack(7, 3, 0, 1)))
    rank10 = write(workdir, "tsr_11_2_0_1.txt", format_matrix(tsr_birack(11, 2, 0, 1)))
    # 2-crossing links: the Hopf link, its mirror, and the Hopf link beside
    # a circle.  Each is asked with its fixed code, whose argv is the same at
    # every seed (so its recorded digest applies).  Over rank 6 each is also
    # asked with a seeded relabeling that must print the same value; over
    # rank 10 a request takes 1-2 s, so only the fixed codes run.
    links = {"hopf": torus(2), "mirror_hopf": braid_closure(2, [-1, -1]),
             "hopf_circle": braid_closure(3, [1, 1])}
    seeded = {name: relabel(code, rng) for name, code in links.items()}
    record["codes"].update(seeded)
    every = [("integral", False), ("integral", True), ("writhe", False), ("writhe", True)]
    pair = [("integral", False), ("writhe", True)]
    reqs = []
    for birack, code, kinds in [
        (rank6, unlink(1), every), (rank10, unlink(1), every), (rank6, unlink(2), every),
        (rank6, unlink(3), pair), (rank10, unlink(2), pair),
        (rank10, links["hopf"], pair), (rank10, links["mirror_hopf"], pair),
    ]:
        reqs += [invariant(birack, kind, gauss=code, normalize=norm) for kind, norm in kinds]
    for name, kinds in [("hopf", every), ("mirror_hopf", every), ("hopf_circle", pair)]:
        for kind, norm in kinds:
            reqs.append(invariant(rank6, kind, gauss=links[name], normalize=norm))
            reqs.append(invariant(rank6, kind, gauss=seeded[name], normalize=norm,
                                  same_as=len(reqs) - 1))
    return reqs, None


def _enhanced_unlinks(workdir, rng, record):
    # A split link: two strands crossing twice beside a circle.  Over four
    # elements its signs, rotation and crossing ids are seeded (brute force
    # checks it); over ten elements the code is fixed, so that its recorded
    # digest applies at every seed.
    split = relabel(rotate(braid_closure(3, signed_word([1, 1], rng)), rng), rng)
    record["codes"]["split_link"] = split
    modes = [{}, {"normalize": True}, {"labelings": True, "json": True}]
    reqs = []
    for birack, last in (("ten_element.txt", braid_closure(3, [1, 1])),
                         ("four_element_two_orbits.txt", split)):
        for code in (unlink(2), unlink(3), unlink(4), torus(2), last):
            for kind in ("image", "rho"):
                reqs += [invariant(birack, kind, gauss=code, **m) for m in modes]
    return reqs, None


def _birack_tables(workdir, rng, record):
    tables = []
    for n in (5, 11, 19, 29, 37, 53, 59, 67):
        t = 2 if rng is None else rng.choice(primitive_roots(n))
        tables.append(({"family": "tsr", "n": n, "t": t, "s": 0, "r": 1, "m": 1},
                       tsr_birack(n, t, 0, 1)))
    tables.append(({"family": "tsr", "n": 3, "t": 2, "s": 0, "r": 1, "m": 2},
                   tsr_birack(3, 2, 0, 1, 2)))
    tau, rho, fixed = commuting_cycles(rng)
    tables.append(({"family": "ca", "tau": tau, "rho": rho, "size": 8},
                   constant_action(parse_cycles(tau, 8), parse_cycles(rho, 8))))
    reqs = []
    for params, b in tables:
        if params["family"] == "tsr":
            name = "tsr_{n}_{t}_{s}_{r}_{m}.txt".format(**params)
            make = ["make", "tsr"] + [a for k in "ntsrm" for a in (f"--{k}", str(params[k]))]
            point = 1  # 0 in (Z_n)^m: B(0, 0) = (0, 0) when s = 0
        else:
            name = "ca_8.txt"
            make = ["make", "ca", "--tau", tau, "--rho", rho, "--size", "8"]
            point = fixed
        write(workdir, name, format_matrix(b))
        record["codes"][name] = params
        meta = {"table": name, "params": params}
        reqs.append(Request(make, dict(meta, command="make")))
        commands = [["verify", name], ["verify", name, "--json"], ["rank", name],
                    ["classify", name], ["subbiracks", name], ["poly", name],
                    ["poly", name, "--subbirack", str(point)]]
        for argv in commands:
            reqs.append(Request(argv, dict(meta, command=argv[0])))
    return reqs, None
