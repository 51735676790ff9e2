import hashlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import pytest

from biracks import (
    Labeling,
    compute_invariant,
    count_labelings,
    enumerate_labelings,
    labeling_image,
    normalize,
    parse_gauss,
    phi_integral,
    read_matrix_file,
    subbirack_closure,
    tsr_birack,
    unlink,
    with_framing,
)
import biracks.homsearch
from biracks.cli import main
from biracks.homsearch import _compiled, _crossing_quads, _plan, _search, cut_labelings
from biracks.invariants import KINDS
from conftest import (
    HOPF,
    TREFOIL,
    FIGURE_EIGHT,
    braid_closure,
    brute_force_labelings,
    kink_chain,
    random_gauss_code,
    reference_plan,
    relabel_crossings,
)

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_BIRACKS = sorted(p.stem for p in DATA.glob("*.txt") if p.name != "sample_links.txt")


class TestKnownCounts:
    def test_trefoil_nine_labelings(self, trefoil_birack):
        labs = enumerate_labelings(parse_gauss(TREFOIL), trefoil_birack)
        assert len(labs) == 9

    def test_hopf_per_framing(self, two_element):
        d = parse_gauss(HOPF)
        counts = {}
        for w in product(range(2), repeat=2):
            counts[w] = len(enumerate_labelings(with_framing(d, w, 2), two_element))
        assert counts == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 4}

    def test_unlink_base_framing_table(self, two_element):
        labs = enumerate_labelings(unlink(2), two_element)
        assert [l.assignment for l in labs] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_crossing_free_components_are_free(self, two_orbit4):
        assert len(enumerate_labelings(unlink(3), two_orbit4)) == 4 ** 3

    def test_positive_kink_forces_kink_map(self, test_biracks):
        # in-label x, through-label alpha(x), out-label pi(x); on a closed
        # 1-kink circle only the fixed labels of pi survive
        for b in test_biracks.values():
            labs = enumerate_labelings(parse_gauss("O1+,U1+"), b)
            fixed = [x for x in range(b.n) if b.pi[x] == x]
            assert [l.assignment for l in labs] == sorted((b.alpha[x], x) for x in fixed)


class TestOracleEquivalence:
    CODES = ["", "O1+,U1+", "O1-,U1-", HOPF, TREFOIL, FIGURE_EIGHT,
             "O1+,O2-;U1+,U2-", "O1+,U2+;U1+,O2+;"]

    @pytest.mark.parametrize("code", CODES)
    def test_matches_brute_force(self, code, test_biracks):
        d = parse_gauss(code)
        for b in test_biracks.values():
            if b.n ** d.semiarc_count > 10 ** 6:
                continue
            labs = [l.assignment for l in enumerate_labelings(d, b)]
            assert labs == brute_force_labelings(d, b)

    def test_framed_diagrams_match_brute_force(self, two_orbit4):
        d = parse_gauss("O1+,U1+")
        for w in range(2):
            framed = with_framing(d, (w,), 2)
            labs = [l.assignment for l in enumerate_labelings(framed, two_orbit4)]
            assert labs == brute_force_labelings(framed, two_orbit4)


class TestLabeling:
    def test_sequence_access(self):
        lab = Labeling((3, 1, 2))
        assert len(lab) == 3
        assert (lab[0], lab[2], lab[-1]) == (3, 2, 2)
        assert list(lab) == [3, 1, 2]
        assert len(Labeling(())) == 0


class TestDeterminism:
    def test_lexicographic_order(self, two_orbit4):
        labs = enumerate_labelings(parse_gauss(HOPF), two_orbit4)
        assignments = [l.assignment for l in labs]
        assert assignments == sorted(assignments)
        assert len(set(assignments)) == len(assignments)

    def test_repeat_runs_identical(self, trefoil_birack):
        d = parse_gauss(TREFOIL)
        first = enumerate_labelings(d, trefoil_birack)
        second = enumerate_labelings(d, trefoil_birack)
        assert first == second


class TestImages:
    def test_trefoil_images(self, trefoil_birack):
        labs = enumerate_labelings(parse_gauss(TREFOIL), trefoil_birack)
        sizes = sorted(len(labeling_image(l, trefoil_birack)) for l in labs)
        assert sizes == [1] + [3] * 8

    def test_constant_labeling_image_is_closure(self, two_orbit4):
        labs = enumerate_labelings(parse_gauss(""), two_orbit4)
        for lab in labs:
            x = lab.assignment[0]
            assert labeling_image(lab, two_orbit4) == subbirack_closure(two_orbit4, {x})

    def test_images_are_closed(self, test_biracks):
        d = parse_gauss(TREFOIL)
        for b in test_biracks.values():
            for lab in enumerate_labelings(d, b):
                image = labeling_image(lab, b)
                assert subbirack_closure(b, image) == image


class TestRandomCodes:
    """Seeded signed Gauss codes: at most 5 crossings, 1-2 components,
    virtual pairings and random signs."""

    CODES = [random_gauss_code(random.Random(seed)) for seed in range(200)]

    def test_matches_brute_force(self, two_element, constant4, two_orbit4,
                                 trefoil_birack):
        compared = 0
        for code in self.CODES:
            d = parse_gauss(code)
            for b in (two_element, constant4, two_orbit4, trefoil_birack):
                # the oracle tries all n^semiarcs assignments; beyond 4^8 it
                # is left to the 2- and 3-element biracks
                if b.n ** d.semiarc_count > 4 ** 8:
                    continue
                labs = [l.assignment for l in enumerate_labelings(d, b)]
                assert labs == brute_force_labelings(d, b), code
                compared += 1
        assert compared >= 700

    def test_crossing_ids_do_not_matter(self, two_element, constant4, two_orbit4,
                                        trefoil_birack):
        rng = random.Random(1)
        for code in self.CODES:
            d, relabeled = parse_gauss(code), parse_gauss(relabel_crossings(code, rng))
            for b in (two_element, constant4, two_orbit4, trefoil_birack):
                assert enumerate_labelings(relabeled, b) == enumerate_labelings(d, b), code


def _sample_links() -> list[tuple[str, str]]:
    lines = (DATA / "sample_links.txt").read_text(encoding="utf-8").splitlines()
    return [tuple(ln.split("\t")) for ln in lines if not ln.startswith("#")]


def _closed_nodes(d, b) -> int:
    size, _, _, plan = _compiled(d, False)
    return _search(plan, size, b)[1]


class TestNodeCounts:
    """One node per value tried at a branch point; counts are deterministic.

    The branch order closes every crossing of these diagrams after at most
    two branch points: n nodes for the unknot, n + n^2 for the rest.
    """

    NODES = {
        "two_element": 6,
        "constant_action_4": 20,
        "four_element_two_orbits": 20,
        "ten_element": 110,
    }

    @pytest.mark.parametrize("birack", sorted(NODES))
    @pytest.mark.parametrize("name,code", _sample_links())
    def test_sample_links(self, birack, name, code):
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        assert b.n + b.n ** 2 == self.NODES[birack]
        expected = b.n if name == "unknot" else self.NODES[birack]
        assert _closed_nodes(parse_gauss(code), b) == expected

    @pytest.mark.parametrize("k", [7, 9, 11])
    def test_torus_knots(self, k, trefoil_birack):
        assert _closed_nodes(braid_closure(2, [1] * k), trefoil_birack) == 12


class TestCutSearch:
    """One search per (diagram, birack), each component with crossings cut
    open at its closing semiarc when the rank is above 1."""

    # rank-2 data biracks: n for the unknot, n + n^2 for the other sample
    # links except the stevedore, which loses its closing crossings'
    # propagation to the cut
    NODES = {
        "two_element": 14,
        "constant_action_4": 84,
        "four_element_two_orbits": 84,
    }

    @pytest.mark.parametrize("birack", sorted(NODES))
    @pytest.mark.parametrize("name,code", _sample_links())
    def test_sample_links(self, birack, name, code):
        b = read_matrix_file(str(DATA / f"{birack}.txt"))
        assert b.rank == 2
        expected = {"unknot": b.n, "stevedore": self.NODES[birack]}.get(name, b.n + b.n ** 2)
        assert cut_labelings(parse_gauss(code), b).nodes == expected

    # the links of the framing sweep: n, n + n^2 or n + n^2 + n^3
    @pytest.mark.parametrize("code,nodes", [
        ("", (7, 11)),
        (";", (56, 132)),
        (";;", (399, 1463)),
        (HOPF, (56, 132)),
        ("U1-,O2-;O1-,U2-", (56, 132)),
        (HOPF + ";", (399, 1463)),
    ])
    def test_framing_sweep_links(self, code, nodes):
        got = tuple(cut_labelings(parse_gauss(code), tsr_birack(*args)).nodes
                    for args in [(7, 3, 0, 1), (11, 2, 0, 1)])
        assert got == nodes

    def test_tails_and_heads(self, two_element):
        # the 2-crossing link beside a circle: its two components enter
        # pass 0 on fresh heads 5 and 6, the circle (semiarc 4) is whole
        cut = cut_labelings(parse_gauss(HOPF + ";"), two_element)
        assert (cut.tails, cut.heads) == ((1, 3, 4), (5, 6, 4))
        assert all(len(a) == 7 for a in cut.assignments)

    @pytest.mark.parametrize("name,code", _sample_links())
    def test_rank_one_is_not_cut(self, name, code, trefoil_birack):
        ten = read_matrix_file(str(DATA / "ten_element.txt"))
        for b in (ten, trefoil_birack):
            d = parse_gauss(code)
            cut = cut_labelings(d, b)
            assert cut.heads == cut.tails
            assert cut.nodes == _closed_nodes(d, b)
            assert sorted(cut.assignments) == [lab.assignment for lab in enumerate_labelings(d, b)]


class TestSearchOrder:
    """The assignments in the order the search finds them, node counts
    included; enumerate_labelings and the other tests sort them."""

    def test_digest(self):
        h = hashlib.sha256()
        for name in ["constant_action_4", "four_element_two_orbits", "ten_element",
                     "two_element"]:
            b = read_matrix_file(str(DATA / f"{name}.txt"))
            for _, code in _sample_links():
                for cut in (False, True):
                    size, _, _, plan = _compiled(parse_gauss(code), cut)
                    h.update(repr(_search(plan, size, b)).encode())
        assert h.hexdigest() == "f48cbea9802b779d1d1f60acffed69fc3870f8f9cfbfa2fbbd64e73865a569d8"


@pytest.fixture
def plan_fires(monkeypatch):
    """count(f) runs f and returns the closures computed meanwhile: the
    calls of homsearch._fire, which only _plan makes."""
    calls = [0]
    fire = biracks.homsearch._fire

    def counting(*args):
        calls[0] += 1
        return fire(*args)

    monkeypatch.setattr(biracks.homsearch, "_fire", counting)

    def count(f):
        calls[0] = 0
        f()
        return calls[0]

    return count


def _plan_diagrams():
    rng = random.Random(30)
    codes = [code for _, code in _sample_links()] + [kink_chain(k) for k in range(1, 9)]
    codes += [random_gauss_code(rng, rng.randint(1, 14), rng.randint(1, 4)) for _ in range(300)]
    return [parse_gauss(code) for code in codes] + [braid_closure(2, [1] * k) for k in range(1, 12)]


class TestPlan:
    """The greedy branch plan, and the closures it computes to build it."""

    def test_matches_reference(self):
        # through the compile step, which keeps _plan's levels as tuples
        for d in _plan_diagrams():
            for cut in (False, True):
                quads, size, tails, heads = _crossing_quads(d, cut)
                levels = tuple((s, tuple(steps)) for s, steps in reference_plan(quads, size))
                assert _compiled(d, cut) == (size, tails, heads, levels), (d, cut)

    # (closed, cut): the kinks and, after each pick, the candidates refired
    # until one closes every unknown semiarc; a pick reuses its closure's steps
    FIRES = {
        "unknot": (0, 0),
        "hopf": (2, 2),
        "trefoil": (2, 2),
        "figure_eight": (2, 4),
        "cinquefoil": (2, 2),
        "stevedore": (2, 10),
    }

    @staticmethod
    def closed_and_cut(plan_fires, d):
        return tuple(plan_fires(lambda: _plan(*_crossing_quads(d, cut)[:2])) for cut in (False, True))

    @pytest.mark.parametrize("name,code", _sample_links())
    def test_sample_link_fires(self, name, code, plan_fires):
        assert self.closed_and_cut(plan_fires, parse_gauss(code)) == self.FIRES[name]

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
    def test_torus_knot_fires(self, k, plan_fires):
        assert self.closed_and_cut(plan_fires, braid_closure(2, [1] * k)) == (2, 2)


class TestPlanCache:
    """homsearch._compiled keeps at most 32 plans, one per (diagram, cut)
    key, shared by every birack, kind, request and thread; every test
    starts from an empty cache (conftest.cold_caches).  TestPlan checks the
    cached plans against reference_plan."""

    MAXSIZE = 32

    @staticmethod
    def batch_links():
        return [parse_gauss(code) for _, code in _sample_links()] + [
            unlink(2), unlink(3), unlink(4), parse_gauss(HOPF + ";")]

    def test_cold_and_warm_values(self):
        cases = [(d, read_matrix_file(str(DATA / f"{birack}.txt")), kind)
                 for birack in DATA_BIRACKS for kind in KINDS for d in self.batch_links()]

        def values(case):
            v = compute_invariant(*case)
            nv = normalize(v, *case[:2])
            return v, v.value_string(), nv, nv.value_string()

        cold = []
        for case in cases:
            _compiled.cache_clear()
            cold.append(values(case))
        _compiled.cache_clear()
        for case in cases:
            values(case)
        misses = _compiled.cache_info().misses
        assert [values(case) for case in cases] == cold
        assert _compiled.cache_info().misses == misses

    def test_entries_are_tuples(self):
        def leaf_types(x):
            if isinstance(x, tuple):
                for y in x:
                    yield from leaf_types(y)
            else:
                yield type(x)

        for d in [*self.batch_links(), parse_gauss(kink_chain(3)), braid_closure(2, [1] * 5)]:
            for cut in (False, True):
                assert set(leaf_types(_compiled(d, cut))) <= {int, bool, str}, (d, cut)

    def test_bounded(self):
        assert _compiled.cache_info().maxsize == self.MAXSIZE
        for k in range(1, self.MAXSIZE + 6):
            _compiled(parse_gauss(kink_chain(k)), False)
            assert _compiled.cache_info().currsize <= self.MAXSIZE
        info = _compiled.cache_info()
        assert (info.misses, info.currsize) == (self.MAXSIZE + 5, self.MAXSIZE)

    def test_second_batch_plans_nothing(self, monkeypatch, capsys):
        # every data birack and kind over data/sample_links.txt: its 6 links
        # planned closed and cut once, then never again
        monkeypatch.chdir(DATA.parent)
        calls = []
        plan = biracks.homsearch._plan

        def counted(*args):
            calls.append(args)
            return plan(*args)

        monkeypatch.setattr(biracks.homsearch, "_plan", counted)

        def batch():
            for birack in DATA_BIRACKS:
                for kind in KINDS:
                    assert main(["invariant", "--birack", f"data/{birack}.txt",
                                 "--batch", "data/sample_links.txt", "--type", kind]) == 0
            return capsys.readouterr().out

        first = batch()
        planned = len(calls)
        assert batch() == first
        assert (planned, len(calls) - planned) == (12, 0)

    def test_threads_share_the_cache(self):
        cases = [(parse_gauss(code), read_matrix_file(str(DATA / f"{birack}.txt")))
                 for birack in DATA_BIRACKS for _, code in _sample_links()]

        def values():
            return [compute_invariant(d, b, kind) for d, b in cases for kind in KINDS]

        serial = values()
        _compiled.cache_clear()
        start = threading.Barrier(4, timeout=60)

        def run():
            start.wait()
            return values()

        # switch threads often, so that they interleave inside the cache
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(run) for _ in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4


class TestCountLabelings:
    def test_counts_without_labeling_objects(self, monkeypatch, test_biracks):
        cases = [(parse_gauss(code), b) for code in (HOPF, TREFOIL, FIGURE_EIGHT)
                 for b in test_biracks.values()]
        expected = [len(enumerate_labelings(d, b)) for d, b in cases]

        def no_labeling(*args):
            raise AssertionError("count_labelings built a Labeling")

        monkeypatch.setattr("biracks.homsearch.Labeling", no_labeling)
        assert [count_labelings(d, b) for d, b in cases] == expected


class TestDeepDiagrams:
    """Searches far deeper than the interpreter's recursion limit."""

    # closures the plan may compute: 3.5 per kink, where it computes 3,000
    # and 7,500 (2.5 per kink).  A kink rule applied one kink at a time once
    # made the plan quadratic (ROADMAP item 17).
    PLAN_FIRES = {1200: 4200, 3000: 10500}

    @pytest.mark.parametrize("kinks", [1200, 3000])
    def test_kink_chain_unknot(self, kinks, trefoil_birack, plan_fires):
        d = parse_gauss(kink_chain(kinks))
        counts = []
        fires = plan_fires(lambda: counts.append(count_labelings(d, trefoil_birack)))
        assert counts == [3] and fires <= self.PLAN_FIRES[kinks]

    # closures the plan of a Hopf link with k positive kinks on each
    # component may compute when it is searched cut: 7 per kink, where it
    # computes 5k + 2
    LINKED_PLAN_FIRES = {100: 700, 200: 1400, 400: 2800, 800: 5600}

    @pytest.mark.parametrize("kinks", [100, 200, 400, 800])
    def test_linked_kink_chains(self, kinks, two_element, plan_fires):
        chains = [",".join(f"O{i}+,U{i}+" for i in range(first, first + kinks))
                  for first in (3, 3 + kinks)]
        d = parse_gauss(f"O1+,U2+,{chains[0]};U1+,O2+,{chains[1]}")
        assert two_element.rank > 1  # so cut_labelings cuts the link open
        fires = plan_fires(lambda: cut_labelings(d, two_element))
        assert fires <= self.LINKED_PLAN_FIRES[kinks]

    def test_torus_knot_2_301(self, trefoil_birack):
        d = braid_closure(2, [1] * 301)
        assert len(d.components) == 1 and len(d.crossings) == 301
        assert phi_integral(d, trefoil_birack) == 3
