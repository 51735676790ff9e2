import hashlib
import json
import sys
from pathlib import Path

import pytest

from biracks.cli import main
from biracks import (
    compute_invariant,
    normalize,
    format_matrix,
    from_matrix,
    parse_gauss,
    read_matrix_file,
    tsr_birack,
)
from biracks.invariants import KINDS, labelings_by_framing
from conftest import (
    CONSTANT_ACTION_4_MATRIX,
    TWO_ELEMENT_MATRIX,
    TWO_ORBIT_4_MATRIX,
    HOPF,
    TREFOIL,
    kink_chain,
)
from test_invariants import AROUND, DATA_BIRACKS, _framings_counted, _sample_links


# the start of the one-line refusal of a --labelings dump over the bound
DUMP_REFUSAL = "the labelings of every framing would hold more than"


@pytest.fixture
def two_element_file(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text(format_matrix(from_matrix(2, TWO_ELEMENT_MATRIX)))
    return str(path)


@pytest.fixture
def constant4_file(tmp_path):
    path = tmp_path / "ca4.txt"
    path.write_text(format_matrix(from_matrix(4, CONSTANT_ACTION_4_MATRIX)))
    return str(path)


@pytest.fixture
def two_orbit_file(tmp_path):
    path = tmp_path / "orbit4.txt"
    path.write_text(format_matrix(from_matrix(4, TWO_ORBIT_4_MATRIX)))
    return str(path)


class TestVerify:
    def test_valid(self, constant4_file, capsys):
        assert main(["verify", constant4_file]) == 0
        out = capsys.readouterr().out
        assert "valid birack" in out

    def test_invalid_duplicate_column(self, tmp_path, capsys):
        # a repeated entry makes one B1 row non-bijective
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1 2 2\n1 2 1 1\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT a birack" in out

    def test_json(self, two_element_file, capsys):
        assert main(["verify", two_element_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert {c["axiom"] for c in payload["checks"]} == {
            "NotPairBijective",
            "SidewaysNotUnique",
            "DiagonalNotBijective",
            "YangBaxterFails",
        }


class TestMake:
    def test_tsr_round_trips(self, tmp_path, capsys):
        out = tmp_path / "tsr.txt"
        assert main(["make", "tsr", "--n", "4", "--t", "3", "--s", "2",
                     "--r", "3", "--out", str(out)]) == 0
        assert main(["rank", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_tsr_rejects_bad_parameters(self, capsys):
        assert main(["make", "tsr", "--n", "4", "--t", "2", "--s", "2", "--r", "3"]) == 1
        assert "NotInvertible" in capsys.readouterr().err

    def test_tsr_element_limit(self, monkeypatch, capsys):
        import biracks.families

        # (Z_100)^5 has 10^10 elements; at a limit of 8, (Z_3)^2 has too many
        tsr = ["make", "tsr", "--t", "1", "--s", "0", "--r", "1"]
        assert _run([*tsr, "--n", "100", "--m", "5"], capsys) == (
            1, "", "error: (Z_100)^5 has 100^5 elements, more than 256\n")
        monkeypatch.setattr(biracks.families, "ELEMENT_LIMIT", 8)
        assert _run([*tsr, "--n", "3", "--m", "2"], capsys) == (
            1, "", "error: (Z_3)^2 has 3^2 elements, more than 8\n")
        code, out, _ = _run([*tsr, "--n", "2", "--m", "3"], capsys)
        assert (code, out.splitlines()[0]) == (0, "8")

    def test_ca_matches_reference(self, capsys):
        assert main(["make", "ca", "--tau", "(1 2)", "--rho", "(3 4)", "--size", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
        assert rows == CONSTANT_ACTION_4_MATRIX

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_ca_refuses_empty_set(self, size, capsys):
        # parse_cycles refuses a set of no points
        args = ["make", "ca", "--tau", "()", "--rho", "()", "--size", size]
        assert _run(args, capsys) == (1, "", f"error: n must be positive, got {size}\n")

    def test_tsrho_from_files(self, tmp_path, capsys):
        cayley = tmp_path / "z4.txt"
        cayley.write_text(
            "4\n" + "\n".join(
                " ".join(str((a + c) % 4 + 1) for c in range(4)) for a in range(4)
            ) + "\n"
        )
        # tau(x) = 3x mod 4 on 1-indexed labels {1..4} representing {0..3}
        (tmp_path / "tau.txt").write_text("1 4 3 2\n")
        (tmp_path / "sigma.txt").write_text("1 3 1 3\n")  # x -> 2x
        (tmp_path / "rho.txt").write_text("1 4 3 2\n")
        assert main([
            "make", "tsrho", "--cayley", str(cayley),
            "--tau", str(tmp_path / "tau.txt"),
            "--sigma", str(tmp_path / "sigma.txt"),
            "--rho", str(tmp_path / "rho.txt"),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
        from biracks import to_matrix

        assert rows == to_matrix(tsr_birack(4, 3, 2, 3))


class TestQueries:
    def test_rank(self, constant4_file, capsys):
        assert main(["rank", constant4_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_classify(self, two_element_file, capsys):
        assert main(["classify", two_element_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_biquandle"] is False
        assert payload["is_rack"] is False
        assert payload["is_simple"] is True
        assert payload["kink_map"] == "(1 2)"

    def test_classify_text(self, two_orbit_file, capsys):
        assert _run(["classify", two_orbit_file], capsys) == (0, (
            "n: 4\n"
            "rank: 2\n"
            "kink map: (3 4)\n"
            "is_biquandle: no\n"
            "is_rack: no\n"
            "is_quandle: no\n"
            "is_semiquandle: no\n"
            "is_simple: no\n"
        ), "")

    def test_subbiracks_json(self, two_orbit_file, capsys):
        assert _run(["subbiracks", two_orbit_file, "--json"], capsys) == (
            0, "[[1, 2], [3, 4], [1, 2, 3, 4]]\n", "")

    def test_poly_json(self, two_orbit_file, capsys):
        assert _run(["poly", two_orbit_file, "--json"], capsys) == (
            0, '{"polynomial": "2s1^4s2^2t1^3t2 + s1^2t1^2t2^2 + s2^2t1^2t2^2"}\n', "")
        assert _run(["poly", two_orbit_file, "--json", "--subbirack", "3,4"], capsys) == (
            0, '{"polynomial": "2s1^4s2^2t1^3t2"}\n', "")

    def test_subbiracks(self, two_orbit_file, capsys):
        assert main(["subbiracks", two_orbit_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "{1, 2}",
            "{3, 4}",
            "{1, 2, 3, 4}",
        ]

    def test_poly(self, two_orbit_file, capsys):
        assert main(["poly", two_orbit_file]) == 0
        assert capsys.readouterr().out.strip() == (
            "2s1^4s2^2t1^3t2 + s1^2t1^2t2^2 + s2^2t1^2t2^2"
        )
        assert main(["poly", two_orbit_file, "--subbirack", "3,4"]) == 0
        assert capsys.readouterr().out.strip() == "2s1^4s2^2t1^3t2"

    def test_poly_not_a_subbirack(self, two_orbit_file, capsys):
        for subset, err in [
            ("1", "error: [1] is not closed under B and S\n"),
            ("3,1", "error: [1, 3] is not closed under B and S\n"),
            ("", "error: --subbirack lists no elements\n"),
            (" , ", "error: --subbirack lists no elements\n"),
            ("a", "error: --subbirack entry 'a' is not an integer\n"),
            ("1.5", "error: --subbirack entry '1.5' is not an integer\n"),
        ]:
            code, out, got = _run(["poly", two_orbit_file, "--subbirack", subset], capsys)
            assert (code, out, got) == (1, "", err)


class TestInvariantCommand:
    def test_writhe_value(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", HOPF, "--type", "writhe"]) == 0
        assert capsys.readouterr().out.strip() == "4q1q2"

    def test_normalized(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", HOPF, "--type", "writhe", "--normalize"]) == 0
        assert capsys.readouterr().out.strip() == "4q1q2 - 4"

    def test_json_schema(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", HOPF, "--type", "writhe", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant"] == "writhe"
        assert payload["gauss_code"] == HOPF
        assert payload["value_canonical_string"] == "4q1q2"
        assert payload["multiset"] == [[[1, 1], 4]]
        assert [[0, 0], 0] in payload["per_framing_counts"]

    def test_json_normalized_multiset_sorted_by_signature(self, capsys):
        # image sizes sort numerically in normalized form too, 10 after 5 and 6
        ten_element = str(Path(__file__).resolve().parent.parent / "data" / "ten_element.txt")
        assert main(["invariant", "--birack", ten_element, "--gauss", HOPF + ";",
                     "--type", "image", "--normalize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["multiset"] == [[5, -200], [6, -120], [10, -80]]

    def test_batch(self, two_element_file, tmp_path, capsys):
        links = tmp_path / "links.txt"
        links.write_text(
            "# comment line\n"
            f"unknot\t\nhopf\t{HOPF}\ntrefoil\t{TREFOIL}\n"
        )
        assert main(["invariant", "--birack", two_element_file,
                     "--batch", str(links), "--type", "integral"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "unknot\tintegral\t2",
            "hopf\tintegral\t4",
            "trefoil\tintegral\t2",
        ]

    def test_gauss_and_batch_exclusive(self, two_element_file, tmp_path, capsys):
        links = tmp_path / "links.txt"
        links.write_text("unknot\t\n")
        assert main(["invariant", "--birack", two_element_file, "--gauss", "",
                     "--batch", str(links), "--type", "integral"]) == 2

    def test_bad_gauss_code_is_domain_error(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", "O1+", "--type", "integral"]) == 1
        assert "error" in capsys.readouterr().err

    def test_labeling_dump(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", "", "--type", "integral", "--labelings"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2"
        assert out[1:] == ["  w=(0): 1", "  w=(0): 2"]

    def test_labeling_dump_searches_each_link_twice(self, two_element_file, tmp_path,
                                                     monkeypatch, capsys):
        import biracks.invariants

        links = tmp_path / "links.txt"
        links.write_text(f"unknot\t\nhopf\t{HOPF}\ntrefoil\t{TREFOIL}\n")
        calls = []
        search = biracks.invariants.cut_labelings

        def counted(d, b):
            calls.append(d)
            return search(d, b)

        def framed_search(*args):
            raise AssertionError("searched a framed diagram")

        monkeypatch.setattr(biracks.invariants, "cut_labelings", counted)
        monkeypatch.setattr(biracks.invariants, "enumerate_labelings", framed_search)
        for extra in ([], ["--json"]):
            calls.clear()
            assert main(["invariant", "--birack", two_element_file, "--batch", str(links),
                         "--type", "rho", "--labelings", *extra]) == 0
            # one search per link for its value and one for its dump,
            # whatever the rank
            assert len(calls) == 6
        capsys.readouterr()

    @pytest.mark.parametrize("kind,digest", [
        ("integral", "f923aa39f83fe70b3638ca8af54ff0812fc4158da05f50b13bb815288c521bf2"),
        ("writhe", "5da1754687b455cdb4700ac9606ae9c74ee63f8243d32551e39bd5ef0475114a"),
        ("image", "692f7ae3eb6afa6cb1d5478beee8d1ef461fc57272a354e5b9c3d57c352f0745"),
        ("rho", "61d2bfef432851a5dc3ed198ca349ea4beeebc797da22941f6401eb48f5280fa"),
    ])
    def test_split_labeling_dump_bytes(self, kind, digest, monkeypatch, capsys):
        # the 3-unlink's value and its --labelings dump each come from one
        # search of one circle; the sha256 of stdout is the one recorded
        # when the dump came from one search of the whole diagram
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        assert main(["invariant", "--birack", "data/four_element_two_orbits.txt",
                     "--gauss", ";;", "--type", kind, "--labelings", "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # the 3-unlink's three equal circles share one search
    @pytest.mark.parametrize("code,groups", [(";;", 1), *((code, 2) for code in AROUND)])
    def test_split_labeling_dump_searches_each_group_twice(self, code, groups, monkeypatch,
                                                            capsys):
        import biracks.homsearch

        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        calls = []
        search = biracks.homsearch._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(biracks.homsearch, "_search", counted)
        for extra in ([], ["--json"]):
            calls.clear()
            assert main(["invariant", "--birack", "data/four_element_two_orbits.txt",
                         "--gauss", code, "--type", "rho", "--labelings", *extra]) == 0
            # each distinct group once for the value and once for the dump
            assert len(calls) == 2 * groups
        capsys.readouterr()

    def test_labeling_dump_bound(self, monkeypatch, capsys):
        # the 7-unlink over the rank-1 ten_element: its one framing's
        # semiarcs are read once, to count its labels, and no row is built
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        calls = _framings_counted(monkeypatch)
        for kind in ("integral", "writhe", "image", "rho"):
            calls.clear()
            code, out, err = _run(["invariant", "--birack", "data/ten_element.txt",
                                   "--gauss", ";" * 6, "--type", kind, "--labelings"], capsys)
            assert (code, out, err) == (1, "", f"error: {DUMP_REFUSAL} 6000000 labels\n")
            assert calls == [(0,) * 7]

    def test_labeling_dump_bound_stops_counting(self, tmp_path, monkeypatch, capsys):
        import biracks.invariants

        # the 3-unlink over a rank-6 birack has 6^3 framings; the bound is
        # passed at the first, so only its semiarcs are counted
        path = tmp_path / "tsr7.txt"
        path.write_text(format_matrix(tsr_birack(7, 3, 0, 1)))
        calls = _framings_counted(monkeypatch)
        monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", 1000)
        code, out, err = _run(["invariant", "--birack", str(path), "--gauss", ";;",
                               "--type", "integral", "--labelings"], capsys)
        assert (code, out, err) == (1, "", f"error: {DUMP_REFUSAL} 1000 labels\n")
        assert calls == [(0, 0, 0)]

    def test_framing_bound(self, two_element_file, capsys):
        code, out, err = _run(["invariant", "--birack", two_element_file, "--gauss", ";" * 22,
                               "--type", "integral"], capsys)
        assert (code, out, err) == (
            1, "", "error: 23 components over a rank-2 birack have 2^23 framings, "
                   "more than 1000000\n")

    def test_labeling_dump_bound_is_inclusive(self, monkeypatch, capsys):
        import biracks.invariants

        # the 4 * 10^4 labels of the 4-unlink print at a bound of 4 * 10^4;
        # the 5-unlink's 5 * 10^5 do not
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", 4 * 10**4)
        args = ["invariant", "--birack", "data/ten_element.txt", "--type", "integral",
                "--labelings", "--gauss"]
        code, out, err = _run([*args, ";;;"], capsys)
        assert (code, len(out.splitlines()), err) == (0, 1 + 10**4, "")
        code, out, err = _run([*args, ";;;;"], capsys)
        assert (code, out, err) == (1, "", f"error: {DUMP_REFUSAL} 40000 labels\n")

    def test_labeling_dump_bound_counts_the_batch(self, tmp_path, monkeypatch, capsys):
        import biracks.invariants

        # two 3-unlinks over ten_element dump 3 * 10^3 labels each: both
        # print at a bound of 6 * 10^3; at one label less each fits alone,
        # but the second is refused once its one framing is counted, and
        # nothing prints; a link that passes the bound alone is refused
        # with the one-link message
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        batch = tmp_path / "links.txt"
        batch.write_text("a\t;;\nb\t;;\n", encoding="utf-8")
        args = ["invariant", "--birack", "data/ten_element.txt", "--batch", str(batch),
                "--type", "integral", "--labelings"]
        monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", 6000)
        code, out, err = _run(args, capsys)
        assert (code, len(out.splitlines()), err) == (0, 2 + 2 * 10**3, "")
        calls = _framings_counted(monkeypatch)
        for limit, refused in ((5999, "the batch"), (2999, "every framing")):
            monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", limit)
            for extra in ([], ["--json"]):
                calls.clear()
                code, out, err = _run([*args, *extra], capsys)
                assert (code, out, err) == (1, "", f"error: the labelings of {refused} would "
                                                   f"hold more than {limit} labels\n")
                assert calls == [(0, 0, 0)] * (2 if limit == 5999 else 1)

    def test_labeling_dump_bound_counts_kink_labels(self, monkeypatch, capsys):
        import biracks.invariants

        # four components of 30 kinks have as many labelings as the
        # 4-unlink, 10^4, but 240 labels each where the unlink's have 4
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        monkeypatch.setattr(biracks.invariants, "LABELING_DUMP_LIMIT", 4 * 10**4)
        chains = ";".join(
            ",".join(f"O{i}+,U{i}+" for i in range(30 * c + 1, 30 * c + 31)) for c in range(4))
        args = ["invariant", "--birack", "data/ten_element.txt", "--type", "integral",
                "--labelings", "--gauss"]
        code, out, err = _run([*args, ";;;"], capsys)
        assert (code, len(out.splitlines()), err) == (0, 1 + 10**4, "")
        # the one framing is counted and refused, and no row is built
        calls = _framings_counted(monkeypatch)
        code, out, err = _run([*args, chains], capsys)
        assert (code, out, err) == (1, "", f"error: {DUMP_REFUSAL} 40000 labels\n")
        assert calls == [(0,) * 4]

    def test_labeling_dump_json(self, two_element_file, capsys):
        assert main(["invariant", "--birack", two_element_file,
                     "--gauss", "", "--type", "integral",
                     "--labelings", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labelings"] == [[[0], [[1], [2]]], [[1], []]]

    def test_deterministic_output(self, two_orbit_file, capsys):
        args = ["invariant", "--birack", two_orbit_file, "--gauss", "",
                "--type", "rho", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_deep_kink_chain(self, tmp_path, capsys):
        path = tmp_path / "tsr3122.txt"
        path.write_text(format_matrix(tsr_birack(3, 1, 2, 2)))
        code, out, err = _run(["invariant", "--birack", str(path),
                               "--gauss", kink_chain(1200), "--type", "integral"], capsys)
        assert (code, out, err) == (0, "3\n", "")


ROOT = Path(__file__).resolve().parent.parent
DUMP_CODES = [code for _, code in _sample_links()] + [";" * c for c in range(4)]


class TestDumpRows:
    """--labelings rows, in text and in --json, equal the rendering of
    labelings_by_framing's Labeling objects with every label plus one."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    def test_rows_match_labelings(self, birack, kind, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        path = f"data/{birack}.txt"
        b = read_matrix_file(path)
        for code in DUMP_CODES:
            d = parse_gauss(code)
            v = compute_invariant(d, b, kind)
            reference = [(w, [[x + 1 for x in lab.assignment] for lab in labs])
                         for w, labs in labelings_by_framing(d, b)]
            lines = [f"  w=({','.join(str(x) for x in w)}): {' '.join(str(x) for x in row)}"
                     for w, rows in reference for row in rows]
            args = ["invariant", "--birack", path, "--gauss", code, "--type", kind, "--labelings"]
            assert _run(args, capsys) == (0, "\n".join([v.value_string(), *lines]) + "\n", "")
            status, out, err = _run([*args, "--json"], capsys)
            labelings = json.dumps([[list(w), rows] for w, rows in reference])
            assert (status, err) == (0, "")
            assert f'"labelings": {labelings}, "link": "-", ' in out
            assert json.loads(out)["labelings"] == [[list(w), rows] for w, rows in reference]

    def test_oversized_dump_writes_no_rows(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        calls = _framings_counted(monkeypatch)
        code, out, err = _run(["invariant", "--birack", "data/ten_element.txt", "--gauss",
                               ";" * 6, "--type", "rho", "--labelings", "--json"], capsys)
        assert (code, out, err) == (1, "", f"error: {DUMP_REFUSAL} 6000000 labels\n")
        assert calls == [(0,) * 7]


class TestLabelingsJson:
    """A --labelings --json result, its rows spliced in from label strings,
    is byte for byte json.dumps(payload, sort_keys=True) of the payload
    with its labelings as lists of 1-indexed labels, for --gauss and for
    --batch."""

    # unlink(1..4) and the Hopf link; over two_element the unknot's framing
    # w = 1, and the Hopf link's framings (0, 1) and (1, 0), have no labelings
    CODES = ["", ";", ";;", ";;;", HOPF]
    NAMES = ['say "hi"', "nœud ∞", "back\\slash", "caf\u00e9"]

    @staticmethod
    def payload(name, path, code, kind, normalized):
        b, d = read_matrix_file(path), parse_gauss(code)
        v = compute_invariant(d, b, kind)
        if normalized:
            v = normalize(v, d, b)
        return {
            "invariant": kind + "-normalized" * normalized,
            "birack_file": path,
            "gauss_code": code,
            "link": name,
            "value_canonical_string": v.value_string(),
            "multiset": v.multiset,
            "per_framing_counts": v.per_framing,
            "labelings": [[list(w), [[x + 1 for x in lab.assignment] for lab in labs]]
                          for w, labs in labelings_by_framing(d, b)],
        }

    @pytest.mark.parametrize("kind,normalized", [("integral", False), ("rho", True)])
    @pytest.mark.parametrize("birack", DATA_BIRACKS)
    def test_gauss(self, birack, kind, normalized, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        path = f"data/{birack}.txt"
        for code in self.CODES:
            args = ["invariant", "--birack", path, "--gauss", code, "--type", kind,
                    "--labelings", "--json"] + ["--normalize"] * normalized
            expected = json.dumps(self.payload("-", path, code, kind, normalized), sort_keys=True)
            assert _run(args, capsys) == (0, expected + "\n", ""), code

    def test_framings_without_labelings(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        _, out, _ = _run(["invariant", "--birack", "data/two_element.txt", "--gauss", HOPF,
                          "--type", "integral", "--labelings", "--json"], capsys)
        assert '[[0, 1], []], [[1, 0], []]' in out

    @pytest.mark.parametrize("kind", ["image", "writhe"])
    def test_batch(self, kind, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        path = "data/two_element.txt"
        jobs = list(zip(self.NAMES + self.NAMES[:1], self.CODES))
        batch = tmp_path / "links.txt"
        batch.write_text("".join(f"{name}\t{code}\n" for name, code in jobs), encoding="utf-8")
        expected = json.dumps([self.payload(name, path, code, kind, False) for name, code in jobs],
                              sort_keys=True)
        assert _run(["invariant", "--birack", path, "--batch", str(batch), "--type", kind,
                     "--labelings", "--json"], capsys) == (0, expected + "\n", "")
        assert json.loads(expected)[1]["link"] == "nœud ∞"


class TestDigitLimit:
    """A count past Python's int-to-str limit is refused with the program's
    own message.  Over the rank-1 ten-element birack the c-unlink has one
    framing and 10^c labelings, and its c equal circles are one search."""

    @pytest.fixture(autouse=True)
    def limit(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize("circles", [4300, 4301])
    def test_refused(self, circles, extra, capsys):
        # 10^4300 has 4,301 digits
        args = ["invariant", "--birack", "data/ten_element.txt", "--type", "integral"]
        assert _run([*args, "--gauss", ";" * (circles - 1), *extra], capsys) == (
            1, "", "error: a count of the value has more than 4300 digits, "
                   "more than Python converts to text\n")

    def test_below_limit_prints(self, capsys):
        args = ["invariant", "--birack", "data/ten_element.txt", "--type", "integral",
                "--gauss", ";" * 4298]
        assert _run(args, capsys) == (0, "1" + "0" * 4299 + "\n", "")
        status, out, err = _run([*args, "--json"], capsys)
        assert (status, err) == (0, "")
        payload = json.loads(out)
        assert payload["value_canonical_string"] == "1" + "0" * 4299
        assert payload["per_framing_counts"] == [[[0] * 4299, 10**4299]]


class TestInternalFailures:
    @pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                     MemoryError("out of memory")])
    def test_reported_without_traceback(self, two_element_file, monkeypatch, capsys, exc):
        def fail(*args):
            raise exc

        monkeypatch.setattr("biracks.cli.compute_invariant", fail)
        code, out, err = _run(["invariant", "--birack", two_element_file,
                               "--gauss", HOPF, "--type", "integral"], capsys)
        assert (code, out, err) == (1, "", f"error: {exc}\n")

    @pytest.mark.parametrize("exc,line", [
        (KeyError(7), "error: KeyError: 7\n"),
        (ZeroDivisionError("division by zero"), "error: ZeroDivisionError: division by zero\n"),
        (AssertionError(), "error: AssertionError: \n"),
    ])
    def test_unexpected_exception_is_one_line(self, two_element_file, monkeypatch, capsys,
                                              exc, line):
        def fail(*args):
            raise exc

        monkeypatch.setattr("biracks.cli.compute_invariant", fail)
        code, out, err = _run(["invariant", "--birack", two_element_file,
                               "--gauss", HOPF, "--type", "integral"], capsys)
        assert (code, out, err) == (1, "", line)

    def test_empty_message_names_the_type(self, two_element_file, monkeypatch, capsys):
        # the catch-all names the type anyway (AssertionError() above)
        def fail(*args):
            raise MemoryError()

        monkeypatch.setattr("biracks.cli.compute_invariant", fail)
        code, out, err = _run(["invariant", "--birack", two_element_file,
                               "--gauss", HOPF, "--type", "integral"], capsys)
        assert (code, out, err) == (1, "", "error: MemoryError\n")

    def test_unexpected_exception_in_any_subcommand(self, two_element_file, monkeypatch,
                                                   capsys):
        def fail(*args):
            raise RuntimeError("lattice broke")

        monkeypatch.setattr("biracks.cli.all_subbiracks", fail)
        code, out, err = _run(["subbiracks", two_element_file], capsys)
        assert (code, out, err) == (1, "", "error: RuntimeError: lattice broke\n")


class TestEnumerateCommand:
    def test_n2(self, capsys):
        assert main(["enumerate", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("4 birack(s) on 2 element(s)")

    def test_n2_json(self, capsys):
        assert main(["enumerate", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert any(
            not e["flags"]["is_biquandle"] and not e["flags"]["is_rack"]
            for e in payload
        )

    def test_too_large(self, capsys):
        assert main(["enumerate", "--n", "4"]) == 1


class TestUsage:
    def test_parser_built_once(self):
        from biracks.cli import build_parser

        assert build_parser() is build_parser()

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["invariant", "--gauss", ""]) == 2

    def test_missing_file(self, capsys):
        assert main(["rank", "/nonexistent/m.txt"]) == 1


def _commented(text: str) -> str:
    """text with a '#' line and a blank line before, between and after its lines."""
    out = "# header comment\n\n"
    for ln in text.splitlines():
        out += f"{ln}\n   \n  # indented comment\n"
    return out + "\n#\n"


def _run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommentAndBlankLines:
    @pytest.mark.parametrize("command", [
        ["verify"], ["verify", "--json"], ["rank"], ["classify", "--json"],
        ["subbiracks"], ["poly"],
    ])
    def test_matrix_file(self, two_orbit_file, tmp_path, capsys, command):
        text = Path(two_orbit_file).read_text(encoding="utf-8")
        commented = tmp_path / "commented.txt"
        commented.write_text(_commented(text))
        argv = [command[0], two_orbit_file] + command[1:]
        plain = _run(argv, capsys)
        assert plain[0] == 0 and plain[1]
        assert _run([command[0], str(commented)] + command[1:], capsys) == plain

    def test_invariant_birack_file(self, two_orbit_file, tmp_path, capsys):
        commented = tmp_path / "commented.txt"
        commented.write_text(_commented(Path(two_orbit_file).read_text(encoding="utf-8")))
        rest = ["--gauss", HOPF, "--type", "rho", "--labelings"]
        plain = _run(["invariant", "--birack", two_orbit_file] + rest, capsys)
        assert plain[0] == 0
        assert _run(["invariant", "--birack", str(commented)] + rest, capsys) == plain

    def test_cayley_and_map_files(self, tmp_path, capsys):
        files = {
            "cayley": "4\n" + "\n".join(
                " ".join(str((a + c) % 4 + 1) for c in range(4)) for a in range(4)
            ) + "\n",
            "tau": "1 4 3 2\n",
            "sigma": "1 3\n1 3\n",
            "rho": "1 4 3 2\n",
        }
        outputs = []
        for variant, transform in (("plain", str), ("commented", _commented)):
            argv = ["make", "tsrho"]
            for key, text in files.items():
                path = tmp_path / f"{variant}_{key}.txt"
                path.write_text(transform(text))
                argv += [f"--{key}", str(path)]
            outputs.append(_run(argv, capsys))
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--labelings"]])
    def test_batch_file(self, two_element_file, tmp_path, capsys, extra):
        text = f"unknot\t\nhopf\t{HOPF}\ntrefoil\t{TREFOIL}\n"
        outputs = []
        for name, body in (("plain", text), ("commented", _commented(text))):
            path = tmp_path / f"{name}_links.txt"
            path.write_text(body)
            outputs.append(_run(["invariant", "--birack", two_element_file,
                                 "--batch", str(path), "--type", "image"] + extra,
                                capsys))
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[1] == outputs[0]

    def test_batch_tab_leading_line_keeps_empty_name(self, two_element_file,
                                                     tmp_path, capsys):
        path = tmp_path / "links.txt"
        path.write_text(f"# comment\n\n\t{HOPF}\n")
        assert main(["invariant", "--birack", two_element_file,
                     "--batch", str(path), "--type", "integral"]) == 0
        assert capsys.readouterr().out == "\tintegral\t4\n"

    def test_batch_line_without_tab_is_an_error(self, two_element_file,
                                                tmp_path, capsys):
        # read as a name with an empty code, it would count the unknot
        path = tmp_path / "links.txt"
        path.write_text(f"hopf\t{HOPF}\ntrefoil {TREFOIL}\n")
        code, out, err = _run(["invariant", "--birack", two_element_file,
                               "--batch", str(path), "--type", "integral"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: batch line 'trefoil {TREFOIL}' has no TAB after the name\n"


class TestOutOfRangeEntry:
    RANGE = (
        "4\n"
        "2 2 2 2 1 1 1 1\n"
        "1 1 1 1 2 2 2 2\n"
        "3 3 3 3 4 4 5 4\n"
        "4 4 4 4 3 3 3 3\n"
    )

    def test_verify_reports_entry_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "range.txt"
        path.write_text(self.RANGE)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entry 5 out of range 1..4\n"

    @pytest.mark.parametrize("argv", [
        ["rank", "{}"], ["classify", "{}"], ["classify", "{}", "--json"], ["subbiracks", "{}"],
        ["poly", "{}"], ["invariant", "--birack", "{}", "--gauss", "", "--type", "integral"],
    ])
    def test_birack_loader(self, tmp_path, capsys, argv):
        # every command but verify loads its birack through read_matrix_file
        path = tmp_path / "range.txt"
        path.write_text(self.RANGE)
        assert _run([a.format(path) for a in argv], capsys) == (
            1, "", "error: entry 5 out of range 1..4\n")

    def test_poly_subbirack_entry(self, tmp_path, capsys):
        path = tmp_path / "orbit4.txt"
        path.write_text(format_matrix(from_matrix(4, TWO_ORBIT_4_MATRIX)))
        code, out, err = _run(["poly", str(path), "--subbirack", "3,5"], capsys)
        assert (code, out, err) == (1, "", "error: entry 5 out of range 1..4\n")


class TestTableFileErrors:
    """make tsrho reports malformed Cayley and map files in one 1-indexed line."""

    Z2 = "2\n1 2\n2 1\n"

    @pytest.mark.parametrize("cayley, tau, err", [
        ("2\n1 x\n2 1\n", "1 2\n", "non-integer entry in row '1 x'"),
        ("0\n", "1 2\n", "element count must be positive"),
        ("2\n1 3\n2 1\n", "1 2\n", "entry 3 out of range 1..2"),
        ("# only a comment\n", "1 2\n", "empty Cayley table file"),
        ("2\n1 2\n", "1 2\n", "expected 2 Cayley table rows, found 1"),
        ("2\n1 2 1\n2 1\n", "1 2\n", "expected 2 entries per row, got 3"),
        (Z2, "1 3\n", "map file {tau}: entry 3 out of range 1..2"),
        (Z2, "1 x\n", "map file {tau}: non-integer entry in row '1 x'"),
        (Z2, "1\n", "map file {tau} must list 2 images"),
    ], ids=["cayley-non-integer", "cayley-count-0", "cayley-entry-range", "cayley-empty",
            "cayley-rows", "cayley-row-length", "map-entry-range", "map-non-integer",
            "map-count"])
    def test_one_line_error(self, tmp_path, capsys, cayley, tau, err):
        files = {"cayley": cayley, "tau": tau, "sigma": "1 2\n", "rho": "1 2\n"}
        argv = ["make", "tsrho"]
        for key, text in files.items():
            path = tmp_path / f"{key}.txt"
            path.write_text(text)
            argv += [f"--{key}", str(path)]
        expected = "error: " + err.format(tau=tmp_path / "tau.txt") + "\n"
        assert _run(argv, capsys) == (1, "", expected)


class TestNotUtf8:
    """A file that is not UTF-8 is refused in one line naming its kind and path."""

    BAD = b"2\n1 \xff 2 2\n2 2 1 1\n"

    @staticmethod
    def _error(noun, path) -> str:
        return f"error: {noun} file {path} is not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_matrix(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(self.BAD)
        for command in ("verify", "rank", "classify", "subbiracks", "poly"):
            assert _run([command, str(path)], capsys) == (
                1, "", self._error("matrix", path))

    def test_cayley(self, tmp_path, capsys):
        argv = ["make", "tsrho"]
        for key in ("cayley", "tau", "sigma", "rho"):
            path = tmp_path / key
            path.write_bytes(self.BAD if key == "cayley" else b"1 2\n")
            argv += [f"--{key}", str(path)]
        assert _run(argv, capsys) == (
            1, "", self._error("Cayley table", tmp_path / "cayley"))

    def test_map(self, tmp_path, capsys):
        argv = ["make", "tsrho"]
        files = {"cayley": b"2\n1 2\n2 1\n", "tau": b"1 2\n", "sigma": b"1 \xff\n", "rho": b"1 2\n"}
        for key, data in files.items():
            path = tmp_path / key
            path.write_bytes(data)
            argv += [f"--{key}", str(path)]
        assert _run(argv, capsys) == (1, "", self._error("map", tmp_path / "sigma"))

    def test_batch(self, two_element_file, tmp_path, capsys):
        path = tmp_path / "links.txt"
        path.write_bytes(b"unknot\t\nhopf\t\xff\n")
        assert _run(["invariant", "--birack", two_element_file, "--batch", str(path),
                     "--type", "integral"], capsys) == (1, "", self._error("batch", path))
