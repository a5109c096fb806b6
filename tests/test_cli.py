import json
import os
import random
import subprocess
import sys

import pytest

from kneser_minors import (
    ParameterError,
    Params,
    PartitionPlan,
    almost_regular_partition,
    build_coloring,
    build_minor,
    serialize,
    verify_coloring,
    verify_minor,
    verify_partition,
)
from kneser_minors import cli
from kneser_minors.cli import main
from kneser_minors.minors import K3_TABLE_REFERENCE
from kneser_minors.serialize import coloring_to_dict, dumps_canonical
from oracles import dumps_canonical_reference, replaced


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The trace build_minor records for (64, 8), as minor_to_dict writes it.
TRACE_64_8 = [{"case": "S4_KGE4", "params": {"n": 64, "k": 8, "block_size": 5, "block_count": 880525903}}]


class TestChi:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--n", "12", "--k", "3")
        assert (code, out) == (0, "55\n")
        code, out, _ = run_cli(capsys, "chi", "--n", "14", "--k", "3")
        assert (code, out) == (0, "91\n")
        code, out, _ = run_cli(capsys, "chi", "--n", "7", "--k", "3")
        assert (code, out) == (0, "18\n")

    def test_out_of_scope(self, capsys):
        code, _, err = run_cli(capsys, "chi", "--n", "7", "--k", "2")
        assert code == 3
        assert "out of scope" in err

    def test_missing_flag(self, capsys):
        assert run_cli(capsys, "chi", "--n", "7")[0] == 2


class TestMinor:
    def test_11_3(self, capsys):
        code, out, _ = run_cli(capsys, "minor", "--n", "11", "--k", "3")
        assert code == 0
        assert out == "order=60 chi=55 PASS\n"

    def test_14_3(self, capsys):
        code, out, _ = run_cli(capsys, "minor", "--n", "14", "--k", "3")
        assert code == 0
        assert out == "order=107 chi=91 PASS\n"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["kind"] == "minor" and doc["claimed_order"] == 30

    def test_cap_refusal(self, capsys):
        code, _, err = run_cli(capsys, "minor", "--n", "20", "--k", "4", "--cap", "100")
        assert code == 4
        assert "cap" in err

    def test_rejected_certificate_prints_its_report(self, capsys, monkeypatch):
        # A verifier that sees a claimed order one above the block count.
        def claims_one_more(cert):
            return verify_minor(replaced(cert, claimed_order=cert.order + 1))

        monkeypatch.setattr(cli, "verify_minor", claims_one_more)
        code, out, _ = run_cli(capsys, "minor", "--n", "8", "--k", "3")
        lines = out.splitlines()
        assert code == 1
        assert lines[:-1] == [
            "PASS structure: 30 well-formed blocks",
            "PASS disjoint-blocks: no vertex is shared",
            "PASS block-connectivity: every block induces a connected subgraph",
            "PASS cross-edges: every pair of blocks is joined",
            "FAIL order-claim: 30 blocks, but certificate claims 31",
            "PASS witnesses-chi: order 30 >= chi = 28",
        ]
        assert lines[-1] == "order=30 chi=28 FAIL"


class TestVerifyCommand:
    def test_round_trip_pass(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        code, out, _ = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        doc = json.loads(target.read_text())
        # move a vertex between blocks: breaks pairwise disjointness
        doc["blocks"][0][0] = doc["blocks"][1][0]
        target.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert code == 1
        report = json.loads(out)
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "disjoint-blocks" in failed

    def test_trace_other_than_the_recorded_one_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        doc = json.loads(target.read_text())
        doc["trace"][0]["case"] = "S4_K3"
        doc["trace"][0]["params"]["block_count"] = 999
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert (code, out) == (2, "")
        assert err == "error: minor: not the trace build_minor records for (8, 3)\n"

    @pytest.mark.parametrize(
        "kind,document,parse",
        [
            ("minor", lambda: serialize.minor_to_dict(build_minor(Params(8, 3))), serialize.minor_from_dict),
            (
                "coloring",
                lambda: serialize.coloring_to_dict(build_coloring(Params(7, 3))),
                serialize.coloring_from_dict,
            ),
            (
                "partition",
                lambda: serialize.partition_to_dict(almost_regular_partition(PartitionPlan((1, 4), 2, (2, 2, 2)))),
                serialize.partition_from_dict,
            ),
        ],
    )
    def test_another_format_version_is_a_usage_error(self, capsys, tmp_path, kind, document, parse):
        doc = document()
        doc["version"] = 2
        with pytest.raises(ParameterError) as caught:
            parse(doc)
        assert str(caught.value) == f"{kind}: unsupported version 2"
        target = tmp_path / f"{kind}.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--kind", kind, "--in", str(target))
        assert (code, out, err) == (2, "", f"error: {kind}: unsupported version 2\n")

    def test_wrong_kind_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        code, _, err = run_cli(capsys, "verify", "--kind", "coloring", "--in", str(target))
        assert code == 2
        assert "coloring" in err

    def test_partition_verify(self, capsys, tmp_path):
        target = tmp_path / "part.json"
        run_cli(capsys, "partition", "--n", "9", "--k", "3", "--block-size", "3", "--out", str(target))
        code, out, _ = run_cli(capsys, "verify", "--kind", "partition", "--in", str(target))
        assert code == 0

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--kind", "minor", "--in", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b"[" * 100000])
    def test_undecodable_file(self, capsys, tmp_path, raw):
        target = tmp_path / "cert.json"
        target.write_bytes(raw)
        code, out, err = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert (code, out) == (2, "")
        assert "cannot read" in err

    def test_mixed_type_labels(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))
        doc = json.loads(target.read_text())
        doc["blocks"][0][0] = ["a", 1, 2]
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert (code, out) == (2, "")
        assert "blocks[0][0]" in err and "not an integer" in err

    def test_boolean_ground_bound(self, capsys, tmp_path):
        target = tmp_path / "part.json"
        run_cli(capsys, "partition", "--n", "4", "--k", "2", "--block-size", "2", "--out", str(target))
        doc = json.loads(target.read_text())
        doc["ground"] = [True, 4]
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--kind", "partition", "--in", str(target))
        assert (code, out) == (2, "")
        assert "ground" in err

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            # Without the bool check, [true, 2, 3] reads as [1, 2, 3], block 0's member, and the file verifies.
            ("minor", lambda d: d["blocks"][0].__setitem__(0, [True, 2, 3]), "blocks[0][0]: label True is not an integer"),
            ("minor", lambda d: d["blocks"][0].__setitem__(0, []), "blocks[0][0]: expected a nonempty label array"),
            ("minor", lambda d: d.__setitem__("n", True), "minor: field 'n' must be an integer"),
            ("minor", lambda d: d.__setitem__("n", "8"), "minor: field 'n' must be an integer"),
            ("minor", lambda d: d.update(coloring_to_dict(build_coloring(Params(8, 3)))),
             "expected a minor certificate, found kind = 'coloring'"),
            # A true in place of a 1 reads as 1, so without the bool checks these files verify.
            ("partition", lambda d: d.__setitem__("ground", [True, 4]), "partition: ground must be [lo, hi]"),
            ("partition", lambda d: d["ground"].append(4), "partition: ground must be [lo, hi]"),
            ("partition", lambda d: d["sizes"].__setitem__(0, True), "partition: sizes must be integers"),
        ],
        ids=["label-true", "empty-label-array", "n-true", "n-string", "coloring-as-minor", "ground-true", "ground-of-three",
             "sizes-true"],
    )
    def test_a_malformed_field_is_a_usage_error(self, capsys, tmp_path, kind, edit, message):
        if kind == "minor":
            doc = serialize.minor_to_dict(build_minor(Params(8, 3)))
        else:
            doc = serialize.partition_to_dict(almost_regular_partition(PartitionPlan((1, 4), 2, (1, 2, 3))))
        edit(doc)
        target = tmp_path / f"{kind}.json"
        target.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", "--kind", kind, "--in", str(target)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "kind,doc",
        [
            ("coloring", {"version": 1, "kind": "coloring", "n": 64, "k": 32, "classes": [[list(range(1, 33))]]}),
            (
                "partition",
                {"version": 1, "ground": [1, 64], "k": 32, "sizes": [1832624140942590534],
                 "classes": [[list(range(1, 33))]]},
            ),
        ],
    )
    def test_one_member_of_a_huge_family(self, capsys, tmp_path, kind, doc):
        # C(64, 32) k-subsets: the member count must fail the file before any
        # attempt to enumerate the family.
        target = tmp_path / "tiny.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--kind", kind, "--in", str(target))
        assert code == 1
        failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["pass"]}
        check = "partition" if kind == "coloring" else "disjoint-union"
        assert failed[check] == "1 members, expected 1832624140942590534"

    def test_member_below_a_shifted_ground(self, capsys, tmp_path):
        doc = {"version": 1, "ground": [3, 8], "k": 2, "sizes": [3, 3, 3, 3, 3],
               "classes": [[[3, 4], [5, 6], [7, 8]]] * 4 + [[[3, 4], [5, 6], [1, 8]]]}
        target = tmp_path / "part.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--kind", "partition", "--in", str(target))
        assert code == 1
        checks = json.loads(out)["checks"]
        assert checks[0] == {"name": "structure", "pass": False, "detail": "class 4 member 2 has labels outside [3, 8]"}
        assert [(c["name"], c["detail"]) for c in checks[1:]] == [
            (name, "skipped: structural errors") for name in ("sizes", "disjoint-union", "degree-spread")
        ]

    @pytest.mark.parametrize("connected", [True, False])
    def test_one_block_of_4000_members(self, capsys, tmp_path, connected):
        # Distinct random 8-subsets of [1, 64], or of [1, 56] with the
        # member [57..64] placed at index 2000, where nothing reaches it.
        rng = random.Random(4000)
        top = 64 if connected else 56
        members = {}
        while len(members) < (4000 if connected else 3999):
            members[tuple(sorted(rng.sample(range(1, top + 1), 8)))] = None
        block = [list(m) for m in members]
        if not connected:
            block.insert(2000, list(range(57, 65)))
        target = tmp_path / "block.json"
        target.write_text(json.dumps(
            {"version": 1, "kind": "minor", "n": 64, "k": 8, "blocks": [block], "trace": TRACE_64_8, "claimed_order": 1}
        ))
        code, out, _ = run_cli(capsys, "verify", "--kind", "minor", "--in", str(target))
        assert code == 1  # one block is far below chi(64, 8)
        check = {c["name"]: c for c in json.loads(out)["checks"]}["block-connectivity"]
        if connected:
            assert check["pass"] is True
        else:
            start = "[" + ",".join(map(str, block[0])) + "]"
            assert check == {
                "name": "block-connectivity", "pass": False,
                "detail": f"block 0 is disconnected: member [57,58,59,60,61,62,63,64] is unreachable from {start}",
            }

    @pytest.mark.parametrize("kind", ["minor", "coloring", "partition"])
    def test_indented_files_verify_like_their_flat_twins(self, capsys, tmp_path, kind):
        flat, indented = tmp_path / "flat.json", tmp_path / "indented.json"
        if kind == "minor":
            run_cli(capsys, "minor", "--n", "14", "--k", "3", "--out", str(flat))
        elif kind == "coloring":
            flat.write_text(dumps_canonical(coloring_to_dict(build_coloring(Params(9, 3)))))
        else:
            run_cli(capsys, "partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(flat))
        document = json.loads(flat.read_text())
        indented.write_text(dumps_canonical_reference(document))
        assert flat.read_text().count("\n") == 1 and indented.read_text().startswith("{\n  ")
        reports = [run_cli(capsys, "verify", "--kind", kind, "--in", str(path)) for path in (flat, indented)]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and json.loads(reports[0][1])["pass"] is True

    @pytest.mark.parametrize("kind", ["minor", "coloring", "partition"])
    def test_cap_on_the_member_count(self, capsys, tmp_path, monkeypatch, kind):
        target = tmp_path / "cert.json"
        if kind == "minor":
            run_cli(capsys, "minor", "--n", "9", "--k", "3", "--out", str(target))
        elif kind == "coloring":
            target.write_text(dumps_canonical(coloring_to_dict(build_coloring(Params(9, 3)))))
        else:
            run_cli(capsys, "partition", "--n", "9", "--k", "3", "--block-size", "3", "--out", str(target))
        document = json.loads(target.read_text())
        members = sum(map(len, document["blocks" if kind == "minor" else "classes"]))
        argv = ("verify", "--kind", kind, "--in", str(target))
        today = run_cli(capsys, *argv)
        assert today[0] == 0
        refused = (4, "", f"resource cap: {members} hyperedges, above the cap of {members - 1}\n")
        assert run_cli(capsys, *argv, "--cap", str(members - 1)) == refused
        assert run_cli(capsys, *argv, "--cap", str(members)) == today
        monkeypatch.setenv("KMF_CAP", str(members - 1))
        assert run_cli(capsys, *argv) == refused
        assert run_cli(capsys, *argv, "--cap", str(members)) == today

    def test_default_cap_comes_before_any_label_is_read(self, capsys, tmp_path):
        target = tmp_path / "big.json"
        target.write_text(json.dumps({"version": 1, "kind": "coloring", "n": 64, "k": 2, "classes": [[["x"]] * 20001]}))
        code, out, err = run_cli(capsys, "verify", "--kind", "coloring", "--in", str(target))
        assert (code, out, err) == (4, "", "resource cap: 20001 hyperedges, above the cap of 20000\n")
        code, out, err = run_cli(capsys, "verify", "--kind", "coloring", "--in", str(target), "--cap", "20001")
        assert (code, out) == (2, "")
        assert "classes[0][0]" in err

    def test_construction_error_is_internal(self, capsys, monkeypatch):
        import kneser_minors.cli as cli
        from kneser_minors.errors import ConstructionError

        def broken(p, cap=None):
            raise ConstructionError("injected")

        monkeypatch.setattr(cli, "build_minor", broken)
        code, out, err = run_cli(capsys, "minor", "--n", "8", "--k", "3")
        assert (code, out) == (5, "")
        assert "internal error: injected" in err


@pytest.mark.parametrize(
    "argv", [["minor", "--n", "9", "--k", "3"], ["partition", "--n", "9", "--k", "3", "--block-size", "3"]]
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target):
    out = tmp_path / "absent" / "m.json" if target == "missing-directory" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err and "PASS" not in stdout


class TestPartitionCommand:
    def test_28_triples(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--n", "9", "--k", "3", "--block-size", "3")
        assert code == 0
        assert out == "classes=28 PASS\n"

    def test_k4_matchings(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--n", "4", "--k", "2", "--block-size", "2")
        assert code == 0
        assert out == "classes=3 PASS\n"

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--n", "4", "--k", "2", "--sizes", "2,2")
        assert code == 2
        assert "sizes" in err
        code, _, err = run_cli(capsys, "partition", "--n", "4", "--k", "2", "--sizes", "2,x")
        assert code == 2
        assert "cannot parse sizes" in err

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_a_block_size_below_one_is_a_usage_error(self, capsys, size):
        assert run_cli(capsys, "partition", "--n", "4", "--k", "2", "--block-size", size) == (
            2, "", "error: total and block_size must be positive\n"
        )

    def test_rejected_partition_prints_its_report(self, capsys, monkeypatch):
        # A verifier that sees the last class dropped.
        def last_class_dropped(part):
            return verify_partition(replaced(part, classes=part.classes[:-1]))

        monkeypatch.setattr(cli, "verify_partition", last_class_dropped)
        code, out, _ = run_cli(capsys, "partition", "--n", "4", "--k", "2", "--block-size", "2")
        assert code == 1
        assert out.splitlines() == [
            "PASS structure: 2 well-formed classes",
            "FAIL sizes: class sizes (2, 2) != plan (2, 2, 2)",
            "FAIL disjoint-union: 4 members, expected 6",
            "PASS degree-spread: every class has degree spread <= 1",
        ]

    def test_huge_family_is_refused_before_counting_it(self):
        # C(2000000, 1000000) has about 600000 digits; the 64-bit range check
        # must not compute it first.
        proc = subprocess.run(
            [sys.executable, "-m", "kneser_minors", "partition", "--n", "2000000", "--k", "1000000", "--block-size", "3"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 3
        assert "64-bit range" in proc.stderr

    def test_cap_comes_before_the_size_vector(self, capsys):
        # C(64, 32) / 2 classes of size 2: the size vector alone cannot be allocated.
        assert run_cli(capsys, "partition", "--n", "64", "--k", "32", "--block-size", "2") == (
            4, "", "resource cap: 1832624140942590534 hyperedges, above the cap of 20000\n"
        )

    @pytest.mark.parametrize("n", ["65", "100"])
    def test_label_cap_is_out_of_scope_as_for_minor(self, capsys, n):
        want = f"out of scope: n = {n} exceeds the 64-label representation cap\n"
        for argv in (["partition", "--n", n, "--k", "3", "--block-size", "3"], ["minor", "--n", n, "--k", "3"]):
            assert run_cli(capsys, *argv) == (3, "", want)

    def test_verify_ground_past_the_label_cap_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "part.json"
        doc = {"version": 1, "ground": [1, 65], "k": 3, "sizes": [1], "classes": [[[1, 2, 3]]]}
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--kind", "partition", "--in", str(target))
        assert (code, out) == (2, "")
        assert "ground" in err


class TestTableCommand:
    def test_full_range_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "MISMATCH" not in out
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 24

    def test_single_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-min", "19", "--n-max", "19")
        assert code == 0
        assert " 19   5    168" in out
        code, out, _ = run_cli(capsys, "table", "--n-min", "35", "--n-max", "35")
        assert "619" in out

    def test_range_check(self, capsys):
        assert run_cli(capsys, "table", "--n-min", "5", "--n-max", "20")[0] == 2

    @pytest.mark.parametrize("n_min,n_max", [("20", "15"), ("12", "36")])
    def test_a_reversed_or_too_wide_range_is_a_usage_error(self, capsys, n_min, n_max):
        assert run_cli(capsys, "table", "--n-min", n_min, "--n-max", n_max) == (
            2, "", f"error: table range [{n_min}, {n_max}] outside [12, 35]\n"
        )

    def test_mismatching_reference_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "K3_TABLE_REFERENCE", {**K3_TABLE_REFERENCE, 19: (6, 168, None, 162)})
        code, out, _ = run_cli(capsys, "table")
        lines = out.splitlines()
        assert code == 1
        assert [line for line in lines if "MISMATCH" in line] == [
            " 19   5    168    160   162  MISMATCH: l != reference 6"
        ]
        assert lines[-1] == "1 row(s) disagree with the reference table"


class TestGridCommand:
    def test_tiny_grid(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--k", "3", "--cap", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k=3 n=7 ")
        assert lines[-1] == "grid: 3 instance(s), 3 passed"
        assert {line.split()[1] for line in lines[:-1]} == {"n=7", "n=8", "n=9"}

    @pytest.mark.parametrize("k", ["2", "32"])
    def test_k2_out_of_scope(self, capsys, k):
        code, _, err = run_cli(capsys, "grid", "--k", k, "--cap", "100")
        assert code == 3
        assert f"k = {k}" in err

    def test_bad_k_list(self, capsys):
        assert run_cli(capsys, "grid", "--k", "three", "--cap", "100")[0] == 2

    @pytest.mark.parametrize("failing", ["minor", "coloring"])
    def test_an_instance_fails_when_either_verifier_fails(self, capsys, monkeypatch, failing):
        # The verifier of one kind sees the (8, 3) certificate with its last block or class dropped.
        def dropped(verify, field):
            def verify_dropped(cert):
                if cert.n == 8:
                    cert = replaced(cert, **{field: getattr(cert, field)[:-1]})
                return verify(cert)
            return verify_dropped

        if failing == "minor":
            monkeypatch.setattr(cli, "verify_minor", dropped(verify_minor, "blocks"))
        else:
            monkeypatch.setattr(cli, "verify_coloring", dropped(verify_coloring, "classes"))
        code, out, _ = run_cli(capsys, "grid", "--k", "3", "--cap", "100")
        lines = out.splitlines()
        assert code == 1
        assert lines[1] == f"k=3 n=8 order=30 chi=28 minor={'FAIL' if failing == 'minor' else 'PASS'} " + (
            f"coloring={'FAIL' if failing == 'coloring' else 'PASS'}"
        )
        assert lines[-1] == "grid: 3 instance(s), 2 passed"


class TestDeterminism:
    def test_minor_bytes_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "minor", "--n", "11", "--k", "3", "--out", str(a))
        run_cli(capsys, "minor", "--n", "11", "--k", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kneser_minors", "chi", "--n", "12", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "55\n"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_quietly(capsys, tmp_path, unbuffered):
    # The pipe's read end is closed before the child starts, so its first
    # write or flush fails whatever the timing; PYTHONUNBUFFERED moves that
    # failure from the final flush to the first print.
    target = tmp_path / "minor.json"
    assert run_cli(capsys, "minor", "--n", "8", "--k", "3", "--out", str(target))[0] == 0
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["grid", "--k", "3", "--cap", "200"], ["verify", "--kind", "minor", "--in", str(target)]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kneser_minors", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), argv


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("KMF_CAP", "50")
    code, _, err = run_cli(capsys, "minor", "--n", "9", "--k", "3")
    assert code == 4
    monkeypatch.setenv("KMF_CAP", "not-a-number")
    assert run_cli(capsys, "minor", "--n", "9", "--k", "3")[0] == 2


def test_a_cap_of_one_is_accepted(capsys, tmp_path, monkeypatch):
    # 1 is the least cap allowed: verify reads it and refuses the file's 3
    # members on the cap (exit 4), not as a usage error (exit 2).
    target = tmp_path / "minor.json"
    document = {"version": 1, "kind": "minor", "n": 7, "k": 3, "blocks": [[[1, 2, 3]], [[1, 4, 5], [2, 4, 6]]]}
    target.write_text(json.dumps(document))
    refused = (4, "", "resource cap: 3 hyperedges, above the cap of 1\n")
    argv = ("verify", "--kind", "minor", "--in", str(target))
    assert run_cli(capsys, *argv, "--cap", "1") == refused
    monkeypatch.setenv("KMF_CAP", "1")
    assert run_cli(capsys, *argv) == refused


@pytest.mark.parametrize(
    "argv",
    [
        ["minor", "--n", "8", "--k", "3"],
        ["partition", "--n", "9", "--k", "3", "--block-size", "3"],
        ["grid", "--k", "3"],
        ["verify", "--kind", "minor", "--in", "absent.json"],
    ],
)
@pytest.mark.parametrize("cap", ["-5", "0"])
def test_cap_below_one_is_a_usage_error(capsys, monkeypatch, argv, cap):
    code, out, err = run_cli(capsys, *argv, "--cap", cap)
    assert (code, out) == (2, "")
    assert f"--cap must be positive, got {cap}" in err
    monkeypatch.setenv("KMF_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"KMF_CAP must be positive, got {cap}" in err
