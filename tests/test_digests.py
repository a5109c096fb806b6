"""Canonical certificate bytes pinned across commits.

Each digest is the SHA-256 of the canonical JSON document, so any change to
the partition engine, the builders or the wire format that alters output
bytes fails here.  A deliberate change of output must re-pin these digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneser_minors
from kneser_minors import Params, build_coloring, build_minor, serialize
from kneser_minors.cli import main
from kneser_minors.minors import CaseTag


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The smallest instance (by C(n, k)) routed to each construction regime, and
# (50, 3): two-digit labels, written from label tables of 25-label halves.
MINOR_DIGESTS = {
    (7, 3): (CaseTag.S2_CASE1, "10718f4e00669e6003fd7a2c94cb3cbfad0fcf4c1f947a3b8733fc62bb439772"),
    (8, 3): (CaseTag.S2_CASE2, "8369e2e141a22e1488a2e63700838126f8acf146b28a2202f207d9a275d47c46"),
    (9, 3): (CaseTag.S3_CASE1, "627fadb400f0c4a74721cbba05b3621593f04c6921e23a4eadc677ce93fba94d"),
    (10, 3): (CaseTag.S3_CASE2, "d10a54dbd6f149ebf9b4b63d1f0522e008eb531e9492c7b275ab14fa5ab58f90"),
    (11, 3): (CaseTag.S3_CASE3, "539394461e58f9d89b379caef879840202a7d58ad5d19924b7a13fa1329b14ef"),
    (12, 3): (CaseTag.S4_K3, "ce0747225be957dfb189e00434d022030d7e44f7e46e3a1a5a6002173e346373"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "ac52bc49724468b634f40dd303f5b769d2034277c14c448d2687c71a35dc3d61"),
    (16, 4): (CaseTag.S4_KGE4, "3398b95e7b0b30c9a56458fbabae872d914cb578af0b5c0fdb80434bee385cbb"),
    (14, 3): (CaseTag.SPECIAL_14_3, "52595490fb79fc522a82cde57d124626595b0fe972201fd6b60291c0c85f912e"),
    (50, 3): (CaseTag.S4_K3, "464702521057963c55bbb7812936ede09a9d22b9a69e20988df99a7e885371be"),
}


def test_every_case_tag_is_pinned():
    assert {tag for tag, _ in MINOR_DIGESTS.values()} == set(CaseTag)


@pytest.mark.parametrize("n,k", sorted(MINOR_DIGESTS))
def test_minor_bytes(n, k):
    tag, want = MINOR_DIGESTS[(n, k)]
    cert = build_minor(Params(n, k))
    assert cert.trace[-1].case is tag
    assert digest(serialize.dumps_canonical(serialize.minor_to_dict(cert))) == want


def test_coloring_bytes():
    cert = build_coloring(Params(12, 4))
    assert (
        digest(serialize.dumps_canonical(serialize.coloring_to_dict(cert)))
        == "b727512777a395f618555ff79180092bfc55ec098c81031972749c99c6b4a196"
    )


def test_coloring_bytes_across_processes():
    # Fresh interpreters with different string-hash seeds print the digest
    # test_coloring_bytes pins: no set or dict order may reach the bytes.
    code = (
        "import hashlib\n"
        "from kneser_minors import Params, build_coloring, serialize\n"
        "text = serialize.dumps_canonical(serialize.coloring_to_dict(build_coloring(Params(12, 4))))\n"
        "print(hashlib.sha256(text.encode('utf-8')).hexdigest())\n"
    )
    src = str(Path(kneser_minors.__file__).resolve().parents[1])
    printed = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        printed.append((proc.returncode, proc.stdout))
    assert printed == [(0, "b727512777a395f618555ff79180092bfc55ec098c81031972749c99c6b4a196\n")] * 2


def test_sizes_partition_bytes(capsys, tmp_path):
    target = tmp_path / "part.json"
    code = main(["partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == "classes=4 PASS\n"
    assert (
        digest(target.read_text(encoding="utf-8"))
        == "0dd9d540bf5e0b43f46a96dbd05a8463c367428c7c8ee0dc3613a4f39c6dac90"
    )

