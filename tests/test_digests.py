"""Canonical certificate bytes pinned across commits.

Each digest is the SHA-256 of the canonical JSON document, so any change to
the partition engine, the builders or the wire format that alters output
bytes fails here.  A deliberate change of output must re-pin these digests.
"""

import hashlib

import pytest

from kneser_minors import Params, build_coloring, build_minor, serialize
from kneser_minors.cli import main
from kneser_minors.minors import CaseTag, route_case


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The smallest instance (by C(n, k)) routed to each construction regime.
MINOR_DIGESTS = {
    (7, 3): (CaseTag.S2_CASE1, "76505b55b8b6af0dbbb03eb97bab25a611beaba30f2d7f786a9a2c31ee31eed2"),
    (8, 3): (CaseTag.S2_CASE2, "a97133baae752e21aa4299c8b5064863aeabfd78e1e261c52f3ed6a0f76a90db"),
    (9, 3): (CaseTag.S3_CASE1, "e9878f02d45ab67697784ff048ec24c56acb8b3ee9b47335845b502f29e3bccd"),
    (10, 3): (CaseTag.S3_CASE2, "785b4f167a39aae3d5420934f45c378459a6b375e78c0d2783df49dc431daf30"),
    (11, 3): (CaseTag.S3_CASE3, "53ead3c31acf4ccdc7d43fc943afaf5b46090677030a84734dfe7fcdc0f82f3f"),
    (12, 3): (CaseTag.S4_K3, "68436983bc3c986e1ad3c1c74c1da298967df4f136cfcd9a4c6de407ab1317b2"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "c60660464ba81ff2e245449754fb14ca234f6cbcea7fa0f80e42ee5be516c3c6"),
    (16, 4): (CaseTag.S4_KGE4, "0582608623fcc3ac027f1065810ac01bde665380ed74c1a8dbf0b57a6d24face"),
    (14, 3): (CaseTag.SPECIAL_14_3, "47a0a3a1e4f40c9b29a33b36a1277d523249e37284332e8809bdee8b5dc60348"),
}


def test_every_case_tag_is_pinned():
    assert {tag for tag, _ in MINOR_DIGESTS.values()} == set(CaseTag)


@pytest.mark.parametrize("n,k", sorted(MINOR_DIGESTS))
def test_minor_bytes(n, k):
    tag, want = MINOR_DIGESTS[(n, k)]
    p = Params(n, k)
    assert route_case(p) is tag
    assert digest(serialize.dumps_canonical(serialize.minor_to_dict(build_minor(p)))) == want


def test_coloring_bytes():
    cert = build_coloring(Params(12, 4))
    assert (
        digest(serialize.dumps_canonical(serialize.coloring_to_dict(cert)))
        == "e700cb28f7061c9b96c4e78625f8059c16e8296a895b1ab29afb79826887fa02"
    )


def test_sizes_partition_bytes(capsys, tmp_path):
    target = tmp_path / "part.json"
    code = main(["partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == "classes=4 PASS\n"
    assert (
        digest(target.read_text(encoding="utf-8"))
        == "d988d82c4e4d1ddfd649f9680c7a5c5e7f631c651cde3173498907e0d0ec7a33"
    )

