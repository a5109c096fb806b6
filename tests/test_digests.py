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
from kneser_minors.minors import CaseTag, route_case


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The smallest instance (by C(n, k)) routed to each construction regime.
MINOR_DIGESTS = {
    (7, 3): (CaseTag.S2_CASE1, "76505b55b8b6af0dbbb03eb97bab25a611beaba30f2d7f786a9a2c31ee31eed2"),
    (8, 3): (CaseTag.S2_CASE2, "a97133baae752e21aa4299c8b5064863aeabfd78e1e261c52f3ed6a0f76a90db"),
    (9, 3): (CaseTag.S3_CASE1, "492e2d374257677d63c3385f9baa85f91444b8bff7ea3b7fcbd47423f2fdee0e"),
    (10, 3): (CaseTag.S3_CASE2, "7707428887b525f0e4f7c418301acc3de481167d7569d0d692a22e74e3bf5116"),
    (11, 3): (CaseTag.S3_CASE3, "17de1c82b918a94bc8a23d7840c24f7ae6d29b0a45d589f1bf3eefca59d1658c"),
    (12, 3): (CaseTag.S4_K3, "4540e453679b3d929fb23dd6d4b2f65edae784bb422896fe2f581d199258de74"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "9282f33ad0609bc9a63110a8efc50a8f75f6ae7c07dacbd2e4f12019568bbe6d"),
    (16, 4): (CaseTag.S4_KGE4, "a5cf278e1be14537caa5ad98aa52dcf58e9e5e39b98ee6f9aee4ff87a7c2e945"),
    (14, 3): (CaseTag.SPECIAL_14_3, "1a82017d45d1b5be966833e2b6b8054536fa5614b126b51409500fac5dcd53a3"),
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
        == "4a39749317dc91b602fc51d2a67af9b06f205273af6bd64d91e47eb9f421050d"
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
    assert printed == [(0, "4a39749317dc91b602fc51d2a67af9b06f205273af6bd64d91e47eb9f421050d\n")] * 2


def test_sizes_partition_bytes(capsys, tmp_path):
    target = tmp_path / "part.json"
    code = main(["partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == "classes=4 PASS\n"
    assert (
        digest(target.read_text(encoding="utf-8"))
        == "d988d82c4e4d1ddfd649f9680c7a5c5e7f631c651cde3173498907e0d0ec7a33"
    )

