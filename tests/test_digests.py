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
    (7, 3): (CaseTag.S2_CASE1, "82ca879efabf0ba3b1f0695703308965ce44f6eaeed23148d6af009f4760bb5d"),
    (8, 3): (CaseTag.S2_CASE2, "b06ea5d2a58daeacbcdeeb57f53060b99f9ac088fa5a299e0d92d3eb766f8ee8"),
    (9, 3): (CaseTag.S3_CASE1, "01e8523839c5e6788357e087e275cc34a0f82fce5e90ce89bf6adeb9a4eb83c4"),
    (10, 3): (CaseTag.S3_CASE2, "52996c868b9bd5078a3e2d67cbb04c9f4675734bcfaac972230aec48ab28f2c5"),
    (11, 3): (CaseTag.S3_CASE3, "fe86ff5550f2d30c5f06f4bd213f23a74802a525dbfb4554db1d181b3fca288d"),
    (12, 3): (CaseTag.S4_K3, "fd4c587da4144bf62d1499043a46238c09a943cda74407f0d42c3d30f7e30a6f"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "44b7a529a8cef63d01cc2c4b1e9712db1f927c8ea042956c05f9e75da99f765c"),
    (16, 4): (CaseTag.S4_KGE4, "3398b95e7b0b30c9a56458fbabae872d914cb578af0b5c0fdb80434bee385cbb"),
    (14, 3): (CaseTag.SPECIAL_14_3, "29a1a6f0969c33c936e98de592ac33de3dfd884909fa65058241f489c8b1a758"),
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

