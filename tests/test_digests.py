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
    (7, 3): (CaseTag.S2_CASE1, "5cb2ab8068b62bad4da8d7c3bcf15c1c52fc3f5325c57d7fc1f930b93d0fa996"),
    (8, 3): (CaseTag.S2_CASE2, "0582cb0e0c8c1e9a4cb090502e58b086fe9853963230604ac0e99b4530faadaa"),
    (9, 3): (CaseTag.S3_CASE1, "d9131257b6464c031d7512d692b41e8d666f8617c33c1d90dfb95b066bdcbe33"),
    (10, 3): (CaseTag.S3_CASE2, "cf5aa58f62edea5f05199e01114a8b61f6889ea7783851d1ca9b81de8faa5d1f"),
    (11, 3): (CaseTag.S3_CASE3, "4e27c9706fd8576ad6af3144f5e83e86b6e1d2bd22bf76f40d4e1570f9fbbf14"),
    (12, 3): (CaseTag.S4_K3, "de3b0dddd5d252d3489946fa4697cb96d91918f0de8fadbf82620ffbc8319944"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "8d224642e0b6b61e6b0eaee465c680b645c5bff2fa13ca9538340d635b5ff42f"),
    (16, 4): (CaseTag.S4_KGE4, "b5e5d2b51d4efe6d803c3e7917bd5cb411c5b0215e25a8712d47bc025a865532"),
    (14, 3): (CaseTag.SPECIAL_14_3, "50d33d203575e3f9eee09af404939abd04b7291086be15da52ba22dc45e8229a"),
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
        == "4a3680aa8d6d9901de2e6cec510ab4c607b32ba24e7e7cf579c159bc7f2c429d"
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
    assert printed == [(0, "4a3680aa8d6d9901de2e6cec510ab4c607b32ba24e7e7cf579c159bc7f2c429d\n")] * 2


def test_sizes_partition_bytes(capsys, tmp_path):
    target = tmp_path / "part.json"
    code = main(["partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == "classes=4 PASS\n"
    assert (
        digest(target.read_text(encoding="utf-8"))
        == "1a7f6a093b13d46fef167108eef914da319c580c130f4797ef814bdff24ab0a5"
    )

