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
    (8, 3): (CaseTag.S2_CASE2, "3baca453c16540b7847a6c3a23fa187680a73d65e40bb6c2f01c594260083c2e"),
    (9, 3): (CaseTag.S3_CASE1, "d0a7beb5c6089a9327f733dbe6b4436d5ee19af45db509d8f4bec5111eda604d"),
    (10, 3): (CaseTag.S3_CASE2, "1a7a849d7f2ba398457bf7efcc59f03e059250fe84dfe6dfde771610e96f51c7"),
    (11, 3): (CaseTag.S3_CASE3, "0695114014ae9ebc0c0532e640b472ab53193b2c4c73298b8e945f02135e1d01"),
    (12, 3): (CaseTag.S4_K3, "cf2fcfcf44100c990dbd1ea6d63d0f2da82261ee02bb98dceff0c32b97807799"),
    (18, 3): (CaseTag.S4_K3_SHIFT, "178dd88c38c6b21c05e7c7b3d0cf8d27dee2bf29389782d4cf5721cf4042a4f4"),
    (16, 4): (CaseTag.S4_KGE4, "fc813a4377309c9bfbd08442f29d7afb46a0ed4029b9726915f32cd0e8ae94c2"),
    (14, 3): (CaseTag.SPECIAL_14_3, "d18bf3718283eb5ddf59f44b09489256a446eadb44f00214823c504fe9eeff43"),
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
        == "583114d14c26e45375b6f31cceb9970da78902d54dc4a5cb04cb34a64b106d6c"
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
    assert printed == [(0, "583114d14c26e45375b6f31cceb9970da78902d54dc4a5cb04cb34a64b106d6c\n")] * 2


def test_sizes_partition_bytes(capsys, tmp_path):
    target = tmp_path / "part.json"
    code = main(["partition", "--n", "9", "--k", "3", "--sizes", "10,20,30,24", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == "classes=4 PASS\n"
    assert (
        digest(target.read_text(encoding="utf-8"))
        == "5168bb1668b2983355d3c47357521ea189c4cd04836917d5f7036af19e9277b6"
    )

