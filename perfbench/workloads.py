"""The benchmark's workloads: their instances, per-op work and correctness gate.

Every op builds or reads a certificate, has it checked by the independent
verifier, and yields the SHA-256 of its canonical bytes.  An op that raises,
or whose output fails a check, is a failed op: it costs time but adds no
verified work, so a defect that fails fast can never read as a speed-up.

The package is imported from the checkout's ``src/`` by ``run.py`` before this
module; package functions are looked up on their module at call time so that
the traced run's patches reach them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import kneser_minors as km
from kneser_minors import serialize

# The builders' default hyperedge cap; the benchmark never raises it.
CAP = 20000
SWEEP_K = (3, 4, 5, 6)
# Tiny grids for the self-test: every op finishes in milliseconds.
TINY_CAP = 130
TINY_K = (3, 4)

@dataclass(frozen=True)
class Op:
    kind: str  # "minor", "coloring" or "file"
    n: int
    k: int
    path: str | None = None
    tampered: bool = False

    @property
    def label(self) -> str:
        twin = "-twin" if self.tampered else ""
        return f"{self.kind}({self.n},{self.k}){twin}"

    @property
    def ksets(self) -> int:
        return km.binomial(self.n, self.k)


@dataclass(frozen=True)
class Outcome:
    op: Op
    digest: str | None
    error: str | None = None  # exception type, or the check that failed
    wrong: bool = False  # the op finished but its output failed a check
    wrong_verdict: bool = False  # the verifier's verdict was not the known one

    @property
    def ok(self) -> bool:
        return self.error is None


class WrongOutput(Exception):
    """An op finished, but its output failed a correctness check."""


class WrongVerdict(WrongOutput):
    """The verifier's verdict disagrees with the verdict known for the input."""


def instances(workload: str, tiny: bool = False) -> list[km.Params]:
    k_values, cap = (TINY_K, TINY_CAP) if tiny else (SWEEP_K, CAP)
    grid = km.params_grid(k_values, cap)
    if workload == "minor-sweep":
        return grid
    # Largest n per k under the cap; params_grid is (k, n) ascending.
    largest = {p.k: p for p in grid}
    return list(largest.values())


def _file_names(p: km.Params) -> tuple[str, str]:
    return f"minor-{p.n}-{p.k}.json", f"minor-{p.n}-{p.k}-twin.json"


def prepare(workload: str, seed: int, files: Path, tiny: bool = False) -> None:
    """Set-up beyond the import: verify-files writes its certificate files.

    Each twin has one member of block b replaced by a member of block a, so
    its only defect is a vertex shared by two blocks; the seed picks a, b and
    the two members.
    """
    if workload != "verify-files":
        return
    rng = random.Random(f"tamper-{seed}")
    for p in instances(workload, tiny):
        document = serialize.minor_to_dict(km.build_minor(p))
        original, twin = _file_names(p)
        (files / original).write_text(serialize.dumps_canonical(document), encoding="utf-8")
        blocks = document["blocks"]
        a, b = rng.sample(range(len(blocks)), 2)
        blocks[b][rng.randrange(len(blocks[b]))] = blocks[a][rng.randrange(len(blocks[a]))]
        (files / twin).write_text(serialize.dumps_canonical(document), encoding="utf-8")


def make_ops(workload: str, seed: int, files: Path, tiny: bool = False) -> list[Op]:
    """The op list of one pass, in the order the seed picks."""
    ops = []
    for p in instances(workload, tiny):
        if workload == "minor-sweep":
            ops.append(Op("minor", p.n, p.k))
        elif workload == "coloring-large":
            ops.append(Op("coloring", p.n, p.k))
        else:
            original, twin = _file_names(p)
            ops.append(Op("file", p.n, p.k, str(files / original)))
            ops.append(Op("file", p.n, p.k, str(files / twin), tampered=True))
    random.Random(seed).shuffle(ops)
    return ops


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failed_checks(report: km.VerificationReport) -> str:
    return ",".join(c.name for c in report.checks if not c.passed)


def run_minor(op: Op) -> str:
    cert = km.build_minor(km.Params(op.n, op.k))
    report = km.verify_minor(cert)
    if not report.passed:
        raise WrongVerdict(f"verifier rejects the built minor: {_failed_checks(report)}")
    chi = km.chi_of(op.n, op.k)
    if cert.order < chi:
        raise WrongOutput(f"order {cert.order} is below chi = {chi}")
    return _sha(serialize.dumps_canonical(serialize.minor_to_dict(cert)))


def run_coloring(op: Op) -> str:
    cert = km.build_coloring(km.Params(op.n, op.k))
    report = km.verify_coloring(cert)
    if not report.passed:
        raise WrongVerdict(f"verifier rejects the built coloring: {_failed_checks(report)}")
    chi = km.chi_of(op.n, op.k)
    if len(cert.classes) != chi:
        raise WrongOutput(f"{len(cert.classes)} classes, chi = {chi}")
    return _sha(serialize.dumps_canonical(serialize.coloring_to_dict(cert)))


def check_file_verdict(op: Op, passed: bool, checks: dict[str, bool]) -> None:
    """Originals must pass; twins must fail, with disjoint-blocks among the failures."""
    if op.tampered and (passed or checks.get("disjoint-blocks", True)):
        raise WrongVerdict("tampered certificate not rejected on disjoint-blocks")
    if not op.tampered and not passed:
        failed = ",".join(name for name, ok in checks.items() if not ok)
        raise WrongVerdict(f"valid certificate rejected: {failed}")


class FileVerifier:
    """Runs ``kneser-minors verify --kind minor --in F`` as one process per op."""

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_rss_kib = 0

    def __call__(self, op: Op) -> str | None:
        argv = [sys.executable, "-m", "kneser_minors", "verify", "--kind", "minor", "--in", op.path]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            # wait4 reaps the child and gives its own peak RSS, unmixed with other children.
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if proc.returncode not in (0, 1):
            raise WrongVerdict(f"verify exited with {proc.returncode}")
        report = json.loads(out)
        checks = {c["name"]: c["pass"] for c in report["checks"]}
        if report["pass"] != (proc.returncode == 0):
            raise WrongVerdict("exit code disagrees with the report")
        check_file_verdict(op, report["pass"], checks)
        return None if op.tampered else hashlib.sha256(Path(op.path).read_bytes() + out).hexdigest()


def replay_file(op: Op) -> None:
    """The CLI's read path in-process: read, parse and verify one file."""
    cert = serialize.minor_from_dict(serialize.read_document(op.path))
    report = km.verify_minor(cert)
    check_file_verdict(op, report.passed, {c.name: c.passed for c in report.checks})


def actor(workload: str, src: Path) -> Callable[[Op], str | None]:
    if workload == "minor-sweep":
        return run_minor
    if workload == "coloring-large":
        return run_coloring
    return FileVerifier(src)


def run_op(op: Op, act: Callable[[Op], str | None]) -> Outcome:
    try:
        return Outcome(op, act(op))
    except WrongOutput as exc:
        error = f"{type(exc).__name__}: {exc}"
        return Outcome(op, None, error, wrong=True, wrong_verdict=isinstance(exc, WrongVerdict))
    except Exception as exc:  # an op that crashes is a failed op; the run goes on
        return Outcome(op, None, type(exc).__name__)


def measure(
    ops: list[Op],
    act: Callable[[Op], str | None],
    seconds: float,
    after_op: Callable[[], None] | None = None,
) -> tuple[list[Outcome], float]:
    """Run whole passes over ops until at least ``seconds`` have passed.

    Whole passes keep the input fixed whatever the machine's speed.  An op
    whose bytes differ from its bytes in an earlier pass fails.
    """
    outcomes: list[Outcome] = []
    first: dict[str, str] = {}
    start = perf_counter()
    while True:
        for op in ops:
            outcome = run_op(op, act)
            if outcome.digest is not None and first.setdefault(op.label, outcome.digest) != outcome.digest:
                outcome = replace(outcome, digest=None, error="WrongOutput: bytes differ between passes", wrong=True)
            outcomes.append(outcome)
            if after_op is not None:
                after_op()
        wall = perf_counter() - start
        if wall >= seconds:
            return outcomes, wall


def workload_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over every op's canonical bytes, in label order.

    Failed ops enter as their error type, so a fix shows as changed bytes.
    Twins are left out: their reports name the seed's tamper position.
    """
    lines = set()
    for o in outcomes:
        if not o.op.tampered:
            lines.add(f"{o.op.label} {o.digest if o.ok else 'FAILED ' + o.error.split(':')[0]}")
    return _sha("\n".join(sorted(lines)))
