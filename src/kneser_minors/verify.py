"""Independent certificate verification.

Verifiers trust nothing but the certificate contents and the definitions:
every edge is re-derived from label-set intersection, traces are never
consulted, and each failed check names the offending block, class, pair or
vertex.  The all-pairs cross-edge check exploits that two blocks are joined
by an edge exactly when their covered-label sets meet, which allows one
bit-vector of block indices per label instead of a quadratic member scan.

Partition facts are checked by ``core``'s functions, which the engine's
self-check runs too; the structure check of outside input is the verifier's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .baranyai import AlmostRegularPartition
from .chromatic import ColoringCertificate, chi_of
from .core import MAX_LABELS, family_detail, intersects, kset_labels, kset_text, sizes_detail, spread_detail, union_mask
from .minors import MinorCertificate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def _structure_blocks(
    n: int, k: int, blocks: Sequence[Sequence[int]], unit: str, lo: int = 1
) -> CheckResult:
    if not (1 <= lo and 1 <= k <= n - lo + 1 and n <= MAX_LABELS):
        return CheckResult("structure", False, f"invalid parameters (n, k) = ({n}, {k})")
    plural = f"{unit}es" if unit.endswith("s") else f"{unit}s"
    if not blocks:
        return CheckResult("structure", False, f"certificate has no {plural}")
    universe = (1 << n) - (1 << (lo - 1))
    for bi, block in enumerate(blocks):
        if not block:
            return CheckResult("structure", False, f"{unit} {bi} is empty")
        seen = set()
        for mi, mask in enumerate(block):
            if not isinstance(mask, int) or mask <= 0 or mask & ~universe:
                return CheckResult(
                    "structure", False, f"{unit} {bi} member {mi} has labels outside [{lo}, {n}]"
                )
            if mask.bit_count() != k:
                return CheckResult(
                    "structure",
                    False,
                    f"{unit} {bi} member {mi} = {kset_text(mask)} is not a {k}-subset",
                )
            if mask in seen:
                return CheckResult(
                    "structure", False, f"{unit} {bi} repeats member {kset_text(mask)}"
                )
            seen.add(mask)
    return CheckResult("structure", True, f"{len(blocks)} well-formed {plural}")


def _skipped(names: list[str], reason: str) -> list[CheckResult]:
    return [CheckResult(name, False, f"skipped: {reason}") for name in names]


def _unreachable_member(block: Sequence[int]) -> int | None:
    """Index of the first member not connected to ``block[0]``, or None.

    Members are adjacent exactly when they share a label, so the component
    of ``block[0]`` is the set of members meeting the closure of its labels:
    a member that meets the reached labels joins and adds its own.  Every
    sweep but the last adds a label, so there are at most n - k + 2 sweeps
    and the search is linear in the members, not quadratic.
    """
    reach, grew = block[0], True
    while grew:
        grew = False
        for mask in block:
            if mask & reach and mask & ~reach:
                reach |= mask
                grew = True
    return next((j for j, mask in enumerate(block) if not mask & reach), None)


def verify_minor(cert: MinorCertificate) -> VerificationReport:
    """Check disjointness, per-block connectivity, all-pairs cross edges, the
    claimed order, and that the order reaches chi(n, k)."""
    blocks = cert.blocks
    structure = _structure_blocks(cert.n, cert.k, blocks, "block")
    if not structure.passed:
        return VerificationReport(
            (structure, *_skipped(["disjoint-blocks", "block-connectivity", "cross-edges", "order-claim", "witnesses-chi"], "structural errors")),
        )
    checks = [structure]

    owner: dict[int, int] = {}
    dup_detail = None
    for bi, block in enumerate(blocks):
        for mask in block:
            if mask in owner and dup_detail is None:
                dup_detail = f"vertex {kset_text(mask)} appears in blocks {owner[mask]} and {bi}"
            owner.setdefault(mask, bi)
    checks.append(
        CheckResult("disjoint-blocks", dup_detail is None, dup_detail or "no vertex is shared")
    )

    conn_detail = None
    for bi, block in enumerate(blocks):
        missing = _unreachable_member(block)
        if missing is not None:
            conn_detail = (
                f"block {bi} is disconnected: member {kset_text(block[missing])} "
                f"is unreachable from {kset_text(block[0])}"
            )
            break
    checks.append(
        CheckResult("block-connectivity", conn_detail is None, conn_detail or "every block induces a connected subgraph")
    )

    # Blocks are joined by an edge iff their covered-label sets intersect.
    t = len(blocks)
    per_label = [0] * (cert.n + 1)
    covered = [kset_labels(union_mask(block)) for block in blocks]
    for bi, labels in enumerate(covered):
        bit = 1 << bi
        for label in labels:
            per_label[label] |= bit
    want = (1 << t) - 1
    cross_detail = None
    for bi, labels in enumerate(covered):
        reach = 0
        for label in labels:
            reach |= per_label[label]
        if reach != want:
            other = next(j for j in range(t) if not reach >> j & 1)
            cross_detail = f"blocks {bi} and {other} are joined by no edge"
            break
    checks.append(
        CheckResult("cross-edges", cross_detail is None, cross_detail or "every pair of blocks is joined")
    )

    order_ok = len(blocks) == cert.claimed_order
    checks.append(
        CheckResult(
            "order-claim",
            order_ok,
            f"{len(blocks)} blocks"
            + ("" if order_ok else f", but certificate claims {cert.claimed_order}"),
        )
    )

    chi = chi_of(cert.n, cert.k)
    checks.append(
        CheckResult(
            "witnesses-chi",
            len(blocks) >= chi,
            f"order {len(blocks)} {'>=' if len(blocks) >= chi else '<'} chi = {chi}",
        )
    )
    return VerificationReport(tuple(checks))


def verify_coloring(cert: ColoringCertificate) -> VerificationReport:
    """Check that the classes partition all k-subsets, are independent sets,
    and number exactly chi(n, k)."""
    classes = cert.classes
    structure = _structure_blocks(cert.n, cert.k, classes, "class")
    if not structure.passed:
        return VerificationReport(
            (structure, *_skipped(["partition", "independent-classes", "class-count"], "structural errors")),
        )
    checks = [structure]

    part_detail = family_detail(classes, 1, cert.n, cert.k)
    checks.append(
        CheckResult("partition", part_detail is None, part_detail or "classes partition the full family")
    )

    indep_detail = None
    for ci, cls in enumerate(classes):
        size_sum = sum(m.bit_count() for m in cls)
        if union_mask(cls).bit_count() != size_sum:
            for a in range(len(cls)):
                for b in range(a + 1, len(cls)):
                    if intersects(cls[a], cls[b]):
                        indep_detail = (
                            f"class {ci} contains intersecting members "
                            f"{kset_text(cls[a])} and {kset_text(cls[b])}"
                        )
                        break
                if indep_detail:
                    break
        if indep_detail:
            break
    checks.append(
        CheckResult("independent-classes", indep_detail is None, indep_detail or "all classes are pairwise disjoint families")
    )

    want = chi_of(cert.n, cert.k)
    count_ok = len(classes) == want
    checks.append(
        CheckResult(
            "class-count",
            count_ok,
            f"{len(classes)} classes" + ("" if count_ok else f", expected chi = {want}"),
        )
    )
    return VerificationReport(tuple(checks))


def verify_partition(part: AlmostRegularPartition) -> VerificationReport:
    """Check structure, then the engine's own checks: prescribed sizes, disjoint
    union over the ground family, and per-class degree spread <= 1."""
    plan = part.plan
    lo, hi = plan.ground
    classes = part.classes
    structure = _structure_blocks(hi, plan.k, classes, "class", lo)
    if not structure.passed:
        return VerificationReport(
            (structure, *_skipped(["sizes", "disjoint-union", "degree-spread"], "structural errors")),
        )
    verdicts = (
        ("sizes", sizes_detail(classes, plan.sizes), "class sizes match the plan"),
        ("disjoint-union", family_detail(classes, lo, hi, plan.k), "classes partition the ground family"),
        ("degree-spread", spread_detail(classes, lo, hi), "every class has degree spread <= 1"),
    )
    return VerificationReport(
        (structure, *(CheckResult(name, detail is None, detail or ok) for name, detail, ok in verdicts))
    )
