"""Independent certificate verification.

Verifiers trust nothing but the certificate contents and the definitions:
every edge is re-derived from label-set intersection, traces are never
consulted, and each failed check names the offending block, class, pair or
vertex.  The structure check first judges the whole certificate with set,
map and bit operations; its one set of all members also settles the
shared-vertex check.  Only when that set finds a repeat, or the blocks are
not tuples or lists, does one walk keep each member's latest block: it names
the first fault in block order, a repeat inside a block among them, and the
first member met in a second block, which the shared-vertex check reports
with no walk of its own.  One loop over each block takes the AND and
the OR (its cover) of its members.  A block whose members all share a label
(a nonzero AND, as in every anchored block ``build_minor`` makes) is
connected, since any two members meet; any other block gets the
label-closure search.  Two blocks are joined exactly when their covers meet,
so the cross-edge check works on the distinct covers in first-appearance
order: it cuts one bit-vector of covers per label from the covers written as
binary rows, reads a cover's reach from per-8-label OR tables (one OR per 8
labels), and names the first blocks of two covers.

Each verifier is an ordered table of named checks, each name declared once,
run by ``_run_checks``.  The structure check runs first; if it fails, every
named check is reported ``skipped: structural errors`` and none runs, so no
check (and no ``chi_of``) sees a malformed certificate.  Otherwise each check
runs in order and returns (passed, detail).  A check body returns its failure
detail or None, as ``core``'s ``*_detail`` functions do.

Partition facts are checked by ``core``'s functions, which the engine's
self-check runs too; the structure check of outside input is the verifier's own.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from .baranyai import AlmostRegularPartition
from .chromatic import ColoringCertificate, chi_of
from .core import (
    MAX_LABELS, Record, family_detail, intersects, kset_text, pairwise_disjoint, sizes_detail, spread_detail, union_mask,
)
from .minors import MinorCertificate

_Check = Callable[[], tuple[bool, str]]


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


class VerificationReport(Record):
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
) -> tuple[bool, str, str | None]:
    """(passed, detail, shared): on a pass, shared names the first member met
    in a second block, and is None exactly when all members are distinct."""
    if not (1 <= lo and 1 <= k <= n - lo + 1 and n <= MAX_LABELS):
        return False, f"invalid parameters (n, k) = ({n}, {k})", None
    plural = f"{unit}es" if unit.endswith("s") else f"{unit}s"
    if not blocks:
        return False, f"certificate has no {plural}", None
    universe = (1 << n) - (1 << (lo - 1))
    # The whole certificate at once, with one set of all members; the walk
    # below runs only to name a fault or a repeat (and alone reads blocks that
    # are not tuples or lists).
    members = list(chain.from_iterable(blocks)) if set(map(type, blocks)) <= {tuple, list} else []
    whole = (
        all(blocks) and set(map(type, members)) == {int}  # a member <= 0 fails one of the next two
        and not union_mask(members) & ~universe and set(map(int.bit_count, members)) == {k}
    )
    if whole and len(set(members)) == len(members):
        return True, f"{len(blocks)} well-formed {plural}", None
    last: dict[int, int] = {}  # each member's latest block
    shared = None
    for bi, block in enumerate(blocks):
        if not block:
            return False, f"{unit} {bi} is empty", None
        for mi, mask in enumerate(block):
            if not whole and (not isinstance(mask, int) or mask <= 0 or mask & ~universe):
                return False, f"{unit} {bi} member {mi} has labels outside [{lo}, {n}]", None
            if not whole and mask.bit_count() != k:
                return False, f"{unit} {bi} member {mi} = {kset_text(mask)} is not a {k}-subset", None
            if mask in last:
                if last[mask] == bi:
                    return False, f"{unit} {bi} repeats member {kset_text(mask)}", None
                shared = shared or f"vertex {kset_text(mask)} appears in blocks {last[mask]} and {bi}"
            last[mask] = bi
    return True, f"{len(blocks)} well-formed {plural}", shared


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


def _run_checks(structure: tuple[bool, str, str | None], checks: Sequence[tuple[str, _Check]]) -> VerificationReport:
    """The structure check's verdict, then each named check in order; if the
    structure check failed, every named check is reported skipped and none runs."""
    head = CheckResult("structure", *structure[:2])
    if not head.passed:
        return VerificationReport(
            (head, *(CheckResult(name, False, "skipped: structural errors") for name, _ in checks))
        )
    return VerificationReport((head, *(CheckResult(name, *check()) for name, check in checks)))


def _verdict(detail: str | None, ok: str) -> tuple[bool, str]:
    return detail is None, detail or ok


def _disconnected_block(blocks: Sequence[Sequence[int]], covered: list[int]) -> str | None:
    """The first disconnected block, or None; appends every block's cover (the
    OR of its members) to ``covered``, past a fault too, for the cross-edge check."""
    fault = None
    for bi, block in enumerate(blocks):
        common = cover = block[0]
        for mask in block:
            common &= mask
            cover |= mask
        covered.append(cover)
        # members sharing a label are pairwise adjacent
        if not common and fault is None and (missing := _unreachable_member(block)) is not None:
            fault = (
                f"block {bi} is disconnected: member {kset_text(block[missing])} "
                f"is unreachable from {kset_text(block[0])}"
            )
    return fault


def _unjoined_blocks(n: int, covered: Sequence[int]) -> str | None:
    # Blocks are joined iff their covers meet, so blocks of one cover are joined alike.
    distinct = list(dict.fromkeys(covered))
    t = len(distinct)
    # Bit d of per_label[x] is set iff distinct cover d holds label x + 1.  Each
    # cover is a binary row of n digits, last cover first, so label x + 1's
    # digits of all covers, read every n-th from n - 1 - x, form one numeral.
    rows = "".join(map(f"{{:0{n}b}}".format, reversed(distinct)))
    per_label = [int(rows[n - 1 - x::n], 2) for x in range(n)]
    # tables[c][b] is the OR of per_label over the labels of chunk c
    # (8c + 1 .. 8c + 8) whose bits are set in byte b; labels past n read 0.
    per_label += [0] * 7
    tables = []
    for c in range(0, n, 8):
        table = [0]
        for b in range(1, 256):
            low = b & -b
            table.append(table[b ^ low] | per_label[c + low.bit_length() - 1])
        tables.append(table)
    want = (1 << t) - 1
    meets_all = n - min(map(int.bit_count, distinct))  # a larger cover meets every cover
    for d, cover in enumerate(distinct):
        if cover.bit_count() > meets_all:
            continue
        reach = 0
        for table in tables:
            reach |= table[cover & 255]
            cover >>= 8
        if reach != want:  # the first blocks of the two covers, as a walk over all blocks would name
            other = next(j for j in range(t) if not reach >> j & 1)
            return f"blocks {covered.index(distinct[d])} and {covered.index(distinct[other])} are joined by no edge"
    return None


def _intersecting_members(classes: Sequence[Sequence[int]]) -> str | None:
    for ci, cls in enumerate(classes):
        if not pairwise_disjoint(cls):
            for a in range(len(cls)):
                for b in range(a + 1, len(cls)):
                    if intersects(cls[a], cls[b]):
                        return (
                            f"class {ci} contains intersecting members "
                            f"{kset_text(cls[a])} and {kset_text(cls[b])}"
                        )
    return None


def verify_minor(cert: MinorCertificate) -> VerificationReport:
    """Check disjointness, per-block connectivity, all-pairs cross edges, the
    claimed order, and that the order reaches chi(n, k)."""
    blocks, t = cert.blocks, len(cert.blocks)
    structure = _structure_blocks(cert.n, cert.k, blocks, "block")
    covered: list[int] = []  # the connectivity check fills it, the cross-edge check reads it

    def order_claim() -> tuple[bool, str]:
        ok = t == cert.claimed_order
        return ok, f"{t} blocks" + ("" if ok else f", but certificate claims {cert.claimed_order}")

    def witnesses_chi() -> tuple[bool, str]:
        chi = chi_of(cert.n, cert.k)
        return t >= chi, f"order {t} {'>=' if t >= chi else '<'} chi = {chi}"

    return _run_checks(structure, (
        ("disjoint-blocks", lambda: _verdict(structure[2], "no vertex is shared")),
        ("block-connectivity", lambda: _verdict(_disconnected_block(blocks, covered), "every block induces a connected subgraph")),
        ("cross-edges", lambda: _verdict(_unjoined_blocks(cert.n, covered), "every pair of blocks is joined")),
        ("order-claim", order_claim),
        ("witnesses-chi", witnesses_chi),
    ))


def verify_coloring(cert: ColoringCertificate) -> VerificationReport:
    """Check that the classes partition all k-subsets, are independent sets,
    and number exactly chi(n, k)."""
    classes = cert.classes

    def class_count() -> tuple[bool, str]:
        want = chi_of(cert.n, cert.k)
        ok = len(classes) == want
        return ok, f"{len(classes)} classes" + ("" if ok else f", expected chi = {want}")

    return _run_checks(_structure_blocks(cert.n, cert.k, classes, "class"), (
        ("partition", lambda: _verdict(family_detail(classes, 1, cert.n, cert.k), "classes partition the full family")),
        ("independent-classes", lambda: _verdict(_intersecting_members(classes), "all classes are pairwise disjoint families")),
        ("class-count", class_count),
    ))


def verify_partition(part: AlmostRegularPartition) -> VerificationReport:
    """Check structure, then the engine's own checks: prescribed sizes, disjoint
    union over the ground family, and per-class degree spread <= 1."""
    plan, classes = part.plan, part.classes
    lo, hi = plan.ground
    return _run_checks(_structure_blocks(hi, plan.k, classes, "class", lo), (
        ("sizes", lambda: _verdict(sizes_detail(classes, plan.sizes), "class sizes match the plan")),
        ("disjoint-union", lambda: _verdict(family_detail(classes, lo, hi, plan.k), "classes partition the ground family")),
        ("degree-spread", lambda: _verdict(spread_detail(classes, lo, hi), "every class has degree spread <= 1")),
    ))
