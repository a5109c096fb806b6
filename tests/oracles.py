"""Reference oracles the tests compare the package against.

Each is independent of the code it checks: a backtracking feasibility
search for almost-regular partitions, a branch-and-bound independence
number and the hockey-stick identity used in the order accounting, all
only usable on tiny instances, the closed-form order bounds of the s = 2
and s = 3 builds and the s >= 4, k >= 4 product-bound report, both in
exact rationals, the pairwise connectivity search the minor verifier used
before it searched over labels, a pairwise block-join search and the
cross-edge check as it was before it read per-chunk tables, the degree-spread
and structure checks as they were before they took whole-family verdicts
first, the parser's block reader as it was before it read members inline,
the partition engine as it was before it solved label steps on groups of
identical classes (one flow node per class; it calls the package's max-flow
solver, so both engines solve their label steps alike), the max-flow solver
as it was before push-relabel (Dinic), and the writer as it was before documents became flat JSON (the
stdlib's indented encoder; such files must still read and verify alike).
A minor, a coloring and a partition verifier built from the definitions
alone, for tiny instances, answer the package verifiers' checks by name.  The
small helpers at the end are used only by tests.
"""

import io
import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from kneser_minors import (
    AlmostRegularPartition,
    ConstructionError,
    CoveredPartition,
    ParameterError,
    Params,
    PartitionPlan,
    ResourceCapError,
    S4Params,
    binomial,
    enumerate_family,
    intersects,
    kset_labels,
    kset_text,
    union_mask,
)
from kneser_minors.baranyai import _euler_split, _max_flow
from kneser_minors.core import MAX_LABELS, label_degrees
from kneser_minors.serialize import _mask_from_labels

ORACLE_EDGE_CAP = 30
ALPHA_ORACLE_CAP = 500


def exhaustive_partition_feasible(plan: PartitionPlan) -> bool:
    """Backtracking oracle: is an almost-regular partition with these sizes feasible?

    Independent of the flow engine; only usable for tiny instances
    (at most ORACLE_EDGE_CAP hyperedges).  Exists to cross-check the engine:
    feasibility is guaranteed in theory, so a False here or a disagreement
    with the engine flags a bug.
    """
    total = plan.edge_count
    if total > ORACLE_EDGE_CAP:
        raise ResourceCapError(f"oracle limited to {ORACLE_EDGE_CAP} hyperedges, got {total}")
    g = plan.ground_size
    k = plan.k
    if k == g:
        return plan.sizes == (1,)
    if 2 * k > g:
        # Complementing every edge keeps class sizes and flips each degree to
        # size - degree, so spreads are unchanged; the sparse side prunes better.
        return exhaustive_partition_feasible(
            PartitionPlan(ground=plan.ground, k=g - k, sizes=plan.sizes)
        )
    edges = enumerate_family(1, g, plan.k)
    label_sets = [tuple(x - 1 for x in kset_labels(mask)) for mask in edges]
    sizes = plan.sizes
    n_classes = len(sizes)
    # Final degrees in a class of size a are forced into {floor, ceil} of k*a/g.
    ceilings = [-(-(k * a) // g) for a in sizes]
    floors = [(k * a) // g for a in sizes]
    fill = [0] * n_classes
    degrees = [[0] * g for _ in range(n_classes)]
    # Per-class degree budgets, maintained incrementally:
    # deficit[j] = units still needed to lift every vertex to the class floor,
    # headroom[j] = units the class can still absorb below its ceilings.
    deficit = [g * f for f in floors]
    headroom = [g * c for c in ceilings]
    # supply[x]: unassigned edges containing label x+1;
    # owed[x]: degree still required to reach every class floor at label x+1.
    supply = [0] * g
    for labels in label_sets:
        for x in labels:
            supply[x] += 1
    owed = [sum(floors)] * g
    unassigned = set(range(total))

    def options(e: int) -> list[int]:
        labels = label_sets[e]
        found = []
        seen_states = set()
        for j in range(n_classes):
            if fill[j] == sizes[j]:
                continue
            # Classes in identical states are interchangeable: keep the first.
            state = (sizes[j], fill[j], tuple(degrees[j]))
            if state in seen_states:
                continue
            seen_states.add(state)
            row = degrees[j]
            ceil_j = ceilings[j]
            floor_j = floors[j]
            if any(row[x] >= ceil_j for x in labels):
                continue
            # Remaining edges of the class must still be able to pay the floor
            # deficit, and the ceilings must leave room for them.
            budget = k * (sizes[j] - fill[j] - 1)
            drop = sum(1 for x in labels if row[x] < floor_j)
            if deficit[j] - drop > budget or headroom[j] - k < budget:
                continue
            found.append(j)
        return found

    def assign(e: int, j: int) -> None:
        fill[j] += 1
        unassigned.discard(e)
        row = degrees[j]
        headroom[j] -= k
        for x in label_sets[e]:
            supply[x] -= 1
            if row[x] < floors[j]:
                owed[x] -= 1
                deficit[j] -= 1
            row[x] += 1

    def undo(e: int, j: int) -> None:
        fill[j] -= 1
        unassigned.add(e)
        row = degrees[j]
        headroom[j] += k
        for x in label_sets[e]:
            supply[x] += 1
            row[x] -= 1
            if row[x] < floors[j]:
                owed[x] += 1
                deficit[j] += 1

    def search() -> bool:
        if not unassigned:
            return all(
                all(floors[j] <= d <= ceilings[j] for d in degrees[j])
                for j in range(n_classes)
            )
        if any(owed[x] > supply[x] for x in range(g)):
            return False
        # Fail-first: branch on the edge with the fewest feasible classes.
        pick = -1
        pick_options: list[int] = []
        for e in sorted(unassigned):
            found = options(e)
            if not found:
                return False
            if pick < 0 or len(found) < len(pick_options):
                pick, pick_options = e, found
                if len(found) == 1:
                    break
        for j in pick_options:
            assign(pick, j)
            if search():
                return True
            undo(pick, j)
        return False

    return search()


def alpha_oracle(p: Params, cap: int = ALPHA_ORACLE_CAP) -> int:
    """Maximum size of a pairwise-disjoint family of k-subsets of [n].

    Exhaustive branch and bound over which labels participate; the packing
    bound count + floor(free/k) prunes the search.  Must equal floor(n / k).
    """
    total = binomial(p.n, p.k)
    if total > cap:
        raise ResourceCapError(f"oracle unavailable: C(n, k) = {total} exceeds {cap}")
    k = p.k
    best = 0

    def grow(free: tuple[int, ...], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + len(free) // k <= best:
            return
        first, rest = free[0], free[1:]
        for combo in itertools.combinations(rest, k - 1):
            taken = set(combo)
            grow(tuple(x for x in rest if x not in taken), count + 1)
        grow(rest, count)

    grow(tuple(range(1, p.n + 1)), 0)
    return best


def hockey_stick(a: int, b: int) -> tuple[int, int]:
    """Return (sum of C(i, b) for i = 0..a, C(a+1, b+1)).

    The two components are equal; the pair exists purely as a test oracle for
    the summation identity used in the order accounting.
    """
    if not 0 <= b <= a:
        raise ParameterError(f"hockey_stick needs a >= b >= 0, got ({a}, {b})")
    total = sum(binomial(i, b) for i in range(a + 1))
    return total, binomial(a + 1, b + 1)


def closed_form_lower_bound(p: Params) -> Fraction:
    """Exact rational lower bound on the constructed order for s in {2, 3}.

    Evaluates the closed forms behind the two- and three-stage builds; the
    constructed order always satisfies order >= ceil(bound).
    """
    n, k, s, t = p.n, p.k, p.s, p.t

    def c(a: int, b: int) -> Fraction:
        return Fraction(binomial(a, b))

    if s == 2:
        if t <= k - 2:
            return (
                Fraction(1, 2) * c(n, k)
                + Fraction(1, 2) * c(n - 1, k - 1)
                - Fraction(1, 2) * c(n - k, k)
                - Fraction(k - 1, 2)
            )
        return (
            Fraction(1, 2) * c(n, k)
            + Fraction(1, 6) * c(n - 1, k - 1)
            - Fraction(1, 2) * c(n - 1 - k, k)
            - Fraction(k - 1, 2)
            - Fraction(2, 3)
        )
    if s == 3:
        if t <= k - 3:
            return (
                Fraction(1, 3) * c(n, k)
                + Fraction(2, 3) * c(n - 1, k - 1)
                - Fraction(1, 3) * c(n - k, k)
                - Fraction(2 * (k - 2), 3)
            )
        if t == k - 2:
            return (
                Fraction(1, 3) * c(n, k)
                + Fraction(1, 3) * c(n - 1, k - 1)
                - Fraction(1, 3) * c(n - k - 1, k)
                - Fraction(2 * (k - 2), 3)
                - Fraction(3, 4)
            )
        if k == 3:
            return Fraction(60)
        if k == 4:
            return Fraction(505)
        return (
            Fraction(1, 3) * c(n, k)
            + Fraction(1, 6) * c(n - 1, k - 1)
            + Fraction(1, 6 * (n - 1)) * c(n - 1, k - 1)
            - Fraction(1, 3) * c(n - k - 2, k)
            - Fraction(2 * (k - 2), 3)
            - Fraction(3, 2)
        )
    raise ParameterError(f"no closed-form bound for s = {s}")


# Valid upper bounds on the exact product bound g(n, k), keyed by s.
_G_CUTOFF_K4 = {4: Fraction(224, 1000), 5: Fraction(176, 1000), 6: Fraction(149, 1000)}
_G_CUTOFF_K4_TAIL = Fraction(133, 1000)  # s >= 7
_G_CUTOFF_K5P = {4: Fraction(211, 1000), 5: Fraction(151, 1000)}
_G_CUTOFF_K5P_TAIL = Fraction(119, 1000)  # s >= 6


@dataclass(frozen=True)
class S4BoundReport:
    """Exact-rational preflight for the s >= 4, k >= 4 regime.

    cut_fraction is the share of k-subsets confined to the top
    l(k-1)+1 labels; cut_bound is its closed-form product upper bound, and
    threshold the fixed decimal cutoff for this (s, k).  All three flags
    must hold; a False would contradict the construction's guarantee.
    """

    n: int
    k: int
    s: int
    l: int
    cut_fraction: Fraction
    cut_bound: Fraction
    threshold: Fraction
    fraction_le_bound: bool
    bound_le_threshold: bool
    slack_ok: bool

    @property
    def ok(self) -> bool:
        return self.fraction_le_bound and self.bound_le_threshold and self.slack_ok


def bound_check_s4(p: Params) -> S4BoundReport:
    """Evaluate the s >= 4, k >= 4 order analytics exactly and flag violations."""
    n, k, s = p.n, p.k, p.s
    if not (s >= 4 and k >= 4):
        raise ParameterError(f"bound check applies to s >= 4 and k >= 4, got ({n}, {k})")
    q = S4Params.from_params(p)
    cut = Fraction(binomial(q.l * (k - 1) + 1, k), binomial(n, k))
    bound = Fraction(1)
    for j in range(k):
        bound *= Fraction(1, 2) + Fraction(2 * k - j - 1, 2 * (n - j))
    if k == 4:
        threshold = _G_CUTOFF_K4.get(s, _G_CUTOFF_K4_TAIL)
    else:
        threshold = _G_CUTOFF_K5P.get(s, _G_CUTOFF_K5P_TAIL)
    return S4BoundReport(
        n=n,
        k=k,
        s=s,
        l=q.l,
        cut_fraction=cut,
        cut_bound=bound,
        threshold=threshold,
        fraction_le_bound=cut <= bound,
        bound_le_threshold=bound <= threshold,
        slack_ok=(1 - bound) * s >= q.l,
    )


def unreachable_member_pairwise(block: list[int]) -> int | None:
    """Index of the first member of ``block`` not connected to ``block[0]``, or None.

    Quadratic search: every member popped scans the whole block for members
    it intersects.
    """
    reached = {0}
    frontier = [0]
    while frontier:
        here = frontier.pop()
        for j in range(len(block)):
            if j not in reached and intersects(block[here], block[j]):
                reached.add(j)
                frontier.append(j)
    return next((j for j in range(len(block)) if j not in reached), None)


def unjoined_blocks_pairwise(blocks: Sequence[Sequence[int]]) -> str | None:
    """The minor verifier's cross-edge detail from the definition, or None.

    For each block in order, the first block none of whose members meets
    one of its members: a search over every member pair of every block pair.
    """
    for bi, block in enumerate(blocks):
        for other, them in enumerate(blocks):
            if not any(intersects(a, b) for a in block for b in them):
                return f"blocks {bi} and {other} are joined by no edge"
    return None


def verify_minor_by_definition(n: int, k: int, blocks: Sequence[Sequence[int]]) -> dict[str, str | None]:
    """Each minor check from the definitions, by name: None where it holds, else why not.

    The vertices are the k-subsets of [n], two adjacent when they meet.  The
    blocks must be vertices, pairwise disjoint, each connected (a search over
    member pairs) and every two joined by a member pair, and there must be at
    least ceil(C(n, k) / alpha) of them, alpha from the exhaustive search
    (tiny instances only).
    """
    vertices = {sum(1 << (x - 1) for x in c) for c in itertools.combinations(range(1, n + 1), k)}
    members = [m for block in blocks for m in block]
    alpha = alpha_oracle(Params(n, k))
    stray = next((m for m in members if m not in vertices), None)
    twice = next((m for i, m in enumerate(members) if m in members[:i]), None)
    loose = next(
        (bi for bi, block in enumerate(blocks) if not block or unreachable_member_pairwise(list(block)) is not None), None
    )
    least = -(-binomial(n, k) // alpha)
    return {
        "vertices": None if stray is None else f"member {stray} is not a {k}-subset of [{n}]",
        "disjoint-blocks": None if twice is None else f"member {twice} lies in two blocks",
        "block-connectivity": None if loose is None else f"block {loose} is not connected",
        "cross-edges": unjoined_blocks_pairwise(blocks),
        "order": None if len(blocks) >= least else f"{len(blocks)} blocks, below C({n}, {k}) / {alpha}",
    }


def verify_coloring_by_definition(n: int, k: int, classes: Sequence[Sequence[int]]) -> dict[str, str | None]:
    """Each coloring check from the definitions, by name: None where it holds, else why not.

    The vertices are the k-subsets of [n], two adjacent when they meet.  The
    classes must partition them (the family ``enumerate_family`` lists, here
    enumerated afresh), each class must be independent (a search over member
    pairs), and there must be exactly chi = ceil(C(n, k) / alpha) classes,
    alpha from the exhaustive search: no coloring has fewer, since a class
    holds at most alpha vertices (tiny instances only).
    """
    vertices = sorted(sum(1 << (x - 1) for x in c) for c in itertools.combinations(range(1, n + 1), k))
    members = [m for cls in classes for m in cls]
    stray = min(set(members) - set(vertices), default=None)
    clash = next(
        (ci for ci, cls in enumerate(classes) if any(intersects(a, b) for a, b in itertools.combinations(cls, 2))), None
    )
    chi = -(-binomial(n, k) // alpha_oracle(Params(n, k)))
    return {
        "vertices": None if stray is None else f"member {stray} is not a {k}-subset of [{n}]",
        "partition": None if sorted(members) == vertices else "the classes do not hold each vertex exactly once",
        "independent-classes": None if clash is None else f"class {clash} holds two members that meet",
        "class-count": None if len(classes) == chi else f"{len(classes)} classes, not chi = {chi}",
    }


def unjoined_blocks_reference(n: int, blocks: Sequence[Sequence[int]]) -> str | None:
    """The cross-edge check as it was before it read reaches from per-chunk tables:
    one block bitset per label, and one OR per covered label per block."""
    t = len(blocks)
    per_label = [0] * (n + 1)
    covered = [kset_labels(union_mask(block)) for block in blocks]
    for bi, labels in enumerate(covered):
        bit = 1 << bi
        for label in labels:
            per_label[label] |= bit
    want = (1 << t) - 1
    for bi, labels in enumerate(covered):
        reach = 0
        for label in labels:
            reach |= per_label[label]
        if reach != want:
            other = next(j for j in range(t) if not reach >> j & 1)
            return f"blocks {bi} and {other} are joined by no edge"
    return None


def spread_detail_reference(classes: Sequence[Sequence[int]], lo: int, hi: int) -> str | None:
    """The degree-spread check as it was before it passed classes of
    pairwise-disjoint members at once: every class counts its degrees."""
    for ci, cls in enumerate(classes):
        degrees = label_degrees(cls, hi)[lo - 1:]
        hi_deg, lo_deg = max(degrees), min(degrees)
        if hi_deg - lo_deg > 1:
            hot = lo + degrees.index(hi_deg)
            cold = lo + degrees.index(lo_deg)
            return (
                f"class {ci} has degree spread {hi_deg - lo_deg}: "
                f"label {hot} has degree {hi_deg}, label {cold} has degree {lo_deg}"
            )
    return None


def structure_blocks_reference(
    n: int, k: int, blocks: Sequence[Sequence[int]], unit: str, lo: int = 1
) -> tuple[bool, str]:
    """The verifiers' structure check as it was before it judged the whole
    certificate first: every member of every block is tested in turn."""
    if not (1 <= lo and 1 <= k <= n - lo + 1 and n <= MAX_LABELS):
        return False, f"invalid parameters (n, k) = ({n}, {k})"
    plural = f"{unit}es" if unit.endswith("s") else f"{unit}s"
    if not blocks:
        return False, f"certificate has no {plural}"
    universe = (1 << n) - (1 << (lo - 1))
    for bi, block in enumerate(blocks):
        if not block:
            return False, f"{unit} {bi} is empty"
        seen = set()
        for mi, mask in enumerate(block):
            if not isinstance(mask, int) or mask <= 0 or mask & ~universe:
                return False, f"{unit} {bi} member {mi} has labels outside [{lo}, {n}]"
            if mask.bit_count() != k:
                return False, f"{unit} {bi} member {mi} = {kset_text(mask)} is not a {k}-subset"
            if mask in seen:
                return False, f"{unit} {bi} repeats member {kset_text(mask)}"
            seen.add(mask)
    return True, f"{len(blocks)} well-formed {plural}"


def block_lists_reference(blocks: list, where: str) -> tuple[tuple[int, ...], ...]:
    """The certificate parser's block reader as it was before it parsed
    members inline: every member goes through ``_mask_from_labels``."""
    out = []
    for bi, block in enumerate(blocks):
        if not isinstance(block, list) or not block:
            raise ParameterError(f"{where}[{bi}]: expected a nonempty array of label arrays")
        out.append(tuple(_mask_from_labels(member, f"{where}[{bi}][{mi}]") for mi, member in enumerate(block)))
    return tuple(out)


def verify_partition_by_definition(plan: PartitionPlan, classes: Sequence[Sequence[int]]) -> dict[str, str | None]:
    """Each partition check from the definitions, by name: None where it holds, else why not.

    The family is the k-subsets of the plan's ground, enumerated afresh.  The
    classes must be nonempty runs of distinct family members (structure), of
    the plan's sizes, and hold each family member exactly once between them
    (disjoint-union); in each class the number of members holding a ground
    label, counted label by label, may differ by at most one (degree-spread).
    """
    lo, hi = plan.ground
    family = sorted(sum(1 << (x - 1) for x in c) for c in itertools.combinations(range(lo, hi + 1), plan.k))
    known = set(family)
    malformed = next(
        (ci for ci, cls in enumerate(classes) if not cls or len(set(cls)) < len(cls) or not known.issuperset(cls)), None
    )
    uneven = None
    for ci, cls in enumerate(classes):
        # Members as rows of hi binary digits: label x's degree is the ones in digit column hi - x.
        rows = "".join([f"{m & (1 << hi) - 1:0{hi}b}" for m in cls])
        degrees = [rows[hi - x::hi].count("1") for x in range(lo, hi + 1)]
        if max(degrees) - min(degrees) > 1:
            uneven = ci
            break
    sizes = tuple(map(len, classes))
    return {
        "structure": "no classes" if not classes else None if malformed is None else f"class {malformed} is malformed",
        "sizes": None if sizes == plan.sizes else f"class sizes {sizes}, not the plan's {plan.sizes}",
        "disjoint-union": None if sorted(m for cls in classes for m in cls) == family else (
            f"the classes do not hold each {plan.k}-subset of [{lo}, {hi}] exactly once"
        ),
        "degree-spread": None if uneven is None else f"class {uneven} has degree spread above one",
    }


def base_partition(cov: CoveredPartition) -> AlmostRegularPartition:
    """The anchor-free partition a covered partition's blocks carry: its plan, and
    each block with the anchor label taken out of every member."""
    bit = 1 << (cov.anchor - 1)
    return AlmostRegularPartition(cov.plan, tuple(tuple(m & ~bit for m in block) for block in cov.blocks))


def max_flow_reference(
    sres: list[int], cstart: list[int], pclass: list[int], ptype: list[int],
    cnt: list[int], flow: list[int], tpairs: list[list[int]], tres: list[int],
) -> int:
    """Dinic on source -> group -> type -> sink; returns the flow it adds.

    Residuals live in the caller's arrays: ``sres[j]`` on source -> group j,
    ``cnt[p] - flow[p]`` on pair p (group ``pclass[p]`` -> type ``ptype[p]``)
    and ``flow[p]`` on its reverse, ``tres[t]`` on type t -> sink.  The search
    scans arcs in the order a generic Dinic would see them inserted: groups
    by first class at the source, pairs by type mask at a group, reverse pairs
    by group and then the sink arc at a type.  A cursor moves only past an
    ineligible arc or a dead end, and every augmentation restarts from the
    source, so the flow found is a fixed function of the network.
    """
    n, total = len(sres), 0
    while any(tres):
        starts = [j for j in range(n) if sres[j]]
        if any(tres[ptype[p]] and cnt[p] > flow[p] for j in starts for p in range(cstart[j], cstart[j + 1])):
            # The sink's level is 3, so every level path is source -> j -> t
            # -> sink: one greedy sweep finds the cursor search's blocking flow.
            for j in starts:
                r = sres[j]
                for p in range(cstart[j], cstart[j + 1]):
                    t = ptype[p]
                    x = min(r, cnt[p] - flow[p], tres[t])
                    if x > 0:
                        flow[p] += x
                        tres[t] -= x
                        r -= x
                        if not r:
                            break
                total += sres[j] - r
                sres[j] = r
            continue
        # Levels by BFS, stopping at the sink's level: deeper nodes are dead ends.
        clev, tlev = [1 if r else 0 for r in sres], [0] * len(tres)
        front, level = starts, 1
        while front:
            types = []
            for j in front:
                for p in range(cstart[j], cstart[j + 1]):
                    t = ptype[p]
                    if not tlev[t] and cnt[p] > flow[p]:
                        tlev[t] = level + 1
                        types.append(t)
            if any(tres[t] for t in types):
                break
            front = []
            for t in types:
                for q in tpairs[t]:
                    j = pclass[q]
                    if not clev[j] and flow[q]:
                        clev[j] = level + 2
                        front.append(j)
            level += 2
        else:
            return total
        sink = level + 2
        # Iterative DFS from class j; fwd holds pairs used forward (class to
        # type), rev pairs used backward (type to class), alternately.
        scur, ccur, tcur = 0, cstart[:-1], [0] * len(tres)
        while scur < len(starts):
            j = starts[scur]
            if not sres[j]:
                scur += 1
                continue
            fwd, rev = [], []
            while True:
                if len(fwd) == len(rev):  # at a class
                    c = pclass[rev[-1]] if rev else j
                    want, p, end = clev[c] + 1, ccur[c], cstart[c + 1]
                    while p < end and (cnt[p] == flow[p] or tlev[ptype[p]] != want):
                        p += 1
                    ccur[c] = p
                    if p < end:
                        fwd.append(p)
                    elif rev:
                        rev.pop()
                        tcur[ptype[fwd[-1]]] += 1
                    else:
                        scur += 1
                        break
                    continue
                t = ptype[fwd[-1]]  # at a type
                want, i, arcs = tlev[t] + 1, tcur[t], tpairs[t]
                while i < len(arcs) and (not flow[arcs[i]] or clev[pclass[arcs[i]]] != want):
                    i += 1
                tcur[t] = i
                if i < len(arcs):
                    rev.append(arcs[i])
                elif tres[t] and want == sink:
                    x = min([sres[j], tres[t]] + [cnt[p] - flow[p] for p in fwd] + [flow[q] for q in rev])
                    sres[j] -= x
                    tres[t] -= x
                    total += x
                    for p in fwd:
                        flow[p] += x
                    for q in rev:
                        flow[q] -= x
                    break
                else:
                    fwd.pop()
                    ccur[pclass[rev[-1]] if rev else j] += 1
    return total


def _absorption_step_reference(state: tuple, done: list[list[int]], k: int, v: int, unplaced: int) -> tuple:
    """One label step with one flow node per class; return the next state.

    The last two steps take the package's closed form: with one label
    unplaced every copy takes it, with two the Euler split decides.
    """
    masks, tot, slots, cstart, pclass, ptype, cnt, tpairs = state
    future = unplaced - 1
    by_size = [binomial(future, k - size - 1) for size in range(k)]
    demand = [by_size[m.bit_count()] for m in masks]
    if unplaced <= 2:
        flow = cnt[:] if unplaced == 1 else _euler_split(len(slots), pclass, tpairs)
    else:
        sres = [a // unplaced for a in slots]
        flow, tres = [0] * len(cnt), demand[:]
        floor_total = sum(sres)
        if _max_flow(sres, cstart, pclass, ptype, cnt, flow, tpairs, tres) != floor_total:
            raise ConstructionError(f"label step {v}: could not meet per-class floor loads")
        sres = [r + (a % unplaced > 0) for r, a in zip(sres, slots)]
        if floor_total + _max_flow(sres, cstart, pclass, ptype, cnt, flow, tpairs, tres) != sum(demand):
            raise ConstructionError(f"label step {v}: could not meet absorption demands")
    bit = 1 << (v - 1)
    keep = [t for t in range(len(masks)) if tot[t] > demand[t]]
    grow = [t for t, m in enumerate(masks) if demand[t] and m.bit_count() + 1 < k]
    kid, gid = [0] * len(masks), [-1] * len(masks)
    for i, t in enumerate(keep):
        kid[t] = i
    for i, t in enumerate(grow, len(keep)):
        gid[t] = i
    kept = [p for p in range(len(cnt)) if cnt[p] > flow[p]]
    moved = [p for p in range(len(cnt)) if flow[p]]
    grown = [p for p in moved if gid[ptype[p]] >= 0]
    for p in moved:
        if gid[ptype[p]] < 0:
            done[pclass[p]] += [masks[ptype[p]] | bit] * flow[p]
    cls = [pclass[p] for p in kept] + [pclass[p] for p in grown]
    ty = [kid[ptype[p]] for p in kept] + [gid[ptype[p]] for p in grown]
    ct = [cnt[p] - flow[p] for p in kept] + [flow[p] for p in grown]
    order = sorted(range(len(cls)), key=cls.__getitem__)
    pclass = [cls[i] for i in order]
    ptype = [ty[i] for i in order]
    tpairs = [[] for _ in range(len(keep) + len(grow))]
    for p, t in enumerate(ptype):
        tpairs[t].append(p)
    return (
        [masks[t] for t in keep] + [masks[t] | bit for t in grow],
        [tot[t] - demand[t] for t in keep] + [demand[t] for t in grow],
        [a - sum(flow[lo:hi]) for a, lo, hi in zip(slots, cstart, cstart[1:])],
        [bisect_left(pclass, j) for j in range(len(slots) + 1)],
        pclass, ptype, [ct[i] for i in order],
        tpairs,
    )


def almost_regular_partition_reference(plan: PartitionPlan) -> AlmostRegularPartition:
    """The per-class partition engine: each label step solves one flow node per class.

    Raises ConstructionError where the package engine would; runs no
    self-check, so a caller checks the result itself.
    """
    g, k, sizes = plan.ground_size, plan.k, plan.sizes
    n = len(sizes)
    state = ([0], [sum(sizes)], [k * a for a in sizes], list(range(n + 1)), list(range(n)), [0] * n, list(sizes), [list(range(n))])
    done: list[list[int]] = [[] for _ in sizes]
    for v in range(1, g + 1):
        state = _absorption_step_reference(state, done, k, v, g - v + 1)
    if state[0] or any(len(set(cls)) != len(cls) for cls in done):
        raise ConstructionError("a class finished with unfinished or duplicated edges")
    shift = plan.ground[0] - 1
    return AlmostRegularPartition(plan, tuple(tuple(sorted(mask << shift for mask in cls)) for cls in done))


def dumps_canonical_reference(document: Any) -> str:
    """Documents as they were once written: two-space indent, sorted keys, final newline."""
    out = io.StringIO()
    out.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(document))
    out.write("\n")
    return out.getvalue()


def covered_labels(block: Sequence[int]) -> frozenset[int]:
    """Set of labels appearing in at least one member of the block."""
    if not block:
        raise ParameterError("covered_labels needs a nonempty block")
    return frozenset(kset_labels(union_mask(block)))


def family_C(p: Params) -> list[int]:
    """k-subsets of [n] containing the label n, in colex order; size C(n-1, k-1)."""
    anchor = 1 << (p.n - 1)
    return [anchor | rest for rest in enumerate_family(1, p.n - 1, p.k - 1)]


def remainder_block(cov: CoveredPartition) -> tuple[int, ...] | None:
    """The trailing block past the guaranteed ones, or None when there is none."""
    if len(cov.blocks) > cov.guaranteed_blocks:
        return cov.blocks[cov.guaranteed_blocks]
    return None


def replaced(record, **changes):
    """A copy of a package record with some fields changed, built through its constructor."""
    fields = {name: getattr(record, name) for name in type(record).__annotations__}
    return type(record)(**{**fields, **changes})
