"""Almost-regular partitions of complete k-uniform hypergraphs.

Given positive class sizes a_1..a_l summing to C(g, k), the engine splits
the k-subsets of a g-label ground interval into classes of exactly those
sizes so that within each class all ground-label degrees differ by at most
one.  Such a partition always exists; the engine realizes it constructively.

Algorithm: ground labels are introduced one at a time.  Before label v is
placed, every class holds a multiset of *partial* edges S (subsets of the
labels placed so far, |S| <= k), each standing for the C(g-v+1, k-|S|)
completions of S using unplaced labels.  Adding v means deciding, per class
and per partial type, how many copies absorb v.  The fractional answer
(count * free_slots / unplaced) satisfies all constraints, so the integral
rounding is found as a max flow in a three-layer network

    source -> class j -> partial type S -> sink,

where the class arc carries floor/ceil bounds of the class's fractional
load, the (j, S) arc is capped by the copy count, and the sink arc demands
exactly the number of completions through S that contain v.  Degrees of
already-placed labels are untouched by the step, so per-class degree spread
<= 1 holds at the end.  Each step solves two flows, first up to the floor
loads and then up to the ceilings, by FIFO push-relabel with a fixed node
and arc order (see ``_max_flow``); together with colex ordering of types
this makes the whole construction reproducible byte-for-byte.

The last two steps need no search, as a type of s labels then has
C(unplaced, k - s) copies: at one label left every copy takes it; at two,
every (k - 2)-label copy and one copy of each (k - 1)-label type, chosen by
``_euler_split`` so m classes of a free slots take m floor(a/2)..m ceil(a/2).

Classes in the same state share one node.  A *group* is a range of
consecutive classes with equal free slots and partial edges, at first a run
of equal sizes; m members get m times one member's bounds and capacities.
The group's flow, laid out run by run, is dealt unit u to member u mod m, so
each member takes at most its count of each run and the floor or ceiling of
its own load.  Members dealt alike form a child group, again a subrange.

Between label steps the state is six flat arrays: the distinct unfinished
masks (the *types*) in mask order, and per group its first class, its free
slots and its (type id, copy count) runs in mask order.  Each step derives
the rest from them: one pass over the groups finds each run's group and
capacity, one flat pass over the runs each type's copies in all and its runs
in group order; the last step, with no flow to find, takes only the copies
in all.  One loop over the groups deals the step's flow and writes each
child's runs in place: its kept types, then its grown ones (a type's mask
plus v), which is mask order with no sort because v's bit is above every
placed bit.  A one-member group is its own child and reads its runs straight
off the flow.  Copies that reach k labels are set aside as finished edges.
The flow network is read straight off these arrays, and the solver is a loop
with no call stack, so long residual paths cost no recursion depth.

``partition_A`` (smallest label i fixed) and ``partition_C`` (label n
fixed) share one anchored body: it partitions the (k-1)-subsets of the
remaining interval, re-attaches the anchor and checks every full block
against its coverage floor.  ``_uniform_plan`` turns a family into blocks of
one size and a remainder, for that body, ``build_coloring`` and the
``partition`` command alike, with the cap check before the size vector.

The engine's output depends only on ``(g, k, sizes)``: it works on local
labels 1..g and shifts onto the plan's ground at the end.  The family
anchored at label i in K(n, k) is the one anchored at i + 1 in K(n + 1, k),
shifted by one label, so a sweep over n asks for the same local partition
many times.  The anchored body therefore takes its base partition from a
plan memo keyed on ``(g, k, sizes)``.  Each entry is one flat ``array('Q')``
of local masks, class after class (the boundaries are ``sizes``); the memo
holds at most ``MEMO_EDGE_BOUND`` edges in all and evicts the least
recently used entry first.  A hit is shifted onto the plan's ground and
guarded like a fresh run: the cap check comes before the lookup, and
``_self_check`` and the coverage floors run on the shifted classes.
``almost_regular_partition`` itself, which ``build_coloring`` and the
``partition`` command call, never consults the memo.
"""

from __future__ import annotations

import operator
import threading
from array import array
from collections import Counter, OrderedDict
from itertools import accumulate

from .core import Params, Record, binomial, family_detail, sizes_detail, spread_detail, union_mask
from .errors import ConstructionError, ParameterError, ResourceCapError

DEFAULT_EDGE_CAP = 20000
# Most edges the plan memo holds (8 bytes each): enough for every distinct
# plan of the acceptance sweep at the default cap.
MEMO_EDGE_BOUND = 1 << 18


class PartitionPlan(Record):
    """Prescription for one partition: ground interval, uniformity k, class sizes."""

    ground: tuple[int, int]
    k: int
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        lo, hi = self.ground
        if not (1 <= lo <= hi <= 64):
            raise ParameterError(f"bad ground interval [{lo}, {hi}]")
        width = hi - lo + 1
        if not 1 <= self.k <= width:
            raise ParameterError(f"k = {self.k} invalid for ground of {width} labels")
        if not self.sizes or any(a < 1 for a in self.sizes):
            raise ParameterError("class sizes must be positive")
        total = binomial(width, self.k)
        if sum(self.sizes) != total:
            raise ParameterError(
                f"sizes sum to {sum(self.sizes)}, expected C({width}, {self.k}) = {total}"
            )

    @property
    def ground_size(self) -> int:
        return self.ground[1] - self.ground[0] + 1

    @property
    def edge_count(self) -> int:
        return binomial(self.ground_size, self.k)


class AlmostRegularPartition(Record):
    plan: PartitionPlan
    classes: tuple[tuple[int, ...], ...]


class CoveredPartition(Record):
    """Partition of an anchored family with a coverage floor on leading blocks.

    ``base`` is the anchor-free almost-regular partition on the reduced
    ground; ``blocks`` re-attach the anchor label to every member.  Only the
    first ``guaranteed_blocks`` blocks (all of the requested size) carry the
    floor; a trailing remainder block, when present, does not.
    """

    base: AlmostRegularPartition
    anchor: int
    blocks: tuple[tuple[int, ...], ...]
    guaranteed_blocks: int
    coverage_floor: int


def uniform_sizes(total: int, block_size: int) -> tuple[int, ...]:
    """Size vector [block_size, ..., block_size, remainder] summing to total."""
    if total < 1 or block_size < 1:
        raise ParameterError("total and block_size must be positive")
    full, rest = divmod(total, block_size)
    return tuple([block_size] * full + ([rest] if rest else []))


def _max_flow(
    sres: list[int], cstart: list[int], pclass: list[int], ptype: list[int],
    cnt: list[int], flow: list[int], tpairs: list[list[int]], tres: list[int],
) -> int:
    """FIFO push-relabel on source -> group -> type -> sink; returns the flow it adds.

    Residuals live in the caller's arrays: ``sres[j]`` on source -> group j,
    ``cnt[p] - flow[p]`` on pair p (group ``pclass[p]`` -> type ``ptype[p]``)
    and ``flow[p]`` on its reverse, ``tres[t]`` on type t -> sink.  The side
    whose terminal arcs hold less in all must saturate them, so the excess
    starts there, on side A: at the groups in the floor solve, whose loads
    sum to at most the demands, and at the types, over the reversed network,
    in the ceiling solve, whose ceilings cover what demand is left.  The
    other side, B, drains into its terminal arcs.  A push A -> B adds to
    ``flow[p]`` in both orientations, so ``room[p] = cnt[p] - flow[p]`` is
    the residual of each A -> B arc and ``flow[p]`` that of each B -> A arc.
    No excess goes back through a terminal arc it started on, so the ceiling
    solve never lowers a floor load; on an infeasible network the excess is
    stranded and the total comes back short.

    One greedy sweep sends what direct A -> B -> terminal paths carry; the
    rest of A's terminal residuals becomes A's excess, so A's terminal
    residuals are zero and the drain that starts every discharge takes
    nothing there.  Excess moves to nodes one label lower on the other side,
    which queue in the order they gain it; a node left with excess relabels
    to one above its lowest residual neighbour, or is stranded at ``top``.
    Queued A nodes, then queued B nodes, are discharged in waves by one
    loop.  A reverse BFS from the terminal, one tier per side in turn, sets
    exact labels at the start and again once relabels, each costing its
    node's degree plus one, have cost (nodes + arcs) / 2 since the last.
    The queue starts in node order, arcs are scanned in array order and no
    set or dict is read, so the flow is a fixed function of the network.
    """
    a, b = (sres, [range(x, y) for x, y in zip(cstart, cstart[1:])], ptype), (tres, tpairs, pclass)
    if sum(sres) > sum(tres):
        a, b = b, a
    (ares, aarcs, ahead), (bres, barcs, bhead) = a, b
    room, total, na, nb = list(map(operator.sub, cnt, flow)), 0, len(ares), len(bres)
    top = na + nb + 1  # the label of a node with no residual path to the terminal
    exa, exb, da, db = [0] * na, [0] * nb, [top] * na, [top] * nb
    # Per side: terminal residuals, arcs per node, head per pair, own and reverse residuals, excess, labels.
    sides = ((ares, aarcs, ahead, room, flow, exa, da), (bres, barcs, bhead, flow, room, exb, db))
    for u, r in enumerate(ares):
        if r:
            for p in aarcs[u]:
                w = ahead[p]
                x = min(r, room[p], bres[w])
                if x > 0:
                    flow[p] += x
                    room[p] -= x
                    bres[w] -= x
                    r -= x
                    if not r:
                        break
            total += ares[u] - r
            exa[u], ares[u] = r, 0
    queues = [[u for u in range(na) if exa[u]], []]
    interval = work = (top + len(cnt)) // 2
    while queues[0] or queues[1]:
        if work >= interval:
            da[:], db[:], work = [top] * na, [top] * nb, 0
            front, level, side, other = [u for u in range(nb) if bres[u]], 1, sides[1], sides[0]
            for u in front:
                db[u] = 1
            while front:
                arcs, head, rev, od, tier = side[1], side[2], side[4], other[6], []
                for u in front:
                    for p in arcs[u]:
                        if rev[p] and od[w := head[p]] == top:
                            od[w] = level + 1
                            tier.append(w)
                front, level, side, other = tier, level + 1, other, side
            queues = [[u for u in queues[0] if da[u] < top], [u for u in queues[1] if db[u] < top]]
        for s in (0, 1):
            res, arcs, head, own, rev, ex, d = sides[s]
            oex, od = sides[1 - s][5:]
            oq, again = queues[1 - s], []
            for u in queues[s]:
                e, h, low = ex[u], d[u] - 1, top
                if r := res[u]:
                    x = r if r < e else e
                    res[u] = r - x
                    total += x
                    e -= x
                for p in arcs[u] if e else ():
                    r = own[p]
                    if r:
                        w = head[p]
                        if od[w] == h:
                            x = r if r < e else e
                            own[p] = r - x
                            rev[p] += x
                            if not oex[w]:
                                oq.append(w)
                            oex[w] += x
                            e -= x
                            if not e:
                                break
                        elif od[w] < low:
                            low = od[w]
                ex[u] = e
                if e:
                    work += len(arcs[u]) + 1
                    d[u] = min(low + 1, top)
                    if low + 1 < top:
                        again.append(u)
            queues[s] = again
    return total


def _euler_split(groups: int, pgroup: list[int], tpairs: list[list[int]]) -> list[int]:
    """The flow of a step with two labels unplaced, found with no search.

    A type with one pair gives it flow 1; one with two pairs is an edge
    between their groups.  Each odd-degree group also gets an edge to an
    extra node, so walks over unused edges, in type order from each node in
    index order, close at their start; the pair at each edge's head gets
    flow 1, so a group heads half its edge ends, rounded either way.
    """
    top = len(pgroup)  # pair top + x stands for node x's end of an extra edge
    flow, ends, node = [0] * (top + groups + 1), [], pgroup + list(range(groups + 1))
    for pairs in tpairs:
        if len(pairs) == 1:
            flow[pairs[0]] = 1
        else:
            ends += pairs  # edge e joins pairs ends[2e] and ends[2e + 1]
    degree = Counter(map(pgroup.__getitem__, ends))  # read by key only
    ends += [q for x in range(groups) if degree[x] % 2 for q in (top + x, top + groups)]
    adj = [[] for _ in range(groups + 1)]
    for i, p in enumerate(ends):
        adj[node[p]].append(i >> 1)
    arcs, used = [iter(edges) for edges in adj], [False] * (len(ends) >> 1)
    for start in range(groups + 1):
        x = start
        while (e := next(arcs[x], None)) is not None:
            if not used[e]:
                used[e] = True
                head = ends[2 * e + (node[ends[2 * e]] == x)]
                flow[head] = 1
                x = node[head]
    return flow[:top]


def _absorption_step(state: tuple, done: list[list[int]], k: int, v: int, unplaced: int) -> tuple:
    """Decide which partial-edge copies absorb local label v; return the next state."""
    masks, first, slots, cstart, ptype, cnt = state
    mult = list(map(operator.sub, first[1:], first))
    # Each pair's capacity, its group's members times its count, and its group:
    # the number of groups that end at or before it.
    cap, ends = cnt[:], [0] * (len(cnt) + 1)
    for m, lo, hi in zip(mult, cstart, cstart[1:]):
        ends[hi] += 1
        if m > 1:
            cap[lo:hi] = [m * c for c in cnt[lo:hi]]
    # Each type's copies in all and, but at the last step, its pairs in group order.
    tot = [0] * len(masks)
    if unplaced == 1:
        for t, c in zip(ptype, cap):
            tot[t] += c
    else:
        pgroup, tpairs = list(accumulate(ends[:-1])), [[] for _ in masks]
        for p, t in enumerate(ptype):
            tot[t] += cap[p]
            tpairs[t].append(p)
    bit = 1 << (v - 1)
    by_size = [binomial(unplaced - 1, k - size - 1) for size in range(k)]
    demand = [by_size[m.bit_count()] for m in masks]
    # A type of s labels has its C(unplaced, k - s) completions as copies iff tot (k - s) = demand unplaced.
    if unplaced <= 2 and any(c * (k - m.bit_count()) != d * unplaced for c, m, d in zip(tot, masks, demand)):
        raise ConstructionError(f"label step {v}: a type's copies in all differ from its completions")
    if unplaced == 1:  # one copy of k - 1 labels per type, so one per pair: each takes v and finishes
        if list(map(operator.sub, cstart[1:], cstart)) != slots:
            raise ConstructionError(f"label step {v}: could not meet per-class loads")
        edges = [masks[t] | bit for t in ptype]
        for j, lo, hi in zip(first, cstart, cstart[1:]):
            done[j] += edges[lo:hi]
        return [], [0, first[-1]], [0], [0, 0], [], []
    if unplaced == 2:
        flow = _euler_split(len(mult), pgroup, tpairs)
        load = [sum(flow[lo:hi]) for lo, hi in zip(cstart, cstart[1:])]  # copies each group absorbed
        if any(not m * (a // 2) <= x <= m * -(a // -2) for m, a, x in zip(mult, slots, load)):
            raise ConstructionError(f"label step {v}: could not meet per-class floor and ceiling loads")
        if any(sum(map(flow.__getitem__, pairs)) != d for pairs, d in zip(tpairs, demand)):
            raise ConstructionError(f"label step {v}: could not meet absorption demands")
    else:
        sres = [m * (a // unplaced) for m, a in zip(mult, slots)]
        flow, tres = [0] * len(cnt), demand[:]
        floor_total = sum(sres)
        if _max_flow(sres, cstart, pgroup, ptype, cap, flow, tpairs, tres) != floor_total:
            raise ConstructionError(f"label step {v}: could not meet per-class floor loads")
        sres = [r + m * (a % unplaced > 0) for r, m, a in zip(sres, mult, slots)]  # now up to ceiling loads
        if floor_total + _max_flow(sres, cstart, pgroup, ptype, cap, flow, tpairs, tres) != sum(demand):
            raise ConstructionError(f"label step {v}: could not meet absorption demands")
        load = [m * -(a // -unplaced) - r for m, a, r in zip(mult, slots, sres)]  # copies each group absorbed

    # Types are renumbered as kept ones, then grown ones: both stay in mask
    # order because v's bit is above every placed bit, so every kept id is
    # below len(keep) and every grown id at or above it.
    keep = [t for t in range(len(masks)) if tot[t] > demand[t]]
    grow = [t for t, m in enumerate(masks) if demand[t] and m.bit_count() + 1 < k]
    kid, gid = [0] * len(masks), [-1] * len(masks)
    for i, t in enumerate(keep):
        kid[t] = i
    for i, t in enumerate(grow, len(keep)):
        gid[t] = i

    # A child's runs are its kept parts, then its grown parts.  A group of m > 1 deals unit u
    # to member u mod m; members between cut points (unit offsets mod m) take x[p - lo] of pair p.
    nfirst, nslots, nstart, ntype, ncnt = [], [], [0], [], []
    for m, lo, hi, j, free, took in zip(mult, cstart, cstart[1:], first, slots, load):
        if m == 1:
            nfirst.append(j)
            nslots.append(free - took)
            gtype, gcnt = [], []
            for p in range(lo, hi):
                if (c := cnt[p]) > (f := flow[p]):
                    ntype.append(kid[ptype[p]])
                    ncnt.append(c - f)
                if f:
                    if (t := gid[ptype[p]]) >= 0:
                        gtype.append(t)
                        gcnt.append(f)
                    else:
                        done[j] += [masks[ptype[p]] | bit] * f
            ntype += gtype
            ncnt += gcnt
            nstart.append(len(ntype))
            continue
        part = flow[lo:hi]
        offsets = list(accumulate(part, initial=0))
        cuts, (whole, rest) = sorted({s % m for s in offsets}), divmod(took, m)
        for i, e in zip(cuts, cuts[1:] + [m]):
            each, x = whole + (i < rest), [f // m + ((i - s) % m < f % m) for f, s in zip(part, offsets)]
            nfirst.append(j + i)
            nslots.append(free - each)
            for p in range(lo, hi):
                if cnt[p] > (f := x[p - lo]):
                    ntype.append(kid[ptype[p]])
                    ncnt.append(cnt[p] - f)
            for p in range(lo, hi) if each else ():
                if (f := x[p - lo]) and (t := gid[ptype[p]]) >= 0:
                    ntype.append(t)
                    ncnt.append(f)
                elif f:
                    for member in range(j + i, j + e):
                        done[member] += [masks[ptype[p]] | bit] * f
            nstart.append(len(ntype))
    nfirst.append(first[-1])
    return [masks[t] for t in keep] + [masks[t] | bit for t in grow], nfirst, nslots, nstart, ntype, ncnt


def _self_check(plan: PartitionPlan, classes: tuple[tuple[int, ...], ...]) -> None:
    """Engine-side sanity check (a failure is a bug, not bad input): the verifier's
    checks, the spread last because it indexes degrees by label."""
    lo, hi = plan.ground
    if (detail := sizes_detail(classes, plan.sizes)) is not None:
        raise ConstructionError(f"class sizes drifted from the plan: {detail}")
    if (detail := family_detail(classes, lo, hi, plan.k)) is not None:
        raise ConstructionError(f"classes do not partition the full family: {detail}")
    if (detail := spread_detail(classes, lo, hi)) is not None:
        raise ConstructionError(detail)


def _check_cap(edges: int, cap: int | None) -> None:
    """Refuse work on more than ``cap`` hyperedges (``DEFAULT_EDGE_CAP`` when None)."""
    limit = DEFAULT_EDGE_CAP if cap is None else cap
    if edges > limit:
        raise ResourceCapError(f"{edges} hyperedges, above the cap of {limit}")


def _uniform_plan(ground: tuple[int, int], k: int, block_size: int, cap: int | None) -> PartitionPlan:
    """The ground's k-sets in classes of ``block_size`` and a remainder, capped first."""
    total = binomial(ground[1] - ground[0] + 1, k)
    _check_cap(total, cap)  # before the size vector, which may not fit in memory
    return PartitionPlan(ground, k, uniform_sizes(total, block_size))


def almost_regular_partition(plan: PartitionPlan, cap: int | None = None) -> AlmostRegularPartition:
    """Partition the k-subsets of the plan's ground into almost-regular classes.

    Deterministic: the same plan always yields the identical partition.
    """
    _check_cap(plan.edge_count, cap)
    g, k, sizes = plan.ground_size, plan.k, plan.sizes
    n = len(sizes)
    # Types are the distinct unfinished masks.  Group g is classes
    # first[g]..first[g+1]-1, each with slots[g] free label slots and runs
    # cstart[g]..cstart[g+1]-1 in mask order: pair p is cnt[p] copies of
    # type ptype[p].  At first there is one type, the empty mask.
    first = [j for j in range(n) if not j or sizes[j] != sizes[j - 1]]
    lead = [sizes[j] for j in first]
    state = ([0], first + [n], [k * a for a in lead], list(range(len(first) + 1)), [0] * len(first), lead)
    done: list[list[int]] = [[] for _ in sizes]
    for v in range(1, g + 1):
        state = _absorption_step(state, done, k, v, g - v + 1)

    unfinished_types = state[0]
    if unfinished_types or any(len(set(cls)) != len(cls) for cls in done):
        raise ConstructionError("a class finished with unfinished or duplicated edges")
    shift = plan.ground[0] - 1
    result = tuple(tuple(sorted(mask << shift for mask in cls)) for cls in done)
    _self_check(plan, result)
    return AlmostRegularPartition(plan=plan, classes=result)


class _PlanMemo:
    """Local partitions by ``(g, k, sizes)``, least recently used evicted first.

    ``edges`` counts the masks held and never exceeds ``bound``; an entry
    larger than the bound is not stored.  The lock makes each lookup and
    insertion atomic; the engine runs outside it, so two threads may both
    solve a plan and the second one's store is dropped.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.entries: OrderedDict[tuple, array] = OrderedDict()
        self.edges = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> array | None:
        with self._lock:
            flat = self.entries.get(key)
            if flat is not None:
                self.entries.move_to_end(key)
            return flat

    def put(self, key: tuple, flat: array) -> None:
        if len(flat) > self.bound:
            return
        with self._lock:
            if key in self.entries:
                return
            self.entries[key] = flat
            self.edges += len(flat)
            while self.edges > self.bound:
                self.edges -= len(self.entries.popitem(last=False)[1])


_MEMO = _PlanMemo(MEMO_EDGE_BOUND)


def _anchored(anchor: int, ground: tuple[int, int], k: int, l: int, cap: int | None) -> CoveredPartition:
    """The k-sets made of ``anchor`` and k - 1 labels of ``ground``, in blocks of l."""
    plan = _uniform_plan(ground, k - 1, l, cap)
    key, shift = (plan.ground_size, plan.k, plan.sizes), ground[0] - 1
    flat = _MEMO.get(key)
    if flat is None:
        base = almost_regular_partition(plan, cap=cap)
        _MEMO.put(key, array("Q", [m >> shift for cls in base.classes for m in cls]))
    else:
        masks = [m << shift for m in flat]
        classes = tuple(tuple(masks[end - a:end]) for a, end in zip(plan.sizes, accumulate(plan.sizes)))
        _self_check(plan, classes)
        base = AlmostRegularPartition(plan=plan, classes=classes)
    bit = 1 << (anchor - 1)
    blocks = tuple(tuple(bit | m for m in cls) for cls in base.classes)
    guaranteed, floor = plan.sizes.count(l), min(plan.ground_size + 1, l * (k - 1) + 1)
    for idx in range(guaranteed):
        covered = union_mask(blocks[idx]).bit_count()
        if covered < floor:
            raise ConstructionError(f"block {idx} covers {covered} labels, below the floor of {floor}")
    return CoveredPartition(
        base=base, anchor=anchor, blocks=blocks, guaranteed_blocks=guaranteed, coverage_floor=floor
    )


def partition_A(i: int, p: Params, l: int, cap: int | None = None) -> CoveredPartition:
    """Split the family anchored at smallest label i into blocks of size l.

    Produces floor(C(n-i, k-1) / l) blocks of size exactly l plus one
    remainder block when l does not divide the family size.  Each full block
    covers at least min(n - i + 1, l*(k-1) + 1) labels.
    """
    n, k = p.n, p.k
    if not 1 <= i <= n - k + 1:
        raise ParameterError(f"anchor i = {i} outside [1, {n - k + 1}]")
    family_size = binomial(n - i, k - 1)
    if not 1 <= l <= family_size:
        raise ParameterError(f"block size l = {l} outside [1, {family_size}]")
    return _anchored(i, (i + 1, n), k, l, cap)


def partition_C(p: Params, l: int, cap: int | None = None) -> CoveredPartition:
    """Split the family of k-subsets containing label n into blocks of size l.

    Produces floor(C(n-1, k-1) / l) blocks of size l plus a remainder block;
    each full block covers at least min(n, l*(k-1) + 1) labels.
    """
    n, k = p.n, p.k
    family_size = binomial(n - 1, k - 1)
    if not 2 <= l <= family_size:
        raise ParameterError(f"block size l = {l} outside [2, {family_size}]")
    return _anchored(n, (1, n - 1), k, l, cap)
