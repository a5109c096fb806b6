import functools
import random
import re
import sys
import threading
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kneser_minors import (
    AlmostRegularPartition,
    ConstructionError,
    ParameterError,
    Params,
    PartitionPlan,
    ResourceCapError,
    almost_regular_partition,
    binomial,
    build_coloring,
    enumerate_family,
    kset_mask,
    partition_A,
    partition_C,
    uniform_sizes,
    union_mask,
    verify_partition,
)
from kneser_minors import baranyai
from kneser_minors.core import spread_detail
from kneser_minors.cli import main
from kneser_minors.serialize import dumps_canonical, partition_to_dict
from oracles import (
    almost_regular_partition_reference,
    base_partition,
    covered_labels,
    exhaustive_partition_feasible,
    max_flow_reference,
    remainder_block,
    verify_partition_by_definition,
)


def degree_profile(cls, lo, hi):
    degs = {x: 0 for x in range(lo, hi + 1)}
    for mask in cls:
        for x in range(lo, hi + 1):
            if mask & (1 << (x - 1)):
                degs[x] += 1
    return degs


class TestPlan:
    def test_sum_mismatch(self):
        with pytest.raises(ParameterError):
            PartitionPlan((1, 4), 2, (2, 2))

    def test_nonpositive_size(self):
        with pytest.raises(ParameterError):
            PartitionPlan((1, 4), 2, (6, 0))

    def test_uniform_sizes(self):
        assert uniform_sizes(10, 3) == (3, 3, 3, 1)
        assert uniform_sizes(6, 3) == (3, 3)
        assert uniform_sizes(2, 5) == (2,)

    @pytest.mark.parametrize("total,block_size", [(0, 2), (-4, 2), (6, 0), (6, -2)])
    def test_uniform_sizes_refuses_a_total_or_block_size_below_one(self, total, block_size):
        with pytest.raises(ParameterError, match="^total and block_size must be positive$"):
            uniform_sizes(total, block_size)


class TestEngine:
    def test_single_hyperedge(self):
        part = almost_regular_partition(PartitionPlan((1, 3), 3, (1,)))
        assert part.classes == ((kset_mask([1, 2, 3]),),)

    def test_k4_one_factorization(self):
        part = almost_regular_partition(PartitionPlan((1, 4), 2, (2, 2, 2)))
        assert len(part.classes) == 3
        for cls in part.classes:
            # each class is a perfect matching: every degree exactly 1
            assert set(degree_profile(cls, 1, 4).values()) == {1}
        assert verify_partition(part).passed

    def test_resolution_into_triples(self):
        # 28 classes of three triples each; 3*3 = 9 forces every degree to 1.
        part = almost_regular_partition(PartitionPlan((1, 9), 3, (3,) * 28))
        assert len(part.classes) == 28
        for cls in part.classes:
            assert set(degree_profile(cls, 1, 9).values()) == {1}
        assert verify_partition(part).passed

    def test_cap(self):
        plan = PartitionPlan((1, 9), 3, (3,) * 28)
        with pytest.raises(ResourceCapError):
            almost_regular_partition(plan, cap=10)

    @pytest.mark.parametrize("build", [
        lambda p: partition_A(1, p, 2),
        lambda p: partition_C(p, 2),
        build_coloring,
    ], ids=["partition_A", "partition_C", "build_coloring"])
    def test_cap_comes_before_the_size_vector(self, build):
        # About 4e17 classes of size 2: the size vector alone cannot be allocated.
        with pytest.raises(ResourceCapError, match="above the cap of 20000"):
            build(Params(64, 31))

    def test_deterministic_bytes(self):
        plan = PartitionPlan((1, 8), 3, uniform_sizes(binomial(8, 3), 4))
        one = dumps_canonical(partition_to_dict(almost_regular_partition(plan)))
        two = dumps_canonical(partition_to_dict(almost_regular_partition(plan)))
        assert one == two

    @pytest.mark.parametrize("g,k,l", [(5, 2, 2), (6, 3, 4), (7, 3, 3), (8, 2, 5), (10, 4, 6)])
    def test_uniform_plans_verify(self, g, k, l):
        plan = PartitionPlan((1, g), k, uniform_sizes(binomial(g, k), l))
        part = almost_regular_partition(plan)
        report = verify_partition(part)
        assert report.passed, report.summary_lines()

    def test_shifted_ground(self):
        plan = PartitionPlan((4, 9), 2, uniform_sizes(binomial(6, 2), 3))
        part = almost_regular_partition(plan)
        assert verify_partition(part).passed
        assert sorted(m for cls in part.classes for m in cls) == enumerate_family(4, 9, 2)


class TestOracle:
    def test_small_plans_feasible_and_engine_agrees(self):
        for g in range(3, 8):
            for k in range(1, g + 1):
                total = binomial(g, k)
                if total > 30:
                    continue
                for l in (1, 2, 3):
                    plan = PartitionPlan((1, g), k, uniform_sizes(total, l))
                    assert exhaustive_partition_feasible(plan)
                    assert verify_partition(almost_regular_partition(plan)).passed

    def test_oracle_cap(self):
        with pytest.raises(ResourceCapError):
            exhaustive_partition_feasible(PartitionPlan((1, 10), 3, (120,)))


class TestPartitionA:
    def test_singleton_family(self):
        cov = partition_A(5, Params(7, 3), 1)
        assert cov.guaranteed_blocks == 1
        assert cov.blocks == ((kset_mask([5, 6, 7]),),)
        assert cov.coverage_floor == 3  # min(3, 3)

    def test_seven_triples(self):
        cov = partition_A(2, Params(9, 3), 3)
        assert cov.guaranteed_blocks == 7
        assert remainder_block(cov) is None
        assert cov.coverage_floor == 7  # min(8, 7)
        for block in cov.blocks:
            assert len(block) == 3
            assert len(covered_labels(block)) >= 7

    def test_remainder_and_exact_coverage(self):
        cov = partition_A(1, Params(13, 3), 4)
        assert cov.guaranteed_blocks == 16  # floor(66 / 4)
        assert remainder_block(cov) is not None and len(remainder_block(cov)) == 2
        assert cov.coverage_floor == 9  # min(13, 9)
        for block in cov.blocks[:16]:
            # n - i > l(k-1), so members minus the anchor are pairwise
            # disjoint and coverage is exactly l(k-1) + 1
            assert len(covered_labels(block)) == 9

    def test_covers_whole_interval_when_blocks_are_large(self):
        # n - i <= l(k-1): every guaranteed block covers all of [i, n]
        cov = partition_A(1, Params(9, 3), 5)
        assert cov.coverage_floor == 9
        for block in cov.blocks[: cov.guaranteed_blocks]:
            assert covered_labels(block) == set(range(1, 10))

    def test_strip_anchor_recovers_base(self):
        p = Params(11, 3)
        cov = partition_A(3, p, 4)
        bit = 1 << 2
        assert all(m & bit for block in cov.blocks for m in block)
        assert verify_partition(base_partition(cov)).passed

    def test_bad_arguments(self):
        p = Params(9, 3)
        with pytest.raises(ParameterError):
            partition_A(0, p, 2)
        with pytest.raises(ParameterError):
            partition_A(8, p, 2)
        with pytest.raises(ParameterError):
            partition_A(1, p, 29)  # C(8,2) = 28


class TestPartitionC:
    def test_14_3(self):
        cov = partition_C(Params(14, 3), 4)
        assert cov.guaranteed_blocks == 19
        assert remainder_block(cov) is not None and len(remainder_block(cov)) == 2
        assert cov.coverage_floor == 9  # min(14, 9)
        anchor_bit = 1 << 13
        for block in cov.blocks[:19]:
            assert all(m & anchor_bit for m in block)
            assert len(covered_labels(block)) >= 9

    def test_11_3(self):
        cov = partition_C(Params(11, 3), 3)
        assert cov.guaranteed_blocks == 15
        assert cov.coverage_floor == 7
        for block in cov.blocks[:15]:
            assert len(covered_labels(block)) >= 7

    def test_full_coverage_when_interval_small(self):
        # n = 3k - 1 with l = 3: blocks cover min(n, 3k-2) = 3k-2 labels
        for k in (3, 4):
            p = Params(3 * k - 1, k)
            cov = partition_C(p, 3)
            assert cov.coverage_floor == 3 * k - 2
            for block in cov.blocks[: cov.guaranteed_blocks]:
                assert len(covered_labels(block)) >= 3 * k - 2

    def test_union_is_the_anchored_family(self):
        p = Params(9, 3)
        cov = partition_C(p, 4)
        members = sorted(m for block in cov.blocks for m in block)
        anchor_bit = 1 << 8
        expected = sorted(anchor_bit | m for m in enumerate_family(1, 8, 2))
        assert members == expected

    def test_l_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            partition_C(Params(9, 3), 1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda p: partition_A(0, p, 2), "anchor i = 0 outside [1, 7]"),
        (lambda p: partition_A(8, p, 2), "anchor i = 8 outside [1, 7]"),
        (lambda p: partition_A(1, p, 0), "block size l = 0 outside [1, 28]"),
        (lambda p: partition_A(1, p, 29), "block size l = 29 outside [1, 28]"),
        (lambda p: partition_C(p, 1), "block size l = 1 outside [2, 28]"),
        (lambda p: partition_C(p, 29), "block size l = 29 outside [2, 28]"),
    ],
    ids=["A-anchor-0", "A-anchor-8", "A-block-0", "A-block-29", "C-block-1", "C-block-29"],
)
def test_anchored_argument_errors(call, message):
    # C(8, 2) = 28 members in each family of (9, 3) the calls ask for.
    with pytest.raises(ParameterError) as info:
        call(Params(9, 3))
    assert type(info.value) is ParameterError and str(info.value) == message


@st.composite
def engine_partitions(draw):
    """Engine partitions of the k-subsets of a ground of at most 8 labels."""
    g = draw(st.integers(1, 8) | st.integers(5, 8))
    k = draw(st.integers(1, g))
    lo = draw(st.integers(1, 64 - g + 1))
    total = binomial(g, k)
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=1, max_size=6))) if total > 1 else []
    sizes = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
    return almost_regular_partition(PartitionPlan((lo, lo + g - 1), k, sizes))


class TestSharedPartitionCheck:
    @settings(max_examples=200, deadline=None)
    @given(engine_partitions(), st.data())
    def test_agrees_with_the_enumeration_reference(self, part, data):
        # Swap members between classes, replace one with any mask of 1-64
        # bits, overwrite one with a copy of another, or drop one.
        classes = [list(cls) for cls in part.classes]
        for _ in range(data.draw(st.integers(0, 2))):
            slots = [(ci, mi) for ci, cls in enumerate(classes) for mi in range(len(cls))]
            if not slots:
                break
            ci, mi = data.draw(st.sampled_from(slots))
            kind = data.draw(st.sampled_from(["swap", "replace", "duplicate", "drop"]))
            others = [(cj, mj) for cj, mj in slots if cj != ci]
            if kind == "swap":
                if others:
                    cj, mj = data.draw(st.sampled_from(others))
                    classes[ci][mi], classes[cj][mj] = classes[cj][mj], classes[ci][mi]
            elif kind == "replace":
                classes[ci][mi] = data.draw(st.integers(1, 2**64 - 1))
            elif kind == "duplicate":
                cj, mj = data.draw(st.sampled_from(slots))
                classes[cj][mj] = classes[ci][mi]
            else:
                del classes[ci][mi]
        classes = tuple(map(tuple, classes))
        accepted = not any(verify_partition_by_definition(part.plan, classes).values())
        if accepted:
            baranyai._self_check(part.plan, classes)
        else:
            with pytest.raises(ConstructionError):
                baranyai._self_check(part.plan, classes)
        assert verify_partition(AlmostRegularPartition(part.plan, classes)).passed is accepted


@st.composite
def repeated_size_plans(draw):
    """Plans on at most 8 labels whose sizes come in runs of equal values."""
    g = draw(st.integers(1, 8) | st.integers(5, 8))
    k = draw(st.integers(1, g))
    total = binomial(g, k)
    if draw(st.booleans()):
        sizes = list(uniform_sizes(total, draw(st.integers(1, total))))
    else:
        sizes, left = [], total
        while left:
            a = draw(st.integers(1, left))
            sizes += [a] * draw(st.integers(1, left // a))
            left = total - sum(sizes)
    lo = draw(st.integers(1, 64 - g + 1))
    return PartitionPlan((lo, lo + g - 1), k, tuple(sizes))


@st.composite
def distinct_neighbour_plans(draw):
    """Plans on at most 8 labels with no two consecutive sizes equal."""
    g = draw(st.integers(1, 8) | st.integers(5, 8))
    k = draw(st.integers(1, g))
    total = binomial(g, k)
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=6))) if total > 1 else []
    sizes = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
    assume(all(a != b for a, b in zip(sizes, sizes[1:])))
    lo = draw(st.integers(1, 64 - g + 1))
    return PartitionPlan((lo, lo + g - 1), k, sizes)


class TestPerClassReference:
    """The engine solves each label step on groups of identical classes; the
    reference solves one flow node per class."""

    @settings(max_examples=200, deadline=None)
    @given(repeated_size_plans())
    def test_both_engines_are_valid_on_repeated_sizes(self, plan):
        for part in (almost_regular_partition(plan), almost_regular_partition_reference(plan)):
            assert not any(verify_partition_by_definition(plan, part.classes).values())
            assert verify_partition(part).passed

    @settings(max_examples=200, deadline=None)
    @given(repeated_size_plans() | distinct_neighbour_plans())
    def test_every_label_step_state_is_consistent(self, plan):
        states = []

        def recording(*args):
            states.append(step(*args))
            return states[-1]

        step = baranyai._absorption_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baranyai, "_absorption_step", recording)
            almost_regular_partition(plan)
        assert len(states) == plan.ground_size
        for v, (masks, first, slots, cstart, ptype, cnt) in enumerate(states, 1):
            assert first[0] == 0 and first[-1] == len(plan.sizes)
            assert all(a < b for a, b in zip(first, first[1:]))
            assert masks == sorted(set(masks)) and sorted(set(ptype)) == list(range(len(masks)))
            assert len(cstart) == len(first) and cstart[0] == 0 and cstart[-1] == len(ptype)
            assert all(a <= b for a, b in zip(cstart, cstart[1:]))
            assert len(ptype) == len(cnt) and all(c > 0 for c in cnt)
            for g in range(len(first) - 1):
                runs = range(cstart[g], cstart[g + 1])
                assert all(ptype[p] < ptype[p + 1] for p in runs[:-1])
                assert slots[g] == sum(cnt[p] * (plan.k - masks[ptype[p]].bit_count()) for p in runs)
            # Each copy of a type of s labels stands for one of its C(unplaced, k - s) completions.
            copies = [0] * len(masks)
            for g in range(len(first) - 1):
                for p in range(cstart[g], cstart[g + 1]):
                    copies[ptype[p]] += (first[g + 1] - first[g]) * cnt[p]
            unplaced = plan.ground_size - v
            assert copies == [binomial(unplaced, plan.k - mask.bit_count()) for mask in masks]

    @settings(max_examples=200, deadline=None)
    @given(distinct_neighbour_plans())
    def test_single_member_groups_give_the_reference_classes(self, plan):
        assert almost_regular_partition(plan).classes == almost_regular_partition_reference(plan).classes

    @pytest.mark.parametrize("g,k,l", [(11, 3, 3), (12, 4, 3), (12, 4, 7), (10, 5, 4)])
    def test_uniform_plans_start_as_at_most_two_groups(self, monkeypatch, g, k, l):
        nodes = []

        def counting(sres, *args):
            nodes.append(len(sres))
            return flow(sres, *args)

        flow = baranyai._max_flow
        monkeypatch.setattr(baranyai, "_max_flow", counting)
        sizes = uniform_sizes(binomial(g, k), l)
        part = almost_regular_partition(PartitionPlan((1, g), k, sizes))
        assert verify_partition(part).passed
        assert nodes[0] == 1 + (sizes[-1] != l)
        assert nodes[0] < max(nodes) <= len(sizes)


@st.composite
def flow_networks(draw):
    """A label step's network in the engine's layout: per group its floor load
    and the rise to its ceiling, pairs in type order, per type its demand."""
    ng, nt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cstart, pclass, ptype, cnt = [0], [], [], []
    for j in range(ng):
        for t in sorted(draw(st.sets(st.integers(0, nt - 1)))):
            pclass.append(j)
            ptype.append(t)
            cnt.append(draw(st.integers(1, 6)))
        cstart.append(len(ptype))
    floor = draw(st.lists(st.integers(0, 8), min_size=ng, max_size=ng))
    rise = draw(st.lists(st.integers(0, 3), min_size=ng, max_size=ng))
    demand = draw(st.lists(st.integers(0, 10), min_size=nt, max_size=nt))
    return floor, rise, cstart, pclass, ptype, cnt, pairs_by_type(ptype, nt), demand


def pairs_by_type(ptype, types):
    return [[p for p, u in enumerate(ptype) if u == t] for t in range(types)]


def recorded_networks(plan):
    """The networks of every label step the engine solves on ``plan``."""
    calls = []

    def recording(sres, cstart, pclass, ptype, cnt, flow, tpairs, tres):
        calls.append((sres[:], cstart, pclass, ptype, cnt, tres[:]))
        return solve(sres, cstart, pclass, ptype, cnt, flow, tpairs, tres)

    solve = baranyai._max_flow
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baranyai, "_max_flow", recording)
        almost_regular_partition(plan)
    return [
        (floor, rise, cstart, pclass, ptype, cnt, pairs_by_type(ptype, len(demand)), demand)
        for (floor, cstart, pclass, ptype, cnt, demand), (rise, *_) in zip(calls[::2], calls[1::2])
    ]


def floor_then_ceiling(solve, network):
    """Each solve's added flow and the arrays after it, as ``_absorption_step``
    runs them: up to the floor loads, then, if those are met, up to the ceilings."""
    floor, rise, cstart, pclass, ptype, cnt, tpairs, demand = network
    sres, flow, tres = floor[:], [0] * len(cnt), demand[:]

    def run():
        before = sres[:], tres[:]
        added = solve(sres, cstart, pclass, ptype, cnt, flow, tpairs, tres)
        return added, before, (sres[:], flow[:], tres[:])

    runs = [run()]
    if runs[0][0] == sum(floor):
        sres[:] = [r + x for r, x in zip(sres, rise)]
        runs.append(run())
    return runs


class TestMaxFlow:
    """Push-relabel against the Dinic solver it replaced, on the engine's arrays."""

    def check(self, network):
        floor, rise, cstart, pclass, ptype, cnt, tpairs, demand = network
        runs = floor_then_ceiling(baranyai._max_flow, network)
        assert runs == floor_then_ceiling(baranyai._max_flow, network)
        assert [added for added, *_ in runs] == [added for added, *_ in floor_then_ceiling(max_flow_reference, network)]
        loads = [0] * len(floor)  # flow on each source arc
        for added, (sres0, tres0), (sres, flow, tres) in runs:
            assert all(0 <= f <= c for f, c in zip(flow, cnt))
            assert all(0 <= r <= r0 for r, r0 in zip(sres, sres0)) and all(0 <= r <= r0 for r, r0 in zip(tres, tres0))
            if added == min(sum(sres0), sum(tres0)):  # no excess stranded, so a flow
                loads = [load + r0 - r for load, r0, r in zip(loads, sres0, sres)]
                assert [sum(flow[cstart[j]:cstart[j + 1]]) for j in range(len(floor))] == loads
                assert [sum(flow[p] for p in pairs) for pairs in tpairs] == [d - r for d, r in zip(demand, tres)]
        if len(runs) == 2:  # the ceiling solve lowers no floor load
            assert all(r <= x for r, x in zip(runs[1][2][0], rise))

    @settings(max_examples=300, deadline=None)
    @given(flow_networks())
    # Demands 6 < floors 7, so the excess starts at the types.  The greedy
    # sweep fills groups 0 and 1 from type 0, so type 1's 2 go to group 0,
    # which returns 1 to type 0 and relabels to 5, the count of all nodes: its
    # last unit drains only by the path through every node (type 1, group 1,
    # type 0, group 2).
    @example((
        [1, 3, 3], [2, 1, 0], [0, 2, 4, 5], [0, 0, 1, 1, 2], [0, 1, 0, 1, 0], [3, 2, 3, 1, 3],
        [[0, 2, 4], [1, 3]], [4, 2],
    ))
    def test_random_networks(self, network):
        self.check(network)

    @settings(max_examples=60, deadline=None)
    @given(repeated_size_plans())
    def test_recorded_label_steps(self, plan):
        for network in recorded_networks(plan):
            self.check(network)

    @pytest.mark.parametrize(
        "state,v,stage",
        [
            # k = 3 on 6 labels.  Group 0 must place 2 copies on its floor
            # load but holds 1 copy of its only type: excess strands at a group.
            (([0, 1], [0, 1, 2], [10, 10], [0, 1, 2], [0, 1], [1, 5]), 2, "per-class floor loads"),
            # Type 0 needs 3 copies to absorb label 3, but its only group takes
            # 1 more; the ceilings hold more than the demands, so the excess
            # starts at the types and strands at type 0.
            (
                ([1, 3], [0, 1, 2, 3, 4, 5], [3] * 5, [0, 1, 2, 3, 4, 5], [0, 1, 1, 1, 1], [3, 1, 1, 1, 1]),
                3,
                "absorption demands",
            ),
        ],
    )
    def test_an_infeasible_step_is_a_construction_error(self, state, v, stage):
        with pytest.raises(ConstructionError, match=f"label step {v}: could not meet {stage}"):
            baranyai._absorption_step(state, [[] for _ in range(state[1][-1])], 3, v, 6 - v + 1)


@st.composite
def two_label_states(draw):
    """A label step's state with two labels unplaced, as the engine holds it.

    Groups have one or two members.  A type of k - 2 labels is one copy in a
    one-member group; a type of k - 1 labels is two copies: a loop pair (cnt 2
    in a one-member group, or cnt 1 in a two-member group) or one copy in each
    of two one-member groups.  Returns the state, k and v.
    """
    k = draw(st.integers(2, 5))
    placed = draw(st.integers(k - 1, 7))
    masks = sorted(draw(st.sets(
        st.sampled_from([m for m in range(1 << placed) if m.bit_count() in (k - 2, k - 1)]), min_size=1, max_size=8
    )))
    mult = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=6))
    ones, twos = [g for g, m in enumerate(mult) if m == 1], [g for g, m in enumerate(mult) if m == 2]
    assume(len(ones) >= 2)
    runs = [[] for _ in mult]  # per group, (type id, cnt) in type order
    for t, mask in enumerate(masks):
        kind = "one" if mask.bit_count() == k - 2 else draw(st.sampled_from(["loop", "edge"] + ["pair"] * bool(twos)))
        if kind == "one":
            runs[draw(st.sampled_from(ones))].append((t, 1))
        elif kind == "loop":
            runs[draw(st.sampled_from(ones))].append((t, 2))
        elif kind == "pair":
            runs[draw(st.sampled_from(twos))].append((t, 1))
        else:
            for g in draw(st.lists(st.sampled_from(ones), min_size=2, max_size=2, unique=True)):
                runs[g].append((t, 1))
    first = [0, *accumulate(mult)]
    slots = [sum(c * (k - masks[t].bit_count()) for t, c in run) for run in runs]
    cstart = [0, *accumulate(len(run) for run in runs)]
    ptype, cnt = [t for run in runs for t, _ in run], [c for run in runs for _, c in run]
    return (masks, first, slots, cstart, ptype, cnt), k, placed + 1


def step_network(state, k, unplaced):
    """A label step's network in the ``flow_networks`` layout, derived as ``_absorption_step`` does."""
    masks, first, slots, cstart, ptype, cnt = state
    mult = [b - a for a, b in zip(first, first[1:])]
    pclass = [g for g in range(len(mult)) for _ in range(cstart[g], cstart[g + 1])]
    floor = [m * (a // unplaced) for m, a in zip(mult, slots)]
    rise = [m * (a % unplaced > 0) for m, a in zip(mult, slots)]
    demand = [binomial(unplaced - 1, k - mask.bit_count() - 1) for mask in masks]
    cap = [mult[g] * c for g, c in zip(pclass, cnt)]
    return floor, rise, cstart, pclass, ptype, cap, pairs_by_type(ptype, len(masks)), demand


def recorded_closing_steps(plan):
    """The input of every label step with one or two labels unplaced the engine runs on ``plan``."""
    steps = []

    def recording(state, done, k, v, unplaced):
        if unplaced <= 2:
            steps.append((state, k, v, unplaced))
        return step(state, done, k, v, unplaced)

    step = baranyai._absorption_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baranyai, "_absorption_step", recording)
        almost_regular_partition(plan)
    return steps


class TestClosingSteps:
    """The last two label steps take a closed form in place of two flow solves."""

    def check(self, state, k, v, unplaced):
        network = step_network(state, k, unplaced)
        floor, rise, cstart, pclass, ptype, cap, tpairs, demand = network
        flow = cap[:] if unplaced == 1 else baranyai._euler_split(len(floor), pclass, tpairs)
        assert all(0 <= f <= c for f, c in zip(flow, cap))
        loads = [sum(flow[lo:hi]) for lo, hi in zip(cstart, cstart[1:])]
        assert all(lo <= x <= lo + r for x, lo, r in zip(loads, floor, rise))
        assert [sum(flow[p] for p in pairs) for pairs in tpairs] == demand
        assert sum(flow) == sum(added for added, *_ in floor_then_ceiling(max_flow_reference, network))
        # The step deals each member the floor or ceiling of its own load.
        masks, first, slots = state[:3]
        done = [[] for _ in range(first[-1])]
        nmasks, nfirst, nslots, _, ntype, ncnt = baranyai._absorption_step(state, done, k, v, unplaced)
        before = [a for a, lo, hi in zip(slots, first, first[1:]) for _ in range(lo, hi)]
        after = [a for a, lo, hi in zip(nslots, nfirst, nfirst[1:]) for _ in range(lo, hi)]
        assert all(a // unplaced <= a - b <= -(a // -unplaced) for a, b in zip(before, after))
        # A group's units, pair by pair, go to member u mod m; a finished type's mask plus v is
        # written once per unit of its pair, in pair order, to the member's class.
        bit, want = 1 << (v - 1), []
        for g, (lo, hi) in enumerate(zip(first, first[1:])):
            units = [masks[ptype[p]] for p in range(cstart[g], cstart[g + 1]) for _ in range(flow[p])]
            want += [[mask | bit for mask in units[i::hi - lo] if mask.bit_count() == k - 1] for i in range(hi - lo)]
        assert done == want
        if unplaced == 1:  # every copy finished: no type is left and no slot is free
            assert (nmasks, ntype, ncnt) == ([], [], []) and not any(nslots)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]), max_size=14))
    @example([(0, 1), (0, 2), (1, 3)])  # a walk from group 0 that stopped at group 3 would leave 0 heading none
    def test_split_gives_every_group_half_its_edge_ends(self, edges):
        # Type t is edge t: one pair in each of its two groups, pairs laid out by group.
        groups = 6
        ends = sorted((g, t) for t, edge in enumerate(edges) for g in edge)
        pgroup = [g for g, _ in ends]
        tpairs = pairs_by_type([t for _, t in ends], len(edges))
        flow = baranyai._euler_split(groups, pgroup, tpairs)
        assert [sum(flow[p] for p in pairs) for pairs in tpairs] == [1] * len(edges)
        for g in range(groups):
            degree = sum(edge.count(g) for edge in edges)
            assert degree // 2 <= sum(f for f, h in zip(flow, pgroup) if h == g) <= -(degree // -2)

    @settings(max_examples=300, deadline=None)
    @given(two_label_states())
    def test_random_two_label_states(self, drawn):
        state, k, v = drawn
        self.check(state, k, v, 2)

    @settings(max_examples=100, deadline=None)
    @given(repeated_size_plans() | distinct_neighbour_plans())
    @example(PartitionPlan((1, 8), 3, uniform_sizes(56, 2)))
    @example(PartitionPlan((1, 9), 3, (10, 20, 30, 24)))
    def test_recorded_closing_steps(self, plan):
        for step in recorded_closing_steps(plan):
            self.check(*step)

    def test_recorded_two_label_steps_reach_every_branch(self):
        # A uniform plan (repeated sizes) and the CLI's sizes plan (distinct neighbours).
        kinds = set()
        for plan in (PartitionPlan((1, 8), 3, uniform_sizes(56, 2)), PartitionPlan((1, 9), 3, (10, 20, 30, 24))):
            for state, k, v, unplaced in recorded_closing_steps(plan):
                if unplaced == 2:
                    floor, rise, cstart, pclass, ptype, cap, tpairs, demand = step_network(state, k, unplaced)
                    mult = [b - a for a, b in zip(state[1], state[1][1:])]
                    kinds |= {"multi-member group" for g in pclass if mult[g] > 1}
                    kinds |= {"loop pair" if cap[pairs[0]] == 2 else "k - 2 type" for pairs in tpairs if len(pairs) == 1}
                    kinds |= {"edge" for pairs in tpairs if len(pairs) == 2}
        assert kinds == {"multi-member group", "loop pair", "k - 2 type", "edge"}

    @pytest.mark.parametrize(
        "state,v,unplaced,message",
        [
            # k = 3: a type of k - 1 labels has three copies, one in each of three groups.
            (([0b011], [0, 1, 2, 3], [1, 1, 1], [0, 1, 2, 3], [0, 0, 0], [1, 1, 1]), 4, 2, "a type's copies in all"),
            # The same three copies in one pair.
            (([0b011], [0, 1], [3], [0, 1], [0], [3]), 4, 2, "a type's copies in all"),
            # A copy of k - 2 labels needs two more at the last step.
            (([0b0001], [0, 1], [2], [0, 1], [0], [1]), 5, 1, "a type's copies in all"),
            # Well-formed copies, but the class claims four free slots for a loop pair's two.
            (([0b011], [0, 1], [4], [0, 1], [0], [2]), 4, 2, "could not meet per-class floor and ceiling loads"),
            # Well-formed copies, but the class claims two free slots for one copy at the last step.
            (([0b0011], [0, 1], [2], [0, 1], [0], [1]), 5, 1, "could not meet per-class loads"),
            # Well-formed copies, but the class claims no free slot for the loop pair's one absorbed copy.
            (([0b011], [0, 1], [0], [0, 1], [0], [2]), 4, 2, "could not meet per-class floor and ceiling loads"),
            # Two loop pairs each absorb a copy, above the ceiling of one of a class with two free slots.
            (([0b011, 0b101], [0, 1], [2], [0, 2], [0, 1], [2, 2]), 4, 2,
             "could not meet per-class floor and ceiling loads"),
        ],
        ids=["three-copies-in-three-groups", "three-copies-in-one-pair", "two-labels-at-the-last-step",
             "slots-above-a-loop-pair", "slots-above-the-last-copy", "no-slot-for-a-loop-pair",
             "two-loop-pairs-for-two-slots"],
    )
    def test_a_malformed_closing_step_is_a_construction_error(self, state, v, unplaced, message):
        with pytest.raises(ConstructionError, match=f"^label step {v}: {message}"):
            baranyai._absorption_step(state, [[] for _ in range(state[1][-1])], 3, v, unplaced)


def test_classes_off_the_plan_sizes_are_a_construction_error():
    plan = PartitionPlan((1, 4), 2, (2, 2, 2))
    classes = almost_regular_partition(plan).classes
    drifted = (classes[0] + classes[1][:1], classes[1][1:], classes[2])
    message = "class sizes drifted from the plan: class sizes (3, 1, 2) != plan (2, 2, 2)"
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        baranyai._self_check(plan, drifted)


def test_circle_cut_classes_are_matchings():
    # Up to g / 2 pairs a class, every class of the circle cut, the remainder
    # too, is a matching, so its degree spread is at most one: below g / 2 by
    # the order, at g / 2 (even g) as one whole round.  Every plan the cut can
    # be given, g <= 64, is checked, and passes the engine's self-check (sizes,
    # family and spread), which the cut does not run itself.
    plans = 0
    for g in range(2, 65):
        for l in range(1, g // 2 + 1):
            plan = PartitionPlan((1, g), 2, uniform_sizes(binomial(g, 2), l))
            classes = baranyai._circle_partition(g, plan.sizes)
            baranyai._self_check(plan, classes)
            for cls in classes:
                assert union_mask(cls).bit_count() == 2 * len(cls), (g, l, cls)
            plans += 1
    assert plans == 1024


@pytest.fixture
def solved(monkeypatch):
    """The plans the engine is asked to solve, in order."""
    plans, engine = [], baranyai.almost_regular_partition

    def counting(plan, cap=None):
        plans.append(plan)
        return engine(plan, cap=cap)

    monkeypatch.setattr(baranyai, "almost_regular_partition", counting)
    return plans


def memo_key(cov):
    return (cov.plan.ground_size, cov.plan.k, cov.plan.sizes)


def counts(memo):
    """The memo's hits, misses and plans held."""
    info = memo.cache_info()
    return info.hits, info.misses, info.currsize


# Corruptions of a stored entry: local pairs of [1, g], class 0 first.
def pair_twice(flat, g):
    flat[1] = flat[0]  # one pair twice, one missing


def wrong_popcount(flat, g):
    flat[0] |= ~flat[0] & (flat[0] + 1)  # its lowest free label joins


def outside_ground(flat, g):
    flat[0] = flat[0] & (flat[0] - 1) | 1 << g  # label g + 1 replaces its lowest


def spread_two(flat, g):
    # Class 0 is 4 disjoint pairs of 11 labels; a pair of another class that
    # meets the last three, swapped in for the first, gives a label degree 2.
    rest = flat[1] | flat[2] | flat[3]
    j = next(j for j in range(4, len(flat)) if flat[j] & rest)
    flat[0], flat[j] = flat[j], flat[0]


class TestPlanMemo:
    def test_hit_equals_a_cold_engine_run(self, plan_memo, solved, monkeypatch):
        # A k = 4 family splits its triples with the engine.  The family of
        # (10, 4) anchored at 10, the one anchored at 1 and the one of (11, 4)
        # anchored at 2 share the local plan: the 84 triples of 9 labels in
        # blocks of 4, on grounds [1, 9], [2, 10] and [3, 11].
        checked, check = [], baranyai._self_check
        monkeypatch.setattr(baranyai, "_self_check", lambda plan, classes: checked.append(plan) or check(plan, classes))
        first = partition_C(Params(10, 4), 4)
        hits = [partition_A(1, Params(10, 4), 4), partition_A(2, Params(11, 4), 4)]
        local = PartitionPlan((1, 9), 3, first.plan.sizes)  # misses solve the plan on [1, g]
        assert solved == checked == [local] and counts(plan_memo) == (2, 1, 1)  # no check on a hit
        for cov in hits:
            cold = almost_regular_partition(cov.plan)
            assert base_partition(cov) == cold
            anchor = 1 << (cov.anchor - 1)
            assert cov.blocks == tuple(tuple(anchor | m for m in cls) for cls in cold.classes)
        plan_memo.cache_clear()
        again = partition_A(2, Params(11, 4), 4)
        assert solved[-1] == local and again == hits[-1]

    def test_a_circle_hit_equals_a_cold_miss(self, plan_memo, solved):
        # A k = 3 family takes its pairs in circle order, with no engine run.
        # The family of (13, 3) anchored at 13, the one anchored at 1 and the
        # one of (14, 3) anchored at 2 share the local plan: the 66 pairs of
        # 12 labels in blocks of 4, on grounds [1, 12], [2, 13] and [3, 14].
        partition_C(Params(13, 3), 4)
        calls = [(1, Params(13, 3)), (2, Params(14, 3))]
        hits = [partition_A(i, p, 4) for i, p in calls]
        assert counts(plan_memo) == (2, 1, 1)
        for (i, p), cov in zip(calls, hits):
            plan_memo.cache_clear()
            cold = partition_A(i, p, 4)
            assert counts(plan_memo) == (0, 1, 1) and cov == cold
            anchor, shift = 1 << (cov.anchor - 1), cov.plan.ground[0] - 1
            circle = baranyai._circle_partition(cov.plan.ground_size, cov.plan.sizes)  # local labels
            assert cov.blocks == tuple(tuple(anchor | m << shift for m in cls) for cls in circle)
        assert solved == []

    def test_blocks_above_half_the_ground_take_the_engine(self, plan_memo, solved):
        # (7, 3) anchored at 2: 5 labels in blocks of 5 pairs.  The circle
        # cut's first class has degrees 1, 2, 2, 3, 2, so the engine splits it.
        plan = PartitionPlan((1, 5), 2, (5, 5))
        detail = spread_detail(baranyai._circle_partition(5, plan.sizes), 1, 5)
        assert detail.startswith("class 0 has degree spread 2: label 4 has degree 3"), detail
        cov = partition_A(2, Params(7, 3), 5)
        assert solved == [plan] and base_partition(cov) == almost_regular_partition(cov.plan)

    def test_misses_solve_the_local_plan_and_store_it_as_it_comes(self, plan_memo, monkeypatch):
        # Every plan a miss hands the engine is on [1, g], every cut is asked
        # for g labels, and each entry is the solve's classes, concatenated.
        solves, engine, cut = [], baranyai.almost_regular_partition, baranyai._circle_partition

        def engine_run(plan, cap=None):
            part = engine(plan, cap=cap)
            solves.append(((plan.ground_size, plan.k, plan.sizes), plan.ground, part.classes))
            return part

        def circle_cut(g, sizes):
            classes = cut(g, sizes)
            solves.append(((g, 2, sizes), (1, g), classes))
            return classes

        monkeypatch.setattr(baranyai, "almost_regular_partition", engine_run)
        monkeypatch.setattr(baranyai, "_circle_partition", circle_cut)
        covs = [partition_A(i, Params(n, k), l) for n, k in ((11, 3), (12, 4)) for i in (1, 3) for l in (2, 5, 9)]
        covs += [partition_C(Params(n, k), l) for n, k in ((11, 3), (12, 4)) for l in (3, 7)]
        assert {key for key, _, _ in solves} == {memo_key(cov) for cov in covs}
        assert {k for (_, k, _), _, _ in solves} == {2, 3} and counts(plan_memo)[1:] == (len(solves),) * 2
        for key, ground, classes in solves:
            assert ground == (1, key[0])
            assert plan_memo(*key).tolist() == [m for cls in classes for m in cls]
        assert counts(plan_memo)[1] == len(solves)  # each read back was a hit

    def test_every_k3_block_size_is_split(self, plan_memo, solved):
        # Each anchor and block size partition_A and partition_C accept for
        # (9, 3) gives an almost-regular split; the engine runs just for 2l > g.
        p, asked = Params(9, 3), []
        for i in range(1, 8):
            asked += [(partition_A(i, p, l), 9 - i, l) for l in range(1, binomial(9 - i, 2) + 1)]
        asked += [(partition_C(p, l), 8, l) for l in range(2, 29)]
        for cov, g, l in asked:
            assert verify_partition(base_partition(cov)).passed and cov.plan.ground_size == g
            assert all(len(covered_labels(b)) >= cov.coverage_floor for b in cov.blocks[: cov.guaranteed_blocks])
        engine_keys = {(plan.ground_size, plan.k, plan.sizes) for plan in solved}
        assert engine_keys == {memo_key(cov) for cov, g, l in asked if 2 * l > g}

    def test_cap_is_checked_on_a_hit(self, plan_memo):
        # A cap below the family's 55 pairs is refused before the lookup, on a
        # miss and on a hit alike, and the cap is not part of the key.
        with pytest.raises(ResourceCapError):
            partition_A(1, Params(12, 3), 4, cap=54)
        assert counts(plan_memo) == (0, 0, 0)
        partition_A(1, Params(12, 3), 4)  # cached under the default cap
        for i, n in ((1, 12), (2, 13)):
            with pytest.raises(ResourceCapError):
                partition_A(i, Params(n, 3), 4, cap=54)
        assert counts(plan_memo) == (0, 1, 1)
        assert partition_A(2, Params(13, 3), 4, cap=55).guaranteed_blocks == 13
        assert counts(plan_memo) == (1, 1, 1)

    @pytest.mark.parametrize(
        "corrupt", [pair_twice, wrong_popcount, outside_ground, spread_two],
        ids=["pair-twice", "wrong-popcount", "outside-ground", "spread-two"],
    )
    def test_entries_are_read_only(self, plan_memo, corrupt):
        # A hit is not checked again, so no write may reach a stored entry:
        # each corruption fails at its first write and leaves the entry whole.
        key = memo_key(partition_A(1, Params(12, 3), 4))
        entry = plan_memo(*key)
        before = entry.tobytes()
        with pytest.raises(TypeError):
            corrupt(entry, key[0])
        assert entry.tobytes() == before
        assert verify_partition(base_partition(partition_A(2, Params(13, 3), 4))).passed

    def test_colorings_and_the_partition_command_bypass_it(self, plan_memo, capsys):
        build_coloring(Params(9, 3))
        assert main(["partition", "--n", "9", "--k", "3", "--block-size", "3"]) == 0
        assert counts(plan_memo) == (0, 0, 0)

    def test_threads_share_it(self, monkeypatch):
        # Six threads share a memo of two plans: six plans are asked for, so
        # entries are evicted while other threads read them.
        cases = [(i, n) for n in range(8, 13) for i in (1, 2)]
        want = {(i, n): partition_A(i, Params(n, 3), 2) for i, n in cases}
        memo = functools.lru_cache(maxsize=2)(baranyai._local_plan.__wrapped__)
        monkeypatch.setattr(baranyai, "_local_plan", memo)
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    i, n = rng.choice(cases)
                    if partition_A(i, Params(n, 3), 2) != want[(i, n)]:
                        errors.append((i, n))
            except Exception as exc:  # reported below, with the others
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        hits, missed, held = counts(memo)
        assert hits + missed == 240 and missed > 6 and held == 2
