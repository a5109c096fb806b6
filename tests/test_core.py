import itertools
import math
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneser_minors import (
    ColoringCertificate,
    ConstructionError,
    OutOfScopeError,
    ParameterError,
    Params,
    PartitionPlan,
    binomial,
    kset_labels,
    kset_mask,
    kset_text,
    params_grid,
    verify_coloring,
)
from kneser_minors import baranyai
from kneser_minors.core import (
    enumerate_family, family_A, family_detail, intersects, label_degrees, label_list, pairwise_disjoint,
    spread_detail, union_mask,
)
from oracles import covered_labels, family_C, hockey_stick, spread_detail_reference


def masks_by_hand(lo, hi, k):
    # Independent enumeration oracle: all k-subsets via itertools, as masks.
    out = set()
    for combo in itertools.combinations(range(lo, hi + 1), k):
        out.add(kset_mask(combo))
    return out


class TestBinomial:
    def test_values(self):
        assert binomial(11, 3) == 165
        assert binomial(5, 0) == 1
        assert binomial(14, 3) == 364  # = 14*13*12/6
        assert binomial(14, 3) == 14 * 13 * 12 // 6
        assert binomial(3, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            binomial(-1, 2)
        with pytest.raises(ParameterError):
            binomial(4, -2)
        with pytest.raises(ParameterError):
            binomial(4, -1)

    def test_the_64_bit_bound_is_inclusive(self):
        assert binomial(2**63 - 1, 1) == 2**63 - 1
        with pytest.raises(OutOfScopeError, match="64-bit range"):
            binomial(2**63, 1)

    def test_overflow_guard(self):
        with pytest.raises(OutOfScopeError):
            binomial(70, 35)

    @pytest.mark.parametrize("small", [32, 33, 34, 35])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_range_check_comes_before_the_product(self, small, extra):
        # min(b, a - b) = small; from 34 on the result is refused uncomputed.
        for a, b in ((2 * small + extra, small), (2 * small + extra, small + extra)):
            value = math.comb(a, b)
            if value > 2**63 - 1:
                with pytest.raises(OutOfScopeError, match="64-bit range"):
                    binomial(a, b)
            else:
                assert binomial(a, b) == value


class TestParams:
    def test_split(self):
        p = Params(11, 3)
        assert (p.s, p.t) == (3, 2)
        assert Params(7, 3).s == 2

    def test_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            Params(7, 2)
        with pytest.raises(OutOfScopeError):
            Params(6, 3)
        with pytest.raises(OutOfScopeError):
            Params(65, 3)


class TestKsets:
    def test_text_round_trip(self):
        mask = kset_mask([1, 4, 7])
        assert kset_text(mask) == "[1,4,7]"
        assert kset_labels(mask) == (1, 4, 7)

    @pytest.mark.parametrize("helper", ["kset_labels", "kset_text"])
    def test_negative_mask_is_refused(self, helper):
        # The low-bit walk never ends on a negative int, so a regression hangs:
        # run it in a child with a timeout.
        code = (
            "from kneser_minors import ParameterError, " + helper + "\n"
            "try:\n    " + helper + "(-1)\nexcept ParameterError as exc:\n    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (0, "negative mask -1\n")

    def test_the_empty_mask_has_no_labels(self):
        assert (label_list(0), kset_labels(0), kset_text(0)) == ([], (), "[]")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParameterError):
            kset_mask([2, 2, 3])

    def test_intersects(self):
        assert intersects(kset_mask([1, 2, 3]), kset_mask([3, 4, 5]))
        assert not intersects(kset_mask([1, 2, 3]), kset_mask([4, 5, 6]))
        a = kset_mask([1, 2, 3])
        assert intersects(a, a)

    def test_covered_labels(self):
        a = kset_mask([1, 2, 3])
        b = kset_mask([1, 4, 5])
        assert covered_labels([a]) == {1, 2, 3}
        assert covered_labels([a, b]) == {1, 2, 3, 4, 5}
        with pytest.raises(ParameterError):
            covered_labels([])


@given(st.sets(st.integers(1, 20), min_size=1, max_size=6),
       st.sets(st.integers(1, 20), min_size=1, max_size=6))
def test_intersects_symmetric(a_labels, b_labels):
    a, b = kset_mask(a_labels), kset_mask(b_labels)
    assert intersects(a, b) == intersects(b, a)
    assert intersects(a, b) == bool(a_labels & b_labels)


@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 2**n - 1), max_size=12))
))
def test_label_degrees_counts_each_label(case):
    n, block = case
    naive = [sum(1 for mask in block if mask >> (x - 1) & 1) for x in range(1, n + 1)]
    assert label_degrees(block, n) == naive


@st.composite
def shifted_classes(draw):
    """(lo, hi, k, classes) on a ground [lo, hi] with lo > 1, every member a
    k-subset of [lo, hi]: classes of pairwise-disjoint members, classes of
    free members (which may intersect), and classes of two members sharing
    one label with another label left out, whose degree spread is exactly 2."""
    lo = draw(st.integers(2, 8))
    hi = lo + draw(st.integers(1, 11))
    k = draw(st.integers(1, min(4, hi - lo + 1)))
    ground = list(range(lo, hi + 1))
    member = st.frozensets(st.sampled_from(ground), min_size=k, max_size=k).map(kset_mask)

    def disjoint(perm):
        count = draw(st.integers(1, len(perm) // k))
        return [kset_mask(perm[i * k:(i + 1) * k]) for i in range(count)]

    kinds = [st.permutations(ground).map(disjoint), st.lists(member, min_size=1, max_size=8, unique=True)]
    if k >= 2 and len(ground) >= 2 * k:
        # labels perm[0] (degree 2) and perm[-1] (degree 0): spread exactly 2
        kinds.append(st.permutations(ground).map(lambda perm: [
            kset_mask(perm[:k]), kset_mask([perm[0], *perm[k:2 * k - 1]]),
        ]))
    return lo, hi, k, draw(st.lists(st.one_of(kinds), min_size=1, max_size=6))


def intersecting_members_pairwise(classes):
    """The independent-classes detail from the first intersecting member pair, or None."""
    for ci, cls in enumerate(classes):
        for a, b in itertools.combinations(cls, 2):
            if intersects(a, b):
                return f"class {ci} contains intersecting members {kset_text(a)} and {kset_text(b)}"
    return None


class TestSpreadDetail:
    @settings(max_examples=200, deadline=None)
    @given(shifted_classes())
    def test_matches_the_per_label_reference(self, drawn):
        lo, hi, k, classes = drawn
        classes = tuple(map(tuple, classes))
        assert spread_detail(classes, lo, hi) == spread_detail_reference(classes, lo, hi)
        for cls in classes:
            degrees = label_degrees(cls, hi)
            assert pairwise_disjoint(cls) == (max(degrees) <= 1)
        want = intersecting_members_pairwise(classes)
        check = {c.name: c for c in verify_coloring(ColoringCertificate(hi, k, classes)).checks}["independent-classes"]
        assert (check.passed, check.detail) == (want is None, want or "all classes are pairwise disjoint families")

    def test_spread_two_is_named(self):
        classes = ((kset_mask([3, 4, 5]),), (kset_mask([3, 4, 5]), kset_mask([3, 6, 7])))
        detail = "class 1 has degree spread 2: label 3 has degree 2, label 8 has degree 0"
        assert spread_detail(classes, 3, 8) == spread_detail_reference(classes, 3, 8) == detail

    # Labels 3..8.  Three pairwise-disjoint classes; a class that is not
    # pairwise disjoint but has degree spread 1 (labels 3 and 5 twice); and one
    # of spread 2 (label 3 twice, label 6 never).
    DISJOINT = ((kset_mask([3, 4]), kset_mask([5, 6])), (kset_mask([3, 5]), kset_mask([4, 6])), (kset_mask([7, 8]),))
    SPREAD_ONE = (kset_mask([3, 4]), kset_mask([5, 6]), kset_mask([7, 8]), kset_mask([3, 5]))
    SPREAD_TWO = (kset_mask([3, 4]), kset_mask([3, 5]))

    @pytest.mark.parametrize("classes, detail", [
        (DISJOINT, None),  # every class disjoint: the whole-family test passes
        (DISJOINT + (SPREAD_ONE,), None),  # the per-class loop passes
        (DISJOINT[:1] + ((),) + DISJOINT[1:], None),  # an empty class has no union to reduce but 0
        (((),) + DISJOINT + (SPREAD_TWO,), "class 4 has degree spread 2: label 3 has degree 2, label 6 has degree 0"),
        (DISJOINT + (SPREAD_TWO,), "class 3 has degree spread 2: label 3 has degree 2, label 6 has degree 0"),
    ])
    def test_each_outcome_matches_the_reference(self, classes, detail):
        assert spread_detail(classes, 3, 8) == spread_detail_reference(classes, 3, 8) == detail


def test_a_class_of_spread_at_most_one_covers_its_floor():
    # The coverage floors of partition_A and partition_C rest on this: l distinct
    # k-subsets of [1, g] with degree spread <= 1 cover exactly min(g, l k) labels.
    checked = 0
    for g in range(1, 8):
        for k in range(1, min(4, g) + 1):
            family = enumerate_family(1, g, k)
            for l in range(1, 5):
                for cls in itertools.combinations(family, l):
                    if spread_detail((cls,), 1, g) is None:
                        assert union_mask(cls).bit_count() == min(g, l * k), (g, k, cls)
                        checked += 1
    assert checked == 11630


@pytest.mark.parametrize("labels", [[2, 4, 5], [8, 4, 5], [3, 4]], ids=["2", "8", "3-4"])
def test_a_member_one_label_off_the_ground_is_not_a_k_subset_of_it(labels):
    # The 3-subsets of [3, 7] in two classes of 5, with [3,4,5] moved to label
    # lo - 1 or hi + 1 (only the range test names it) or cut to [3,4] inside the
    # ground (only the popcount test names it), in the verifier's function and the
    # engine's check.
    family = enumerate_family(3, 7, 3)
    bad = kset_mask(sorted(labels))
    classes = ((bad, *family[1:5]), tuple(family[5:]))
    detail = f"member {kset_text(bad)} is not a 3-subset of [3, 7]"
    assert family_detail(classes, 3, 7, 3) == detail
    with pytest.raises(ConstructionError, match=re.escape(f"classes do not partition the full family: {detail}")):
        baranyai._self_check(PartitionPlan((3, 7), 3, (5, 5)), classes)


def test_a_repeated_member_is_named():
    family = enumerate_family(1, 4, 2)
    classes = (tuple(family[:3]), (family[2], *family[3:5]))
    assert family_detail(classes, 1, 4, 2) == f"member {kset_text(family[2])} appears twice"


class TestEnumerateFamily:
    def test_single(self):
        assert enumerate_family(1, 3, 3) == [kset_mask([1, 2, 3])]

    def test_colex_endpoints(self):
        fam = enumerate_family(1, 4, 3)
        assert len(fam) == 4
        assert fam[0] == kset_mask([1, 2, 3])
        assert fam[-1] == kset_mask([2, 3, 4])

    def test_count_against_enumeration(self):
        fam = enumerate_family(2, 7, 2)
        assert len(fam) == 15
        assert set(fam) == masks_by_hand(2, 7, 2)

    def test_the_whole_label_range(self):
        assert enumerate_family(1, 64, 64) == [2**64 - 1]

    def test_interval_too_small(self):
        with pytest.raises(ParameterError):
            enumerate_family(3, 4, 5)

    def test_reproducible(self):
        assert enumerate_family(1, 12, 4) == enumerate_family(1, 12, 4)

    @given(st.integers(1, 10), st.integers(0, 9), st.integers(1, 5))
    @settings(max_examples=60)
    def test_properties(self, lo, extra, k):
        hi = lo + extra
        if k > hi - lo + 1:
            return
        fam = enumerate_family(lo, hi, k)
        assert len(fam) == binomial(hi - lo + 1, k)
        assert len(set(fam)) == len(fam)
        assert fam == sorted(fam)  # integer order == colex order
        assert set(fam) == masks_by_hand(lo, hi, k)


class TestFamilies:
    def test_family_A_singleton(self):
        assert family_A(5, Params(7, 3)) == [kset_mask([5, 6, 7])]

    def test_family_A_filter_oracle(self):
        p = Params(7, 3)
        fam = family_A(1, p)
        assert len(fam) == 15
        bit = 1
        expected = {m for m in masks_by_hand(1, 7, 3) if m & bit}
        assert set(fam) == expected

    def test_family_A_excludes_smaller_labels(self):
        p = Params(9, 3)
        fam = family_A(2, p)
        assert len(fam) == 21
        expected = {m for m in masks_by_hand(1, 9, 3) if kset_labels(m)[0] == 2}
        assert set(fam) == expected

    def test_family_A_partitions_everything(self):
        p = Params(8, 3)
        seen = []
        for i in range(1, p.n - p.k + 2):
            fam = family_A(i, p)
            assert len(fam) == binomial(p.n - i, p.k - 1)
            seen.extend(fam)
        assert sorted(seen) == enumerate_family(1, p.n, p.k)

    def test_family_A_range_check(self):
        with pytest.raises(ParameterError):
            family_A(6, Params(7, 3))

    def test_family_C_filter_oracle(self):
        p = Params(7, 3)
        fam = family_C(p)
        assert len(fam) == 15
        bit = 1 << 6
        assert set(fam) == {m for m in masks_by_hand(1, 7, 3) if m & bit}

    def test_family_C_size_14_3(self):
        assert len(family_C(Params(14, 3))) == 78

    def test_family_C_is_complement_of_interior(self):
        p = Params(9, 3)
        interior = set(enumerate_family(1, p.n - 1, p.k))
        everything = set(enumerate_family(1, p.n, p.k))
        assert set(family_C(p)) == everything - interior

    def test_family_C_meets_family_A1(self):
        # Members containing both 1 and n: forced count by fixing two labels.
        p = Params(7, 3)
        both = set(family_C(p)) & set(family_A(1, p))
        assert len(both) == binomial(p.n - 2, p.k - 2)


class TestHockeyStick:
    def test_examples(self):
        assert hockey_stick(3, 1) == (6, 6)
        left, right = hockey_stick(5, 2)
        assert left == sum(binomial(i, 2) for i in range(6))  # direct summation
        assert left == right == 20
        assert hockey_stick(4, 4) == (1, 1)

    def test_identity_on_range(self):
        for a in range(41):
            for b in range(a + 1):
                left, right = hockey_stick(a, b)
                assert left == right

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            hockey_stick(2, 3)


def test_params_grid_small_cap():
    grid = params_grid([3], 100)
    assert [(p.n, p.k) for p in grid] == [(7, 3), (8, 3), (9, 3)]


def test_params_grid_cap_is_inclusive_and_an_empty_grid_is_no_error():
    assert params_grid((3,), 35) == [Params(7, 3)]  # C(7, 3) = 35
    assert params_grid((31,), 10) == []  # 2 * 31 + 1 = 63 labels fit; C(63, 31) does not


def test_params_grid_stops_at_the_label_cap():
    # C(64, 3) = 41664 is far below the cap, so the label cap ends the walk over n.
    grid = params_grid((3,), 10**9)
    assert grid[-1] == Params(64, 3) and len(grid) == 64 - 6


def test_a_field_given_by_position_and_keyword_is_a_type_error():
    with pytest.raises(TypeError, match=r"^Params\(\) takes each of \(n, k\) once$"):
        Params(11, n=12)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: enumerate_family(0, 5, 2), "bad label interval [0, 5]"),
        (lambda: enumerate_family(4, 3, 1), "bad label interval [4, 3]"),
        (lambda: enumerate_family(1, 65, 2), "bad label interval [1, 65]"),
        (lambda: enumerate_family(2, 6, 0), "interval [2, 6] has no 0-subsets"),
        (lambda: enumerate_family(2, 6, 6), "interval [2, 6] has no 6-subsets"),
        (lambda: family_A(0, Params(7, 3)), "i = 0 outside [1, 5] for (n, k) = (7, 3)"),
        (lambda: family_A(6, Params(7, 3)), "i = 6 outside [1, 5] for (n, k) = (7, 3)"),
    ],
    ids=["lo-0", "lo-above-hi", "hi-65", "k-0", "k-above-width", "family-A-i-0", "family-A-i-above-n-k-1"],
)
def test_family_range_errors(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()
