import copy
import functools
import itertools
import json
import math
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kneser_minors import (
    AlmostRegularPartition,
    CaseTag,
    CheckResult,
    ColoringCertificate,
    MinorCertificate,
    ParameterError,
    Params,
    PartitionPlan,
    VerificationReport,
    almost_regular_partition,
    build_coloring,
    build_minor,
    chi,
    kset_labels,
    kset_mask,
    kset_text,
    partition_A,
    partition_C,
    uniform_sizes,
    union_mask,
    verify_coloring,
    verify_minor,
    verify_partition,
)
from kneser_minors import baranyai
from kneser_minors.cli import main
from kneser_minors.serialize import (
    coloring_from_dict,
    coloring_to_dict,
    dumps_canonical,
    minor_from_dict,
    minor_to_dict,
    partition_from_dict,
    partition_to_dict,
    report_to_dict,
)
from oracles import (
    base_partition,
    replaced,
    structure_blocks_reference,
    unjoined_blocks_pairwise,
    unjoined_blocks_reference,
    unreachable_member_pairwise,
    verify_coloring_by_definition,
    verify_minor_by_definition,
    verify_partition_by_definition,
)


def check_map(report):
    return {c.name: c for c in report.checks}


def disconnected_block_pairwise(blocks):
    """The block-connectivity detail from the pairwise search, or None."""
    return next(
        (
            f"block {bi} is disconnected: member {kset_text(block[j])} is unreachable from {kset_text(block[0])}"
            for bi, block in enumerate(blocks)
            if (j := unreachable_member_pairwise(block)) is not None
        ),
        None,
    )


@st.composite
def block_families(draw):
    """(n, k, blocks) with n <= 12: singleton blocks, blocks whose members
    share a label, and blocks of free members, so families may be
    disconnected, unjoined or both."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(4, n - 1)))
    free = st.frozensets(st.integers(1, n), min_size=k, max_size=k).map(kset_mask)

    def sharing(label):
        rest = st.frozensets(st.integers(1, n).filter(lambda x: x != label), min_size=k - 1, max_size=k - 1)
        return st.lists(rest.map(lambda s: kset_mask(s | {label})), min_size=1, max_size=8, unique=True)

    block = st.one_of(
        free.map(lambda m: [m]),
        st.integers(1, n).flatmap(sharing),
        st.lists(free, min_size=2, max_size=12, unique=True),
    )
    return n, k, draw(st.lists(block, min_size=1, max_size=6))


def bare_minor(n, k, blocks, order=None):
    return MinorCertificate(
        n=n, k=k, blocks=blocks, trace=(), claimed_order=len(blocks) if order is None else order
    )


class TestVerifyMinor:
    def test_built_certificate_passes(self):
        cert = build_minor(Params(11, 3))
        report = verify_minor(cert)
        assert report.passed
        assert cert.order == 60

    def test_disjoint_singletons_fail_cross_edges(self):
        cert = bare_minor(7, 3, ((kset_mask([1, 2, 3]),), (kset_mask([4, 5, 6]),)))
        report = verify_minor(cert)
        checks = check_map(report)
        assert not report.passed
        assert not checks["cross-edges"].passed
        assert "blocks 0 and 1" in checks["cross-edges"].detail

    def test_disconnected_block(self):
        cert = bare_minor(7, 3, ((kset_mask([1, 2, 3]), kset_mask([4, 5, 6])),))
        checks = check_map(verify_minor(cert))
        assert not checks["block-connectivity"].passed

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_connectivity_matches_pairwise_search(self, data):
        n = data.draw(st.integers(2, 12))
        k = data.draw(st.integers(1, min(4, n - 1)))
        member = st.frozensets(st.integers(1, n), min_size=k, max_size=k).map(kset_mask)
        blocks = data.draw(st.lists(st.lists(member, min_size=1, max_size=12, unique=True), min_size=1, max_size=3))
        want = disconnected_block_pairwise(blocks)
        check = check_map(verify_minor(bare_minor(n, k, tuple(map(tuple, blocks)))))["block-connectivity"]
        assert (check.passed, check.detail) == (
            want is None, want or "every block induces a connected subgraph"
        )

    @settings(max_examples=300, deadline=None)
    @given(block_families())
    def test_report_matches_the_definitions(self, family):
        # Connectivity and cross edges from pairwise member searches; the
        # other checks are the package's own and must come out unchanged.
        n, k, blocks = family
        cross = unjoined_blocks_pairwise(blocks)
        assert unjoined_blocks_reference(n, blocks) == cross
        want = {
            "block-connectivity": (disconnected_block_pairwise(blocks), "every block induces a connected subgraph"),
            "cross-edges": (cross, "every pair of blocks is joined"),
        }
        report = verify_minor(bare_minor(n, k, tuple(map(tuple, blocks))))
        assert report.checks[0] == CheckResult("structure", True, f"{len(blocks)} well-formed blocks")
        expected = VerificationReport(tuple(
            CheckResult(c.name, want[c.name][0] is None, want[c.name][0] or want[c.name][1]) if c.name in want else c
            for c in report.checks
        ))
        assert report == expected

    @pytest.mark.parametrize("n", range(7, 13))
    def test_k3_minors_agree_with_the_definitions(self, n):
        # Each built k = 3 minor of n <= 12 passes every definition-level check,
        # and so does every edit of it that keeps its blocks well formed, just
        # where the package verifier passes the matching check.
        package = {"disjoint-blocks": "disjoint-blocks", "block-connectivity": "block-connectivity",
                   "cross-edges": "cross-edges", "order": "witnesses-chi"}
        cert = build_minor(Params(n, 3))
        blocks = [list(block) for block in cert.blocks]
        assert verify_minor_by_definition(n, 3, cert.blocks) == dict.fromkeys(["vertices", *package])
        assert verify_minor(cert).passed
        vertices = list(map(kset_mask, itertools.combinations(range(1, n + 1), 3)))
        spare = next(m for m in vertices if m not in set().union(*blocks))
        far = next(m for m in vertices if not m & union_mask(blocks[0]))
        edits = [
            blocks[: chi(Params(n, 3)) - 1],  # too few blocks
            [blocks[0] + blocks[1][:1], *blocks[1:]],  # a member in two blocks
            [blocks[0] + blocks[1][-1:], blocks[1][:-1], *blocks[2:]],  # a member moved
            [blocks[0] + blocks[1], *blocks[2:]],  # two blocks merged
            [*[[m] for m in blocks[0]], *blocks[1:]],  # a block split into singletons
            [[spare, *blocks[0][1:]], *blocks[1:]],  # a member replaced by an unused vertex
            [[blocks[0][0], far], *blocks[1:]],  # a block of two members that do not meet
        ]
        failed = set()
        for edit in edits:
            edit = tuple(map(tuple, filter(None, edit)))
            want = verify_minor_by_definition(n, 3, edit)
            checks = check_map(verify_minor(replaced(cert, blocks=edit, claimed_order=len(edit))))
            assert want["vertices"] is None and checks["structure"].passed
            assert {name: want[name] is None for name in package} == {
                name: checks[check].passed for name, check in package.items()
            }
            failed |= {name for name in package if want[name] is not None}
        assert failed == set(package)

    def test_shared_vertex_named(self):
        shared = kset_mask([1, 2, 3])
        cert = bare_minor(7, 3, ((shared,), (shared, kset_mask([1, 4, 5]))))
        checks = check_map(verify_minor(cert))
        assert not checks["disjoint-blocks"].passed
        assert "[1,2,3]" in checks["disjoint-blocks"].detail

    def test_order_claim(self):
        cert = bare_minor(7, 3, ((kset_mask([1, 2, 3]), kset_mask([3, 4, 5])),), order=5)
        checks = check_map(verify_minor(cert))
        assert not checks["order-claim"].passed

    def test_order_below_chi_fails(self):
        # A well-formed certificate that claims its own order truthfully still
        # fails when that order is below chi(8, 3) = 28.
        cert = build_minor(Params(8, 3))
        cut = replaced(cert, blocks=cert.blocks[:5], claimed_order=5)
        report = verify_minor(cut)
        assert not report.passed
        assert [c.name for c in report.checks if not c.passed] == ["witnesses-chi"]
        assert check_map(report)["witnesses-chi"].detail == "order 5 < chi = 28"

    def test_order_equal_to_chi_passes(self):
        cert = build_minor(Params(8, 3))
        report = verify_minor(replaced(cert, blocks=cert.blocks[:28], claimed_order=28))
        assert report.passed and check_map(report)["witnesses-chi"].detail == "order 28 >= chi = 28"

    def test_malformed_kset(self):
        cert = bare_minor(7, 3, ((kset_mask([1, 2]),),))
        report = verify_minor(cert)
        checks = check_map(report)
        assert not checks["structure"].passed
        assert not report.passed

    def test_label_out_of_range(self):
        cert = bare_minor(7, 3, ((kset_mask([6, 7, 8]),),))
        assert not check_map(verify_minor(cert))["structure"].passed


class TestVerifyColoring:
    def test_built_coloring_passes(self):
        report = verify_coloring(build_coloring(Params(7, 3)))
        assert report.passed

    def test_intersecting_class_fails(self):
        # Move one member into a full class: 6 + 3 > 7 labels forces a clash.
        cert = build_coloring(Params(7, 3))
        donor = next(i for i in range(1, len(cert.classes)) if len(cert.classes[i]) == 2)
        moved = cert.classes[donor][0]
        classes = list(cert.classes)
        classes[0] = classes[0] + (moved,)
        classes[donor] = classes[donor][1:]
        report = verify_coloring(replaced(cert, classes=tuple(classes)))
        assert not check_map(report)["independent-classes"].passed

    def test_missing_member_fails_partition(self):
        cert = build_coloring(Params(7, 3))
        pruned = (cert.classes[0][:1],) + cert.classes[1:]
        checks = check_map(verify_coloring(replaced(cert, classes=pruned)))
        assert not checks["partition"].passed

    def test_wrong_class_count(self):
        cert = build_coloring(Params(7, 3))
        merged = (cert.classes[0] + cert.classes[1],) + cert.classes[2:]
        checks = check_map(verify_coloring(replaced(cert, classes=merged)))
        assert not checks["class-count"].passed

    @pytest.mark.parametrize("n,k", [(n, k) for k in (3, 4, 5) for n in range(2 * k + 1, 13) if math.comb(n, k) <= 500])
    def test_colorings_agree_with_the_definitions(self, n, k):
        # Each built coloring of n <= 12 passes every definition-level check,
        # and every drop, duplicate, move, merge or split edit of it fails just
        # the checks verify_coloring fails.
        names = ("partition", "independent-classes", "class-count")
        cert = build_coloring(Params(n, k))
        classes = [list(cls) for cls in cert.classes]
        assert verify_coloring_by_definition(n, k, cert.classes) == dict.fromkeys(["vertices", *names])
        assert verify_coloring(cert).passed
        t = len(classes)
        fits = next(
            ((i, j) for i in range(t) for j in range(t) if i != j and not classes[i][0] & union_mask(classes[j])), None
        )
        edits = []
        for i, j in {(0, 1), (1, t - 1), (t - 1, 0), (t // 2, 0), *([fits] if fits else [])}:
            edit = [list(cls) for cls in classes]
            edits.append([*edit[:i], edit[i][1:], *edit[i + 1:]])  # a member dropped
            edit[j] = edit[j] + edit[i][:1]
            edits.append(list(edit))  # a member in two classes
            edit[i] = edit[i][1:]
            edits.append(edit)  # a member moved
            rest = [cls for ci, cls in enumerate(classes) if ci not in (i, j)]
            edits.append([classes[i] + classes[j], *rest])  # two classes merged
            edits.append([classes[i][:1], classes[i][1:], classes[j], *rest])  # a class split
        failed = set()
        for edit in edits:
            edit = tuple(map(tuple, filter(None, edit)))
            want = verify_coloring_by_definition(n, k, edit)
            checks = check_map(verify_coloring(replaced(cert, classes=edit)))
            assert want["vertices"] is None and checks["structure"].passed
            assert {name: want[name] is None for name in names} == {name: checks[name].passed for name in names}
            failed |= {name for name in names if want[name] is not None}
        assert failed == set(names)

    def test_explicit_intersecting_pair(self):
        cls = (kset_mask([1, 2, 3]), kset_mask([3, 4, 5]))
        cert = ColoringCertificate(n=7, k=3, classes=(cls,))
        checks = check_map(verify_coloring(cert))
        assert not checks["independent-classes"].passed
        assert "[1,2,3]" in checks["independent-classes"].detail


class TestVerifyPartition:
    def test_engine_output_passes(self):
        from kneser_minors import almost_regular_partition

        part = almost_regular_partition(PartitionPlan((1, 4), 2, (2, 2, 2)))
        assert verify_partition(part).passed

    def test_degree_spread_violation(self):
        plan = PartitionPlan((1, 4), 2, (2, 4))
        classes = (
            (kset_mask([1, 2]), kset_mask([1, 3])),
            (kset_mask([1, 4]), kset_mask([2, 3]), kset_mask([2, 4]), kset_mask([3, 4])),
        )
        part = AlmostRegularPartition(plan=plan, classes=classes)
        checks = check_map(verify_partition(part))
        assert checks["sizes"].passed
        assert checks["disjoint-union"].passed
        assert not checks["degree-spread"].passed
        assert "label 1" in checks["degree-spread"].detail

    def test_size_mismatch(self):
        plan = PartitionPlan((1, 4), 2, (3, 3))
        classes = (
            (kset_mask([1, 2]), kset_mask([3, 4])),
            (kset_mask([1, 3]), kset_mask([2, 4]), kset_mask([1, 4]), kset_mask([2, 3])),
        )
        part = AlmostRegularPartition(plan=plan, classes=classes)
        assert not check_map(verify_partition(part))["sizes"].passed

    def test_duplicate_member(self):
        plan = PartitionPlan((1, 4), 2, (2, 2, 2))
        classes = (
            (kset_mask([1, 2]), kset_mask([3, 4])),
            (kset_mask([1, 3]), kset_mask([2, 4])),
            (kset_mask([1, 3]), kset_mask([2, 3])),
        )
        part = AlmostRegularPartition(plan=plan, classes=classes)
        checks = check_map(verify_partition(part))
        assert not checks["disjoint-union"].passed

    def test_agrees_with_the_definitions_check_by_check(self):
        # Built partitions on at most 12 labels: engine runs, a circle cut and
        # anchored families, and edits of each that move, drop, duplicate or
        # replace a member, or swap two members between classes.
        built = [
            almost_regular_partition(PartitionPlan((1, 8), 3, uniform_sizes(56, 5))),
            almost_regular_partition(PartitionPlan((2, 9), 4, (10, 20, 30, 10))),
            almost_regular_partition(PartitionPlan((3, 12), 2, uniform_sizes(45, 4))),
            base_partition(partition_A(1, Params(12, 3), 4)),
            base_partition(partition_A(2, Params(11, 3), 5)),
            base_partition(partition_C(Params(12, 4), 5)),
        ]
        names = ["structure", "sizes", "disjoint-union", "degree-spread"]

        def failed(plan, classes):
            classes = tuple(map(tuple, classes))
            want = verify_partition_by_definition(plan, classes)
            report = verify_partition(AlmostRegularPartition(plan, classes))
            checks = check_map(report)
            assert list(want) == names == [c.name for c in report.checks]
            assert (want["structure"] is None) is checks["structure"].passed
            if want["structure"] is None:
                assert {name: want[name] is None for name in names} == {name: checks[name].passed for name in names}
            assert report.passed is not any(want.values())
            return frozenset(name for name in names if want[name] is not None)

        seen = set()
        for part in built:
            plan, classes = part.plan, [list(cls) for cls in part.classes]
            assert failed(plan, classes) == frozenset()
            outside = classes[0][0] & (classes[0][0] - 1) | 1 << plan.ground[1]  # its lowest label out, hi + 1 in
            t = len(classes)
            for i, j in {(0, 1), (1, t - 1), (t - 1, 0), (t // 2, 0)}:
                # A member dropped, duplicated into class j, repeated in its class, replaced by class j's
                # first, replaced by a set with a label outside the ground, and moved to class j.
                edits = [
                    [*classes[:i], classes[i][1:], *classes[i + 1:]],
                    [cls + classes[i][:1] if c == j else cls for c, cls in enumerate(classes)],
                    [cls + cls[:1] if c == i else cls for c, cls in enumerate(classes)],
                    [classes[j][:1] + cls[1:] if c == i else cls for c, cls in enumerate(classes)],
                    [[outside, *cls[1:]] if c == i else cls for c, cls in enumerate(classes)],
                    [cls + classes[i][:1] if c == j else cls[1:] if c == i else cls for c, cls in enumerate(classes)],
                ]
                for edit in edits:
                    seen.add(failed(plan, edit))
            # Two members swapped between classes keep the sizes and the union;
            # the first swap that unbalances a class fails the spread check alone.
            for (i, a), (j, b) in itertools.combinations(
                [(c, m) for c, cls in enumerate(classes) for m in range(len(cls))], 2
            ):
                if i != j:
                    edit = [list(cls) for cls in classes]
                    edit[i][a], edit[j][b] = edit[j][b], edit[i][a]
                    if verify_partition_by_definition(plan, tuple(map(tuple, edit)))["degree-spread"]:
                        seen.add(failed(plan, edit))
                        break
        assert frozenset(["degree-spread"]) in seen
        assert set().union(*seen) == set(names)


@st.composite
def built_partitions(draw):
    """Partitions built on at most 12 labels: engine runs on any ground,
    circle cuts on [1, g], and the anchor-free classes of anchored families."""
    kind = draw(st.sampled_from(["engine", "circle", "anchored"]))
    if kind == "engine":
        g = draw(st.integers(1, 9))
        k, lo = draw(st.integers(1, g)), draw(st.integers(1, 13 - g))
        total = math.comb(g, k)
        cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=6))) if total > 1 else []
        sizes = tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))
        return almost_regular_partition(PartitionPlan((lo, lo + g - 1), k, sizes))
    if kind == "circle":
        g = draw(st.integers(2, 12))
        sizes = uniform_sizes(math.comb(g, 2), draw(st.integers(1, g // 2)))
        return AlmostRegularPartition(PartitionPlan((1, g), 2, sizes), baranyai._circle_partition(g, sizes))
    n, k = draw(st.sampled_from([(n, k) for k in (3, 4) for n in range(2 * k + 1, 13)]))
    i = draw(st.integers(1, n - k + 1) | st.none())  # None: the family anchored at label n
    family = math.comb(n - 1 if i is None else n - i, k - 1)
    l = draw(st.integers(1 if i else 2, family))
    return base_partition(partition_C(Params(n, k), l) if i is None else partition_A(i, Params(n, k), l))


EDITS = ("move", "drop", "duplicate", "replace", "corrupt", "swap", "merge", "split", "truncate")


def mutate_classes(draw, ground, k, classes, kinds=EDITS, lengths=()):
    """One edit of a list of classes of k-subsets of the ground (lo, hi): a
    member moved, dropped, duplicated, replaced (from the family or not) or
    swapped, two classes merged, one split, or a truncation, whose class
    count leans to ``lengths``."""
    kind, held = draw(st.sampled_from(kinds)), any(classes)
    if not held or (kind in ("move", "swap", "merge") and len(classes) < 2):
        kind = "truncate"
    # Class indices lean to the first and the last choice, often a remainder.
    # Each is drawn as a position among its choices, with no filter to retry:
    # ci among the non-empty classes, cj among the classes other than ci.
    def lean(choices):
        return draw(st.sampled_from([0, choices - 1]) | st.integers(0, choices - 1))

    full = [c for c, cls in enumerate(classes) if cls]
    ci = full[lean(len(full))] if held else 0
    mi = draw(st.integers(0, len(classes[ci]) - 1)) if held else 0
    cj = ci
    if len(classes) > 1:
        cj = lean(len(classes) - 1)
        cj += cj >= ci  # step over ci
    if kind == "move":
        classes[cj].insert(draw(st.integers(0, len(classes[cj]))), classes[ci].pop(mi))
    elif kind == "drop":
        del classes[ci][mi]
    elif kind == "duplicate":
        classes[draw(st.sampled_from([ci, cj]))].append(classes[ci][mi])
    elif kind == "replace":  # by a k-subset of the ground, maybe one held elsewhere
        classes[ci][mi] = kset_mask(draw(st.frozensets(st.integers(*ground), min_size=k, max_size=k)))
    elif kind == "corrupt":  # by a set of labels near the ground, of any size, or any 64-bit mask
        near = st.frozensets(st.integers(max(1, ground[0] - 1), min(64, ground[1] + 1)), min_size=1)
        classes[ci][mi] = draw(near.map(kset_mask) | st.integers(1, 2**64 - 1))
    elif kind == "swap" and classes[cj]:
        mj = draw(st.integers(0, len(classes[cj]) - 1))
        classes[ci][mi], classes[cj][mj] = classes[cj][mj], classes[ci][mi]
    elif kind == "merge":
        classes[min(ci, cj)] += classes.pop(max(ci, cj))
    elif kind == "split":
        cut = draw(st.integers(0, len(classes[ci])))
        classes[ci:ci + 1] = [classes[ci][:cut], classes[ci][cut:]]
    elif kind == "truncate" and draw(st.booleans()):
        kept = st.integers(0, len(classes))
        del classes[draw(st.sampled_from(lengths) | kept if lengths else kept):]  # trailing classes cut off
    elif kind == "truncate" and classes:
        del classes[ci][draw(st.integers(0, len(classes[ci]))):]  # one class cut short


@settings(max_examples=250, deadline=None)
@given(built_partitions(), st.data())
def test_partition_verifier_agrees_with_the_definitions_on_mutants(part, data):
    # The package verifier and the definition-level reference give the same
    # verdict on a built partition and on up to three edits of it, and the
    # first check the reference fails also fails in the package's report.
    # Half the time the edits are swaps, which keep the sizes and the family,
    # so the spread check alone may fail, often in one class only; a quarter
    # of the time swaps and replacements, which keep the sizes.
    plan, classes = part.plan, [list(cls) for cls in part.classes]
    kinds = ("swap",) if data.draw(st.booleans()) else data.draw(st.sampled_from([EDITS, ("swap", "replace")]))
    for _ in range(data.draw(st.integers(0, 3))):
        mutate_classes(data.draw, plan.ground, plan.k, classes, kinds)
    classes = tuple(map(tuple, classes))
    want = verify_partition_by_definition(plan, classes)
    report = verify_partition(AlmostRegularPartition(plan, classes))
    checks = check_map(report)
    assert list(want) == [c.name for c in report.checks]
    assert report.passed is not any(want.values())
    assert (want["structure"] is None) is checks["structure"].passed
    first = next((name for name, why in want.items() if why is not None), None)
    event(f"first failing check: {first}")
    assert first is None or not checks[first].passed, (first, report.summary_lines())


# Built minors and colorings small enough for the references' exhaustive alpha,
# and each reference check by the name of the package check it matches.
SMALL = [(n, k) for k in (3, 4, 5) for n in range(2 * k + 1, 13) if math.comb(n, k) <= 500]
REFERENCES = {
    "minor": (verify_minor_by_definition, {
        "vertices": "structure", "disjoint-blocks": "disjoint-blocks", "block-connectivity": "block-connectivity",
        "cross-edges": "cross-edges", "order": "witnesses-chi",
    }),
    "coloring": (verify_coloring_by_definition, {
        "vertices": "structure", "partition": "partition", "independent-classes": "independent-classes",
        "class-count": "class-count",
    }),
}
CERTIFICATE_EDITS = ("move", "drop", "duplicate", "replace", "merge", "split", "truncate")


@functools.cache
def small_certificate(kind, n, k):
    return (build_minor if kind == "minor" else build_coloring)(Params(n, k))


@pytest.mark.parametrize("kind", sorted(REFERENCES))
@settings(max_examples=120, deadline=None)
@given(nk=st.sampled_from(SMALL), data=st.data())
def test_certificate_verifiers_agree_with_the_definitions_on_mutants(kind, nk, data):
    # verify_minor and verify_coloring give the definition-level reference's
    # verdict on a built certificate and on up to three edits of it, the
    # reference's first failing check also fails in the package's report, and
    # when the structure holds every check agrees.  A minor claims its order;
    # a truncation leans to chi - 1 and chi blocks or classes.
    (n, k), (reference, names) = nk, REFERENCES[kind]
    cert, least = small_certificate(kind, n, k), chi(Params(n, k))
    blocks = [list(block) for block in (cert.blocks if kind == "minor" else cert.classes)]
    for _ in range(data.draw(st.integers(0, 3))):
        mutate_classes(data.draw, (1, n), k, blocks, CERTIFICATE_EDITS, (least - 1, least))
    blocks = tuple(map(tuple, blocks))
    want = reference(n, k, blocks)
    if kind == "minor":
        report = verify_minor(replaced(cert, blocks=blocks, claimed_order=len(blocks)))
    else:
        report = verify_coloring(replaced(cert, classes=blocks))
    checks = check_map(report)
    assert report.passed is not any(want.values())
    first = next((name for name, why in want.items() if why is not None), None)
    event(f"first failing check: {first}")
    assert first is None or not checks[names[first]].passed, (first, report.summary_lines())
    if checks["structure"].passed:
        assert {names[name]: why is None for name, why in want.items()} == {
            c.name: c.passed for c in report.checks if c.name != "order-claim"
        }


MINOR_8_3 = build_minor(Params(8, 3))
COLORING_7_3 = build_coloring(Params(7, 3))
PARTITION_1_5 = almost_regular_partition(PartitionPlan((1, 5), 2, (5, 5)))


@pytest.mark.parametrize(
    "verify,valid,broken,detail",
    [
        # k = 0: chi_of(n, 0) would raise ParameterError, so no check may run.
        (verify_minor, MINOR_8_3, replaced(MINOR_8_3, k=0), "invalid parameters"),
        (verify_minor, MINOR_8_3, replaced(MINOR_8_3, blocks=MINOR_8_3.blocks + ((),)), "is empty"),
        (verify_minor, MINOR_8_3, replaced(MINOR_8_3, blocks=()), "certificate has no blocks"),
        (
            verify_minor,
            MINOR_8_3,
            replaced(MINOR_8_3, blocks=((*MINOR_8_3.blocks[0], MINOR_8_3.blocks[0][0]), *MINOR_8_3.blocks[1:])),
            "block 0 repeats member ",
        ),
        (verify_coloring, COLORING_7_3, replaced(COLORING_7_3, k=0), "invalid parameters"),
        (
            verify_coloring,
            COLORING_7_3,
            replaced(COLORING_7_3, classes=COLORING_7_3.classes + ((),)),
            "is empty",
        ),
        (
            verify_partition,
            PARTITION_1_5,
            replaced(PARTITION_1_5, classes=PARTITION_1_5.classes + ((),)),
            "is empty",
        ),
    ],
    ids=[
        "minor-k0",
        "minor-empty-block",
        "minor-no-blocks",
        "minor-repeated-member",
        "coloring-k0",
        "coloring-empty-class",
        "partition-empty-class",
    ],
)
def test_structural_errors_skip_every_named_check(verify, valid, broken, detail):
    passing, failing = verify(valid), verify(broken)
    assert passing.passed
    assert [c.name for c in failing.checks] == [c.name for c in passing.checks]
    assert failing.checks[0].name == "structure" and not failing.checks[0].passed
    assert detail in failing.checks[0].detail
    assert [(c.passed, c.detail) for c in failing.checks[1:]] == [(False, "skipped: structural errors")] * (
        len(passing.checks) - 1
    )


@pytest.mark.parametrize(
    "verify,broken,detail",
    [
        (verify_minor, replaced(MINOR_8_3, n=65), "invalid parameters (n, k) = (65, 3)"),
        (verify_coloring, replaced(COLORING_7_3, k=8), "invalid parameters (n, k) = (7, 8)"),
        # No plan holds a ground from label 0, so a stand-in plan carries it.
        (
            verify_partition,
            AlmostRegularPartition(SimpleNamespace(ground=(0, 5), k=2, sizes=(5, 5)), PARTITION_1_5.classes),
            "invalid parameters (n, k) = (5, 2)",
        ),
        (
            verify_partition,
            AlmostRegularPartition(SimpleNamespace(ground=(3, 8), k=7, sizes=(1,)), ((0b11111100,),)),
            "invalid parameters (n, k) = (8, 7)",
        ),
    ],
    ids=["minor-n-65", "coloring-k-above-n", "partition-lo-0", "partition-k-above-width"],
)
def test_parameters_out_of_range_fail_the_structure_check(verify, broken, detail):
    head, *rest = verify(broken).checks
    assert (head.name, head.passed, head.detail) == ("structure", False, detail)
    assert rest and all(c.detail == "skipped: structural errors" for c in rest)


PARTITION_3_8 = almost_regular_partition(PartitionPlan((3, 8), 3, uniform_sizes(20, 4)))
MINOR_K1 = bare_minor(4, 1, ((1,), (2, 4), (8,)))

# (verify, certificate, its blocks, then the n, k, unit and lo of its structure check)
STRUCTURED = {
    "minor": (verify_minor, MINOR_8_3, MINOR_8_3.blocks, 8, 3, "block", 1),
    "coloring": (verify_coloring, COLORING_7_3, COLORING_7_3.classes, 7, 3, "class", 1),
    "partition": (verify_partition, PARTITION_3_8, PARTITION_3_8.classes, 8, 3, "class", 3),
    "minor-k1": (verify_minor, MINOR_K1, MINOR_K1.blocks, 4, 1, "block", 1),
}
MUTATIONS = (
    "bool", "zero", "negative", "non-int", "above-n", "below-lo", "popcount", "repeat", "shared", "empty",
)


def with_blocks(cert, blocks):
    field = "blocks" if isinstance(cert, MinorCertificate) else "classes"
    return replaced(cert, **{field: blocks})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(STRUCTURED)), st.data())
def test_structure_matches_the_per_member_reference(kind, data):
    """Built certificates with up to three members or blocks mutated: the
    whole report is the reference structure verdict, then every check
    skipped or, when the structure holds, the unmutated report's names."""
    verify, cert, blocks, n, k, unit, lo = STRUCTURED[kind]
    blocks = [list(block) for block in blocks]
    for _ in range(data.draw(st.integers(0, 3))):
        bi = data.draw(st.integers(0, len(blocks) - 1))
        block = blocks[bi]
        if not block:
            continue
        mi = data.draw(st.integers(0, len(block) - 1))
        mask = block[mi]
        if not isinstance(mask, int) or mask <= 0:
            continue
        how = data.draw(st.sampled_from(MUTATIONS))
        if how == "bool":
            block[mi] = data.draw(st.booleans())
        elif how == "zero":
            block[mi] = 0
        elif how == "negative":
            block[mi] = -mask
        elif how == "non-int":
            block[mi] = data.draw(st.sampled_from([float(mask), str(mask), None, (mask,)]))
        elif how == "above-n":  # its top label becomes n + 1
            block[mi] = mask & ~(1 << (mask.bit_length() - 1)) | 1 << n
        elif how == "below-lo":  # its bottom label becomes lo - 1 (outside the ground when lo > 1)
            block[mi] = mask & (mask - 1) | 1 << max(lo - 2, 0)
        elif how == "popcount":
            block[mi] = mask & (mask - 1) if data.draw(st.booleans()) else mask | 1 << data.draw(st.integers(0, n - 1))
        elif how == "repeat":
            block.insert(data.draw(st.integers(0, len(block))), mask)
        elif how == "shared":
            other = blocks[data.draw(st.integers(0, len(blocks) - 1))]
            if other:
                block[mi] = other[data.draw(st.integers(0, len(other) - 1))]
        else:
            blocks[bi] = []
    blocks = tuple(map(tuple, blocks))
    want = structure_blocks_reference(n, k, blocks, unit, lo)
    report = verify(with_blocks(cert, blocks))
    names = [c.name for c in verify(cert).checks]
    assert [c.name for c in report.checks] == names
    assert report.checks[0] == CheckResult("structure", *want)
    if not want[0]:
        assert all(c.detail == "skipped: structural errors" and not c.passed for c in report.checks[1:])


def test_bool_members_pass_the_structure_check_as_before():
    # True is an int with one label: the per-member check accepted it for
    # k = 1 and still does, though the whole-certificate verdict does not.
    blocks = ((True,), (2, 4), (8,))
    assert check_map(verify_minor(bare_minor(4, 1, blocks)))["structure"] == CheckResult(
        "structure", *structure_blocks_reference(4, 1, blocks, "block")
    ) == CheckResult("structure", True, "3 well-formed blocks")


@st.composite
def edge_label_families(draw):
    """(n, k, blocks) with n up to 64, labels 1 and n (the two ends of each
    binary row) drawn often, and families that may be unjoined."""
    n = draw(st.sampled_from([2, 7, 8, 9, 16, 17, 63, 64]) | st.integers(2, 64))
    k = draw(st.integers(1, min(4, n - 1)))
    label = st.sampled_from([1, n]) | st.integers(1, n)
    member = st.frozensets(label, min_size=k, max_size=k).map(kset_mask)
    blocks = draw(st.lists(st.lists(member, min_size=1, max_size=4, unique=True), min_size=1, max_size=8))
    source = draw(st.integers(0, len(blocks) - 1))
    cover = union_mask(blocks[source])
    if cover.bit_count() > k and draw(st.booleans()):
        # A later block with the same cover from other members, chosen greedily
        # among the cover's k-subsets until they cover it.
        twin, reached = [], 0
        for labels in itertools.combinations(kset_labels(cover), k):
            if (m := kset_mask(labels)) not in blocks[source] and m & ~reached:
                twin.append(m)
                reached |= m
        if reached == cover:
            blocks.insert(draw(st.integers(source + 1, len(blocks))), twin)
    return n, k, tuple(map(tuple, blocks))


@settings(max_examples=150, deadline=None)
@given(edge_label_families())
def test_cross_edges_match_the_reference_up_to_64_labels(family):
    n, k, blocks = family
    want = unjoined_blocks_reference(n, blocks)
    assert want == unjoined_blocks_pairwise(blocks)
    check = check_map(verify_minor(bare_minor(n, k, blocks)))["cross-edges"]
    assert (check.passed, check.detail) == (want is None, want or "every pair of blocks is joined")


def test_cross_edges_read_labels_1_and_64():
    # Blocks 0 and 1 meet only on label 1, blocks 2 and 3 only on label 64.
    ends = [kset_mask([1, 2]), kset_mask([1, 3]), kset_mask([63, 64]), kset_mask([62, 64])]
    blocks = tuple((m,) for m in ends)
    # A member holding both ends joins block 0 to every block.
    spanning = ((ends[0], kset_mask([1, 64])), *blocks[1:])
    for family, want in ((blocks, "blocks 0 and 2"), (spanning, "blocks 1 and 2")):
        detail = f"{want} are joined by no edge"
        assert unjoined_blocks_reference(64, family) == detail
        assert check_map(verify_minor(bare_minor(64, 2, family)))["cross-edges"].detail == detail


def test_cross_edges_name_blocks_not_distinct_covers():
    # Blocks 0 and 1 share the cover {1, 2, 3, 4}, so block 2 is the second
    # distinct cover: block 2 ({1, 5, 6}) and block 3 ({4, 7, 8}) do not meet.
    blocks = tuple(tuple(map(kset_mask, block)) for block in (
        [[1, 2, 3], [2, 3, 4]], [[1, 2, 4], [1, 3, 4]], [[1, 5, 6]], [[4, 7, 8]],
    ))
    detail = "blocks 2 and 3 are joined by no edge"
    assert unjoined_blocks_pairwise(blocks) == unjoined_blocks_reference(8, blocks) == detail
    assert check_map(verify_minor(bare_minor(8, 3, blocks)))["cross-edges"] == CheckResult("cross-edges", False, detail)


def test_cross_edges_skip_only_covers_that_meet_all_by_count():
    # On [1, 8] with a least cover of 2 labels, a cover of 7 labels meets every
    # cover, and one of 6 labels need not: {1..6} misses {7, 8}.  The first
    # failing cover is named either way, so the details are the reference's.
    pairs = [[1, 2], [3, 4], [5, 6]]
    for family, want in (
        ([pairs + [[6, 7]], [[1, 2]], [[3, 4]]], "blocks 1 and 2"),  # 7 labels first: skipped, still met
        ([pairs, [[7, 8]]], "blocks 0 and 1"),  # 6 labels first: 6 + 2 = 8 is no overlap
    ):
        blocks = tuple(tuple(map(kset_mask, block)) for block in family)
        detail = f"{want} are joined by no edge"
        assert unjoined_blocks_pairwise(blocks) == unjoined_blocks_reference(8, blocks) == detail
        assert check_map(verify_minor(bare_minor(8, 2, blocks)))["cross-edges"].detail == detail


def minor_report(*checks):
    names = ("structure", "disjoint-blocks", "block-connectivity", "cross-edges", "order-claim", "witnesses-chi")
    return VerificationReport(tuple(CheckResult(name, *check) for name, check in zip(names, checks, strict=True)))


def masks(*blocks, block=tuple):
    return tuple(block(map(kset_mask, members)) for members in blocks)


SKIPPED = (False, "skipped: structural errors")
JOINED_7_3 = (
    (True, "every block induces a connected subgraph"), (True, "every pair of blocks is joined"),
    (True, "2 blocks"), (False, "order 2 < chi = 18"),
)


@pytest.mark.parametrize(
    "verify, cert, want",
    [
        # A vertex shared by blocks 0 and 1 comes first, then a repeat inside
        # block 1: the whole-certificate set fails, the walk names the repeat.
        (
            verify_minor,
            bare_minor(7, 3, masks([[1, 2, 3], [1, 4, 5]], [[1, 4, 5], [2, 4, 6], [2, 4, 6]])),
            minor_report((False, "block 1 repeats member [2,4,6]"), *[SKIPPED] * 5),
        ),
        # Only shared across blocks: the structure holds and disjoint-blocks names the pair.
        (
            verify_minor,
            bare_minor(7, 3, masks([[1, 2, 3], [1, 4, 5]], [[1, 4, 5], [4, 6, 7]])),
            minor_report(
                (True, "2 well-formed blocks"), (False, "vertex [1,4,5] appears in blocks 0 and 1"), *JOINED_7_3
            ),
        ),
        # Blocks held in arrays skip the whole-certificate tests, so the walk
        # checks each member and names the shared vertex for disjoint-blocks.
        (
            verify_minor,
            bare_minor(
                7, 3, masks([[1, 2, 3], [1, 4, 5]], [[1, 4, 5], [4, 6, 7]], block=functools.partial(array, "Q"))
            ),
            minor_report(
                (True, "2 well-formed blocks"), (False, "vertex [1,4,5] appears in blocks 0 and 1"), *JOINED_7_3
            ),
        ),
        (
            verify_minor,
            bare_minor(
                7, 3, masks([[1, 2, 3], [1, 4, 5]], [[2, 4, 6], [4, 6, 7]], block=functools.partial(array, "Q"))
            ),
            minor_report((True, "2 well-formed blocks"), (True, "no vertex is shared"), *JOINED_7_3),
        ),
        # A member of block 0 twice in block 1: met in a second block, then
        # again in the block it was last seen in, which is a repeat.
        (
            verify_minor,
            bare_minor(7, 3, masks([[1, 2, 3], [1, 4, 5]], [[1, 4, 5], [2, 4, 6], [1, 4, 5]])),
            minor_report((False, "block 1 repeats member [1,4,5]"), *[SKIPPED] * 5),
        ),
        # Two shared members: the one first met in a second block is named,
        # blocks 1 and 2 before blocks 0 and 3.
        (
            verify_minor,
            bare_minor(7, 3, masks([[1, 2, 3]], [[3, 4, 5]], [[3, 4, 5], [5, 6, 7]], [[1, 6, 7], [1, 2, 3]])),
            minor_report(
                (True, "4 well-formed blocks"), (False, "vertex [3,4,5] appears in blocks 1 and 2"),
                (True, "every block induces a connected subgraph"), (True, "every pair of blocks is joined"),
                (True, "4 blocks"), (False, "order 4 < chi = 18"),
            ),
        ),
        # A member repeated across classes of a coloring is no structural
        # error: the structure holds and partition names the member.
        (
            verify_coloring,
            replaced(COLORING_7_3, classes=(
                COLORING_7_3.classes[0], COLORING_7_3.classes[0][:1] + COLORING_7_3.classes[1][1:],
                *COLORING_7_3.classes[2:],
            )),
            VerificationReport((
                CheckResult("structure", True, "18 well-formed classes"),
                CheckResult("partition", False, "member [1,3,5] appears twice"),
                CheckResult("independent-classes", True, "all classes are pairwise disjoint families"),
                CheckResult("class-count", True, "18 classes"),
            )),
        ),
    ],
    ids=[
        "repeat-after-shared", "shared-only", "per-member-loop-shared", "per-member-loop-distinct",
        "shared-then-repeated", "first-shared-in-block-order", "coloring-shared",
    ],
)
def test_disjoint_blocks_reads_the_structure_checks_member_set(verify, cert, want):
    assert verify(cert) == want


def test_cross_edges_read_every_cover_past_a_disconnected_block():
    # Blocks 0 and 3 are disconnected, and blocks 1 and 2 between them have
    # disjoint covers: the first disconnected block and the first unjoined pair are named.
    blocks = masks([[1, 2, 3], [4, 5, 6]], [[1, 2, 7]], [[4, 5, 8]], [[3, 6, 7], [1, 4, 8]])
    assert verify_minor(bare_minor(8, 3, blocks)) == minor_report(
        (True, "4 well-formed blocks"),
        (True, "no vertex is shared"),
        (False, "block 0 is disconnected: member [4,5,6] is unreachable from [1,2,3]"),
        (False, "blocks 1 and 2 are joined by no edge"),
        (True, "4 blocks"),
        (False, "order 4 < chi = 28"),
    )


class TestSerialization:
    def test_minor_round_trip(self):
        cert = build_minor(Params(8, 3))
        doc = minor_to_dict(cert)
        again = minor_from_dict(doc)
        assert again == cert
        assert dumps_canonical(minor_to_dict(again)) == dumps_canonical(doc)

    def test_coloring_round_trip(self):
        cert = build_coloring(Params(7, 3))
        assert coloring_from_dict(coloring_to_dict(cert)) == cert

    def test_partition_round_trip(self):
        from kneser_minors import almost_regular_partition

        part = almost_regular_partition(PartitionPlan((1, 5), 2, (5, 5)))
        assert partition_from_dict(partition_to_dict(part)) == part

    def test_kind_mismatch(self):
        cert = build_minor(Params(7, 3))
        doc = minor_to_dict(cert)
        with pytest.raises(ParameterError):
            coloring_from_dict(doc)

    def test_unsorted_labels_rejected(self):
        cert = build_minor(Params(7, 3))
        doc = minor_to_dict(cert)
        doc["blocks"][0][0] = list(reversed(doc["blocks"][0][0]))
        with pytest.raises(ParameterError):
            minor_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = minor_to_dict(build_minor(Params(7, 3)))
        del doc["claimed_order"]
        with pytest.raises(ParameterError):
            minor_from_dict(doc)

    def test_out_of_scope_minor_has_no_recorded_trace(self):
        doc = minor_to_dict(build_minor(Params(7, 3)))
        doc["n"] = 65
        with pytest.raises(ParameterError, match=r"no trace is recorded for \(65, 3\)"):
            minor_from_dict(doc)

    def test_report_shape(self):
        report = verify_minor(build_minor(Params(7, 3)))
        doc = report_to_dict(report)
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "structure",
            "disjoint-blocks",
            "block-connectivity",
            "cross-edges",
            "order-claim",
            "witnesses-chi",
        }


# Any JSON value: what a certificate file can decode to.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
SMALL = st.integers(1, 12)
LABELS = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted)
BLOCKS = st.lists(st.lists(LABELS, min_size=1, max_size=3), max_size=3)
TRACE = st.lists(
    st.fixed_dictionaries({
        "case": st.sampled_from([tag.value for tag in CaseTag]),
        "params": st.fixed_dictionaries(
            {"n": SMALL, "k": SMALL, "block_size": st.none() | SMALL, "block_count": SMALL}
        ),
    }),
    max_size=2,
)


@st.composite
def partition_fields(draw):
    lo = draw(st.integers(1, 5))
    hi = draw(st.integers(lo, lo + 5))
    k = draw(st.integers(1, hi - lo + 1))
    sizes = uniform_sizes(math.comb(hi - lo + 1, k), draw(st.integers(1, 6)))
    return {"version": 1, "ground": [lo, hi], "k": k, "sizes": list(sizes), "classes": draw(BLOCKS)}


def _nodes(node):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _nodes(child)


@st.composite
def mutated(draw, valid, values=JSON_VALUES):
    """A well-typed document with at most one node, at any depth, replaced by
    one of ``values`` or (in an object) removed."""
    doc = draw(valid)
    spot = draw(st.sampled_from([None, *_nodes(doc)]))
    if spot is not None:
        parent, key = spot
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(values)
    return doc


@functools.cache
def recorded_trace(n, k):
    """The trace field minor_to_dict writes for (n, k)."""
    return minor_to_dict(build_minor(Params(n, k)))["trace"]


@st.composite
def minor_fields(draw):
    """Any small (n, k) and well-typed trace, or an in-scope (n, k) with the
    trace build_minor records for it (the only trace that parses)."""
    if draw(st.booleans()):
        n, k, trace = draw(SMALL), draw(SMALL), draw(TRACE)
    else:
        k = draw(st.integers(3, 5))
        n = draw(st.integers(2 * k + 1, 12))
        trace = copy.deepcopy(recorded_trace(n, k))
    return {"version": 1, "kind": "minor", "n": n, "k": k,
            "blocks": draw(BLOCKS), "trace": trace, "claimed_order": draw(SMALL)}


MINOR_DOCS = JSON_VALUES | mutated(minor_fields())
COLORING_DOCS = JSON_VALUES | mutated(st.fixed_dictionaries({
    "version": st.just(1), "kind": st.just("coloring"), "n": SMALL, "k": SMALL, "classes": BLOCKS,
}))
PARTITION_DOCS = JSON_VALUES | mutated(partition_fields())


@pytest.mark.parametrize(
    "parse,docs,kind",
    [
        (minor_from_dict, MINOR_DOCS, MinorCertificate),
        (coloring_from_dict, COLORING_DOCS, ColoringCertificate),
        (partition_from_dict, PARTITION_DOCS, AlmostRegularPartition),
    ],
)
def test_any_json_parses_or_is_a_parameter_error(parse, docs, kind):
    @settings(max_examples=300, deadline=None)
    @given(docs)
    def check(document):
        try:
            parsed = parse(document)
        except ParameterError:
            return
        assert isinstance(parsed, kind)

    check()


# One valid certificate file per kind, for the CLI fuzz below.
VALID_FILES = {
    "minor": minor_to_dict(build_minor(Params(7, 3))),
    "coloring": coloring_to_dict(build_coloring(Params(7, 3))),
    "partition": partition_to_dict(
        almost_regular_partition(PartitionPlan((2, 7), 2, uniform_sizes(15, 4)))
    ),
}
PARSERS = {"minor": minor_from_dict, "coloring": coloring_from_dict, "partition": partition_from_dict}


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_verify_command_exit_codes(kind, tmp_path, capsys):
    """Any JSON value, or any valid file with one node replaced or removed,
    verified as any kind: exit 2 exactly when the parser rejects it, else 0
    or 1 agreeing with the report, and never an escaping exception."""
    target = tmp_path / "cert.json"

    def files(name):
        # Small integers as well: a label or count in range keeps the file
        # parseable, so the verifier runs on it and may fail it (exit 1).
        return mutated(st.just(VALID_FILES[name]).map(copy.deepcopy), JSON_VALUES | st.integers(0, 16))

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES | files(kind) | st.sampled_from(sorted(VALID_FILES)).flatmap(files))
    def check(document):
        target.write_text(json.dumps(document))
        code = main(["verify", "--kind", kind, "--in", str(target)])
        out, err = capsys.readouterr()
        try:
            PARSERS[kind](document)
        except ParameterError:
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
            return
        assert code in (0, 1)
        assert json.loads(out)["pass"] is (code == 0)

    check()
