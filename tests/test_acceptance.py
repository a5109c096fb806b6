"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import hashlib
import json
import math
import random
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest

from kneser_minors import (
    CaseTag,
    Params,
    PartitionPlan,
    almost_regular_partition,
    binomial,
    build_coloring,
    build_minor,
    chi,
    params_grid,
    verify_coloring,
    verify_minor,
    verify_partition,
)
from kneser_minors import baranyai, minors
from kneser_minors.baranyai import uniform_sizes
from kneser_minors.cli import main as cli_main
from kneser_minors.core import union_mask
from kneser_minors.minors import K3_TABLE_REFERENCE, k3_table_rows
from oracles import (
    alpha_oracle,
    base_partition,
    bound_check_s4,
    check_preflight,
    closed_form_lower_bound,
    exhaustive_partition_feasible,
    replaced,
    verify_partition_by_definition,
)

SWEEP_CAP = 20000
COLORING_CAP = 5000
ALPHA_CAP = 500
GRID_KS = (3, 4, 5, 6)


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - start:.1f}s]")


@pytest.fixture(scope="session")
def sweep_memo():
    """What the sweep asked of the plan memo, cold at its start: hits, misses
    and plans held after it, and the runs of each solver behind the misses."""
    return Counter()


@pytest.fixture(scope="session")
def full_sweep(sweep_memo):
    """Criterion 1 workhorse: every certificate plus the covered partitions
    that partition_A and partition_C returned to the builders."""
    coverage_log = []
    certificates = {}

    def logged(original, log):
        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            log.append(result)
            return result

        return call

    solves = {"engine": [], "circle": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minors, "partition_A", logged(minors.partition_A, coverage_log))
        mp.setattr(minors, "partition_C", logged(minors.partition_C, coverage_log))
        mp.setattr(baranyai, "almost_regular_partition", logged(baranyai.almost_regular_partition, solves["engine"]))
        mp.setattr(baranyai, "_circle_partition", logged(baranyai._circle_partition, solves["circle"]))
        baranyai._local_plan.cache_clear()
        for p in params_grid(GRID_KS, SWEEP_CAP):
            certificates[(p.n, p.k)] = build_minor(p, cap=SWEEP_CAP)
        info = baranyai._local_plan.cache_info()
        baranyai._local_plan.cache_clear()  # nothing solved under the wrappers stays cached
    sweep_memo.update(hits=info.hits, misses=info.misses, held=info.currsize)
    sweep_memo.update({name: len(log) for name, log in solves.items()})
    return certificates, coverage_log


def test_criterion_1_full_sweep(full_sweep):
    certificates, _ = full_sweep
    with criterion(1, "full instance sweep"):
        grid = params_grid(GRID_KS, SWEEP_CAP)
        assert len(grid) == len(certificates)
        for p in grid:
            cert = certificates[(p.n, p.k)]
            report = verify_minor(cert)
            assert report.passed, ((p.n, p.k), report.summary_lines())
            assert cert.order >= chi(p), (p.n, p.k)
            # Not checked by the builder: a block of partition_A or partition_C has
            # its anchor in every member, and every other block is a singleton.
            assert all(len(b) == 1 or reduce(and_, b) for b in cert.blocks), (p.n, p.k)
            if p.s in (2, 3):
                assert cert.order >= math.ceil(closed_form_lower_bound(p)), (p.n, p.k)


def test_sweep_minors_match_their_traces(full_sweep):
    # Each minor has the blocks its trace's closed-form counts add up to, and
    # each stacked minor starts with the blocks of its (n - 1, k) minor.
    certificates, _ = full_sweep
    stacked = 0
    for (n, k), cert in certificates.items():
        assert cert.order == sum(entry.block_count for entry in cert.trace), (n, k)
        if len(cert.trace) > 1:
            below = certificates[n - 1, k]
            assert cert.blocks[: below.order] == below.blocks, (n, k)
            stacked += 1
    assert stacked == 14


def test_criterion_2_exact_numbers(full_sweep):
    certificates, _ = full_sweep
    with criterion(2, "exact reference orders"):
        assert certificates[(11, 3)].order == 60
        assert certificates[(15, 4)].order == 505
        cert_14 = certificates[(14, 3)]
        assert cert_14.order == 107
        base = cert_14.trace[0]
        assert (base.n, base.k, base.block_count) == (13, 3, 88)
        assert chi(Params(14, 3)) == 91
        assert chi(Params(12, 3)) == 55


def test_criterion_3_table_regression():
    with criterion(3, "k=3 table regression"):
        rows = {row.n: row for row in k3_table_rows(12, 35)}
        assert set(rows) == set(K3_TABLE_REFERENCE) == set(range(12, 36))
        for n, (ref_l, ref_order, ref_bound, ref_chi) in K3_TABLE_REFERENCE.items():
            row = rows[n]
            assert row.l == ref_l, f"l mismatch at n={n}"
            assert row.chi == ref_chi, f"chi mismatch at n={n}"
            if ref_order is not None:
                assert row.order_exact == ref_order, f"order mismatch at n={n}"
            if ref_bound is not None:
                assert row.order_bound_floor == ref_bound, f"bound mismatch at n={n}"
        assert rows[19].order_exact == 168 and rows[23].order_exact == 255


def test_criterion_4_partition_property_suite():
    with criterion(4, "partition property suite"):
        checked = oracle_checked = 0
        for g in range(3, 13):
            plans = []
            for k in range(1, g + 1):
                total = binomial(g, k)
                for l in range(1, 7):
                    plans.append(PartitionPlan((1, g), k, uniform_sizes(total, l)))
            rng = random.Random(97 + g)
            for _ in range(50):
                k = rng.randint(1, g)
                total = binomial(g, k)
                sizes = []
                left = total
                while left:
                    part = rng.randint(1, max(1, min(left, max(1, total // 3))))
                    sizes.append(part)
                    left -= part
                plans.append(PartitionPlan((1, g), k, tuple(sizes)))
            for plan in plans:
                part = almost_regular_partition(plan)
                report = verify_partition(part)
                assert report.passed, (plan, report.summary_lines())
                checked += 1
                if plan.edge_count <= 30:
                    assert exhaustive_partition_feasible(plan), plan
                    oracle_checked += 1
        assert checked > 900 and oracle_checked > 300


def test_criterion_5_coverage_floors(full_sweep):
    _, coverage_log = full_sweep
    with criterion(5, "coverage floors"):
        assert coverage_log, "builders made no partition calls"
        for cov in coverage_log:
            plan = cov.plan
            k = plan.k + 1
            l = plan.sizes[0]
            if cov.anchor > plan.ground[1]:  # family anchored at label n
                n = cov.anchor
                floor = min(n, l * (k - 1) + 1)
            else:  # family anchored at smallest label i
                n = plan.ground[1]
                floor = min(n - cov.anchor + 1, l * (k - 1) + 1)
            assert floor == min(plan.ground_size + 1, l * plan.k + 1)  # the floor CoveredPartition documents
            for block in cov.blocks[: cov.guaranteed_blocks]:
                assert len(block) == l
                assert union_mask(block).bit_count() >= floor


def test_sweep_partitions_equal_their_cold_misses(full_sweep, plan_memo):
    # Every partition the sweep's builders got, memo hit or miss, equals the
    # cold miss of its plan key, solved once per key with a cleared memo and
    # shifted onto its own ground, and passes the partition reference.
    _, coverage_log = full_sweep
    local = {}
    for cov in coverage_log:
        plan, bit = cov.plan, 1 << (cov.anchor - 1)
        key = (plan.ground_size, plan.k, plan.sizes)
        if key not in local:
            plan_memo.cache_clear()
            cold = baranyai._anchored(cov.anchor, plan.ground, plan.k + 1, plan.sizes[0], SWEEP_CAP)
            local[key] = tuple(tuple((m & ~bit) >> (plan.ground[0] - 1) for m in block) for block in cold.blocks)
        assert cov.blocks == tuple(tuple(bit | m << (plan.ground[0] - 1) for m in cls) for cls in local[key]), key
        assert not any(verify_partition_by_definition(plan, base_partition(cov).classes).values()), key
    assert (len(coverage_log), len(local)) == (835, 256)


def test_the_memo_holds_every_sweep_plan(full_sweep, sweep_memo):
    # On a cold memo the sweep's 835 anchored calls miss once per distinct
    # plan, 256 times (70 engine runs and 186 circle cuts), and hit 579 times;
    # all 256 plans stay held, as the memo's 512 evicts none.
    _, coverage_log = full_sweep
    keys = {(cov.plan.ground_size, cov.plan.k, cov.plan.sizes) for cov in coverage_log}
    assert len(coverage_log) == 835 and len(keys) == 256
    assert sweep_memo == Counter(hits=579, misses=256, held=256, engine=70, circle=186)


def test_criterion_6_coloring_suite():
    with criterion(6, "coloring suite"):
        for p in params_grid(GRID_KS, SWEEP_CAP):
            total = binomial(p.n, p.k)
            if total > COLORING_CAP:
                continue
            cert = build_coloring(p)
            report = verify_coloring(cert)
            assert report.passed, ((p.n, p.k), report.summary_lines())
            assert len(cert.classes) == chi(p)
            if total <= ALPHA_CAP:
                alpha = alpha_oracle(p)
                assert alpha == p.n // p.k
                assert chi(p) == -(-total // alpha)


def test_criterion_7_preflight_inequalities():
    with criterion(7, "preflight inequality suite"):
        regimes = Counter()
        for p in params_grid(GRID_KS, SWEEP_CAP):
            regimes[check_preflight(p)] += 1
            if p.k >= 4 and p.s >= 4:
                if p.k == 4:
                    rows = {4: "0.224", 5: "0.176", 6: "0.149"}
                    expected = Fraction(rows.get(p.s, "0.133"))
                else:
                    rows = {4: "0.211", 5: "0.151"}
                    expected = Fraction(rows.get(p.s, "0.119"))
                assert bound_check_s4(p).threshold == expected
        assert regimes[CaseTag.S4_KGE4] > 0 and regimes[CaseTag.S4_K3] > 0


def test_criterion_8_determinism_and_tamper(tmp_path, capsys):
    with criterion(8, "determinism and tamper detection"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["minor", "--n", "15", "--k", "4", "--out", str(a)]) == 0
        assert cli_main(["minor", "--n", "15", "--k", "4", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

        # Tamper a single label so one member collides with another block's.
        doc = json.loads(a.read_text())
        blocks = doc["blocks"]
        first, second = blocks[0][0], blocks[1][0]
        diff = [pos for pos in range(4) if first[pos] != second[pos]]
        assert len(diff) == 1  # colex order makes the first two singletons adjacent
        blocks[0][0][diff[0]] = second[diff[0]]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = cli_main(["verify", "--kind", "minor", "--in", str(tampered)])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)
        assert not report["pass"]
        failed = {c["name"]: c["detail"] for c in report["checks"] if not c["pass"]}
        assert "disjoint-blocks" in failed
        assert "appears in blocks" in failed["disjoint-blocks"]


def tampered_families(classes, rng):
    """Copies of ``classes`` with one seeded edit each: a member of class 1
    replaced by one of class 0, a member repeated inside class 0, classes 0
    and 1 merged, a member dropped, a member one label short, and the first
    edit again with the classes held in ``array('Q')``."""
    parts = [list(part) for part in classes]
    out = []
    for edit in ("shared", "repeat", "merged", "dropped", "popcount"):
        copy = [part[:] for part in parts]
        if edit == "shared":
            copy[1][rng.randrange(len(copy[1]))] = rng.choice(copy[0])
        elif edit == "repeat":
            copy[0].append(rng.choice(copy[0]))
        elif edit == "merged":
            copy[0:2] = [copy[0] + copy[1]]
        elif edit == "dropped":
            part = rng.choice([part for part in copy if len(part) > 1])
            del part[rng.randrange(len(part))]
        else:
            copy[0][0] &= copy[0][0] - 1  # its lowest label dropped
        out.append(tuple(map(tuple, copy)))
    out.append(tuple(array("Q", part) for part in out[0]))
    return out


def test_verifier_reports_are_pinned(full_sweep):
    # One digest over the reports of the 79 sweep minors and one twin of each
    # (a member of block b replaced by one of block a; the seed picks a, b and
    # the two members), then of built colorings and partitions and their tampered copies.
    certificates, _ = full_sweep
    rng = random.Random("tamper-1")
    reports = []
    for p in params_grid(GRID_KS, SWEEP_CAP):
        cert = certificates[(p.n, p.k)]
        blocks = [list(block) for block in cert.blocks]
        a, b = rng.sample(range(len(blocks)), 2)
        blocks[b][rng.randrange(len(blocks[b]))] = blocks[a][rng.randrange(len(blocks[a]))]
        reports += [verify_minor(cert), verify_minor(replaced(cert, blocks=tuple(map(tuple, blocks))))]
    for n, k in ((7, 3), (9, 3), (10, 4), (12, 4), (11, 5)):
        cert = build_coloring(Params(n, k))
        reports.append(verify_coloring(cert))
        reports += [verify_coloring(replaced(cert, classes=family)) for family in tampered_families(cert.classes, rng)]
    for ground, k, size in (((1, 6), 2, 5), ((2, 8), 3, 7), ((1, 9), 3, 12), ((1, 10), 4, 21)):
        part = almost_regular_partition(
            PartitionPlan(ground, k, uniform_sizes(binomial(ground[1] - ground[0] + 1, k), size))
        )
        reports.append(verify_partition(part))
        reports += [verify_partition(replaced(part, classes=family)) for family in tampered_families(part.classes, rng)]
    text = "\n\n".join("\n".join(report.summary_lines()) for report in reports)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "6e4a992ae9ea3d189f263b7cf3afe6d25af20e487c6d7a3aa21a172abaf09856"
