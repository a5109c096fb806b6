import math
from fractions import Fraction

import pytest

from kneser_minors import (
    CaseTag,
    OutOfScopeError,
    ParameterError,
    Params,
    TraceEntry,
    build_minor,
    chi,
    replay_trace,
    verify_minor,
)
from kneser_minors.core import intersects, union_mask
from kneser_minors.minors import K3_TABLE_REFERENCE, _k3_split, _layout, _recorded_trace, k3_table_rows
from kneser_minors.serialize import dumps_canonical, minor_to_dict
from oracles import bound_check_s4, closed_form_lower_bound, covered_labels, replaced


def routed(n, k):
    """The case ``build_minor`` records last for (n, k), as a minor file carries it."""
    return _recorded_trace(n, k)[-1].case


class TestRouting:
    @pytest.mark.parametrize(
        "n,k,tag",
        [
            (7, 3, CaseTag.S2_CASE1),
            (8, 3, CaseTag.S2_CASE2),
            (10, 4, CaseTag.S2_CASE1),
            (11, 4, CaseTag.S2_CASE2),
            (9, 3, CaseTag.S3_CASE1),
            (10, 3, CaseTag.S3_CASE2),
            (11, 3, CaseTag.S3_CASE3),
            (14, 4, CaseTag.S3_CASE2),
            (15, 4, CaseTag.S3_CASE3),
            (16, 4, CaseTag.S4_KGE4),
            (20, 4, CaseTag.S4_KGE4),
            (12, 3, CaseTag.S4_K3),
            (13, 3, CaseTag.S4_K3),
            (14, 3, CaseTag.SPECIAL_14_3),
            (18, 3, CaseTag.S4_K3_SHIFT),
            (22, 3, CaseTag.S4_K3_SHIFT),
            (26, 3, CaseTag.S4_K3_SHIFT),
            (30, 3, CaseTag.S4_K3),
        ],
    )
    def test_examples(self, n, k, tag):
        assert routed(n, k) is tag

    def test_out_of_scope(self):
        for n, k in ((9, 2), (6, 3)):
            with pytest.raises(OutOfScopeError):
                Params(n, k)
            with pytest.raises(ParameterError, match=r"^no trace is recorded for") as info:
                _recorded_trace(n, k)
            assert isinstance(info.value.__cause__, OutOfScopeError)

    def test_certificate_cap(self):
        from kneser_minors import ResourceCapError

        with pytest.raises(ResourceCapError):
            build_minor(Params(9, 3), cap=50)  # C(9,3) = 84 > 50


class TestS2Builds:
    def test_7_3(self):
        assert routed(7, 3) is CaseTag.S2_CASE1
        cert = build_minor(Params(7, 3))
        # |A_1| + floor(C(5,2)/2) + floor(C(4,2)/2) = 15 + 5 + 3
        assert cert.order == 23
        assert cert.order >= chi(Params(7, 3)) == 18
        assert verify_minor(cert).passed

    def test_9_4(self):
        assert routed(9, 4) is CaseTag.S2_CASE1
        cert = build_minor(Params(9, 4))
        want = math.comb(8, 3) + math.comb(7, 3) // 2 + math.comb(6, 3) // 2 + math.comb(5, 3) // 2
        assert want == 88
        assert cert.order == want
        assert verify_minor(cert).passed

    def test_8_3(self):
        assert routed(8, 3) is CaseTag.S2_CASE2
        cert = build_minor(Params(8, 3))
        assert cert.order == 23 + math.comb(7, 2) // 3 == 30
        assert cert.order >= chi(Params(8, 3)) == 28
        assert verify_minor(cert).passed

    def test_11_4(self):
        # Case-2 recursion goes through (10, 4), not (9, 4).
        assert routed(11, 4) is CaseTag.S2_CASE2
        cert = build_minor(Params(11, 4))
        want = (
            math.comb(9, 3)
            + math.comb(8, 3) // 2
            + math.comb(7, 3) // 2
            + math.comb(6, 3) // 2
            + math.comb(10, 3) // 3
        )
        assert cert.order == want == 179
        assert cert.order >= chi(Params(11, 4)) == 165
        assert verify_minor(cert).passed

    def test_wrong_case_rejected(self):
        assert routed(8, 3) is not CaseTag.S2_CASE1
        assert routed(7, 3) is not CaseTag.S2_CASE2


class TestS3Builds:
    def test_9_3(self):
        assert routed(9, 3) is CaseTag.S3_CASE1
        cert = build_minor(Params(9, 3))
        assert cert.order == math.comb(8, 2) + math.comb(7, 2) // 3 + math.comb(6, 2) // 3 == 40
        assert verify_minor(cert).passed

    def test_11_3_exact(self):
        assert routed(11, 3) is CaseTag.S3_CASE3
        cert = build_minor(Params(11, 3))
        assert cert.order == 60
        assert verify_minor(cert).passed

    def test_15_4_exact(self):
        assert routed(15, 4) is CaseTag.S3_CASE3
        cert = build_minor(Params(15, 4))
        assert cert.order == 505
        assert verify_minor(cert).passed
        # stage arithmetic: 343 from the base, then 71 and 91 from extensions
        assert [e.block_count for e in cert.trace] == [343, 71, 91]

    def test_12_4_bound(self):
        cert = build_minor(Params(12, 4))
        bound = closed_form_lower_bound(Params(12, 4))
        assert cert.order >= math.ceil(bound)


class TestS4Builds:
    def test_17_4_parameters(self):
        tag, l, _, anchors, _ = _layout(Params(17, 4))
        assert (tag, l, anchors) == (CaseTag.S4_KGE4, 3, range(1, 9))  # l' = 5, n' = 8
        # derived check (b): 17/2 < 10 <= 8 + 4
        assert 17 < 2 * (l * 3 + 1) <= 16 + 8

    def test_19_4_special_rounding(self):
        assert _layout(Params(19, 4))[1] == 3

    def test_20_4(self):
        p = Params(20, 4)
        assert routed(20, 4) is CaseTag.S4_KGE4
        cert = build_minor(p)
        assert cert.order >= chi(p) == 969
        assert verify_minor(cert).passed

    def test_k3_params(self):
        assert _k3_split(19) == (5, 9)  # 19 = 4 * 4 + 3
        assert _k3_split(13)[0] == 3
        assert _layout(Params(19, 3))[:4] == (CaseTag.S4_K3, 5, False, range(1, 10))

    def test_19_3_table_row(self):
        assert routed(19, 3) is CaseTag.S4_K3
        cert = build_minor(Params(19, 3))
        assert cert.order == 168
        assert cert.order >= chi(Params(19, 3)) == 162
        assert verify_minor(cert).passed

    def test_23_3_table_row(self):
        assert routed(23, 3) is CaseTag.S4_K3
        cert = build_minor(Params(23, 3))
        assert cert.order == 255
        assert cert.order >= chi(Params(23, 3)) == 253
        assert verify_minor(cert).passed

    def test_18_3_shift(self):
        cert = build_minor(Params(18, 3))
        assert cert.n == 18
        # built inside [17]: label 18 never occurs
        assert union_mask([m for block in cert.blocks for m in block]) < (1 << 17)
        assert cert.order >= chi(Params(18, 3)) == 136
        assert verify_minor(cert).passed
        assert cert.trace[-1].case is CaseTag.S4_K3_SHIFT

    def test_wrong_case_rejected(self):
        assert routed(12, 4) is not CaseTag.S4_KGE4
        assert routed(14, 3) is not CaseTag.S4_K3


class Test14_3:
    def test_exact_order(self):
        assert routed(14, 3) is CaseTag.SPECIAL_14_3
        cert = build_minor(Params(14, 3))
        assert cert.order == 88 + 19 == 107
        assert cert.order >= chi(Params(14, 3)) == 91
        assert verify_minor(cert).passed

    def test_base_is_the_13_block_certificate(self):
        cert = build_minor(Params(14, 3))
        base = cert.trace[0]
        assert (base.n, base.k, base.block_count) == (13, 3, 88)
        # the 88 base blocks cover at least ceil(13/2) = 7 labels each
        for block in cert.blocks[:88]:
            assert len(covered_labels(block)) >= 7
        # the appended blocks each cover 9 labels and contain label 14
        for block in cert.blocks[88:]:
            assert len(covered_labels(block)) == 9
            assert all(m & (1 << 13) for m in block)


class TestCertificateShape:
    @pytest.mark.parametrize("n,k", [(7, 3), (9, 3), (11, 3), (12, 3), (16, 4)])
    def test_blocks_are_anchored_or_singletons(self, n, k):
        cert = build_minor(Params(n, k))
        for block in cert.blocks:
            if len(block) > 1:
                common = block[0]
                for m in block[1:]:
                    common &= m
                assert common != 0

    def test_coverage_sum_implies_edge(self):
        cert = build_minor(Params(9, 3))
        blocks = cert.blocks
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                a, b = union_mask(blocks[i]), union_mask(blocks[j])
                if a.bit_count() + b.bit_count() > cert.n:
                    assert any(
                        intersects(x, y) for x in blocks[i] for y in blocks[j]
                    )


class TestTrace:
    @pytest.mark.parametrize("n,k", [(8, 3), (11, 3), (14, 3), (18, 3), (16, 4)])
    def test_replay_reproduces_bytes(self, n, k):
        cert = build_minor(Params(n, k))
        again = replay_trace(cert.trace)
        assert dumps_canonical(minor_to_dict(cert)) == dumps_canonical(minor_to_dict(again))

    def test_11_3_trace_stages(self):
        cert = build_minor(Params(11, 3))
        assert [(e.case, e.n, e.block_size) for e in cert.trace] == [
            (CaseTag.S3_CASE1, 9, 3),
            (CaseTag.S3_CASE2, 10, 4),
            (CaseTag.S3_CASE3, 11, 4),
        ]

    def test_replay_rejects_wrong_stage_size(self):
        cert = build_minor(Params(8, 3))
        bad = (cert.trace[0], replaced(cert.trace[1], block_size=5))
        with pytest.raises(ParameterError):
            replay_trace(bad)

    @pytest.mark.parametrize(
        "n,k,tamper",
        [
            pytest.param(
                8, 3, lambda t: (t[0], replaced(t[1], block_count=t[1].block_count + 1)),
                id="wrong-block-count",
            ),
            pytest.param(8, 3, lambda t: t[::-1], id="swapped-entries"),
            pytest.param(8, 3, lambda t: t[1:], id="dropped-base"),
            pytest.param(
                16, 4, lambda t: (replaced(t[0], block_size=t[0].block_size + 1),),
                id="wrong-s4-block-size",
            ),
            # (12, 3) routes to S4_K3; this stage layout is never recorded for it.
            pytest.param(12, 3, lambda t: (TraceEntry(CaseTag.S3_CASE1, 12, 3, 3, 82),), id="not-routed"),
            pytest.param(8, 3, lambda t: (), id="empty"),
            pytest.param(8, 3, lambda t: (TraceEntry(CaseTag.S2_CASE1, 65, 3, 2, 1),), id="out-of-scope"),
        ],
    )
    def test_replay_accepts_only_the_recorded_trace(self, n, k, tamper):
        bad = tamper(build_minor(Params(n, k)).trace)
        with pytest.raises(ParameterError):
            replay_trace(bad)


class TestClosedFormBound:
    def test_7_3(self):
        assert closed_form_lower_bound(Params(7, 3)) == 22

    def test_11_3(self):
        assert closed_form_lower_bound(Params(11, 3)) == 60

    def test_15_4(self):
        assert closed_form_lower_bound(Params(15, 4)) == 505

    def test_12_4_exact_rational(self):
        want = (
            Fraction(math.comb(12, 4), 3)
            + Fraction(2 * math.comb(11, 3), 3)
            - Fraction(math.comb(8, 4), 3)
            - Fraction(2 * 2, 3)
        )
        assert closed_form_lower_bound(Params(12, 4)) == want == Fraction(751, 3)

    def test_s_equals_4_has_no_closed_form(self):
        # 12 = 4*3 + 0 sits in the s >= 4 regime, outside the closed forms.
        with pytest.raises(ParameterError):
            closed_form_lower_bound(Params(12, 3))

    def test_unsupported_regime(self):
        with pytest.raises(ParameterError):
            closed_form_lower_bound(Params(16, 4))

    @pytest.mark.parametrize(
        "n,k",
        [(7, 3), (8, 3), (9, 4), (10, 4), (11, 4), (9, 3), (10, 3), (11, 3),
         (12, 4), (13, 4), (14, 4), (15, 4), (16, 5), (17, 5), (18, 5), (19, 5)],
    )
    def test_order_meets_bound(self, n, k):
        p = Params(n, k)
        cert = build_minor(p)
        assert cert.order >= math.ceil(closed_form_lower_bound(p))


class TestBoundCheckS4:
    def test_20_4(self):
        report = bound_check_s4(Params(20, 4))
        assert report.threshold == Fraction(176, 1000)  # s = 5 row
        assert report.ok

    def test_25_5(self):
        report = bound_check_s4(Params(25, 5))
        assert report.threshold == Fraction(151, 1000)
        assert report.ok

    def test_24_4(self):
        report = bound_check_s4(Params(24, 4))
        assert report.l <= 5
        assert (1 - report.cut_bound) * 6 >= report.l
        assert report.ok

    def test_cut_bound_is_product_form(self):
        p = Params(20, 4)
        report = bound_check_s4(p)
        want = Fraction(1)
        for j in range(4):
            want *= Fraction(1, 2) + Fraction(2 * 4 - j - 1, 2 * (20 - j))
        assert report.cut_bound == want

    def test_wrong_regime(self):
        with pytest.raises(ParameterError):
            bound_check_s4(Params(11, 3))
        with pytest.raises(ParameterError):
            bound_check_s4(Params(16, 3))


class TestK3Table:
    def test_reference_rows_match(self):
        rows = {row.n: row for row in k3_table_rows(12, 35)}
        for n, (ref_l, ref_order, ref_bound, ref_chi) in K3_TABLE_REFERENCE.items():
            row = rows[n]
            assert row.l == ref_l, n
            assert row.chi == ref_chi, n
            if ref_order is not None:
                assert row.order_exact == ref_order, n
            if ref_bound is not None:
                assert row.order_bound_floor == ref_bound, n

    def test_order_at_least_bound(self):
        for row in k3_table_rows(12, 35):
            assert Fraction(row.order_exact) >= row.order_bound

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            k3_table_rows(10, 20)

    def test_default_range_and_its_ends(self):
        assert [row.n for row in k3_table_rows()] == list(range(12, 36))
        for n_min, n_max in ((11, 12), (35, 36)):
            with pytest.raises(ParameterError, match=r"^table range \["):
                k3_table_rows(n_min, n_max)
