"""The theorem over the whole 64-label scope, by counting.

The acceptance suite builds and checks the 79 sweep instances.  Here every
in-scope (n, k) -- 3 <= k and 2k + 1 <= n <= 64, 870 pairs -- is checked
without a build: the trace ``build_minor`` would record derives, its
closed-form block counts reach chi, and the preflight inequalities of
``S4Params`` and ``K3Params`` hold in exact rationals.  The builder does not
check these inequalities at run time; this file is their proof.  The three
k = 7 instances the default cap admits, which no sweep covers, are built and
verified.  Every anchored family the k = 3 builds split takes its pairs in
circle order, and the cut's classes for each of their 281 distinct local
plans pass the engine's self-check, which the test runs on them (the cut
runs no check of its own); each of those builds has as many blocks as its
trace's closed-form counts add up to.
"""

from fractions import Fraction

import pytest

from kneser_minors import (
    K3Params,
    MAX_LABELS,
    Params,
    PartitionPlan,
    S4Params,
    binomial,
    build_coloring,
    build_minor,
    chi,
    chi_of,
    verify_coloring,
    verify_minor,
)
from kneser_minors import baranyai
from kneser_minors.minors import _recorded_trace
from oracles import bound_check_s4

SCOPE = [(n, k) for k in range(3, MAX_LABELS) for n in range(2 * k + 1, MAX_LABELS + 1)]
SHIFTED = {18, 22, 26}


def test_scope_has_870_instances():
    assert len(SCOPE) == 870


def test_every_recorded_trace_reaches_chi():
    margins = {}
    for n, k in SCOPE:
        trace = _recorded_trace(n, k)
        assert (trace[-1].n, trace[-1].k) == (n, k)
        margins[n, k] = sum(entry.block_count for entry in trace) - chi_of(n, k)
    assert min(margins.values()) == 2
    assert sorted(nk for nk, margin in margins.items() if margin == 2) == [(8, 3), (23, 3)]


def test_preflight_inequalities_in_exact_rationals():
    s4_checked = k3_checked = 0
    for n, k in SCOPE:
        p = Params(n, k)
        if k >= 4 and p.s >= 4:
            q = S4Params.from_params(p)
            assert Fraction(q.l) <= Fraction(q.l_prime + 2, 2), (n, k)
            assert Fraction(q.l_prime + 2, 2) <= Fraction(p.s + 3 + Fraction(p.s - 1, k - 1), 2), (n, k)
            cover = q.l * (k - 1) + 1
            assert Fraction(n, 2) < cover <= Fraction(n - 1, 2) + k, (n, k)
            assert Fraction(binomial(n - q.n_prime, k - 1), q.l) > q.n_prime, (n, k)
            assert bound_check_s4(p).ok, (n, k)
            s4_checked += 1
        if k == 3 and p.s >= 4:
            effective = 13 if n == 14 else n - 1 if n in SHIFTED else n
            q3 = K3Params.from_n(effective)
            assert Fraction(effective - 1, 2) <= 2 * q3.l <= Fraction(effective, 2) + 1, n
            k3_checked += 1
    assert (s4_checked, k3_checked) == (325, 53)


def test_k3_block_size_is_about_a_quarter_of_n():
    # n = 4s' + t' and 4l is n - t' or n - t' + 4, so 4l lies in [n - 1, n + 2].
    for n in range(12, MAX_LABELS + 1):
        assert n - 1 <= 4 * K3Params.from_n(n).l <= n + 2, n


@pytest.mark.parametrize("n", [15, 16, 17])
def test_k7_instances_inside_the_default_cap(n):
    p = Params(n, 7)
    minor = build_minor(p)
    report = verify_minor(minor)
    assert report.passed, report.summary_lines()
    assert minor.order >= chi(p)
    coloring = build_coloring(p)
    report = verify_coloring(coloring)
    assert report.passed, report.summary_lines()
    assert len(coloring.classes) == chi(p)


def test_every_k3_anchored_plan_passes_the_circle_cut(plan_memo, monkeypatch):
    # Record the local plans the k = 3 builds hand to the circle cut, on a
    # cold memo so each distinct plan is cut at least once; none reaches the
    # engine.  The cut runs no check, so the recorder runs ``_self_check`` on
    # each cut, which raises on a bad one.
    plans, engine, cut = [], [], baranyai._circle_partition

    def recording(g, sizes):
        plans.append(PartitionPlan((1, g), 2, sizes))
        classes = cut(g, sizes)
        baranyai._self_check(plans[-1], classes)
        return classes

    monkeypatch.setattr(baranyai, "_circle_partition", recording)
    monkeypatch.setattr(baranyai, "almost_regular_partition", lambda plan, cap=None: engine.append(plan))
    for n in range(2 * 3 + 1, MAX_LABELS + 1):
        cert = build_minor(Params(n, 3), cap=10**6)
        assert cert.order == sum(entry.block_count for entry in cert.trace), n
    local = {(plan.ground_size, max(plan.sizes)) for plan in plans}
    assert engine == [] and len(local) == 281
    assert {g % 2 for g, _ in local} == {0, 1} and max(local)[0] == 63
    # The largest blocks are whole rounds of an even ground: g / 2 pairs.
    assert sum(2 * l == g for g, l in local) == 15
