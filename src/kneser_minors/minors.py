"""Case-routed construction of complete-minor certificates.

A certificate is a family of pairwise-disjoint blocks of k-subsets of [n]
such that every block induces a connected subgraph of the complement graph
and every pair of blocks is joined by an edge.  Construction is routed on
s = n // k:

* s = 2: singleton blocks for the family anchored at label 1, plus size-2
  blocks of the families anchored at 2..k; when t = k-1 the build recurses
  to n-1 and appends size-3 blocks of the label-n family.
* s = 3: the same shape with size-3 anchored blocks; for t = k-2 and
  t = k-1 the build recurses (once resp. twice) and appends size-4 blocks
  of the label-n family at each stage.
* s >= 4, k >= 4: size-l blocks of the families anchored at 1..n', where
  l is roughly half of (n-1)/(k-1) and n' = n - l(k-1); the preflight
  inequalities (each block covers more than n/2 labels, and there are
  enough full blocks) are proved on all 870 in-scope instances by
  ``tests/test_scope.py``, not checked at run time.
* s >= 4, k = 3: the analogous split driven by n = 4s' + t'; for
  n in {18, 22, 26} the certificate is built inside [n-1], and n = 14 gets
  a dedicated two-part build (the n = 13 certificate plus 19 size-4 blocks
  of the label-14 family).

Every build is recorded as a trace of stages, one per (n, k) it passes
through.  ``replay_trace`` accepts only the trace ``build_minor`` records for
the trace's final (n, k) and re-executes it, so a replay reproduces the
certificate byte-for-byte; any other trace is a ParameterError.  The minor
file parser, ``serialize.minor_from_dict``, holds a file's trace to the same
rule (``_recorded_trace``).  Exact block
counts (never the floor-bound estimates) are used throughout, so the
strongest orders fall out automatically.
"""

from __future__ import annotations

from enum import Enum
from numbers import Rational

from .baranyai import _check_cap, partition_A, partition_C
from .core import Params, Record, binomial, family_A
from .errors import OutOfScopeError, ParameterError
from .chromatic import chi_of


class CaseTag(str, Enum):
    S2_CASE1 = "S2_CASE1"
    S2_CASE2 = "S2_CASE2"
    S3_CASE1 = "S3_CASE1"
    S3_CASE2 = "S3_CASE2"
    S3_CASE3 = "S3_CASE3"
    S4_KGE4 = "S4_KGE4"
    S4_K3 = "S4_K3"
    S4_K3_SHIFT = "S4_K3_SHIFT"
    SPECIAL_14_3 = "SPECIAL_14_3"


_SHIFTED_K3 = frozenset({18, 22, 26})


class TraceEntry(Record):
    """One build stage: the case applied, its (n, k), the partition block
    size it used (None for the pure re-embedding stage) and how many blocks
    it contributed."""

    case: CaseTag
    n: int
    k: int
    block_size: int | None
    block_count: int


class MinorCertificate(Record):
    n: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
    trace: tuple[TraceEntry, ...]
    claimed_order: int

    @property
    def order(self) -> int:
        return len(self.blocks)


def _k3_split(n: int) -> tuple[int, int]:
    """(l, n') of the s >= 4, k = 3 regime: n = 4s' + t', l = s' or s' + 1 by t', n' = n - 2l.
    ``tests/test_scope.py`` proves (n-1)/2 <= 2l <= n/2 + 1 on all 870 in-scope instances."""
    s_prime, t_prime = divmod(n, 4)
    l = s_prime if t_prime <= 1 else s_prime + 1
    return l, n - 2 * l


def _layout(p: Params) -> tuple[CaseTag, int | None, bool, range, bool]:
    """Route p to its regime; return its stage (tag, l, singletons, anchors, stacked).

    l is its block size (None for the re-embedding stage); singletons: it opens
    with the singleton blocks of ``family_A(1, p)``; anchors: the i of its
    ``partition_A(i, p, l)`` parts; stacked: it extends the (n - 1, k)
    certificate, adding ``partition_C(p, l)`` when l is set.
    """
    s, t, k = p.s, p.t, p.k
    if s == 2:
        if t == k - 1:
            return CaseTag.S2_CASE2, 3, False, range(0), True
        return CaseTag.S2_CASE1, s, True, range(2, k + 1), False
    if s == 3:
        if t <= k - 3:
            return CaseTag.S3_CASE1, s, True, range(2, k + 1), False
        return CaseTag.S3_CASE2 if t == k - 2 else CaseTag.S3_CASE3, 4, False, range(0), True
    if k >= 4:
        # l = ceil((l' + 1) / 2) for l' = floor((n-1)/(k-1)), but the floor at (19, 4) keeps l <= s - 1 there.
        l_prime = (p.n - 1) // (k - 1)
        l = (l_prime + 1) // 2 if (p.n, k) == (19, 4) else (l_prime + 2) // 2
        return CaseTag.S4_KGE4, l, False, range(1, p.n - l * (k - 1) + 1), False
    if p.n == 14:
        return CaseTag.SPECIAL_14_3, 4, False, range(0), True
    if p.n in _SHIFTED_K3:
        return CaseTag.S4_K3_SHIFT, None, False, range(0), True
    l, n_prime = _k3_split(p.n)
    return CaseTag.S4_K3, l, False, range(1, n_prime + 1), False


def _stage_entries(p: Params) -> tuple[TraceEntry, ...]:
    """Trace of the build for p, block counts included (all closed-form)."""
    tag, l, singletons, anchors, stacked = _layout(p)
    n, k = p.n, p.k
    count = sum(binomial(n - i, k - 1) // l for i in anchors)
    if singletons:
        count += binomial(n - 1, k - 1)
    below = _stage_entries(Params(n - 1, k)) if stacked else ()
    if stacked and l is not None:
        count += binomial(n - 1, k - 1) // l
    return below + (TraceEntry(tag, n, k, l, count),)


def _recorded_trace(n: int, k: int) -> tuple[TraceEntry, ...]:
    """The trace ``build_minor`` records for (n, k); out of scope is a ParameterError."""
    try:
        return _stage_entries(Params(n, k))
    except OutOfScopeError as exc:
        raise ParameterError(f"no trace is recorded for ({n}, {k}): {exc}") from exc


def replay_trace(
    entries: tuple[TraceEntry, ...] | list[TraceEntry], cap: int | None = None
) -> MinorCertificate:
    """Re-execute the trace ``build_minor`` records for the trace's final (n, k),
    reproducing that certificate exactly.  Any other trace (empty, tampered,
    or one the router never produces) is a ParameterError, as it is when
    ``serialize.minor_from_dict`` reads it.
    """
    entries = tuple(entries)
    if not entries:
        raise ParameterError("empty trace")
    final = entries[-1]
    recorded = _recorded_trace(final.n, final.k)
    if entries != recorded:
        raise ParameterError(f"not the trace build_minor records for ({final.n}, {final.k})")
    return build_minor(Params(final.n, final.k), cap)


def build_minor(p: Params, cap: int | None = None) -> MinorCertificate:
    """Build a complete-minor certificate for (n, k) via the routed regime,
    one stage of its trace at a time."""
    _check_cap(binomial(p.n, p.k), cap)
    entries = _stage_entries(p)
    blocks: list[tuple[int, ...]] = []
    for entry in entries:
        q = Params(entry.n, entry.k)
        _, l, singletons, anchors, stacked = _layout(q)
        if singletons:
            blocks.extend((m,) for m in family_A(1, q))
        for i in anchors:
            cov = partition_A(i, q, l, cap=cap)
            blocks.extend(cov.blocks[: cov.guaranteed_blocks])
        if stacked and l is not None:
            cov = partition_C(q, l, cap=cap)
            blocks.extend(cov.blocks[: cov.guaranteed_blocks])
    return MinorCertificate(n=p.n, k=p.k, blocks=tuple(blocks), trace=entries, claimed_order=len(blocks))


class K3TableRow(Record):
    """One row of the k = 3 summary table: block size l, exact constructed
    order, the closed-form order bound as an exact rational (a ``Fraction``,
    hinted by its ABC so hints resolve with no ``fractions`` import), and chi."""

    n: int
    l: int
    order_exact: int
    order_bound: Rational
    chi: int

    @property
    def order_bound_floor(self) -> int:
        return self.order_bound.numerator // self.order_bound.denominator


def k3_table_rows(n_min: int = 12, n_max: int = 35) -> list[K3TableRow]:
    """Compute the k = 3 table for n_min <= n <= n_max (within [12, 35])."""
    if not 12 <= n_min <= n_max <= 35:
        raise ParameterError(f"table range [{n_min}, {n_max}] outside [12, 35]")
    from fractions import Fraction
    rows = []
    for n in range(n_min, n_max + 1):
        l, n_prime = _k3_split(n)
        order = sum(binomial(n - i, 2) // l for i in range(1, n_prime + 1))
        bound = Fraction(binomial(n, 3) - binomial(2 * l, 3), l) - n_prime
        rows.append(K3TableRow(n=n, l=l, order_exact=order, order_bound=bound, chi=chi_of(n, 3)))
    return rows


# Reference values for the k = 3 table, 12 <= n <= 35: block size l and chi
# for every n; the exact order where recorded (n = 19, 23) and the floored
# order bound where recorded.  Entries are (l, order, bound_floor, chi); the
# n in {14, 18, 22, 26} rows have neither order nor bound recorded because
# those instances are served by a shifted or dedicated build.
K3_TABLE_REFERENCE: dict[int, tuple[int, int | None, int | None, int]] = {
    12: (3, None, 60, 55),
    13: (3, None, 81, 72),
    14: (4, None, None, 91),
    15: (4, None, 92, 91),
    16: (4, None, 118, 112),
    17: (4, None, 147, 136),
    18: (5, None, None, 136),
    19: (5, 168, None, 162),
    20: (5, None, 194, 190),
    21: (5, None, 231, 190),
    22: (6, None, None, 220),
    23: (6, 255, None, 253),
    24: (6, None, 288, 253),
    25: (6, None, 333, 288),
    26: (7, None, None, 325),
    27: (7, None, 352, 325),
    28: (7, None, 402, 364),
    29: (7, None, 455, 406),
    30: (8, None, 423, 406),
    31: (8, None, 476, 450),
    32: (8, None, 534, 496),
    33: (8, None, 595, 496),
    34: (9, None, 558, 544),
    35: (9, None, 619, 595),
}
