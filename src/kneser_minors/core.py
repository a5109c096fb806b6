"""Exact combinatorics of k-subsets of [n] stored as one-word bit sets.

Labels are 1-based: a k-subset of [n] is an ``int`` whose bit ``label - 1``
is set for each of its labels.  For masks of equal popcount plain integer
order coincides with colexicographic subset order, so integer order is the
canonical order used everywhere.  The label budget is capped at 64 so every
mask fits a single machine word.

The canonical text form of a k-subset lists its labels strictly increasing
inside square brackets, e.g. ``[1,4,7]``.

A *block* is a tuple of distinct masks sharing one (n, k) context; blocks
serve both as partition classes and as branch-set candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import OutOfScopeError, ParameterError

MAX_LABELS = 64

_INT64_MAX = 2**63 - 1


def binomial(a: int, b: int) -> int:
    """Return C(a, b) exactly; 0 when b > a.

    Results are checked against the signed 64-bit range so that counting can
    never overflow silently if ported to fixed-width arithmetic.
    """
    if a < 0 or b < 0:
        raise ParameterError(f"binomial needs non-negative arguments, got ({a}, {b})")
    if b > a:
        return 0
    value = math.comb(a, b)
    if value > _INT64_MAX:
        raise OutOfScopeError(f"binomial({a}, {b}) exceeds the 64-bit range")
    return value


@dataclass(frozen=True)
class Params:
    """Graph parameters (n, k) with the split n = s*k + t, 0 <= t <= k-1.

    Valid instances satisfy k >= 3 and 2k+1 <= n <= 64, which forces s >= 2.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise OutOfScopeError(f"k = {self.k} is out of scope (k >= 3 required)")
        if self.n < 2 * self.k + 1:
            raise OutOfScopeError(
                f"n = {self.n} is out of scope for k = {self.k} (n >= {2 * self.k + 1} required)"
            )
        if self.n > MAX_LABELS:
            raise OutOfScopeError(f"n = {self.n} exceeds the {MAX_LABELS}-label representation cap")

    @property
    def s(self) -> int:
        return self.n // self.k

    @property
    def t(self) -> int:
        return self.n % self.k


def kset_mask(labels: Iterable[int]) -> int:
    """Build a mask from labels, validating range and distinctness."""
    mask = 0
    for label in labels:
        if not isinstance(label, int) or isinstance(label, bool):
            raise ParameterError(f"label {label!r} is not an integer")
        if not 1 <= label <= MAX_LABELS:
            raise ParameterError(f"label {label} outside [1, {MAX_LABELS}]")
        bit = 1 << (label - 1)
        if mask & bit:
            raise ParameterError(f"duplicate label {label}")
        mask |= bit
    return mask


def kset_labels(mask: int) -> tuple[int, ...]:
    """Labels of a mask in increasing order."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length())
        mask ^= low
    return tuple(labels)


def label_degrees(block: Iterable[int], n: int) -> list[int]:
    """Degrees of labels 1..n in the block: entry ``x - 1`` counts the members
    containing label x.  Every member must lie inside [1, n]."""
    degrees = [0] * n
    for mask in block:
        while mask:
            low = mask & -mask
            degrees[low.bit_length() - 1] += 1
            mask ^= low
    return degrees


def kset_text(mask: int) -> str:
    """Canonical text form, e.g. ``[1,4,7]``."""
    return "[" + ",".join(str(label) for label in kset_labels(mask)) + "]"


def intersects(a: int, b: int) -> bool:
    """Edge test of the complement graph: true iff the two k-subsets meet."""
    return (a & b) != 0


def union_mask(members: Iterable[int]) -> int:
    mask = 0
    for m in members:
        mask |= m
    return mask


def enumerate_family(lo: int, hi: int, k: int) -> list[int]:
    """All k-subsets of the label interval [lo, hi] in colexicographic order.

    Enumeration walks equal-popcount masks in increasing integer order
    (Gosper's hack), which is exactly colex order on the subsets.
    """
    if not (1 <= lo <= hi <= MAX_LABELS):
        raise ParameterError(f"bad label interval [{lo}, {hi}]")
    width = hi - lo + 1
    if k < 1 or k > width:
        raise ParameterError(f"interval [{lo}, {hi}] has no {k}-subsets")
    shift = lo - 1
    mask = (1 << k) - 1
    limit = 1 << width
    out = []
    while mask < limit:
        out.append(mask << shift)
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)
    return out


def family_A(i: int, p: Params) -> list[int]:
    """k-subsets of [n] whose smallest label is i, in colex order.

    The family has size C(n-i, k-1); i must lie in [1, n-k+1].
    """
    if not 1 <= i <= p.n - p.k + 1:
        raise ParameterError(f"i = {i} outside [1, {p.n - p.k + 1}] for (n, k) = ({p.n}, {p.k})")
    anchor = 1 << (i - 1)
    if p.k == 1:
        return [anchor]
    return [anchor | rest for rest in enumerate_family(i + 1, p.n, p.k - 1)]


def params_grid(k_values: Iterable[int], cap: int) -> list[Params]:
    """All in-scope Params with the given k values and C(n, k) <= cap, (k, n) ascending."""
    out = []
    for k in sorted(set(k_values)):
        n = 2 * k + 1
        while n <= MAX_LABELS and binomial(n, k) <= cap:
            out.append(Params(n, k))
            n += 1
    return out
