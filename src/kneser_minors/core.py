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

The facts of an almost-regular partition are checked once, here, for the
engine's self-check and the verifiers alike (the ``*_detail`` functions).
``family_detail`` and ``spread_detail`` judge the whole family with C-level
set, map and bit operations first and walk the members only to name a fault;
``spread_detail`` passes at once when the class unions' popcounts sum to the
members' (every class is then pairwise disjoint), else counts every class's degrees.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterable, Sequence

from .errors import OutOfScopeError, ParameterError

MAX_LABELS = 64

_INT64_MAX = 2**63 - 1


def binomial(a: int, b: int) -> int:
    """Return C(a, b) exactly; 0 when b > a, as ``math.comb`` gives it.

    Results are checked against the signed 64-bit range so that counting can
    never overflow silently if ported to fixed-width arithmetic.
    """
    if a < 0 or b < 0:
        raise ParameterError(f"binomial needs non-negative arguments, got ({a}, {b})")
    # From min(b, a - b) = 34 on, C(a, b) >= C(68, 34) > 2**63 - 1: no need to compute it.
    if min(b, a - b) >= 34 or (value := math.comb(a, b)) > _INT64_MAX:
        raise OutOfScopeError(f"binomial({a}, {b}) exceeds the 64-bit range")
    return value


class Record:
    """Immutable record of its annotated fields, in order: built by position or
    keyword, checked by ``__post_init__``, and equal only within its own type."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes each of ({', '.join(names)}) once")
        self.__dict__.update(zip(names, args), **kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a type with invariants overrides this."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._values()))})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Params(Record):
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


def label_list(mask: int) -> list[int]:
    """Labels of a mask in increasing order, as a new list: the reference and fallback of ``serialize._label_lists``."""
    if mask < 0:
        raise ParameterError(f"negative mask {mask}")
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length())
        mask ^= low
    return labels


def kset_labels(mask: int) -> tuple[int, ...]:
    """Labels of a mask in increasing order."""
    return tuple(label_list(mask))


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
    return reduce(or_, members, 0)


def pairwise_disjoint(members: Sequence[int]) -> bool:
    """True iff no label lies in two members: the union's popcount is the sum of theirs."""
    return union_mask(members).bit_count() == sum(map(int.bit_count, members))


def sizes_detail(classes: Sequence[Sequence[int]], sizes: tuple[int, ...]) -> str | None:
    """Why the class sizes differ from ``sizes``, or None."""
    got = tuple(map(len, classes))
    return None if got == sizes else f"class sizes {got} != plan {sizes}"


def family_detail(classes: Sequence[Sequence[int]], lo: int, hi: int, k: int) -> str | None:
    """Why the members of the classes are not exactly the k-subsets of [lo, hi], or None.

    Every member is first tested to be a k-subset of the ground, so distinct
    members numbering C(hi - lo + 1, k) are the family: it is never enumerated.
    """
    members = [m for cls in classes for m in cls]
    ground = (1 << hi) - (1 << (lo - 1))
    if set(map(int.bit_count, members)) - {k} or union_mask(members) & ~ground:
        bad = next(m for m in members if m.bit_count() != k or m & ~ground)
        return f"member {kset_text(bad)} is not a {k}-subset of [{lo}, {hi}]"
    if len(set(members)) != len(members):
        members.sort()
        dup = next(m for m, after in zip(members, members[1:]) if m == after)
        return f"member {kset_text(dup)} appears twice"
    total = binomial(hi - lo + 1, k)
    if len(members) != total:
        return f"{len(members)} members, expected {total}"
    return None


def spread_detail(classes: Sequence[Sequence[int]], lo: int, hi: int) -> str | None:
    """The first class whose degrees on labels lo..hi differ by more than one, or None.

    Every member must lie inside [1, hi], as ``family_detail`` ensures.  When the
    class unions' popcounts sum to the members', every class is pairwise disjoint,
    so every degree is 0 or 1 and all pass at once; else every class counts its degrees.
    """
    unions = map(reduce, repeat(or_), classes, repeat(0))  # each at most its members' popcount sum
    if sum(map(int.bit_count, unions)) == sum(map(int.bit_count, chain.from_iterable(classes))):
        return None
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
    return [anchor | rest for rest in enumerate_family(i + 1, p.n, p.k - 1)]


def params_grid(k_values: Iterable[int], cap: int) -> list[Params]:
    """All in-scope Params with the given k values and C(n, k) <= cap, (k, n) ascending."""
    out = []
    for k in sorted(set(k_values)):
        if 2 * k + 1 > MAX_LABELS:
            raise OutOfScopeError(f"k = {k} is out of scope (2k + 1 <= {MAX_LABELS} required)")
        Params(2 * k + 1, k)  # a k below 3 raises even when no n fits the cap
        n = 2 * k + 1
        while n <= MAX_LABELS and binomial(n, k) <= cap:
            out.append(Params(n, k))
            n += 1
    return out
