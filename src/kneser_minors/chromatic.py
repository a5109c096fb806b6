"""Chromatic number of the complement graph, with its coloring certificate.

chi = ceil(C(n, k) / floor(n / k)) exactly.  The upper bound is witnessed by
an explicit proper coloring built from the partition engine: a class of size
at most floor(n / k) with degree spread <= 1 has all degrees in {0, 1}, i.e.
its members are pairwise disjoint and form an independent set of the
complement graph.  The lower bound holds because floor(n / k) pairwise
disjoint k-subsets is the most [n] can hold, so no color class is larger.
"""

from __future__ import annotations


from .baranyai import _uniform_plan, almost_regular_partition
from .core import Params, Record, binomial
from .errors import ParameterError


class ColoringCertificate(Record):
    """A proper coloring of the complement graph by pairwise-disjoint families."""

    n: int
    k: int
    classes: tuple[tuple[int, ...], ...]


def chi_of(n: int, k: int) -> int:
    """ceil(C(n, k) / floor(n / k)) with exact integer arithmetic."""
    if not 1 <= k <= n:
        raise ParameterError(f"k = {k} outside [1, {n}]")
    return -(-binomial(n, k) // (n // k))


def chi(p: Params) -> int:
    return chi_of(p.n, p.k)


def build_coloring(p: Params, cap: int | None = None) -> ColoringCertificate:
    """Proper coloring with exactly chi(p) classes, each of size <= floor(n/k)."""
    part = almost_regular_partition(_uniform_plan((1, p.n), p.k, p.n // p.k, cap), cap=cap)
    return ColoringCertificate(n=p.n, k=p.k, classes=part.classes)
