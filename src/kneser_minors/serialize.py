"""Versioned JSON wire formats for certificates, partitions and reports.

All documents are UTF-8 JSON with sorted keys, so identical objects
serialize to identical bytes.  k-subsets appear as strictly increasing label
arrays, built per call by ``_label_lists`` from tables that list the subsets
of at most k labels of each half of [1, n]: a member is one concatenation of
two looked-up lists, a fresh list of exact size.  ``core.label_list`` stays
the reference and writes every member of a call the tables do not serve.

A minor document's ``trace`` must be exactly the trace ``build_minor``
records for its (n, k), as ``minor_to_dict`` writes it; ``minor_from_dict``
raises ParameterError for any other, and the parsed certificate carries the
recorded entries.  The verifier never reads the trace.

``_block_lists`` reads each label array in one loop that accepts only an
exact list of exact ints, strictly increasing within [1, MAX_LABELS].  Any
other member goes whole to ``_mask_from_labels``, which accepts it or raises
the ParameterError naming it, so inputs and messages are that reader's.

``dumps_canonical`` writes one line of JSON with sorted keys and no
insignificant whitespace, plus a final newline: one call to the stdlib's
C-accelerated encoder, without its per-container cycle check (a circular value
hits RecursionError, and the checked call then raises the stdlib's ValueError).
For these documents, which hold only integers and ASCII strings, that is close
to the JSON Canonicalization Scheme (RFC 8785).  The readers accept any
whitespace, so files written with an indent still read.

The writers ``*_to_dict`` and ``dumps_canonical`` pause the cyclic collector,
which otherwise rescans a certificate's fresh label lists while they are made
and encoded.  Documents hold no cycles, so reference counting frees them; one
kept alive has its collection deferred, not removed (no slower in-process).  A
writer restores the state it found, also on a raise; another thread switching
the collector during a write may have its setting overridden.
"""

from __future__ import annotations

import gc
import json
from functools import wraps
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Sequence

from .baranyai import AlmostRegularPartition, PartitionPlan
from .chromatic import ColoringCertificate
from .core import MAX_LABELS, kset_mask, label_list
from .errors import ParameterError
from .minors import MinorCertificate, TraceEntry, _recorded_trace
from .verify import VerificationReport

FORMAT_VERSION = 1


def _collector_paused(write):  # see the module docstring
    @wraps(write)
    def paused(value):  # one positional: no argument tuple is made before the pause
        was = gc.isenabled()
        gc.disable()
        try:
            return write(value)
        finally:
            if was:
                gc.enable()

    return paused


@_collector_paused
def dumps_canonical(document: Any) -> str:
    """Canonical text of a JSON value: sorted keys, no insignificant whitespace, final newline."""
    try:
        return json.dumps(document, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    except RecursionError:  # circular, or too deep: the checked call raises as the stdlib does
        return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _label_lists(rows: Sequence[Sequence[int]], n: int, k: int) -> list[list[list[int]]]:
    """``[[label_list(m) for m in row] for row in rows]``, from tables of each half's subsets."""
    h = (n + 1) // 2
    if 1 <= k <= n <= MAX_LABELS and sum(comb(h, i) + comb(n - h, i) for i in range(k + 1)) <= sum(map(len, rows)):
        low, high, cut = {}, {}, (1 << h) - 1
        for table, labels in ((low, range(1, h + 1)), (high, range(h + 1, n + 1))):
            bits = [1 << i for i in range(len(labels))]  # keys: masks shifted down to the half's start
            for i in range(k + 1):
                table.update(zip(map(sum, combinations(bits, i)), map(list, combinations(labels, i))))
        try:
            return [[low[m & cut] + high[m >> h] for m in row] for row in rows]
        except (KeyError, TypeError):  # a negative mask, a label above n, over k labels in a half, a non-int
            pass
    return [[label_list(m) for m in row] for row in rows]


def _mask_from_labels(raw: Any, where: str) -> int:
    if not isinstance(raw, list) or not raw:
        raise ParameterError(f"{where}: expected a nonempty label array")
    try:
        mask = kset_mask(raw)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from exc
    if raw != sorted(raw):
        raise ParameterError(f"{where}: labels must be strictly increasing")
    return mask


def _block_lists(blocks: list, where: str) -> tuple[tuple[int, ...], ...]:
    out = []
    for bi, block in enumerate(blocks):
        if not isinstance(block, list) or not block:
            raise ParameterError(f"{where}[{bi}]: expected a nonempty array of label arrays")
        masks = []
        for mi, member in enumerate(block):
            if type(member) is list and member:
                mask = prev = 0
                for x in member:
                    if type(x) is not int or not prev < x <= MAX_LABELS:
                        break
                    mask |= 1 << (x - 1)
                    prev = x
                else:
                    masks.append(mask)
                    continue
            masks.append(_mask_from_labels(member, f"{where}[{bi}][{mi}]"))  # any other member
        out.append(tuple(masks))
    return tuple(out)


def _require(document: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(document, dict) or key not in document:
        raise ParameterError(f"{where}: missing field {key!r}")
    value = document[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ParameterError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ParameterError(f"{where}: field {key!r} has the wrong type")
    return value


def _check_header(document: Any, kind: str) -> None:
    version = _require(document, "version", int, kind)
    if version != FORMAT_VERSION:
        raise ParameterError(f"{kind}: unsupported version {version}")
    if kind in ("minor", "coloring"):
        got = _require(document, "kind", str, kind)
        if got != kind:
            raise ParameterError(f"expected a {kind} certificate, found kind = {got!r}")


def _trace_list(trace: tuple[TraceEntry, ...]) -> list[dict[str, Any]]:
    return [
        {
            "case": entry.case.value,
            "params": {
                "n": entry.n,
                "k": entry.k,
                "block_size": entry.block_size,
                "block_count": entry.block_count,
            },
        }
        for entry in trace
    ]


@_collector_paused
def minor_to_dict(cert: MinorCertificate) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "minor",
        "n": cert.n,
        "k": cert.k,
        "blocks": _label_lists(cert.blocks, cert.n, cert.k),
        "trace": _trace_list(cert.trace),
        "claimed_order": cert.claimed_order,
    }


def minor_from_dict(document: Any) -> MinorCertificate:
    _check_header(document, "minor")
    n = _require(document, "n", int, "minor")
    k = _require(document, "k", int, "minor")
    blocks = _block_lists(_require(document, "blocks", list, "minor"), "blocks")
    claimed = _require(document, "claimed_order", int, "minor")
    trace = _recorded_trace(n, k)
    # == against the rendering: its depth bounds the comparison, whatever the input's.
    if _require(document, "trace", list, "minor") != _trace_list(trace):
        raise ParameterError(f"minor: not the trace build_minor records for ({n}, {k})")
    return MinorCertificate(n=n, k=k, blocks=blocks, trace=trace, claimed_order=claimed)


@_collector_paused
def coloring_to_dict(cert: ColoringCertificate) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "coloring",
        "n": cert.n,
        "k": cert.k,
        "classes": _label_lists(cert.classes, cert.n, cert.k),
    }


def coloring_from_dict(document: Any) -> ColoringCertificate:
    _check_header(document, "coloring")
    return ColoringCertificate(
        n=_require(document, "n", int, "coloring"),
        k=_require(document, "k", int, "coloring"),
        classes=_block_lists(_require(document, "classes", list, "coloring"), "classes"),
    )


@_collector_paused
def partition_to_dict(part: AlmostRegularPartition) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "ground": list(part.plan.ground),
        "k": part.plan.k,
        "sizes": list(part.plan.sizes),
        "classes": _label_lists(part.classes, part.plan.ground[1], part.plan.k),
    }


def partition_from_dict(document: Any) -> AlmostRegularPartition:
    _check_header(document, "partition")
    ground = _require(document, "ground", list, "partition")
    if len(ground) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in ground):
        raise ParameterError("partition: ground must be [lo, hi]")
    sizes = _require(document, "sizes", list, "partition")
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in sizes):
        raise ParameterError("partition: sizes must be integers")
    plan = PartitionPlan(ground=(ground[0], ground[1]), k=_require(document, "k", int, "partition"), sizes=tuple(sizes))
    classes = _block_lists(_require(document, "classes", list, "partition"), "classes")
    return AlmostRegularPartition(plan=plan, classes=classes)


def report_to_dict(report: VerificationReport) -> dict[str, Any]:
    return {
        "pass": report.passed,
        "checks": [
            {"name": c.name, "pass": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def write_document(path: str | Path, document: Any) -> None:
    try:
        Path(path).write_text(dumps_canonical(document), encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def read_document(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParameterError(f"cannot read {path}: {exc}") from exc
