"""Span recording from outside the package, and the per-layer metrics.

``Tracer.installed()`` replaces each public function named in ``TARGETS``
with a recording wrapper at every place the package binds it by name (for
example ``enumerate_family`` lives in ``core`` and is imported into
``baranyai``, ``verify`` and the package root), and restores the originals on
exit.  Spans stay in memory until the run writes them out.

A span is ``[name, start, end, parent, info, failed]``; ``parent`` is the
index of the enclosing span or -1.  A layer's time counts only spans not
nested in a span of the same layer; its self time subtracts the time of its
direct children, which never overlap because the package is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


def _plan_info(args: tuple, kwargs: dict, result: Any) -> dict:
    plan = args[0] if args else kwargs["plan"]
    g = plan.ground_size
    return {"key": (g, plan.k, plan.sizes), "edges": plan.edge_count, "g": g, "classes": len(plan.sizes)}


def _blocks_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"blocks": len(result.blocks) if result is not None else 0}


def _classes_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"classes": len(result.classes) if result is not None else 0}


def _members_info(args: tuple, kwargs: dict, result: Any) -> dict:
    cert = args[0]
    blocks = cert.blocks if hasattr(cert, "blocks") else cert.classes
    return {"members": sum(len(b) for b in blocks)}


def _dump_info(args: tuple, kwargs: dict, result: Any) -> dict:
    # Canonical JSON is ASCII, so characters are bytes.
    return {"bytes": len(result) if isinstance(result, str) else 0}


def _read_info(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


# (module, function, layer span name, info recorder)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("kneser_minors.core", "enumerate_family", "core.enumerate_family", None),
    ("kneser_minors.baranyai", "almost_regular_partition", "baranyai.partition", _plan_info),
    ("kneser_minors.baranyai", "partition_A", "baranyai.covered", None),
    ("kneser_minors.baranyai", "partition_C", "baranyai.covered", None),
    ("kneser_minors.minors", "build_minor", "minors.build", _blocks_info),
    ("kneser_minors.chromatic", "build_coloring", "chromatic.build", _classes_info),
    ("kneser_minors.verify", "verify_minor", "verify.minor", _members_info),
    ("kneser_minors.verify", "verify_coloring", "verify.coloring", _members_info),
    ("kneser_minors.serialize", "minor_to_dict", "serialize.dump", None),
    ("kneser_minors.serialize", "coloring_to_dict", "serialize.dump", None),
    ("kneser_minors.serialize", "dumps_canonical", "serialize.dump", _dump_info),
    ("kneser_minors.serialize", "read_document", "serialize.parse", _read_info),
    ("kneser_minors.serialize", "minor_from_dict", "serialize.parse", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if info is not None:
                    span[4] = info(args, kwargs, result)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "kneser_minors"]
        undo: list[tuple[Any, str, Any]] = []
        try:
            for module_name, attr, name, info in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self.wrap(name, original, info)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent], times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, time (outermost spans only), self time, failures."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, dict[str, float]] = {}
    for idx, span in enumerate(spans):
        name, start, end, parent = span[0], span[1], span[2], span[3]
        row = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[idx]
        row["failed"] += span[5]
        if parent < 0 or spans[parent][0] != name:
            row["s"] += end - start
    return totals


def info_sum(spans: list[list], name: str, field: str) -> int:
    return sum(s[4][field] for s in spans if s[0] == name and s[4] is not None)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The package-side per-layer metrics of one traced pass."""
    totals = layer_totals(spans)

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    plans = [s[4] for s in spans if s[0] == "baranyai.partition"]
    calls = len(plans)
    distinct = len({p["key"] for p in plans})
    return {
        "core.enumerate_family.calls": get("core.enumerate_family", "calls"),
        "core.enumerate_family.s": get("core.enumerate_family", "s"),
        "baranyai.partition.calls": calls,
        "baranyai.partition.distinct": distinct,
        "baranyai.partition.useful_ratio": distinct / calls if calls else 0.0,
        "baranyai.partition.s": get("baranyai.partition", "s"),
        "baranyai.partition.edges": sum(p["edges"] for p in plans),
        "baranyai.partition.label_steps": sum(p["g"] for p in plans),
        "baranyai.partition.class_steps": sum(p["g"] * p["classes"] for p in plans),
        "baranyai.partition.failed": get("baranyai.partition", "failed"),
        "baranyai.covered.calls": get("baranyai.covered", "calls"),
        "baranyai.covered.self_s": get("baranyai.covered", "self_s"),
        "minors.build.calls": get("minors.build", "calls"),
        "minors.build.s": get("minors.build", "s"),
        "minors.build.self_s": get("minors.build", "self_s"),
        "minors.blocks": info_sum(spans, "minors.build", "blocks"),
        "chromatic.build.calls": get("chromatic.build", "calls"),
        "chromatic.build.s": get("chromatic.build", "s"),
        "chromatic.build.self_s": get("chromatic.build", "self_s"),
        "chromatic.classes": info_sum(spans, "chromatic.build", "classes"),
        "verify.minor.calls": get("verify.minor", "calls"),
        "verify.minor.s": get("verify.minor", "s"),
        "verify.coloring.calls": get("verify.coloring", "calls"),
        "verify.coloring.s": get("verify.coloring", "s"),
        "verify.members": info_sum(spans, "verify.minor", "members") + info_sum(spans, "verify.coloring", "members"),
        "serialize.dump.s": get("serialize.dump", "s"),
        "serialize.dump.bytes": info_sum(spans, "serialize.dump", "bytes"),
        "serialize.parse.s": get("serialize.parse", "s"),
        "serialize.parse.bytes": info_sum(spans, "serialize.parse", "bytes"),
        "cli.verify.calls": get("cli.verify", "calls"),
        "cli.verify.process_s": get("cli.verify", "s"),
    }
