"""The contract of the package's public value types.

Each is an immutable record: its fields in a fixed order, built by position
or keyword, validated where it has invariants, equal (and hashed alike) only
within its own type, and written by ``repr`` as ``Name(field=value, ...)``.
The last tests check, in a fresh interpreter, that importing the CLI loads
neither ``dataclasses`` nor ``fractions``.
"""

import copy
import hashlib
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import kneser_minors
from kneser_minors import (
    AlmostRegularPartition,
    CheckResult,
    ColoringCertificate,
    CoveredPartition,
    K3Params,
    K3TableRow,
    MinorCertificate,
    OutOfScopeError,
    ParameterError,
    Params,
    PartitionPlan,
    S4Params,
    TraceEntry,
    VerificationReport,
    almost_regular_partition,
    build_coloring,
    build_minor,
    k3_table_rows,
    partition_A,
    verify_minor,
)
from kneser_minors.core import Record

MINOR = build_minor(Params(8, 3))
REPORT = verify_minor(MINOR)

# One instance of each public record type, and its field names in order.
RECORDS = {
    "Params": (Params(7, 3), ("n", "k")),
    "PartitionPlan": (PartitionPlan((1, 5), 2, (5, 5)), ("ground", "k", "sizes")),
    "AlmostRegularPartition": (almost_regular_partition(PartitionPlan((1, 5), 2, (5, 5))), ("plan", "classes")),
    "CoveredPartition": (
        partition_A(1, Params(7, 3), 3),
        ("plan", "anchor", "blocks", "guaranteed_blocks", "coverage_floor"),
    ),
    "ColoringCertificate": (build_coloring(Params(7, 3)), ("n", "k", "classes")),
    "TraceEntry": (MINOR.trace[0], ("case", "n", "k", "block_size", "block_count")),
    "MinorCertificate": (MINOR, ("n", "k", "blocks", "trace", "claimed_order")),
    "S4Params": (S4Params.from_params(Params(16, 4)), ("l_prime", "l", "n_prime")),
    "K3Params": (K3Params.from_n(12), ("s_prime", "t_prime", "l", "n_prime")),
    "K3TableRow": (k3_table_rows(12, 12)[0], ("n", "l", "order_exact", "order_bound", "chi")),
    "CheckResult": (REPORT.checks[0], ("name", "passed", "detail")),
    "VerificationReport": (REPORT, ("checks",)),
}


def fields_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    value, names = RECORDS[request.param]
    assert type(value).__name__ == request.param
    return value, names, fields_of(value, names)


def test_positional_and_keyword_construction_agree(record):
    value, names, fields = record
    cls = type(value)
    assert cls(*fields) == cls(**dict(zip(names, fields))) == value
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == value


def test_missing_unknown_or_repeated_argument_is_a_type_error(record):
    value, names, fields = record
    cls = type(value)
    keywords = dict(zip(names, fields))
    bad_calls = [
        lambda: cls(*fields[:-1]),
        lambda: cls(**dict(zip(names[1:], fields[1:]))),
        lambda: cls(*fields, fields[0]),
        lambda: cls(*fields, unknown=1),
        lambda: cls(**keywords, unknown=1),
        lambda: cls(*fields, **{names[0]: fields[0]}),
        lambda: cls(fields[0], **keywords),
    ]
    for call in bad_calls:
        with pytest.raises(TypeError):
            call()


def test_fields_cannot_be_assigned_or_deleted(record):
    value, names, fields = record
    for name, field in zip(names, fields):
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert fields_of(value, names) == fields


def test_equality_and_hash_hold_within_the_type_only(record):
    value, names, fields = record
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    look_alike = type("LookAlike", (Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert look_alike(*fields) != value and value != look_alike(*fields)
    assert value != fields and fields != value
    assert value != object()


def test_repr_names_every_field_in_order(record):
    value, names, fields = record
    inner = ", ".join(f"{name}={field!r}" for name, field in zip(names, fields))
    assert repr(value) == f"{type(value).__name__}({inner})"


@pytest.mark.parametrize(
    "value,text",
    [
        (Params(7, 3), "Params(n=7, k=3)"),
        (PartitionPlan((1, 5), 2, (5, 5)), "PartitionPlan(ground=(1, 5), k=2, sizes=(5, 5))"),
        (MINOR.trace[0], "TraceEntry(case=<CaseTag.S2_CASE1: 'S2_CASE1'>, n=7, k=3, block_size=2, block_count=23)"),
        (S4Params.from_params(Params(16, 4)), "S4Params(l_prime=5, l=3, n_prime=7)"),
        (K3Params.from_n(12), "K3Params(s_prime=3, t_prime=0, l=3, n_prime=6)"),
        (k3_table_rows(12, 12)[0], "K3TableRow(n=12, l=3, order_exact=66, order_bound=Fraction(182, 3), chi=55)"),
        (REPORT.checks[0], "CheckResult(name='structure', passed=True, detail='30 well-formed blocks')"),
    ],
)
def test_repr_text(value, text):
    assert repr(value) == text


def test_pickle_and_copy_round_trips(record):
    value, names, fields = record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and hash(back) == hash(value) and type(back) is type(value)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    with pytest.raises(AttributeError):
        copy.deepcopy(value).extra = 1


def test_k3_table_row_bound_is_an_exact_fraction():
    from fractions import Fraction

    row = k3_table_rows(12, 12)[0]
    assert type(row.order_bound) is Fraction and row.order_bound == Fraction(182, 3)
    assert row.order_bound_floor == 60


def record_types():
    """Every ``Record`` subclass the package defines, once each module is imported."""
    for module in pkgutil.iter_modules(kneser_minors.__path__):
        if module.name != "__main__":
            importlib.import_module(f"kneser_minors.{module.name}")
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("kneser_minors.") and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def test_type_hints_resolve_on_every_record_type():
    types = record_types()
    assert {cls.__name__ for cls in types} == set(RECORDS)
    for cls in types:
        hints = typing.get_type_hints(cls)
        assert tuple(hints) == cls._fields, cls
    row = RECORDS["K3TableRow"][0]
    assert isinstance(row.order_bound, typing.get_type_hints(K3TableRow)["order_bound"])


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Params(7, 2), OutOfScopeError, "k = 2 is out of scope (k >= 3 required)"),
        (lambda: Params(6, 3), OutOfScopeError, "n = 6 is out of scope for k = 3 (n >= 7 required)"),
        (lambda: Params(n=65, k=3), OutOfScopeError, "n = 65 exceeds the 64-label representation cap"),
        (lambda: PartitionPlan((1, 5), 2, (5, 4)), ParameterError, "sizes sum to 9, expected C(5, 2) = 10"),
        (lambda: PartitionPlan(ground=(0, 5), k=2, sizes=(10,)), ParameterError, "bad ground interval [0, 5]"),
        (lambda: PartitionPlan((1, 5), 6, (1,)), ParameterError, "k = 6 invalid for ground of 5 labels"),
        (lambda: PartitionPlan((1, 5), 2, (10, 0)), ParameterError, "class sizes must be positive"),
    ],
)
def test_validation_errors_and_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "plan,message",
    [
        (lambda: PartitionPlan((1, 5), 0, (1,)), "k = 0 invalid for ground of 5 labels"),
        (lambda: PartitionPlan((5, 4), 1, (1,)), "bad ground interval [5, 4]"),
        (lambda: PartitionPlan((1, 5), 2, ()), "class sizes must be positive"),
    ],
    ids=["k-0", "lo-above-hi", "no-sizes"],
)
def test_plan_messages(plan, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        plan()


def run_fresh(code=None, argv=()):
    src = str(Path(kneser_minors.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, *(["-c", code] if code else ["-m", "kneser_minors", *argv])]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    # Compared with what the interpreter had loaded before, so a module that
    # site preloads does not count against the package.
    proc = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kneser_minors.cli\n"
        "print(sorted({'dataclasses', 'fractions'} & (set(sys.modules) - before)))\n"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_table_output_is_unchanged_in_a_fresh_interpreter():
    # The table is the one command that needs Fraction, imported where it is used.
    proc = run_fresh(argv=["table"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["  n   l   f(n)   g(n)   chi  check", " 12   3     66     60    55  ok"]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "0fad955e567439ef59f04321b73c3c35917e5ac0e0f4316c555797b0a4b65fe5"
    )
