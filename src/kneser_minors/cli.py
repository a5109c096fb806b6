"""Command-line surface.

Subcommands: chi, minor, verify, table, partition, grid.  Exit codes:
0 success/pass, 1 verification failure, 2 usage error, 3 out-of-scope
parameters, 4 resource cap exceeded, 5 internal error (a broken engine
invariant, i.e. a bug), 141 (128 + SIGPIPE) when the reader closed stdout
before the output was written.  The hyperedge cap defaults to 20000 and
can be overridden with the KMF_CAP environment variable or, taking
precedence, --cap; a cap below 1 from either is a usage error.  The
builders refuse a family above the cap, and verify refuses a file with
more members (k-sets) than the cap before it reads any label, each with
exit 4.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import serialize
from .baranyai import DEFAULT_EDGE_CAP, PartitionPlan, _check_cap, _uniform_plan, almost_regular_partition
from .chromatic import build_coloring, chi
from .core import MAX_LABELS, Params, binomial, params_grid
from .errors import (
    ConstructionError,
    OutOfScopeError,
    ParameterError,
    ResourceCapError,
)
from .minors import K3_TABLE_REFERENCE, build_minor, k3_table_rows
from .verify import verify_coloring, verify_minor, verify_partition

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141


def _cap(args: argparse.Namespace) -> int:
    """The hyperedge cap: --cap, else KMF_CAP, else the default."""
    source, cap = "--cap", args.cap
    if cap is None:
        source, raw = "KMF_CAP", os.environ.get("KMF_CAP")
        if raw is None:
            return DEFAULT_EDGE_CAP
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ParameterError(f"KMF_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ParameterError(f"{source} must be positive, got {cap}")
    return cap


def _cmd_chi(args: argparse.Namespace) -> int:
    print(chi(Params(args.n, args.k)))
    return EXIT_OK


def _cmd_minor(args: argparse.Namespace) -> int:
    p = Params(args.n, args.k)
    cap = _cap(args)
    cert = build_minor(p, cap=cap)
    report = verify_minor(cert)
    if args.out:
        serialize.write_document(args.out, serialize.minor_to_dict(cert))
    if not report.passed:
        for line in report.summary_lines():
            print(line)
        print(f"order={cert.order} chi={chi(p)} FAIL")
        return EXIT_VERIFY_FAIL
    print(f"order={cert.order} chi={chi(p)} PASS")
    return EXIT_OK


# Per kind: the field holding the members, the parser and the verifier.
_VERIFY_KINDS = {
    "minor": ("blocks", serialize.minor_from_dict, verify_minor),
    "coloring": ("classes", serialize.coloring_from_dict, verify_coloring),
    "partition": ("classes", serialize.partition_from_dict, verify_partition),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = _cap(args)
    document = serialize.read_document(args.path)
    field, parse, verify = _VERIFY_KINDS[args.kind]
    rows = document.get(field) if isinstance(document, dict) else None
    if isinstance(rows, list):  # any other shape is the parser's to refuse
        _check_cap(sum(len(row) for row in rows if isinstance(row, list)), cap)
    report = verify(parse(document))
    print(serialize.dumps_canonical(serialize.report_to_dict(report)), end="")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_table(args: argparse.Namespace) -> int:
    rows = k3_table_rows(args.n_min, args.n_max)
    mismatches = 0
    print(f"{'n':>3} {'l':>3} {'f(n)':>6} {'g(n)':>6} {'chi':>5}  check")
    for row in rows:
        values = (row.l, row.order_exact, row.order_bound_floor, row.chi)
        notes = [  # an order or bound the reference does not record is not compared
            f"{name} != reference {ref}"
            for name, value, ref in zip(("l", "f", "g", "chi"), values, K3_TABLE_REFERENCE.get(row.n, ()))
            if ref is not None and value != ref
        ]
        status = "ok" if not notes else "MISMATCH: " + "; ".join(notes)
        mismatches += bool(notes)
        print(
            f"{row.n:>3} {row.l:>3} {row.order_exact:>6} {row.order_bound_floor:>6} {row.chi:>5}  {status}"
        )
    if mismatches:
        print(f"{mismatches} row(s) disagree with the reference table")
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    cap = _cap(args)
    binomial(args.n, args.k)  # first, so the refusals come in order: 64-bit range, label cap, hyperedge cap
    if args.n > MAX_LABELS:
        raise OutOfScopeError(f"n = {args.n} exceeds the {MAX_LABELS}-label representation cap")
    if args.sizes is None:
        plan = _uniform_plan((1, args.n), args.k, args.block_size, cap)
    else:
        try:
            sizes = tuple(int(x) for x in args.sizes.split(","))
        except ValueError as exc:
            raise ParameterError(f"cannot parse sizes {args.sizes!r}") from exc
        plan = PartitionPlan(ground=(1, args.n), k=args.k, sizes=sizes)
    part = almost_regular_partition(plan, cap=cap)
    report = verify_partition(part)
    if args.out:
        serialize.write_document(args.out, serialize.partition_to_dict(part))
    if not report.passed:
        for line in report.summary_lines():
            print(line)
        return EXIT_VERIFY_FAIL
    print(f"classes={len(part.classes)} PASS")
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    try:
        k_values = [int(x) for x in args.k.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse k list {args.k!r}") from exc
    cap = _cap(args)
    instances = params_grid(k_values, cap)
    failures = 0
    for p in instances:
        cert = build_minor(p, cap=cap)
        minor_ok = verify_minor(cert).passed
        coloring_ok = verify_coloring(build_coloring(p, cap=cap)).passed
        failures += 0 if minor_ok and coloring_ok else 1
        print(
            f"k={p.k} n={p.n} order={cert.order} chi={chi(p)} "
            f"minor={'PASS' if minor_ok else 'FAIL'} "
            f"coloring={'PASS' if coloring_ok else 'FAIL'}"
        )
    print(f"grid: {len(instances)} instance(s), {len(instances) - failures} passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneser-minors",
        description="Build and verify complete-minor and coloring certificates "
        "for complements of Kneser graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="print the chromatic number")
    p_chi.add_argument("--n", type=int, required=True)
    p_chi.add_argument("--k", type=int, required=True)
    p_chi.set_defaults(func=_cmd_chi)

    p_minor = sub.add_parser("minor", help="build and self-verify a minor certificate")
    p_minor.add_argument("--n", type=int, required=True)
    p_minor.add_argument("--k", type=int, required=True)
    p_minor.add_argument("--out", type=str, default=None, help="write the certificate JSON here")
    p_minor.add_argument("--cap", type=int, default=None, help="hyperedge cap override")
    p_minor.set_defaults(func=_cmd_minor)

    p_verify = sub.add_parser("verify", help="verify a certificate file")
    p_verify.add_argument("--kind", choices=["minor", "coloring", "partition"], required=True)
    p_verify.add_argument("--in", dest="path", type=str, required=True)
    p_verify.add_argument("--cap", type=int, default=None, help="hyperedge cap override")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", help="print the k=3 construction table")
    p_table.add_argument("--n-min", type=int, default=12)
    p_table.add_argument("--n-max", type=int, default=35)
    p_table.set_defaults(func=_cmd_table)

    p_part = sub.add_parser("partition", help="build an almost-regular partition")
    p_part.add_argument("--n", type=int, required=True, help="ground labels 1..n")
    p_part.add_argument("--k", type=int, required=True)
    group = p_part.add_mutually_exclusive_group(required=True)
    group.add_argument("--block-size", type=int, default=None)
    group.add_argument("--sizes", type=str, default=None, help="comma-separated class sizes")
    p_part.add_argument("--out", type=str, default=None)
    p_part.add_argument("--cap", type=int, default=None)
    p_part.set_defaults(func=_cmd_partition)

    p_grid = sub.add_parser("grid", help="build and verify every instance under the cap")
    p_grid.add_argument("--k", type=str, required=True, help="comma-separated k values")
    p_grid.add_argument("--cap", type=int, default=None)
    p_grid.set_defaults(func=_cmd_grid)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed pipe raises below and not at shutdown
        return code
    except BrokenPipeError:
        # Point stdout at the null device so the flush at shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutOfScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
