"""Mutation audit of ``src/``: make small mutants of each module, run the tier-1
suite on each with ``-x``, and report the mutants that no test kills.

Usage (from the repository root; needs pytest and hypothesis):

    python tools/mutate.py --list                  # every mutant, no runs
    python tools/mutate.py --out audit.jsonl       # run them all, two at a time
    python tools/mutate.py --only core:45:8:del-stmt:0,serialize:97:8:del-stmt:0  # these mutants only
    python tools/mutate.py --tests OTHER_TREE      # mutate this src/, run OTHER_TREE/tests
    python tools/mutate.py --only ID,... --select tests/test_cli.py::TestGridCommand  # these tests only
    python tools/mutate.py --selftest              # under a minute

Operators, one mutant per site and variant:

* ``cmp-flip``: ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``, ``is`` <-> ``is not``,
  ``in`` <-> ``not in``;
* ``int+1``, ``int-1``: an int constant plus or minus one (not the ints of a
  module-level display, which are data: the k = 3 reference table);
* ``and-or``: ``and`` <-> ``or``; ``drop-operand``: one operand of ``and``/``or`` left out;
* ``drop-not``: ``not x`` -> ``x``;
* ``add-sub``: ``+`` <-> ``-``, also in ``+=`` and ``-=``;
* ``drop-link``: one link of a chained comparison left out
  (``a <= b <= c`` -> ``b <= c`` or ``a <= b``);
* ``del-stmt``: one ``raise``, ``return``, ``continue`` or ``break`` made ``pass``
  (for a guard ``if c: raise ...`` that deletes the guard).

A mutant is the module's text with one node's span replaced by the mutated
node's ``ast.unparse``; the result must parse to exactly the mutated tree, or
``mutants`` raises.  Nodes inside f-strings are not mutated (they only change
message text).

Each worker owns one copy of ``src/`` and ``tests/`` in a temporary directory
and runs at most one pytest at a time; two workers run (one on a single CPU).  A mutant is
*killed* when pytest fails (exit status not 0) or runs past ``--timeout``
seconds, and *survives* when the suite passes.  Runs use no bytecode cache,
a fresh hypothesis database and ``--hypothesis-seed=0``, so a verdict does not
depend on the mutants run before it.  Test files run fastest first, so a kill
comes early; a survivor runs them all.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "kneser_minors"
# Tier-1 files fastest first, so a kill comes early (the mutated module's own file
# runs before them all); any other file runs last.
FAST_FIRST = (
    "test_core.py", "test_minors.py", "test_cli.py", "test_scope.py", "test_records.py", "test_digests.py",
    "test_chromatic.py", "test_baranyai.py", "test_acceptance.py", "test_serialize.py", "test_verify.py",
)
# In the order a full audit runs them: those that find idle code first.
OPERATORS = (
    "del-stmt", "drop-operand", "drop-link", "and-or", "drop-not", "cmp-flip", "add-sub", "int+1", "int-1",
)
_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_JUMPS = (ast.Raise, ast.Return, ast.Continue, ast.Break)
WORKERS = min(2, os.cpu_count() or 1)


def _parents(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _replace(parent: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for field, value in ast.iter_fields(parent):
        if value is old:
            setattr(parent, field, new)
            return
        if isinstance(value, list) and any(x is old for x in value):
            value[next(i for i, x in enumerate(value) if x is old)] = new
            return
    raise ValueError("node not found under its parent")


def _skipped(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Inside an f-string, an annotation, or (for an int) a module-level display."""
    child, up = node, parents.get(node)
    in_display = False
    while up is not None:
        if isinstance(up, ast.JoinedStr):
            return True
        if isinstance(up, (ast.arg, ast.AnnAssign, ast.FunctionDef)) and child is getattr(up, "annotation", None):
            return True
        if isinstance(up, ast.FunctionDef) and child is up.returns:
            return True
        in_display |= isinstance(up, (ast.Dict, ast.List, ast.Tuple, ast.Set))
        if isinstance(up, (ast.FunctionDef, ast.Lambda)):
            in_display = False
        child, up = up, parents.get(up)
    return in_display and isinstance(node, ast.Constant)


def _variants(node: ast.AST) -> list[tuple[str, int, str]]:
    """(operator, variant, description) of each mutant at this node."""
    out = []
    if isinstance(node, ast.Compare):
        out += [("cmp-flip", j, f"{type(op).__name__} -> {_FLIP[type(op)].__name__}")
                for j, op in enumerate(node.ops)]
        if len(node.ops) > 1:
            out += [("drop-link", j, f"drop link {j}") for j in range(len(node.ops))]
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out += [("int+1", 0, f"{node.value} -> {node.value + 1}"), ("int-1", 0, f"{node.value} -> {node.value - 1}")]
    elif isinstance(node, ast.BoolOp):
        name = type(node.op).__name__.lower()
        out.append(("and-or", 0, f"{name} -> {'or' if name == 'and' else 'and'}"))
        out += [("drop-operand", j, f"drop operand {j} of {name}") for j in range(len(node.values))]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(("drop-not", 0, "not x -> x"))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub)):
        out.append(("add-sub", 0, "+ <-> -"))
    elif isinstance(node, _JUMPS):
        out.append(("del-stmt", 0, f"{type(node).__name__.lower()} -> pass"))
    return out


def _mutate(node: ast.AST, operator: str, j: int) -> ast.AST:
    """The mutated node (``node`` changed in place, or a new node to put in its place)."""
    if operator == "cmp-flip":
        node.ops[j] = _FLIP[type(node.ops[j])]()
    elif operator == "drop-link":
        left = ast.Compare(node.left, node.ops[:j], node.comparators[:j]) if j else None
        right = node.comparators[j:]
        right = ast.Compare(right[0], node.ops[j + 1:], right[1:]) if len(right) > 1 else None
        return ast.BoolOp(ast.And(), [left, right]) if left and right else left or right
    elif operator in ("int+1", "int-1"):
        node.value += 1 if operator == "int+1" else -1
        if node.value < 0:  # as the parser reads the text -1
            return ast.UnaryOp(ast.USub(), ast.Constant(-node.value))
    elif operator == "and-or":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif operator == "drop-operand":
        del node.values[j]
        return node.values[0] if len(node.values) == 1 else node
    elif operator == "drop-not":
        return node.operand
    elif operator == "add-sub":
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
    elif operator == "del-stmt":
        return ast.Pass()
    return node


def _splice(source: bytes, node: ast.AST, text: str) -> bytes:
    """``source`` with the span of ``node`` replaced by ``text`` (offsets are UTF-8 bytes)."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    return source[:start] + text.encode() + source[end:]


def mutants(path: Path, module: str) -> list[dict]:
    """Every mutant of one module: id, module, line, operator, description, source line and text."""
    source = path.read_bytes()
    tree = ast.parse(source)
    nodes, parents = list(ast.walk(tree)), _parents(tree)
    out, seen = [], {}
    for index, node in enumerate(nodes):
        if not hasattr(node, "lineno") or _skipped(node, parents):
            continue
        for operator, j, description in _variants(node):
            mutant = copy.deepcopy(tree)
            mnode = list(ast.walk(mutant))[index]
            new = _mutate(mnode, operator, j)
            if new is not mnode:
                _replace(_parents(mutant)[mnode], mnode, new)
            text = ast.unparse(new)
            spliced = _splice(source, node, text if isinstance(new, ast.stmt) else f"({text})")
            key = f"{module}:{node.lineno}:{node.col_offset}:{operator}:{j}"
            try:
                exact = ast.dump(ast.parse(spliced)) == ast.dump(mutant)
            except SyntaxError:
                exact = False
            if not exact:
                raise ValueError(f"{key}: the spliced text does not parse to the mutated tree")
            line = source.splitlines()[node.lineno - 1].decode().strip()
            seen[key] = seen.get(key, 0) + 1  # nested operators can start at one column: outer first
            out.append({
                "id": key if seen[key] == 1 else f"{key}.{seen[key]}",
                "module": module, "line": node.lineno, "operator": operator,
                "description": description, "source_line": line,
                "text": spliced.decode(),
            })
    return out


def all_mutants(src: Path, only: list[str] | None) -> list[dict]:
    """The mutants of every module, or those named in ``only`` (an id starts with its module)."""
    names = sorted(f.stem for f in (src / PACKAGE).glob("*.py"))
    if only is not None:
        names = [name for name in names if any(i.startswith(f"{name}:") for i in only)]
    chosen = [m for name in names for m in mutants(src / PACKAGE / f"{name}.py", name)]
    if only is None:
        return chosen
    unknown = set(only) - {m["id"] for m in chosen}
    if unknown:
        raise SystemExit(f"no such mutant: {sorted(unknown)}")
    return [m for m in chosen if m["id"] in set(only)]


def _test_files(tests: Path, module: str | None) -> list[str]:
    files = sorted(p.name for p in tests.glob("test_*.py"))
    rank = {name: i for i, name in enumerate(FAST_FIRST)}
    rank[f"test_{module}.py"] = -1
    return [f"tests/{name}" for name in sorted(files, key=lambda n: (rank.get(n, len(rank)), n))]


class Worker:
    """One copy of src/ and tests/, where each mutant is written, run and put back."""

    def __init__(self, src_root: Path, tests_root: Path, base: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="mutant-", dir=base))
        shutil.copytree(src_root / "src", self.dir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(tests_root / "tests", self.dir / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(tests_root / "pyproject.toml", self.dir / "pyproject.toml")

    def run(self, mutant: dict | None, timeout: float, selection: list[str] | None = None) -> dict:
        target = self.dir / "src" / PACKAGE / f"{mutant['module']}.py" if mutant else None
        original = target.read_bytes() if target else None
        shutil.rmtree(self.dir / ".hypothesis", ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(self.dir / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *(selection or _test_files(self.dir / "tests", mutant and mutant["module"]))]
        start = time.monotonic()
        try:
            if target:
                target.write_text(mutant["text"], encoding="utf-8")
            done = subprocess.run(command, cwd=self.dir, env=env, capture_output=True, text=True, timeout=timeout)
            status = "survived" if done.returncode == 0 else "killed"
            failed = [line.split(" ", 1)[1].split(" - ")[0] for line in done.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            by = failed[0] if failed else (None if status == "survived" else f"pytest exit {done.returncode}")
        except subprocess.TimeoutExpired:
            status, by = "killed", f"timeout {timeout:g} s"
        finally:
            if target:
                target.write_bytes(original)
        return {"status": status, "by": by, "seconds": round(time.monotonic() - start, 1)}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def audit(chosen: list[dict], src_root: Path, tests_root: Path, timeout: float, out,
          select: list[str] | None = None) -> list[dict]:
    todo: queue.Queue = queue.Queue()
    for m in chosen:
        todo.put(m)
    results, lock = [], threading.Lock()
    base = Path(tempfile.mkdtemp(prefix="mutate-"))

    def work() -> None:
        worker = Worker(src_root, tests_root, base)
        try:
            while True:
                try:
                    m = todo.get_nowait()
                except queue.Empty:
                    return
                record = {k: m[k] for k in ("id", "operator", "description", "source_line")}
                record.update(worker.run(m, timeout, select))
                with lock:
                    results.append(record)
                    done = len(results)
                    print(f"[{done}/{len(chosen)}] {record['status']:8} {record['seconds']:6.1f}s {m['id']}  {record['by'] or ''}",
                          file=sys.stderr, flush=True)
                    if out:
                        out.write(json.dumps(record) + "\n")
                        out.flush()
        finally:
            worker.close()

    threads = [threading.Thread(target=work) for _ in range(WORKERS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return results


def selftest() -> int:
    """Every operator's mutants of ``core`` splice exactly and differ; one mutant is killed by its test."""
    source = (ROOT / "src" / PACKAGE / "core.py").read_text(encoding="utf-8")
    found = mutants(ROOT / "src" / PACKAGE / "core.py", "core")
    missing = set(OPERATORS) - {m["operator"] for m in found}
    assert not missing, f"operators with no mutant of core: {sorted(missing)}"
    for m in found:
        assert m["text"] != source, m["id"]
    assert len({m["text"] for m in found}) == len(found), "two mutants are the same text"
    # kset_mask without its bool check reads [true, 2, 3] as [1, 2, 3].
    target = next(m for m in found if m["operator"] == "drop-operand"
                  and m["source_line"].startswith("if not isinstance(label, int) or isinstance(label, bool)")
                  and "operand 1" in m["description"])
    test = "tests/test_cli.py::TestVerifyCommand::test_a_malformed_field_is_a_usage_error[label-true]"
    base = Path(tempfile.mkdtemp(prefix="mutate-selftest-"))
    try:
        worker = Worker(ROOT, ROOT, base)
        clean, mutated = worker.run(None, 120, [test]), worker.run(target, 120, [test])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert clean["status"] == "survived", f"{test} fails on the unmutated tree: {clean}"
    assert mutated["status"] == "killed", f"{test} does not kill {target['id']}: {mutated}"
    print(f"selftest: {len(found)} mutants of core over {len(OPERATORS)} operators splice exactly and differ; "
          f"{target['id']} killed by {mutated['by']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="tree whose src/ is mutated (default: this one)")
    parser.add_argument("--tests", type=Path, default=None, help="tree whose tests/ run (default: --src)")
    parser.add_argument("--only", type=lambda s: s.split(","), default=None, help="comma-separated mutant ids")
    parser.add_argument("--timeout", type=float, default=240.0, help="seconds per mutant before it counts as killed")
    parser.add_argument("--select", nargs="+", default=None, help="run these test files or ids, not all of tier-1")
    parser.add_argument("--out", type=Path, default=None, help="append one JSON line per mutant here")
    parser.add_argument("--list", action="store_true", help="print the mutants and run none")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    chosen = all_mutants(args.src / "src", args.only)
    chosen.sort(key=lambda m: OPERATORS.index(m["operator"]))
    if args.list:
        for m in chosen:
            print(f"{m['id']:45} {m['description']:30} {m['source_line']}")
        print(f"{len(chosen)} mutants", file=sys.stderr)
        return 0
    with open(args.out, "a", encoding="utf-8") if args.out else open(os.devnull, "w") as out:
        results = audit(chosen, args.src, args.tests or args.src, args.timeout, out, args.select)
    survivors = sorted((r for r in results if r["status"] == "survived"), key=lambda r: r["id"])
    for r in survivors:
        print(f"SURVIVED {r['id']:45} {r['description']:30} {r['source_line']}")
    print(f"{len(results)} mutants, {len(results) - len(survivors)} killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
