#!/usr/bin/env python3
"""Benchmark of the kneser_minors certificate engine, driven through its public API.

Run from the repository root (stdlib only; the package is imported from src/):

    python3 perfbench/run.py --workload minor-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Workloads (see BENCHMARK.json for why each is there):
  minor-sweep     build_minor -> verify_minor -> canonical bytes -> SHA-256,
                  for every instance of params_grid((3,4,5,6), 20000);
  coloring-large  the same for build_coloring on the largest n per k;
  verify-files    `kneser-minors verify --kind minor --in F`, one process per
                  file, on certificates and tampered twins written at set-up.

With --trace 0 the run measures whole passes over the seed-ordered op list
until --seconds have passed, and reports verified k-subsets per second, the
median set-up time of several fresh interpreters, peak RSS of the process
doing the work, and the share of ops that passed.  Times are seconds at a
reference CPU speed (see speed.py); the wall-clock figures are in the run
record printed before the result.  With --trace 1 it makes exactly one traced
pass (so counts are per pass) and one untraced reference pass in a fresh
interpreter for the tracing overhead, and reports per-layer metrics; span
times are wall clock and include the speed samples (about 5%).  Spans are
written to .perfbench/.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.  `correct` is false when an op finished with a wrong output; ops
that raise count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("minor-sweep", "coloring-large", "verify-files")

# Fresh interpreters timed per run for setup_s; verify-files set-up builds
# four certificates (about 6 s), the others only import.
SETUP_PROBES = {"minor-sweep": 5, "coloring-large": 5, "verify-files": 3}
STARTUP_PROBES = 3


def _import_package():
    if not (SRC / "kneser_minors" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import kneser_minors

    if not Path(kneser_minors.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported kneser_minors from {kneser_minors.__file__}, not {SRC}")


def _child(args: argparse.Namespace, mode: str, files: Path) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--files", str(files), mode]
    return cmd + (["--tiny"] if args.tiny else [])


def _probe_setup(args: argparse.Namespace, files: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has finished set-up."""
    start = perf_counter()
    with subprocess.Popen(_child(args, "--probe", files), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def _timed(args: argparse.Namespace, ops: list, act, seconds: float) -> tuple[list, float, float]:
    """Outcomes, wall time and time at the reference speed of whole passes."""
    import workloads as wl
    from speed import BETWEEN_LOOPS, SpeedSampler

    # verify-files works in child processes: sample between them.
    in_process = args.workload != "verify-files"
    with SpeedSampler(timer=in_process) as speed:
        between = None if in_process else lambda: speed.sample(BETWEEN_LOOPS)
        outcomes, wall = wl.measure(ops, act, seconds, between)
    return outcomes, wall, speed.normalize(wall)


def _reference_norm(args: argparse.Namespace, files: Path) -> float:
    """Normalized time of one untraced pass in a fresh interpreter."""
    out = subprocess.run(_child(args, "--reference", files), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])["norm"]


def _cli_startup(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "kneser_minors", "chi", "--n", "7", "--k", "3"]
    start = perf_counter()
    subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, check=True)
    return perf_counter() - start


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _record(args: argparse.Namespace, outcomes: list, wall: float, norm: float, passes: int) -> dict:
    import workloads as wl

    baseline = json.loads((HERE / "baseline.json").read_text())
    digest = wl.workload_digest(outcomes)
    failures = sorted({(o.op.label, o.error) for o in outcomes if not o.ok})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
        "instances": [f"({p.n},{p.k})" for p in wl.instances(args.workload, args.tiny)],
        "passes": passes,
        "wall_s": wall,
        "norm_s": norm,
        "digest": digest,
        "bytes_changed": None if args.tiny else digest != baseline["digests"][args.workload],
        "failures": [{"op": label, "error": error} for label, error in failures],
        "known_failures": [] if args.tiny else baseline["known_failures"].get(args.workload, []),
    }


def _result(outcomes: list, metrics: dict[str, float], section: str) -> dict:
    units = {m["name"]: m["unit"] for m in _declared()[section]}
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_untraced(args: argparse.Namespace) -> tuple[dict, dict]:
    import workloads as wl
    from speed import BETWEEN_LOOPS, SpeedSampler

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        probe_dirs = [Path(tmp) / f"setup{i}" for i in range(1 if args.tiny else SETUP_PROBES[args.workload])]
        with SpeedSampler(timer=False) as probe_speed:
            setups = []
            for files in probe_dirs:
                files.mkdir()
                probe_speed.sample(BETWEEN_LOOPS)
                setups.append(_probe_setup(args, files))
            probe_speed.sample(BETWEEN_LOOPS)
        ops = wl.make_ops(args.workload, args.seed, probe_dirs[0], args.tiny)
        act = wl.actor(args.workload, SRC)
        outcomes, wall, norm = _timed(args, ops, act, args.seconds)
    if isinstance(act, wl.FileVerifier):
        peak_kib = act.peak_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verified = sum(o.op.ksets for o in outcomes if o.ok)
    metrics = {
        "kset_rate": verified / norm,
        "setup_s": statistics.median(setups) * probe_speed.speed,
        "peak_rss_mb": peak_kib / 1024,
        "pass_ratio": sum(o.ok for o in outcomes) / len(outcomes),
    }
    record = _record(args, outcomes, wall, norm, len(outcomes) // len(ops))
    record["kset_rate_wall"] = verified / wall
    record["setup_s_wall"] = setups
    return _result(outcomes, metrics, "end_to_end"), record


def run_traced(args: argparse.Namespace) -> tuple[dict, dict]:
    import spans as sp
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    tracer = sp.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        files = Path(tmp)
        wl.prepare(args.workload, args.seed, files, args.tiny)
        ops = wl.make_ops(args.workload, args.seed, files, args.tiny)
        reference = _reference_norm(args, files)
        act = wl.actor(args.workload, SRC)
        replay = []
        with tracer.installed():
            if isinstance(act, wl.FileVerifier):
                act = tracer.wrap("cli.verify", act)
            outcomes, wall, norm = _timed(args, ops, act, 0)
            if args.workload == "verify-files":
                # The CLI's parse and verify, replayed in-process on the same files.
                replay = [wl.run_op(op, wl.replay_file) for op in ops]
        startup = statistics.median(_cli_startup(SRC) for _ in range(STARTUP_PROBES))
    metrics = sp.layer_metrics(tracer.spans)
    failed = sum(not o.ok for o in outcomes)
    metrics.update({
        "verify.wrong_verdicts": sum(o.wrong_verdict for o in outcomes + replay),
        "cli.startup_s": startup,
        "cli.verify.overhead_s": (
            metrics["cli.verify.process_s"] - metrics["serialize.parse.s"] - metrics["verify.minor.s"]
            if metrics["cli.verify.calls"] else 0.0
        ),
        "trace.overhead_ratio": norm / reference - 1,
        "ops": len(outcomes),
        "ops_failed": failed,
        "fail_ratio": failed / len(outcomes),
    })
    record = _record(args, outcomes, wall, norm, 1)
    record["untraced_norm_s"] = reference
    record["failures"] += [{"op": "replay " + o.op.label, "error": o.error} for o in replay if not o.ok]
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"record": record, "spans": tracer.dump()}))
    return _result(outcomes, metrics, "per_layer"), record


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def selftest() -> None:
    """Tiny instances: every declared metric is emitted, and the gate counts
    an injected wrong verdict and an injected exception as failed ops."""
    import kneser_minors as km
    import workloads as wl

    declared = _declared()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for workload in WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace, tiny=True)
            result, _ = (run_traced if trace else run_untraced)(args)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{workload} trace={trace}: metrics {sorted(got)} != declared {sorted(want)}")
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload} trace={trace}: tiny run failed: {result}")
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops ok")

    def rejecting(cert):
        return km.VerificationReport((km.CheckResult("structure", False, "injected"),))

    def crashing(p, cap=None, observer=None):
        raise RuntimeError("injected")

    op = wl.Op("minor", 9, 3)
    for attr, fake, expect in (("verify_minor", rejecting, "WrongVerdict"), ("build_minor", crashing, "RuntimeError")):
        original = getattr(km, attr)
        setattr(km, attr, fake)
        try:
            outcomes, _ = wl.measure([op, wl.Op("minor", 7, 3)], wl.run_minor, 0)
        finally:
            setattr(km, attr, original)
        if sum(not o.ok for o in outcomes) != 2 or not all(o.error.startswith(expect) for o in outcomes):
            raise AssertionError(f"injected {expect} not counted as failed: {outcomes}")
        print(f"selftest: injected {expect} counted as {len(outcomes)} failed ops")
    print("selftest: ok")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny-instance check of the benchmark itself")
    parser.add_argument("--tiny", action="store_true", help="tiny instances (used by --selftest)")
    # Internal: fresh-interpreter children of a run.
    parser.add_argument("--files", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    _import_package()
    import workloads as wl

    # One CPU for the run and every child it starts, so that the speed this
    # process samples between children is the speed of the CPU they ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.selftest:
        selftest()
    elif args.probe:
        wl.prepare(args.workload, args.seed, args.files, args.tiny)
        wl.make_ops(args.workload, args.seed, args.files, args.tiny)
        print("ready", flush=True)
    elif args.reference:
        ops = wl.make_ops(args.workload, args.seed, args.files, args.tiny)
        _, _, norm = _timed(args, ops, wl.actor(args.workload, SRC), 0)
        print(json.dumps({"norm": norm}))
    else:
        result, record = (run_traced if args.trace else run_untraced)(args)
        for failure in record["failures"]:
            print(f"perfbench: {failure['op']} failed: {failure['error']}", file=sys.stderr)
        print(json.dumps({"run_record": record}))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
