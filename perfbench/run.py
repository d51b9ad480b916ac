"""Benchmark of toda-bn: one workload run, or every workload.

Run from the root of a checkout (the directory holding ``src/toda_bn``):

    python3 perfbench/run.py --workload flow --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all [--runs 10] [--seed 1] [--trace 0|1] [--out FILE]

A single run prints two lines.  The first is the run's record: the
environment (Python, numpy, scipy, CPU count and model, seed), the
workload's own figures (``rational_s``, ``step_us.n3`` ...), the failure
count and share, and a digest of every output.  The last line is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.

``--all`` runs every workload ``--runs`` times (seeds ``--seed``,
``--seed`` + 1, ...), each in a fresh interpreter, prints every metric by
name with its unit, and appends the records to ``--out`` as JSON lines for
``perfbench/compare.py``.
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
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-suite", "flow", "backlund-orbit")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
# A traced run must end within 180 s, and its untraced reference run takes
# about a third of that.
REFERENCE_TIMEOUT_S = 90


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


def measure_setup(src: Path) -> float:
    """Median time from starting an interpreter until ``import toda_bn`` returns.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's reading can be compared with the parent's.  Each sample is
    normalised to the reference speed like every other time.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import toda_bn; "
            "print(time.perf_counter())")
    samples = []
    clock = speed.Clock()
    for _ in range(SETUP_REPEATS):
        def start():
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                                  capture_output=True, text=True, timeout=60)
            return float(done.stdout) - t0
        raw, norm, child_s = clock.time(start)
        if isinstance(child_s, Exception):
            raise child_s
        samples.append(child_s * norm / raw)
    return statistics.median(samples)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def single_run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "toda_bn" / "__init__.py").is_file():
        return fail(f"no toda_bn package under {src}; run from the root of a checkout")
    setup_s = None if args.trace else measure_setup(src)
    sys.path.insert(0, str(src))
    import toda_bn
    if Path(toda_bn.__file__).resolve().parent != (src / "toda_bn").resolve():
        return fail(f"imported toda_bn from {toda_bn.__file__}, not from {src}")
    import workloads as wl

    plan = wl.make_plan(args.workload, args.seed, args.seconds)
    if args.trace:
        return traced_run(args, root, plan)
    ops = wl.run_ops(plan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check_ops(plan, ops)
    record = run_record(args, plan, ops)
    result = {"correct": all(op.known_failure for op in ops if op.failure),
              "attempted": len(ops), "failed": record["failed"],
              "metrics": {"setup_s": metric(setup_s, "s"),
                          "wall_s": metric(record["wall_s"], "s"),
                          "peak_rss_mb": metric(peak_rss_mb, "MB")}}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_record(args, plan: dict, ops) -> dict:
    import workloads as wl
    failures: dict[str, int] = {}
    for op in ops:
        if op.failure:
            key = f"{op.kind}:{op.failure}" + (" (known defect)" if op.known_failure else "")
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    # wall_s: from the first call to the last result, without the checks and
    # the reference measurements, at the reference speed
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": plan["rounds"], "env": environment(args.seed),
            "wall_s": sum(op.norm_s for op in ops),
            "raw_wall_s": sum(op.seconds for op in ops),
            "detail": wl.detail_metrics(args.workload, ops),
            "op_norm_s": {kind: [op.norm_s for op in ops if op.kind == kind]
                          for kind in dict.fromkeys(op.kind for op in ops)},
            "attempted": len(ops), "failed": failed, "fail_share": failed / len(ops),
            "failures": failures, "outputs_sha256": wl.output_digest(ops)}


def traced_run(args, root: Path, plan: dict) -> int:
    """The per-layer run: an untraced run in a fresh interpreter for reference,
    then the same work traced in this one."""
    import tracing
    import workloads as wl

    untraced = run_child(root, args.workload, args.seed, args.seconds, 0,
                         timeout=REFERENCE_TIMEOUT_S)
    if untraced is None:
        return fail("the untraced reference run failed")
    ref_record, ref_result = untraced

    tracer = tracing.Tracer()
    missed = tracer.install()
    try:
        ops = wl.run_ops(plan)
    finally:
        tracer.uninstall()
    wl.check_ops(plan, ops)
    record = run_record(args, plan, ops)
    reports = [json.loads(line) for op in ops
               if op.workload == "verify-suite" and not op.failure
               for line in op.output[1].splitlines()[:-1]]
    # span times are scaled to the reference speed by the run's average factor
    metrics = tracer.metrics(reports, record["wall_s"] / record["raw_wall_s"])
    metrics["trace.overhead"] = record["wall_s"] / ref_record["wall_s"]

    passivity = [f"unwrapped:{where}" for where in missed]
    passivity += tracer.passivity_failures(args.workload)
    if record["outputs_sha256"] != ref_record["outputs_sha256"]:
        passivity.append("outputs-differ-from-untraced-run")
    record["passivity_failures"] = passivity
    record["trace_file"] = str(Path(".bench_out") / f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write(root / record["trace_file"], {"workload": args.workload, "seed": args.seed,
                                               "raw_wall_s": record["raw_wall_s"]})
    result = {"correct": not passivity and all(op.known_failure for op in ops if op.failure),
              "attempted": len(ops), "failed": record["failed"],
              "metrics": {name: metric(metrics[name], unit)
                          for name, unit, _ in tracing.per_layer_metrics()}}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_child(root: Path, workload: str, seed: int, seconds: int, trace: int,
              timeout: float = CHILD_TIMEOUT_S):
    """One run in a fresh interpreter; returns (record, result) or None."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def all_runs(args) -> int:
    ok = True
    for k in range(args.runs):
        for workload in args.workloads:
            seed = args.seed + k
            got = run_child(Path.cwd(), workload, seed, args.seconds, args.trace)
            if got is None:
                ok = False
                continue
            record, result = got
            ok = ok and result["correct"]
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            rows = dict(result["metrics"])
            if not args.trace:
                rows["fail_share"] = metric(record["fail_share"], "share")
                rows.update(record["detail"])
            for name, m in rows.items():
                print(f"{workload:15} {name:45} {m['value']:>14.6g} {m['unit']}")
            for what, count in record["failures"].items():
                print(f"{workload:15} failure {what} x{count}")
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"record": record, "result": result}) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="with --all: runs per workload")
    ap.add_argument("--out", help="with --all: append run records to this file")
    args = ap.parse_args(argv)
    if args.all:
        args.workloads = [args.workload] if args.workload else list(WORKLOADS)
        return all_runs(args)
    if not args.workload:
        return fail("give --workload or --all")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
