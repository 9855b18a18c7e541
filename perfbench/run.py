"""Run one benchmark workload against the spherekh sources of this checkout.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 24 --trace 0

The workload's inputs are generated from the seed, then its fixed cycle of
operations runs as a closed loop with one client: each CLI command goes
through ``spherekh.cli.main(argv)`` in this process and the next starts
only after the previous report is written.  A run makes
round(seconds / nominal cycle time) whole cycles, so that every run of a
workload measures the same operations.  Every operation's output is checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` half the cycles run untraced, the same number then
run with span wrappers installed, and the last line carries the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload in turn, each in its own interpreter, and prints a summary.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(ROOT))
from perfbench import checks, gen, spans  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package)."""


def import_package():
    """Import spherekh from this checkout's src/, and nowhere else."""
    if not (SRC / "spherekh" / "__init__.py").is_file():
        raise BenchError(f"no spherekh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherekh
    import spherekh.cli  # noqa: F401  (binds the submodule on the package)

    if Path(spherekh.__file__).resolve().parent != (SRC / "spherekh").resolve():
        raise BenchError(f"imported spherekh from {spherekh.__file__}, not {SRC}")
    return spherekh


def measure_setup() -> tuple[float, list]:
    """Median wall time of a fresh interpreter running ``import spherekh``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SPHERE_KH_THREADS", None)
    cmd = [sys.executable, "-c", "import spherekh, sys; sys.stdout.write(spherekh.__file__)"]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or Path(proc.stdout).resolve().parent != (SRC / "spherekh").resolve():
            raise BenchError(f"fresh import failed: {proc.stderr.strip()[-400:]}")
        if i:  # the first run only warms the bytecode cache
            times.append(elapsed)
    return statistics.median(times), times


def environment(pkg, threads_env) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spherekh": pkg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "SPHERE_KH_THREADS": "unset" if threads_env is None else f"was {threads_env!r}; unset for the run",
    }


def blas_threads():
    """OpenBLAS thread count of NumPy's bundled BLAS, when it can be queried."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return "unknown"


# ------------------------------------------------------------ operations


def cli_argv(op, report_path: Path) -> tuple[list, Path]:
    """The op's argv with ``--out`` added, and the file the report lands in."""
    argv = list(op.argv)
    if op.params["command"] != "partition":
        argv += ["--out", str(report_path)]
    return argv, Path(argv[argv.index("--out") + 1])


def run_cli(pkg, argv) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, stderr text)."""
    captured_out, captured_err = io.StringIO(), io.StringIO()
    with redirect_stdout(captured_out), redirect_stderr(captured_err):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, captured_err.getvalue()


def run_recovery(pkg, field, pairs, op) -> dict:
    """One recovery call set: expansion, Sobolev norm, constants, Lipschitz."""
    h = pkg.harmonic
    sp = h.SobolevParams(op.params["s"], op.params["d"])
    expansion = h.expand_field(field, op.params["r"])
    result = {"sobolev_norm": h.sobolev_norm(expansion, sp)}
    consts = h.embedding_constants(sp)
    result.update(c_star=consts.c_star, c_star_star=consts.c_star_star)
    if pairs is not None:
        lip = h.lipschitz_check(field, expansion, sp, pairs)
        result["lipschitz"] = {
            "max_ratio": lip.max_ratio, "bound": lip.bound, "constant": lip.constant,
            "pairs": lip.pairs_checked,
        }
    return result


class Runner:
    """Executes operations, times them, checks them, and tallies outcomes."""

    def __init__(self, pkg, ops, work: Path):
        self.pkg, self.ops, self.work = pkg, ops, work
        self.records = []
        self.first_digest = {}
        self.mismatches = []
        self.recovery_inputs = {}
        for op in ops:
            if op.kind == "recovery":
                field = pkg.fileio.read_field(op.inputs[0])
                pairs = json.loads(Path(op.inputs[1]).read_text()) if len(op.inputs) > 1 else None
                self.recovery_inputs[op.index] = (field, pairs)

    def execute(self, op, cycle: int, tracer=None) -> dict:
        """Time one operation, then check its output outside the timed part."""
        if op.kind == "cli":
            argv, out_path = cli_argv(op, self.work / "reports" / f"op_{op.index:02d}.json")
            out_path.unlink(missing_ok=True)
            call, args = run_cli, (self.pkg, argv)
        else:
            call, args = run_recovery, (self.pkg, *self.recovery_inputs[op.index], op)
        if tracer is not None:
            tracer.op_id = (cycle, op.index)
        outcome, reason, data = "answered", None, b""
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(spans.OP):
                    result = call(*args)
            else:
                result = call(*args)
            elapsed = time.perf_counter() - t0
            if op.kind == "cli":
                code, err = result
                data = out_path.read_bytes() if out_path.exists() else b""
                reason = checks.check_cli(op.params, op.expect_exit, code, data)
                if reason and err:
                    reason += f" ({err.strip()[-200:]})"
            else:
                reason = checks.check_recovery(result)
                data = _canonical(result)
        except Exception as exc:  # the op boundary: record and keep going
            elapsed = time.perf_counter() - t0
            if op.kind == "recovery" and checks.is_series_refusal(exc):
                outcome, data = "refused", _canonical({"refused": str(exc)})
            else:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            outcome = "failed"
        digest = hashlib.sha256(data).hexdigest()
        first = self.first_digest.setdefault(op.index, digest)
        if outcome != "failed" and digest != first:
            self.mismatches.append(op.index)
        record = {"op": op.index, "cycle": cycle, "label": op.label, "seconds": elapsed,
                  "outcome": outcome}
        if reason is not None:
            record["reason"] = reason
        self.records.append(record)
        return record

    def cycles(self, count: int, first_cycle: int = 0, tracer=None) -> float:
        """Run ``count`` whole cycles; return the summed operation seconds."""
        busy = 0.0
        for cycle in range(first_cycle, first_cycle + count):
            for op in self.ops:
                busy += self.execute(op, cycle, tracer)["seconds"]
        return busy

    def repeat_probe(self, cycle: int):
        """Run the first operation once more; its output must not change."""
        self.execute(self.ops[0], cycle)["probe"] = True


def _canonical(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True, default=repr).encode()


# ------------------------------------------------------------ statistics


def nearest_rank(xs: list, rank: int) -> float:
    """The rank-th smallest value (1-based) of a sorted list."""
    return xs[max(rank, 1) - 1]


def upper_median(xs: list) -> float:
    """The median of a sorted list; of the two middle values, the upper one.

    On ``recovery`` half the operations take milliseconds and half take
    seconds; the upper median stays on one operation instead of averaging
    across that gap, and is the larger, steadier of the two.
    """
    return nearest_rank(xs, len(xs) // 2 + 1)


def latency_tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with ten samples beyond.

    Percentiles are nearest-rank.  With fewer than 2 * TAIL_BEYOND samples no
    percentile at or above the median has ten beyond it, and the median is
    reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return upper_median(xs), 50.0, n
    return nearest_rank(xs, n - TAIL_BEYOND), 100.0 * (n - TAIL_BEYOND) / n, n


def op_latencies(records) -> list:
    """Each record's latency replaced by the median latency of its operation.

    Every operation of the cycle runs once per cycle; taking its median over
    the cycles filters the machine's moment-to-moment noise, and keeping one
    value per run keeps each operation's weight in the percentiles.
    """
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["seconds"])
    return [statistics.median(by_op[r["op"]]) for r in records]


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    recs = [r for r in runner.records if not r.get("probe")]
    latencies = sorted(op_latencies(recs))
    tail, pct, n = latency_tail(latencies)
    completed = [r for r in recs if r["outcome"] != "failed"]
    answered = [r for r in recs if r["outcome"] == "answered"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_latency_p50_s": (upper_median(latencies), "s"),
        "op_latency_tail_s": (tail, "s"),
        "ops_per_s": (len(completed) / sum(r["seconds"] for r in recs), "1/s"),
        "answered_share": (len(answered) / len(recs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"tail_percentile": pct, "samples": n,
              "refused": sum(r["outcome"] == "refused" for r in recs)}
    return metrics, detail


def per_op_summary(records) -> list:
    by_op = {}
    for r in records:
        by_op.setdefault((r["op"], r["label"]), []).append(r)
    out = []
    for (index, label), rs in sorted(by_op.items()):
        out.append({
            "op": index, "label": label, "runs": len(rs),
            "median_s": statistics.median(r["seconds"] for r in rs),
            "seconds": [r["seconds"] for r in rs],
            "outcomes": sorted({r["outcome"] for r in rs}),
        })
    return out


# ------------------------------------------------------------ entry points


def run_workload(args) -> int:
    pkg = import_package()
    threads_env = os.environ.pop("SPHERE_KH_THREADS", None)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops, digests = gen.generate(args.workload, args.seed, work)
        (work / "reports").mkdir(parents=True, exist_ok=True)
        setup_s, setup_runs = measure_setup()
        runner = Runner(pkg, ops, work)
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "clients": 1, "loop": "closed",
            "environment": environment(pkg, threads_env),
            "inputs_sha256": digests, "setup_runs_s": setup_runs,
        }
        if args.trace:
            metrics = traced_run(pkg, runner, args, detail)
        else:
            cycles = cycle_count(args)
            runner.cycles(cycles)
            runner.repeat_probe(cycles)
            metrics, extra = end_to_end(runner, setup_s)
            detail.update(extra, cycles=cycles)
        failed = [r for r in runner.records if r["outcome"] == "failed"]
        detail["per_op"] = per_op_summary(runner.records)
        detail["failures"] = failed[:20]
        detail["nondeterministic_ops"] = sorted(set(runner.mismatches))
        print(json.dumps(detail, sort_keys=True))
        print_table(metrics)
        result = {
            "correct": not failed and not runner.mismatches,
            "attempted": len(runner.records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def cycle_count(args) -> int:
    return max(1, round(args.seconds / gen.NOMINAL_CYCLE_S[args.workload]))


def traced_run(pkg, runner: Runner, args, detail: dict) -> dict:
    cycles = max(1, cycle_count(args) // 2)
    untraced_s = runner.cycles(cycles)
    tracer = spans.Tracer(pkg)
    with tracer.installed():
        traced_s = runner.cycles(cycles, first_cycle=cycles, tracer=tracer)
    runner.repeat_probe(2 * cycles)
    table = tracer.layer_table(cycles, traced_s, untraced_s)
    trace_file = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
    with open(trace_file, "w") as handle:
        for s in tracer.spans:
            handle.write(json.dumps([s.span_id, s.name, s.start, s.end, s.parent, s.op_id]) + "\n")
    detail.update(cycles_per_half=cycles, untraced_s=untraced_s, traced_s=traced_s,
                  span_count=len(tracer.spans), spans_file=str(trace_file.relative_to(ROOT)),
                  layer_map=spans.LAYER_MAP, per_layer_basis="per workload cycle")
    return table


def print_table(metrics: dict):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48}  {m['value']:.6g} {m['unit']}")
            summary["metrics"][f"{workload}.{name}"] = m
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
