"""Benchmark for fsvi: one workload per invocation.

    python3 perfbench/run.py --workload denoise --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (the benchmark imports `src/fsvi`).
The run repeats whole rounds of the workload's pipelines until `--seconds`
have passed and the workload's minimum number of rounds has run, checks the first round's outputs and
that every round wrote byte-identical files, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb). With `--trace 1` untraced and traced rounds alternate and
the metrics are the per-layer ones, followed by fixed-shape kernel timings.
A fuller record, with the machine description, goes to
`perfbench/out/results/`; traced runs also write their spans there.
"""

import argparse
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("denoise", "spectrum", "small-m")

# One BLAS thread: the figures then measure the program's own work, and
# stay steady on a machine whose other cores may be busy.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def thread_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def machine_info():
    import numpy
    import platform
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_seconds(workload, seed):
    """Median set-up time of fresh processes (import fsvi, build the inputs)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            env=thread_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times), times


def fingerprint(directory):
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class RoundRunner:
    """Runs whole rounds of one workload and keeps count of the operations."""

    def __init__(self, workload, seed, out):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fingerprints = []

    def run(self):
        """One round; returns its wall time in seconds."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        ops = self.workload.operations(self.seed, self.out)
        failures = []
        start = time.perf_counter()
        for name, op in ops:
            try:
                op()
            except (ValueError, ArithmeticError) as exc:
                # fsvi raises FsviError subclasses of these two.
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        self.attempted += len(ops)
        self.failed += len(failures)
        self.errors.extend(failures)
        self.fingerprints.append(fingerprint(self.out))
        return wall


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fsvi" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fsvi'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(thread_env())
    sys.path.insert(0, str(ROOT / "src"))

    # numpy is first imported here, after the thread settings.
    import fsvi
    import kernels
    import tracing
    import workloads

    if pathlib.Path(fsvi.__file__).resolve().parent != ROOT / "src" / "fsvi":
        print(f"error: imported fsvi from {fsvi.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    machine = machine_info()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    setup_s, setup_samples = setup_seconds(args.workload, args.seed)
    inputs = workload.build(args.seed)
    runner = RoundRunner(workload, args.seed, OUT_DIR / "runs" / tag)

    # The first round is checked. With tracing, it is also the warm-up, and
    # traced and untraced rounds then alternate so that drift in the
    # machine's speed falls on both alike.
    start = time.perf_counter()
    untraced = [runner.run()]
    problems = workload.check(args.seed, inputs, runner.out)
    traced, paired = [], []
    rec = tracing.SpanRecorder()
    instr = tracing.Instrumentation(rec)
    while True:
        if args.trace:
            instr.install()
            try:
                traced.append(runner.run())
            finally:
                instr.undo()
            paired.append(runner.run())
        else:
            untraced.append(runner.run())
        rounds = len(untraced) + len(traced) + len(paired)
        if time.perf_counter() - start >= args.seconds and rounds >= workload.min_rounds:
            break

    if len(set(runner.fingerprints)) != 1:
        problems.append("rounds with the same seed wrote different files")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "round_wall_s": untraced,
        "setup_samples_s": setup_samples,
        "errors": runner.errors,
    }
    if args.trace:
        metrics = tracing.layer_metrics(rec, len(traced), statistics.fmean(traced))
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(paired)
        metrics.update(kernels.measure(workload.kernel_case(inputs), args.seed, problems))
        rec.write_csv(results_dir / f"{tag}.spans.csv")
        record["traced_round_wall_s"] = traced
        record["paired_round_wall_s"] = paired
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}

    record["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in problems + runner.errors:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
