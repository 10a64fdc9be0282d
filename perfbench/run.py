"""Benchmark of the bundlejc figure workloads.

Run from the repository root:

    python3 perfbench/run.py --workload steadyscan --seed 1 --seconds 12 --trace 0

One run measures one workload in this process.  It repeats whole passes of
the workload (each pass produces all of its datasets through the public API)
for --seconds, at least three times, then checks the last pass against the
benchmark's own oracles and checks that a deliberately corrupted copy fails.
End-to-end timings are scaled to a reference host speed with a kernel timed
around each pass and each set-up repeat (see calibrate.py).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("steadyscan", "g2tau", "trajectories", "superrabi")
MIN_ROUNDS = 3
SETUP_REPEATS = 7
# Sweeps run serially; BLAS gets the cores (2 on the reference machine).
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

# Timed in a fresh interpreter: importing the library plus parsing the
# workload's configs.
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bundlejc.cli import parse_config
for preset, text in json.loads(sys.argv[2]):
    parse_config(text, preset)
print(time.perf_counter() - start)
"""


def setup_seconds(configs, kernel) -> tuple[float, float]:
    """Median set-up time, each repeat scaled by the kernel timed around it,
    and the unscaled median."""
    times, scaled = [], []
    before = kernel.time()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(configs)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = kernel.time()
        times.append(float(out.stdout))
        scaled.append(times[-1] * kernel.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(times)


@dataclass
class Pass:
    seconds: float
    ops_per_s: float
    attempted: int
    failed: int
    digest: str
    scale: float = 1.0  # host-speed scale from the kernel timed around the pass


def timed_pass(workload, out_dir: Path):
    """One pass; returns its summary and its datasets (only the last pass's
    datasets are kept, so that peak RSS does not grow with the pass count)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = time.perf_counter()
    produced, ops_seconds = workload.produce(out_dir)
    seconds = time.perf_counter() - start
    data = workload.read(produced)
    ops_per_s = data.ops / (ops_seconds or seconds)
    return Pass(seconds, ops_per_s, data.attempted, data.failed, data.digest), data


def verify(workload, data) -> list[str]:
    """Oracle checks on one pass, plus the negative control."""
    reference = workload.reference(data)
    failures = workload.check(data, reference)
    if not workload.check(workload.corrupt(data), reference):
        failures.append(f"negative control: {workload.corrupt.__doc__.strip()} passed the checks")
    return failures


def run_passes(workload, out_dir: Path, seconds: float, kernel, tracer):
    """Whole passes for ``seconds`` (at least MIN_ROUNDS), each untraced pass
    between two kernel timings; with a tracer, each followed by a traced pass."""
    untraced, traced, span_ranges = [], [], []
    deadline = time.perf_counter() + seconds
    before = kernel.time()
    while len(untraced) < MIN_ROUNDS or time.perf_counter() < deadline:
        summary, data = timed_pass(workload, out_dir / "untraced")
        after = kernel.time()
        summary.scale = kernel.scale(before, after)
        before = after
        untraced.append(summary)
        if tracer:
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.append(timed_pass(workload, out_dir / "traced")[0])
            finally:
                tracer.uninstall()
            span_ranges.append((lo, len(tracer.spans)))
            before = kernel.time()
    return untraced, traced, span_ranges, data


def run_one(args) -> dict:
    # numpy is first imported here, after main() has set the BLAS threads
    sys.path.insert(0, str(SRC))
    import bundlejc

    if not Path(bundlejc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"bundlejc imported from {bundlejc.__file__}, not {SRC}")
    from calibrate import Kernel
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    out_dir = OUT / args.workload
    tracer = Tracer() if args.trace else None
    with Kernel(workload.kernel) as kernel, Kernel("stdlib_imports") as setup_kernel:
        if not tracer:
            setup_s, setup_wall_s = setup_seconds(workload.configs(out_dir / "setup"), setup_kernel)
        untraced, traced, span_ranges, data = run_passes(workload, out_dir, args.seconds, kernel, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = verify(workload, data)
    if len({p.digest for p in untraced + traced}) != 1:
        failures.append("passes produced different dataset bytes" + (" (traced vs untraced)" if tracer else ""))

    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    wall_s = statistics.median(p.seconds for p in untraced)
    if tracer:
        # per-layer metrics are raw wall times: they have no bound, and their
        # shares within a pass do not depend on the host speed
        per_pass = [layer_metrics(tracer.spans, lo, hi) for lo, hi in span_ranges]
        metrics = {k: (statistics.median(p[k] for p in per_pass), _unit(k)) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced) - wall_s, "s")
        tracer.write(OUT / "trace" / f"{args.workload}.spans.csv", span_ranges)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "dataset_s": (statistics.median(p.seconds * p.scale for p in untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (statistics.median(p.ops_per_s / p.scale for p in untraced), "1/s"),
        }
    for message in failures:
        print(f"CHECK FAILED [{args.workload}]: {message}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced and {len(traced)} traced passes")
    print("  pass seconds: " + " ".join(f"{p.seconds:.3f}" for p in untraced + traced))
    print(f"  kernel {kernel.name} seconds: " + " ".join(f"{k:.4f}" for k in kernel.times))
    print(f"  unscaled median pass = {wall_s:.6g} s; kernel median "
          f"{statistics.median(kernel.times):.6g} s, reference {kernel.reference_s} s")
    if not tracer:
        print(f"  unscaled median set-up = {setup_wall_s:.6g} s; kernel {setup_kernel.name} median "
              f"{statistics.median(setup_kernel.times):.6g} s, reference {setup_kernel.reference_s} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {attempted}, failed = {failed}, checks {'passed' if not failures else 'FAILED'}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.endswith("bytes"):
        return "bytes"
    return "us" if last == "us_per_jump" else "count"


def run_all(args) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "bundlejc" / "__init__.py").is_file():
        print(f"run.py: no library source at {SRC / 'bundlejc'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
