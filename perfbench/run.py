"""tpad benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload chip_run --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (ops_per_s, setup_s, peak_rss_mb); with
--trace 1 they are the per-layer spans of `tracer.py`, measured on a fixed
number of traced jobs that follow half of --seconds untraced.

`python3 perfbench/run.py --write-pins` rewrites pins.json from the current
code. Only a change that means to alter simulated results may do that.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SETUP_REPEATS = 9

# Host speed on a shared machine drifts by a third within a minute, and
# tpad's code slows with it (process CPU time drifts alike, so the loss is not
# time this process waits for a CPU of its own host). So every reported time is scaled to a host that
# runs `_kernel` at REFERENCE_SPEED iterations per second (a quiet 2-vCPU
# host), measured right before and after each timed job or set-up; this costs
# 5-10% of the run. The workloads do not slow exactly as the kernel does, so a
# scaled figure keeps part of a host-speed change (README.md, "Host-speed
# scaling"). A --trace 0 run prints the unscaled median rate and the kernel
# speed on the line before its result.
KERNEL_ITERATIONS = 10_000
REFERENCE_SPEED = 5.0e6

# one process, one thread: keep numpy's libraries from starting pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program():
    """Import tpad from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import tpad
    except ImportError as e:
        sys.exit(f"perfbench: cannot import tpad from {src}: {e}")
    if not Path(tpad.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: tpad imported from {tpad.__file__}, not from {src}")


def _kernel(n: int) -> int:
    """Reference work: tuple, dict and integer operations, as in tpad's glue."""
    acc = 0
    table = {}
    for i in range(n):
        t = (i & 7, i >> 3, i ^ acc)
        table[t[0]] = t
        acc = (acc * 31 + t[0] + t[1] + t[2]) & 0xFFFF
    return acc


def host_speed() -> float:
    """Reference-kernel iterations per second of host time, measured now."""
    t0 = time.perf_counter()
    _kernel(KERNEL_ITERATIONS)
    return KERNEL_ITERATIONS / (time.perf_counter() - t0)


def timed(fn):
    """Run fn; return (its result, host seconds, mean kernel speed around it)."""
    before = host_speed()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, (before + host_speed()) / 2


@dataclass
class Phase:
    rate: float  # median over passes of ops per scaled second
    raw_rate: float  # the same in unscaled host seconds
    kernel_ips: float  # median kernel speed around the jobs
    scale: float  # scaled seconds / host seconds over the whole phase
    jobs: int
    ops: int
    failed: int


def timed_phase(workload, state, seconds: float | None = None, jobs: int | None = None) -> Phase:
    """Run jobs for about `seconds`, or exactly `jobs` of them.

    Jobs come in passes of the workload's PASS jobs (default 1). The rate is
    taken per pass, so a pass of unequal jobs counts as a whole, and a timed
    phase ends at the pass boundary nearest to `seconds`.
    """
    per_pass = getattr(workload, "PASS", 1)
    rates, raw_rates, speeds = [], [], []
    ops_total = failed_total = 0
    raw_total = scaled_total = 0.0
    pass_ops, pass_raw, pass_scaled = 0, 0.0, 0.0
    start = time.perf_counter()
    index = 0
    while True:
        planned, job = workload.prepare(state, index)
        try:
            (ops, failed), raw, speed = timed(job)
        except Exception:  # a job that raises fails all its ops
            traceback.print_exc()
            (ops, failed), raw, speed = (planned, planned), 1.0, REFERENCE_SPEED
        scaled = raw * speed / REFERENCE_SPEED
        speeds.append(speed)
        pass_ops += ops
        pass_raw += raw
        pass_scaled += scaled
        raw_total += raw
        scaled_total += scaled
        ops_total += ops
        failed_total += failed
        index += 1
        if index % per_pass:
            continue
        rates.append(pass_ops / pass_scaled)
        raw_rates.append(pass_ops / pass_raw)
        pass_ops, pass_raw, pass_scaled = 0, 0.0, 0.0
        if jobs is not None:
            done = index >= jobs
        else:
            done = (time.perf_counter() - start) * (1 + 0.5 / len(rates)) >= seconds
        if done:
            return Phase(statistics.median(rates), statistics.median(raw_rates),
                         statistics.median(speeds), scaled_total / raw_total,
                         index, ops_total, failed_total)


def timed_setup(workload, seed: int, workdir: Path, repeats: int):
    """Set up `repeats` times; return the last state and the median scaled seconds."""
    times = []
    for _ in range(repeats):
        sub = Path(tempfile.mkdtemp(dir=workdir))
        state, seconds, speed = timed(lambda: workload.setup(seed, sub))
        times.append(seconds * speed / REFERENCE_SPEED)
    return state, statistics.median(times)


def check_pins(workload, workdir: Path):
    """Rerun the pinned probe; return (attempted, failed) checks."""
    sub = workdir / "probe"
    sub.mkdir()
    try:
        got, checks, mismatches = workload.probe(sub)
    except Exception:  # a probe that raises is one failed check
        traceback.print_exc()
        return 1, 1
    want = json.loads(PINS.read_text()).get(workload.name, {})
    keys = set(want) | set(got)
    wrong = sorted(k for k in keys if want.get(k) != got.get(k))
    for k in wrong:
        print(f"perfbench: {workload.name} pin {k}: expected {want.get(k)!r}, got {got.get(k)!r}",
              file=sys.stderr)
    if mismatches:
        print(f"perfbench: {workload.name}: {mismatches} of {checks} reference checks failed",
              file=sys.stderr)
    return len(keys) + checks, len(wrong) + mismatches


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if not trace:
        state, setup_s = timed_setup(workload, seed, workdir, SETUP_REPEATS)
        phase = timed_phase(workload, state, seconds=seconds)
        ops, failed = phase.ops, phase.failed
        metrics = {
            "ops_per_s": (phase.rate, "ops/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        # the unscaled figures, for reading the scaled ones; not result keys
        print("perfbench: " + json.dumps({
            "unscaled_ops_per_s": phase.raw_rate, "kernel_ips": phase.kernel_ips,
            "reference_ips": REFERENCE_SPEED, "jobs": phase.jobs}))
    else:
        # an untraced half by time for the overhead, then a fixed number of
        # traced jobs, so span counts depend on the code and not on its speed
        state, _ = timed_setup(workload, seed, workdir, 1)
        plain = timed_phase(workload, state, seconds=seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            state, _ = timed_setup(workload, seed, workdir, 1)
            traced = timed_phase(workload, state, jobs=workload.TRACE_JOBS)
        ops, failed = plain.ops + traced.ops, plain.failed + traced.failed
        metrics = {k: (v, _unit(k)) for k, v in tracer.metrics(traced.scale).items()}
        metrics["trace_overhead_frac"] = (1 - traced.rate / plain.rate, "ratio")
        metrics["host.unscaled_ops_per_s"] = (plain.raw_rate, "ops/s")
        metrics["host.kernel_ips"] = (plain.kernel_ips, "1/s")
    pin_attempted, pin_failed = check_pins(workload, workdir)
    attempted, failed = ops + pin_attempted, failed + pin_failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def write_pins(workdir: Path) -> None:
    from workloads import WORKLOADS

    pins = {}
    for name, workload in WORKLOADS.items():
        sub = workdir / name
        sub.mkdir()
        got, checks, mismatches = workload.probe(sub)
        if mismatches:
            sys.exit(f"perfbench: {name}: {mismatches} of {checks} reference checks failed")
        pins[name] = got
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("chip_run", "campaign", "obfuscate", "fft"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args(argv)
    if not args.write_pins and not args.workload:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    _import_program()

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.write_pins:
            write_pins(workdir)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
