"""Benchmark of maninforge's exact certifications.

    python3 bench/run.py --workload certify-sparse --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client drives the workload in a closed loop: one process, no threads,
every op at the CLI's default `--jobs 1`, the next op started when the last
one has returned.  A run repeats the workload's fixed cycle of certifications
(see workloads.py) until `--seconds` have passed and at least the workload's
LATENCY_CYCLES are done, always finishing the cycle, so every run holds the
same mix.

The end-to-end times are wall times at a fixed reference speed of the host:
a small kernel of the benchmark's own is timed every 20 ms all through the
run, and each op's and set-up's time is scaled by how much slower or faster
than its reference time the kernel ran while it ran (see `SpeedSampler`).
The raw wall-clock figures are printed beside them in the metadata.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With `--trace 0` the metrics are the end-to-end metrics
of BENCHMARK.json, from an untraced run.  With `--trace 1` they are the
per-layer metrics, per cycle, from cycles run with every public maninforge
function wrapped (tracer.py), alternating with untraced cycles that give
`trace.overhead_ratio`.  The lines before it give each metric by name and
unit, and the run's metadata.  Results and traces also go to `.bench_out/`.

Exits with code 2 when the package cannot be imported from `src/`.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is timed this many times in a run; setup_s is the median.  A fixed
# count, because each fresh import of the package adds to the peak memory.
SETUP_REPEATS = 3
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# The speed a shared host gives one process swings within a second and drifts
# by a third, at times by half, over tens of seconds, as the tenants it shares
# its cores with come and go; the process's CPU time swings with it.  That is
# more than any bound that runs of this length could hold on raw wall time.
# So the end-to-end run samples the host's speed while it measures:
# `SpeedSampler` times a fixed kernel of exact Fraction and dict arithmetic
# (`probe`), the kind of work maninforge's inner loops do but none of its
# code, from a SIGALRM handler every SAMPLE_EVERY_S of wall time.  Each op's
# and set-up's time, less the handlers that ran inside it, is multiplied by
# REFERENCE_PROBE_S over the mean probe time inside it and SPEED_WINDOW
# samples to either side, less the slowest and fastest TRIM of them: its time
# at the reference speed.  Trimmed, because a probe that the system preempts
# reads many times too long.  A change to maninforge moves the scaled times as
# it moves wall time; a host that is slower for a while moves the probes with
# the ops.
PROBE_STEPS = 100
REFERENCE_PROBE_S = 0.0005  # about the kernel's time on a 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.02
SPEED_WINDOW = 2
TRIM = 0.1


def probe() -> float:
    """Seconds the reference kernel takes now, with the collector off so that
    the program's heap does not change what it measures."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc: dict[int, Fraction] = {}
        step = Fraction(1, 3)
        for i in range(PROBE_STEPS):
            key = i * 7 % 61
            acc[key] = acc.get(key, 0) + step * Fraction(i % 5 + 1, i % 3 + 1)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def trimmed_mean(values: list[float]) -> float:
    """The mean of `values` less the lowest and highest TRIM of them."""
    ranked = sorted(values)
    cut = int(len(ranked) * TRIM)
    return statistics.fmean(ranked[cut : len(ranked) - cut])


class SpeedSampler:
    """Probes the host's speed every SAMPLE_EVERY_S while it is entered."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each handler started
        self.probes: list[float] = []  # what its probe took
        self.costs: list[float] = []  # what the whole handler took

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probes.append(probe())
        self.at.append(started)
        self.costs.append(time.perf_counter() - started)

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, starts: list[float], seconds: list[float]) -> list[float]:
        """The times `seconds`, begun at `starts`, at the reference speed."""
        scaled = []
        for started, wall in zip(starts, seconds):
            lo = bisect.bisect_left(self.at, started)
            hi = bisect.bisect_left(self.at, started + wall)
            window = self.probes[max(lo - SPEED_WINDOW, 0) : hi + SPEED_WINDOW]
            net = wall - sum(self.costs[lo:hi])
            scaled.append(net * REFERENCE_PROBE_S / trimmed_mean(window))
        return scaled


@dataclass
class Measurement:
    """What a run of whole cycles saw.  A latency is None for a failed op;
    `seconds` holds every op's wall time, failed or not, and `starts` when
    each began."""

    labels: list[str] = field(default_factory=list)
    latencies: list[float | None] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    cycles: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    stdout_bytes: int = 0

    def add(self, other: Measurement) -> None:
        self.labels += other.labels
        self.latencies += other.latencies
        self.seconds += other.seconds
        self.starts += other.starts
        self.failures += other.failures
        self.cycles += other.cycles
        self.wall += other.wall
        self.cpu += other.cpu
        self.stdout_bytes += other.stdout_bytes


def run_op(op: workloads.Op) -> tuple[float, str | None, object]:
    """Time one op and check its outcome; returns (seconds, mismatch, outcome)."""
    started = time.perf_counter()
    try:
        outcome = op.run()
    except Exception:
        return time.perf_counter() - started, "raised:\n" + traceback.format_exc(limit=4), None
    seconds = time.perf_counter() - started
    try:
        return seconds, op.check(outcome), outcome
    except Exception as exc:
        return seconds, f"oracle raised {exc!r} on the outcome", outcome


def run_cycles(
    cycle: list[workloads.Op], seconds: float, min_cycles: int = 1, tracer: Tracer | None = None
) -> Measurement:
    """Run whole cycles until `seconds` have passed and at least `min_cycles`
    are done.  Each op starts on a collected heap, as in a fresh process."""
    m = Measurement()
    started, cpu_started = time.perf_counter(), time.process_time()
    while True:
        for op in cycle:
            if tracer is not None:
                tracer.op += 1
            gc.collect()
            m.starts.append(time.perf_counter())
            latency, mismatch, outcome = run_op(op)
            m.seconds.append(latency)
            m.labels.append(op.label)
            if isinstance(outcome, workloads.CliResult):
                m.stdout_bytes += len(outcome.stdout.encode())
            if mismatch is None:
                m.latencies.append(latency)
            else:
                m.latencies.append(None)
                m.failures.append((op.label, mismatch))
        m.cycles += 1
        if m.cycles >= min_cycles and time.perf_counter() - started >= seconds:
            break
    m.wall = time.perf_counter() - started
    m.cpu = time.process_time() - cpu_started
    return m


def traced_run(cycle: list[workloads.Op], seconds: float) -> tuple[Tracer, Measurement, Measurement]:
    """Alternate untraced and traced cycles until `seconds` have passed, so that
    the two sides see the same machine; returns the tracer, the untraced and
    the traced measurement."""
    tracer = Tracer()
    plain, traced = Measurement(), Measurement()
    started = time.perf_counter()
    while not traced.cycles or time.perf_counter() - started < seconds:
        plain.add(run_cycles(cycle, 0.0))
        with tracer:
            traced.add(run_cycles(cycle, 0.0, tracer=tracer))
    return tracer, plain, traced


def import_fresh() -> None:
    """(Re-)import maninforge from src/, so that each set-up pays for imports."""
    for name in [n for n in sys.modules if n == "maninforge" or n.startswith("maninforge.")]:
        del sys.modules[name]
    importlib.import_module("maninforge.cli")
    location = Path(sys.modules["maninforge"].__file__).resolve().parent
    if location != (SRC / "maninforge").resolve():
        raise ImportError(f"maninforge was imported from {location}, not from {SRC}")


def set_up(name: str, seed: int, workdir: Path) -> tuple[workloads.Workload, Measurement]:
    """Import, generate and write the inputs, and warm up, SETUP_REPEATS
    times; returns the last workload and when each set-up began and what it
    took."""
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        m.starts.append(started)
        import_fresh()
        workload = workloads.build(name, seed, workdir)
        _, mismatch, _ = run_op(workload.warmup)
        m.seconds.append(time.perf_counter() - started)
        if mismatch is not None:
            # Not counted here: the same op runs, and is counted, in every cycle.
            print(f"warm-up op {workload.warmup.label} mismatched: {mismatch}", file=sys.stderr)
    gc.collect()
    gc.freeze()
    return workload, m


def tail(ranked: list[float], base: int | None = None) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile that would have at least TAIL_BEYOND samples beyond it among
    `base` samples (by default all of them), read off all of `ranked`; the
    minimum when there are too few samples for that."""
    n = len(ranked)
    base = n if base is None else base
    rank = max(-(-(base - TAIL_BEYOND) * n // base), 1)
    return ranked[rank - 1], 100.0 * rank / n, n - rank


def latency_metrics(times: list[float], ok: list[bool], base: int) -> dict[str, float]:
    """Throughput and latency percentiles of one run's op times.  The tail's
    percentile is the one that has TAIL_BEYOND samples beyond it in a run of
    `base` ops, so that it is the same for every run of the workload however
    many cycles it completes."""
    busy = sum(times)
    # A failed op misses any latency limit: it counts as taking the whole run.
    ranked = sorted(x if passed else busy for x, passed in zip(times, ok))
    tail_value, tail_pct, beyond = tail(ranked, base)
    return {
        "certs_per_s": sum(ok) / busy,
        "cert_ms.p50": 1000.0 * statistics.median(ranked),
        "cert_ms.tail": 1000.0 * tail_value,
        "cert_ms.tail.percentile": tail_pct,
        "cert_ms.tail.samples_beyond": beyond,
    }


def end_to_end(
    m: Measurement, base: int, setup: Measurement, sampler: SpeedSampler
) -> tuple[dict[str, float], dict]:
    """End-to-end metrics at the reference speed, and the run's details with
    the same figures in wall time."""
    ok = [x is not None for x in m.latencies]
    metrics = latency_metrics(sampler.at_reference(m.starts, m.seconds), ok, base)
    percentile = metrics.pop("cert_ms.tail.percentile")
    beyond = metrics.pop("cert_ms.tail.samples_beyond")
    metrics["ok_ratio"] = sum(ok) / len(ok)
    metrics["setup_s"] = statistics.median(sampler.at_reference(setup.starts, setup.seconds))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = latency_metrics(m.seconds, ok, base)
    details = {
        "fail_ratio": 1.0 - metrics["ok_ratio"],
        "cert_ms.tail.percentile": percentile,
        "cert_ms.tail.samples_beyond": beyond,
        "latency_samples": len(ok),
        "cycles": m.cycles,
        "wall_s": m.wall,
        "speed": REFERENCE_PROBE_S / statistics.median(sampler.probes),
        "probes": len(sampler.probes),
        "probe_overhead": sum(sampler.costs) / (time.perf_counter() - setup.starts[0]),
        "wall.certs_per_s": wall["certs_per_s"],
        "wall.cert_ms.p50": wall["cert_ms.p50"],
        "wall.cert_ms.tail": wall["cert_ms.tail"],
        "wall.setup_s": statistics.median(setup.seconds),
        "wall.setup_s.each": setup.seconds,
    }
    return metrics, details


def per_layer(tracer: Tracer, traced: Measurement, reference: Measurement) -> tuple[dict[str, float], dict]:
    """Per-cycle layer metrics of a traced run."""
    cycles = traced.cycles
    metrics: dict[str, float] = {}
    for name, entry in tracer.summary().items():
        for kind, value in entry.items():
            metrics[f"{name}.{kind}"] = value if kind.endswith("_ratio") else value / cycles
    counters = tracer.counters
    products = counters["core.mat_vec.products"]
    metrics["core.mat_vec.useful_ratio"] = counters["core.mat_vec.useful"] / products if products else 0.0
    metrics["core.rref.cells"] = counters["core.rref.cells"] / cycles
    metrics["fileio.parse.bytes"] = counters["fileio.parse.bytes"] / cycles
    metrics["fileio.format.bytes"] = counters["fileio.format.bytes"] / cycles
    metrics["cli.stdout_bytes"] = traced.stdout_bytes / cycles
    metrics["run.cpu_over_wall"] = traced.cpu / traced.wall
    metrics["trace.overhead_ratio"] = (traced.wall / cycles) / (reference.wall / reference.cycles)
    details = {
        "cycles": cycles,
        "spans": len(tracer.span_name),
        "untraced_cycle_s": reference.wall / reference.cycles,
        "traced_cycle_s": traced.wall / cycles,
    }
    return metrics, details


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "maninforge" / "__init__.py").is_file():
        print(f"error: no maninforge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    sampler = SpeedSampler()
    try:
        if args.trace:
            workload, _ = set_up(args.workload, args.seed, workdir)
            tracer, reference, traced = traced_run(workload.cycle, args.seconds)
            values, details = per_layer(tracer, traced, reference)
            tracer.write(OUT / f"trace-{args.workload}.txt.gz")
            measured = [reference, traced]
            wanted = spec["per_layer"]
        else:
            cycles = workloads.LATENCY_CYCLES
            with sampler:
                workload, setup = set_up(args.workload, args.seed, workdir)
                run = run_cycles(workload.cycle, args.seconds, cycles)
            values, details = end_to_end(run, cycles * len(workload.cycle), setup, sampler)
            measured = [run]
            wanted = spec["end_to_end"]
    except ImportError as exc:
        print(f"error: cannot import maninforge: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(m.latencies) for m in measured)
    failures = [f for m in measured for f in m.failures]
    for label, mismatch in failures[:20]:
        print(f"FAILED {label}: {mismatch}", file=sys.stderr)
    metrics = {
        item["name"]: {"value": values.get(item["name"], 0.0), "unit": item["unit"]} for item in wanted
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "command": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds:g} --trace {args.trace}",
        **details,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples = [[m.labels, m.starts, m.seconds] for m in measured]
    speed = [sampler.at, sampler.probes, sampler.costs]
    record.write_text(json.dumps({"meta": meta, **result, "samples": samples, "speed_samples": speed}) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} fail_ratio = {details['fail_ratio']:.6g} ratio")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
