"""Benchmark of nilquiver: seeded workloads through the CLI and the library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload onevertex-cold --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 3 and prints no result.  Each run is one process
on one thread driving a closed loop with one client: the next operation
starts when the previous one returns.  There are no queues, locks or
threads, so no operation ever waits and no waiting time is reported.

Set-up (a fresh import of ``nilquiver`` plus input generation) is done
``SETUPS`` times and ``setup_s`` is the median, in reference seconds (see
below; the unit is written ``s``).  An untraced run (``--trace
0``) then runs whole rounds of the workload until ``--seconds`` have passed
and reports the end-to-end metrics.  The program's caches are emptied
before every round, so a repeated input always runs from the same cache
state.

A machine shared with other work changes speed for seconds at a time, by
up to a factor of two, and no statistic of raw times inside one run can
remove a spell that lasts the whole run.  The run therefore times a fixed
reference kernel (exact Gaussian elimination on a small rational matrix,
pure Python and no part of the program) every ``PROBE_GAP_S`` seconds
between operations, and reports every time in *reference milliseconds*
(unit ``ref_ms``): one ``ref_ms`` is the median time of the four probes
around the operation, 0.5 to 1 ms on a 2-vCPU x86-64 host, and a reference
second is a thousand of them.  Each set-up is timed the same way, between
probes.  Any change to the program's own cost shows in full, while a spell
of the machine slows operation and probe alike.  The raw times stay in the
result file.  The
latency of an input is the median of its runs; ``ops_per_s`` (unit
``1/ref_s``) is the closed loop's throughput at those latencies: inputs
divided by the sum of their latencies.

A traced run (``--trace 1``) replays the workload's fixed trace rounds
twice untraced and then twice with spans around the program's public
functions, and reports per-layer metrics plus the tracing overhead
between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result,
headed by the environment, goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Sample, clear_program_caches, run_op  # noqa: E402

SETUPS = 5
RESULTS = ROOT / ".perfbench" / "results"

#: Seconds between two probes of the reference kernel, and the probes
#: around an operation whose median gives its speed.
PROBE_GAP_S = 0.05
PROBE_NEIGHBOURS = 2

_PROBE_MATRIX = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(7)]
                 for i in range(7)]


def reference_kernel() -> None:
    """The probe: exact elimination of a fixed 7x7 rational matrix in
    pure-Python Fraction arithmetic."""
    m = [row[:] for row in _PROBE_MATRIX]
    for c in range(7):
        p = next(r for r in range(c, 7) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, 7):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]


class Speed:
    """Probes of the reference kernel along a run: (start, seconds)."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_GAP_S

    def ref_ms(self, start: float, seconds: float) -> float:
        """``seconds`` of work begun at ``start``, in reference milliseconds."""
        i = bisect.bisect_right(self.starts, start)
        near = self.seconds[max(0, i - PROBE_NEIGHBOURS):i + PROBE_NEIGHBOURS]
        return seconds / statistics.median(near)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ``nilquiver`` afresh from the checkout's ``src``, dropping any
    earlier import."""
    if not (SRC / "nilquiver" / "__init__.py").is_file():
        raise ProgramMissing(f"no nilquiver package under {SRC}")
    for name in [n for n in sys.modules if n == "nilquiver" or n.startswith("nilquiver.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("nilquiver")
    importlib.import_module("nilquiver.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "nilquiver").resolve():
        raise ProgramMissing(f"nilquiver was imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed: int, workdir: Path):
    """One set-up: a fresh import and the workload's inputs."""
    pkg = load_program()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return pkg, workload.make(pkg, seed, workdir)


def run_rounds(plan, rounds, seconds: float | None = None, tracer: Tracer | None = None,
               speed: Speed | None = None):
    """Run whole rounds, cycling through ``rounds`` (indices into the plan),
    until ``seconds`` have passed, or once through when ``seconds`` is None.
    With ``speed``, the reference kernel is probed between operations.
    Returns the samples and the operations per second of each round."""
    samples: list[Sample] = []
    rates: list[float] = []
    start = time.perf_counter()
    while True:
        round_start, first = time.perf_counter(), len(samples)
        if plan.before_round is not None:
            plan.before_round()
        for op in plan.rounds[rounds[len(rates) % len(rounds)]]:
            if tracer is not None:
                tracer.op_id = len(samples)
            if speed is not None and speed.due():
                speed.probe()
            samples.append(run_op(op))
        rates.append((len(samples) - first) / (time.perf_counter() - round_start))
        if seconds is None and len(rates) == len(rounds):
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    if speed is not None:
        speed.probe()
    return samples, rates


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def per_input(samples: list[Sample], value) -> list[list[float]]:
    """``value`` of each sample, grouped by distinct input."""
    runs: dict[int, list[float]] = {}
    for s in samples:
        runs.setdefault(id(s.op), []).append(value(s))
    return list(runs.values())


def best_times(samples: list[Sample]) -> list[float]:
    """The fastest raw run of each distinct input, in seconds."""
    return [min(runs) for runs in per_input(samples, lambda s: s.seconds)]


def input_latencies(samples: list[Sample], speed: Speed) -> list[float]:
    """The median run of each distinct input, in reference milliseconds."""
    return [statistics.median(runs) for runs in per_input(samples, lambda s: speed.ref_ms(s.start, s.seconds))]


def end_to_end(samples: list[Sample], speed: Speed, setup_s: float, tail_pct: float) -> dict:
    """The end-to-end metrics, by name, as {"value", "unit"}."""
    times = input_latencies(samples, speed)
    failed = sum(not s.ok for s in samples)
    values = {
        "ops_per_s": (1000 * len(times) / sum(times), "1/ref_s"),
        "latency_p50_ms": (statistics.median(times), "ref_ms"),
        "latency_tail_ms": (percentile(times, tail_pct), "ref_ms"),
        "success_ratio": (1 - failed / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
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
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "traced": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
        "waiting": "none: one thread, a closed loop with one client, no queues or locks",
    }


def errors_of(samples: list[Sample]) -> list[str]:
    return sorted({f"{s.op.kind}: {s.error}" for s in samples if not s.ok})[:20]


def timed_run(plan, workload, seconds: float, setup_s: float, speed: Speed) -> tuple[list[Sample], dict, dict]:
    """Whole rounds for ``seconds``, untraced: the end-to-end metrics."""
    start = time.perf_counter()
    samples, rates = run_rounds(plan, list(range(len(plan.rounds))), seconds, speed=speed)
    elapsed = time.perf_counter() - start
    metrics = end_to_end(samples, speed, setup_s, workload.tail_percentile)
    raw = [statistics.median(runs) for runs in per_input(samples, lambda s: s.seconds)]
    inputs = len(raw)
    kinds = sorted({s.op.kind for s in samples})
    detail = {
        "timed_s": elapsed,
        "completed_ops_per_s": len(samples) / elapsed,
        "raw_latency_p50_ms": 1000 * statistics.median(raw),
        "raw_latency_tail_ms": 1000 * percentile(raw, workload.tail_percentile),
        "probe_ms": {"count": len(speed.seconds), "median": 1000 * statistics.median(speed.seconds),
                     "min": 1000 * min(speed.seconds), "max": 1000 * max(speed.seconds)},
        "round_rates": rates,
        "samples": len(samples),
        "inputs": inputs,
        "tail_percentile": workload.tail_percentile,
        "tail_inputs_beyond": inputs - math.ceil(workload.tail_percentile / 100 * inputs),
        "per_kind": {
            kind: {"count": len(ts), "median_ms": 1000 * statistics.median(ts),
                   "median_ref_ms": statistics.median(speed.ref_ms(s.start, s.seconds)
                                                     for s in samples if s.op.kind == kind)}
            for kind in kinds
            for ts in [[s.seconds for s in samples if s.op.kind == kind]]
        },
    }
    return samples, metrics, detail


def traced_run(pkg, plan, workload) -> tuple[list[Sample], dict, dict, Tracer]:
    """The trace rounds twice untraced and then twice traced, each pass
    from empty caches.  The per-layer metrics come from the last pass.  The
    tracing overhead compares the sums of each input's faster run with and
    without spans, which leaves out the first pass's warm-up and a slow
    spell of the machine."""
    rounds = list(range(workload.trace_rounds))

    def one_pass(tracer=None):
        clear_program_caches(pkg)
        return run_rounds(plan, rounds, tracer=tracer)[0]

    untraced = one_pass() + one_pass()
    tracer = Tracer()
    tracer.install(pkg)
    traced = one_pass(tracer)
    tracer.reset()
    last = one_pass(tracer)
    untraced_s = sum(best_times(untraced))
    traced_s = sum(best_times(traced + last))
    last_s = sum(s.seconds for s in last)
    layer = tracer.layer_metrics(last_s, 100.0 * (traced_s - untraced_s) / untraced_s)
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "absent": sorted(name for name, _, _, _ in LAYER_METRICS if name not in layer),
        "layers": tracer.summary(),
    }
    return untraced + traced + last, metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        speed, setups = Speed(), []
        for _ in range(SETUPS):
            for _ in range(PROBE_NEIGHBOURS):
                speed.probe()
            start = time.perf_counter()
            pkg, plan = set_up(workload, args.seed, workdir)
            setups.append((start, time.perf_counter() - start))
        for _ in range(PROBE_NEIGHBOURS):
            speed.probe()
        setup_s = statistics.median(speed.ref_ms(*setup) for setup in setups) / 1000
        if args.trace:
            samples, metrics, detail, tracer = traced_run(pkg, plan, workload)
        else:
            samples, metrics, detail = timed_run(plan, workload, args.seconds, setup_s, speed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not s.ok for s in samples)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    report = {"environment": environment(args), "raw_setup_s": [seconds for _, seconds in setups], **detail,
              "errors": errors_of(samples), "result": result}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl.gz")
    print(f"# environment: {json.dumps(report['environment'], sort_keys=True)}")
    if args.trace:
        print(f"# traced {len(tracer.spans)} spans; absent layer metrics: {', '.join(detail['absent']) or 'none'}")
    else:
        print(f"# {len(samples)} operations; latency_tail_ms is p{workload.tail_percentile:g}")
    for line in report["errors"]:
        print(f"# failure: {line}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
