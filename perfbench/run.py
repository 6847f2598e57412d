#!/usr/bin/env python3
"""hamgeo benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload geometry-sweep --seed 1 --seconds 35 --trace 0

One client in one process, no threads: each op starts when the previous
one, and its correctness check, have finished.  Ops run in rounds of one
op per kind of the workload; the loop starts rounds until the summed op
latencies reach ``--seconds``.  Checks run outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
seconds untraced and half traced, then the layer probe, prints the
tracing overhead, a self-time table per span name and the per-layer
metrics, and writes every span to ``.perfbench_out/spans-<workload>.csv``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every check passed.  See README.md for the metric definitions.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports hamgeo from ../src)
from probe import layer_metrics, run_probe  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = HERE.parent / ".perfbench_out"
# This process's set-up plus set-ups in fresh child processes, one at a time.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# Ops per second at the commit that introduced the benchmark, rounded
# down.  They fix the tail percentile for a run length (see tail_percentile)
# and nothing else.
NOMINAL_OPS_PER_S = {
    "geometry-sweep": 5.0,
    "symmetry-cloud": 1.3,
    "integrate-long": 2.0,
}


class Loop:
    """Latencies, attempts and failures of the ops of one timed loop."""

    def __init__(self, kinds):
        self.latencies = {kind: [] for kind in kinds}
        self.relative = {kind: [] for kind in kinds}
        self.references = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timed_s = 0.0
        self.rss_mib = None

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def op_ref_p50(self) -> float:
        return geometric_mean(statistics.median(v) for v in self.relative.values() if v)

    def fail(self, kind: str, messages: list):
        self.failed += 1
        self.problems += [f"{kind}: {m}" for m in messages]


def reference_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work outside hamgeo.

    The host's CPU speed drifts by tens of percent within seconds and
    between minutes.  An op's latency divided by this reference, timed
    right before and right after the op, cancels most of that drift.
    """
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        value = table.get(key, 0.0) + math.sin(i * 0.001) * 0.5
        table[key] = value
        acc += value
        acc -= sum([value, acc, float(i)]) * 1e-9
    return time.perf_counter() - start


def run_op(workload, kind: str, loop: Loop, tracer=None):
    """Prepare, execute (timed) and check one op; failures go to ``loop``."""
    args = workload.prepare(kind)
    loop.attempted += 1
    before = reference_s()
    if tracer is not None:
        tracer.op = f"{kind}#{loop.attempted}"
    start = time.perf_counter()
    try:
        result = workload.execute(kind, args)
    except Exception as exc:  # an op that raises is a failed op; go on
        loop.timed_s += time.perf_counter() - start
        loop.fail(kind, [f"raised {exc!r}"])
        return
    elapsed = time.perf_counter() - start
    after = reference_s()
    loop.timed_s += elapsed
    loop.latencies[kind].append(elapsed)
    loop.relative[kind].append(2 * elapsed / (before + after))
    loop.references += [before, after]
    if tracer is not None:
        tracer.op = "check"
    try:
        problems = workload.check(kind, args, result)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if problems:
        loop.fail(kind, problems)


def run_rounds(workload, seconds: float, tracer=None) -> Loop:
    """Whole rounds until the op latencies add up to ``seconds``.

    Peak RSS is read after ``workload.rss_rounds`` rounds, a fixed amount
    of work: the package caches every workspace it builds, so a reading at
    the end would charge a faster program for the extra ops it fits in.
    """
    loop = Loop(workload.kinds)
    rounds = 0
    while rounds == 0 or loop.timed_s < seconds:
        for kind in workload.kinds:
            run_op(workload, kind, loop, tracer)
        rounds += 1
        if rounds == workload.rss_rounds:
            loop.rss_mib = peak_rss_mib()
    if loop.rss_mib is None:
        loop.rss_mib = peak_rss_mib()
    return loop


def child_setup(workload: str, seed: int) -> float:
    """Set-up time measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def tail_percentile(workload: str, seconds: float) -> int:
    """The highest whole percentile that leaves ten samples beyond it at
    the nominal op rate: fixed by the run length, not by the ops done."""
    nominal = seconds * NOMINAL_OPS_PER_S[workload]
    return math.floor(100 * (1 - 10 / nominal)) if nominal > 20 else 50


def percentile(values, q: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)]


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_loop(workload, loop: Loop, q: int) -> dict:
    """Print the end-to-end lines of one loop; return the gated metrics."""
    medians = {k: statistics.median(v) * 1e3 for k, v in loop.latencies.items() if v}
    pooled = [t * 1e3 for v in loop.latencies.values() for t in v]
    ops_per_s = loop.completed / loop.timed_s
    op_ms_p50 = geometric_mean(medians.values())
    op_ref_p50 = loop.op_ref_p50()
    print(f"ops_per_s          {ops_per_s:.4f} 1/s  ({loop.completed} ops in {loop.timed_s:.3f} s timed)")
    print(f"op_ms_p50          {op_ms_p50:.4f} ms  (geometric mean of the per-kind medians below)")
    print(
        f"op_ref_p50         {op_ref_p50:.4f} ref  (the same over op latency / reference "
        f"loop timed around the op; reference median {statistics.median(loop.references) * 1e3:.4f} ms)"
    )
    beyond = sum(t > percentile(pooled, q) for t in pooled)
    print(
        f"op_ms_tail         p{q} {percentile(pooled, q):.4f} ms  "
        f"({len(pooled)} samples, {beyond} beyond{'' if beyond >= 10 else ': fewer than 10'})"
    )
    label = "geometry_ms_p50" if workload.name == "geometry-sweep" else "kind_ms_p50"
    for kind, samples in loop.latencies.items():
        if samples:
            ms = [t * 1e3 for t in samples]
            print(
                f"{label + '.' + kind:<28s} {medians[kind]:.4f} ms  "
                f"({len(ms)} samples, p{q} {percentile(ms, q):.4f} ms)"
            )
    if workload.name == "integrate-long":
        steps = sum(workload.steps[k] * len(v) for k, v in loop.latencies.items())
        print(f"rk4_steps_per_s    {steps / loop.timed_s:.1f} steps/s  (accepted steps / integrate op time)")
    return {"op_ref_p50": (op_ref_p50, "ref")}


def report_spans(tracer):
    print("spans of the traced loop, by self time (calls, inclusive s, self s):")
    for name, calls, inclusive, own in tracer.summary(lambda op: "#" in op)[:20]:
        print(f"  {name:<44s} {calls:>8d} {inclusive:>10.4f} {own:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    warm = Loop(("warm-up",))
    workload, problems = workloads.set_up(args.workload, args.seed, workdir)
    setups = [time.perf_counter() - T0]
    warm.attempted = 1
    if problems:
        warm.fail("warm-up", problems)
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  (closed loop, 1 client, no threads)"
    )

    if args.trace:
        plain = run_rounds(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, args.seconds / 2, tracer)
            tracer.op = "probe"
            run_probe(tracer, args.seed)
        finally:
            tracer.uninstall()
        spans_path = OUT / f"spans-{args.workload}.csv"
        tracer.write(spans_path)
        loops = (warm, plain, traced)
        untraced, with_spans = plain.op_ref_p50(), traced.op_ref_p50()
        print(
            f"tracing overhead   {100 * (with_spans / untraced - 1):+.1f}% op_ref_p50 "
            f"({with_spans:.4f} traced vs {untraced:.4f} untraced); ops_per_s "
            f"{traced.completed / traced.timed_s:.4f} traced vs "
            f"{plain.completed / plain.timed_s:.4f} untraced"
        )
        print(f"spans              {len(tracer.spans)} written to {spans_path}")
        report_spans(tracer)
        metrics = layer_metrics(tracer.spans)
        for name, (value, unit) in metrics.items():
            print(f"{name:<40s} {value:.4f} {unit}")
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child_setup(args.workload, args.seed))
        loop = run_rounds(workload, args.seconds)
        loops = (warm, loop)
        print(
            f"setup_s            {statistics.median(setups):.4f} s  (median of "
            + " ".join(f"{s:.3f}" for s in setups) + ")"
        )
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update(report_loop(workload, loop, tail_percentile(args.workload, args.seconds)))
        metrics["peak_rss_mb"] = (loop.rss_mib, "MiB")
        print(
            f"peak_rss_mb        {loop.rss_mib:.2f} MiB  (ru_maxrss after "
            f"{workload.rss_rounds} rounds; {peak_rss_mib():.2f} MiB at the end)"
        )

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"failed_ratio       {failed / attempted:.4f}  ({failed} of {attempted} ops)")
    for problem in [p for loop in loops for p in loop.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
