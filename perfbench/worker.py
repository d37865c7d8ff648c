"""One workload process: set up, run the closed loop, check, report JSON.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
it stops after set-up and reports when it became ready, which ``run.py``
turns into ``setup_s``.  Otherwise it runs the timed loop (untraced), or an
untraced then a traced loop (``--trace 1``), and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYERS, STREAM_LAYER, STREAM_SPAN, SpanSummary, Tracer

CHECKOUT = Path(__file__).resolve().parent.parent

# Share of --seconds spent untraced in a traced run, for the overhead ratio.
UNTRACED_SHARE = 0.25


class Loop:
    """Latencies, host probe times and failures of one timed loop."""

    def __init__(self, probing=False):
        self.latencies = []
        # With ``probing``, the mean of the host probes run right before and
        # right after each op (end-to-end runs only; traced runs skip them).
        self.probing = probing
        self.probes = []
        self.last_probe = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, i, messages) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {i}: " + "; ".join(messages))


def run_op(workload, i, loop, tracer=None):
    """One timed op plus its untimed check; returns (seconds, span summary or None)."""
    workload.prepare(i)
    if loop.probing and loop.last_probe is None:
        loop.last_probe = workload.host_probe()
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        out = workload.op(i)
        failures = None
    except Exception:
        failures = [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    summary = None
    if tracer is not None:
        tracer.enabled = False
        summary = tracer.take()
        summary.counts["montecarlo.poisson_draws"] += workload.draws(i)
    if loop.probing:
        probe = workload.host_probe()
        loop.probes.append(0.5 * (loop.last_probe + probe))
        loop.last_probe = probe
    if failures is None:
        try:
            failures = workload.check(i, out)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
    loop.attempted += 1
    if failures:
        loop.fail(i, failures)
    loop.latencies.append(elapsed)
    return elapsed, summary


def measure(workload, seconds, tracer=None, probing=False):
    """Run ops 0, 1, ... until ``seconds`` of op time and a whole cycle."""
    loop = Loop(probing)
    total = SpanSummary()
    first_cycle = SpanSummary()
    timed = 0.0
    i = 0
    while timed < seconds or i % workload.cycle:
        elapsed, summary = run_op(workload, i, loop, tracer)
        timed += elapsed
        if summary is not None:
            total.add(summary)
            if i < workload.cycle:
                first_cycle.add(summary)
        i += 1
    return loop, total, first_cycle


def layer_metrics(tracer, total, first_cycle, workload, n_ops, setup) -> dict:
    """Per-layer metrics from the traced loop.

    Counts are per op over the first cycle of ops, which the seed fixes, so
    they repeat exactly; times are per op (or per call) over the whole loop.
    """
    per_op = 1000.0 / n_ops
    cycle = workload.cycle
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = first_cycle.layer_calls[layer] / cycle
        m[f"{layer}.ms"] = total.layer_seconds[layer] * per_op
        m[f"{layer}.self_ms"] = total.layer_self_seconds[layer] * per_op
    for name in tracer.names:
        calls = total.calls[name]
        m[f"{name}.calls"] = first_cycle.calls[name] / cycle
        m[f"{name}.ms"] = 1000.0 * total.seconds[name] / calls if calls else 0.0
        if name.startswith("cli.cmd_"):
            m[f"cli.{name[len('cli.cmd_'):].replace('_', '-')}.ms"] = m[f"{name}.ms"]
    m["montecarlo.streams"] = m[f"{STREAM_SPAN}.calls"]
    m["montecarlo.streams_ms"] = total.layer_seconds[STREAM_LAYER] * per_op
    for kind in ("write", "read"):
        m[f"datasets.{kind}.ms"] = per_op * sum(
            seconds
            for name, seconds in total.seconds.items()
            if name.startswith(f"datasets.{kind}_")
        )
    for key in (
        "interferometer.undefined_conditionals",
        "analysis.fit_fringe.iterations",
        "analysis.fit_gt_curve.iterations",
        "montecarlo.negative_rates",
        "montecarlo.poisson_draws",
        "datasets.write.bytes",
        "datasets.read.rows",
    ):
        m[key] = first_cycle.counts[key] / cycle
    calls = setup.calls["cli.parse_config"]
    m["cli.parse_config.ms"] = 1000.0 * setup.seconds["cli.parse_config"] / calls
    return m


def finish(workload) -> list:
    try:
        return workload.finish()
    except Exception:
        return [traceback.format_exc(limit=3)]


def traced_run(workload, tracer, seconds, setup):
    """Untraced loop, traced loop, then the traced first cycle once more.

    Returns the combined loop, the per-layer metrics and run-level failures.
    """
    untraced, _, _ = measure(workload, seconds * UNTRACED_SHARE)
    loop, total, first_cycle = measure(workload, seconds * (1.0 - UNTRACED_SHARE), tracer)
    repeat = Loop()
    again = SpanSummary()
    for i in range(workload.cycle):
        again.add(run_op(workload, i, repeat, tracer)[1])
    run_level = finish(workload)
    if again.count_key() != first_cycle.count_key():
        run_level.append("traced counts differ between two runs of the first cycle")
    m = layer_metrics(tracer, total, first_cycle, workload, len(loop.latencies), setup)
    traced_rate = len(loop.latencies) / sum(loop.latencies)
    untraced_rate = len(untraced.latencies) / sum(untraced.latencies)
    m["trace.ops_per_s"] = traced_rate
    m["trace.untraced_ops_per_s"] = untraced_rate
    m["trace.overhead_ratio"] = untraced_rate / traced_rate
    for other in (untraced, repeat):
        loop.attempted += other.attempted
        loop.failed += other.failed
        loop.errors += other.errors
    return loop, m, run_level


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    import pathprobe
    from pathprobe import analysis, cli, datasets, interferometer, montecarlo, optics, qstate

    if Path(pathprobe.__file__).resolve().parent != src / "pathprobe":
        print(f"pathprobe imported from {pathprobe.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install([qstate, optics, interferometer, analysis, montecarlo, datasets, cli])
        tracer.enabled = True
    import workloads

    preset = cli.parse_config("paper")
    workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    workload = workloads.WORKLOADS[args.workload](preset, args.seed, workdir)
    ready = time.monotonic()
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"ready": ready}))
        return 0

    report = {"ready": ready}
    try:
        if tracer is None:
            loop, _, _ = measure(workload, args.seconds, probing=True)
            report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if isinstance(workload, workloads.CliCommands):
                report["peak_rss_kb"] = workload.peak_child_rss_kb
            run_level = finish(workload)
        else:
            tracer.enabled = False
            setup = tracer.take()
            if isinstance(workload, workloads.CliCommands):
                workload.in_process = True
            loop, report["layer"], run_level = traced_run(workload, tracer, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run_level:
        # A failed run-level gate taints every op of the run.
        loop.errors += run_level
        loop.failed = loop.attempted
    report.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        latencies=loop.latencies,
        probes=loop.probes,
        probe_reference_ms=workload.probe_reference_ms,
        block_ops=workload.cycle * workload.block_cycles,
        numpy_version=sys.modules["numpy"].__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
