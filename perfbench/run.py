"""pathprobe benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_survey --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn.

Workloads (see ``workloads.py`` for why each was chosen):

* ``exact_survey``     random exact-model configs: sweep, fits, analyzer scans
* ``counting_seeds``   ``mc_protocol(repeats=10)`` per seed plus the CSV round trip
* ``bootstrap_errors`` ``mc_protocol(repeats=1, bootstrap_replicates=200)`` per seed
* ``cli_commands``     the nine ``pathprobe`` subcommands, one subprocess per op

Each run is a closed loop with one caller in a fresh worker process
(``worker.py``) that runs ops until ``--seconds`` of op time have passed and
the current cycle of op kinds is complete.  With ``--trace 0`` it prints the
end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: median over nine fresh processes of the time from spawn until
  the first op could start (interpreter start, imports,
  ``cli.parse_config("paper")``, input generation);
* ``ops_per_s``: median over blocks of whole cycles of ops per second;
* ``op_ms_p50`` and ``op_ms_tail``: median op latency and the highest
  percentile with at least ten samples beyond it (the context line names it);
* ``peak_rss_mb``: peak resident memory of the worker, or of the largest
  CLI subprocess for ``cli_commands``.

The times are scaled to a reference host speed (``hostspeed.py``): each op
is bracketed by a fixed in-process probe task (for ``cli_commands``, whose
ops start interpreters, by a fresh interpreter that imports numpy), and
each set-up sample by that interpreter start; neither calls pathprobe.  A
time is multiplied by its probe's reference time over the mean of the two
probes around it.  This takes out the drift of the shared host's speed;
the unscaled figures are in the context line.

With ``--trace 1`` it prints the per-layer metrics from spans recorded
around every public pathprobe function (``tracer.py``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the run context.  Every op is checked outside the
timed region, and an op that raises or fails its check counts in ``failed``.
Only the benchmark's own processes are measured: no cache drops and no
cgroup or kernel tuning, so other load on the machine adds noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0
LIMITS = (
    "measured through the benchmark's own processes only; no cache drops, "
    "cgroup or kernel tuning, so other tenants of the machine add noise"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(argv, deadline):
    """Run a child to completion in its own session; return (start, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=CHECKOUT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}")
    return start, out


def run_worker(args, workload, workdir, deadline, setup_only=False):
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    start, out = spawn(argv, deadline)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def import_times(deadline):
    """Median ``python -X importtime`` cost of pathprobe.cli, without and of numpy (ms)."""
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    own, numpy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pathprobe.cli"],
            cwd=CHECKOUT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
            check=True,
        )
        top, numpy_us = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            name = name[1:]
            if name.strip() == "numpy":
                numpy_us = int(cumulative)
            if name.startswith("pathprobe"):
                top += int(cumulative)
        own.append((top - numpy_us) / 1000.0)
        numpy.append(numpy_us / 1000.0)
    return statistics.median(own), statistics.median(numpy)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "pathprobe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(CHECKOUT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (CHECKOUT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_one(args, workload, wanted) -> int:
    """Run one workload and print its metrics; the last line is the result."""
    deadline = time.monotonic() + DEADLINE_S
    loadavg = os.getloadavg()
    work_root = CHECKOUT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        # Untimed warm-up: compiles bytecode caches, so a fresh checkout's
        # first set-up is not an outlier.
        run_worker(args, workload, workdir, deadline, setup_only=True)
        setups, setup_probes = [], []
        if not args.trace:
            before = hostspeed.start_probe(CHECKOUT, max(deadline - time.monotonic(), 1.0))
            for _ in range(SETUP_SAMPLES):
                report = run_worker(args, workload, workdir, deadline, setup_only=True)
                after = hostspeed.start_probe(CHECKOUT, max(deadline - time.monotonic(), 1.0))
                setups.append(report["setup_s"])
                setup_probes.append(0.5 * (before + after))
                before = after
        report = run_worker(args, workload, workdir, deadline)
        if args.trace:
            computed = dict(report["layer"])
            computed["cli.import_ms"], computed["cli.numpy_import_ms"] = import_times(deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    raw = report["latencies"]
    probes = report["probes"]  # empty in traced runs, whose times stay unscaled
    reference = report["probe_reference_ms"]
    latencies = [t * hostspeed.scale(p, reference) for t, p in zip(raw, probes)] or raw
    tail_value, tail_pct = tail(latencies)
    block = report["block_ops"]
    blocks = [latencies[k : k + block] for k in range(0, len(latencies) - block + 1, block)]
    blocks = blocks or [latencies]
    if not args.trace:
        computed = {
            "setup_s": statistics.median(
                t * hostspeed.scale(p, hostspeed.START_REFERENCE_MS)
                for t, p in zip(setups, setup_probes)
            ),
            "ops_per_s": statistics.median(len(b) / sum(b) for b in blocks),
            "op_ms_p50": 1000.0 * statistics.median(latencies),
            "op_ms_tail": 1000.0 * tail_value,
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = report["attempted"], report["failed"]
    for message in report["errors"]:
        print(f"FAILED {message}", file=sys.stderr)

    context = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(latencies),
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_samples": len(latencies),
        "ops_per_s_blocks": len(blocks),
        "setup_samples": len(setups),
        "op_probe_ms_median": 1000.0 * statistics.median(probes) if probes else None,
        "op_probe_reference_ms": reference,
        "start_probe_ms_median": 1000.0 * statistics.median(setup_probes) if setup_probes else None,
        "start_probe_reference_ms": hostspeed.START_REFERENCE_MS,
        "unscaled_op_ms_p50": 1000.0 * statistics.median(raw),
        "unscaled_ops_per_s": len(raw) / sum(raw),
        "unscaled_setup_s": statistics.median(setups) if setups else None,
        "ops_failed_ratio": failed / attempted,
        "python": platform.python_version(),
        "numpy": report["numpy_version"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "limits": LIMITS,
    }
    print(f"# {workload} seed={args.seed} trace={args.trace} ops={len(latencies)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} 1")
    if not args.trace:
        print(f"(op_ms_tail is p{tail_pct:.1f} of {len(latencies)} samples)")
    print(json.dumps({"context": context}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = CHECKOUT / "BENCHMARK.json"
    if not (CHECKOUT / "src" / "pathprobe" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a pathprobe checkout with src/ and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    return max(run_one(args, workload, wanted) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
