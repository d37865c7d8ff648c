"""The four benchmark workloads: inputs from the seed, one op, its checks.

Every workload is a closed loop with one caller: op ``i`` runs only after
op ``i - 1`` has returned, as in a researcher's script.  Inputs come from
the workload seed alone and are generated in set-up; ops cycle through them.

Each workload has
* ``cycle``: ops per repeating pattern (the loop ends on a cycle boundary,
  so every run has the same mix of op kinds);
* ``block_cycles``: cycles per throughput block (``ops_per_s`` is the
  median block rate, computed in ``run.py``);
* ``prepare(i)``: untimed work before op ``i``;
* ``op(i)``: the timed call into pathprobe;
* ``check(i, out)``: the per-op correctness gate, run outside the timed
  region; returns a list of failure messages;
* ``finish()``: run-level gates (pooled statistics, pinned digests);
* ``draws(i)``: Poisson draws of op ``i``, computed from its inputs;
* ``host_probe()``: the reference task run between ops, whose time on the
  reference host is ``probe_reference_ms`` (``hostspeed.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from pathprobe import analysis, cli, datasets, interferometer, montecarlo
from pathprobe.interferometer import ExperimentConfig, PhaseGrid
from pathprobe.optics import BeamSplitterSpec, DephasingSpec, RetarderSpec, RotationSpec

import hostspeed

# Inputs generated per run; ops beyond the pool reuse it from the start.
POOL = 1024

# Seed of the pinned-output op and the SHA-256 of its output files, taken
# from the package before any optimisation.  A change that alters a single
# Poisson draw (or a single written digit) changes these digests.
PINNED_SEED = 7
PINNED_COUNTING = {
    "sweep.csv": "30043ca3996301ecb494dd7f1ed4e5f27fc1cf198e075f765372c2037bdf8a6a",
    "counts.csv": "4a6eacbc267381292172455c4a769a3d7daa71253267585bf9b299ea96e0dbfb",
    "background.csv": "d1951cb4ddbf57ed01af12228efb89c91924ee48ea98e858e68d48d8d713fab4",
    "corrected.csv": "b7cd4b37e9981db9dd3ad1c0c9f6368ece99ab0532197819109f8a83e443da56",
}
PINNED_BOOTSTRAP = {"sweep.csv": "bdfc2294b68d02a5f8a50d276e106061f336e5c79be6de6cd6ceaf401c77dcca"}

EXACT_TOL = 1e-12
COARSE_GRID = PhaseGrid()
FINE_GRID = PhaseGrid(start_deg=-22.5, stop_deg=202.5, steps=226)
GT_ANGLES = np.linspace(-45.0, 45.0, 181)
PROB_KEYS = ("p_plus_h", "p_plus_v", "p_minus_h", "p_minus_v", "survival")
PULL_FIELDS = (
    ("p_plus", "sigma_p_plus"),
    ("p_minus", "sigma_p_minus"),
    ("p_h_given_plus", "sigma_ph_plus"),
    ("p_h_given_minus", "sigma_ph_minus"),
)
SIGMA_FIELDS = (
    "sigma_p_plus",
    "sigma_p_minus",
    "sigma_ph_plus",
    "sigma_ph_minus",
    "sigma_a2_plus",
    "sigma_a2_minus",
)
ESTIMATE_FIELDS = ("p_plus", "p_minus", "p_h_given_plus", "p_h_given_minus", "a2_plus", "a2_minus")
# Counting channels: (run kind, port, polarizer setting).
CHANNELS = len(montecarlo.KINDS) * len(interferometer.PORTS) * len(montecarlo.POL_SETTINGS)


def poisson_draws(config: ExperimentConfig, repeats: int, replicates: int) -> int:
    """Draws of one ``mc_protocol`` call: (12 + 12 * phases) per repeat and replicate."""
    return CHANNELS * (1 + config.phase_grid.steps) * (repeats + replicates)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest_failures(label, found: dict, pinned: dict) -> list:
    return [
        f"{label}: {name} digest {found[name]} differs from pinned {digest}"
        for name, digest in pinned.items()
        if found[name] != digest
    ]


class Workload:
    """Inputs and defaults shared by the workloads: one seed per op."""

    probe_reference_ms = hostspeed.REFERENCE_MS

    def __init__(self, preset, seed, workdir):
        self.preset = preset
        self.seeds = random.Random(seed).sample(range(1, 1 << 31), POOL)
        self.workdir = Path(workdir)

    def seeded(self, i) -> ExperimentConfig:
        """The preset with op ``i``'s seed."""
        return dataclasses.replace(self.preset, seed=self.seeds[i % POOL])

    def prepare(self, i) -> None:
        """Untimed work before op ``i``."""

    def finish(self) -> list:
        return []

    def draws(self, i) -> int:
        return 0

    def host_probe(self) -> float:
        return hostspeed.probe()


class ExactSurvey(Workload):
    """Exact-model parameter study: one random config per op.

    Why: the sweep, fringe fits, analyzer scans and circular components
    exercise qstate, optics, interferometer and analysis; montecarlo,
    datasets and cli do no work, so counting changes should not move it.
    """

    cycle = 4  # op 0 of every cycle uses the 226-step grid
    block_cycles = 1

    def __init__(self, preset, seed, workdir):
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(POOL):
            reflectivity = rng.uniform(0.3, 0.7)
            self.inputs.append(
                {
                    "theta0": rng.uniform(0.05, 0.3),
                    "reflectivity_h": reflectivity,
                    "reflectivity_v": reflectivity + rng.uniform(-0.03, 0.03),
                    "v_d": rng.uniform(0.5, 1.0),
                    "phi_hv_path1": rng.uniform(-0.1, 0.1),
                    "phi_hv_path2": rng.uniform(-0.1, 0.1),
                    "gt_port": rng.choice(interferometer.PORTS),
                    "check_phase": rng.uniform(-22.5, 202.5),
                    "check_blocked": rng.choice(("path1", "path2")),
                }
            )
        self._oracle = None

    def config(self, i) -> ExperimentConfig:
        p = self.inputs[i % POOL]
        return ExperimentConfig(
            rotation=RotationSpec(theta0=p["theta0"]),
            beamsplitter=BeamSplitterSpec(p["reflectivity_h"], p["reflectivity_v"]),
            retarder=RetarderSpec(p["phi_hv_path1"], p["phi_hv_path2"]),
            dephasing=DephasingSpec(v_d=p["v_d"]),
            phase_grid=FINE_GRID if i % self.cycle == 0 else COARSE_GRID,
        )

    def op(self, i):
        config = self.config(i)
        port = self.inputs[i % POOL]["gt_port"]
        result = interferometer.sweep(config)
        fringes = [
            analysis.fit_fringe(*analysis.fringe_series(result, p)) for p in interferometer.PORTS
        ]
        fits = [
            analysis.fit_gt_curve(GT_ANGLES, interferometer.gt_scan(config, port, path, GT_ANGLES))
            for path in (1, 2)
        ]
        compensation = analysis.compensation_angle(*fits)
        srl = [
            analysis.stokes_rl(config, path, p) for path in (1, 2) for p in interferometer.PORTS
        ]
        return config, result, fringes, fits, compensation, srl

    def check(self, i, out) -> list:
        config, result, fringes, fits, compensation, srl = out
        failures = []
        # a2(+)P(+) + a2(-)P(-) = P(H) / reference, and the exit splitter is
        # unitary per polarization, so P(H) = sin^2(theta0) at every phase.
        # For an H/V-symmetric splitter the reference is sin^2(theta0) too
        # and this is the normalization identity (= 1).
        target = math.sin(config.rotation.theta0) ** 2 / result.reference_flip_prob
        worst = max(
            (
                abs(r.a2_plus * r.p_plus + r.a2_minus * r.p_minus - target)
                for r in result.records
                if r.a2_plus is not None and r.a2_minus is not None
            ),
            default=0.0,
        )
        if not worst <= EXACT_TOL:
            failures.append(f"normalization identity residual {worst:.3e}")
        p = self.inputs[i % POOL]
        for blocked in ("none", p["check_blocked"]):
            probs = interferometer.run_once(config, p["check_phase"], blocked)
            oracle = self.oracle().from_config(config, p["check_phase"], blocked)
            diff = max(abs(getattr(probs, key) - oracle[key]) for key in PROB_KEYS)
            if not diff <= EXACT_TOL:
                failures.append(f"blocked={blocked}: oracle difference {diff:.3e}")
        values = [f.visibility for f in fringes] + [f.amplitude for f in fits] + [compensation]
        values += [r.s_rl for r in srl]
        if not all(math.isfinite(v) for v in values):
            failures.append("non-finite fit, compensation or circular component")
        return failures

    def oracle(self):
        """``tests/closedform.py``, loaded read-only from the checkout."""
        if self._oracle is None:
            path = Path(interferometer.__file__).resolve().parents[2] / "tests" / "closedform.py"
            spec = importlib.util.spec_from_file_location("closedform", path)
            self._oracle = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self._oracle)
        return self._oracle


class CountingSeeds(Workload):
    """Acceptance-6 fidelity study plus the ``mc-sweep`` -> ``subtract`` files.

    Why: one seed per op through ``mc_protocol(repeats=10)`` builds 5,040
    Philox streams and a 123-point model table, then writes and reads the
    CSVs the CLI would; stream and draw changes show here.
    """

    cycle = 1
    block_cycles = 4
    repeats = 10

    def __init__(self, preset, seed, workdir):
        super().__init__(preset, seed, workdir)
        self._exact = None
        self._pulls = []

    def run(self, config, workdir):
        result, raw, background = montecarlo.mc_protocol(config, repeats=self.repeats)
        paths = {name: workdir / name for name in PINNED_COUNTING}
        datasets.write_sweep_csv(paths["sweep.csv"], result)
        datasets.write_counts_csv(paths["counts.csv"], raw)
        datasets.write_background_csv(paths["background.csv"], background)
        raw_back = datasets.read_counts_csv(paths["counts.csv"])
        background_back = datasets.read_background_csv(paths["background.csv"])
        index = {(r.run_kind, r.port, r.pol_setting): r for r in background_back}
        corrected = [
            montecarlo.subtract_background(r, index[(r.run_kind, r.port, r.pol_setting)])
            for r in raw_back
        ]
        datasets.write_corrected_csv(paths["corrected.csv"], corrected)
        return result, raw, background, raw_back, background_back

    def op(self, i):
        return self.run(self.seeded(i), self.workdir)

    def check(self, i, out) -> list:
        result, raw, background, raw_back, background_back = out
        failures = []
        if raw_back != raw:
            failures.append("counts CSV read-back differs from the written records")
        if background_back != background:
            failures.append("background CSV read-back differs from the written records")
        if self._exact is None:
            self._exact = interferometer.sweep(self.preset)
        for est, truth in zip(result.records, self._exact.records):
            for key, sigma in PULL_FIELDS:
                if getattr(truth, key) is not None:
                    pull = (getattr(est, key) - getattr(truth, key)) / getattr(est, sigma)
                    self._pulls.append(pull)
        return failures

    def finish(self) -> list:
        failures = []
        if len(self._pulls) >= 2:
            mean = statistics.fmean(self._pulls)
            std = statistics.stdev(self._pulls)
            if not (abs(mean) < 0.3 and 0.7 < std < 1.3):
                failures.append(f"pooled pulls mean {mean:.3f} std {std:.3f} outside the bands")
        pinned = self.workdir / "pinned"
        pinned.mkdir(exist_ok=True)
        self.run(dataclasses.replace(self.preset, seed=PINNED_SEED), pinned)
        found = {name: _digest(pinned / name) for name in PINNED_COUNTING}
        return failures + _digest_failures("counting seed 7", found, PINNED_COUNTING)

    def draws(self, i) -> int:
        return poisson_draws(self.preset, self.repeats, 0)


class BootstrapErrors(Workload):
    """Bootstrapped sigmas: ``mc_protocol(repeats=1, bootstrap_replicates=200)``.

    Why: one stream and about 100,800 draws through the pure-Python
    resampler and re-estimator; stream-keying changes should not move it.
    """

    cycle = 1
    block_cycles = 1
    replicates = 200

    def op(self, i):
        return montecarlo.mc_protocol(
            self.seeded(i), repeats=1, bootstrap_replicates=self.replicates
        )

    def check(self, i, out) -> list:
        boot = out[0].records
        propagated = montecarlo.mc_protocol(self.seeded(i), repeats=1)[0].records
        failures = []
        for key in ESTIMATE_FIELDS:
            if any(getattr(b, key) != getattr(p, key) for b, p in zip(boot, propagated)):
                failures.append(f"{key}: bootstrap run changed the point estimates")
        for key in SIGMA_FIELDS:
            ratio = statistics.median(
                getattr(b, key) / getattr(p, key) for b, p in zip(boot, propagated)
            )
            if not 0.9 <= ratio <= 1.1:
                failures.append(f"{key}: median bootstrap/propagated sigma {ratio:.3f}")
        return failures

    def finish(self) -> list:
        config = dataclasses.replace(self.preset, seed=PINNED_SEED)
        result = montecarlo.mc_protocol(config, repeats=1, bootstrap_replicates=self.replicates)[0]
        path = self.workdir / "pinned_sweep.csv"
        datasets.write_sweep_csv(path, result)
        return _digest_failures("bootstrap seed 7", {"sweep.csv": _digest(path)}, PINNED_BOOTSTRAP)

    def draws(self, i) -> int:
        return poisson_draws(self.preset, 1, self.replicates)


COMMANDS = (
    "sweep",
    "mc-sweep",
    "blocked",
    "visibility",
    "gt-calibrate",
    "srl",
    "background",
    "subtract",
    "figures",
)


class CliCommands(Workload):
    """Each op is one ``pathprobe`` subcommand on ``--config paper``.

    Why: what a CLI user waits for, including interpreter and import
    start-up and the per-command preset resolution.  Ops cycle through the
    nine subcommands; ``subtract`` reads what ``mc-sweep`` wrote in the same
    cycle.  Untraced runs start one subprocess per op; traced runs call
    ``cli.main`` in-process so that spans can be recorded.
    """

    cycle = len(COMMANDS)
    block_cycles = 1
    in_process = False
    # Most of an op is interpreter start-up, which drifts with the host apart
    # from in-process work, so ops are bracketed by the start-up probe.
    probe_reference_ms = hostspeed.START_REFERENCE_MS

    def __init__(self, preset, seed, workdir):
        super().__init__(preset, seed, workdir)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.peak_child_rss_kb = 0
        self._sweep_bytes = None

    def _outputs(self, command) -> dict:
        d = self.workdir
        return {
            "sweep": {"--out": d / "sweep.csv"},
            "mc-sweep": {
                "--out": d / "mc.csv",
                "--counts-out": d / "counts.csv",
                "--background-out": d / "background.csv",
            },
            "blocked": {"--out": d / "blocked.csv"},
            "visibility": {"--out": d / "visibility.json"},
            "gt-calibrate": {"--out": d / "gt.json"},
            "srl": {"--out": d / "srl.json"},
            "background": {"--out": d / "background_sim.csv"},
            "subtract": {"--out": d / "corrected.csv"},
            "figures": {"--out": d / "figures"},
        }[command]

    def argv(self, i) -> list:
        command = COMMANDS[i % self.cycle]
        argv = [command, "--config", "paper"]
        if command in ("mc-sweep", "background"):
            argv += ["--seed", str(self.seeded(i // self.cycle).seed)]
        if command == "subtract":
            argv += ["--raw", str(self.workdir / "counts.csv")]
            argv += ["--background", str(self.workdir / "background.csv")]
        for flag, path in self._outputs(command).items():
            argv += [flag, str(path)]
        return argv

    def prepare(self, i) -> None:
        """Remove the op's output files, so a stale file cannot pass its check."""
        for path in self._outputs(COMMANDS[i % self.cycle]).values():
            if path.is_dir():
                for child in path.iterdir():
                    child.unlink()
            elif path.exists():
                path.unlink()

    def op(self, i):
        argv = self.argv(i)
        if self.in_process:
            return cli.main(argv)
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "pathprobe.cli", *argv],
                cwd=self.workdir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, i, returncode) -> list:
        command = COMMANDS[i % self.cycle]
        if returncode != 0:
            detail = ""
            if not self.in_process:
                detail = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
            return [f"{command} exited {returncode} {detail}".strip()]
        out = self._outputs(command)["--out"]
        if command == "sweep":
            datasets.read_sweep_csv(out)
            if out.read_bytes() != self.expected_sweep_bytes():
                return ["sweep CSV differs from an in-process write_sweep_csv"]
        elif command == "mc-sweep":
            datasets.read_sweep_csv(out)
            datasets.read_counts_csv(self._outputs(command)["--counts-out"])
            datasets.read_background_csv(self._outputs(command)["--background-out"])
        elif command == "blocked":
            datasets.read_blocked_csv(out)
        elif command in ("visibility", "gt-calibrate", "srl"):
            if not isinstance(json.loads(out.read_text()), dict):
                return [f"{command} report is not a JSON object"]
        elif command == "background":
            datasets.read_background_csv(out)
        elif command == "subtract":
            datasets.read_corrected_csv(out)
        elif command == "figures":
            for name, header in datasets.FIGURE_HEADERS.items():
                first = (out / name).read_text().splitlines()[0]
                if tuple(first.split(",")) != header:
                    return [f"figures: {name} has header {first!r}"]
        return []

    def expected_sweep_bytes(self) -> bytes:
        if self._sweep_bytes is None:
            path = self.workdir / "expected_sweep.csv"
            datasets.write_sweep_csv(path, interferometer.sweep(self.preset))
            self._sweep_bytes = path.read_bytes()
        return self._sweep_bytes

    def host_probe(self) -> float:
        return hostspeed.start_probe(self.workdir, timeout=60.0)

    def draws(self, i) -> int:
        command = COMMANDS[i % self.cycle]
        if command == "mc-sweep":
            return poisson_draws(self.preset, 1, 0)
        if command == "background":
            return CHANNELS
        return 0


WORKLOADS = {
    "exact_survey": ExactSurvey,
    "counting_seeds": CountingSeeds,
    "bootstrap_errors": BootstrapErrors,
    "cli_commands": CliCommands,
}
