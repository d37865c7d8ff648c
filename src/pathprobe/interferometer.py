"""Circuit assembly and exact output probabilities for the two-path probe.

The simulated experiment: a V-polarized photon enters one input port of the
entry beam splitter, the two paths apply small opposite polarization
rotations (+theta0 / -theta0), optional residual retarder phases and a
relative phase phi, path coherence is optionally reduced by a dephasing
channel, and the paths recombine on the exit beam splitter.  Each output
port carries an analyzer separating the (compensated) H and V directions.

Port naming: output path 2 is the "+" port (bright fringe at phi = 0) and
output path 1 is the "-" port.  Element order per run:

    entry BS -> blocker -> rotations -> retarders -> phase -> dephasing
    -> exit BS -> analyzers

``blocked`` arguments name the path that is *blocked* ("path1" blocks
path 1, leaving only path 2 open).  Counting datasets elsewhere label runs
by the *open* path instead; ``montecarlo`` documents the mapping.

A photon detected H at a port has had its polarization flipped by the path
rotations; the ratio of that conditional flip probability to the single-path
reference level (the mean of the four blocked-run flip probabilities) is the
squared path weight reported as ``a2_plus`` / ``a2_minus``.  Values above 1
mean the flip probability exceeds what a fully localized photon would show.

The model is one amplitude engine, vectorised over phases.  The photon is a
pure state of four amplitudes, ordered (path 1, H), (path 1, V),
(path 2, H), (path 2, V); the dephasing channel is the mixture of two pure
branches (the state as is, and the state with its path-2 amplitudes
negated), so every outcome probability is a weighted sum of squared
amplitudes.  ``joint_probabilities`` evaluates a whole phase array in one
call; ``run_once``, ``sweep``, ``gt_scan`` and ``reference_flip_probability``
read from it and build their records only at the API edge.

Interfaces use degrees for the interferometer phase and analyzer settings;
``optics`` specs keep their radian fields.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .optics import (
    BeamSplitterSpec,
    DephasingSpec,
    RetarderSpec,
    RotationSpec,
)

PORT_PLUS = "+"
PORT_MINUS = "-"
PORTS = (PORT_PLUS, PORT_MINUS)

BLOCK_LABELS = ("none", "path1", "path2")

# Amplitude index of (output path, H) per port; (output path, V) follows it.
_PORT_BASE = {PORT_MINUS: 0, PORT_PLUS: 2}

_A2_PORT_FLOOR = 1e-9

# Largest mean numpy's Poisson sampler accepts.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - math.sqrt(np.iinfo(np.int64).max) * 10


class UndefinedConditionalError(ValueError):
    """A conditional quantity was requested where its condition has zero weight."""


@dataclass(frozen=True)
class PhaseGrid:
    """Evenly spaced interferometer phases in degrees, endpoints included."""

    start_deg: float = -22.5
    stop_deg: float = 202.5
    steps: int = 41

    def __post_init__(self):
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise ValueError(f"steps out of range: {self.steps!r} (need an int >= 2)")
        if not (math.isfinite(self.start_deg) and math.isfinite(self.stop_deg)):
            raise ValueError("phase grid endpoints must be finite")
        if self.stop_deg <= self.start_deg:
            raise ValueError(f"stop_deg {self.stop_deg} must exceed start_deg {self.start_deg}")

    def phases_deg(self) -> tuple[float, ...]:
        step = (self.stop_deg - self.start_deg) / (self.steps - 1)
        return tuple(self.start_deg + i * step for i in range(self.steps))


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical model plus counting protocol for one experiment.

    ``gt_compensation_plus`` / ``gt_compensation_minus`` are the analyzer
    offset angles per output port, in degrees.  ``photon_rate`` and the dark
    rates are per second, ``duration`` is the length of one counting window
    in seconds.
    """

    rotation: RotationSpec = field(default_factory=RotationSpec)
    beamsplitter: BeamSplitterSpec = field(default_factory=BeamSplitterSpec)
    retarder: RetarderSpec = field(default_factory=RetarderSpec)
    dephasing: DephasingSpec = field(default_factory=DephasingSpec)
    gt_compensation_plus: float = 0.0
    gt_compensation_minus: float = 0.0
    photon_rate: float = 110000.0
    dark_rate_plus: float = 400.0
    dark_rate_minus: float = 800.0
    duration: float = 100.0
    phase_grid: PhaseGrid = field(default_factory=PhaseGrid)
    seed: int = 1

    def __post_init__(self):
        for key in ("gt_compensation_plus", "gt_compensation_minus"):
            value = getattr(self, key)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{key} out of range: {value!r}")
        for key in ("photon_rate", "dark_rate_plus", "dark_rate_minus", "duration"):
            value = getattr(self, key)
            dark = key.startswith("dark")
            finite = isinstance(value, (int, float)) and math.isfinite(value)
            if not (finite and (value >= 0 if dark else value > 0)):
                bound = ">= 0" if dark else "> 0"
                raise ValueError(f"{key} out of range: {value!r} (must be finite and {bound})")
        dark_key = max(("dark_rate_plus", "dark_rate_minus"), key=lambda k: getattr(self, k))
        lam = (self.photon_rate + getattr(self, dark_key)) * self.duration
        if not lam <= _POISSON_LAM_MAX:
            raise ValueError(
                f"Poisson mean (photon_rate + {dark_key}) * duration = {lam:.6g} "
                f"exceeds numpy's limit {_POISSON_LAM_MAX:.6g}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed out of range: {self.seed!r} (must be an int)")

    def dark_rate(self, port: str) -> float:
        _check_port(port)
        return self.dark_rate_plus if port == PORT_PLUS else self.dark_rate_minus

    def gt_compensation(self, port: str) -> float:
        _check_port(port)
        return self.gt_compensation_plus if port == PORT_PLUS else self.gt_compensation_minus


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Joint port/analyzer outcome probabilities for one run.

    The four probabilities sum to ``survival`` (1 unless a path is blocked);
    conditional quantities divide by the port probability.
    """

    p_plus_h: float
    p_plus_v: float
    p_minus_h: float
    p_minus_v: float
    survival: float

    @classmethod
    def from_row(cls, row) -> OutcomeProbabilities:
        """From one ``joint_probabilities`` row of Python floats."""
        return cls(*row, survival=sum(row))

    def port_probability(self, port: str) -> float:
        _check_port(port)
        if port == PORT_PLUS:
            return self.p_plus_h + self.p_plus_v
        return self.p_minus_h + self.p_minus_v


@dataclass(frozen=True)
class DelocalizationRecord:
    """One phase point of a sweep; sigmas are zero for exact-model sweeps.

    ``p_h_given_*`` and ``a2_*`` are None where the conditional quantity is
    undefined (port probability below 1e-9, or a zero reference for a2).
    """

    phase_deg: float
    p_plus: float
    p_minus: float
    p_h_given_plus: float | None
    p_h_given_minus: float | None
    a2_plus: float | None
    a2_minus: float | None
    sigma_p_plus: float = 0.0
    sigma_p_minus: float = 0.0
    sigma_ph_plus: float = 0.0
    sigma_ph_minus: float = 0.0
    sigma_a2_plus: float = 0.0
    sigma_a2_minus: float = 0.0


@dataclass(frozen=True)
class SweepResult:
    """Records in grid order plus the single-path reference used for a2."""

    records: tuple[DelocalizationRecord, ...]
    reference_flip_prob: float
    reference_sigma: float = 0.0

    def __post_init__(self):
        phases = [r.phase_deg for r in self.records]
        if any(b <= a for a, b in zip(phases, phases[1:])):
            raise ValueError("record phases must be strictly increasing")

    def phases_deg(self) -> tuple[float, ...]:
        return tuple(r.phase_deg for r in self.records)


def _check_port(port: str) -> None:
    if port not in PORTS:
        raise ValueError(f"port must be '+' or '-', got {port!r}")


def _check_blocked(blocked: str) -> None:
    if blocked not in BLOCK_LABELS:
        raise ValueError(f"blocked must be one of {BLOCK_LABELS}, got {blocked!r}")


def _check_real(name: str, value) -> None:
    """Finite real number, numpy scalars included; bools are rejected."""
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not (real and math.isfinite(value)):
        raise ValueError(f"{name} out of range: {value!r}")


def _branch_amplitudes(config: ExperimentConfig, phases_deg, blocked: str = "none"):
    """Dephasing-branch weights (2,) and output amplitudes (2, n, 4).

    A V-polarized photon enters path 1.  Branch 0 is the pure state after the
    exit splitter; branch 1 is the same state with the path-2 amplitudes
    negated before the exit splitter.  Their mixture with weights
    ((1 + v_d)/2, (1 - v_d)/2) is the dephasing channel, which scales the
    cross-path coherence by v_d.  Amplitudes along the last axis are
    (path 1, H), (path 1, V), (path 2, H), (path 2, V) at the exit.
    """
    _check_blocked(blocked)
    bs = config.beamsplitter
    c, s = math.cos(config.rotation.theta0), math.sin(config.rotation.theta0)
    # Entry splitter and blocker: the V amplitude in each path.
    v1 = math.sqrt(1.0 - bs.reflectivity_v) if blocked != "path1" else 0.0
    v2 = 1j * math.sqrt(bs.reflectivity_v) if blocked != "path2" else 0.0
    # R(+theta0) in path 1, R(-theta0) in path 2, then the retarders.
    path1 = (-s * v1, c * v1 * cmath.exp(1j * config.retarder.phi_hv_path1))
    path2 = (s * v2, c * v2 * cmath.exp(1j * config.retarder.phi_hv_path2))
    # Phase exp(-i phi) on path 2, with the sign flip of branch 1.
    z = np.exp(-1j * np.radians(np.asarray(phases_deg, dtype=float)))
    z = np.stack((z, -z))
    out = np.empty(z.shape + (4,), dtype=complex)
    for pol, r in ((0, bs.reflectivity_h), (1, bs.reflectivity_v)):
        t, rr = math.sqrt(1.0 - r), 1j * math.sqrt(r)
        a2 = path2[pol] * z
        out[..., pol] = t * path1[pol] + rr * a2
        out[..., 2 + pol] = rr * path1[pol] + t * a2
    v_d = config.dephasing.v_d
    return np.array(((1.0 + v_d) / 2.0, (1.0 - v_d) / 2.0)), out


def _port_probabilities(weights, amps, port: str, analyzer_deg):
    """Joint probabilities (H, V) at a port along the analyzer axes.

    The H-transmitting axis at angle delta is cos|H> + sin|V>, the V axis
    its orthogonal complement.  ``analyzer_deg`` broadcasts against the
    phase axis of ``amps``.
    """
    base = _PORT_BASE[port]
    d = np.radians(np.asarray(analyzer_deg, dtype=float))
    cos, sin = np.cos(d), np.sin(d)
    amp_h, amp_v = amps[..., base], amps[..., base + 1]
    out = []
    for a in (cos * amp_h + sin * amp_v, cos * amp_v - sin * amp_h):
        sq = a.real**2 + a.imag**2
        out.append(weights[0] * sq[0] + weights[1] * sq[1])
    return out


def joint_probabilities(
    config: ExperimentConfig,
    phases_deg,
    blocked: str = "none",
    analyzer_plus_deg=None,
    analyzer_minus_deg=None,
) -> np.ndarray:
    """Exact joint outcome probabilities over an array of phases.

    Returns an (n, 4) array with columns P(+, H), P(+, V), P(-, H),
    P(-, V); a row sums to the survival probability (1 unless a path is
    blocked).  Analyzer angles default to the per-port compensation angles
    of the config and may be arrays that broadcast against the phases.
    """
    phases = np.asarray(phases_deg, dtype=float)
    if phases.ndim != 1 or not np.all(np.isfinite(phases)):
        raise ValueError("phases_deg must be a 1-d array of finite angles")
    d_plus = config.gt_compensation_plus if analyzer_plus_deg is None else analyzer_plus_deg
    d_minus = config.gt_compensation_minus if analyzer_minus_deg is None else analyzer_minus_deg
    weights, amps = _branch_amplitudes(config, phases, blocked)
    columns = _port_probabilities(weights, amps, PORT_PLUS, d_plus)
    columns += _port_probabilities(weights, amps, PORT_MINUS, d_minus)
    # rounding can lift a near-certain outcome an ulp above 1
    return np.minimum(np.stack(np.broadcast_arrays(*columns), axis=-1), 1.0)


def final_state(config: ExperimentConfig, phase_deg: float, blocked: str = "none") -> np.ndarray:
    """Density operator just after the exit beam splitter, from the engine.

    The branch mixture sum_b w_b |psi_b><psi_b| in the amplitude order
    above; subnormalized when a path is blocked, with the survival
    probability as its trace.  No model path needs it; it exposes the state
    for inspection.
    """
    _check_real("phase_deg", phase_deg)
    weights, amps = _branch_amplitudes(config, (float(phase_deg),), blocked)
    psi = amps[:, 0]
    return np.einsum("b,bi,bj->ij", weights, psi, psi.conj())


def run_once(
    config: ExperimentConfig,
    phase_deg: float,
    blocked: str = "none",
    analyzer_plus_deg: float | None = None,
    analyzer_minus_deg: float | None = None,
) -> OutcomeProbabilities:
    """Exact outcome probabilities of one run at one phase.

    Analyzer angles default to the per-port compensation angles of the
    config; passing explicit values supports analyzer-angle scans.  Angles
    may be any finite real number, numpy scalars included.
    """
    _check_real("phase_deg", phase_deg)
    for name, value in (
        ("analyzer_plus_deg", analyzer_plus_deg),
        ("analyzer_minus_deg", analyzer_minus_deg),
    ):
        if value is not None:
            _check_real(name, value)
    row = joint_probabilities(
        config, (float(phase_deg),), blocked, analyzer_plus_deg, analyzer_minus_deg
    )[0]
    return OutcomeProbabilities.from_row(row.tolist())


def conditional_flip_probability(probs: OutcomeProbabilities, port: str) -> float:
    """P(H | port): probability that a photon at the port was flipped to H."""
    _check_port(port)
    total = probs.port_probability(port)
    if total <= 0.0:
        raise UndefinedConditionalError(f"port {port} has zero probability")
    p_h = probs.p_plus_h if port == PORT_PLUS else probs.p_minus_h
    return p_h / total


def reference_flip_probability(config: ExperimentConfig) -> float:
    """Mean of the four blocked-run conditional flip probabilities.

    Blocked runs are phase independent, so the mean is over
    (open path in {1, 2}) x (port in {+, -}) at phi = 0.  Equals
    sin^2(theta0) exactly for a polarization-independent beam splitter with
    zero compensation angles.
    """
    values = []
    for blocked in ("path1", "path2"):
        row = joint_probabilities(config, (0.0,), blocked)[0].tolist()
        probs = OutcomeProbabilities.from_row(row)
        for port in PORTS:
            values.append(conditional_flip_probability(probs, port))
    return sum(values) / len(values)


def normalization_residual(a2_plus: float, p_plus: float, a2_minus: float, p_minus: float) -> float:
    """a2(+)*P(+) + a2(-)*P(-) - 1; zero when the port-weighted ratios close."""
    for name, value in (("p_plus", p_plus), ("p_minus", p_minus)):
        if not (isinstance(value, (int, float)) and -qstate.ATOL <= value <= 1.0 + qstate.ATOL):
            raise ValueError(f"{name} out of range: {value!r}")
    for name, value in (("a2_plus", a2_plus), ("a2_minus", a2_minus)):
        if not (isinstance(value, (int, float)) and value >= 0.0):
            raise ValueError(f"{name} out of range: {value!r}")
    return a2_plus * p_plus + a2_minus * p_minus - 1.0


def weak_a_squared(path_state, projector) -> float:
    """Squared path-sign value conditioned on a post-selected outcome.

    Tr(E S rho S) / Tr(E rho) with S = diag(1, -1) on the 2-dim path space
    and E the post-selection projector.
    """
    rho = qstate.validate_density(path_state)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 path state, got shape {rho.shape}")
    e = np.asarray(projector, dtype=complex)
    if e.shape != (2, 2) or not qstate.is_projector(e):
        raise ValueError("post-selection operator must be a 2x2 projector")
    weight = float(np.trace(e @ rho).real)
    if weight <= 0.0:
        raise UndefinedConditionalError("post-selected outcome has zero probability")
    s = np.diag([1.0, -1.0])
    return float(np.trace(e @ s @ rho @ s).real) / weight


def counterfactual_ratio(p: float) -> float:
    """(1 - p) / p for an outcome probability p in (0, 1]."""
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        raise ValueError(f"p out of range: {p!r} (must be in [0, 1])")
    if p == 0.0:
        raise UndefinedConditionalError("outcome probability 0 leaves the ratio undefined")
    return (1.0 - p) / p


def _record(phase_deg: float, row, reference: float) -> DelocalizationRecord:
    fields: dict[str, float | None] = {}
    for key, p_h, p_v in (("plus", row[0], row[1]), ("minus", row[2], row[3])):
        total = p_h + p_v
        fields[f"p_{key}"] = total
        if total < _A2_PORT_FLOOR:
            fields[f"p_h_given_{key}"] = None
            fields[f"a2_{key}"] = None
            continue
        flip = p_h / total
        fields[f"p_h_given_{key}"] = flip
        fields[f"a2_{key}"] = flip / reference if reference > 0.0 else None
    return DelocalizationRecord(phase_deg=phase_deg, **fields)


def sweep(config: ExperimentConfig) -> SweepResult:
    """Exact-model sweep over the config's phase grid, in grid order."""
    reference = reference_flip_probability(config)
    phases = config.phase_grid.phases_deg()
    table = joint_probabilities(config, phases).tolist()
    records = tuple(_record(phase, row, reference) for phase, row in zip(phases, table))
    return SweepResult(records=records, reference_flip_prob=reference)


def gt_scan(
    config: ExperimentConfig, port: str, open_path: int, analyzer_degs
) -> np.ndarray:
    """Blocked-run detection probability along a scanned analyzer axis.

    Returns P(transmitted | port) for each analyzer angle (degrees) with only
    ``open_path`` open.  The denominator is the port probability, so the
    curve is the Malus-type response the port's analyzer calibration uses.
    """
    _check_port(port)
    if open_path not in (1, 2):
        raise ValueError(f"open_path must be 1 or 2, got {open_path!r}")
    degs = np.asarray(analyzer_degs, dtype=float)
    if not np.all(np.isfinite(degs)):
        raise ValueError("analyzer angles must be finite")
    blocked = "path2" if open_path == 1 else "path1"
    weights, amps = _branch_amplitudes(config, (0.0,), blocked)
    p_h, p_v = _port_probabilities(weights, amps, port, degs)
    port_total = p_h + p_v
    if np.any(port_total <= 0.0):
        raise UndefinedConditionalError(f"port {port} has zero probability")
    return p_h / port_total
