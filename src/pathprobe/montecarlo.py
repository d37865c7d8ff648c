"""Photon-counting simulation with background subtraction.

Counting runs come in three kinds named after what is *open*:
"interference" (both paths), "path1" (only path 1 open, path 2 blocked)
and "path2" (only path 2 open).  This is the opposite convention from the
``blocked`` labels in ``interferometer``, which name the blocked path;
``_BLOCKED_FOR_KIND`` holds the mapping.

Each (kind, port, polarizer setting) channel gets one raw Poisson count per
phase plus one source-blocked background count.  Rates are background
subtracted, never clamped, and carry propagated one-sigma uncertainties;
an optional parametric bootstrap replaces the first-order sigmas.

Every counting window uses its own counter-based Philox stream keyed by
the config seed and the channel coordinates, so results are reproducible
and independent of evaluation order.  One bit generator is re-keyed per
window (``_keyed_poisson``) instead of constructing a generator per window;
the keys and the draws are those of ``RandomStream.generator``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import interferometer
from .interferometer import DelocalizationRecord, ExperimentConfig, SweepResult

KINDS = ("interference", "path1", "path2")
POL_SETTINGS = ("H", "V")

_BLOCKED_FOR_KIND = {"interference": "none", "path1": "path2", "path2": "path1"}
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}
_PORT_INDEX = {interferometer.PORT_PLUS: 0, interferometer.PORT_MINUS: 1}
_SETTING_INDEX = {"H": 0, "V": 1}
_PURPOSE_INDEX = {"raw": 0, "background": 1}
_MASK64 = (1 << 64) - 1
_COORD_BITS = 20
_BOOTSTRAP_STREAM_ID = 1 << 62
# (kind, port, setting) in the order of the raw and background records
_CHANNELS = tuple(itertools.product(KINDS, interferometer.PORTS, POL_SETTINGS))


@dataclass(frozen=True)
class RandomStream:
    """One independent Philox stream, keyed by (seed, stream id)."""

    seed: int
    stream_id: int

    def __post_init__(self):
        for key in ("seed", "stream_id"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{key} out of range: {value!r}")

    def generator(self) -> np.random.Generator:
        key = ((self.stream_id & _MASK64) << 64) | (self.seed & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_for(
    seed: int,
    kind: str,
    port: str,
    setting: str,
    phase_index: int = 0,
    repeat: int = 0,
    purpose: str = "raw",
) -> RandomStream:
    """Stream for one Poisson draw, unique per channel coordinate."""
    if kind not in _KIND_INDEX:
        raise ValueError(f"run_kind out of range: {kind!r}")
    if port not in _PORT_INDEX:
        raise ValueError(f"port out of range: {port!r}")
    if setting not in _SETTING_INDEX:
        raise ValueError(f"pol_setting out of range: {setting!r}")
    if purpose not in _PURPOSE_INDEX:
        raise ValueError(f"purpose out of range: {purpose!r}")
    for key, value in (("phase_index", phase_index), ("repeat", repeat)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} out of range: {value!r}")
        if not 0 <= value < (1 << _COORD_BITS):
            raise ValueError(f"{key} out of range: {value!r}")
    sid = _KIND_INDEX[kind]
    sid = sid * 2 + _PORT_INDEX[port]
    sid = sid * 2 + _SETTING_INDEX[setting]
    sid = sid * 2 + _PURPOSE_INDEX[purpose]
    sid = (sid << _COORD_BITS) + phase_index
    sid = (sid << _COORD_BITS) + repeat
    return RandomStream(seed=seed, stream_id=sid)


def _keyed_poisson(seed: int, stream_ids, lams) -> list[int]:
    """One Poisson draw per (stream id, mean), each from its own Philox stream.

    Draw k equals ``RandomStream(seed, stream_ids[k]).generator().poisson(lams[k])``.
    One bit generator is re-keyed per draw to the state ``Philox(key=...)``
    starts from (key words (seed, stream id), counter 0, empty buffer), which
    skips the constructor's entropy gathering and lock for every window.
    """
    bit_generator = np.random.Philox(key=0)
    poisson = np.random.Generator(bit_generator).poisson
    state = bit_generator.state  # a fresh copy: counter 0, empty buffer
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    draws = []
    for sid, lam in zip(stream_ids, lams):
        key[1] = sid & _MASK64
        bit_generator.state = state
        draws.append(int(poisson(lam)))
    return draws


def _window_counts(seed: int, base: int, lams, repeats: int) -> list[int]:
    """Entry i sums over repeats r a Poisson(lams[i]) draw from stream
    ``base + (i << _COORD_BITS) + r``: the ``stream_for`` id of phase index i
    and repeat r when ``base`` is the channel's id at phase index 0, repeat 0."""
    stream_ids = [base + (i << _COORD_BITS) + r for i in range(len(lams)) for r in range(repeats)]
    draws = _keyed_poisson(seed, stream_ids, [lam for lam in lams for _ in range(repeats)])
    return [sum(draws[j : j + repeats]) for j in range(0, len(draws), repeats)]


@dataclass(frozen=True)
class CountRecord:
    """Detector counts for one channel.

    ``run_kind`` is "interference", "path1" or "path2" for raw counting
    runs (named after the open path) and may also be "background" for a
    source-blocked measurement not tied to one run kind.  ``phase_deg`` is
    0 by convention for background rows.
    """

    run_kind: str
    port: str
    pol_setting: str
    phase_deg: float
    counts: int
    duration: float

    def __post_init__(self):
        if self.run_kind not in KINDS + ("background",):
            raise ValueError(f"run_kind out of range: {self.run_kind!r}")
        if self.port not in _PORT_INDEX:
            raise ValueError(f"port out of range: {self.port!r}")
        if self.pol_setting not in _SETTING_INDEX:
            raise ValueError(f"pol_setting out of range: {self.pol_setting!r}")
        if not isinstance(self.counts, int) or isinstance(self.counts, bool) or self.counts < 0:
            raise ValueError(f"counts out of range: {self.counts!r}")
        if not (
            isinstance(self.duration, (int, float))
            and self.duration > 0
            and math.isfinite(self.duration)
        ):
            raise ValueError(f"duration out of range: {self.duration!r}")
        if not (isinstance(self.phase_deg, (int, float)) and math.isfinite(self.phase_deg)):
            raise ValueError(f"phase_deg out of range: {self.phase_deg!r}")


@dataclass(frozen=True)
class CorrectedRate:
    """Background-subtracted rate with a one-sigma uncertainty."""

    run_kind: str
    port: str
    pol_setting: str
    phase_deg: float
    rate: float
    sigma: float


def simulate_background_table(config: ExperimentConfig, repeats: int = 1) -> tuple:
    """Source-blocked counts for all twelve channels, summed over repeats."""
    _validate_repeats(repeats)
    records = []
    for kind, port, setting in _CHANNELS:
        base = stream_for(config.seed, kind, port, setting, purpose="background").stream_id
        (counts,) = _window_counts(
            config.seed, base, [config.dark_rate(port) * config.duration], repeats
        )
        records.append(
            CountRecord(
                run_kind=kind,
                port=port,
                pol_setting=setting,
                phase_deg=0.0,
                counts=counts,
                duration=config.duration * repeats,
            )
        )
    return tuple(records)


def subtract_background(raw: CountRecord, background: CountRecord) -> CorrectedRate:
    """rate = raw/T_raw - bg/T_bg with counting-statistics sigma.

    The corrected rate is left unclamped, so it can go negative when the
    background fluctuates above a weak signal.
    """
    if raw.run_kind == "background":
        raise ValueError("raw record has run_kind 'background'")
    if background.run_kind not in (raw.run_kind, "background"):
        raise ValueError(
            f"background run_kind {background.run_kind!r} does not match {raw.run_kind!r}"
        )
    if (raw.port, raw.pol_setting) != (background.port, background.pol_setting):
        raise ValueError("background channel does not match the raw channel")
    rate = raw.counts / raw.duration - background.counts / background.duration
    sigma = math.sqrt(raw.counts / raw.duration**2 + background.counts / background.duration**2)
    return CorrectedRate(
        run_kind=raw.run_kind,
        port=raw.port,
        pol_setting=raw.pol_setting,
        phase_deg=raw.phase_deg,
        rate=rate,
        sigma=sigma,
    )


def estimate_probabilities(h_rate: CorrectedRate, v_rate: CorrectedRate) -> tuple[float, float]:
    """(p, sigma) for p = rate_H / (rate_H + rate_V) from corrected rates."""
    return _ratio_probability(h_rate.rate, h_rate.sigma**2, v_rate.rate, v_rate.sigma**2)


def _ratio_probability(num_rate, num_var, den_rate, den_var):
    total = num_rate + den_rate
    if total <= 0.0:
        raise ValueError(f"total corrected rate is not positive: {total!r}")
    p = num_rate / total
    var = (den_rate**2 * num_var + num_rate**2 * den_var) / total**4
    return p, math.sqrt(var)


def _validate_repeats(repeats):
    if not isinstance(repeats, int) or isinstance(repeats, bool) or repeats < 1:
        raise ValueError(f"repeats out of range: {repeats!r}")
    # the last repeat index must fit its field of the stream id
    if repeats > 1 << _COORD_BITS:
        raise ValueError(f"repeat out of range: {repeats - 1!r} (repeats = {repeats})")


def _check_poisson_means(config, repeats, bootstrap_replicates, table_index):
    """Reject, before any draw, a Poisson mean beyond numpy's limit.

    A replayed background row's rate is its channel's dark rate in the raw
    draws.  The bootstrap redraws each raw count summed over repeats, so with
    it that sum's mean is bounded too.
    """
    limit = interferometer._POISSON_LAM_MAX
    dark = max(config.dark_rate_plus, config.dark_rate_minus)
    for key, row in table_index.items():
        rate = row.counts / row.duration
        lam = (config.photon_rate + rate) * config.duration
        if not lam <= limit:
            raise ValueError(
                f"background_table row {key!r}: Poisson mean (photon_rate + counts/duration)"
                f" * duration = {lam:.6g} exceeds numpy's limit {limit:.6g}"
            )
        dark = max(dark, rate)
    lam = repeats * (config.photon_rate + dark) * config.duration
    if bootstrap_replicates > 0 and not lam <= limit:
        raise ValueError(
            f"repeats = {repeats}: bootstrap Poisson mean repeats * (photon_rate + largest"
            f" dark rate) * duration = {lam:.6g} exceeds numpy's limit {limit:.6g}"
        )


def _background_index(table):
    index = {}
    for record in table:
        if record.run_kind == "background":
            raise ValueError("table rows must name their run kind, not 'background'")
        key = (record.run_kind, record.port, record.pol_setting)
        if key in index:
            raise ValueError(f"duplicate background row for {key!r}")
        index[key] = record
    return index


def _pooled_channel_rate(corrected, kind, port, setting, n_phases):
    """Phase-averaged corrected rate of one blocked channel.

    Blocked-run rates carry no phase dependence, so the raw counts pool
    across the grid; the background record is shared by every phase of the
    channel and therefore enters the pooled rate (and its variance) once.
    """
    entries = [corrected[(kind, port, setting, i)] for i in range(n_phases)]
    raw_total = sum(e._raw_counts for e in entries)
    raw_duration = sum(e._raw_duration for e in entries)
    bg = entries[0]
    rate = raw_total / raw_duration - bg._bg_counts / bg._bg_duration
    var = raw_total / raw_duration**2 + bg._bg_counts / bg._bg_duration**2
    return rate, var


def _pipeline_estimates(corrected, n_phases):
    """Reference pool plus per-phase estimates from one corrected-rate table.

    Returns (reference, reference_sigma, rows) where each row is
    (p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus).  The reference
    averages one phase-pooled flip estimate per blocked channel; the four
    channel estimates use disjoint counts, so their errors add in
    quadrature.
    """
    reference_estimates = []
    for kind in ("path1", "path2"):
        for port in interferometer.PORTS:
            h_rate, h_var = _pooled_channel_rate(corrected, kind, port, "H", n_phases)
            v_rate, v_var = _pooled_channel_rate(corrected, kind, port, "V", n_phases)
            reference_estimates.append(_ratio_probability(h_rate, h_var, v_rate, v_var))
    reference = sum(p for p, _ in reference_estimates) / len(reference_estimates)
    reference_sigma = math.sqrt(
        sum(s**2 for _, s in reference_estimates)
    ) / len(reference_estimates)

    rows = []
    for i in range(n_phases):
        plus_h = corrected[("interference", interferometer.PORT_PLUS, "H", i)]
        plus_v = corrected[("interference", interferometer.PORT_PLUS, "V", i)]
        minus_h = corrected[("interference", interferometer.PORT_MINUS, "H", i)]
        minus_v = corrected[("interference", interferometer.PORT_MINUS, "V", i)]
        p_h_plus, s_h_plus = estimate_probabilities(plus_h, plus_v)
        p_h_minus, s_h_minus = estimate_probabilities(minus_h, minus_v)
        p_plus, s_p = _ratio_probability(
            plus_h.rate + plus_v.rate,
            plus_h.sigma**2 + plus_v.sigma**2,
            minus_h.rate + minus_v.rate,
            minus_h.sigma**2 + minus_v.sigma**2,
        )
        rows.append((p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus))
    return reference, reference_sigma, rows


def _resample_corrected(corrected, gen):
    """Parametric bootstrap replicate of the whole counting run.

    Raw counts are redrawn per record; each channel's background is redrawn
    once and shared across its phases, exactly as in the real protocol.
    """
    resampled = {}
    channel_bg = {}
    for key, rate in sorted(corrected.items()):
        channel = key[:3]
        if channel not in channel_bg:
            channel_bg[channel] = int(gen.poisson(max(rate._bg_counts, 0)))
        bg_star = channel_bg[channel]
        raw_star = int(gen.poisson(max(rate._raw_counts, 0)))
        new_rate = raw_star / rate._raw_duration - bg_star / rate._bg_duration
        sigma = math.sqrt(
            raw_star / rate._raw_duration**2 + bg_star / rate._bg_duration**2
        )
        resampled[key] = _TracedRate(
            run_kind=rate.run_kind,
            port=rate.port,
            pol_setting=rate.pol_setting,
            phase_deg=rate.phase_deg,
            rate=new_rate,
            sigma=sigma,
            _raw_counts=raw_star,
            _raw_duration=rate._raw_duration,
            _bg_counts=bg_star,
            _bg_duration=rate._bg_duration,
        )
    return resampled


@dataclass(frozen=True)
class _TracedRate(CorrectedRate):
    """Corrected rate that remembers its raw ingredients for resampling."""

    _raw_counts: int = 0
    _raw_duration: float = 1.0
    _bg_counts: int = 0
    _bg_duration: float = 1.0


def mc_protocol(
    config: ExperimentConfig,
    repeats: int = 1,
    background_table=None,
    bootstrap_replicates: int = 0,
):
    """Full counting protocol over the configured phase grid.

    Runs all three kinds through every (port, setting) channel, subtracts
    backgrounds, and assembles a ``SweepResult`` whose reference flip
    probability is pooled over both single-path kinds, both ports and all
    phases.  Returns (sweep_result, raw_count_records, background_records).

    ``background_table`` optionally replays measured source-blocked counts;
    channels present in the table use the table rate as the true background
    rate for the raw draws, so subtraction stays unbiased.  With
    ``bootstrap_replicates`` > 0 the first-order sigmas are replaced by
    sample deviations over that many parametric count resamples.  Window
    indices beyond the stream-id layout and Poisson means beyond numpy's limit
    raise ``ValueError`` before any draw.
    """
    _validate_repeats(repeats)
    if not isinstance(bootstrap_replicates, int) or isinstance(bootstrap_replicates, bool):
        raise ValueError(f"bootstrap_replicates out of range: {bootstrap_replicates!r}")
    if bootstrap_replicates < 0:
        raise ValueError(f"bootstrap_replicates out of range: {bootstrap_replicates!r}")
    # the last phase index must fit its field of the stream id
    steps = config.phase_grid.steps
    if steps > 1 << _COORD_BITS:
        raise ValueError(f"phase_index out of range: {steps - 1!r} (phase_grid.steps = {steps})")
    table_index = _background_index(background_table) if background_table is not None else {}
    _check_poisson_means(config, repeats, bootstrap_replicates, table_index)

    phases = config.phase_grid.phases_deg()
    model = {
        kind: interferometer.joint_probabilities(config, phases, _BLOCKED_FOR_KIND[kind])
        for kind in KINDS
    }
    # Windows are keyed one by one, so drawing the replaced rows too changes no count.
    background_records = tuple(
        table_index.get(channel, simulated)
        for channel, simulated in zip(_CHANNELS, simulate_background_table(config, repeats))
    )

    raw_records = []
    corrected = {}
    for (kind, port, setting), background in zip(_CHANNELS, background_records):
        row = table_index.get((kind, port, setting))
        dark = config.dark_rate(port) if row is None else row.counts / row.duration
        # model columns: (+, H), (+, V), (-, H), (-, V)
        column = 2 * _PORT_INDEX[port] + _SETTING_INDEX[setting]
        lams = [
            (config.photon_rate * joint + dark) * config.duration
            for joint in model[kind][:, column].tolist()
        ]
        base = stream_for(config.seed, kind, port, setting).stream_id
        counts = _window_counts(config.seed, base, lams, repeats)
        for i, phase in enumerate(phases):
            raw = CountRecord(
                run_kind=kind,
                port=port,
                pol_setting=setting,
                phase_deg=phase,
                counts=counts[i],
                duration=config.duration * repeats,
            )
            raw_records.append(raw)
            base_rate = subtract_background(raw, background)
            corrected[(kind, port, setting, i)] = _TracedRate(
                run_kind=base_rate.run_kind,
                port=base_rate.port,
                pol_setting=base_rate.pol_setting,
                phase_deg=base_rate.phase_deg,
                rate=base_rate.rate,
                sigma=base_rate.sigma,
                _raw_counts=raw.counts,
                _raw_duration=raw.duration,
                _bg_counts=background.counts,
                _bg_duration=background.duration,
            )

    reference, reference_sigma, rows = _pipeline_estimates(corrected, len(phases))

    if bootstrap_replicates > 0:
        gen = RandomStream(config.seed, _BOOTSTRAP_STREAM_ID).generator()
        ref_samples = []
        row_samples = []
        for _ in range(bootstrap_replicates):
            ref_b, _, rows_b = _pipeline_estimates(_resample_corrected(corrected, gen), len(phases))
            ref_samples.append(ref_b)
            row_samples.append(rows_b)
        reference_sigma = float(np.std(ref_samples, ddof=1))
        values = np.asarray(row_samples)
        s_p_boot = np.std(values[:, :, 0], axis=0, ddof=1)
        s_h_plus_boot = np.std(values[:, :, 2], axis=0, ddof=1)
        s_h_minus_boot = np.std(values[:, :, 4], axis=0, ddof=1)
        rows = [
            (row[0], float(s_p_boot[i]), row[2], float(s_h_plus_boot[i]), row[4], float(s_h_minus_boot[i]))
            for i, row in enumerate(rows)
        ]

    records = []
    for i, phase in enumerate(phases):
        p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus = rows[i]
        a2_plus = p_h_plus / reference
        a2_minus = p_h_minus / reference
        s_a2_plus = math.sqrt(
            (s_h_plus / reference) ** 2 + (p_h_plus * reference_sigma / reference**2) ** 2
        )
        s_a2_minus = math.sqrt(
            (s_h_minus / reference) ** 2 + (p_h_minus * reference_sigma / reference**2) ** 2
        )
        records.append(
            DelocalizationRecord(
                phase_deg=phase,
                p_plus=p_plus,
                p_minus=1.0 - p_plus,
                p_h_given_plus=p_h_plus,
                p_h_given_minus=p_h_minus,
                a2_plus=a2_plus,
                a2_minus=a2_minus,
                sigma_p_plus=s_p,
                sigma_p_minus=s_p,
                sigma_ph_plus=s_h_plus,
                sigma_ph_minus=s_h_minus,
                sigma_a2_plus=s_a2_plus,
                sigma_a2_minus=s_a2_minus,
            )
        )

    sweep_result = SweepResult(
        records=tuple(records),
        reference_flip_prob=reference,
        reference_sigma=reference_sigma,
    )
    return sweep_result, tuple(raw_records), tuple(background_records)


def mc_sweep(
    config: ExperimentConfig,
    repeats: int = 1,
    background_table=None,
    bootstrap_replicates: int = 0,
) -> SweepResult:
    """Counting-statistics sweep; the SweepResult half of ``mc_protocol``."""
    return mc_protocol(config, repeats, background_table, bootstrap_replicates)[0]
