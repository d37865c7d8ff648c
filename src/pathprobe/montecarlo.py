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

The bootstrap draws from one stream of its own, one ``poisson`` call per
replicate over every observed count: channels in ``_CHANNELS`` order (kind,
then port, then setting), each channel's background count and then its raw
counts at phases 0 ... n-1.  The background is drawn once per channel and
shared by its phases, as one measured background row is in the real
subtraction.
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


def _background_index(table, accept_shared=False):
    """Background rows keyed by (run kind, port, setting).  A replayed table
    needs a row per run kind; rows shared by every kind, with run kind
    "background", are accepted only with ``accept_shared``."""
    index = {}
    for record in table:
        if record.run_kind == "background" and not accept_shared:
            raise ValueError("table rows must name their run kind, not 'background'")
        key = (record.run_kind, record.port, record.pol_setting)
        if key in index:
            raise ValueError(f"duplicate background row for {key!r}")
        index[key] = record
    return index


def _corrected_rates(counts, duration, bg_durations):
    """Rates and sigmas of the raw windows of ``counts``, one row per channel
    in ``_CHANNELS`` order, each [background, raw phase 0 ... n-1].  The float
    operations are those of ``subtract_background``, with durations squared
    as Python floats, so each entry equals that of its record."""
    raw = counts[:, 1:]
    bg = counts[:, :1]
    bg_duration = np.array(bg_durations)[:, None]
    bg_duration_sq = np.array([d**2 for d in bg_durations])[:, None]
    rates = raw / duration - bg / bg_duration
    sigmas = np.sqrt(raw / duration**2 + bg / bg_duration_sq)
    return rates, sigmas


# _CHANNELS index of the H channel of each reference pool; its V channel follows it
_POOLS = tuple(
    (_CHANNELS.index((kind, port, "H")), kind, port)
    for kind in ("path1", "path2")
    for port in interferometer.PORTS
)


def _pipeline_estimates(counts, rates, sigmas, durations, phases):
    """Reference pool plus per-phase estimates of one counting run.

    Per channel in ``_CHANNELS`` order, ``counts`` holds the int counts
    [background, raw phase 0 ... n-1] and ``rates`` and ``sigmas`` the
    corrected rate and sigma of each raw window, as Python numbers.
    ``durations`` is (raw duration summed over the phases, background
    duration per channel).  Returns (reference, reference_sigma, rows) where
    each row is (p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus).

    The reference averages one flip estimate per blocked (kind, port).
    Blocked-run rates carry no phase dependence, so the raw counts pool
    across the grid; the background record is shared by every phase of the
    channel and therefore enters the pooled rate (and its variance) once.
    The four pooled estimates use disjoint counts, so their errors add in
    quadrature.  A total corrected rate that is not positive raises
    ``ValueError`` naming the estimate, run kind, port(s) and phase.
    """
    pool_duration, bg_durations = durations
    reference_estimates = []
    for h, kind, port in _POOLS:
        pooled = []
        for c in (h, h + 1):
            bg = counts[c][0]
            raw_total = sum(counts[c]) - bg
            pooled.append(raw_total / pool_duration - bg / bg_durations[c])
            pooled.append(raw_total / pool_duration**2 + bg / bg_durations[c] ** 2)
        try:
            reference_estimates.append(_ratio_probability(*pooled))
        except ValueError as exc:
            raise ValueError(
                f"{exc} in the reference pool of the {kind} run, port {port!r}"
            ) from None
    reference = sum(p for p, _ in reference_estimates) / len(reference_estimates)
    reference_sigma = math.sqrt(
        sum(s**2 for _, s in reference_estimates)
    ) / len(reference_estimates)

    rows = []
    # the interference channels (+, H), (+, V), (-, H), (-, V) lead _CHANNELS
    windows = enumerate(zip(*rates[:4], *sigmas[:4]))
    try:
        for i, (hp, vp, hm, vm, s_hp, s_vp, s_hm, s_vm) in windows:
            estimate = "p(H|+) of the interference run, port '+'"
            p_h_plus, s_h_plus = _ratio_probability(hp, s_hp**2, vp, s_vp**2)
            estimate = "p(H|-) of the interference run, port '-'"
            p_h_minus, s_h_minus = _ratio_probability(hm, s_hm**2, vm, s_vm**2)
            estimate = "p(+) of the interference run, ports '+' and '-'"
            p_plus, s_p = _ratio_probability(
                hp + vp, s_hp**2 + s_vp**2, hm + vm, s_hm**2 + s_vm**2
            )
            rows.append((p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus))
    except ValueError as exc:
        raise ValueError(f"{exc} in {estimate}, at phase {phases[i]!r} deg (index {i})") from None
    return reference, reference_sigma, rows


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

    duration = config.duration * repeats
    raw_records = []
    counts = []  # per channel: [background, raw phase 0 ... n-1]
    rates = []
    sigmas = []
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
        channel_counts = _window_counts(config.seed, base, lams, repeats)
        counts.append([background.counts, *channel_counts])
        rates.append([])
        sigmas.append([])
        for phase, observed in zip(phases, channel_counts):
            raw = CountRecord(
                run_kind=kind,
                port=port,
                pol_setting=setting,
                phase_deg=phase,
                counts=observed,
                duration=duration,
            )
            raw_records.append(raw)
            corrected = subtract_background(raw, background)
            rates[-1].append(corrected.rate)
            sigmas[-1].append(corrected.sigma)

    bg_durations = [record.duration for record in background_records]
    durations = (sum([duration] * len(phases)), bg_durations)
    reference, reference_sigma, rows = _pipeline_estimates(counts, rates, sigmas, durations, phases)

    if bootstrap_replicates > 0:
        # Each replicate redraws every observed count, background included,
        # in one call: channels in _CHANNELS order, each [background, phases].
        means = np.array(counts, dtype=np.float64)
        gen = RandomStream(config.seed, _BOOTSTRAP_STREAM_ID).generator()
        ref_samples = []
        row_samples = []
        for replicate in range(bootstrap_replicates):
            draws = gen.poisson(means)
            rates_b, sigmas_b = _corrected_rates(draws, duration, bg_durations)
            try:
                ref_b, _, rows_b = _pipeline_estimates(
                    draws.tolist(), rates_b.tolist(), sigmas_b.tolist(), durations, phases
                )
            except ValueError as exc:
                raise ValueError(f"bootstrap replicate {replicate}: {exc}") from None
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
