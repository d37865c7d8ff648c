"""Tests for the photon-counting Monte Carlo layer."""

import dataclasses
import math
import time

import numpy as np
import pytest

from pathprobe import cli
from pathprobe import interferometer as itf
from pathprobe import montecarlo as mc
from pathprobe.optics import (
    BeamSplitterSpec,
    DephasingSpec,
    RetarderSpec,
    RotationSpec,
)

THETA0 = math.asin(math.sqrt(0.0153))


def make_config(theta0=THETA0, seed=1, **extra):
    kwargs = dict(
        rotation=RotationSpec(theta0=theta0),
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.5285, reflectivity_v=0.5285),
        retarder=RetarderSpec(),
        dephasing=DephasingSpec(v_d=0.9997702900867688),
        seed=seed,
    )
    kwargs.update(extra)
    return itf.ExperimentConfig(**kwargs)


# ------------------------------------------------------------------- streams


def test_random_stream_reproducible():
    a = mc.RandomStream(seed=5, stream_id=9).generator().poisson(1000.0, size=8)
    b = mc.RandomStream(seed=5, stream_id=9).generator().poisson(1000.0, size=8)
    assert np.array_equal(a, b)
    c = mc.RandomStream(seed=5, stream_id=10).generator().poisson(1000.0, size=8)
    d = mc.RandomStream(seed=6, stream_id=9).generator().poisson(1000.0, size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        mc.RandomStream(seed=-1, stream_id=0)
    with pytest.raises(ValueError):
        mc.RandomStream(seed=0, stream_id=-2)


def test_stream_for_distinct_channels():
    seen = set()
    for kind in mc.KINDS:
        for port in itf.PORTS:
            for setting in mc.POL_SETTINGS:
                for phase_index in (0, 1, 40):
                    for repeat in (0, 3):
                        for purpose in ("raw", "background"):
                            stream = mc.stream_for(
                                7, kind, port, setting, phase_index, repeat, purpose
                            )
                            assert stream.seed == 7
                            seen.add(stream.stream_id)
    assert len(seen) == 3 * 2 * 2 * 3 * 2 * 2
    with pytest.raises(ValueError):
        mc.stream_for(7, "dark", "+", "H")
    with pytest.raises(ValueError):
        mc.stream_for(7, "interference", "+", "H", purpose="other")


# ------------------------------------------------------------ count drawing


def test_window_counts_mean_matches_rate():
    cfg = make_config(duration=100.0)
    probs = itf.run_once(cfg, 90.0)
    lam = (cfg.photon_rate * probs.p_plus_v + cfg.dark_rate("+")) * cfg.duration
    n = 400
    base = mc.stream_for(cfg.seed, "interference", "+", "V").stream_id
    (total,) = mc._window_counts(cfg.seed, base, [lam], n)
    assert abs(total / n - lam) < 5 * math.sqrt(lam / n)


@pytest.mark.parametrize("seed", [0, 7, (1 << 63) + 5])
def test_keyed_poisson_matches_per_window_generators(seed):
    # lam 0, below 10 and above 10: numpy samples these three ways
    streams = []
    lams = []
    for kind in mc.KINDS:
        for port in itf.PORTS:
            for setting in mc.POL_SETTINGS:
                for purpose in ("raw", "background"):
                    for phase_index in (0, 1, 40, (1 << 20) - 1):
                        for repeat in (0, 3):
                            for lam in (0.0, 3.7, 12.5, 2.75e6):
                                streams.append(
                                    mc.stream_for(
                                        seed, kind, port, setting, phase_index, repeat, purpose
                                    )
                                )
                                lams.append(lam)
    want = [int(stream.generator().poisson(lam)) for stream, lam in zip(streams, lams)]
    got = mc._keyed_poisson(seed, [stream.stream_id for stream in streams], lams)
    assert got == want


def test_mc_protocol_counts_match_per_window_streams():
    # reference: one generator per window from stream_for, as the keying defines
    cfg = make_config(seed=(1 << 63) + 11, phase_grid=itf.PhaseGrid(steps=5))
    repeats = 3
    _, raw, bg = mc.mc_protocol(cfg, repeats=repeats)
    phases = cfg.phase_grid.phases_deg()
    columns = [(port, setting) for port in itf.PORTS for setting in mc.POL_SETTINGS]
    want_raw = []
    want_bg = []
    for kind in mc.KINDS:
        joint = itf.joint_probabilities(cfg, phases, mc._BLOCKED_FOR_KIND[kind])
        for port in itf.PORTS:
            for setting in mc.POL_SETTINGS:
                want_bg.append(
                    sum(
                        int(
                            mc.stream_for(cfg.seed, kind, port, setting, 0, r, "background")
                            .generator()
                            .poisson(cfg.dark_rate(port) * cfg.duration)
                        )
                        for r in range(repeats)
                    )
                )
                column = columns.index((port, setting))
                for i in range(len(phases)):
                    p = float(joint[i, column])
                    lam = (cfg.photon_rate * p + cfg.dark_rate(port)) * cfg.duration
                    want_raw.append(
                        sum(
                            int(
                                mc.stream_for(cfg.seed, kind, port, setting, i, r)
                                .generator()
                                .poisson(lam)
                            )
                            for r in range(repeats)
                        )
                    )
    assert [rec.counts for rec in raw] == want_raw
    assert [rec.counts for rec in bg] == want_bg


def test_window_indices_beyond_the_stream_id_layout_raise_before_any_draw(monkeypatch):
    def no_work(*args):
        raise AssertionError("started work before rejecting the window count")

    monkeypatch.setattr(mc, "_keyed_poisson", no_work)
    monkeypatch.setattr(itf, "joint_probabilities", no_work)
    limit = 1 << 20
    cfg = make_config(phase_grid=itf.PhaseGrid(steps=limit + 1))
    with pytest.raises(ValueError, match="phase_index out of range"):
        mc.mc_protocol(cfg)
    with pytest.raises(ValueError, match="repeat out of range"):
        mc.mc_protocol(make_config(), repeats=limit + 1)
    with pytest.raises(ValueError, match="repeat out of range"):
        mc.simulate_background_table(make_config(), repeats=limit + 1)


def test_mc_protocol_dark_only_channel():
    # with the probe off nothing reaches H: the channel sees pure dark counts
    cfg = make_config(theta0=0.0)
    _, raw, _ = mc.mc_protocol(cfg)
    for port in itf.PORTS:
        counts = [
            rec.counts
            for rec in raw
            if (rec.run_kind, rec.port, rec.pol_setting) == ("interference", port, "H")
        ]
        lam = cfg.dark_rate(port) * cfg.duration
        assert abs(sum(counts) / len(counts) - lam) < 5 * math.sqrt(lam / len(counts))


def test_mc_protocol_blocked_kinds_track_model():
    # run kinds name the open path: "path1" counts follow the path2-blocked model
    cfg = make_config(seed=14)
    _, raw, _ = mc.mc_protocol(cfg)
    phases = cfg.phase_grid.phases_deg()
    columns = [(port, setting) for port in itf.PORTS for setting in mc.POL_SETTINGS]
    for kind, blocked in (("path1", "path2"), ("path2", "path1")):
        joint = itf.joint_probabilities(cfg, phases, blocked)
        records = [rec for rec in raw if rec.run_kind == kind]
        assert len(records) == 4 * len(phases)
        for rec in records:
            p = joint[phases.index(rec.phase_deg), columns.index((rec.port, rec.pol_setting))]
            lam = (cfg.photon_rate * p + cfg.dark_rate(rec.port)) * cfg.duration
            assert abs(rec.counts - lam) < 6 * math.sqrt(lam)


def test_count_record_validation():
    with pytest.raises(ValueError):
        mc.CountRecord("interference", "+", "H", 0.0, -1, 100.0)
    with pytest.raises(ValueError):
        mc.CountRecord("interference", "+", "H", 0.0, 1.5, 100.0)
    with pytest.raises(ValueError):
        mc.CountRecord("interference", "+", "H", 0.0, 10, 0.0)
    with pytest.raises(ValueError):
        mc.CountRecord("flat", "+", "H", 0.0, 10, 100.0)


def test_simulate_background_table_shape_and_means():
    cfg = make_config(seed=12)
    table = mc.simulate_background_table(cfg, repeats=4)
    assert len(table) == 12
    channels = {(r.run_kind, r.port, r.pol_setting) for r in table}
    assert len(channels) == 12
    for rec in table:
        assert rec.duration == 400.0
        lam = cfg.dark_rate(rec.port) * rec.duration
        assert abs(rec.counts - lam) < 6 * math.sqrt(lam)
    with pytest.raises(ValueError):
        mc.simulate_background_table(cfg, repeats=0)


# ------------------------------------------------------------- subtraction


def test_subtract_background_example():
    raw = mc.CountRecord("interference", "+", "H", 0.0, 144423, 100.0)
    bg = mc.CountRecord("background", "+", "H", 0.0, 44423, 100.0)
    corr = mc.subtract_background(raw, bg)
    assert abs(corr.rate - 1000.0) < 1e-12
    assert abs(corr.sigma - 4.3456) < 5e-4
    assert corr.run_kind == "interference"


def test_subtract_background_zero_and_negative():
    raw = mc.CountRecord("path1", "-", "V", 0.0, 500, 100.0)
    none = mc.CountRecord("path1", "-", "V", 0.0, 0, 100.0)
    corr = mc.subtract_background(raw, none)
    assert corr.rate == 5.0
    assert math.isclose(corr.sigma, math.sqrt(500) / 100.0, rel_tol=1e-12)
    # a fluctuating background can push a weak channel negative; keep it
    hot = mc.CountRecord("background", "-", "V", 0.0, 700, 100.0)
    assert mc.subtract_background(raw, hot).rate == -2.0


def test_subtract_background_mismatches():
    raw = mc.CountRecord("interference", "+", "H", 0.0, 100, 100.0)
    with pytest.raises(ValueError):
        mc.subtract_background(raw, mc.CountRecord("path1", "+", "H", 0.0, 10, 100.0))
    with pytest.raises(ValueError):
        mc.subtract_background(raw, mc.CountRecord("background", "-", "H", 0.0, 10, 100.0))
    with pytest.raises(ValueError):
        mc.subtract_background(raw, mc.CountRecord("background", "+", "V", 0.0, 10, 100.0))
    bg = mc.CountRecord("background", "+", "H", 0.0, 10, 100.0)
    with pytest.raises(ValueError):
        mc.subtract_background(bg, bg)


def test_ratio_probability():
    p, sigma = mc._ratio_probability(150.0, 0.0, 9850.0, 0.0)
    assert abs(p - 0.015) < 1e-12
    assert sigma == 0.0
    p2, sigma2 = mc._ratio_probability(0.0, 1.0, 9850.0, 0.0)
    assert p2 == 0.0
    assert sigma2 > 0.0
    with pytest.raises(ValueError, match="total corrected rate is not positive"):
        mc._ratio_probability(150.0, 0.0, -9851.0, 1.0)


def test_ratio_probability_error_propagation():
    p, sigma = mc._ratio_probability(200.0, 3.0**2, 9800.0, 11.0**2)
    total = 10000.0
    want = math.sqrt((9800.0**2 * 9.0 + 200.0**2 * 121.0) / total**4)
    assert abs(sigma - want) < 1e-15


def test_corrected_rates_match_subtract_background():
    cfg = make_config(seed=21)
    _, raw, bg = mc.mc_protocol(cfg, repeats=3)
    n = cfg.phase_grid.steps
    counts = [[b.counts] + [r.counts for r in raw[c * n : (c + 1) * n]] for c, b in enumerate(bg)]
    rates, sigmas = mc._corrected_rates(
        np.array(counts, dtype=np.float64), raw[0].duration, [b.duration for b in bg]
    )
    rates, sigmas = rates.tolist(), sigmas.tolist()
    assert len(raw) == 492
    for j, record in enumerate(raw):
        c, i = divmod(j, n)
        assert (bg[c].run_kind, bg[c].port, bg[c].pol_setting) == (
            record.run_kind, record.port, record.pol_setting
        )
        want = mc.subtract_background(record, bg[c])
        assert (rates[c][i], sigmas[c][i]) == (want.rate, want.sigma)


def test_background_index_shared_rows():
    table = mc.simulate_background_table(make_config())
    shared = dataclasses.replace(table[0], run_kind="background")
    with pytest.raises(ValueError, match="table rows must name their run kind, not 'background'"):
        mc._background_index(table[1:] + (shared,))
    index = mc._background_index(table[1:] + (shared,), accept_shared=True)
    assert index[("background", "+", "H")] is shared
    for accept_shared in (False, True):
        with pytest.raises(ValueError, match="duplicate background row"):
            mc._background_index(table + table[:1], accept_shared=accept_shared)


# ----------------------------------------------------------------- protocol


def test_mc_protocol_structure_and_determinism():
    cfg = make_config(seed=3)
    result_a, raw_a, bg_a = mc.mc_protocol(cfg)
    result_b, raw_b, bg_b = mc.mc_protocol(cfg)
    assert raw_a == raw_b
    assert bg_a == bg_b
    assert result_a == result_b
    phases = cfg.phase_grid.phases_deg()
    assert len(result_a.records) == len(phases)
    for rec, phase in zip(result_a.records, phases):
        assert rec.phase_deg == phase
    # 3 kinds x 2 ports x 2 settings x 41 phases raw draws, 12 backgrounds
    assert len(raw_a) == 3 * 2 * 2 * len(phases)
    assert len(bg_a) == 12
    other = mc.mc_protocol(make_config(seed=4))[0]
    assert other != result_a


def test_mc_protocol_estimates_track_exact_model():
    pulls = []
    for seed in range(12):
        cfg = make_config(seed=seed)
        result, _, _ = mc.mc_protocol(cfg)
        exact = itf.sweep(cfg)
        for est, truth in zip(result.records, exact.records):
            for field, sig in (
                ("p_plus", "sigma_p_plus"),
                ("p_minus", "sigma_p_minus"),
                ("p_h_given_plus", "sigma_ph_plus"),
                ("p_h_given_minus", "sigma_ph_minus"),
            ):
                est_val = getattr(est, field)
                true_val = getattr(truth, field)
                sigma = getattr(est, sig)
                if est_val is None or true_val is None:
                    continue
                assert sigma > 0.0
                pull = (est_val - true_val) / sigma
                assert abs(pull) < 5.0
                pulls.append(pull)
    pulls = np.asarray(pulls)
    assert abs(pulls.mean()) < 0.3
    assert 0.7 < pulls.std(ddof=1) < 1.3


def test_mc_protocol_reference_pooling():
    cfg = make_config(seed=8)
    result, _, _ = mc.mc_protocol(cfg)
    exact = itf.reference_flip_probability(cfg)
    assert result.reference_sigma > 0.0
    assert abs(result.reference_flip_prob - exact) < 5 * result.reference_sigma
    # pooling beats any single-channel estimate by a wide margin
    assert result.reference_sigma < 5e-4


def test_mc_protocol_precision_scales_with_duration():
    ratios = []
    for seed in range(6):
        short = make_config(seed=seed, duration=100.0)
        long = make_config(seed=seed, duration=400.0)
        res_s = mc.mc_protocol(short)[0]
        res_l = mc.mc_protocol(long)[0]
        for a, b in zip(res_s.records, res_l.records):
            if a.sigma_ph_minus and b.sigma_ph_minus:
                ratios.append(b.sigma_ph_minus / a.sigma_ph_minus)
    med = float(np.median(ratios))
    assert abs(med - 0.5) < 0.1


def test_mc_protocol_repeats_tighten_sigmas():
    cfg = make_config(seed=5)
    single = mc.mc_protocol(cfg, repeats=1)[0]
    quad = mc.mc_protocol(cfg, repeats=4)[0]
    med_single = float(np.median([r.sigma_p_plus for r in single.records]))
    med_quad = float(np.median([r.sigma_p_plus for r in quad.records]))
    assert abs(med_quad / med_single - 0.5) < 0.1
    with pytest.raises(ValueError):
        mc.mc_protocol(cfg, repeats=0)


def test_mc_protocol_background_replay():
    cfg = make_config(seed=9)
    table = mc.simulate_background_table(make_config(seed=101), repeats=2)
    result, _, bg = mc.mc_protocol(cfg, background_table=table)
    # the supplied table is echoed verbatim as the background measurement
    assert bg == table
    exact = itf.sweep(cfg)
    for est, truth in zip(result.records, exact.records):
        assert abs(est.p_plus - truth.p_plus) < 5 * est.sigma_p_plus
        if est.p_h_given_minus is not None and truth.p_h_given_minus is not None:
            assert abs(est.p_h_given_minus - truth.p_h_given_minus) < 5 * est.sigma_ph_minus


def test_mc_protocol_bootstrap_sigmas():
    cfg = make_config(seed=2)
    plain = mc.mc_protocol(cfg)[0]
    boot_a = mc.mc_protocol(cfg, bootstrap_replicates=40)[0]
    boot_b = mc.mc_protocol(cfg, bootstrap_replicates=40)[0]
    assert boot_a == boot_b
    # central values are untouched; only the sigmas are re-estimated
    ratios = []
    for p, b in zip(plain.records, boot_a.records):
        assert p.p_plus == b.p_plus
        assert p.p_h_given_minus == b.p_h_given_minus
        assert p.sigma_p_plus != b.sigma_p_plus
        ratios.append(b.sigma_p_plus / p.sigma_p_plus)
    med = float(np.median(ratios))
    assert 0.7 < med < 1.3
    with pytest.raises(ValueError):
        mc.mc_protocol(cfg, bootstrap_replicates=-1)


def test_mc_protocol_rejects_bootstrap_means_beyond_numpy():
    # the bootstrap redraws counts summed over repeats: 3 x 4.6e18 overflows numpy
    cfg = itf.ExperimentConfig(
        photon_rate=4.6e16, duration=100.0, phase_grid=itf.PhaseGrid(steps=2)
    )
    mc.mc_protocol(cfg, repeats=3)
    mc.mc_protocol(cfg, repeats=1, bootstrap_replicates=2)
    with pytest.raises(ValueError, match=r"repeats = 3: .* 1\.38e\+19 exceeds"):
        mc.mc_protocol(cfg, repeats=3, bootstrap_replicates=2)


def test_mc_protocol_rejects_background_rows_beyond_numpy(monkeypatch):
    cfg = make_config()
    table = tuple(
        dataclasses.replace(rec, counts=10**20, duration=1.0)
        for rec in mc.simulate_background_table(cfg)
    )

    def no_draw(*args):
        raise AssertionError("drew before rejecting the table")

    monkeypatch.setattr(mc, "_keyed_poisson", no_draw)
    with pytest.raises(ValueError, match=r"row \('interference', '\+', 'H'\): .* 1e\+22"):
        mc.mc_protocol(cfg, background_table=table)


# ------------------------------------------------------- scalar reference


def _reference_ratio(num, num_var, den, den_var):
    total = num + den
    assert total > 0.0
    return num / total, math.sqrt((den**2 * num_var + num**2 * den_var) / total**4)


def _reference_estimates(cfg, raw_counts, raw_duration, bg_counts, bg_durations):
    """Scalar estimates from counts keyed (kind, port, setting, phase index)
    and (kind, port, setting), with ``subtract_background``'s arithmetic."""
    n = cfg.phase_grid.steps
    corrected = {}
    for key, counts in raw_counts.items():
        channel = key[:3]
        bg, bg_duration = bg_counts[channel], bg_durations[channel]
        corrected[key] = (
            counts / raw_duration - bg / bg_duration,
            math.sqrt(counts / raw_duration**2 + bg / bg_duration**2),
        )
    pooled = []
    for kind in ("path1", "path2"):
        for port in itf.PORTS:
            terms = []
            for setting in ("H", "V"):
                total = sum(raw_counts[(kind, port, setting, i)] for i in range(n))
                duration = sum(raw_duration for _ in range(n))
                bg, bg_duration = bg_counts[(kind, port, setting)], bg_durations[(kind, port, setting)]
                terms.append(total / duration - bg / bg_duration)
                terms.append(total / duration**2 + bg / bg_duration**2)
            pooled.append(_reference_ratio(*terms))
    reference = sum(p for p, _ in pooled) / 4
    reference_sigma = math.sqrt(sum(s**2 for _, s in pooled)) / 4
    rows = []
    for i in range(n):
        (hp, s_hp), (vp, s_vp), (hm, s_hm), (vm, s_vm) = (
            corrected[("interference", port, setting, i)]
            for port in itf.PORTS
            for setting in ("H", "V")
        )
        p_h_plus, s_h_plus = _reference_ratio(hp, s_hp**2, vp, s_vp**2)
        p_h_minus, s_h_minus = _reference_ratio(hm, s_hm**2, vm, s_vm**2)
        p_plus, s_p = _reference_ratio(hp + vp, s_hp**2 + s_vp**2, hm + vm, s_hm**2 + s_vm**2)
        rows.append((p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus))
    return reference, reference_sigma, rows


def _reference_records(cfg, raw, bg, replicates):
    """``mc_protocol``'s records rebuilt from its observed counts, one scalar
    ``poisson`` call per window in sorted (kind, port, setting, phase index)
    order, each channel's background drawn before its first phase."""
    phases = cfg.phase_grid.phases_deg()
    raw_counts = {(r.run_kind, r.port, r.pol_setting, phases.index(r.phase_deg)): r.counts for r in raw}
    bg_counts = {(r.run_kind, r.port, r.pol_setting): r.counts for r in bg}
    bg_durations = {(r.run_kind, r.port, r.pol_setting): r.duration for r in bg}
    raw_duration = raw[0].duration
    reference, reference_sigma, rows = _reference_estimates(
        cfg, raw_counts, raw_duration, bg_counts, bg_durations
    )
    if replicates:
        gen = mc.RandomStream(cfg.seed, mc._BOOTSTRAP_STREAM_ID).generator()
        refs, samples = [], []
        for _ in range(replicates):
            raw_star, bg_star = {}, {}
            for key in sorted(raw_counts):
                if key[:3] not in bg_star:
                    bg_star[key[:3]] = int(gen.poisson(bg_counts[key[:3]]))
                raw_star[key] = int(gen.poisson(raw_counts[key]))
            ref_b, _, rows_b = _reference_estimates(cfg, raw_star, raw_duration, bg_star, bg_durations)
            refs.append(ref_b)
            samples.append(rows_b)
        reference_sigma = float(np.std(refs, ddof=1))
        values = np.asarray(samples)
        s_boot = [np.std(values[:, :, k], axis=0, ddof=1).tolist() for k in (0, 2, 4)]
        rows = [
            (row[0], s_boot[0][i], row[2], s_boot[1][i], row[4], s_boot[2][i])
            for i, row in enumerate(rows)
        ]
    records = []
    for phase, (p_plus, s_p, p_h_plus, s_h_plus, p_h_minus, s_h_minus) in zip(phases, rows):
        records.append(
            itf.DelocalizationRecord(
                phase_deg=phase,
                p_plus=p_plus,
                p_minus=1.0 - p_plus,
                p_h_given_plus=p_h_plus,
                p_h_given_minus=p_h_minus,
                a2_plus=p_h_plus / reference,
                a2_minus=p_h_minus / reference,
                sigma_p_plus=s_p,
                sigma_p_minus=s_p,
                sigma_ph_plus=s_h_plus,
                sigma_ph_minus=s_h_minus,
                sigma_a2_plus=math.sqrt(
                    (s_h_plus / reference) ** 2 + (p_h_plus * reference_sigma / reference**2) ** 2
                ),
                sigma_a2_minus=math.sqrt(
                    (s_h_minus / reference) ** 2 + (p_h_minus * reference_sigma / reference**2) ** 2
                ),
            )
        )
    return itf.SweepResult(
        records=tuple(records), reference_flip_prob=reference, reference_sigma=reference_sigma
    )


def test_mc_protocol_bootstrap_matches_scalar_reference():
    cfg = make_config(seed=(1 << 63) + 3, phase_grid=itf.PhaseGrid(steps=5))
    table = mc.simulate_background_table(make_config(seed=77), repeats=2)
    result, raw, bg = mc.mc_protocol(cfg, repeats=3, background_table=table, bootstrap_replicates=7)
    assert bg == table
    assert result == _reference_records(cfg, raw, bg, 7)


def test_mc_protocol_counts_beyond_int64_match_scalar_reference():
    cfg = itf.ExperimentConfig(
        photon_rate=4.6e16, duration=100.0, phase_grid=itf.PhaseGrid(steps=2)
    )
    result, raw, bg = mc.mc_protocol(cfg, repeats=3)
    assert max(r.counts for r in raw) > 1 << 63
    assert result == _reference_records(cfg, raw, bg, 0)


# ------------------------------------------------- non-positive totals


@pytest.mark.parametrize(
    "seed, replicates, message",
    [
        (
            1,
            0,
            "total corrected rate is not positive: -9.279999999999973 in p(H|-) of the"
            " interference run, port '-', at phase 0.0 deg (index 4)",
        ),
        (
            3,
            0,
            "total corrected rate is not positive: -4.009999999999991 in p(H|+) of the"
            " interference run, port '+', at phase 180.0 deg (index 36)",
        ),
        (
            2,
            5,
            "bootstrap replicate 0: total corrected rate is not positive: -1.9099999999999682"
            " in p(H|-) of the interference run, port '-', at phase 0.0 deg (index 4)",
        ),
    ],
    ids=["seed1", "seed3", "seed2-bootstrap"],
)
def test_non_positive_total_names_the_estimate(seed, replicates, message):
    # theta0 = 0 leaves the dark H channels with background alone
    cfg = itf.ExperimentConfig(seed=seed)
    with pytest.raises(ValueError) as info:
        mc.mc_protocol(cfg, bootstrap_replicates=replicates)
    assert str(info.value) == message


def test_non_positive_reference_pool_is_reported_first():
    # every total is negative: the reference pools come before the phases
    counts = [[100, 1]] * 12
    rates = sigmas = [[-99.0]] * 12
    with pytest.raises(ValueError) as info:
        mc._pipeline_estimates(counts, rates, sigmas, (1.0, [1.0] * 12), (0.0,))
    assert str(info.value) == (
        "total corrected rate is not positive: -198.0 in the reference pool of the path1 run,"
        " port '+'"
    )


def test_bootstrap_wall_time():
    # 200 replicates on the preset take about 25-50 ms; 0.2 s leaves room
    # for a slow shared host
    cfg = cli.parse_config("paper")
    mc.mc_protocol(cfg, bootstrap_replicates=200)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        mc.mc_protocol(cfg, bootstrap_replicates=200)
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.2
