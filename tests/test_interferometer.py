"""Tests for the exact interferometer model.

Model outputs are checked against ``closedform``, an independent pure-Python
amplitude calculation kept free of any imports from the package.
"""

import dataclasses
import math

import numpy as np
import pytest

import closedform
from pathprobe import interferometer as itf
from pathprobe import qstate
from pathprobe.optics import (
    BeamSplitterSpec,
    DephasingSpec,
    RetarderSpec,
    RotationSpec,
)

THETA0 = 0.1225


def ideal_config(**overrides):
    base = dict(
        rotation=RotationSpec(theta0=THETA0),
        beamsplitter=BeamSplitterSpec(),
        retarder=RetarderSpec(),
        dephasing=DephasingSpec(v_d=1.0),
    )
    base.update(overrides)
    return itf.ExperimentConfig(**base)


def test_phase_grid_default():
    grid = itf.PhaseGrid()
    phases = grid.phases_deg()
    assert len(phases) == 41
    assert phases[0] == -22.5
    assert phases[-1] == 202.5
    assert np.allclose(np.diff(phases), 5.625)
    # 0, 90 and 180 are exact grid points
    assert phases[4] == 0.0 and phases[20] == 90.0 and phases[36] == 180.0


def test_phase_grid_validation():
    with pytest.raises(ValueError):
        itf.PhaseGrid(steps=1)
    with pytest.raises(ValueError):
        itf.PhaseGrid(start_deg=10.0, stop_deg=10.0)


def test_run_once_bright_port_at_zero_phase():
    cfg = ideal_config()
    probs = itf.run_once(cfg, 0.0)
    # constructive output exits on the "+" port at phi = 0; the probe
    # rotation caps the contrast at cos(2 theta0)
    assert np.isclose(
        probs.port_probability("+"), 0.5 * (1 + np.cos(2 * THETA0)), atol=1e-12
    )
    assert np.isclose(probs.survival, 1.0)
    assert np.isclose(
        probs.p_plus_h + probs.p_plus_v + probs.p_minus_h + probs.p_minus_v,
        probs.survival,
    )


def test_run_once_balanced_at_quadrature():
    probs = itf.run_once(ideal_config(), 90.0)
    assert np.isclose(probs.port_probability("+"), 0.5, atol=1e-12)
    assert np.isclose(probs.port_probability("-"), 0.5, atol=1e-12)
    # both conditionals sit at the single-path flip level
    for port in itf.PORTS:
        assert np.isclose(
            itf.conditional_flip_probability(probs, port),
            np.sin(THETA0) ** 2,
            atol=1e-12,
        )


def test_run_once_blocked_path():
    cfg = ideal_config()
    probs = itf.run_once(cfg, 0.0, blocked="path2")
    # half the photons are absorbed
    assert np.isclose(probs.survival, 0.5, atol=1e-12)
    # the survivors split evenly over the exit ports
    assert np.isclose(probs.port_probability("+"), 0.25, atol=1e-12)
    assert np.isclose(probs.port_probability("-"), 0.25, atol=1e-12)
    for port in itf.PORTS:
        assert np.isclose(
            itf.conditional_flip_probability(probs, port),
            np.sin(THETA0) ** 2,
            atol=1e-12,
        )
    with pytest.raises(ValueError):
        itf.run_once(cfg, 0.0, blocked="both")


def test_run_once_matches_independent_amplitudes():
    rng = np.random.default_rng(21)
    for _ in range(60):
        cfg = itf.ExperimentConfig(
            rotation=RotationSpec(theta0=rng.uniform(-0.4, 0.4)),
            beamsplitter=BeamSplitterSpec(
                reflectivity_h=rng.uniform(0.2, 0.8),
                reflectivity_v=rng.uniform(0.2, 0.8),
            ),
            retarder=RetarderSpec(
                phi_hv_path1=rng.uniform(-1.0, 1.0),
                phi_hv_path2=rng.uniform(-1.0, 1.0),
            ),
            dephasing=DephasingSpec(v_d=rng.uniform(0.0, 1.0)),
            gt_compensation_plus=rng.uniform(-3.0, 3.0),
            gt_compensation_minus=rng.uniform(-3.0, 3.0),
        )
        phase = rng.uniform(-30.0, 210.0)
        blocked = ("none", "path1", "path2")[rng.integers(3)]
        probs = itf.run_once(cfg, phase, blocked=blocked)
        oracle = closedform.from_config(cfg, phase, blocked=blocked)
        for key, want in oracle.items():
            assert abs(getattr(probs, key) - want) < 1e-12, (key, blocked)


def test_conditional_flip_probability_arithmetic():
    probs = itf.OutcomeProbabilities(
        p_plus_h=0.0075, p_plus_v=0.4925, p_minus_h=0.0075, p_minus_v=0.4925,
        survival=1.0,
    )
    assert np.isclose(itf.conditional_flip_probability(probs, "+"), 0.015)
    assert np.isclose(itf.conditional_flip_probability(probs, "-"), 0.015)
    empty = itf.OutcomeProbabilities(
        p_plus_h=0.0, p_plus_v=0.0, p_minus_h=0.5, p_minus_v=0.5, survival=1.0,
    )
    with pytest.raises(itf.UndefinedConditionalError):
        itf.conditional_flip_probability(empty, "+")
    with pytest.raises(ValueError):
        itf.conditional_flip_probability(probs, "0")


def test_reference_flip_probability_closed_form():
    # with a polarization-independent splitter every blocked conditional is
    # exactly sin^2(theta0), whatever the retarder or dephasing settings
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta0 = rng.uniform(0.0, 0.4)
        r = rng.uniform(0.2, 0.8)
        cfg = itf.ExperimentConfig(
            rotation=RotationSpec(theta0=theta0),
            beamsplitter=BeamSplitterSpec(reflectivity_h=r, reflectivity_v=r),
            retarder=RetarderSpec(
                phi_hv_path1=rng.uniform(-1.0, 1.0),
                phi_hv_path2=rng.uniform(-1.0, 1.0),
            ),
            dephasing=DephasingSpec(v_d=rng.uniform(0.0, 1.0)),
        )
        assert np.isclose(
            itf.reference_flip_probability(cfg), np.sin(theta0) ** 2, atol=1e-12
        )


def test_reference_flip_probability_polarizing_splitter():
    # R_h != R_v reweights H against V when conditioning on a port, so the
    # blocked reference averages two biased conditionals
    theta0, r_h, r_v = 0.2, 0.6, 0.45
    cfg = itf.ExperimentConfig(
        rotation=RotationSpec(theta0=theta0),
        beamsplitter=BeamSplitterSpec(reflectivity_h=r_h, reflectivity_v=r_v),
        retarder=RetarderSpec(),
        dephasing=DephasingSpec(v_d=1.0),
    )
    s2, c2 = np.sin(theta0) ** 2, np.cos(theta0) ** 2
    reflected = r_h * s2 / (r_h * s2 + r_v * c2)
    transmitted = (1 - r_h) * s2 / ((1 - r_h) * s2 + (1 - r_v) * c2)
    want = 0.5 * (reflected + transmitted)
    assert np.isclose(itf.reference_flip_probability(cfg), want, atol=1e-12)


def test_reference_flip_probability_probe_level():
    theta0 = math.asin(math.sqrt(0.0153))
    cfg = ideal_config(rotation=RotationSpec(theta0=theta0))
    assert np.isclose(itf.reference_flip_probability(cfg), 0.0153, atol=1e-15)
    off = ideal_config(rotation=RotationSpec(theta0=0.0))
    assert itf.reference_flip_probability(off) == 0.0


def test_normalization_residual():
    assert itf.normalization_residual(1.0, 0.5, 1.0, 0.5) == 0.0
    res = itf.normalization_residual(0.0, 0.9827, 57.8, 0.0173)
    assert abs(res) < 0.01
    with pytest.raises(ValueError):
        itf.normalization_residual(1.0, 1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        itf.normalization_residual(-1.0, 0.5, 1.0, 0.5)


def test_normalization_identity_random_ideal_configs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = rng.uniform(0.2, 0.8)
        cfg = itf.ExperimentConfig(
            rotation=RotationSpec(theta0=rng.uniform(0.01, 0.3)),
            beamsplitter=BeamSplitterSpec(reflectivity_h=r, reflectivity_v=r),
            retarder=RetarderSpec(),
            dephasing=DephasingSpec(v_d=rng.uniform(0.0, 1.0)),
        )
        ref = itf.reference_flip_probability(cfg)
        phase = rng.uniform(-22.5, 202.5)
        probs = itf.run_once(cfg, phase)
        a2 = {port: itf.conditional_flip_probability(probs, port) / ref for port in itf.PORTS}
        res = itf.normalization_residual(
            a2["+"], probs.port_probability("+"), a2["-"], probs.port_probability("-")
        )
        assert abs(res) < 1e-12


def test_weak_a_squared_examples():
    rho1 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([1.0, 0.0]).astype(complex)
    assert np.isclose(itf.weak_a_squared(rho1, e1), 1.0)
    e_minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    for phi, want in ((np.pi / 2, 1.0), (0.2, 1.0 / np.tan(0.1) ** 2)):
        psi = np.array([1.0, np.exp(-1j * phi)]) / np.sqrt(2)
        rho = qstate.pure_density(psi)
        assert np.isclose(itf.weak_a_squared(rho, e_minus), want, rtol=1e-12)
    # post-selecting an outcome that never fires is undefined
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.raises(itf.UndefinedConditionalError):
        itf.weak_a_squared(qstate.pure_density(psi), e_minus)
    with pytest.raises(ValueError):
        itf.weak_a_squared(rho1, 2.0 * e1)


def test_counterfactual_ratio():
    assert itf.counterfactual_ratio(0.5) == 1.0
    assert abs(itf.counterfactual_ratio(0.0173) - 56.80) < 0.005
    assert itf.counterfactual_ratio(1.0) == 0.0
    with pytest.raises(itf.UndefinedConditionalError):
        itf.counterfactual_ratio(0.0)
    with pytest.raises(ValueError):
        itf.counterfactual_ratio(1.2)


def test_theory_routes_agree():
    # post-selected squared path sign equals (1 - p)/p of the selected port
    e_minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    e_plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    rng = np.random.default_rng(17)
    for _ in range(1000):
        phi = rng.uniform(0.01, 2 * np.pi - 0.01)
        psi = np.array([1.0, np.exp(-1j * phi)]) / np.sqrt(2)
        rho = qstate.pure_density(psi)
        for e in (e_minus, e_plus):
            p = qstate.outcome_probability(rho, np.kron(np.eye(1), e) if e.shape == (2, 2) else e)
            if p < 1e-9:
                continue
            lhs = itf.weak_a_squared(rho, e)
            rhs = itf.counterfactual_ratio(p)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_sweep_structure_and_quadrature():
    result = itf.sweep(ideal_config())
    assert len(result.records) == 41
    phases = [rec.phase_deg for rec in result.records]
    assert phases == sorted(phases)
    rec90 = result.records[20]
    assert rec90.phase_deg == 90.0
    assert abs(rec90.a2_plus - 1.0) < 1e-12
    assert abs(rec90.a2_minus - 1.0) < 1e-12


def test_sweep_no_probe_flags_undefined():
    result = itf.sweep(ideal_config(rotation=RotationSpec(theta0=0.0)))
    for rec in result.records:
        if rec.p_h_given_plus is not None:
            assert rec.p_h_given_plus == 0.0
        if rec.p_h_given_minus is not None:
            assert rec.p_h_given_minus == 0.0
        assert rec.a2_plus is None
        assert rec.a2_minus is None


def test_sweep_dark_port_flagged_not_crashed():
    # ideal config: port "-" is fully dark at phi = 0, port "+" at 180
    result = itf.sweep(ideal_config(rotation=RotationSpec(theta0=1e-9)))
    rec0 = result.records[4]
    assert rec0.phase_deg == 0.0
    assert rec0.p_h_given_minus is None and rec0.a2_minus is None
    assert rec0.p_h_given_plus is not None


def test_mirror_symmetry_balanced_splitter():
    rng = np.random.default_rng(31)
    for _ in range(10):
        cfg = ideal_config(
            rotation=RotationSpec(theta0=rng.uniform(0.02, 0.3)),
            dephasing=DephasingSpec(v_d=rng.uniform(0.1, 1.0)),
        )
        result = itf.sweep(cfg)
        by_phase = {rec.phase_deg: rec for rec in result.records}
        for phase in (0.0, 22.5, 45.0, 90.0, 135.0, 180.0):
            a = by_phase[phase].p_h_given_plus
            b = by_phase[180.0 - phase].p_h_given_minus
            assert abs(a - b) < 1e-12


def test_crossing_at_quadrature_is_exact():
    cfg = ideal_config(
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.5285, reflectivity_v=0.5285),
        dephasing=DephasingSpec(v_d=0.97),
    )
    ref = itf.reference_flip_probability(cfg)
    probs = itf.run_once(cfg, 90.0)
    for port in itf.PORTS:
        assert abs(itf.conditional_flip_probability(probs, port) - ref) < 1e-12


def test_theta0_sign_invariance():
    cfg_pos = ideal_config(
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.6, reflectivity_v=0.45),
        dephasing=DephasingSpec(v_d=0.8),
    )
    cfg_neg = dataclasses.replace(cfg_pos, rotation=RotationSpec(theta0=-THETA0))
    res_pos = itf.sweep(cfg_pos)
    res_neg = itf.sweep(cfg_neg)
    assert np.isclose(
        res_pos.reference_flip_prob, res_neg.reference_flip_prob, atol=1e-12
    )
    for a, b in zip(res_pos.records, res_neg.records):
        for field in (
            "p_plus", "p_minus", "p_h_given_plus", "p_h_given_minus",
            "a2_plus", "a2_minus",
        ):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None)
            if x is not None:
                assert abs(x - y) < 1e-12


def test_port_fringe_closed_forms():
    # P(+) = 2TR(1 + v_d cos2theta0 cos(phi)); P(-) = (T^2+R^2)(1 - V cos(phi))
    rng = np.random.default_rng(41)
    for _ in range(200):
        theta0 = rng.uniform(0.0, 0.4)
        r = rng.uniform(0.2, 0.8)
        v_d = rng.uniform(0.0, 1.0)
        phase = rng.uniform(-30.0, 210.0)
        cfg = itf.ExperimentConfig(
            rotation=RotationSpec(theta0=theta0),
            beamsplitter=BeamSplitterSpec(reflectivity_h=r, reflectivity_v=r),
            retarder=RetarderSpec(),
            dephasing=DephasingSpec(v_d=v_d),
        )
        probs = itf.run_once(cfg, phase)
        t = 1.0 - r
        phi = np.radians(phase)
        cos2t = np.cos(2 * theta0)
        want_plus = 2 * t * r * (1 + v_d * cos2t * np.cos(phi))
        sig = t * t + r * r
        want_minus = sig * (1 - (2 * t * r * v_d * cos2t / sig) * np.cos(phi))
        assert abs(probs.port_probability("+") - want_plus) < 1e-12
        assert abs(probs.port_probability("-") - want_minus) < 1e-12
        # flip numerators: P(H,+) = 2TR sin^2(theta0) (1 - v_d cos phi)
        want_h_plus = 2 * t * r * np.sin(theta0) ** 2 * (1 - v_d * np.cos(phi))
        want_h_minus = np.sin(theta0) ** 2 * (sig + 2 * t * r * v_d * np.cos(phi))
        assert abs(probs.p_plus_h - want_h_plus) < 1e-12
        assert abs(probs.p_minus_h - want_h_minus) < 1e-12


def test_flip_numerators_sum_rule():
    # P(H,+) + P(H,-) = sin^2(theta0) regardless of phase, splitter or dephasing
    rng = np.random.default_rng(43)
    for _ in range(100):
        cfg = itf.ExperimentConfig(
            rotation=RotationSpec(theta0=rng.uniform(-0.4, 0.4)),
            beamsplitter=BeamSplitterSpec(
                reflectivity_h=rng.uniform(0.2, 0.8),
                reflectivity_v=rng.uniform(0.2, 0.8),
            ),
            retarder=RetarderSpec(
                phi_hv_path1=rng.uniform(-1.0, 1.0),
                phi_hv_path2=rng.uniform(-1.0, 1.0),
            ),
            dephasing=DephasingSpec(v_d=rng.uniform(0.0, 1.0)),
        )
        probs = itf.run_once(cfg, rng.uniform(-30.0, 210.0))
        assert abs(
            probs.p_plus_h + probs.p_minus_h - np.sin(cfg.rotation.theta0) ** 2
        ) < 1e-12


def test_gt_scan_follows_malus_curve():
    cfg = ideal_config()
    angles = np.linspace(-30.0, 30.0, 25)
    # path 1 polarization sits at +theta0 from V, so the scanned flip-axis
    # transmission is sin^2(delta - theta0): the dip locates the probe angle
    probs = itf.gt_scan(cfg, "+", 1, angles)
    expected = np.sin(np.radians(angles) - THETA0) ** 2
    assert np.allclose(probs, expected, atol=1e-12)
    # the port does not matter for a single open path, only the open path does
    assert np.allclose(itf.gt_scan(cfg, "-", 1, angles), expected, atol=1e-12)
    # path 2 is rotated the other way: dip at -theta0
    probs2 = itf.gt_scan(cfg, "+", 2, angles)
    expected2 = np.sin(np.radians(angles) + THETA0) ** 2
    assert np.allclose(probs2, expected2, atol=1e-12)
    with pytest.raises(ValueError):
        itf.gt_scan(cfg, "x", 1, angles)
    with pytest.raises(ValueError):
        itf.gt_scan(cfg, "+", 3, angles)


def test_outcome_probabilities_port_validation():
    probs = itf.run_once(ideal_config(), 45.0)
    with pytest.raises(ValueError):
        probs.port_probability("plus")


def test_sweep_result_requires_increasing_phases():
    rec = itf.DelocalizationRecord(
        phase_deg=0.0, p_plus=0.5, p_minus=0.5,
        p_h_given_plus=0.1, p_h_given_minus=0.1, a2_plus=1.0, a2_minus=1.0,
    )
    rec2 = dataclasses.replace(rec, phase_deg=-1.0)
    with pytest.raises(ValueError):
        itf.SweepResult(records=(rec, rec2), reference_flip_prob=0.015)


@pytest.mark.parametrize("phase", [np.float32(10.0), np.int64(3), np.float64(10.0), 3])
def test_run_once_accepts_real_scalars(phase):
    cfg = ideal_config(dephasing=DephasingSpec(v_d=0.9))
    probs = itf.run_once(
        cfg, phase, analyzer_plus_deg=np.float32(2.0), analyzer_minus_deg=np.int64(-1)
    )
    want = itf.run_once(cfg, float(phase), analyzer_plus_deg=2.0, analyzer_minus_deg=-1.0)
    assert probs == want


@pytest.mark.parametrize("value", [True, np.bool_(False), float("nan"), float("inf"), "10"])
def test_run_once_rejects_non_real_angles(value):
    cfg = ideal_config()
    with pytest.raises(ValueError, match="phase_deg out of range"):
        itf.run_once(cfg, value)
    with pytest.raises(ValueError, match="analyzer_plus_deg out of range"):
        itf.run_once(cfg, 0.0, analyzer_plus_deg=value)


def test_joint_probabilities_matches_run_once():
    cfg = ideal_config(
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.6, reflectivity_v=0.45),
        retarder=RetarderSpec(phi_hv_path1=0.2, phi_hv_path2=-0.1),
        dephasing=DephasingSpec(v_d=0.8),
        gt_compensation_plus=1.5,
        gt_compensation_minus=-0.5,
    )
    phases = cfg.phase_grid.phases_deg()
    for blocked in itf.BLOCK_LABELS:
        table = itf.joint_probabilities(cfg, phases, blocked)
        assert table.shape == (len(phases), 4)
        for phase, row in zip(phases, table.tolist()):
            assert itf.OutcomeProbabilities.from_row(row) == itf.run_once(cfg, phase, blocked)


def test_joint_probabilities_rejects_bad_inputs():
    cfg = ideal_config()
    with pytest.raises(ValueError, match="blocked"):
        itf.joint_probabilities(cfg, [0.0], "path3")
    for phases in ([0.0, float("inf")], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="phases_deg"):
            itf.joint_probabilities(cfg, phases)


@pytest.mark.parametrize("key", ["photon_rate", "dark_rate_plus", "dark_rate_minus", "duration"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_config_rejects_non_finite_rates(key, value):
    with pytest.raises(ValueError, match=f"{key} out of range"):
        itf.ExperimentConfig(**{key: value})


@pytest.mark.parametrize(
    "overrides,dark_key",
    [
        ({"photon_rate": 1e30}, "dark_rate_minus"),
        ({"duration": 1e17}, "dark_rate_minus"),
        ({"dark_rate_plus": 1e17, "dark_rate_minus": 1.0}, "dark_rate_plus"),
    ],
)
def test_config_rejects_poisson_means_beyond_numpy(overrides, dark_key):
    with pytest.raises(ValueError, match=rf"\(photon_rate \+ {dark_key}\) \* duration"):
        itf.ExperimentConfig(**overrides)
    # the largest mean numpy accepts still passes, and draws
    limit = itf._POISSON_LAM_MAX
    cfg = itf.ExperimentConfig(photon_rate=limit / 2.0 - 800.0, duration=2.0)
    np.random.default_rng(0).poisson((cfg.photon_rate + cfg.dark_rate_minus) * cfg.duration)


def test_final_state_is_the_branch_mixture():
    cfg = ideal_config(
        beamsplitter=BeamSplitterSpec(reflectivity_h=0.6, reflectivity_v=0.45),
        retarder=RetarderSpec(phi_hv_path1=0.3),
        dephasing=DephasingSpec(v_d=0.7),
    )
    for blocked in itf.BLOCK_LABELS:
        rho = itf.final_state(cfg, 40.0, blocked)
        qstate.validate_density(rho)
        probs = itf.run_once(cfg, 40.0, blocked)
        assert abs(np.trace(rho).real - probs.survival) < 1e-15
        # with zero compensation the analyzers read the diagonal
        diagonal = [probs.p_minus_h, probs.p_minus_v, probs.p_plus_h, probs.p_plus_v]
        assert np.allclose(np.diag(rho).real, diagonal, atol=1e-15, rtol=0.0)
    # without dephasing the state stays pure; dephasing mixes it
    pure = itf.final_state(dataclasses.replace(cfg, dephasing=DephasingSpec(v_d=1.0)), 40.0)
    assert abs(np.trace(pure @ pure).real - 1.0) < 1e-14
    mixed = itf.final_state(cfg, 40.0)
    assert np.trace(mixed @ mixed).real < 1.0 - 1e-3
