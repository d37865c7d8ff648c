"""Tests for the element specs and for each element as the engine applies it.

There are no operator constructors: the amplitude engine in
``interferometer`` applies every element with the conventions documented
in ``optics``.  Each element test checks that convention on the engine's
amplitudes or probabilities, against closed forms or the independent
``closedform`` oracle.
"""

import cmath
import math

import numpy as np
import pytest

import closedform
from pathprobe import analysis
from pathprobe import interferometer as itf
from pathprobe import optics


def config(theta0=0.0, r_h=0.5, r_v=0.5, phi1=0.0, phi2=0.0, v_d=1.0, **kwargs):
    return itf.ExperimentConfig(
        rotation=optics.RotationSpec(theta0=theta0),
        beamsplitter=optics.BeamSplitterSpec(reflectivity_h=r_h, reflectivity_v=r_v),
        retarder=optics.RetarderSpec(phi_hv_path1=phi1, phi_hv_path2=phi2),
        dephasing=optics.DephasingSpec(v_d=v_d),
        **kwargs,
    )


def amplitudes(cfg, phases=(0.0,), blocked="none"):
    """Branch-0 output amplitudes, (n, 4) in (1,H), (1,V), (2,H), (2,V) order."""
    return itf._branch_amplitudes(cfg, phases, blocked)[1][0]


def test_rotation_matrix_columns():
    # R(theta) sends the V input to -sin|H> + cos|V>.  With one path open
    # and a balanced splitter, output path 1 carries that vector times 1/2
    # (path 1 transmitted twice) or -1/2 (path 2 reflected twice, i*i).
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    cfg = config(theta0=theta)
    path1_only = amplitudes(cfg, blocked="path2")[0]
    assert np.allclose(path1_only[0:2], 0.5 * np.array([-s, c]), atol=1e-15)
    # path 2 applies R(-theta): V -> +sin|H> + cos|V>
    path2_only = amplitudes(cfg, blocked="path1")[0]
    assert np.allclose(path2_only[0:2], -0.5 * np.array([s, c]), atol=1e-15)


def test_beam_splitter_unitary_structure():
    # [[sqrt(T), i sqrt(R)], [i sqrt(R), sqrt(T)]] per polarization, read off
    # a path-1-only run: transmitted twice to output path 1, transmitted
    # then reflected to output path 2.
    r_h, r_v = 0.6, 0.4
    theta = 0.5
    c, s = math.cos(theta), math.sin(theta)
    out = amplitudes(config(theta0=theta, r_h=r_h, r_v=r_v), blocked="path2")[0]
    t_v = math.sqrt(1.0 - r_v)
    assert np.isclose(out[0], math.sqrt(1.0 - r_h) * (-s * t_v), atol=1e-15)
    assert np.isclose(out[1], t_v * (c * t_v), atol=1e-15)
    assert np.isclose(out[2], 1j * math.sqrt(r_h) * (-s * t_v), atol=1e-15)
    assert np.isclose(out[3], 1j * math.sqrt(r_v) * (c * t_v), atol=1e-15)
    # no polarization mixing: without the probe rotation no H ever appears
    probs = itf.joint_probabilities(config(r_h=r_h, r_v=r_v), np.linspace(-180, 180, 13))
    assert np.all(probs[:, [0, 2]] == 0.0)
    # unitarity: unblocked runs conserve probability for any element values
    rng = np.random.default_rng(5)
    for _ in range(50):
        cfg = config(
            theta0=rng.uniform(-1.5, 1.5),
            r_h=rng.uniform(0.01, 0.99),
            r_v=rng.uniform(0.01, 0.99),
            phi1=rng.uniform(-3.0, 3.0),
            phi2=rng.uniform(-3.0, 3.0),
            v_d=rng.uniform(0.0, 1.0),
            gt_compensation_plus=rng.uniform(-90.0, 90.0),
            gt_compensation_minus=rng.uniform(-90.0, 90.0),
        )
        probs = itf.joint_probabilities(cfg, rng.uniform(-360.0, 360.0, size=7))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-14, rtol=0.0)


def test_balanced_beam_splitter_splits_evenly():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cfg = config(
            theta0=rng.uniform(-1.0, 1.0),
            phi1=rng.uniform(-1.0, 1.0),
            phi2=rng.uniform(-1.0, 1.0),
        )
        for blocked in ("path1", "path2"):
            probs = itf.run_once(cfg, rng.uniform(-180.0, 180.0), blocked)
            # the entry splitter sends half of the photons into each path,
            # and the exit splitter divides the survivors evenly
            assert abs(probs.survival - 0.5) < 1e-15
            assert abs(probs.port_probability("+") - 0.25) < 1e-15
            assert abs(probs.port_probability("-") - 0.25) < 1e-15


def test_phase_shifter_acts_on_path2_only():
    phases = np.array([0.0, 37.0, 90.0, 180.0, -123.0])
    factor = np.exp(-1j * np.radians(phases))[:, None]
    cfg = config(theta0=0.2, r_h=0.55, r_v=0.45, phi1=0.3, phi2=-0.5, v_d=0.8)
    path1_only = amplitudes(cfg, phases, "path2")
    assert np.allclose(path1_only, path1_only[0], atol=1e-15)
    path2_only = amplitudes(cfg, phases, "path1")
    assert np.allclose(path2_only, factor * path2_only[0], atol=1e-15)
    # so blocked runs do not depend on the phase, and interference does
    for blocked in ("path1", "path2"):
        probs = itf.joint_probabilities(cfg, phases, blocked)
        assert np.allclose(probs, probs[0], atol=1e-15, rtol=0.0)
    open_probs = itf.joint_probabilities(cfg, phases)
    assert np.ptp(open_probs[:, 1]) > 0.1


def test_hwp_rotation_unitary_signs():
    # R(+theta0) in path 1 turns V onto the V axis of an analyzer at
    # +theta0, so that analyzer transmits no H from path 1; path 2 is
    # rotated the other way.
    for theta0 in (0.2, -0.35):
        cfg = config(theta0=theta0)
        deg = math.degrees(theta0)
        for port in itf.PORTS:
            assert itf.gt_scan(cfg, port, 1, [deg])[0] < 1e-15
            assert itf.gt_scan(cfg, port, 2, [-deg])[0] < 1e-15
            assert itf.gt_scan(cfg, port, 2, [deg])[0] > 0.1
    # and the whole sign convention agrees with the oracle
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = config(theta0=rng.uniform(-1.5, 1.5), r_h=0.6, r_v=0.45, v_d=0.9)
        phase = rng.uniform(-180.0, 180.0)
        for blocked in itf.BLOCK_LABELS:
            probs = itf.run_once(cfg, phase, blocked)
            for key, want in closedform.from_config(cfg, phase, blocked).items():
                assert abs(getattr(probs, key) - want) < 1e-14


def test_elliptical_retarder_unitary():
    # diag(1, e^{i phi_k}) on the polarization of path k: with one path open
    # the V/H amplitude ratio at an exit carries e^{i phi_k}
    theta0, phi1, phi2 = 0.3, 0.3, -0.5
    cot = 1.0 / math.tan(theta0)
    cfg = config(theta0=theta0, phi1=phi1, phi2=phi2)
    for blocked, want in (
        ("path2", -cot * cmath.exp(1j * phi1)),
        ("path1", cot * cmath.exp(1j * phi2)),
    ):
        out = amplitudes(cfg, blocked=blocked)[0]
        assert abs(out[1] / out[0] - want) < 1e-14
        assert abs(out[3] / out[2] - want) < 1e-14
    # the circular component follows the documented sign: positive for
    # path 1 with positive theta0 and phi_hv_path1
    assert analysis.stokes_rl(config(theta0=0.1, phi1=0.2), 1, "+").s_rl > 0.0
    rng = np.random.default_rng(8)
    for _ in range(20):
        cfg = config(theta0=0.2, phi1=rng.uniform(-3.0, 3.0), phi2=rng.uniform(-3.0, 3.0))
        phase = rng.uniform(-180.0, 180.0)
        probs = itf.run_once(cfg, phase)
        for key, want in closedform.from_config(cfg, phase).items():
            assert abs(getattr(probs, key) - want) < 1e-14


def test_dephasing_kraus_completeness_and_action():
    cfg0 = config(theta0=0.15)
    full = itf.joint_probabilities(cfg0, [0.0, 180.0])
    for v_d in (0.0, 0.37, 1.0):
        cfg = config(theta0=0.15, v_d=v_d)
        weights, _ = itf._branch_amplitudes(cfg, (0.0,))
        # a trace-preserving mixture: weights are probabilities summing to 1
        assert np.all(weights >= 0.0)
        assert weights.sum() == 1.0
        probs = itf.joint_probabilities(cfg, [0.0, 180.0])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-15, rtol=0.0)
        # the fringe (the cross-path coherence) shrinks by v_d, the path
        # populations (blocked runs) do not change
        fringe = probs[0] - probs[1]
        assert np.allclose(fringe, v_d * (full[0] - full[1]), atol=1e-15, rtol=0.0)
        for blocked in ("path1", "path2"):
            assert np.allclose(
                itf.joint_probabilities(cfg, [0.0], blocked),
                itf.joint_probabilities(cfg0, [0.0], blocked),
                atol=1e-16,
                rtol=0.0,
            )


def test_analyzer_axis_vectors():
    # H axis cos|H> + sin|V> and V axis -sin|H> + cos|V>: on the V-polarized
    # state (no probe rotation) the analyzer at delta passes sin^2(delta)
    # as H and cos^2(delta) as V, per unit port probability
    cfg = config()
    for delta in (10.0, -33.0, 90.0):
        probs = itf.run_once(cfg, 45.0, analyzer_plus_deg=delta, analyzer_minus_deg=delta)
        for port, p_h, p_v in (
            ("+", probs.p_plus_h, probs.p_plus_v),
            ("-", probs.p_minus_h, probs.p_minus_v),
        ):
            total = probs.port_probability(port)
            assert abs(p_h - total * math.sin(math.radians(delta)) ** 2) < 1e-15
            assert abs(p_v - total * math.cos(math.radians(delta)) ** 2) < 1e-15
    rng = np.random.default_rng(9)
    for _ in range(20):
        cfg = config(theta0=rng.uniform(-1.0, 1.0), phi1=0.4, phi2=-0.2, r_h=0.6)
        d_plus, d_minus = rng.uniform(-90.0, 90.0, size=2)
        probs = itf.run_once(cfg, 30.0, "none", d_plus, d_minus)
        want = closedform.outcome_probabilities(
            cfg.rotation.theta0, 30.0, r_h=0.6, phi1=0.4, phi2=-0.2,
            comp_plus=d_plus, comp_minus=d_minus,
        )
        for key, value in want.items():
            assert abs(getattr(probs, key) - value) < 1e-14


def test_polarizer_projector_is_projector():
    # the two analyzer outcomes at a port are exclusive and complete: they
    # split the port probability whatever the analyzer angle
    cfg = config(theta0=0.3, r_h=0.6, r_v=0.45, phi1=0.7, v_d=0.6)
    angles = np.linspace(-90.0, 90.0, 37)
    for blocked in itf.BLOCK_LABELS:
        reference = itf.joint_probabilities(cfg, [40.0], blocked)[0]
        probs = itf.joint_probabilities(cfg, [40.0], blocked, angles, angles[::-1])
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.allclose(probs[:, 0] + probs[:, 1], reference[0] + reference[1], atol=1e-15)
        assert np.allclose(probs[:, 2] + probs[:, 3], reference[2] + reference[3], atol=1e-15)


def test_blocker_projector_semantics():
    # the label names the blocked path; the survivors are the photons the
    # entry splitter sent into the other path
    rng = np.random.default_rng(10)
    for _ in range(20):
        r_v = rng.uniform(0.05, 0.95)
        cfg = config(theta0=rng.uniform(-1.0, 1.0), r_h=rng.uniform(0.05, 0.95), r_v=r_v)
        phase = rng.uniform(-180.0, 180.0)
        assert abs(itf.run_once(cfg, phase, "path1").survival - r_v) < 1e-15
        assert abs(itf.run_once(cfg, phase, "path2").survival - (1.0 - r_v)) < 1e-15
    with pytest.raises(ValueError):
        itf.run_once(config(), 0.0, "path3")
    with pytest.raises(ValueError):
        itf.joint_probabilities(config(), [0.0], "both")


def test_random_rotations_compose():
    # a probe rotation theta0 followed by an analyzer at delta acts as one
    # rotation by delta - theta0: the flip-axis transmission is
    # sin^2(delta - theta0) in path 1 and sin^2(delta + theta0) in path 2
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta0 = rng.uniform(-1.0, 1.0)
        deltas = rng.uniform(-90.0, 90.0, size=5)
        cfg = config(theta0=theta0)
        d = np.radians(deltas)
        assert np.allclose(itf.gt_scan(cfg, "+", 1, deltas), np.sin(d - theta0) ** 2, atol=1e-15)
        assert np.allclose(itf.gt_scan(cfg, "-", 2, deltas), np.sin(d + theta0) ** 2, atol=1e-15)


@pytest.mark.parametrize("field,value", [
    ("reflectivity_h", 0.0),
    ("reflectivity_h", 1.0),
    ("reflectivity_v", -0.1),
    ("reflectivity_v", 1.2),
])
def test_beam_splitter_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"{field} out of range"):
        optics.BeamSplitterSpec(**{field: value})


def test_rotation_spec_range():
    optics.RotationSpec(theta0=1.5)
    with pytest.raises(ValueError, match="theta0 out of range"):
        optics.RotationSpec(theta0=np.pi / 2)


def test_dephasing_spec_range():
    optics.DephasingSpec(v_d=0.0)
    optics.DephasingSpec(v_d=1.0)
    with pytest.raises(ValueError, match="v_d out of range"):
        optics.DephasingSpec(v_d=1.01)
    with pytest.raises(ValueError, match="v_d out of range"):
        optics.DephasingSpec(v_d=-0.01)
