"""Tests for the 2x2 / 4x4 state helpers, and for the state-space physics
the amplitude engine took over from the density-matrix layer.

The engine in ``interferometer`` evolves four amplitudes instead of 4x4
density operators.  Tests of the deleted operator helpers (basis index,
basis ket, tensor product, unitary and channel evolution, blocker
projection, partial trace, renormalization) check the same physics on the
engine: the amplitude layout, the input state, conservation of
probability, the dephasing mixture and conditioning on survival.
"""

import math

import numpy as np
import pytest

from pathprobe import interferometer as itf
from pathprobe import qstate
from pathprobe.optics import BeamSplitterSpec, DephasingSpec, RetarderSpec, RotationSpec


def config(theta0=0.0, r_h=0.5, r_v=0.5, phi1=0.0, phi2=0.0, v_d=1.0):
    return itf.ExperimentConfig(
        rotation=RotationSpec(theta0=theta0),
        beamsplitter=BeamSplitterSpec(reflectivity_h=r_h, reflectivity_v=r_v),
        retarder=RetarderSpec(phi_hv_path1=phi1, phi_hv_path2=phi2),
        dephasing=DephasingSpec(v_d=v_d),
    )


def test_joint_index_layout():
    # amplitude index 2 * (path - 1) + pol with pol H = 0, V = 1: a V photon
    # through a balanced splitter with path 2 blocked exits as V in both
    # output paths, at indices 1 and 3
    weights, amps = itf._branch_amplitudes(config(), (0.0,), "path2")
    assert amps.shape == (2, 1, 4)
    assert np.allclose(amps[0, 0], [0.0, 0.5, 0.0, 0.5j], atol=1e-15)
    # an H component (probe rotation) fills indices 0 and 2
    _, amps = itf._branch_amplitudes(config(theta0=0.4), (0.0,), "path2")
    assert np.all(np.abs(amps[0, 0, [0, 2]]) > 0.1)


def test_basis_ket():
    # the photon enters as |1,V>: without a probe rotation no H appears at
    # any phase, and the path-1-only run keeps the transmitted share T_v
    rng = np.random.default_rng(12)
    for _ in range(10):
        r_h, r_v = rng.uniform(0.05, 0.95, size=2)
        cfg = config(r_h=r_h, r_v=r_v, phi1=rng.uniform(-1, 1), phi2=rng.uniform(-1, 1))
        for blocked in itf.BLOCK_LABELS:
            probs = itf.joint_probabilities(cfg, np.linspace(-180.0, 180.0, 9), blocked)
            assert np.all(probs[:, [0, 2]] == 0.0)
        assert abs(itf.run_once(cfg, 0.0, "path2").survival - (1.0 - r_v)) < 1e-15


def test_ket_accepts_subnormalized():
    psi = qstate.ket([0.6, 0.0, 0.0, 0.0])
    assert np.allclose(psi, [0.6, 0, 0, 0])
    with pytest.raises(ValueError):
        qstate.ket([1.0, 1.0])
    with pytest.raises(ValueError):
        qstate.ket([1.0, 0.0, 0.0])


def test_pure_density_is_projector_times_norm():
    psi = qstate.ket([1 / np.sqrt(2), 1j / np.sqrt(2)])
    rho = qstate.pure_density(psi)
    assert np.allclose(rho, rho.conj().T)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.allclose(rho @ rho, rho)


def test_hermitian_unitary_projector_predicates():
    h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    assert qstate.is_hermitian(h)
    assert not qstate.is_hermitian(h + 1e-6 * np.array([[0, 1], [0, 0]]))
    p = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    assert qstate.is_projector(p)
    assert not qstate.is_projector(1.0000001 * p)
    # unitarity is no longer a predicate on operators: the circuit conserves
    # probability on every unblocked run
    probs = itf.joint_probabilities(
        config(theta0=0.3, r_h=0.6, r_v=0.45, phi1=0.5, v_d=0.7), np.linspace(-180, 180, 25)
    )
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-15, rtol=0.0)


def test_validate_density_catches_bad_inputs():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    qstate.validate_density(good)
    with pytest.raises(ValueError):
        qstate.validate_density(np.eye(4))  # trace 4 > 1
    with pytest.raises(ValueError):
        qstate.validate_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    bad = good.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        qstate.validate_density(bad)


def test_tensor_product_block_structure():
    # path (x) polarization: path elements act on the path factor only.  With
    # a polarization-independent splitter the polarization of one open path
    # reaches both exit ports unchanged, so P(H | port) is the same at both
    cfg = config(theta0=0.25, r_h=0.35, r_v=0.35, phi1=0.4, phi2=-0.3, v_d=0.6)
    for blocked in ("path1", "path2"):
        probs = itf.run_once(cfg, 50.0, blocked)
        flip_plus = itf.conditional_flip_probability(probs, "+")
        flip_minus = itf.conditional_flip_probability(probs, "-")
        assert abs(flip_plus - math.sin(0.25) ** 2) < 1e-15
        assert abs(flip_minus - flip_plus) < 1e-15


def test_evolution_preserves_trace():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cfg = config(
            theta0=rng.uniform(-1.5, 1.5),
            r_h=rng.uniform(0.05, 0.95),
            r_v=rng.uniform(0.05, 0.95),
            phi1=rng.uniform(-np.pi, np.pi),
            phi2=rng.uniform(-np.pi, np.pi),
            v_d=rng.uniform(0.0, 1.0),
        )
        probs = itf.run_once(cfg, rng.uniform(-360.0, 360.0))
        assert abs(probs.survival - 1.0) < 1e-14
        values = [probs.p_plus_h, probs.p_plus_v, probs.p_minus_h, probs.p_minus_v]
        assert all(0.0 <= p <= 1.0 for p in values)


def test_evolve_unitary_rejects_nonunitary():
    # the engine builds no operators to check; non-unitary or non-physical
    # elements are rejected where their parameters enter
    with pytest.raises(ValueError):
        BeamSplitterSpec(reflectivity_h=1.5)  # sqrt(1 - R) not real
    with pytest.raises(ValueError):
        DephasingSpec(v_d=1.5)  # negative branch weight
    with pytest.raises(ValueError):
        itf.joint_probabilities(config(), [0.0, float("nan")])


def test_evolve_channel_trace_preserving():
    v_d = 0.7
    weights, _ = itf._branch_amplitudes(config(v_d=v_d), (0.0,))
    assert np.allclose(weights, [(1 + v_d) / 2, (1 - v_d) / 2])
    assert abs(weights.sum() - 1.0) < 1e-15
    probs = itf.joint_probabilities(config(theta0=0.2, v_d=v_d), [0.0, 90.0, 180.0])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-15, rtol=0.0)
    # coherences between paths shrink by v_d: so does the fringe
    full = itf.joint_probabilities(config(theta0=0.2), [0.0, 180.0])
    assert np.allclose(probs[0] - probs[2], v_d * (full[0] - full[1]), atol=1e-15)


def test_apply_projector_and_probability():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    prob = qstate.outcome_probability(rho, proj)
    assert np.isclose(prob, 0.5)
    # a blocker projects out one path: the run survives with the
    # probability the entry splitter gave the open path
    cfg = config(r_v=0.3)
    assert abs(itf.run_once(cfg, 0.0, "path1").survival - 0.3) < 1e-15
    assert abs(itf.run_once(cfg, 0.0, "path2").survival - 0.7) < 1e-15
    with pytest.raises(ValueError):
        qstate.outcome_probability(rho, 2.0 * proj)


def test_outcome_probability_clamps_rounding():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = -1e-14  # tiny negative from upstream rounding
    rho[1, 1] = 1.0
    proj = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert qstate.outcome_probability(rho, proj) == 0.0


def test_trace_out_polarization():
    # summing the analyzer outcomes traces out polarization: the path
    # (port) probability does not depend on the analyzer angle and follows
    # the closed form P(+) = 2TR(1 + v_d cos(2 theta0) cos(phi))
    theta0, r, v_d, phase = 0.2, 0.4, 0.8, 30.0
    cfg = config(theta0=theta0, r_h=r, r_v=r, v_d=v_d)
    angles = np.linspace(-90.0, 90.0, 19)
    probs = itf.joint_probabilities(cfg, [phase], "none", angles, angles)
    want = 2 * (1 - r) * r * (1 + v_d * math.cos(2 * theta0) * math.cos(math.radians(phase)))
    assert np.allclose(probs[:, 0] + probs[:, 1], want, atol=1e-15, rtol=0.0)
    assert np.allclose(probs[:, 2] + probs[:, 3], 1.0 - want, atol=1e-15, rtol=0.0)


def test_renormalize():
    # conditioning on survival: the joint probabilities of a blocked run
    # over its survival probability form a distribution
    cfg = config(theta0=0.3, r_h=0.6, r_v=0.3, phi1=0.2)
    for blocked in ("path1", "path2"):
        probs = itf.run_once(cfg, 0.0, blocked)
        values = np.array([probs.p_plus_h, probs.p_plus_v, probs.p_minus_h, probs.p_minus_v])
        assert probs.survival < 1.0
        assert abs(np.sum(values / probs.survival) - 1.0) < 1e-15
