"""Property tests of the exact model against the ``closedform`` oracle.

Hypothesis draws splitter reflectivities, probe rotations, retarder phases,
dephasing, analyzer compensation angles, phases and blocked labels.  The
runs are derandomized with a fixed example count, so the suite is
deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import closedform
from pathprobe import interferometer as itf
from pathprobe.optics import BeamSplitterSpec, DephasingSpec, RetarderSpec, RotationSpec

TOL = 1e-13
KEYS = ("p_plus_h", "p_plus_v", "p_minus_h", "p_minus_v", "survival")

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)

reflectivity = st.floats(0.01, 0.99)
retarder_phase = st.floats(-math.pi, math.pi)
angle_deg = st.floats(-360.0, 360.0)


@st.composite
def configs(draw, steps=2):
    return itf.ExperimentConfig(
        rotation=RotationSpec(theta0=draw(st.floats(-1.5, 1.5))),
        beamsplitter=BeamSplitterSpec(draw(reflectivity), draw(reflectivity)),
        retarder=RetarderSpec(draw(retarder_phase), draw(retarder_phase)),
        dephasing=DephasingSpec(v_d=draw(st.floats(0.0, 1.0))),
        gt_compensation_plus=draw(st.floats(-90.0, 90.0)),
        gt_compensation_minus=draw(st.floats(-90.0, 90.0)),
        phase_grid=itf.PhaseGrid(
            start_deg=draw(st.floats(-360.0, 0.0)),
            stop_deg=draw(st.floats(1.0, 360.0)),
            steps=draw(st.integers(2, steps)),
        ),
    )


@PROPERTY
@given(configs(), angle_deg, st.sampled_from(itf.BLOCK_LABELS))
def test_run_once_matches_oracle(config, phase, blocked):
    probs = itf.run_once(config, phase, blocked)
    oracle = closedform.from_config(config, phase, blocked)
    for key in KEYS:
        assert abs(getattr(probs, key) - oracle[key]) <= TOL, key
    values = [getattr(probs, key) for key in KEYS[:4]]
    assert all(0.0 <= p <= 1.0 for p in values)
    assert probs.survival == sum(values)


@settings(PROPERTY, max_examples=50)
@given(configs(steps=12))
def test_sweep_matches_oracle(config):
    result = itf.sweep(config)
    blocked_flips = []
    for blocked in ("path1", "path2"):
        oracle = closedform.from_config(config, 0.0, blocked)
        for key in ("plus", "minus"):
            port = oracle[f"p_{key}_h"] + oracle[f"p_{key}_v"]
            blocked_flips.append(oracle[f"p_{key}_h"] / port)
    reference = sum(blocked_flips) / 4.0
    assert abs(result.reference_flip_prob - reference) <= TOL
    assert result.phases_deg() == config.phase_grid.phases_deg()
    for record in result.records:
        oracle = closedform.from_config(config, record.phase_deg)
        for key in ("plus", "minus"):
            port = oracle[f"p_{key}_h"] + oracle[f"p_{key}_v"]
            p_port = getattr(record, f"p_{key}")
            assert abs(p_port - port) <= TOL
            flip = getattr(record, f"p_h_given_{key}")
            a2 = getattr(record, f"a2_{key}")
            assert (flip is None) == (p_port < 1e-9)
            if flip is None:
                assert a2 is None
                continue
            # conditionals divide by the port probability, which scales
            # the absolute error
            assert abs(flip - oracle[f"p_{key}_h"] / port) <= TOL / port
            assert 0.0 <= flip <= 1.0
            reference = result.reference_flip_prob
            assert a2 == (flip / reference if reference > 0.0 else None)


@PROPERTY
@given(
    configs(),
    st.sampled_from(itf.PORTS),
    st.sampled_from((1, 2)),
    st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=8),
)
def test_gt_scan_matches_oracle(config, port, open_path, angles):
    curve = itf.gt_scan(config, port, open_path, angles)
    blocked = "path2" if open_path == 1 else "path1"
    key = "plus" if port == "+" else "minus"
    for angle, value in zip(angles, curve):
        oracle = closedform.outcome_probabilities(
            config.rotation.theta0,
            0.0,
            r_h=config.beamsplitter.reflectivity_h,
            r_v=config.beamsplitter.reflectivity_v,
            phi1=config.retarder.phi_hv_path1,
            phi2=config.retarder.phi_hv_path2,
            v_d=config.dephasing.v_d,
            comp_plus=angle,
            comp_minus=angle,
            blocked=blocked,
        )
        port_probability = oracle[f"p_{key}_h"] + oracle[f"p_{key}_v"]
        assert abs(value - oracle[f"p_{key}_h"] / port_probability) <= TOL / port_probability
        assert 0.0 <= value <= 1.0
    assert isinstance(curve, np.ndarray) and curve.shape == (len(angles),)
