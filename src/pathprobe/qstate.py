"""Validated density operators and projectors for the post-selected path formulas.

The exact interferometer model does not use this module: it is an
amplitude engine in ``interferometer`` that never builds an operator.  What
stays here serves the 2x2 theory route (``interferometer.weak_a_squared``
and its ``counterfactual_ratio`` cross-check): state vectors and their
density operators, Hermiticity and projector predicates, density
validation, and outcome probabilities.  Dimensions 2 (path) and 4
(path (x) polarization, ordered |1,H>, |1,V>, |2,H>, |2,V>) are accepted;
everything is dense and checked on entry against ``ATOL``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

ATOL = 1e-12
PSD_ATOL = 1e-10

_DIMS = (2, 4)


def ket(amplitudes: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Validate a state vector: dim 2 or 4, finite, squared norm <= 1."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape not in ((2,), (4,)):
        raise ValueError(f"state vector must have dimension 2 or 4, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state vector has non-finite amplitudes")
    norm2 = float(np.vdot(psi, psi).real)
    if norm2 > 1.0 + 1e-9:
        raise ValueError(f"state vector squared norm {norm2} exceeds 1")
    return psi


def pure_density(psi: Sequence[complex] | np.ndarray) -> np.ndarray:
    """|psi><psi| for a (possibly subnormalized) state vector."""
    psi = ket(psi)
    return np.outer(psi, psi.conj())


def _square(op, name: str = "operator") -> np.ndarray:
    m = np.asarray(op, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _DIMS:
        raise ValueError(f"{name} must be a square 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def is_hermitian(op, atol: float = ATOL) -> bool:
    m = _square(op)
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def is_projector(op, atol: float = ATOL) -> bool:
    m = _square(op)
    return is_hermitian(m, atol) and bool(np.max(np.abs(m @ m - m)) <= atol)


def validate_density(rho, atol: float = ATOL) -> np.ndarray:
    """Check Hermiticity, trace in [0, 1] and positivity; return the array."""
    m = _square(rho, "density operator")
    if not is_hermitian(m, atol):
        raise ValueError("density operator is not Hermitian")
    tr = float(np.trace(m).real)
    if not -atol <= tr <= 1.0 + atol:
        raise ValueError(f"density operator trace {tr} outside [0, 1]")
    if float(np.linalg.eigvalsh(m).min()) < -PSD_ATOL:
        raise ValueError("density operator has a negative eigenvalue")
    return m


def outcome_probability(rho, projector) -> float:
    """Tr(P rho), clamped into [0, 1]; values outside the tolerance band raise."""
    m = _square(rho, "state")
    p = _square(projector, "projector")
    if not is_projector(p):
        raise ValueError("operator is not a projector")
    if m.shape != p.shape:
        raise ValueError(f"dimension mismatch: state {m.shape} vs operator {p.shape}")
    value = float(np.trace(p @ m).real)
    if value < -ATOL or value > 1.0 + ATOL:
        raise ValueError(f"outcome probability {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)
