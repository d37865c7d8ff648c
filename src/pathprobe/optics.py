"""Parameter specs and sign conventions of the two-path circuit elements.

The specs validate element parameters at construction; the amplitude
engine in ``interferometer`` applies the elements with these conventions,
fixed once for the whole package:

* Beam splitter: per polarization p the 2x2 path block is
  [[sqrt(T_p), i*sqrt(R_p)], [i*sqrt(R_p), sqrt(T_p)]] with T_p = 1 - R_p,
  i.e. reflection carries the phase i.
* Phase shifter: multiplies path-2 amplitudes by exp(-i*phi).  Together with
  the beam-splitter convention this puts the bright fringe of the "+"
  output port (output path 2) at phi = 0.
* Polarization rotation R(theta): |H> -> cos|H> + sin|V> and
  |V> -> -sin|H> + cos|V>.  The wave plate pair applies R(+theta0) in
  path 1 and R(-theta0) in path 2.
* Elliptical retarder: per path k the polarization block diag(1, e^{i*phi_k}).
* Dephasing: keeps path populations and scales path coherences by the
  retention factor v_d; the engine writes it as the mixture, with weights
  (1 + v_d)/2 and (1 - v_d)/2, of the identity and of a sign flip on the
  path-2 amplitudes.
* Analyzer: the H-transmitting axis at angle theta_gt from H is
  cos|H> + sin|V>; the V-transmitting axis is its orthogonal complement.
* Blocker: removes the amplitudes of the blocked path, leaving a
  subnormalized state whose norm is the survival probability.

Angles here are radians; degree/radian conversion happens at the protocol
level (phase grids, analyzer settings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Intensity reflectivities per polarization, each strictly inside (0, 1)."""

    reflectivity_h: float = 0.5
    reflectivity_v: float = 0.5

    def __post_init__(self):
        for key in ("reflectivity_h", "reflectivity_v"):
            value = getattr(self, key)
            if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
                raise ValueError(f"{key} out of range: {value!r} (must be in (0, 1))")


@dataclass(frozen=True)
class RotationSpec:
    """Wave-plate rotation angle theta0 in radians; paths get +/-theta0."""

    theta0: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.theta0, (int, float)) and math.isfinite(self.theta0)):
            raise ValueError(f"theta0 out of range: {self.theta0!r}")
        if abs(self.theta0) >= math.pi / 2:
            raise ValueError(f"theta0 out of range: {self.theta0!r} (|theta0| < pi/2)")


@dataclass(frozen=True)
class RetarderSpec:
    """Residual H/V phases per path, radians."""

    phi_hv_path1: float = 0.0
    phi_hv_path2: float = 0.0

    def __post_init__(self):
        for key in ("phi_hv_path1", "phi_hv_path2"):
            value = getattr(self, key)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{key} out of range: {value!r}")


@dataclass(frozen=True)
class DephasingSpec:
    """Path-coherence retention factor v_d in [0, 1]; 1 means no dephasing."""

    v_d: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.v_d, (int, float)) and 0.0 <= self.v_d <= 1.0):
            raise ValueError(f"v_d out of range: {self.v_d!r} (must be in [0, 1])")
