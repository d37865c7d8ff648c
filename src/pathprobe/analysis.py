"""Fits and calibration extraction for sweep and analyzer-scan data.

All interfaces take and return degrees; radians are used internally.  Both
fits run a damped Gauss-Newton iteration from a coarse-grid initialization
and declare convergence when the relative parameter change drops below
1e-10.  Covariances are (J^T W J)^-1 for weighted fits and are scaled by
the residual variance when no sigmas are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import interferometer
from .interferometer import ExperimentConfig, SweepResult, UndefinedConditionalError
from .optics import DephasingSpec

_RTOL = 1e-10
_MAX_ITER = 200


class FitError(RuntimeError):
    """A least-squares fit failed to converge."""


class CalibrationError(RuntimeError):
    """A calibration quantity could not be extracted from the data."""


@dataclass(frozen=True)
class FringeFit:
    """A*cos(phase - phase_offset) + offset, phase_offset in degrees."""

    amplitude: float
    phase_offset_deg: float
    offset: float
    visibility: float
    visibility_sigma: float
    covariance: np.ndarray
    iterations: int


@dataclass(frozen=True)
class GTFit:
    """A*cos(n*(theta - theta_gt0)) + offset on analyzer-angle data.

    ``frequency`` is n in radian convention (2 for a Malus-law curve).
    ``degenerate`` flags data with no usable modulation.
    """

    amplitude: float
    frequency: float
    theta_gt0_deg: float
    offset: float
    covariance: np.ndarray
    iterations: int
    degenerate: bool = False


@dataclass(frozen=True)
class SRLRecord:
    """Circular polarization component of one blocked-path output."""

    path: int
    port: str
    s_rl: float
    sigma: float


def _damped_gauss_newton(resid_jac, p0: np.ndarray):
    """Minimize ||r(p)||^2; returns (params, final jacobian, cost, iterations)."""
    p = np.asarray(p0, dtype=float)
    r, jac = resid_jac(p)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise FitError("non-finite cost at the initial parameters")
    lam = 1e-6
    for iteration in range(1, _MAX_ITER + 1):
        a = jac.T @ jac
        g = jac.T @ r
        step = None
        for _ in range(60):
            damp = np.diag(np.maximum(np.diag(a), 1e-30))
            try:
                candidate_step = np.linalg.solve(a + lam * damp, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = p + candidate_step
            r_c, jac_c = resid_jac(candidate)
            cost_c = float(r_c @ r_c)
            if math.isfinite(cost_c) and cost_c <= cost * (1.0 + 1e-14) + 1e-300:
                step = candidate_step
                p, r, jac, cost = candidate, r_c, jac_c, cost_c
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            # No damping level lowers the cost: the iterate sits at a
            # numerical minimum already.
            return p, jac, cost, iteration
        rel = float(np.linalg.norm(step) / (np.linalg.norm(p) + 1e-30))
        if rel < _RTOL:
            return p, jac, cost, iteration
    raise FitError(f"no convergence after {_MAX_ITER} iterations (cost {cost:.3e})")


def _covariance(jac: np.ndarray, cost: float, n_points: int, absolute: bool) -> np.ndarray:
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    if not absolute:
        dof = max(n_points - jac.shape[1], 1)
        cov = cov * (cost / dof)
    return cov


def _fit_inputs(x_deg, y, sigmas, minimum: int, name: str):
    x = np.asarray(x_deg, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"{name}: angle and value arrays must be 1-d and equal length")
    if len(x) < minimum:
        raise ValueError(f"{name}: need at least {minimum} points, got {len(x)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{name}: non-finite input")
    if sigmas is None:
        w = np.ones_like(y)
        absolute = False
    else:
        s = np.asarray(sigmas, dtype=float)
        if s.shape != y.shape or np.any(~np.isfinite(s)) or np.any(s <= 0):
            raise ValueError(f"{name}: sigmas must be positive, finite and match the data")
        w = 1.0 / s
        absolute = True
    return x, y, w, absolute


def fit_fringe(phases_deg, probs, sigmas=None) -> FringeFit:
    """Weighted least-squares fringe fit A*cos(phi - phi0) + A0.

    Needs at least 4 points spanning at least 120 degrees.  The amplitude is
    normalized to A >= 0 (absorbing sign flips into phi0) and the visibility
    is A / A0.
    """
    x_deg, y, w, absolute = _fit_inputs(phases_deg, probs, sigmas, 4, "fit_fringe")
    if float(x_deg.max() - x_deg.min()) < 120.0:
        raise ValueError("fit_fringe: phases must span at least 120 degrees")
    x = np.deg2rad(x_deg)

    best = None
    for phi0 in np.deg2rad(np.arange(-180.0, 180.0, 15.0)):
        basis = np.column_stack([np.cos(x - phi0), np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
        sse = float(np.sum((w * (y - basis @ coef)) ** 2))
        if best is None or sse < best[0]:
            best = (sse, np.array([coef[0], phi0, coef[1]]))
    p0 = best[1]

    def resid_jac(p):
        amp, phi0, off = p
        c = np.cos(x - phi0)
        s = np.sin(x - phi0)
        r = w * (amp * c + off - y)
        jac = np.column_stack([w * c, w * amp * s, w])
        return r, jac

    p, jac, cost, iterations = _damped_gauss_newton(resid_jac, p0)
    amp, phi0, off = p
    if amp < 0.0:
        amp, phi0 = -amp, phi0 + math.pi
    phi0 = math.remainder(phi0, 2.0 * math.pi)
    if phi0 >= math.pi:
        phi0 -= 2.0 * math.pi
    _, jac = resid_jac(np.array([amp, phi0, off]))
    cov = _covariance(jac, cost, len(x), absolute)

    if off <= 0.0:
        raise FitError(f"fitted offset {off} is not positive; no fringe baseline")
    visibility = amp / off
    grad = np.array([1.0 / off, 0.0, -amp / off**2])
    vis_var = float(grad @ cov @ grad)
    vis_sigma = math.sqrt(vis_var) if vis_var > 0 else 0.0

    deg = 180.0 / math.pi
    scale = np.diag([1.0, deg, 1.0])
    return FringeFit(
        amplitude=float(amp),
        phase_offset_deg=float(phi0 * deg),
        offset=float(off),
        visibility=float(visibility),
        visibility_sigma=vis_sigma,
        covariance=scale @ cov @ scale,
        iterations=iterations,
    )


def fit_gt_curve(analyzer_degs, probs, sigmas=None) -> GTFit:
    """Four-parameter analyzer-curve fit A*cos(n*(theta - theta0)) + A0.

    Needs at least 6 points.  Data without usable modulation come back with
    ``degenerate=True`` instead of a meaningless frequency.
    """
    x_deg, y, w, absolute = _fit_inputs(analyzer_degs, probs, sigmas, 6, "fit_gt_curve")
    x = np.deg2rad(x_deg)

    spread = float(y.max() - y.min())
    scale = max(abs(float(y.max())), abs(float(y.min())), 1e-12)
    if spread < 1e-9 * scale:
        cov = np.zeros((4, 4))
        return GTFit(
            amplitude=0.0,
            frequency=2.0,
            theta_gt0_deg=0.0,
            offset=float(y.mean()),
            covariance=cov,
            iterations=0,
            degenerate=True,
        )

    best = None
    for n in (1.0, 1.5, 2.0, 2.5, 3.0):
        period = math.pi / n
        for th0 in np.linspace(float(x.min()), float(x.min()) + period, 12, endpoint=False):
            basis = np.column_stack([np.cos(n * (x - th0)), np.ones_like(x)])
            coef, *_ = np.linalg.lstsq(basis * w[:, None], y * w, rcond=None)
            sse = float(np.sum((w * (y - basis @ coef)) ** 2))
            if best is None or sse < best[0]:
                best = (sse, np.array([coef[0], n, th0, coef[1]]))
    p0 = best[1]

    def resid_jac(p):
        amp, n, th0, off = p
        d = x - th0
        c = np.cos(n * d)
        s = np.sin(n * d)
        r = w * (amp * c + off - y)
        jac = np.column_stack([w * c, -w * amp * s * d, w * amp * s * n, w])
        return r, jac

    p, jac, cost, iterations = _damped_gauss_newton(resid_jac, p0)
    amp, n, th0, off = p
    if n < 0.0:
        n, th0 = -n, -th0
    cov = _covariance(jac, cost, len(x), absolute)
    deg = 180.0 / math.pi
    scale_m = np.diag([1.0, 1.0, deg, 1.0])
    return GTFit(
        amplitude=float(amp),
        frequency=float(n),
        theta_gt0_deg=float(math.degrees(th0)),
        offset=float(off),
        covariance=scale_m @ cov @ scale_m,
        iterations=iterations,
    )


def _gt_value(fit: GTFit, theta_deg: float) -> float:
    d = math.radians(theta_deg - fit.theta_gt0_deg)
    return fit.amplitude * math.cos(fit.frequency * d) + fit.offset


def compensation_angle(fit_path1: GTFit, fit_path2: GTFit, window_deg: float = 45.0) -> float:
    """Analyzer angle where the two fitted path curves intersect nearest 0.

    Solved by bisection on the fitted-model difference to 1e-6 degrees.
    Identical fits return 0 by convention; no intersection inside the
    window raises ``CalibrationError``.
    """
    if fit_path1.degenerate or fit_path2.degenerate:
        raise CalibrationError("cannot intersect a degenerate analyzer fit")

    def diff(theta: float) -> float:
        return _gt_value(fit_path1, theta) - _gt_value(fit_path2, theta)

    grid = np.linspace(-window_deg, window_deg, 4501)
    values = np.array([diff(t) for t in grid])
    scale = max(abs(fit_path1.amplitude), abs(fit_path2.amplitude), 1e-12)
    if float(np.max(np.abs(values))) < 1e-12 * scale:
        return 0.0

    candidates = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            candidates.append(float(grid[i]))
            continue
        if a * b < 0.0:
            lo, hi, f_lo = float(grid[i]), float(grid[i + 1]), a
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                f_mid = diff(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if (f_lo < 0.0) == (f_mid < 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            candidates.append(0.5 * (lo + hi))
    if values[-1] == 0.0:
        candidates.append(float(grid[-1]))
    if not candidates:
        raise CalibrationError(
            f"no intersection of the analyzer curves within +/-{window_deg} degrees"
        )
    return min(candidates, key=abs)


def stokes_rl(config: ExperimentConfig, path: int, port: str) -> SRLRecord:
    """Circular component P(R) - P(L) of the blocked-path state at a port.

    ``path`` is the open path.  Convention: |R> = (|H> - i|V>)/sqrt(2) and
    |L> = (|H> + i|V>)/sqrt(2), which makes the path-1 value positive for
    positive theta0 and positive phi_hv_path1.  Exact model, so sigma is 0.
    """
    if path not in (1, 2):
        raise ValueError(f"path must be 1 or 2, got {path!r}")
    if port not in interferometer.PORTS:
        raise ValueError(f"port must be '+' or '-', got {port!r}")
    blocked = "path2" if path == 1 else "path1"
    weights, amps = interferometer._branch_amplitudes(config, (0.0,), blocked)
    base = interferometer._PORT_BASE[port]
    h, v = amps[:, 0, base], amps[:, 0, base + 1]
    total = float(weights @ (np.abs(h) ** 2 + np.abs(v) ** 2))
    if total <= 0.0:
        raise UndefinedConditionalError(f"port {port} has zero probability")
    # |<R|psi>|^2 - |<L|psi>|^2 = 2 Im(h v*) for the amplitudes (h, v).
    p_r_minus_l = float(weights @ (2.0 * (h * v.conj()).imag))
    return SRLRecord(path=path, port=port, s_rl=p_r_minus_l / total, sigma=0.0)


def phase_offset_from_srl(delta_s_rl: float, theta0: float) -> float:
    """Fringe phase offset in degrees implied by a summed circular component.

    delta_s_rl is the sum of the two per-path circular components at one
    port; theta0 is the probe rotation in radians.
    """
    if not (isinstance(delta_s_rl, (int, float)) and math.isfinite(delta_s_rl)):
        raise ValueError(f"delta_s_rl out of range: {delta_s_rl!r}")
    if not (isinstance(theta0, (int, float)) and theta0 > 0.0 and math.isfinite(theta0)):
        raise ValueError(f"theta0 out of range: {theta0!r} (must be > 0)")
    return math.degrees(delta_s_rl / (2.0 * theta0))


def crossing_point(sweep_result: SweepResult, port: str) -> float:
    """Phase (degrees) where P(H|port) crosses the single-path reference.

    Linear interpolation between the bracketing grid points; with several
    crossings the one nearest 90 degrees wins.  Raises ``CalibrationError``
    when the sweep never crosses the reference (e.g. theta0 = 0).
    """
    if port not in interferometer.PORTS:
        raise ValueError(f"port must be '+' or '-', got {port!r}")
    key = "p_h_given_plus" if port == interferometer.PORT_PLUS else "p_h_given_minus"
    points = [
        (r.phase_deg, getattr(r, key) - sweep_result.reference_flip_prob)
        for r in sweep_result.records
        if getattr(r, key) is not None
    ]
    candidates = []
    for (x0, d0), (x1, d1) in zip(points, points[1:]):
        if d0 == 0.0 and d1 == 0.0:
            continue  # flat on the reference: no crossing information
        if d0 == 0.0:
            candidates.append(x0)
        elif d1 == 0.0:
            candidates.append(x1)
        elif d0 * d1 < 0.0:
            candidates.append(x0 - d0 * (x1 - x0) / (d1 - d0))
    if not candidates:
        raise CalibrationError(f"no crossing of the reference level at port {port}")
    return min(candidates, key=lambda x: abs(x - 90.0))


def fringe_series(sweep_result: SweepResult, port: str) -> tuple[np.ndarray, np.ndarray]:
    """(phases, port probabilities) of a sweep, for fringe fitting."""
    if port not in interferometer.PORTS:
        raise ValueError(f"port must be '+' or '-', got {port!r}")
    phases = np.array([r.phase_deg for r in sweep_result.records])
    key = "p_plus" if port == interferometer.PORT_PLUS else "p_minus"
    values = np.array([getattr(r, key) for r in sweep_result.records])
    return phases, values


def dephasing_for_visibility(config: ExperimentConfig, port: str, target: float) -> float:
    """Retention factor v_d that yields a target fitted fringe visibility.

    Every port probability is affine in v_d with a single phase harmonic, so
    the fitted visibility is exactly linear in v_d and the solution is
    target / visibility(v_d = 1).  Raises ``CalibrationError`` for targets
    above the v_d = 1 ceiling.
    """
    if not (isinstance(target, (int, float)) and 0.0 < target < 1.0):
        raise ValueError(f"target out of range: {target!r} (must be in (0, 1))")
    full = dc_replace(config, dephasing=DephasingSpec(v_d=1.0))
    phases, values = fringe_series(interferometer.sweep(full), port)
    ceiling = fit_fringe(phases, values).visibility
    if target > ceiling + 1e-12:
        raise CalibrationError(
            f"target visibility {target} exceeds the ceiling {ceiling:.6f} at v_d = 1"
        )
    return min(target / ceiling, 1.0)
