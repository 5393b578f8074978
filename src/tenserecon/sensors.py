"""Sensor models: resistance to strain, strain to length.

Each tendon doubles as a conductive-rubber strain sensor with two regimes:
a bending (compressive) regime described by a degree-5 polynomial in the
normalized resistance change, and a stretching (tensile) regime handled by
the learned sequence model in :mod:`tenserecon.lstm`.  This module owns the
per-sensor math, the regime dispatch, and a session's (frames, 24) readings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CalibrationError, SensorDomainError, read_json, write_json

N_SENSORS = 24

# Degree-5 calibration of the bending regime, strain as a function of dR/R,
# highest power first.  Valid on dR/R in [-1, 0].
DEFAULT_BEND_COEFFS = (-4.7589, -16.521, -20.239, -9.9675, -0.5464, -0.0016)
BEND_INVERSE_TOLERANCE = 1e-12  # width of bend_inverse's final dR/R bracket
STRETCH_TABLE_MAX_STRAIN = 1.0  # default_stretch_table covers strain [0, 1]
STRETCH_TABLE_POINTS = 2001


class Mode(Enum):
    """Per-sensor regime flag."""

    BENDING = "bending"
    STRETCHING = "stretching"


def _reject_first(x: np.ndarray, bad: np.ndarray, describe) -> None:
    """Raise SensorDomainError(describe(value)) for the first entry flagged in bad,
    tagged with its flat index unless x is a scalar; the models work elementwise."""
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise SensorDomainError(describe(x.flat[k]), sensor=k if x.ndim else None)


@dataclass(frozen=True, eq=False)  # array fields: a session equals only itself
class SensorSession:
    """A session's (frames,) int64 timestamps in ms, strictly increasing, and (frames, 24)
    resistances in ohms, finite and > 0, as read-only copies; errors carry the frame."""

    timestamps_ms: np.ndarray
    resistances: np.ndarray

    def __post_init__(self):
        ts = np.array(self.timestamps_ms, dtype=np.int64)
        r = np.array(self.resistances, dtype=float)
        if ts.ndim != 1 or r.shape != (len(ts), N_SENSORS):
            raise SensorDomainError(f"shapes {ts.shape}, {r.shape} are not (n,), (n, {N_SENSORS})")
        bad_r = ~(np.isfinite(r) & (r > 0))
        bad = bad_r.any(axis=1) | np.r_[False, ts[1:] <= ts[:-1]]
        if bad.any():  # the first bad frame, and in it a bad resistance before its order
            f = int(np.argmax(bad))
            if bad_r[f].any():
                k = int(np.argmax(bad_r[f]))
                raise SensorDomainError(f"resistance must be finite and > 0, got {r[f, k]}",
                                        k, int(ts[f]), frame=f)
            raise SensorDomainError(f"timestamp {ts[f]} not after previous {ts[f - 1]}",
                                    t_ms=int(ts[f]), frame=f)
        ts.flags.writeable = r.flags.writeable = False
        object.__setattr__(self, "timestamps_ms", ts)
        object.__setattr__(self, "resistances", r)

    def __len__(self) -> int:
        return len(self.timestamps_ms)


@dataclass(frozen=True)
class BendCalibration:
    """Degree-5 polynomial strain(dR/R), coefficients highest power first."""

    coefficients: tuple[float, ...] = DEFAULT_BEND_COEFFS
    domain: tuple[float, float] = (-1.0, 0.0)

    def __post_init__(self):
        if len(self.coefficients) != 6:
            raise CalibrationError(f"expected 6 coefficients, got {len(self.coefficients)}")
        if not np.isfinite(self.coefficients).all():
            raise CalibrationError(f"coefficients must be finite, got {self.coefficients}")
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise CalibrationError(f"empty or invalid domain {self.domain}")

    @cached_property
    def peak(self) -> tuple[float, float]:
        """Argmax and max over the domain, searched once per calibration."""
        return _bend_peak(self)


def bending_strain(x, cal: BendCalibration = BendCalibration(), *, clamp: bool = False):
    """Evaluate the bending polynomial at dR/R = x (Horner form), elementwise.

    Outside the calibration domain this raises SensorDomainError unless
    clamp=True, in which case x is clipped to the nearest domain edge.
    Silent extrapolation of a degree-5 fit is never acceptable.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = cal.domain
    bad = ~np.isfinite(x) if clamp else ~((x >= lo) & (x <= hi))
    _reject_first(x, bad, lambda v: f"dR/R = {v} outside calibration domain [{lo}, {hi}]")
    if clamp:
        x = np.clip(x, lo, hi)
    return np.polyval(cal.coefficients, x)


def fit_bending_polynomial(samples) -> tuple[BendCalibration, float]:
    """Least-squares degree-5 fit of (dR/R, strain) pairs.

    Returns the calibration (domain = sampled x range) and the coefficient
    of determination R^2 = 1 - SS_res / SS_tot.  Every sample must be finite.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < 7:
        raise CalibrationError(f"need at least 7 samples, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if len(bad):
        raise CalibrationError(f"sample {bad[0]} is not finite: {pts[bad[0]]}")
    if len(np.unique(x)) < 6:
        raise CalibrationError(
            f"need at least 6 distinct dR/R values, got {len(np.unique(x))}")
    vander = np.vander(x, 6)
    coeffs, _, rank, _ = np.linalg.lstsq(vander, y, rcond=None)
    if rank < 6:
        raise CalibrationError("rank-deficient design matrix")
    resid = y - vander @ coeffs
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    cal = BendCalibration(coefficients=tuple(float(c) for c in coeffs),
                          domain=(float(x.min()), float(x.max())))
    return cal, r2


def _bend_peak(cal: BendCalibration) -> tuple[float, float]:
    """Argmax and max of the bend polynomial over its domain (golden section)."""
    lo, hi = cal.domain
    grid = np.linspace(lo, hi, 2001)
    vals = bending_strain(grid, cal)
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if bending_strain(c, cal) > bending_strain(d, cal):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    xp = 0.5 * (a + b)
    return xp, bending_strain(xp, cal)


def bend_inverse(strain, cal: BendCalibration = BendCalibration()):
    """Invert the bending polynomial elementwise: strain -> dR/R by bisection.

    The polynomial is unimodal on its domain: increasing up to an interior
    peak, then decreasing toward the domain's upper edge.  Small strains
    near the rest point are inverted on the near-zero (decreasing) branch;
    anything below that branch's reach falls back to the wide (increasing)
    branch, which covers the full compressive range.
    """
    s = np.asarray(strain, dtype=float)
    lo, hi = cal.domain
    x_peak, y_peak = cal.peak
    y_lo, y_hi = bending_strain(np.array(cal.domain), cal)
    _reject_first(s, ~((s >= min(y_lo, y_hi)) & (s <= y_peak)),
                  lambda v: f"strain {v} outside invertible range [{y_lo:.4f}, {y_peak:.4f}]")
    decreasing = s >= y_hi
    a = np.where(decreasing, x_peak, lo)
    b = np.where(decreasing, hi, x_peak)
    out = np.full(s.shape, np.nan)  # nan: still bisecting
    for _ in range(200):
        m = 0.5 * (a + b)
        out = np.where(np.isnan(out) & (b - a < BEND_INVERSE_TOLERANCE), m, out)
        if not np.isnan(out).any():
            break
        # m stays inside [lo, hi], so the polynomial needs no domain check here
        raise_a = (np.polyval(cal.coefficients, m) > s) == decreasing
        a = np.where(raise_a, m, a)
        b = np.where(raise_a, b, m)
    return np.where(np.isnan(out), 0.5 * (a + b), out)[()]


def lengths_from_strain(strains: np.ndarray, topology) -> np.ndarray:
    """Tendon lengths L_k = (1 + strain_k) * rest_k, in tendon-index order.

    Every strain must be finite and > -1; an error names the sensor.
    """
    rest = topology.rest_lengths()
    e = np.asarray(strains, dtype=float)
    if e.shape != rest.shape:
        raise SensorDomainError(f"expected {len(rest)} strains, got shape {e.shape}")
    _reject_first(e, ~(np.isfinite(e) & (e > -1.0)),
                  lambda v: f"strain must be finite and > -1, got {v}")
    return (1.0 + e) * rest


@dataclass(frozen=True, eq=False)  # array fields: a table equals only itself
class StretchTable:
    """Monotone lookup between tensile strain and dR/R.

    Default shape is a saturating exponential dR/R = a * (1 - exp(-e / b)).
    Measured curves can replace it via JSON ({"strain": [...], "dr_ratio":
    [...]}) as long as both columns increase strictly.
    """

    strain: np.ndarray
    dr_ratio: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.strain, dtype=float)
        d = np.asarray(self.dr_ratio, dtype=float)
        if s.shape != d.shape or s.ndim != 1 or len(s) < 2:
            raise CalibrationError("stretch table needs two equal 1-D columns")
        if not (np.isfinite(s).all() and np.isfinite(d).all()):
            raise CalibrationError("stretch table values must be finite")
        if np.any(np.diff(s) <= 0) or np.any(np.diff(d) <= 0):
            raise CalibrationError("stretch table columns must increase strictly")
        s.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "strain", s)
        object.__setattr__(self, "dr_ratio", d)

    def dr_from_strain(self, e):
        return _table_lookup(e, self.strain, self.dr_ratio, "strain")

    def strain_from_dr(self, x):
        return _table_lookup(x, self.dr_ratio, self.strain, "dR/R")


def _table_lookup(x, xp: np.ndarray, fp: np.ndarray, name: str):
    """np.interp of x on (xp, fp), elementwise; nothing outside [xp[0], xp[-1]], nor NaN."""
    x = np.asarray(x, dtype=float)
    _reject_first(x, ~((x >= xp[0]) & (x <= xp[-1])),
                  lambda v: f"{name} {v} outside stretch table range [{xp[0]}, {xp[-1]}]")
    return np.interp(x, xp, fp)


def default_stretch_curve(strain):
    """Saturating tensile response dR/R = 2 (1 - exp(-strain / 0.5))."""
    return 2.0 * (1.0 - np.exp(-np.asarray(strain, dtype=float) / 0.5))


def default_stretch_table() -> StretchTable:
    e = np.linspace(0.0, STRETCH_TABLE_MAX_STRAIN, STRETCH_TABLE_POINTS)
    return StretchTable(strain=e, dr_ratio=default_stretch_curve(e))


def save_calibration(cal: BendCalibration, path) -> None:
    write_json({"coefficients": list(cal.coefficients), "domain": list(cal.domain)}, path)


def load_calibration(path) -> BendCalibration:
    return read_json(path, CalibrationError, lambda d: BendCalibration(
        coefficients=tuple(float(c) for c in d["coefficients"]),
        domain=tuple(float(v) for v in d["domain"])))


def load_stretch_table(path) -> StretchTable:
    return read_json(path, CalibrationError, lambda d: StretchTable(
        strain=np.array(d["strain"], dtype=float),
        dr_ratio=np.array(d["dr_ratio"], dtype=float)))


def strains_from_frame(dr: np.ndarray, cal: BendCalibration, modes, stretch: np.ndarray, *,
                       clamp: bool = False) -> np.ndarray:
    """Convert one frame's dR/R into its (24,) per-tendon strains.

    ``dr`` is the frame's 24 dR/R values and ``stretch`` the sequence model's
    24 strains at this frame; per sensor, the mode flag picks the bending
    polynomial at its dR/R or its model strain.  Errors name the sensor.

    clamp=True clips out-of-domain bending inputs to the domain edge and
    bounds all strains away from -1; use it for noisy live data.
    """
    modes = list(modes)
    if len(modes) != N_SENSORS:
        raise SensorDomainError(f"expected {N_SENSORS} mode flags, got {len(modes)}")
    bending = np.array([m is Mode.BENDING for m in modes])
    out = np.array(stretch, dtype=float)
    try:
        out[bending] = bending_strain(dr[bending], cal, clamp=clamp)
    except SensorDomainError as exc:
        k = int(np.flatnonzero(bending)[exc.sensor])
        raise SensorDomainError(exc.detail, sensor=k) from exc
    if clamp:
        np.clip(out, -0.95, 2.0, out=out)
    return out
