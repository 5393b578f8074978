"""Slow scalar reference for the session sensor pass.

One tendon and one strain at a time, as plain Python floats: the bending
polynomial in Horner form, its peak by scalar scan and golden section (once
per calibration; the tolerance oracle for ``sensors._bend_peak``), the
bisection inverse, split at ``sensors._bend_peak`` and halving every bracket
the same fixed number of times, the stretch-table lookup, a scalar
keyframe interpolation, and a session generator that interpolates, projects
and converts each frame alone with a per-tendon loop.  The array code in
``sensors`` and ``simulator.generate_session`` must match it bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from tenserecon.errors import RelaxationError, SensorDomainError
from tenserecon.reconstruction import frame_table
from tenserecon.sensors import BEND_INVERSE_TOLERANCE, SensorSession, _bend_peak
from tenserecon.simulator import DEFAULT_BASELINE_OHMS, deform
from tenserecon.topology import edge_lengths


def ref_bending_strain(x, cal, clamp=False):
    lo, hi = cal.domain
    if not np.isfinite(x):
        raise SensorDomainError(f"non-finite dR/R {x}")
    if x < lo or x > hi:
        if not clamp:
            raise SensorDomainError(f"dR/R = {x} outside calibration domain [{lo}, {hi}]")
        x = min(max(x, lo), hi)
    acc = 0.0
    for c in cal.coefficients:
        acc = acc * x + c
    return acc


@lru_cache
def ref_bend_peak(cal):
    lo, hi = cal.domain
    grid = np.linspace(lo, hi, 2001)
    vals = np.array([ref_bending_strain(g, cal) for g in grid])
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if ref_bending_strain(c, cal) > ref_bending_strain(d, cal):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    xp = 0.5 * (a + b)
    return xp, ref_bending_strain(xp, cal)


def ref_bend_inverse(strain, cal):
    if not np.isfinite(strain):
        raise SensorDomainError(f"non-finite strain {strain}")
    lo, hi = cal.domain
    x_peak, y_peak = (float(v) for v in _bend_peak(cal))
    y_lo = ref_bending_strain(lo, cal)
    y_hi = ref_bending_strain(hi, cal)

    def bisect(a, b, decreasing):
        for _ in range(math.ceil(math.log2((hi - lo) / BEND_INVERSE_TOLERANCE))):
            m = 0.5 * (a + b)
            if (ref_bending_strain(m, cal) > strain) == decreasing:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    if y_hi <= strain <= y_peak:
        return bisect(x_peak, hi, decreasing=True)
    if y_lo <= strain <= y_peak:
        return bisect(lo, x_peak, decreasing=False)
    raise SensorDomainError(
        f"strain {strain} outside invertible range [{y_lo:.4f}, {y_peak:.4f}]")


def ref_stretch_lookup(table, e):
    if e < table.strain[0] or e > table.strain[-1]:
        raise SensorDomainError(f"strain {e} outside stretch table range")
    return float(np.interp(e, table.strain, table.dr_ratio))


def ref_dr_from_strain(eps, cal, table):
    """One tendon's strain -> dR/R: the regime rule, restated on purpose, then its model."""
    if eps < -1e-12:
        return ref_bend_inverse(eps, cal)
    return ref_stretch_lookup(table, max(eps, 0.0))


def ref_resistances_from_state(coords, t, cal, table, noise, rng):
    """Exact geometry -> the (24,) noisy resistances of one frame, one tendon at a time."""
    strains = edge_lengths(t, coords) / t.rest_lengths() - 1.0
    dr = np.empty(len(strains))
    for k, eps in enumerate(strains):
        try:
            dr[k] = ref_dr_from_strain(eps, cal, table)
        except SensorDomainError as exc:
            raise SensorDomainError(str(exc), sensor=k) from exc
    dr = dr + noise.sample(rng, len(dr))
    resist = np.full(len(t.tendons), DEFAULT_BASELINE_OHMS) * (1.0 + dr)
    return np.maximum(resist, 1.0)


def ref_displacements_at(scenario, t_ms):
    """node -> displacement at t_ms, one scalar np.interp per node and axis."""
    nodes = sorted({n for _, d in scenario.keyframes for n in d})
    times = np.array([t for t, _ in scenario.keyframes], dtype=float)
    out = {}
    for n in nodes:
        track = np.array([d.get(n, (0.0, 0.0, 0.0)) for _, d in scenario.keyframes],
                         dtype=float)
        out[n] = np.array([np.interp(t_ms, times, track[:, ax]) for ax in range(3)])
    return out


def ref_generate_session(scenario, t, cal, table):
    """Frame by frame: interpolate, deform, then convert that frame's strains alone."""
    rng = np.random.default_rng(scenario.noise.seed)
    n_frames = int(round(scenario.keyframes[-1][0] / 1000.0 * scenario.sample_rate_hz))
    stamps, shapes, rows = [], [], []
    for k in range(n_frames):
        t_ms = int(round(k * 1000.0 / scenario.sample_rate_hz))
        try:
            coords = deform(t, ref_displacements_at(scenario, t_ms))
            row = ref_resistances_from_state(coords, t, cal, table, scenario.noise, rng)
        except (RelaxationError, SensorDomainError) as exc:
            raise type(exc)(f"t={t_ms} ms: {exc}") from exc
        stamps.append(t_ms)
        shapes.append(coords)
        rows.append(row)
    return (frame_table(stamps, np.reshape(shapes, (-1, *t.nominal_coords.shape))),
            SensorSession(stamps, np.reshape(rows, (-1, 24))))
