"""Geometric state reconstruction: 30 distance residuals, damped least squares.

Node positions are recovered from the 24 tendon lengths plus the 6 fixed
strut lengths, with the three anchored base nodes pinned to their known
coordinates.  That leaves 27 unknowns (9 free nodes x 3) constrained by 30
equations solved in the least-squares sense.

A caveat worth knowing: at the canonical rest shape the structure is
infinitesimally flexible (one internal flex preserves every member length
to first order), so the Jacobian is rank-deficient exactly at nominal and
the inverse problem is two-valued near it: a deformed shape and its fold
conjugate produce identical member lengths.  Damped steps keep the solver
well behaved there, and frame-to-frame tracking stays on the physical
branch by continuity; a cold start from rest cannot always distinguish the
two branches because the data genuinely does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SingularGeometryError, TopologyError
from .topology import Topology, edge_pass, length_jacobian

COINCIDENCE_LIMIT = 1e-9  # connected nodes closer than this are corrupt input
# A step-tolerance stop counts as converged only at a stationary point: a
# tiny step from heavy damping or a wrong Jacobian leaves the gradient large.
STATIONARY_GRADIENT_LIMIT = 1e-6
# An accepted step that lowers the cost by at most this fraction of it has
# reached the noise floor (MINPACK's ftol); the solve stops there once the
# gradient at the new point is stationary too.
NOISE_FLOOR_RELATIVE_DROP = 1e-10
STEP_TOLERANCE = 1e-12  # m; a shorter proposed update ends the solve


@dataclass(frozen=True)
class StateFrame:
    """Checked, read-only Nx3 node positions in meters: a shape, untimed."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3:
            raise TopologyError(f"coords must be Nx3, got {c.shape}")
        if not np.isfinite(c).all():
            raise TopologyError("coords contain non-finite values")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)


def frame_table(timestamps_ms, coords, converged=True, iters=0,
                residual_norm=0.0) -> np.recarray:
    """A read-only record array, one row per frame, of the frames-JSONL record's fields: t_ms
    (int64), converged, iters, residual_norm and coords (N, 3) m; truth keeps the defaults."""
    coords = np.asarray(coords, dtype=float)
    table = np.recarray(len(coords), dtype=np.dtype(
        [("t_ms", np.int64), ("converged", bool), ("iters", np.int64),
         ("residual_norm", float), ("coords", float, coords.shape[1:])], align=True))
    table.t_ms, table.converged, table.iters = timestamps_ms, converged, iters
    table.residual_norm, table.coords = residual_norm, coords
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SolveOptions:
    """Termination and damping controls for the least-squares solver.

    residual_tolerance is on the objective 0.5 * ||r||^2 (m^2); the stop
    on the update norm is the module constant STEP_TOLERANCE.
    prior_weight > 0 adds 0.5 * w^2 * ||x - x_initial||^2 to the objective,
    which bounds the data-blind flex direction; use it for noisy tracking,
    leave 0 for exact data.
    """

    max_iterations: int = 100
    residual_tolerance: float = 1e-10
    damping_init: float = 1e-3
    prior_weight: float = 0.0

    def __post_init__(self):
        if (self.max_iterations < 0 or self.residual_tolerance < 0
                or self.damping_init <= 0 or self.prior_weight < 0):
            raise ValueError(f"invalid solver options: {self}")


@dataclass(frozen=True)
class SolveResult:
    """Solver output: final state plus convergence diagnostics."""

    state: StateFrame
    converged: bool
    iterations: int
    residual_norm: float
    residuals: np.ndarray = field(repr=False)
    cost_history: tuple[float, ...] = field(default=(), repr=False)
    mirrored: bool = False
    error: str | None = None


def _row_targets(tendon_lengths: np.ndarray, t: Topology) -> np.ndarray:
    """The 30 row lengths: the checked tendon lengths on tendon rows, the strut
    length on strut rows."""
    lengths = np.asarray(tendon_lengths, dtype=float)
    if lengths.shape != (len(t.tendons),):
        raise TopologyError(f"expected {len(t.tendons)} tendon lengths, got {lengths.shape}")
    if not ((lengths > 0.0) & (lengths < np.inf)).all():  # NaN fails both
        raise TopologyError("tendon target lengths must be finite and > 0")
    m = t.members
    targets = lengths.take(m.row_tendon)
    targets[m.strut_rows] = t.strut_length
    return targets


Edges = tuple[np.ndarray, np.ndarray]  # topology.edge_pass's (e, d)


def residuals(coords: np.ndarray, tendon_lengths: np.ndarray, t: Topology,
              targets: np.ndarray | None = None, edges: Edges | None = None) -> np.ndarray:
    """Signed distance residuals |Ni - Nj| - target, shape (30,).

    Row order: the anchored-triangle tendon equations first, then the six
    strut equations, then the remaining 21 tendon equations in tendon-index
    order.  ``solve`` passes the row targets it built once from
    tendon_lengths and the point's ``(e, d)`` edge pass; without them both
    are computed here, the lengths checked first.
    """
    if targets is None:
        targets = _row_targets(tendon_lengths, t)
    if edges is None:
        edges = edge_pass(t.members, np.asarray(coords, dtype=float))
    return edges[1] - targets


def jacobian(coords: np.ndarray, t: Topology, edges: Edges | None = None) -> np.ndarray:
    """Analytic residual Jacobian w.r.t. free-node coordinates, shape (30, 27),
    built by topology.length_jacobian once no two connected nodes coincide.

    ``solve`` passes the ``(e, d)`` edge pass its residuals used at the same
    point; without it the pass is computed here.
    """
    m = t.members
    e, d = edge_pass(m, np.asarray(coords, dtype=float)) if edges is None else edges
    if d.min() < COINCIDENCE_LIMIT:
        n = np.flatnonzero(d < COINCIDENCE_LIMIT)[0]
        raise SingularGeometryError(
            f"nodes {m.i[n]} and {m.j[n]} coincide (distance {d[n]:.2e} m)")
    return length_jacobian(m, e, d)


def _assemble(initial_coords: np.ndarray, free: np.ndarray, x: np.ndarray):
    coords = initial_coords.copy()
    coords[free] = x.reshape(-1, 3)
    return coords


def solve(initial: StateFrame, tendon_lengths: np.ndarray, t: Topology,
          opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Levenberg-damped Gauss-Newton for the 27 free coordinates.

    Accepted steps never increase the objective; the damping parameter is
    multiplied by 10 on a rejected step and divided by 10 on acceptance.
    Convergence means a residual-tolerance stop, a noise-floor stop, or a
    step-tolerance stop at a stationary point.  The noise-floor stop ends
    the solve when the last accepted step lowered the cost by at most
    NOISE_FLOOR_RELATIVE_DROP of it and the gradient at the new point is
    within STATIONARY_GRADIENT_LIMIT; that gradient comes from the Jacobian
    the next iteration computes anyway, so the check costs no extra call,
    and a small drop at a large gradient keeps iterating.  A stall or the
    iteration cap reports converged=False.  ``iterations`` counts the
    iterations that tried a step.
    Each job is done once: the length check and the 30 row targets once per
    solve, before any iteration; one edge pass ``(e, d)`` per evaluated
    point, whose ``d`` gives that point's residuals and, once the point is
    accepted, whose ``(e, d)`` gives its Jacobian and coincidence check.
    ``residuals`` is called once per evaluated point and ``jacobian`` once
    per iteration, through this module's attributes.
    Anchored coordinates are never touched.  A final state whose free-node
    centroid sits below the anchor plane is flagged mirrored (the structure
    lives above z = 0).
    """
    coords0 = np.asarray(initial.coords, dtype=float)
    m = t.members
    if not np.array_equal(coords0[m.anchors], t.nominal_coords[m.anchors]):
        raise TopologyError("initial state does not satisfy anchor constraints")
    targets = _row_targets(tendon_lengths, t)

    free = m.free
    x = coords0[free].reshape(-1).copy()
    x_prior = x.copy()
    w2 = opts.prior_weight ** 2

    def cost_of(res: np.ndarray, xv: np.ndarray) -> float:
        c = 0.5 * float(res @ res)
        if w2 > 0.0:
            d = xv - x_prior
            c += 0.5 * w2 * float(d @ d)
        return c

    coords = _assemble(coords0, free, x)
    edges = edge_pass(m, coords)
    res = residuals(coords, tendon_lengths, t, targets, edges)
    if not np.isfinite(res).all():
        raise SingularGeometryError("non-finite residual at initial state")
    cost = cost_of(res, x)
    history = [cost]
    lam = opts.damping_init
    eye = np.eye(len(x))
    converged = cost < opts.residual_tolerance  # already at tolerance: fixed point
    at_floor = False
    iterations = 0

    for iterations in range(1, (0 if converged else opts.max_iterations) + 1):
        jac_m = jacobian(coords, t, edges)
        grad = jac_m.T @ res
        normal = jac_m.T @ jac_m
        if w2 > 0.0:
            grad = grad + w2 * (x - x_prior)
            normal = normal + w2 * eye
        if at_floor and np.sqrt(grad @ grad) <= STATIONARY_GRADIENT_LIMIT:
            converged = True
            iterations -= 1  # stopped before this iteration tried a step
            break

        accepted = False
        while not accepted:
            try:
                step = np.linalg.solve(normal + lam * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.sqrt(step @ step) < STEP_TOLERANCE:
                converged = bool(np.sqrt(grad @ grad) <= STATIONARY_GRADIENT_LIMIT)
                break
            x_new = x + step
            coords_new = _assemble(coords0, free, x_new)
            edges_new = edge_pass(m, coords_new)
            res_new = residuals(coords_new, tendon_lengths, t, targets, edges_new)
            cost_new = cost_of(res_new, x_new) if np.isfinite(res_new).all() else np.inf
            if cost_new < cost:
                at_floor = cost - cost_new <= NOISE_FLOOR_RELATIVE_DROP * cost
                x, coords, edges, res, cost = x_new, coords_new, edges_new, res_new, cost_new
                history.append(cost)
                lam = max(lam / 10.0, 1e-15)
                accepted = True
            else:
                lam *= 10.0
                if lam > 1e12:
                    break
        if not accepted:
            break  # converged, stalled or damping exhausted
        if cost < opts.residual_tolerance:
            converged = True
            break

    mirrored = bool(np.mean(coords[free, 2]) < 0.0)
    return SolveResult(
        state=StateFrame(coords), converged=converged and not mirrored,
        iterations=iterations, residual_norm=float(np.sqrt(res @ res)),
        residuals=res, cost_history=tuple(history), mirrored=mirrored,
    )


def nominal_state(t: Topology) -> StateFrame:
    return StateFrame(t.nominal_coords.copy())


class Tracker:
    """Frame-to-frame tracking with warm starts, from each frame's lengths alone.

    Frame 0 solves from the topology's nominal coordinates; every later
    frame starts from the previous good solution.  Solver failures are
    emitted in-stream (converged=False, error set) and tracking continues
    from the last good state.  A mirrored solve is retried once from the same
    warm start with 100x the damping; if that is mirrored too, the frame
    emits the warm state (mirrored, iterations 0) with its residuals for the
    frame's lengths.
    """

    def __init__(self, t: Topology, opts: SolveOptions = SolveOptions()):
        self.topology = t
        self.opts = opts
        self._last_good = nominal_state(t)

    def process(self, tendon_lengths: np.ndarray) -> SolveResult:
        warm = self._last_good
        try:
            result = solve(warm, tendon_lengths, self.topology, self.opts)
            if result.mirrored:
                # one retry from the last good state; if still mirrored, emit
                # that state with its own residuals for this frame's lengths
                result = solve(warm, tendon_lengths, self.topology,
                               replace(self.opts, damping_init=self.opts.damping_init * 100))
                if result.mirrored:
                    res = residuals(warm.coords, tendon_lengths, self.topology)
                    result = SolveResult(
                        state=warm, converged=False, iterations=0,
                        residual_norm=float(np.sqrt(res @ res)), residuals=res,
                        mirrored=True,
                        error="solve and its 100x-damped retry both ended mirrored; "
                              "kept the last good state")
        except (SingularGeometryError, TopologyError) as exc:
            return SolveResult(state=warm, converged=False, iterations=0,
                               residual_norm=float("nan"),
                               residuals=np.full(len(self.topology.tendons)
                                                 + len(self.topology.struts), np.nan),
                               error=str(exc))
        if result.converged:
            self._last_good = result.state
        return result
