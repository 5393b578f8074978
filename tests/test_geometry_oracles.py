"""Slow per-row reference implementations of the vectorized geometry.

Each fast path in residuals, jacobian, deform and evaluate is checked bit
for bit against a straightforward Python loop over the members (or faces),
and a tracked noisy solve is run once with each implementation.  The member
Jacobian rows that jacobian and deform share are also checked against a dense
builder that fills every node's columns and then keeps the free ones.
"""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tenserecon import reconstruction, simulator
from tenserecon.errors import RelaxationError, SingularGeometryError, TopologyError
from tenserecon.harness import evaluate
from tenserecon.reconstruction import (
    COINCIDENCE_LIMIT,
    SolveOptions,
    StateFrame,
    Tracker,
    frame_table,
    jacobian,
    residuals,
)
from tenserecon.sensors import BendCalibration, default_stretch_table
from tenserecon.simulator import deform, generate_session, press_scenario
from tenserecon.topology import (
    build_canonical,
    edge_lengths,
    edge_pass,
    length_jacobian,
    tendon_triangles,
)

TOPO = build_canonical(0.30)
FREE = list(TOPO.free_nodes)


def ref_member_rows(t):
    """Residual row order: anchor-triangle tendons, struts, remaining tendons."""
    anchored = t.anchored
    tendons = list(enumerate(t.tendons))  # a tendon's index is its position
    base = [(k, td) for k, td in tendons if td.i in anchored and td.j in anchored]
    rest = [(k, td) for k, td in tendons if not (td.i in anchored and td.j in anchored)]
    rows = [(td.i, td.j, ("tendon", k)) for k, td in base]
    rows += [(i, j, ("strut", s)) for s, (i, j) in enumerate(t.struts)]
    rows += [(td.i, td.j, ("tendon", k)) for k, td in rest]
    return rows


def ref_residuals(coords, tendon_lengths, t):
    coords = np.asarray(coords, dtype=float)
    lengths = np.asarray(tendon_lengths, dtype=float)
    if lengths.shape != (len(t.tendons),):
        raise TopologyError(f"expected {len(t.tendons)} tendon lengths, got {lengths.shape}")
    if np.any(~np.isfinite(lengths)) or np.any(lengths <= 0):
        raise TopologyError("tendon target lengths must be finite and > 0")
    out = np.empty(len(t.tendons) + len(t.struts))
    for n, (i, j, (kind, idx)) in enumerate(ref_member_rows(t)):
        target = t.strut_length if kind == "strut" else lengths[idx]
        out[n] = np.linalg.norm(coords[i] - coords[j]) - target
    return out


def ref_jacobian(coords, t):
    coords = np.asarray(coords, dtype=float)
    free = [n for n in range(len(coords)) if n not in t.anchored]
    col = {n: 3 * k for k, n in enumerate(free)}
    rows = ref_member_rows(t)
    jac = np.zeros((len(rows), 3 * len(free)))
    for n, (i, j, _) in enumerate(rows):
        e = coords[i] - coords[j]
        d = np.linalg.norm(e)
        if d < COINCIDENCE_LIMIT:
            raise SingularGeometryError(
                f"nodes {i} and {j} coincide (distance {d:.2e} m)")
        u = e / d
        if i in col:
            jac[n, col[i]:col[i] + 3] = u
        if j in col:
            jac[n, col[j]:col[j] + 3] = -u
    return jac


def dense_length_rows(e, d, i, j, n_nodes, free):
    """Rows of d|Ni - Nj| over the free-node coordinates for e = Ni - Nj, d = |e|:
    every node's three columns filled, then the free nodes' kept, C-ordered."""
    rows = np.arange(len(i))
    full = np.zeros((len(i), n_nodes, 3))
    u = e / d[:, None]
    full[rows, i] = u
    full[rows, j] = -u
    return np.ascontiguousarray(full[:, free]).reshape(len(i), -1)


def ref_deform(t, displacements, tol=1e-10, max_iter=100):
    coords = t.nominal_coords.copy()
    for n, vec in displacements.items():
        coords[n] = coords[n] + np.asarray(vec, dtype=float)
    free = [n for n in range(len(coords)) if n not in t.anchored]
    col = {n: 3 * k for k, n in enumerate(free)}
    for _ in range(max_iter):
        gaps = np.array([np.linalg.norm(coords[i] - coords[j]) - t.strut_length
                         for i, j in t.struts])
        if np.max(np.abs(gaps)) < tol:
            return coords
        jac = np.zeros((len(t.struts), 3 * len(free)))
        for row, (i, j) in enumerate(t.struts):
            e = coords[i] - coords[j]
            d = np.linalg.norm(e)
            if d < 1e-9:
                raise RelaxationError(f"strut {i}-{j} collapsed during projection")
            u = e / d
            if i in col:
                jac[row, col[i]:col[i] + 3] = u
            if j in col:
                jac[row, col[j]:col[j] + 3] = -u
        step = jac.T @ np.linalg.solve(jac @ jac.T, gaps)
        flat = coords[free].reshape(-1) - step
        coords[free] = flat.reshape(-1, 3)
    raise RelaxationError(f"strut projection did not reach {tol} m in {max_iter} iterations")


def ref_rmses(est, truth, t):
    """(node, face, system) RMSEs in mm and the per-frame node trace, face by face, of
    two streams of (t_ms, coords) pairs."""
    est = sorted(est, key=lambda s: s[0])
    truth = sorted(truth, key=lambda s: s[0])
    a = np.stack([coords for _, coords in est])
    b = np.stack([coords for _, coords in truth])
    dz = a[:, FREE, 2] - b[:, FREE, 2]
    errs = []
    for tri in tendon_triangles(t):
        idx = list(tri)
        errs.append(a[:, idx, 2].mean(axis=1) - b[:, idx, 2].mean(axis=1))
    d = a[:, FREE, :] - b[:, FREE, :]
    return (float(np.sqrt(np.mean(dz ** 2)) * 1000.0),
            float(np.sqrt(np.mean(np.stack(errs) ** 2)) * 1000.0),
            float(np.sqrt(np.mean(d ** 2)) * 1000.0),
            tuple(float(v) for v in np.sqrt(np.mean(dz ** 2, axis=1)) * 1000.0))


def outcome(fn, *args):
    """Return value or (exception type, message) so failures compare too."""
    try:
        return fn(*args)
    except (RelaxationError, SingularGeometryError, TopologyError) as exc:
        return type(exc), str(exc)


def same(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# free nodes move up to 50 mm per axis; members stay >= 10 mm long
offsets = arrays(np.float64, (9, 3), elements=st.floats(-0.05, 0.05))
member_lengths = arrays(np.float64, 24, elements=st.floats(0.1, 0.3))
small_moves = st.dictionaries(
    st.sampled_from(FREE),
    st.tuples(*[st.floats(-0.03, 0.03)] * 3),
    max_size=9,
)


def perturbed(off):
    coords = TOPO.nominal_coords.copy()
    coords[FREE] += off
    return coords


@settings(max_examples=200, deadline=None)
@given(off=offsets, lengths=member_lengths)
def test_residuals_bit_identical(off, lengths):
    coords = perturbed(off)
    assert np.array_equal(residuals(coords, lengths, TOPO),
                          ref_residuals(coords, lengths, TOPO))


@settings(max_examples=200, deadline=None)
@given(off=offsets)
def test_jacobian_bit_identical(off):
    coords = perturbed(off)
    fast = jacobian(coords, TOPO)
    assert fast.flags.c_contiguous
    assert np.array_equal(fast, ref_jacobian(coords, TOPO))


@settings(max_examples=200, deadline=None)
@given(off=offsets)
def test_length_jacobian_matches_dense_rows(off):
    for t in (TOPO, relabeled(TOPO)):
        coords = t.nominal_coords.copy()
        coords[list(t.free_nodes)] += off
        for m in (t.members, t.strut_members, t.tendon_members):
            e, d = edge_pass(m, coords)
            norms = [np.linalg.norm(coords[i] - coords[j]) for i, j in zip(m.i, m.j)]
            assert d.tobytes() == np.array(norms).tobytes()
            fast = length_jacobian(m, e, d)
            assert fast.flags.c_contiguous
            dense = dense_length_rows(e, d, m.i, m.j, len(coords), m.free)
            assert fast.tobytes() == dense.tobytes()


@settings(max_examples=50, deadline=None)
@given(off=st.lists(offsets, min_size=1, max_size=4))
def test_edge_pass_of_a_stack_is_its_frames(off):
    stack = np.stack([perturbed(o) for o in off])
    for m in (TOPO.members, TOPO.tendon_members):
        e, d = edge_pass(m, stack)
        frames = [edge_pass(m, coords) for coords in stack]
        assert e.tobytes() == np.stack([f[0] for f in frames]).tobytes()
        assert d.tobytes() == np.stack([f[1] for f in frames]).tobytes()
        jac = length_jacobian(m, e, d)
        assert jac.flags.c_contiguous
        assert jac.tobytes() == np.stack([length_jacobian(m, *f) for f in frames]).tobytes()
    lengths = np.stack([edge_lengths(TOPO, coords) for coords in stack])
    assert edge_lengths(TOPO, stack).tobytes() == lengths.tobytes()


def test_strut_members_are_the_strut_rows():
    m, s = TOPO.members, TOPO.strut_members
    assert np.array_equal(s.i, m.i[m.strut_rows]) and np.array_equal(s.j, m.j[m.strut_rows])
    assert np.array_equal(s.free, m.free)


def test_deform_divides_by_no_tendon_length():
    # free node 4 onto node 6: tendon 4-6 is 0 long at the first projection step
    moves = {4: TOPO.nominal_coords[6] - TOPO.nominal_coords[4]}
    k = next(k for k, td in enumerate(TOPO.tendons) if {td.i, td.j} == {4, 6})
    start = TOPO.nominal_coords.copy()
    start[4] += moves[4]
    assert edge_lengths(TOPO, start)[k] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a 0/0 would warn
        coords = deform(TOPO, moves)
    assert coords.tobytes() == ref_deform(TOPO, moves).tobytes()
    assert edge_lengths(TOPO, coords)[k] == 0.05814413464563083


def relabeled(t, shift=5):
    """The same structure with node n renamed (n + shift) % 12, tendons reordered."""
    perm = [(n + shift) % 12 for n in range(12)]
    coords = np.empty_like(t.nominal_coords)
    coords[perm] = t.nominal_coords
    return replace(
        t, struts=tuple((perm[i], perm[j]) for i, j in t.struts),
        tendons=tuple(replace(td, i=perm[td.i], j=perm[td.j]) for td in reversed(t.tendons)),
        anchored=frozenset(perm[n] for n in t.anchored), nominal_coords=coords)


@settings(max_examples=50, deadline=None)
@given(off=offsets, lengths=member_lengths)
def test_relabeled_topology_bit_identical(off, lengths):
    t = relabeled(TOPO)
    free = list(t.free_nodes)
    coords = t.nominal_coords.copy()
    coords[free] += off
    assert np.array_equal(residuals(coords, lengths, t), ref_residuals(coords, lengths, t))
    assert np.array_equal(jacobian(coords, t), ref_jacobian(coords, t))


@settings(max_examples=100, deadline=None)
@given(moves=small_moves)
def test_deform_bit_identical(moves):
    assert same(outcome(deform, TOPO, moves), outcome(ref_deform, TOPO, moves))


@settings(max_examples=100, deadline=None)
@given(off=offsets,
       collapse=st.lists(st.integers(0, 29), min_size=1, max_size=3))
def test_coincidence_message_names_first_pair(off, collapse):
    # move one free endpoint of each chosen member onto the other endpoint
    coords = perturbed(off)
    rows = ref_member_rows(TOPO)
    for n in collapse:
        i, j, _ = rows[n]
        if j in TOPO.anchored:
            i, j = j, i
        coords[j] = coords[i]
    expected = outcome(ref_jacobian, coords, TOPO)
    assert isinstance(expected, tuple)  # at least one pair coincides
    assert outcome(jacobian, coords, TOPO) == expected


@pytest.mark.parametrize("i,j", [(4, 5), (7, 8), (10, 11), (0, 3)])
def test_collapsed_strut_named(i, j):
    # put one free endpoint exactly on the other: the projection cannot proceed
    mover, target = (j, i) if i in TOPO.anchored else (i, j)
    moves = {mover: TOPO.nominal_coords[target] - TOPO.nominal_coords[mover]}
    with pytest.raises(RelaxationError, match=f"strut {i}-{j} collapsed") as err:
        deform(TOPO, moves)
    assert outcome(ref_deform, TOPO, moves) == (RelaxationError, str(err.value))
    assert err.value.frame is None


REST = {n: (0.0, 0.0, 0.0) for n in FREE}
PRESS = {**REST, 4: (0.0, 0.0, -0.030), 8: (0.0, 0.0, -0.030), 11: (0.0, 0.0, -0.030)}
COLLAPSE = {**REST, 3: tuple(TOPO.nominal_coords[0] - TOPO.nominal_coords[3])}


def stacked(rows):
    """Per-frame displacement dicts over the free nodes as one stacked dict."""
    return {n: np.array([row.get(n, (0.0, 0.0, 0.0)) for row in rows],
                        dtype=float).reshape(-1, 3) for n in FREE}


def projection_steps(moves):
    """The Newton steps of a one-frame deform call."""
    with mock.patch.object(simulator, "length_jacobian", wraps=length_jacobian) as steps:
        deform(TOPO, moves)
    return steps.call_count


def far_strut(seed, scale=1e7):
    """Strut 4-5 carried about ``scale`` m away.  Its length is then measured on a
    grid of about scale * 1e-16 m, so the projection needs several steps to get
    within DEFORM_TOL (seeds 1, 4, 5, 6, 11) or never gets there (seeds 0, 2)."""
    rng = np.random.default_rng(seed)
    move, tilt = rng.uniform(-1.0, 1.0, (2, 3))
    return {**REST, 4: move * scale, 5: move * scale + tilt * 0.05}


def test_stacked_deform_is_its_frames_bit_for_bit():
    rows = [REST, {n: (-0.0, 0.0, -0.0) for n in FREE}, PRESS, far_strut(5), far_strut(4),
            dict(zip(FREE, cold_draw_displacements(1)[0]))]
    assert [projection_steps(row) for row in rows] == [0, 0, 1, 3, 6, 1]
    got = deform(TOPO, stacked(rows))
    assert got.shape == (len(rows), 12, 3)
    assert got.tobytes() == np.stack([ref_deform(TOPO, row) for row in rows]).tobytes()


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(small_moves, max_size=5))
def test_stacked_deform_bit_identical(rows):
    got = deform(TOPO, stacked(rows))
    want = [ref_deform(TOPO, {**REST, **row}) for row in rows]
    assert got.tobytes() == np.reshape(want, (-1, 12, 3)).tobytes()


def test_stacked_failure_is_the_earliest_failing_frame():
    # row 1 runs out of steps long after the collapse in row 3 has been hit
    with pytest.raises(RelaxationError) as err:
        deform(TOPO, stacked([REST, far_strut(0), far_strut(4), COLLAPSE]))
    assert err.value.frame == 1
    assert outcome(ref_deform, TOPO, far_strut(0)) == (RelaxationError, str(err.value))
    assert "did not reach" in str(err.value)


def test_stacked_collapses_name_the_earlier_frame():
    with pytest.raises(RelaxationError) as err:
        deform(TOPO, stacked([PRESS, REST, {**COLLAPSE, 4: (0.0, 0.0, 0.01)}, COLLAPSE]))
    assert err.value.frame == 2
    assert outcome(ref_deform, TOPO, COLLAPSE) == (RelaxationError, str(err.value))


@pytest.mark.parametrize("moves", [
    {4: np.zeros((2, 3)), 8: np.zeros(3)},
    {4: np.zeros((2, 3)), 8: np.zeros((3, 3))},
    {4: np.zeros((2, 2))},
])
def test_stack_of_mismatched_shapes_rejected(moves):
    with pytest.raises(TopologyError, match="stacked displacements"):
        deform(TOPO, moves)


def noisy_press_lengths(seed=3, n_frames=40):
    sc = press_scenario(TOPO)
    rng = np.random.default_rng(seed)
    frames = []
    stamps = [200 * k for k in range(n_frames)]
    nodes, disp = sc.timeline(stamps)
    for d in disp:
        exact = edge_lengths(TOPO, deform(TOPO, dict(zip(nodes, d))))
        frames.append(exact * (1.0 + rng.normal(0.0, 2e-3, size=24)))
    return frames


def use_references(monkeypatch) -> list:
    """Swap ref_residuals and ref_jacobian in for solve's kernels.  They drop
    the row targets and edge pass that solve hands the fast kernels and
    recompute everything from the coordinates.  Returns the list of points
    ref_residuals is evaluated at."""
    points = []

    def residuals_at(coords, tendon_lengths, t, *_):
        points.append(np.array(coords))
        return ref_residuals(coords, tendon_lengths, t)

    monkeypatch.setattr(reconstruction, "residuals", residuals_at)
    monkeypatch.setattr(reconstruction, "jacobian", lambda coords, t, *_: ref_jacobian(coords, t))
    return points


def assert_same_solves(fast, slow):
    for f, s in zip(fast, slow, strict=True):
        assert np.array_equal(f.state.coords, s.state.coords)
        assert f.iterations == s.iterations
        assert f.cost_history == s.cost_history
        assert f.converged == s.converged


def test_tracked_noisy_solve_matches_reference(monkeypatch):
    frames = noisy_press_lengths()
    opts = SolveOptions(prior_weight=1.0)
    tracker = Tracker(TOPO, opts)
    fast = [tracker.process(lengths) for lengths in frames]
    use_references(monkeypatch)
    tracker = Tracker(TOPO, opts)
    slow = [tracker.process(lengths) for lengths in frames]
    assert len(fast) == len(slow) == len(frames)
    assert sum(r.iterations for r in fast) > len(frames)  # real solves, not no-ops
    assert_same_solves(fast, slow)


def cold_draw_displacements(n, seed=11, scale=0.045):
    """n random free-node displacements, each node moved by at most scale."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        disp = rng.uniform(-1.0, 1.0, size=(9, 3))
        out.append(disp / np.maximum(1.0, np.linalg.norm(disp, axis=1, keepdims=True)) * scale)
    return out


def cold_draw_lengths(n, seed=11, scale=0.045):
    """Tendon lengths of n random deformations, projected back onto the strut lengths."""
    return [edge_lengths(TOPO, deform(TOPO, dict(zip(FREE, disp))))
            for disp in cold_draw_displacements(n, seed, scale)]


def test_exact_lengths_leave_no_tendon_residual():
    # the lengths the simulator hands solve come from the formula solve checks them with
    truth, _ = generate_session(press_scenario(TOPO, seed=7), TOPO, BendCalibration(),
                                default_stretch_table())
    frames = [s.coords for s in truth]
    frames += [deform(TOPO, dict(zip(FREE, disp))) for disp in cold_draw_displacements(200)]
    tendon_res = [np.delete(residuals(c, edge_lengths(TOPO, c), TOPO), TOPO.members.strut_rows)
                  for c in frames]
    assert np.count_nonzero(tendon_res) == 0


def test_cold_solves_with_rejected_steps_match_reference(monkeypatch):
    # cold solves from rest reject damping tries, which the tracked stream does not
    draws = cold_draw_lengths(24)
    start = StateFrame(TOPO.nominal_coords)
    fast = [reconstruction.solve(start, lengths, TOPO) for lengths in draws]
    points = use_references(monkeypatch)
    slow = [reconstruction.solve(start, lengths, TOPO) for lengths in draws]
    accepted = sum(len(r.cost_history) for r in slow)  # the start counts once per solve
    assert len(points) > accepted  # some tried steps were rejected
    assert sum(r.iterations for r in fast) > 3 * len(draws)
    assert_same_solves(fast, slow)


@pytest.mark.parametrize("lengths", [np.full(24, -1.0), np.full(24, np.nan), np.ones(23)],
                         ids=["negative", "nan", "short"])
def test_bad_lengths_fail_solve_before_any_kernel_call(lengths, monkeypatch):
    expected = outcome(ref_residuals, TOPO.nominal_coords, lengths, TOPO)
    calls = []
    for name in ("residuals", "jacobian"):
        monkeypatch.setattr(reconstruction, name, lambda *args: calls.append(args))
    got = outcome(reconstruction.solve, StateFrame(TOPO.nominal_coords), lengths, TOPO)
    assert expected[0] is TopologyError
    assert got == expected
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 40),
       scale=st.floats(1e-6, 1e-1))
def test_evaluate_matches_face_loop(seed, n_frames, scale):
    rng = np.random.default_rng(seed)
    est, truth = [], []
    for k in range(n_frames):
        e = TOPO.nominal_coords.copy()
        g = TOPO.nominal_coords.copy()
        e[FREE] += rng.normal(scale=scale, size=(9, 3))
        g[FREE] += rng.normal(scale=scale, size=(9, 3))
        est.append((100 * k, e))
        truth.append((100 * k, g))
    est = [est[i] for i in rng.permutation(n_frames)]
    report = evaluate(*(frame_table(*zip(*frames)) for frames in (est, truth)), TOPO)
    node, face, system, per_frame = ref_rmses(est, truth, TOPO)
    assert report.rmse_node_height_mm == node
    assert report.rmse_face_height_mm == face
    assert report.rmse_system_mm == system
    assert report.per_frame_node_height_mm == per_frame
