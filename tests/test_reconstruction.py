"""Residual assembly, analytic Jacobian, damped solver, and tracking."""

from dataclasses import replace

import numpy as np
import pytest

from tenserecon import pipeline, reconstruction
from tenserecon.errors import SingularGeometryError, TopologyError
from tenserecon.reconstruction import (
    SolveOptions,
    SolveResult,
    StateFrame,
    Tracker,
    jacobian,
    nominal_state,
    residuals,
    solve,
)
from tenserecon.sensors import BendCalibration, default_stretch_table
from tenserecon.simulator import (
    DEFAULT_NOISE_BAND,
    NoiseModel,
    deform,
    generate_session,
    press_scenario,
)
from tenserecon.topology import build_canonical, edge_lengths


@pytest.fixture(scope="module")
def topo():
    return build_canonical(0.30)


def run_tracker(frames, topo, opts=SolveOptions()):
    """One Tracker over each frame's 24 lengths, a result per frame."""
    tracker = Tracker(topo, opts)
    return [tracker.process(lengths) for lengths in frames]


def random_feasible_state(topo, rng, scale=0.045):
    disp = rng.uniform(-1.0, 1.0, size=(9, 3))
    norms = np.linalg.norm(disp, axis=1, keepdims=True)
    disp = disp / np.maximum(1.0, norms) * scale
    return deform(topo, {n: disp[k] for k, n in enumerate(topo.free_nodes)})


class TestResiduals:
    def test_nominal_is_consistent(self, topo):
        res = residuals(topo.nominal_coords, topo.rest_lengths(), topo)
        assert res.shape == (30,)
        assert np.max(np.abs(res)) < 1e-12

    def test_row_order_anchor_strut_tendon(self, topo):
        # shrink tendon target 0 only: row 0 is the anchor-triangle edge (0,1)
        lengths = topo.rest_lengths().copy()
        lengths[0] -= 0.01
        res = residuals(topo.nominal_coords, lengths, topo)
        assert res[0] == pytest.approx(0.01, abs=1e-12)
        assert np.max(np.abs(np.delete(res, 0))) < 1e-12

    def test_perturbed_node_matches_brute_force(self, topo):
        coords = topo.nominal_coords.copy()
        coords[5] = coords[5] + np.array([0.01, 0.0, 0.0])
        res = residuals(coords, topo.rest_lengths(), topo)
        # independent recomputation, row by row
        row = 0
        expected = []
        anchor = [td for td in topo.tendons if td.i in topo.anchored and td.j in topo.anchored]
        rest = [td for td in topo.tendons if not (td.i in topo.anchored and td.j in topo.anchored)]
        for td in anchor:
            expected.append(np.linalg.norm(coords[td.i] - coords[td.j]) - td.rest_length)
        for i, j in topo.struts:
            expected.append(np.linalg.norm(coords[i] - coords[j]) - topo.strut_length)
        for td in rest:
            expected.append(np.linalg.norm(coords[td.i] - coords[td.j]) - td.rest_length)
        assert np.allclose(res, expected, atol=1e-15)
        touched = np.nonzero(np.abs(res) > 1e-12)[0]
        assert len(touched) == 5  # node 5 carries 4 tendons and 1 strut

    def test_bad_lengths_rejected(self, topo):
        with pytest.raises(TopologyError):
            residuals(topo.nominal_coords, np.ones(23), topo)
        with pytest.raises(TopologyError):
            residuals(topo.nominal_coords, np.full(24, -1.0), topo)


class TestJacobian:
    def test_against_central_differences(self, topo):
        rng = np.random.default_rng(2024)
        free = list(topo.free_nodes)
        lengths = topo.rest_lengths()
        worst = 0.0
        for _ in range(20):
            coords = topo.nominal_coords.copy()
            coords[free] += rng.normal(scale=0.01, size=(9, 3))
            jac = jacobian(coords, topo)
            assert jac.shape == (30, 27)
            h = 1e-7
            fd = np.zeros_like(jac)
            flat = coords[free].reshape(-1)
            for c in range(27):
                for sign in (1.0, -1.0):
                    x = flat.copy()
                    x[c] += sign * h
                    cc = coords.copy()
                    cc[free] = x.reshape(9, 3)
                    fd[:, c] += sign * residuals(cc, lengths, topo) / (2.0 * h)
            num = np.abs(jac - fd)
            den = np.maximum(np.abs(fd), 1e-3)  # unit-vector entries are O(1)
            worst = max(worst, float(np.max(num / den)))
        assert worst < 1e-6

    def test_column_count_is_free_coordinates(self, topo):
        assert jacobian(topo.nominal_coords, topo).shape[1] == 27

    def test_no_strut_joins_two_anchors(self, topo):
        # an all-anchored strut would make an all-zero Jacobian row
        for i, j in topo.struts:
            assert not (i in topo.anchored and j in topo.anchored)
        jac = jacobian(topo.nominal_coords, topo)
        strut_rows = jac[3:9]
        assert np.all(np.linalg.norm(strut_rows, axis=1) > 0.5)

    def test_coincident_nodes_rejected(self, topo):
        coords = topo.nominal_coords.copy()
        td = topo.tendons[4]
        coords[td.i] = coords[td.j]
        with pytest.raises(SingularGeometryError,
                           match=rf"^nodes {td.i} and {td.j} coincide \(distance "):
            jacobian(coords, topo)

    @pytest.mark.xfail(
        strict=True,
        reason="The canonical rest shape is infinitesimally flexible: one "
               "internal flex (each node sliding along its short-coordinate "
               "axis, composed with a rigid motion that pins the anchors) "
               "preserves every member length to first order, so the normal "
               "matrix has an exact zero singular value at nominal.  Rigid "
               "freedom is indeed gone, but this internal mode keeps the "
               "matrix singular; see test_null_space_is_internal_flex.")
    def test_normal_matrix_nonsingular_at_nominal(self, topo):
        jac = jacobian(topo.nominal_coords, topo)
        normal = jac.T @ jac
        sing = np.linalg.svd(normal, compute_uv=False)
        assert sing[-1] > 1e-8

    def test_null_space_is_internal_flex(self, topo):
        # what is actually true at nominal: exactly one near-zero direction,
        # and it is a length-preserving internal flex, not a rigid motion
        jac = jacobian(topo.nominal_coords, topo)
        sing = np.linalg.svd(jac, compute_uv=False)
        assert sing[-1] < 1e-12          # the flex
        assert sing[-2] > 0.1            # everything else is well conditioned
        null = np.linalg.svd(jac)[2][-1]
        assert np.max(np.abs(jac @ null)) < 1e-12
        # not a rigid motion: anchors are pinned and the field moves freely
        assert np.linalg.norm(null) == pytest.approx(1.0)

    def test_full_rank_away_from_nominal(self, topo):
        coords = deform(topo, {8: np.array([0.0, 0.0, -0.030]),
                               4: np.array([0.01, 0.0, -0.01])})
        jac = jacobian(coords, topo)
        sing = np.linalg.svd(jac, compute_uv=False)
        assert sing[-1] > 1e-3


class TestSolve:
    def test_starts_at_optimum(self, topo):
        out = solve(nominal_state(topo), topo.rest_lengths(), topo)
        assert out.converged
        assert out.iterations <= 2
        assert out.residual_norm < 1e-12

    def test_recovers_single_press(self, topo):
        coords_gt = deform(topo, {8: np.array([0.0, 0.0, -0.030])})
        lengths = edge_lengths(topo, coords_gt)
        out = solve(nominal_state(topo), lengths, topo,
                    SolveOptions(residual_tolerance=0.0))
        free = list(topo.free_nodes)
        rmse = np.sqrt(np.mean(np.sum(
            (out.state.coords[free] - coords_gt[free]) ** 2, axis=1)))
        assert out.converged
        assert rmse < 1e-4

    def test_zero_iterations_returns_initial(self, topo):
        initial = nominal_state(topo)
        out = solve(initial, topo.rest_lengths() * 1.05, topo,
                    SolveOptions(max_iterations=0))
        assert not out.converged
        assert out.iterations == 0
        assert np.array_equal(out.state.coords, initial.coords)

    def test_anchors_bit_identical(self, topo):
        rng = np.random.default_rng(5)
        anchors = sorted(topo.anchored)
        for _ in range(10):
            coords_gt = random_feasible_state(topo, rng)
            out = solve(nominal_state(topo), edge_lengths(topo, coords_gt), topo)
            assert np.array_equal(out.state.coords[anchors],
                                  topo.nominal_coords[anchors])

    def test_accepted_steps_monotone(self, topo):
        rng = np.random.default_rng(6)
        for _ in range(10):
            coords_gt = random_feasible_state(topo, rng)
            out = solve(nominal_state(topo), edge_lengths(topo, coords_gt), topo)
            hist = np.array(out.cost_history)
            assert np.all(np.diff(hist) < 0)

    def test_wrong_jacobian_stall_is_not_convergence(self, topo, monkeypatch):
        # a sign-flipped Jacobian points every step uphill; damping grows
        # until the step is tiny, which must not pass for convergence
        rng = np.random.default_rng(4)
        targets = [edge_lengths(topo, random_feasible_state(topo, rng))
                   for _ in range(5)]
        for lengths in targets:
            assert solve(nominal_state(topo), lengths, topo).converged
        exact = reconstruction.jacobian
        monkeypatch.setattr(reconstruction, "jacobian", lambda c, *args: -exact(c, *args))
        for lengths in targets:
            out = solve(nominal_state(topo), lengths, topo)
            assert not out.converged
            assert out.residual_norm > 1e-3

    def test_singular_damped_system_grows_damping(self, topo, monkeypatch):
        # the first damped system raises LinAlgError; the retry adds 10x the damping
        lengths = edge_lengths(topo, deform(topo, {8: np.array([0.0, 0.0, -0.030])}))
        exact = np.linalg.solve
        systems = []

        def fail_first(a, b):
            systems.append(a.copy())
            if len(systems) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return exact(a, b)

        monkeypatch.setattr(np.linalg, "solve", fail_first)
        out = solve(nominal_state(topo), lengths, topo)
        assert out.converged and out.residual_norm < 1e-5
        grown = 9.0 * SolveOptions().damping_init * np.eye(27)
        assert np.allclose(systems[1] - systems[0], grown, rtol=0.0, atol=1e-12)

    def test_bad_initial_anchors_rejected(self, topo):
        coords = topo.nominal_coords.copy()
        coords[0, 0] += 1e-6
        bad = StateFrame(coords=coords)
        with pytest.raises(TopologyError):
            solve(bad, topo.rest_lengths(), topo)

    @pytest.mark.xfail(
        strict=True,
        reason="Near the flexible rest shape the length map is two-valued: a "
               "deformation and its fold conjugate produce identical member "
               "lengths (both residuals reach machine zero), so a cold start "
               "from nominal picks the wrong branch for a sizeable fraction "
               "of random deformations.  No length-based solver can reach "
               "99/100; measured recovery is roughly 60-75/100.")
    def test_round_trip_99_of_100(self, topo):
        rng = np.random.default_rng(2025)
        free = list(topo.free_nodes)
        opts = SolveOptions(residual_tolerance=0.0)
        ok = 0
        for _ in range(100):
            coords_gt = random_feasible_state(topo, rng)
            out = solve(nominal_state(topo), edge_lengths(topo, coords_gt),
                        topo, opts)
            rmse = np.sqrt(np.mean(np.sum(
                (out.state.coords[free] - coords_gt[free]) ** 2, axis=1)))
            if rmse <= 1e-4:
                ok += 1
        assert ok >= 99

    def test_fold_conjugate_demonstration(self, topo):
        # documents the ambiguity: two distinct states, identical lengths,
        # both exact zeros of the residual
        jac = jacobian(topo.nominal_coords, topo)
        null = np.linalg.svd(jac)[2][-1]
        free = list(topo.free_nodes)
        rng = np.random.default_rng(13)
        found = False
        for _ in range(20):
            coords_gt = random_feasible_state(topo, rng)
            lengths = edge_lengths(topo, coords_gt)
            outs = []
            for sign in (1.0, -1.0):
                init = topo.nominal_coords.copy()
                init[free] = (init[free].reshape(-1) + sign * 0.015 * null).reshape(9, 3)
                st = StateFrame(coords=init)
                outs.append(solve(st, lengths, topo,
                                  SolveOptions(residual_tolerance=0.0)))
            sep = np.linalg.norm(outs[0].state.coords - outs[1].state.coords)
            if sep > 1e-3 and all(o.residual_norm < 1e-9 for o in outs):
                found = True
                break
        assert found, "expected at least one two-branch case in 20 draws"


class TestTrack:
    def test_constant_stream_fixed_point(self, topo):
        lengths = edge_lengths(topo, deform(topo, {8: np.array([0, 0, -0.02])}))
        frames = [lengths] * 6
        results = run_tracker(frames, topo)
        ref = results[1].state.coords
        for r in results[2:]:
            assert np.array_equal(r.state.coords, ref)

    def test_press_release_returns_to_nominal(self, topo):
        frames = []
        for i in range(120):
            t_s = i / 10.0
            if t_s < 4:
                a = t_s / 4
            elif t_s < 8:
                a = 1.0
            elif t_s < 12:
                a = (12 - t_s) / 4
            else:
                a = 0.0
            disp = {n: np.array([0.0, 0.0, -0.030 * a]) for n in (4, 8, 11)}
            frames.append(edge_lengths(topo, deform(topo, disp)))
        # exact lengths deserve a tight stop: near rest the flex direction
        # is only pinned to ~1 mm at the default cost tolerance
        results = run_tracker(frames, topo, SolveOptions(residual_tolerance=0.0))
        assert len(results) == 120
        final = results[-1].state.coords
        free = list(topo.free_nodes)
        err = np.sqrt(np.mean(np.sum(
            (final[free] - topo.nominal_coords[free]) ** 2, axis=1)))
        assert err < 1e-3

    def test_exact_press_session_recovered_at_zero_tolerance(self, topo):
        # the default cost tolerance stops ~14 um of residual short, which
        # near the flexible rest shape leaves the flex free by up to 1.8 mm
        sc = press_scenario(topo)
        nodes, disp = sc.timeline([100 * k for k in range(300)])
        truth = [deform(topo, dict(zip(nodes, d))) for d in disp]
        frames = [edge_lengths(topo, c) for c in truth]
        results = run_tracker(frames, topo, SolveOptions(residual_tolerance=0.0))
        assert all(r.converged for r in results)
        worst = max(float(np.max(np.abs(r.state.coords - c)))
                    for r, c in zip(results, truth))
        assert worst < 1e-8, worst
        loose = run_tracker(frames, topo)
        worst_loose = max(float(np.max(np.abs(r.state.coords - c)))
                          for r, c in zip(loose, truth))
        assert worst_loose > 1e-3

    def test_warm_start_dominance(self, topo):
        frames = []
        for i in range(40):
            a = i / 39.0
            disp = {8: np.array([0.0, 0.0, -0.030 * a])}
            frames.append(edge_lengths(topo, deform(topo, disp)))
        opts = SolveOptions(residual_tolerance=0.0)
        tracker = Tracker(topo, opts)
        warm_iters = [tracker.process(f).iterations for f in frames]
        cold_iters = [solve(nominal_state(topo), f, topo, opts).iterations
                      for f in frames]
        assert np.mean(warm_iters) <= np.mean(cold_iters)

    def test_error_emitted_in_stream(self, topo):
        tracker = Tracker(topo)
        good = tracker.process(topo.rest_lengths())
        assert good.converged
        bad = tracker.process(np.full(24, -1.0))
        assert not bad.converged
        assert bad.error is not None
        after = tracker.process(topo.rest_lengths())
        assert after.converged  # tracker continued from the last good state


class TestMirroredRetry:
    """Tracker.process retries a mirrored solve once, from the same warm start
    with 100x the damping; solve is patched to report a mirror on chosen calls."""

    def track_two_frames(self, topo, monkeypatch, mirrored_calls):
        exact = reconstruction.solve
        calls = []

        def patched(initial, lengths, t, opts):
            calls.append((initial.coords, opts.damping_init))
            out = exact(initial, lengths, t, opts)
            if len(calls) in mirrored_calls:
                return replace(out, mirrored=True, converged=False)
            return out

        monkeypatch.setattr(reconstruction, "solve", patched)
        lengths = edge_lengths(topo, deform(topo, {8: np.array([0.0, 0.0, -0.010])}))
        tracker = Tracker(topo)
        first = tracker.process(lengths)
        tracker.process(lengths)
        assert [damping for _, damping in calls[:2]] == [1e-3, 1e-1]
        return first, calls, lengths

    def test_clean_retry_is_kept(self, topo, monkeypatch):
        first, calls, _ = self.track_two_frames(topo, monkeypatch, {1})
        assert first.converged and not first.mirrored
        assert np.array_equal(calls[2][0], first.state.coords)  # the next warm start

    def test_mirrored_retry_emits_warm_state(self, topo, monkeypatch):
        first, calls, lengths = self.track_two_frames(topo, monkeypatch, {1, 2})
        assert first.mirrored and not first.converged
        assert np.array_equal(first.state.coords, topo.nominal_coords)
        assert np.array_equal(calls[2][0], topo.nominal_coords)  # last good state kept
        # the diagnostics describe the emitted coordinates, not the mirrored solve
        own = residuals(first.state.coords, lengths, topo)
        assert np.array_equal(first.residuals, own)
        assert first.residual_norm == np.linalg.norm(own)
        assert first.residual_norm > 1e-3  # the warm start does not realize the press
        assert first.iterations == 0 and first.cost_history == ()
        assert "retry" in first.error


class TestBenchmarkBoundaries:
    """perfbench wraps reconstruction.residuals and .jacobian by module
    attribute and derives per-call costs and the step-accept ratio from their
    call counts, so solve must reach both through the module: residuals once
    per evaluated point (the start, then each trial step), jacobian once per
    iteration (plus the one whose gradient ends a noise-floor stop)."""

    def count_per_solve(self, monkeypatch):
        calls = {"residuals": [], "jacobian": []}
        for name, seen in calls.items():
            def counted(coords, *args, _fn=getattr(reconstruction, name), _seen=seen):
                _seen.append(np.array(coords))
                return _fn(coords, *args)
            monkeypatch.setattr(reconstruction, name, counted)
        exact = reconstruction.solve
        per_solve = []

        def solve_counted(*args):
            mark = {name: len(seen) for name, seen in calls.items()}
            out = exact(*args)
            per_solve.append((out, *(seen[mark[name]:] for name, seen in calls.items())))
            return out

        monkeypatch.setattr(reconstruction, "solve", solve_counted)
        return per_solve

    def check(self, per_solve):
        for out, res_at, jac_at in per_solve:
            points = {p.tobytes() for p in res_at}
            assert len(points) == len(res_at)  # never the same point twice
            assert len(res_at) >= len(out.cost_history) >= 1
            assert out.iterations <= len(jac_at) <= out.iterations + 1
            assert all(p.tobytes() in points for p in jac_at)
        accepted = sum(len(out.cost_history) - 1 for out, _, _ in per_solve)
        trials = sum(len(res_at) for _, res_at, _ in per_solve) - len(per_solve)
        assert 0 < accepted <= trials  # perfbench's step_accept_ratio is in (0, 1]

    def test_tracked_noisy_press(self, topo, monkeypatch):
        per_solve = self.count_per_solve(monkeypatch)
        sc = press_scenario(topo)
        rng = np.random.default_rng(3)
        frames = []
        nodes, disp = sc.timeline([200 * k for k in range(20)])
        for d in disp:
            exact = edge_lengths(topo, deform(topo, dict(zip(nodes, d))))
            frames.append(exact * (1.0 + rng.normal(0.0, 2e-3, size=24)))
        results = run_tracker(frames, topo, SolveOptions(prior_weight=1.0))
        assert len(per_solve) == len(results) == 20
        assert all(out is r for (out, _, _), r in zip(per_solve, results))
        self.check(per_solve)

    def test_cold_solve(self, topo, monkeypatch):
        per_solve = self.count_per_solve(monkeypatch)
        truth = random_feasible_state(topo, np.random.default_rng(11))
        out = reconstruction.solve(nominal_state(topo), edge_lengths(topo, truth), topo)
        assert out.iterations > 1
        self.check(per_solve)


class TestOptions:
    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=-1)
        with pytest.raises(ValueError):
            SolveOptions(damping_init=-1.0)

    def test_result_residuals_length(self, topo):
        out = solve(nominal_state(topo), topo.rest_lengths(), topo)
        assert isinstance(out, SolveResult)
        assert out.residuals.shape == (30,)


def reference_solve(initial, tendon_lengths, t, opts=SolveOptions()):
    """Slow oracle: the damped loop without the noise-floor stop, so it ends
    only on the residual tolerance, a stationary step-tolerance stop, a
    stall or the iteration cap."""
    coords0 = np.asarray(initial.coords, dtype=float)
    free = t.members.free
    x = coords0[free].reshape(-1).copy()
    x_prior = x.copy()
    w2 = opts.prior_weight ** 2

    def cost_of(res, xv):
        c = 0.5 * float(res @ res)
        if w2 > 0.0:
            d = xv - x_prior
            c += 0.5 * w2 * float(d @ d)
        return c

    def assemble(xv):
        c = coords0.copy()
        c[free] = xv.reshape(-1, 3)
        return c

    coords = assemble(x)
    res = reconstruction.residuals(coords, tendon_lengths, t)
    cost = cost_of(res, x)
    history = [cost]
    lam = opts.damping_init
    eye = np.eye(len(x))
    converged = cost < opts.residual_tolerance
    iterations = 0
    for iterations in range(1, (0 if converged else opts.max_iterations) + 1):
        jac_m = reconstruction.jacobian(coords, t)
        grad = jac_m.T @ res
        normal = jac_m.T @ jac_m
        if w2 > 0.0:
            grad = grad + w2 * (x - x_prior)
            normal = normal + w2 * eye
        accepted = False
        while not accepted:
            try:
                step = np.linalg.solve(normal + lam * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.linalg.norm(step) < 1e-12:  # STEP_TOLERANCE, restated on purpose
                converged = bool(np.linalg.norm(grad)
                                 <= reconstruction.STATIONARY_GRADIENT_LIMIT)
                break
            x_new = x + step
            coords_new = assemble(x_new)
            res_new = reconstruction.residuals(coords_new, tendon_lengths, t)
            cost_new = cost_of(res_new, x_new) if np.all(np.isfinite(res_new)) else np.inf
            if cost_new < cost:
                x, coords, res, cost = x_new, coords_new, res_new, cost_new
                history.append(cost)
                lam = max(lam / 10.0, 1e-15)
                accepted = True
            else:
                lam *= 10.0
                if lam > 1e12:
                    break
        if not accepted:
            break
        if cost < opts.residual_tolerance:
            converged = True
            break
    mirrored = bool(np.mean(coords[free, 2]) < 0.0)
    state = StateFrame(coords=coords)
    return SolveResult(state=state, converged=converged and not mirrored,
                       iterations=iterations,
                       residual_norm=float(np.linalg.norm(res)), residuals=res,
                       cost_history=tuple(history), mirrored=mirrored)


def noisy_draws(topo, noise, n):
    """Lengths of n random 45 mm deformations, times 1 + N(0, noise) each."""
    rng = np.random.default_rng(11)
    for _ in range(n):
        lengths = edge_lengths(topo, random_feasible_state(topo, rng))
        yield lengths * (1.0 + rng.normal(0.0, noise, size=24))


@pytest.fixture(scope="module")
def press_lengths(topo, noisy_model):
    """The 24-length frames the pipeline hands its tracker on the
    noisy seed-7 press session, the benchmark's press_session workload."""
    scenario = press_scenario(topo, depth=0.030, seed=7,
                              noise=NoiseModel(kind="uniform",
                                               band=DEFAULT_NOISE_BAND, seed=7))
    _, sensed = generate_session(scenario, topo, BendCalibration(),
                                 default_stretch_table())
    stream = []

    class Recording(Tracker):
        def process(self, tendon_lengths):
            stream.append(np.array(tendon_lengths))
            return super().process(tendon_lengths)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "Tracker", Recording)
        pipeline.reconstruct_session(sensed, topo, BendCalibration(), noisy_model,
                                     SolveOptions(prior_weight=1.0), clamp=True)
    assert len(stream) == 300
    return stream


class TestNoiseFloorStop:
    OPTS = SolveOptions(prior_weight=1.0)

    def assert_matches_reference(self, fast, slow):
        assert [r.converged for r in fast] == [r.converged for r in slow]
        gap = max(float(np.max(np.abs(f.state.coords - s.state.coords)))
                  for f, s in zip(fast, slow) if f.converged)
        assert gap <= 1e-6, gap

    def test_tracked_press_matches_reference(self, topo, press_lengths, monkeypatch):
        fast = run_tracker(press_lengths, topo, self.OPTS)
        monkeypatch.setattr(reconstruction, "solve", reference_solve)
        slow = run_tracker(press_lengths, topo, self.OPTS)
        assert all(r.converged for r in fast)
        self.assert_matches_reference(fast, slow)
        # the saving: noise-floor iterations are gone
        fast_iters = np.mean([r.iterations for r in fast])
        slow_iters = np.mean([r.iterations for r in slow])
        assert fast_iters <= 6.0 < slow_iters

    @pytest.mark.parametrize("noise", [0.0, 2e-3], ids=["exact", "noisy"])
    def test_cold_starts_match_reference(self, topo, noise):
        opts = SolveOptions(prior_weight=1.0 if noise else 0.0)
        fast, slow = [], []
        for lengths in noisy_draws(topo, noise, 50):
            fast.append(solve(nominal_state(topo), lengths, topo, opts))
            slow.append(reference_solve(nominal_state(topo), lengths, topo, opts))
        self.assert_matches_reference(fast, slow)

    def test_iterations_stable_under_ulp_lengths(self, topo, press_lengths):
        base = [r.iterations for r in run_tracker(press_lengths, topo, self.OPTS)]
        nudged = [lengths * (1.0 + 2.2e-16) for lengths in press_lengths]
        moved = [r.iterations for r in run_tracker(nudged, topo, self.OPTS)]
        assert sum(a == b for a, b in zip(base, moved)) >= 299

    def test_small_drop_at_large_gradient_keeps_iterating(self, topo, monkeypatch):
        # every accepted step counts as a noise-floor drop, so only the
        # gradient guard keeps the solve from stopping early
        monkeypatch.setattr(reconstruction, "NOISE_FLOOR_RELATIVE_DROP", 1.0)
        initial = nominal_state(topo)
        free = topo.members.free
        fast, slow = [], []
        for lengths in noisy_draws(topo, 2e-3, 20):
            out = solve(initial, lengths, topo, self.OPTS)
            dx = (out.state.coords[free] - initial.coords[free]).reshape(-1)
            grad = jacobian(out.state.coords, topo).T @ out.residuals + dx
            assert out.converged
            assert np.linalg.norm(grad) <= reconstruction.STATIONARY_GRADIENT_LIMIT
            fast.append(out)
            slow.append(reference_solve(initial, lengths, topo, self.OPTS))
        self.assert_matches_reference(fast, slow)
