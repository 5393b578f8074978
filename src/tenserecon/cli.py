"""Command-line toolkit: emit and validate topologies, simulate, fit, train,
reconstruct, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver non-convergence
(frames are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import harness, lstm, pipeline, reconstruction, sensors, simulator, topology
from .errors import DataFormatError, TenseReconError, TopologyError, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NOCONV = 3


def _resolve_topology(args) -> topology.Topology:
    if args.topology:
        topo = topology.load_topology(args.topology)
        violations = topology.validate(topo)
        if violations:
            raise TopologyError(f"invalid topology {args.topology}: " + "; ".join(violations))
        return topo
    return topology.build_canonical()


def _resolve_calibration(args) -> sensors.BendCalibration:
    if args.calibration:
        return sensors.load_calibration(args.calibration)
    return sensors.BendCalibration()


def _resolve_stretch_table(args) -> sensors.StretchTable:
    if args.stretch_table:
        return sensors.load_stretch_table(args.stretch_table)
    return sensors.default_stretch_table()


def _press_scenario(args, topo) -> simulator.Scenario:
    noise = simulator.NoiseModel(kind="none" if args.no_noise else "uniform", seed=args.seed)
    return simulator.press_scenario(topo, noise=noise)


def _report_metrics(report: harness.MetricsReport, path, *, announce: bool) -> None:
    """Write the metrics JSON to ``path`` when given, then print the headline lines."""
    if path:
        write_json(report.to_json_dict(), path)
        if announce:
            print(f"wrote {path}")
    print(f"node height RMSE: {report.rmse_node_height_mm:.3f} mm")
    print(f"face height RMSE: {report.rmse_face_height_mm:.3f} mm")
    print(f"system RMSE:      {report.rmse_system_mm:.3f} mm")
    print(f"converged:        {report.converged_fraction * 100.0:.1f}%")


def cmd_topology(args) -> int:
    topo = topology.build_canonical(args.strut_length)
    if args.out:
        topology.save_topology(topo, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(topology.to_json_dict(topo), indent=1))
    return EXIT_OK


def cmd_validate_topology(args) -> int:
    violations = topology.validate(topology.load_topology(args.file))
    for v in violations:
        print(f"violation: {v}")
    if violations:
        return EXIT_DATA
    print("ok")
    return EXIT_OK


def cmd_fit_bend(args) -> int:
    samples = []
    for lineno, cells in harness.read_csv_rows(args.data, "dr_ratio,strain"):
        try:
            sample = [float(c) for c in cells]
        except ValueError as exc:
            raise DataFormatError(f"non-numeric cell: {exc}", line=lineno) from exc
        if not all(map(math.isfinite, sample)):
            raise DataFormatError(f"non-finite cell in {','.join(cells)!r}", line=lineno)
        samples.append(sample)
    cal, r2 = sensors.fit_bending_polynomial(samples)
    names = ["c5", "c4", "c3", "c2", "c1", "c0"]
    for name, c in zip(names, cal.coefficients):
        print(f"{name} = {c!r}")
    print(f"R^2 = {r2!r}")
    if args.out:
        sensors.save_calibration(cal, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train_lstm(args) -> int:
    data = lstm.make_stretch_dataset(
        seed=args.seed,
        noise_band=tuple(args.noise_band) if args.noise_band else None,
        window=args.window,
    )
    model, report = lstm.train(data, learning_rate=args.learning_rate,
                               epochs=args.epochs, seed=args.seed,
                               hidden_size=args.hidden_size)
    lstm.save_model(model, args.out)
    print("epoch,train_loss,val_loss")
    for ep, (tl, vl) in enumerate(zip(report.train_losses, report.val_losses)):
        print(f"{ep},{tl!r},{vl!r}")
    print(f"best epoch: {report.best_epoch}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    topo = _resolve_topology(args)
    cal = _resolve_calibration(args)
    table = _resolve_stretch_table(args)
    sc = simulator.load_scenario(args.scenario) if args.scenario else _press_scenario(args, topo)
    truth, sensed = simulator.generate_session(sc, topo, cal, table)
    harness.write_sensor_csv(sensed, args.sensors_out)
    harness.export_frames(truth, args.truth_out)
    print(f"wrote {args.sensors_out} ({len(sensed)} frames)")
    print(f"wrote {args.truth_out} ({len(truth)} frames)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    topo = _resolve_topology(args)
    cal = _resolve_calibration(args)
    model = lstm.load_model(args.model)
    frames = harness.parse_sensor_csv(args.sensors)
    opts = reconstruction.SolveOptions(prior_weight=args.prior_weight,
                                       max_iterations=args.max_iterations)
    results = pipeline.reconstruct_session(frames, topo, cal, model, opts,
                                           clamp=args.clamp)
    harness.export_frames(results, args.out)
    n_conv = int(results.converged.sum())
    print(f"wrote {args.out} ({len(results)} frames, {n_conv} converged)")
    return EXIT_NOCONV if n_conv < len(results) else EXIT_OK


def cmd_evaluate(args) -> int:
    topo = _resolve_topology(args)
    report = harness.evaluate(harness.load_frames(args.est),
                              harness.load_frames(args.truth), topo)
    _report_metrics(report, args.out, announce=True)
    return EXIT_OK


def cmd_run_all(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    topo = _resolve_topology(args)
    cal = _resolve_calibration(args)
    table = _resolve_stretch_table(args)
    # loaded before anything is written, so a rejected model leaves no outputs
    model = lstm.load_model(args.model) if args.model else None

    topology.save_topology(topo, outdir / "topology.json")

    sc = _press_scenario(args, topo)
    simulator.save_scenario(sc, outdir / "scenario.json")
    truth, sensed = simulator.generate_session(sc, topo, cal, table)
    harness.write_sensor_csv(sensed, outdir / "sensors.csv")
    harness.export_frames(truth, outdir / "truth.jsonl")

    noisy = sc.noise.kind != "none"
    model_path = outdir / "lstm.json"
    if model is None:
        noise_band = sc.noise.band if noisy else None
        data = lstm.make_stretch_dataset(seed=args.seed, noise_band=noise_band)
        model, _ = lstm.train(data, epochs=args.epochs, seed=args.seed)
    lstm.save_model(model, model_path)

    # the stretch model is learned, so its bias rides the near-unobservable
    # flex direction unless a warm-start prior bounds it; clamping is always
    # on because regime crossings overshoot the bending domain by a frame
    opts = reconstruction.SolveOptions(prior_weight=1.0)
    results = pipeline.reconstruct_session(sensed, topo, cal, model, opts,
                                           clamp=True)
    harness.export_frames(results, outdir / "frames.jsonl")
    harness.write_length_series_csv(results, topo, outdir / "tendon_lengths.csv")

    report = pipeline.evaluate_session(results, truth, topo)
    _report_metrics(report, outdir / "metrics.json", announce=False)
    print(f"outputs in {outdir}")
    if report.converged_fraction < 1.0:
        return EXIT_NOCONV
    return EXIT_OK


def _at_least(kind, low, *, strict=False):
    """argparse type: a finite ``kind`` (float or int) >= low, or > low if strict."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid float value"
    return parse


class _Band(argparse.Action):
    """argparse action: two finite floats LO < HI."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise argparse.ArgumentError(self, f"needs finite LO < HI, got {lo} {hi}")
        setattr(namespace, self.dest, values)


def _add_seed(parser) -> None:
    # a string default is converted only when the flag is absent, so an explicit
    # "--seed 0" still counts as given to simulate's mutually exclusive group
    parser.add_argument("--seed", type=_at_least(int, 0), default="0", help="random seed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tenserecon",
        description="Tensegrity shape reconstruction from tendon strain sensors.")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("topology", help="emit the canonical topology JSON")
    sp.add_argument("--strut-length", type=_at_least(float, 0, strict=True), default=0.30)
    sp.add_argument("--out")

    sp = sub.add_parser("validate-topology", help="check a topology JSON's invariants")
    sp.add_argument("file", help="topology JSON")

    sp = sub.add_parser("fit-bend", help="fit the bending polynomial from CSV")
    sp.add_argument("data", help="CSV with header dr_ratio,strain")
    sp.add_argument("--out")

    sp = sub.add_parser("train-lstm", help="train the stretching model")
    sp.add_argument("--out", required=True)
    _add_seed(sp)
    sp.add_argument("--epochs", type=_at_least(int, 1), default=150)
    sp.add_argument("--learning-rate", type=_at_least(float, 0, strict=True), default=0.1)
    sp.add_argument("--hidden-size", type=_at_least(int, 1), default=32)
    sp.add_argument("--window", type=_at_least(int, 1), default=20)
    sp.add_argument("--noise-band", type=float, nargs=2, metavar=("LO", "HI"),
                    action=_Band)

    sp = sub.add_parser("simulate", help="generate sensor CSV + ground truth")
    # a scenario file carries its own noise and seed; without noise the seed is unread
    source = sp.add_mutually_exclusive_group()
    source.add_argument("--scenario", help="scenario JSON (default: press demo)")
    _add_seed(source)
    source.add_argument("--no-noise", action="store_true")
    sp.add_argument("--topology")
    sp.add_argument("--calibration")
    sp.add_argument("--stretch-table")
    sp.add_argument("--sensors-out", default="sensors.csv")
    sp.add_argument("--truth-out", default="truth.jsonl")

    sp = sub.add_parser("reconstruct", help="sensor CSV -> frames JSONL")
    sp.add_argument("sensors", help="sensor CSV file")
    sp.add_argument("--model", required=True, help="trained model JSON")
    sp.add_argument("--topology")
    sp.add_argument("--calibration")
    sp.add_argument("--prior-weight", type=_at_least(float, 0), default=0.0,
                    help="warm-start prior weight for noisy streams")
    sp.add_argument("--max-iterations", type=_at_least(int, 0), default=100)
    sp.add_argument("--clamp", action="store_true",
                    help="clamp out-of-domain sensor values instead of failing")
    sp.add_argument("--out", default="frames.jsonl")

    sp = sub.add_parser("evaluate", help="frames + truth -> metrics report")
    sp.add_argument("--est", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--topology")
    sp.add_argument("--out")

    sp = sub.add_parser("run-all", help="simulate + train + reconstruct + evaluate")
    sp.add_argument("--outdir", default="runall_out")
    _add_seed(sp)
    sp.add_argument("--topology")
    sp.add_argument("--calibration")
    sp.add_argument("--stretch-table")
    # a reused model is not trained, so --epochs would go unread; the string
    # default keeps an explicit "--epochs 60" counted as given, as in _add_seed
    model = sp.add_mutually_exclusive_group()
    model.add_argument("--model", help="reuse a trained model instead of training")
    model.add_argument("--epochs", type=_at_least(int, 1), default="60")
    sp.add_argument("--no-noise", action="store_true")
    return p


_COMMANDS = {
    "topology": cmd_topology,
    "validate-topology": cmd_validate_topology,
    "fit-bend": cmd_fit_bend,
    "train-lstm": cmd_train_lstm,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "run-all": cmd_run_all,
}


def cli(argv=None) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except TenseReconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
