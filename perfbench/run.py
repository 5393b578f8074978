"""tenserecon benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload press_session --seed 7 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Workloads (see workloads.py): press_session, train_stretch,
cold_solve.  A run

1. times a cold set-up several times, each in a fresh interpreter
   (``setup_s``, the median);
2. runs a warm-up of the workload and discards it;
3. runs measured repeats for ``--seconds`` (two at least; none is started
   that would end past the window), sampling the host's speed while they
   run.  With ``--trace 1`` each measured repeat is followed by a traced
   one, run with span wrappers installed at the layer boundaries, and the
   speed is not sampled;
4. checks the outputs: every repeat of one seed must give bit-identical
   outputs, the expected number of frames, epochs or solves, and quality
   inside the workload's envelope.

Human-readable lines come first: the provenance block, every metric under
its own name with its unit, and the checks.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics (trace 0) or the per-layer metrics (trace 1).  Operations that fail
(unconverged frames or solves, diverged epochs) count in ``failed``.

End-to-end metrics.  Every run reports every end-to-end metric, so these five
are defined on all three workloads; each workload's own figures follow them:
  setup_s      s    cold import + topology build + model load (press_session)
                    or dataset build (train_stretch); median of several
  peak_rss_mb  MB   peak resident memory of the benchmark process
  repeat_s     s    wall time of one repeat, median over repeats: a 300-frame
                    session end to end (simulate, write, parse, reconstruct,
                    export, evaluate), a dataset build plus a 10-epoch
                    training run, or 400 deformations plus their cold solves
  op_ms        ms   median time of one operation: a reconstructed frame
                    (parse + reconstruct + export, per frame), a training
                    epoch, or a cold solve
  simulate_s   s    the part of repeat_s that makes the workload's inputs with
                    the program's simulator, median over repeats: a session's
                    generate_session plus its CSV and JSONL writes (mostly
                    the bend-polynomial inverse), the stretch dataset build,
                    or the 400 deformations and their edge lengths
repeat_s, op_ms and simulate_s are scaled to a nominal host speed: each
time is multiplied by PROBE_NOMINAL_MS over the median time of the SpeedProbe
loads that ran while it did (while its repeat did, for a stage too short to
hold PROBE_MIN of them).  The unscaled medians and the probe time are
printed as ``unscaled.*`` and ``probe_ms`` lines.
Workload-specific figures (reconstruct_ms_per_frame, train_s_per_epoch,
cold_solve_ms_p50/p90, RMSEs, recovered fraction...) are printed, unscaled,
as ``metric`` lines too.  The quality figures are deterministic per seed but
vary between seeds by tens of percent, so they are checked against each
workload's envelope rather than compared between runs.  Exit status: 0
correct, 1 a check failed, 2 no program.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# The host's speed moves between levels up to 1.7x apart within seconds,
# the same for the program and for a fixed load run beside it (SpeedProbe).
# Timings are scaled to a host on which one probe takes PROBE_NOMINAL_MS.
PROBE_INTERVAL_S = 0.05
PROBE_ROUNDS = 20
PROBE_NOMINAL_MS = 0.4
PROBE_MIN = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "repeat_s": "s", "op_ms": "ms",
                    "simulate_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["press_session", "train_stretch", "cold_solve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tenserecon").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    try:
        # the ceiling keeps git from reading a repository above the checkout
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(load_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start),
        "machine": platform.machine(),
    }


def ensure_model(size, recipe: dict) -> Path:
    """Path of the pre-trained press_session model, training it on a cache miss.

    The cache key covers the package source and the recipe, so a model is
    always one the code under test trained.
    """
    key = hashlib.sha256((source_digest() + json.dumps(recipe, sort_keys=True))
                         .encode()).hexdigest()[:16]
    path = HERE / ".cache" / f"lstm-{key}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "child.py"), "fit-model", str(SRC),
                        str(size.model_epochs), str(path)], check=True, timeout=600)
    return path


def setup_seconds(workload: str, seed: int, model_path) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", str(SRC), workload,
             str(seed), str(model_path or "-")],
            check=True, capture_output=True, text=True, timeout=120)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(step, seconds: int, min_repeats: int) -> list:
    """Call step() min_repeats times, then while one more call still fits.

    A press_session repeat can take half of the window, so "until the time
    is up" would often start one more that overruns by half the window.
    """
    out = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(out) >= min_repeats and elapsed * (len(out) + 1) / len(out) > seconds:
            return out
        out.append(step())


class SpeedProbe:
    """Samples the host's speed while a repeat runs.

    Every PROBE_INTERVAL_S a timer signal runs a small fixed load that does
    not use the program (dense 27x27 solves and interpreted arithmetic, the
    mix the program's own work is made of) in the main thread, between two
    bytecodes of whatever runs, and records its wall time.  The probes add
    about 1% to the repeat they interrupt, the same on every commit.
    """

    def __init__(self):
        import numpy as np

        self.solve = np.linalg.solve
        self.vector = np.linspace(0.0, 1.0, 27)
        self.matrix = np.outer(self.vector, self.vector) + np.eye(27)
        self.samples: list[tuple[float, float]] = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(PROBE_ROUNDS):
            acc += (float(self.solve(self.matrix, self.vector) @ self.vector)
                    + sum(k * 0.5 for k in range(20)))
        self.samples.append((t0, (time.perf_counter() - t0) * 1e3))

    def run(self, step):
        """step()'s result and the probes taken while it ran: (start, ms)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            out = step()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:
            self._probe(None, None)
        return out, self.samples


def speed_scale(probes, start=float("-inf"), end=float("inf")) -> float:
    """PROBE_NOMINAL_MS over the median probe time between start and end,
    or over the whole repeat when fewer than PROBE_MIN probes ran in between."""
    inside = [ms for t, ms in probes if start <= t <= end]
    if len(inside) < PROBE_MIN:
        inside = [ms for _, ms in probes]
    return PROBE_NOMINAL_MS / statistics.median(inside)


def traced_pair(wl, tracer, boundaries):
    """An untraced repeat, then a traced one: adjacent in time, so their
    ratio measures the tracing overhead and not a change in machine load."""
    plain = wl.repeat()
    tracer.install(boundaries(tracer))
    try:
        return plain, wl.repeat(tracer)
    finally:
        tracer.uninstall()


def check(wl, repeats, seed: int) -> list[str]:
    problems = [p for r in repeats for p in r.problems]
    if len({r.digest for r in repeats}) != 1:
        problems.append(f"outputs differ between {len(repeats)} repeats of seed {seed}")
    if any(r.quality != repeats[0].quality for r in repeats):
        problems.append(f"quality differs between repeats of seed {seed}")
    if repeats[0].quality:
        problems += [f"quality: {p}" for p in wl.quality_problems(repeats[0].quality)]
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool, size,
        load_at_start) -> tuple[dict, list[str]]:
    """One benchmark run; prints the human-readable lines, returns the result."""
    from layers import PER_LAYER, boundaries, per_layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, median_op, model_recipe

    model_path = None
    if workload == "press_session":
        model_path = ensure_model(size, model_recipe(size))
    setups = setup_seconds(workload, seed, model_path)

    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, size, workdir, model_path)
        wl.warmup()
        if trace:
            tracer = Tracer()
            pairs = measure(lambda: traced_pair(wl, tracer, boundaries), seconds, 1)
            measured = [plain for plain, _ in pairs]
            traced = [t for _, t in pairs]
        else:
            # two repeats at least, so that every run compares outputs of one seed
            probe = SpeedProbe()
            timed = measure(lambda: probe.run(wl.repeat), seconds, 2)
            measured = [r for r, _ in timed]
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = check(wl, measured + traced, seed)
    counted = measured + traced
    attempted = sum(r.ops for r in counted)
    failed = sum(r.failed for r in counted)

    print("provenance " + json.dumps(provenance(load_at_start), sort_keys=True))
    for name, (value, unit) in wl.figures(measured).items():
        print(f"metric {name} = {value!r} {unit}")
    if trace:
        problems += tracer.tree_errors()
        overhead = statistics.median(t.wall_s / p.wall_s for p, t in pairs)
        metrics = per_layer_metrics(tracer, traced, overhead)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"{workload}-seed{seed}-spans.json"
        spans_file.write_text(json.dumps(tracer.to_json(), indent=1) + "\n")
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        for name, value, unit in (
                ("probe_ms", statistics.median(ms for _, p in timed for _, ms in p), "ms"),
                ("unscaled.repeat_s", statistics.median(r.wall_s for r in measured), "s"),
                ("unscaled.op_ms", median_op(measured), "ms"),
                ("unscaled.simulate_s", statistics.median(r.simulate_s for r in measured),
                 "s")):
            print(f"metric {name} = {value!r} {unit}")
        op_scales = [(r, speed_scale(p, *r.marks[1:])) for r, p in timed]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "repeat_s": statistics.median(r.wall_s * speed_scale(p) for r, p in timed),
            "op_ms": statistics.median(v * k for r, k in op_scales for v in r.op_ms),
            "simulate_s": statistics.median(r.simulate_s * speed_scale(p, *r.marks[:2])
                                            for r, p in timed),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"checks: {len(problems)} problem(s), {failed} of {attempted} operations failed")
    for p in problems:
        print(f"  problem: {p}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, problems


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    # Before numpy loads.  On a 2-vCPU x86-64 VM with OpenBLAS 0.3.31 a second
    # BLAS thread kept the other core 50-80% busy during training without
    # making it faster, and tied every run to the load on both cores.
    # Set-up and model-fitting children inherit this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "tenserecon" / "__init__.py").is_file():
        print(f"no tenserecon source under {SRC.relative_to(ROOT)}/; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import Size

    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), Size(),
                    load_at_start)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
