"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics and workloads the code
produces, that every run prints every metric with its unit and a well-formed
span tree, that repeats agree bit for bit, and that the trace wrappers are
removed afterwards.  It asserts no timings, and ignores the quality
envelopes, which a one-epoch model cannot meet.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Size  # noqa: E402

TINY = Size(press_rate_hz=0.5, model_epochs=1, train_epochs=1, cold_draws=8)


def spec_errors() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        errors.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END_UNITS}")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layers != PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    return errors


def result_errors(label: str, result: dict, problems: list[str], trace: bool) -> list[str]:
    units = ({k: u for k, (u, _) in PER_LAYER.items()} if trace
             else run.END_TO_END_UNITS)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] >= 0):
        errors.append(f"{label}: attempted {result['attempted']!r}, "
                      f"failed {result['failed']!r}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(units))} missing, "
                      f"extra or with the wrong unit")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} = {m['value']!r}")
    errors += [f"{label}: {p}" for p in problems if not p.startswith("quality:")]
    return errors


def wrappers_left() -> list[str]:
    import tenserecon

    left = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("tenserecon"):
            left += [f"{mod_name}.{k}" for k, v in vars(mod).items()
                     if hasattr(v, "__wrapped__")]
    if hasattr(tenserecon.reconstruction.Tracker.process, "__wrapped__"):
        left.append("Tracker.process")
    return left


def main() -> int:
    errors = spec_errors()
    for workload in WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            with contextlib.redirect_stdout(io.StringIO()):
                result, problems = run.run(workload, 1, 1, trace, TINY, os.getloadavg())
            errors += result_errors(label, result, problems, trace)
            errors += [f"{label}: wrapper left on {w}" for w in wrappers_left()]
            print(f"{label}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
