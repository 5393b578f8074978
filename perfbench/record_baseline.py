"""Record the benchmark baseline of the current source tree.

    python3 perfbench/record_baseline.py

Runs every workload for BENCHMARK.json's run_seconds at the baseline seed
(7, the demo seed) untraced and traced, and untraced at a second seed whose
output checks must pass too, then writes perfbench/baseline.json: each run's
result line, provenance block and workload figures.  Exits 1 if any run
fails its checks.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECOND_SEED = 8


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output\n{proc.stderr}")
    prov = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                if ln.startswith("provenance "))
    result = json.loads(lines[-1])
    figures = {}
    for ln in lines:
        if ln.startswith("metric "):
            name, rest = ln[len("metric "):].split(" = ", 1)
            value, unit = rest.split(" ", 1)
            if name not in result["metrics"]:
                figures[name] = {"value": float(value), "unit": unit}
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "provenance": prov, "figures": figures, "result": result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    plan = [(w, SEED, t) for t in (0, 1) for w in workloads]
    plan += [(w, SECOND_SEED, 0) for w in workloads]
    runs = []
    for workload, seed, trace in plan:
        runs.append(one_run(workload, seed, seconds, trace))
        r = runs[-1]["result"]
        print(f"{workload} seed {seed} trace {trace}: correct {r['correct']}, "
              f"{r['failed']} of {r['attempted']} failed", flush=True)
    doc = {"seed": SEED, "second_seed": SECOND_SEED, "seconds": seconds, "runs": runs}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
