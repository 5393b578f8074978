"""Work the benchmark runs in a fresh interpreter.

    python3 perfbench/child.py setup <src dir> <workload> <seed> <model path>
        Time a cold set-up: import the package, build the topology, and load
        the model (press_session) or build the dataset (train_stretch).
        Prints the seconds taken.
    python3 perfbench/child.py fit-model <src dir> <epochs> <out path>
        Train the pre-trained press_session model and write it to out path.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(src, workload, seed, model_path):
    sys.path.insert(0, src)
    from tenserecon import (harness, lstm, pipeline, reconstruction,  # noqa: F401
                            sensors, simulator, topology)

    topology.build_canonical(0.30)
    if workload == "press_session":
        lstm.load_model(model_path)
    elif workload == "train_stretch":
        lstm.make_stretch_dataset(seed=int(seed), noise_band=simulator.DEFAULT_NOISE_BAND)
    print(repr(time.perf_counter() - T0))


def fit_model(src, epochs, out):
    sys.path.insert(0, src)
    from workloads import Size, fit_model as fit

    tmp = Path(out).with_suffix(".tmp")
    fit(Size(model_epochs=int(epochs)), tmp)
    tmp.replace(out)


if __name__ == "__main__":
    task, *rest = sys.argv[1:]
    {"setup": setup, "fit-model": fit_model}[task](*rest)
