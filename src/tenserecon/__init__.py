"""Shape reconstruction for a 6-strut tensegrity with strain-sensing tendons.

Submodules:
  topology        canonical structure, validation, edge lengths
  sensors         resistance/strain conversions, bending calibration
  lstm            stretching-regime sequence model and trainer
  reconstruction  distance residuals and damped least-squares tracking
  simulator       synthetic deformation scenarios and sensor streams
  harness         CSV/JSONL formats and RMSE metrics
  pipeline        end-to-end composition used by the CLI
"""

from .errors import TenseReconError
from .reconstruction import SolveOptions, SolveResult, StateFrame, solve
from .sensors import BendCalibration, Mode, SensorSession
from .topology import Topology, build_canonical, edge_lengths, validate

__version__ = "0.1.0"

__all__ = [
    "TenseReconError",
    "SolveOptions", "SolveResult", "StateFrame", "solve",
    "BendCalibration", "Mode", "SensorSession",
    "Topology", "build_canonical", "edge_lengths", "validate",
    "__version__",
]
