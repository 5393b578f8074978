"""Exception types shared across the package."""


class TenseReconError(Exception):
    """Base class for all package errors."""


class TopologyError(TenseReconError):
    """Structurally invalid topology description."""


class SensorDomainError(TenseReconError):
    """A sensor value left the valid domain of its calibration model."""

    def __init__(self, message: str, sensor: int | None = None):
        super().__init__(message if sensor is None else f"sensor {sensor}: {message}")
        self.sensor = sensor


class CalibrationError(TenseReconError):
    """Calibration fit cannot be performed (rank deficiency, bad samples)."""


class ModelFormatError(TenseReconError):
    """Malformed or incompatible serialized model file."""


class DivergenceError(TenseReconError):
    """Training loss became non-finite."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class SingularGeometryError(TenseReconError):
    """Connected nodes are (near) coincident; derivatives are undefined."""


class RelaxationError(TenseReconError):
    """Constraint projection failed to restore strut lengths."""


class OrderingError(TenseReconError):
    """Frame timestamps are not strictly increasing."""


class DataFormatError(TenseReconError):
    """Malformed input data file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MetricsError(TenseReconError):
    """Estimate and ground-truth streams cannot be aligned."""
