"""Exception types shared across the package, and the JSON read/write pair that
every input format goes through, so a bad file raises its format's error naming it."""

import json


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


def read_json(path, error, build):
    """Decode the JSON file at ``path`` and return ``build(doc)``; a syntax error or a
    conversion error in ``build`` becomes ``error`` naming the path.  A TenseReconError
    from ``build`` (a version or shape check) passes through unchanged."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
            raise error(f"unparseable {path}: {exc}") from exc
    try:
        return build(doc)
    # AttributeError: .get and .items on a JSON list where an object belongs
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise error(f"malformed {path}: {exc}") from exc


def write_json(doc, path, indent=1) -> None:
    """Write ``doc`` as JSON with a trailing newline; indent=None writes it compact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
