"""Exception types shared across the package, the JSON read/write pair that every
JSON format goes through, so a bad file raises its format's error naming it, and
the reader of the line-based formats, so a file that is not UTF-8 does the same."""

import json


class TenseReconError(Exception):
    """Base class for all package errors."""


class TopologyError(TenseReconError):
    """Structurally invalid topology description."""


class SensorDomainError(TenseReconError):
    """A sensor value left the valid domain of its calibration model; the message
    is tagged ``t=<ms> ms: sensor <k>: `` with whichever of the two are known."""

    def __init__(self, message: str, sensor: int | None = None, t_ms: int | None = None):
        tagged = message if sensor is None else f"sensor {sensor}: {message}"
        super().__init__(tagged if t_ms is None else f"t={t_ms} ms: {tagged}")
        self.sensor = sensor
        self.detail = message  # untagged: a caller that passed a subset re-tags it


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
    from ``build`` (a version, shape or value check) keeps its class and is raised
    again as ``<path>: <message>``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
            raise error(f"unparseable {path}: {exc}") from exc
    try:
        return build(doc)
    except TenseReconError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    # AttributeError: .get and .items on a JSON list where an object belongs
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise error(f"malformed {path}: {exc}") from exc


def read_lines(path):
    """Yield the lines of the UTF-8 text file at ``path``; a byte that does not
    decode is a DataFormatError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def write_json(doc, path, indent=1) -> None:
    """Write ``doc`` as JSON with a trailing newline; indent=None writes it compact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
