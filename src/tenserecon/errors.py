"""Exception types shared across the package, the JSON read/write pair that every
JSON format goes through, so a bad file raises its format's error naming it, with
the one rule for what an integer and a number in an input file are, and the reader
of the line-based formats, so a file that is not UTF-8 does the same."""

import contextlib
import json

import numpy as np

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1  # the range of every integer an input gives


class TenseReconError(Exception):
    """Base class for all package errors."""


class TopologyError(TenseReconError):
    """Structurally invalid topology description."""


class SensorDomainError(TenseReconError):
    """A sensor value left its calibration domain, or a frame its session's order; the
    message is tagged ``t=<ms> ms: sensor <k>: `` with what is known, ``frame`` its index."""

    def __init__(self, message: str, sensor: int | None = None, t_ms: int | None = None,
                 frame: int | None = None):
        tagged = message if sensor is None else f"sensor {sensor}: {message}"
        super().__init__(tagged if t_ms is None else f"t={t_ms} ms: {tagged}")
        self.sensor, self.frame = sensor, frame
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
    """Constraint projection failed to restore strut lengths; ``frame`` is the failing
    frame's index in a stack or a session, None for a lone frame."""

    def __init__(self, message: str, frame: int | None = None):
        super().__init__(message)
        self.frame = frame


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


def json_int(value) -> int:
    """An integer field's value: a JSON integer inside int64, not a float, a boolean or a
    string.  Anything else is a ValueError, which read_json reports as its format's error."""
    if type(value) is not int or not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"{value!r} is not an integer inside int64")
    return value


def json_float(value) -> float:
    """A number field's value as a float: a JSON integer or float that a float holds, else a
    ValueError, as for json_int.  NaN and the infinities pass: each format checks its own."""
    if type(value) in (int, float):
        with contextlib.suppress(OverflowError):  # an integer no float holds
            return float(value)
    raise ValueError(f"{value!r} is not a JSON number a float holds")


def json_floats(value) -> np.ndarray:
    """Nested lists of numbers json_float takes, as a float array."""
    items = np.array(value, dtype=object)
    if set(map(type, items.flat)) <= {float}:  # all floats, the common case: nothing to check
        return items.astype(float)
    return np.vectorize(json_float, otypes=[float])(items)


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
