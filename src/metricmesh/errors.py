"""Exception types shared across the package, and the text reader that raises them."""

import codecs
from typing import Callable


class MetricMeshError(Exception):
    """Base class for all errors raised by this package."""


class MeshError(MetricMeshError):
    """Base class for mesh construction and file parsing errors."""


class OFFParseError(MeshError):
    """Malformed OFF stream: bad header, counts, or vertex/face line."""


class FaceIndexError(MeshError):
    """Face references a vertex index outside the valid range."""


class NonTriangleFaceError(MeshError):
    """Face record is not a triangle (vertex count != 3 or repeated vertex)."""


class NonManifoldEdgeError(MeshError):
    """An edge in a loaded file borders more than two faces."""


class IsolatedVertexError(MeshError):
    """A vertex belongs to no face, so it has no area and no curvature."""


class InfeasibleMetricError(MetricMeshError):
    """Edge lengths violate the strict triangle inequality on some face."""

    def __init__(self, message: str, faces: tuple = ()):
        super().__init__(message)
        self.faces = tuple(faces)


class TapeError(MetricMeshError):
    """Base class for recording/evaluation failures in the autodiff tape."""


class TapeDomainError(TapeError):
    """An operation was applied outside its domain (sqrt of a negative, ...)."""


class TapeNonFiniteError(TapeError):
    """A NaN or infinity from a tape operation, the optimizer's gradient or its start loss."""


class FeasibilityProjectionError(MetricMeshError):
    """Feasibility repair sweeps did not converge within the sweep budget."""

    def __init__(self, message: str, faces: tuple = ()):
        super().__init__(message)
        self.faces = tuple(faces)


class DatasetError(MetricMeshError):
    """Malformed dataset file or dimension mismatch with the embedding."""


class ConfigError(MetricMeshError):
    """Invalid run configuration; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_text(path, error: Callable[[int, str], Exception]) -> str:
    """The UTF-8 text of the file at ``path``, with universal newlines.

    A leading byte-order mark is dropped. A byte that is not UTF-8 raises
    ``error(line, reason)`` for the line of the first such byte, so each
    reader reports it as its own error.
    """
    with open(path, "rb") as fh:
        # stripped from the bytes, so the error below indexes the bytes it decoded
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line the byte is on, counted as str.splitlines counts
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise error(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
