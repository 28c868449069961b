"""Exception types shared across the toolkit.

Every malformed input file raises MalformedLine, which carries the
path and line number (0 for a fault of the whole file or its header)
and prints as "path:line: message"; the CLI maps it to exit status 2.
The other HomodecodeError types guard API calls.  open_text opens the
toolkit's UTF-8 inputs so that undecodable bytes raise MalformedLine
too, parse_count reads the counts and indices of text inputs, and
check_types holds the settings classes to the value types of their
fields.
"""

from __future__ import annotations

import contextlib


class HomodecodeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(HomodecodeError):
    """Base class for malformed-input errors (CLI maps these to exit 2)."""


class MalformedLine(FormatError):
    def __init__(self, line_no: int, message: str, path: str | None = None):
        self.line_no = line_no
        self.path = path
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")


def parse_count(text: str, line_no: int, message: str, path: str) -> int:
    """The non-negative decimal integer text spells; anything else,
    including more digits than int() converts, raises MalformedLine with
    message at path:line_no.  str.isdecimal, not isdigit: int() refuses
    digits such as "²"."""
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            pass
    raise MalformedLine(line_no, message, path)


def _undecodable(path: str) -> MalformedLine:
    """A MalformedLine at the line holding path's first non-UTF-8 byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        # count lines the way text mode splits them (universal newlines)
        line_no = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return MalformedLine(line_no, f"not UTF-8: {exc.reason} at byte offset {exc.start}", path)
    return MalformedLine(0, "not UTF-8", path)


@contextlib.contextmanager
def open_text(path: str):
    """Open a UTF-8 text file for reading; bytes that do not decode raise
    MalformedLine naming the file and line instead of UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise _undecodable(path) from None


def check_types(config, kinds: tuple[type, ...], *names: str) -> None:
    """Raise TypeError naming the first field of config, among names,
    whose value is no instance of kinds, so that a wrong JSON type in a
    config file is refused at load.  A bool passes only where kinds
    holds bool, although Python counts it as an int."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            wanted = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
            raise TypeError(f"{name} must be {wanted}, got {value!r}")


# --- decoder inputs ---

class EmptyEmissions(HomodecodeError):
    def __init__(self) -> None:
        super().__init__("emission matrix has zero frames")


class InvalidProbability(HomodecodeError):
    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"{name}={value!r} outside [0, 1]")


# --- unified writing ---

class EmptyString(HomodecodeError):
    def __init__(self) -> None:
        super().__init__("edit distance operands must be non-empty")


class ZeroVector(HomodecodeError):
    def __init__(self) -> None:
        super().__init__("cosine similarity undefined for a zero vector")


class DimMismatch(HomodecodeError):
    def __init__(self, dim_u: int, dim_v: int):
        self.dim_u = dim_u
        self.dim_v = dim_v
        super().__init__(f"vector dimensions differ: {dim_u} vs {dim_v}")


class EmptySentence(HomodecodeError):
    def __init__(self) -> None:
        super().__init__("checker requires non-empty sentences")


class MissingEmbedding(HomodecodeError):
    def __init__(self, char: str):
        self.char = char
        super().__init__(f"no embedding for character {char!r}")


# --- evaluation ---

class EmptyReference(HomodecodeError):
    def __init__(self, utt_id: str):
        self.utt_id = utt_id
        super().__init__(f"utterance {utt_id!r} has an empty reference")
