"""Exception types shared across the toolkit.

Every error raised on malformed input files carries enough context
(path, line number) for the CLI to print an actionable message and
exit with status 2.  open_text opens the toolkit's UTF-8 inputs so that
undecodable bytes raise such an error too, parse_count reads the counts
and indices of text inputs, and check_types holds the settings classes
to the value types of their fields.
"""

from __future__ import annotations

import contextlib


class HomodecodeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(HomodecodeError):
    """Base class for malformed-input errors (CLI maps these to exit 2)."""


# --- text table parsing (lexicon TSV, cin tables, vocab files) ---

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


class InvalidTone(FormatError):
    def __init__(self, tone: int, line_no: int | None = None, path: str | None = None):
        self.tone = tone
        self.line_no = line_no
        self.path = path
        where = f"{path}:{line_no}: " if path and line_no else ""
        super().__init__(f"{where}tone {tone} outside 1..6")


class MissingChardefBlock(FormatError):
    def __init__(self, path: str | None = None):
        self.path = path
        super().__init__(f"no %chardef begin block found{' in ' + path if path else ''}")


class DuplicateToken(FormatError):
    def __init__(self, token: str, line_no: int | None = None, path: str | None = None):
        self.token = token
        self.line_no = line_no
        where = f"{path}:{line_no}: " if path and line_no else ""
        super().__init__(f"{where}duplicate vocabulary token {token!r}")


class MissingBlankDirective(FormatError):
    def __init__(self, path: str | None = None):
        super().__init__(
            f"vocabulary file must start with a '#blank <index>' directive"
            f"{' (' + path + ')' if path else ''}"
        )


# --- emission matrix binary format ---

class BadMagic(FormatError):
    def __init__(self, found: bytes, path: str | None = None):
        self.found = found
        super().__init__(
            f"bad magic {found!r}, expected b'EMAT'{' in ' + path if path else ''}"
        )


class VocabSizeMismatch(FormatError):
    def __init__(self, file_v: int, vocab_v: int, path: str | None = None):
        self.file_v = file_v
        self.vocab_v = vocab_v
        super().__init__(
            f"emission matrix has V={file_v} but vocabulary has {vocab_v} tokens"
            f"{' (' + path + ')' if path else ''}"
        )


class RowNotNormalized(FormatError):
    def __init__(self, frame: int, row_sum: float, path: str | None = None):
        self.frame = frame
        self.row_sum = row_sum
        super().__init__(
            f"frame {frame}: exponentiated row sums to {row_sum:.6f}, not 1 within 1e-4"
            f"{' (' + path + ')' if path else ''}"
        )


class EmptyEmissions(HomodecodeError):
    def __init__(self) -> None:
        super().__init__("emission matrix has zero frames")


# --- ARPA language model ---

class CountMismatch(FormatError):
    def __init__(self, order: int, declared: int, found: int, path: str | None = None):
        self.order = order
        self.declared = declared
        self.found = found
        super().__init__(
            f"\\{order}-grams: declared {declared} entries, found {found}"
            f"{' (' + path + ')' if path else ''}"
        )


class MissingSection(FormatError):
    def __init__(self, section: str, path: str | None = None):
        self.section = section
        super().__init__(f"missing {section} section{' in ' + path if path else ''}")


# --- decoder / scoring ---

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
