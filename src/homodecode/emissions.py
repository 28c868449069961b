"""Acoustic interface: per-frame CTC posteriors and the character vocabulary.

The decoder never touches a neural model; it consumes EmissionMatrix
files ("EMAT" binary format) produced offline.  Values are stored as
natural-log probabilities so a 32k-entry softmax row survives float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    DuplicateToken,
    MalformedLine,
    MissingBlankDirective,
    RowNotNormalized,
    VocabSizeMismatch,
    open_text,
    parse_count,
)

EMAT_MAGIC = b"EMAT"
EMAT_VERSION = 1
ROW_SUM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token list with one designated CTC blank."""

    tokens: tuple[str, ...]
    blank_index: int
    index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.index:
            object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index_of(self, token: str) -> int | None:
        return self.index.get(token)


@dataclass(frozen=True)
class EmissionMatrix:
    """T x V natural-log posterior matrix, one row per decoding step."""

    log_probs: np.ndarray  # float32, shape (T, V)

    @property
    def frames(self) -> int:
        return int(self.log_probs.shape[0])

    @property
    def vocab_size(self) -> int:
        return int(self.log_probs.shape[1])

    @classmethod
    def from_linear(cls, probs) -> "EmissionMatrix":
        """Build from linear-space probabilities (rows need not be exact)."""
        arr = np.asarray(probs, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return cls(np.log(arr).astype(np.float32))


def load_vocab(path: str) -> Vocabulary:
    """Load a one-token-per-line vocabulary.

    The first line must be a "#blank <index>" directive naming the blank
    token's position; remaining lines are tokens in index order.
    """
    with open_text(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    fields = lines[0].split() if lines else []
    if not fields or fields[0] != "#blank":
        raise MissingBlankDirective(path)
    expected = "expected '#blank <index>'"
    if len(fields) != 2:
        raise MalformedLine(1, expected, path)
    blank_index = parse_count(fields[1], 1, expected, path)
    tokens: list[str] = []
    seen: set[str] = set()
    for line_no, token in enumerate(lines[1:], start=2):
        if token == "":
            raise MalformedLine(line_no, "empty token line", path)
        if token in seen:
            raise DuplicateToken(token, line_no, path)
        seen.add(token)
        tokens.append(token)
    if not 0 <= blank_index < len(tokens):
        raise MalformedLine(1, f"blank index {blank_index} outside vocabulary of {len(tokens)}", path)
    return Vocabulary(tuple(tokens), blank_index)


def save_vocab(vocab: Vocabulary, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#blank {vocab.blank_index}\n")
        for token in vocab.tokens:
            fh.write(token + "\n")


def load_emissions(path: str, vocab: Vocabulary) -> EmissionMatrix:
    """Load an EMAT file and validate it against the vocabulary.

    Header: magic "EMAT", u32 version=1, u32 T, u32 V (little-endian),
    then T*V little-endian float32 natural-log probabilities, row-major.
    Every row must exponentiate-sum to 1 within 1e-4.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != EMAT_MAGIC:
            raise BadMagic(header[:4], path)
        version, frames, width = struct.unpack("<III", header[4:16])
        if version != EMAT_VERSION:
            raise BadMagic(header[:4], path)
        payload = fh.read()
    expected = frames * width * 4
    if len(payload) != expected:
        raise MalformedLine(0, f"expected {expected} payload bytes, found {len(payload)}", path)
    if width != vocab.size:
        raise VocabSizeMismatch(width, vocab.size, path)
    values = np.frombuffer(payload, dtype="<f4").reshape(frames, width)
    row_sums = np.exp(values.astype(np.float64)).sum(axis=1)
    # negated <= so NaN rows fail the check too
    bad = np.nonzero(~(np.abs(row_sums - 1.0) <= ROW_SUM_TOLERANCE))[0]
    if bad.size:
        frame = int(bad[0])
        raise RowNotNormalized(frame, float(row_sums[frame]), path)
    return EmissionMatrix(values)


def save_emissions(matrix: EmissionMatrix, path: str) -> None:
    """Write an EmissionMatrix in the EMAT binary format (bit-exact)."""
    values = np.ascontiguousarray(matrix.log_probs, dtype="<f4")
    frames, width = values.shape
    with open(path, "wb") as fh:
        fh.write(EMAT_MAGIC)
        fh.write(struct.pack("<III", EMAT_VERSION, frames, width))
        fh.write(values.tobytes())
