"""Jyutping lexicon and input-method (cin) table loading.

Builds the homophone index that maps each Jyutping code (syllable +
tone) to its character set, and each character to its codes, as
integer arrays from one sort of the lexicon's pairs.  All of it is
immutable after construction and safe to share across concurrent
decodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedLine, open_text

if TYPE_CHECKING:
    from .emissions import Vocabulary

_JYUTPING_RE = re.compile(r"^([a-z]+)([0-9])$")


@dataclass(frozen=True, order=True)
class JyutpingCode:
    """A Cantonese syllable with its tone digit, e.g. wong4."""

    syllable: str
    tone: int

    @property
    def text(self) -> str:
        return f"{self.syllable}{self.tone}"

    @classmethod
    def parse(cls, raw: str, line_no: int = 0, path: str | None = None) -> "JyutpingCode":
        m = _JYUTPING_RE.match(raw)
        if not m:
            raise MalformedLine(line_no, f"bad Jyutping code {raw!r}", path)
        tone = int(m.group(2))
        if not 1 <= tone <= 6:
            raise MalformedLine(line_no, f"tone {tone} outside 1..6", path)
        return cls(m.group(1), tone)


@dataclass(frozen=True)
class Lexicon:
    """Ordered (character, code) entries; duplicates collapsed at load."""

    entries: tuple[tuple[str, JyutpingCode], ...]

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class HomophoneIndex:
    """Characters grouped by exact (syllable, tone) code, as read-only
    int32 arrays.

    codes holds the distinct code texts ("zo2"), sorted; a code's id is
    its position there.  points holds the characters' code points,
    sorted; a character's row is its position there.  In CSR form, row
    r's code ids, ascending, are char_codes[char_ptr[r]:char_ptr[r + 1]]
    (their number is the character's pronunciation count), and code k's
    rows, in code-point order, are code_rows[code_ptr[k]:code_ptr[k + 1]].
    build_homophone_index is the only constructor.  Equality is identity:
    two builds of one lexicon are different objects with equal codes and
    arrays.  The arrays take no part in repr.
    """

    codes: tuple[str, ...]
    points: np.ndarray = field(repr=False)
    char_ptr: np.ndarray = field(repr=False)
    char_codes: np.ndarray = field(repr=False)
    code_ptr: np.ndarray = field(repr=False)
    code_rows: np.ndarray = field(repr=False)

    def codes_of(self, char: str) -> tuple[str, ...]:
        """The code texts listing char, sorted; () for a string that is
        not a character of the index."""
        row = _positions(self.points, np.array([ord(char) if len(char) == 1 else -1]))[0]
        if row < 0:
            return ()
        return tuple(self.codes[k] for k in self.char_codes[self.char_ptr[row]:self.char_ptr[row + 1]].tolist())

    def homophones_of(self, char: str) -> tuple[str, ...]:
        """Union of all characters sharing any code with char, minus char,
        in code-point order; () for a string that is not a character of
        the index."""
        row = _positions(self.points, np.array([ord(char) if len(char) == 1 else -1]))[0]
        if row < 0:
            return ()
        spans = [self.code_rows[self.code_ptr[k]:self.code_ptr[k + 1]]
                 for k in self.char_codes[self.char_ptr[row]:self.char_ptr[row + 1]].tolist()]
        return tuple(chr(point) for point in self.points[np.setdiff1d(np.concatenate(spans), row)].tolist())

    def in_vocab_homophones(self, vocab: Vocabulary, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-vocabulary homophones of the vocabulary entries ids, as
        arrays: per entry their number; concatenated in entry order, their
        vocabulary ids; and per homophone its code count N.  Entry k's are
        tuple(h for h in homophones_of(vocab.tokens[ids[k]]) if h in
        vocab.index), in that order, and h's N is len(codes_of(h)).

        The scalar walk's work as gathers: each entry's codes, those codes'
        rows, one sort of the (entry, row) keys that drops repeats and the
        entry itself, and one search of the vocabulary's code points.
        """
        rows = _positions(self.points, vocab.code_points[ids])
        n_codes = np.where(rows >= 0, self.char_ptr[rows + 1] - self.char_ptr[rows], 0)
        entry = np.repeat(np.arange(rows.shape[0]), n_codes)
        codes = self.char_codes[_csr_positions(self.char_ptr[rows], n_codes)]
        n_rows = self.code_ptr[codes + 1] - self.code_ptr[codes]
        entry = np.repeat(entry, n_rows)
        width = max(self.points.shape[0], 1)
        key = np.sort(entry * width + self.code_rows[_csr_positions(self.code_ptr[codes], n_rows)])
        entry, row = np.divmod(key[np.diff(key, prepend=-1) != 0], width)  # a polyphone pair can share two codes
        homophone = row != rows[entry]
        entry, row = entry[homophone], row[homophone]
        found = _positions(vocab.code_points, self.points[row], vocab.code_point_order)
        entry, row, found = entry[found >= 0], row[found >= 0], found[found >= 0]
        return np.bincount(entry, minlength=rows.shape[0]), found, self.char_ptr[row + 1] - self.char_ptr[row]

    def homophone_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct pair of rows sharing a code, as int32 rows first <
        second, ordered by first, then by second."""
        width = max(self.points.shape[0], 1)
        # the member at flat position m of a code's rows pairs with the one d places after it, for each
        # d up to its number of later members; one offset at a time keeps the temporaries small
        later = np.repeat(self.code_ptr[1:], np.diff(self.code_ptr)) - np.arange(1, self.code_rows.shape[0] + 1)
        parts = [np.zeros(0, dtype=np.int64)]
        for d in range(1, later.max(initial=0) + 1):
            at = np.flatnonzero(later >= d)
            parts.append(self.code_rows[at] * np.int64(width) + self.code_rows[at + d])
        key = np.concatenate(parts)
        del parts  # as large as key: gone before the sort and the dedupe allocate theirs
        key.sort()
        first, second = np.divmod(key[np.diff(key, prepend=-1) != 0], width)  # a polyphone pair can share two codes
        return first.astype(np.int32), second.astype(np.int32)


def _positions(keys: np.ndarray, values: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Where each value sits in keys, or -1 where keys holds none; keys
    is sorted, or sorted once permuted by order."""
    if not keys.shape[0]:
        return np.full(values.shape, -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(keys, values, sorter=order), keys.shape[0] - 1)
    if order is not None:
        at = order[at]
    return np.where(keys[at] == values, at, -1)


def _csr_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, .., starts[k] + lengths[k] - 1 for each k, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


@dataclass(frozen=True)
class GlyphCodeTable:
    """Typing codes from one input method's cin table."""

    method_name: str
    codes: dict[str, tuple[str, ...]]


def load_lexicon(path: str) -> Lexicon:
    """Parse a lexicon TSV of "<character>\\t<jyutping-code>" lines.

    UTF-8, "#" comment lines ignored, duplicate (character, code) pairs
    collapsed while preserving first-appearance order.  Each distinct
    code text is parsed once, at its first line, and its JyutpingCode is
    shared by every entry that lists it.
    """
    entries: list[tuple[str, JyutpingCode]] = []
    seen: set[tuple[str, str]] = set()
    codes: dict[str, JyutpingCode] = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise MalformedLine(line_no, "expected '<character>\\t<code>'", path)
            char, code_text = line.split("\t", 1)
            if len(char) != 1:
                raise MalformedLine(
                    line_no, f"character field must be a single Unicode scalar, got {char!r}", path
                )
            code_text = code_text.strip()
            code = codes.get(code_text)
            if code is None:
                code = codes[code_text] = JyutpingCode.parse(code_text, line_no, path)
            key = (char, code_text)  # a parsed code's text is the text it was parsed from
            if key in seen:
                continue
            seen.add(key)
            entries.append((char, code))
    return Lexicon(tuple(entries))


# characters that end a field or a line of a TSV record
TSV_BREAKS = frozenset("\t\n\r")


def save_lexicon(lex: Lexicon, path: str) -> None:
    """Write entries back as TSV; round-trips through load_lexicon.  An
    entry that would not read back as itself raises ValueError naming it
    before anything is written: a character that is not one Unicode
    scalar, is "#" (a comment line) or is a tab or a line break (a split
    record), or a code that JyutpingCode.parse does not return as is."""
    for char, code in lex.entries:
        if len(char) != 1 or char == "#" or char in TSV_BREAKS:
            raise ValueError(f"lexicon entry {char!r} {code.text!r}: character must be one Unicode scalar, "
                             "not '#', a tab or a line break")
        try:
            parsed = JyutpingCode.parse(code.text)
        except MalformedLine:
            parsed = None
        if parsed != code:
            raise ValueError(f"lexicon entry {char!r} {code!r}: code {code.text!r} does not parse back to it")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for char, code in lex.entries:
            fh.write(f"{char}\t{code.text}\n")


def build_homophone_index(lex: Lexicon) -> HomophoneIndex:
    """Group lexicon characters by exact (syllable, tone) code, from one
    sort of the lexicon's distinct (code point, code id) pairs.

    Pure function: the same lexicon always yields equal codes and arrays.
    Raises ValueError naming the entry if a character is not one Unicode
    scalar, as the arrays key on code points.
    """
    entries = lex.entries
    if set(map(len, map(itemgetter(0), entries))) - {1}:
        char, code = next(entry for entry in entries if len(entry[0]) != 1)
        raise ValueError(f"lexicon entry {char!r} {code.text!r}: character must be one Unicode scalar")
    # loaded entries share code objects, so each object's text is read once; each pass over the
    # entries is a map of built-ins, with no list of them made
    objects = dict(zip(map(id, map(itemgetter(1), entries)), map(itemgetter(1), entries)))
    names = sorted({code.text for code in objects.values()})
    rank = dict(zip(names, range(len(names))))
    rank_of = {key: rank[code.text] for key, code in objects.items()}
    n_codes = max(len(names), 1)
    key = np.frombuffer("".join(map(itemgetter(0), entries)).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    key = key * np.int64(n_codes)
    key += np.fromiter(map(rank_of.__getitem__, map(id, map(itemgetter(1), entries))), dtype=np.int64,
                       count=len(entries))
    key.sort()
    points, char_codes = np.divmod(key[np.diff(key, prepend=-1) != 0], n_codes)
    starts = np.flatnonzero(np.diff(points, prepend=-1))
    char_ptr = np.append(starts, points.shape[0])
    code_ptr = np.concatenate(([0], np.cumsum(np.bincount(char_codes, minlength=len(names)))))
    rows = np.repeat(np.arange(starts.shape[0]), np.diff(char_ptr))
    code_rows = rows[np.argsort(char_codes, kind="stable")]  # stable: each code's rows stay sorted
    # code points, ids and offsets fit 32 bits, which halves the arrays the index keeps
    arrays = tuple(array.astype(np.int32) for array in (points[starts], char_ptr, char_codes, code_ptr, code_rows))
    for array in arrays:
        array.flags.writeable = False
    return HomophoneIndex(tuple(names), *arrays)


def load_cin_table(path: str) -> GlyphCodeTable:
    """Parse the chardef block of a cin input-method table.

    Only the "%chardef begin" .. "%chardef end" block is consumed;
    header directives are scanned for %ename to name the method (file
    stem otherwise).  Both TAB and space separators are accepted since
    real-world cin files vary.
    """
    method_name = ""
    in_block = False
    saw_block = False
    codes: dict[str, list[str]] = {}
    seen_pairs: set[tuple[str, str]] = set()
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%"):
                fields = line.split(None, 1)
                directive = fields[0]
                arg = fields[1].strip() if len(fields) > 1 else ""
                if directive == "%ename" and arg:
                    method_name = arg
                elif directive == "%chardef":
                    if arg == "begin":
                        in_block = True
                        saw_block = True
                    elif arg == "end":
                        in_block = False
                continue
            if not in_block:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2 or not parts[0].isascii():
                raise MalformedLine(line_no, f"expected '<code> <character>', got {line!r}", path)
            code, char = parts[0], parts[1]
            if (char, code) in seen_pairs:
                continue
            seen_pairs.add((char, code))
            codes.setdefault(char, []).append(code)
    if not saw_block:
        raise MalformedLine(0, "no %chardef begin block found", path)
    if not method_name:
        stem = path.replace("\\", "/").rsplit("/", 1)[-1]
        method_name = stem.rsplit(".", 1)[0]
    return GlyphCodeTable(method_name=method_name, codes={c: tuple(v) for c, v in codes.items()})
