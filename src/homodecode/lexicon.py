"""Jyutping lexicon and input-method (cin) table loading.

Builds the homophone index that maps each Jyutping code (syllable +
tone) to its character set, and each character to its codes.  Both maps
are immutable after construction and safe to share across concurrent
decodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import MalformedLine, open_text

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


@dataclass(frozen=True)
class HomophoneIndex:
    """Characters grouped by exact (syllable, tone) code.

    by_code maps the code text form ("zo2") to its character set, each set
    deduplicated and ordered by Unicode code point.  codes_by_char gives
    the distinct codes listing a character, sorted; their number is the
    character's pronunciation (polyphone) count.  build_homophone_index
    builds both.
    """

    by_code: dict[str, tuple[str, ...]]
    codes_by_char: dict[str, tuple[str, ...]]

    def homophones_of(self, char: str) -> tuple[str, ...]:
        """Union of all characters sharing any code with char, minus char."""
        out: set[str] = set()
        for code in self.codes_by_char.get(char, ()):
            out.update(self.by_code[code])
        out.discard(char)
        return tuple(sorted(out))


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
    """Group lexicon characters by exact (syllable, tone) code.

    Pure function: the same lexicon always yields an identical index.
    """
    # one sorted list of distinct (character, code) pairs, grouped twice: no
    # container per character, which keeps the build's peak memory low
    pairs = sorted({(char, code.text) for char, code in lex.entries})
    codes_by_char = {char: tuple(c for _, c in group) for char, group in groupby(pairs, key=itemgetter(0))}
    pairs.sort(key=itemgetter(1))  # stable: each code's characters stay sorted
    by_code = {code: tuple(ch for ch, _ in group) for code, group in groupby(pairs, key=itemgetter(1))}
    return HomophoneIndex(by_code=by_code, codes_by_char=codes_by_char)


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
