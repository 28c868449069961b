"""Property tests of the loaders: any input file either loads or raises
MalformedLine naming that file (which the command line turns into exit 2
with the file and line), and a config file loads or raises FormatError;
never any other exception.  What the save functions write loads back
equal, or is refused at save."""

import dataclasses
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homodecode.cli import ToolConfig
from homodecode.decoder import DecoderConfig
from homodecode.emissions import Vocabulary, load_emissions, load_vocab
from homodecode.errors import FormatError, MalformedLine
from homodecode.evaluation import load_manifest
from homodecode.lexicon import JyutpingCode, Lexicon, load_cin_table, load_lexicon, save_lexicon
from homodecode.ngram_lm import load_arpa
from homodecode.unified_writing import (
    UnifiedPair,
    UWConfig,
    load_embeddings,
    load_frequency_table,
    load_pairs,
    save_pairs,
)

# fixed examples and no example database, so every run tries the same inputs
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# decimal digits, digits that int() refuses ("²", "³"), and near misses
NUMBERS = st.text(alphabet="0129²³١３-+. x", max_size=3)
WORDS = st.text(alphabet="ab左面²\t #", max_size=3)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"

    def write(lines) -> str:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    return write


def loads_or_format_error(load, path):
    """What load returns for path, or None if it raises MalformedLine
    naming path; any other exception fails the test."""
    try:
        return load(path)
    except MalformedLine as exc:
        assert exc.path == path
        return None


@FUZZ
@given(index=NUMBERS, tokens=st.lists(WORDS, max_size=4))
def test_load_vocab_loads_or_format_error(scratch, index, tokens):
    vocab = loads_or_format_error(load_vocab, scratch([f"#blank {index}", *tokens]))
    if vocab is not None:
        assert 0 <= vocab.blank_index < vocab.size


@FUZZ
@given(rows=st.lists(st.tuples(WORDS, NUMBERS), max_size=4))
def test_load_frequency_table_loads_or_format_error(scratch, rows):
    table = loads_or_format_error(load_frequency_table, scratch(f"{char}\t{count}" for char, count in rows))
    if table is not None:
        assert all(isinstance(n, int) and n >= 0 for n in table.counts.values())


COMPONENTS = st.sampled_from(["1.0", "0", "-2e3", "nan", "inf", "x", "²", ""])


@FUZZ
@given(
    header=st.tuples(NUMBERS, NUMBERS),
    rows=st.lists(st.tuples(WORDS, st.lists(COMPONENTS, max_size=3)), max_size=3),
)
def test_load_embeddings_loads_or_format_error(scratch, header, rows):
    lines = [" ".join(header), *(" ".join([char, *values]) for char, values in rows)]
    table = loads_or_format_error(load_embeddings, scratch(lines))
    if table is not None:
        assert all(vec.shape == (table.dim,) for vec in table.vectors.values())


JSON_VALUES = st.one_of(
    st.text(alphabet="ab面.", max_size=3),
    st.integers(-5, 5),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.just("k"), st.integers(0, 3), max_size=1),
)
MANIFEST_LINES = st.one_of(
    st.fixed_dictionaries({}, optional={key: JSON_VALUES for key in ("id", "emissions_path", "reference")}).map(
        json.dumps
    ),
    JSON_VALUES.map(json.dumps),
    st.text(alphabet='{}[]":, ab', max_size=6),
)


@FUZZ
@given(lines=st.lists(MANIFEST_LINES, max_size=3))
def test_load_manifest_loads_or_format_error(scratch, lines):
    entries = loads_or_format_error(load_manifest, scratch(lines))
    # a path of another JSON type would be opened as a file descriptor
    if entries is not None:
        assert all(isinstance(e.emissions_path, str) and isinstance(e.reference, str) for e in entries)


CODES = st.text(alphabet="az09²７ \t", max_size=5)


@FUZZ
@given(lines=st.lists(st.one_of(st.tuples(WORDS, CODES).map("\t".join), WORDS), max_size=4))
def test_load_lexicon_loads_or_format_error(scratch, lines):
    lex = loads_or_format_error(load_lexicon, scratch(lines))
    if lex is not None:
        assert all(len(char) == 1 and 1 <= code.tone <= 6 for char, code in lex.entries)


CIN_LINES = st.one_of(
    st.sampled_from(["%chardef begin", "%chardef end", "%chardef", "%ename", "%ename m", "%gen_inp", "# c"]),
    st.tuples(st.text(alphabet="ab左%", max_size=3), st.text(alphabet="左 \t", max_size=2)).map(" ".join),
    WORDS,
)


@FUZZ
@given(lines=st.lists(CIN_LINES, max_size=6))
def test_load_cin_table_loads_or_format_error(scratch, lines):
    table = loads_or_format_error(load_cin_table, scratch(lines))
    if table is not None:
        assert all(codes and all(code.isascii() for code in codes) for codes in table.codes.values())


PAIR_NUMBERS = st.sampled_from(["0.25", "-0.0", "1e-3", "nan", "inf", "x", "", "1_0"])
PAIR_GLYPHS = st.lists(st.tuples(st.text(alphabet="m=;", max_size=2), PAIR_NUMBERS).map("=".join), max_size=2)


@FUZZ
@given(rows=st.lists(st.one_of(
    st.tuples(WORDS, WORDS, PAIR_NUMBERS, PAIR_NUMBERS, PAIR_GLYPHS.map(";".join)).map("\t".join),
    WORDS,
), max_size=3))
def test_load_pairs_loads_or_format_error(scratch, rows):
    pairs = loads_or_format_error(load_pairs, scratch(rows))
    if pairs is not None:
        for p in pairs:
            assert all(map(math.isfinite, (p.jyutping_distance, p.cosine, *(d for _, d in p.glyph_distances))))


ARPA_LINES = st.one_of(
    st.sampled_from(["\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\0-grams:", ""]),
    st.tuples(NUMBERS, NUMBERS).map(lambda n: f"ngram {n[0]}={n[1]}"),
    st.tuples(st.sampled_from(["-0.5", "0", "nan", "x"]), st.lists(st.sampled_from(["a", "b", "-0.1"]), max_size=3))
    .map(lambda e: " ".join([e[0], *e[1]])),
)


@FUZZ
@given(lines=st.lists(ARPA_LINES, max_size=8))
def test_load_arpa_loads_or_format_error(scratch, lines):
    model = loads_or_format_error(load_arpa, scratch(lines))
    if model is not None:
        assert all(map(math.isfinite, [*model.probs.values(), *model.backoffs.values()]))


EMAT_VOCAB = Vocabulary(("<b>", "a"), 0)
# natural-log rows of any width; only the first two sum to 1
EMAT_ROWS = {
    "uniform": lambda width: [-math.log(max(width, 1))] * width,
    "one-hot": lambda width: [0.0 if i == 0 else -math.inf for i in range(width)],
    "short": lambda width: [math.log(0.9 / max(width, 1))] * width,
    "nan": lambda width: [math.nan] * width,
    "inf": lambda width: [math.inf] * width,
}
# u32 header fields; the largest would ask for a 64 GiB payload
EMAT_SIZES = st.sampled_from([0, 1, 2, 3, 2**32 - 1])
# faults applied to a well-formed file: header fields, and bytes cut or added
EMAT_FAULTS = st.lists(st.one_of(
    st.tuples(st.just("magic"), st.sampled_from([b"EMAX", b"EMA", b""])),
    st.tuples(st.just("version"), st.sampled_from([0, 2])),
    st.tuples(st.just("frames"), EMAT_SIZES),
    st.tuples(st.just("width"), EMAT_SIZES),
    st.tuples(st.just("extra"), st.sampled_from([-4, -1, 4])),
), max_size=2)


@FUZZ
@given(kinds=st.lists(st.sampled_from(sorted(EMAT_ROWS)), max_size=3), faults=EMAT_FAULTS)
def test_load_emissions_loads_or_format_error(tmp_path_factory, kinds, faults):
    well_formed = {"magic": b"EMAT", "version": 1, "frames": len(kinds), "width": EMAT_VOCAB.size, "extra": 0}
    header = {**well_formed, **dict(faults)}
    values = [value for kind in kinds for value in EMAT_ROWS[kind](min(header["width"], 3))]
    data = header["magic"] + struct.pack("<III", header["version"], header["frames"], header["width"])
    data += struct.pack(f"<{len(values)}f", *values)
    data = data[: header["extra"]] if header["extra"] < 0 else data + bytes(header["extra"])
    path = tmp_path_factory.mktemp("emat") / "m.emat"
    path.write_bytes(data)
    matrix = loads_or_format_error(lambda p: load_emissions(p, EMAT_VOCAB), str(path))
    if matrix is not None:
        assert header == well_formed and set(kinds) <= {"uniform", "one-hot"}
        assert np.array_equal(matrix.log_probs, np.array(values, dtype="<f4").reshape(len(kinds), EMAT_VOCAB.size))


# "<huge>" stands for an integer of 5,000 digits, which json refuses to convert
CONFIG_VALUES = st.one_of(JSON_VALUES, st.sampled_from([".", 10**400, -(10**400), 1e300, "<huge>"]))
# (section, key) of each setting of a config, a top-level key that is no
# setting, and an unknown key in each section
CONFIG_KEYS = st.sampled_from(
    [(None, name) for name in ("vocab", "lexicon", "lm", "output_dir", "variants", "uw_on_references", "lexcon")]
    + [(None, "decoder"), (None, "uw"), ("decoder", "unknown"), ("uw", "unknown")]
    + [("decoder", f.name) for f in dataclasses.fields(DecoderConfig)]
    + [("uw", f.name) for f in dataclasses.fields(UWConfig)]
)


def config_text(edits) -> str:
    """A config that loads, with each (section, key, value) edit applied."""
    obj = {"vocab": ".", "decoder": {}, "uw": {}}
    for (section, key), value in edits:
        target = obj.get(section)
        (target if isinstance(target, dict) else obj)[key] = value
    return json.dumps(obj).replace('"<huge>"', "9" * 5000)


@FUZZ
@given(text=st.one_of(
    st.lists(st.tuples(CONFIG_KEYS, CONFIG_VALUES), max_size=3).map(config_text),
    st.text(alphabet='{}[]":, 9.e', max_size=8),
))
def test_tool_config_loads_or_format_error(scratch, text):
    path = scratch([text])
    try:
        config = ToolConfig.from_json(path)
    except FormatError as exc:
        assert str(exc).startswith(path)
        return
    assert isinstance(config.decoder, DecoderConfig) and isinstance(config.uw, UWConfig)
    assert all(map(math.isfinite, (config.decoder.alpha, config.decoder.beta, config.uw.cosine_min)))


# valid lexicon entries, and in half the lists one more entry that may
# hold any character or short string and a code with any syllable and
# tone.  Save refuses what would not read back as itself: a character
# field that is not one scalar, is "#" (a comment) or a tab or a line
# break (a split record), and a code whose syllable is not lowercase a-z
# or whose tone is outside 1..6
SCALARS = st.characters(blacklist_categories=("Cs",))
VALID_ENTRY = st.tuples(SCALARS.filter(lambda c: c not in "#\t\n\r"), st.builds(
    JyutpingCode, st.text(alphabet="abgjlmnwz", min_size=1, max_size=4), st.integers(1, 6)))
ANY_ENTRY = st.tuples(
    st.one_of(st.sampled_from("#\t\n\r"), SCALARS, st.text(SCALARS, max_size=2)),
    st.builds(JyutpingCode, st.text(alphabet="abgjlmnwzZ", max_size=4), st.integers(-1, 10)),
)


@st.composite
def lexicon_entries(draw):
    entries = draw(st.lists(VALID_ENTRY, max_size=5, unique=True))
    extra = draw(st.none() | ANY_ENTRY)
    if extra is not None and extra not in entries:
        entries.insert(draw(st.integers(0, len(entries))), extra)
    return entries

def _reads_back(char: str, code: JyutpingCode) -> bool:
    return (len(char) == 1 and char not in "#\t\n\r"
            and re.fullmatch("[a-z]+", code.syllable) is not None and 1 <= code.tone <= 6)


@FUZZ
@given(entries=lexicon_entries())
@example(entries=[("ab", JyutpingCode("zo", 2))])
@example(entries=[("", JyutpingCode("zo", 2))])
@example(entries=[("左", JyutpingCode("zo", 9))])
@example(entries=[("左", JyutpingCode("Zo", 2))])
def test_lexicon_round_trip(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("lexicon") / "lexicon.tsv")
    refused = [char for char, code in entries if not _reads_back(char, code)]
    if refused:
        with pytest.raises(ValueError, match=re.escape(repr(refused[0]))):
            save_lexicon(Lexicon(tuple(entries)), path)
        assert not os.path.exists(path)
        return
    save_lexicon(Lexicon(tuple(entries)), path)
    assert load_lexicon(path) == Lexicon(tuple(entries))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAIRS = st.builds(
    UnifiedPair,
    variant=st.text(alphabet="裏裡帳賬a#\t\n\r", min_size=1, max_size=2),
    canonical=st.text(alphabet="裏裡帳賬a\t\n\r", min_size=1, max_size=2),
    jyutping_distance=FINITE,
    glyph_distances=st.lists(st.tuples(st.text(alphabet="mn_1=;\t\n\r", max_size=3), FINITE), max_size=2).map(tuple),
    cosine=FINITE,
)


@FUZZ
@given(pairs=st.lists(PAIRS, max_size=4))
def test_pairs_round_trip(tmp_path_factory, pairs):
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.tsv")
    refused = [
        p for p in pairs
        if p.variant.startswith("#")
        or set("\t\n\r") & set(p.variant + p.canonical)
        or set("=;\t\n\r") & set("".join(method for method, _ in p.glyph_distances))
    ]
    if refused:
        with pytest.raises(ValueError, match=re.escape(f"pair {refused[0].variant!r} -> {refused[0].canonical!r}")):
            save_pairs(pairs, path)
        assert not os.path.exists(path)
        return
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
