"""Property tests of the text loaders: any file either loads or raises
FormatError (which the command line turns into exit 2 naming the file
and line), never any other exception.  What the save functions write
loads back equal."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homodecode.emissions import load_vocab
from homodecode.errors import FormatError
from homodecode.evaluation import load_manifest
from homodecode.lexicon import JyutpingCode, Lexicon, load_cin_table, load_lexicon, save_lexicon
from homodecode.ngram_lm import load_arpa
from homodecode.unified_writing import (
    UnifiedPair,
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
    try:
        return load(path)
    except FormatError:
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


# characters a lexicon file can hold: no tab, line break or leading "#"
LEXICON_CHARS = st.characters(blacklist_characters="#\t\n\r", blacklist_categories=("Cs",))
JYUTPING = st.builds(JyutpingCode, st.text(alphabet="abgjlmnwz", min_size=1, max_size=4), st.integers(1, 6))


@FUZZ
@given(entries=st.lists(st.tuples(LEXICON_CHARS, JYUTPING), max_size=6, unique=True))
def test_lexicon_round_trip(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("lexicon") / "lexicon.tsv")
    save_lexicon(Lexicon(tuple(entries)), path)
    assert load_lexicon(path) == Lexicon(tuple(entries))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAIRS = st.builds(
    UnifiedPair,
    variant=st.text(alphabet="裏裡帳賬a", min_size=1, max_size=2),
    canonical=st.text(alphabet="裏裡帳賬a", min_size=1, max_size=2),
    jyutping_distance=FINITE,
    glyph_distances=st.lists(st.tuples(st.text(alphabet="mn_1", max_size=3), FINITE), max_size=2).map(tuple),
    cosine=FINITE,
)


@FUZZ
@given(pairs=st.lists(PAIRS, max_size=4))
def test_pairs_round_trip(tmp_path_factory, pairs):
    path = str(tmp_path_factory.mktemp("pairs") / "pairs.tsv")
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
