"""Property tests of the text loaders: any file either loads or raises
FormatError (which the command line turns into exit 2 naming the file
and line), never any other exception."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homodecode.emissions import load_vocab
from homodecode.errors import FormatError
from homodecode.evaluation import load_manifest
from homodecode.unified_writing import load_embeddings, load_frequency_table

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
