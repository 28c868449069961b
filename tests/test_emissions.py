import math

import numpy as np
import pytest

from homodecode.emissions import (
    EmissionMatrix,
    Vocabulary,
    load_emissions,
    load_vocab,
    save_emissions,
    save_vocab,
)
from homodecode.errors import (
    BadMagic,
    DuplicateToken,
    MalformedLine,
    MissingBlankDirective,
    RowNotNormalized,
    VocabSizeMismatch,
)

from helpers import uniform_row, write_emat_raw, write_vocab


def ln_rows(rows):
    return [[math.log(p) if p > 0 else float("-inf") for p in row] for row in rows]


def test_vocab_basic(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("#blank 0\n<b>\n左\n阻\n", encoding="utf-8")
    vocab = load_vocab(str(path))
    assert vocab.size == 3
    assert vocab.blank_index == 0
    assert vocab.tokens == ("<b>", "左", "阻")
    assert vocab.index_of("阻") == 2
    assert vocab.index_of("missing") is None


def test_vocab_duplicate_token(tmp_path):
    path = write_vocab(tmp_path / "vocab.txt", ["<b>", "左", "左"])
    with pytest.raises(DuplicateToken):
        load_vocab(path)


def test_vocab_missing_blank_directive(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<b>\n左\n", encoding="utf-8")
    with pytest.raises(MissingBlankDirective):
        load_vocab(str(path))


def test_vocab_superscript_blank_index(tmp_path):
    # "²" is a digit to str.isdigit but no number to int()
    path = tmp_path / "vocab.txt"
    path.write_text("#blank ²\n<b>\n左\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_vocab(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


def test_vocab_round_trip(tmp_path):
    vocab = Vocabulary(("<b>", "王", "黃"), 0)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, str(path))
    loaded = load_vocab(str(path))
    assert loaded.tokens == vocab.tokens
    assert loaded.blank_index == 0


def test_emissions_uniform_row(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]))
    matrix = load_emissions(path, vocab)
    assert matrix.frames == 1
    assert matrix.vocab_size == 2
    assert abs(np.exp(matrix.log_probs[0].astype(np.float64)).sum() - 1.0) < 1e-6


def test_emissions_vocab_size_mismatch(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([uniform_row(3)]))
    with pytest.raises(VocabSizeMismatch):
        load_emissions(path, vocab)


def test_emissions_row_not_normalized(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.4]]))
    with pytest.raises(RowNotNormalized) as exc:
        load_emissions(path, vocab)
    assert exc.value.frame == 0


def test_emissions_bad_magic(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]), magic=b"XMAT")
    with pytest.raises(BadMagic):
        load_emissions(path, vocab)


def test_emissions_bad_version(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]), version=2)
    with pytest.raises(BadMagic):
        load_emissions(path, vocab)


def test_emissions_byte_deterministic(tmp_path):
    vocab = Vocabulary(("<b>", "a", "b"), 0)
    rows = ln_rows([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    path = write_emat_raw(tmp_path / "m.emat", rows)
    first = load_emissions(path, vocab)
    second = load_emissions(path, vocab)
    assert np.array_equal(first.log_probs, second.log_probs)


def test_emissions_probabilities_in_unit_interval(tmp_path):
    vocab = Vocabulary(("<b>", "a", "b"), 0)
    rows = ln_rows([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    path = write_emat_raw(tmp_path / "m.emat", rows)
    matrix = load_emissions(path, vocab)
    linear = np.exp(matrix.log_probs.astype(np.float64))
    assert np.all(linear >= 0.0)
    assert np.all(linear <= 1.0)


def test_save_emissions_round_trip(tmp_path):
    vocab = Vocabulary(("<b>", "a", "b"), 0)
    matrix = EmissionMatrix.from_linear([[0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
    path = tmp_path / "m.emat"
    save_emissions(matrix, str(path))
    loaded = load_emissions(str(path), vocab)
    assert np.array_equal(loaded.log_probs, matrix.log_probs)


def test_zero_frame_file_loads(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", [], width=2)
    matrix = load_emissions(path, vocab)
    assert matrix.frames == 0
    assert matrix.vocab_size == 2


def test_nan_row_rejected(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", [[float("nan"), math.log(0.5)]])
    with pytest.raises(RowNotNormalized):
        load_emissions(path, vocab)


def test_truncated_payload_rejected(tmp_path):
    from homodecode.errors import MalformedLine

    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]))
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:-4])
    with pytest.raises(MalformedLine):
        load_emissions(path, vocab)


def test_zero_probability_entries_allowed(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[1.0, 0.0]]))
    matrix = load_emissions(path, vocab)
    assert matrix.log_probs[0][1] == float("-inf")
