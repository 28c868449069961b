import math
from pathlib import Path

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
from homodecode.errors import MalformedLine

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
    with pytest.raises(MalformedLine, match=": duplicate vocabulary token '左'$") as exc:
        load_vocab(path)
    assert (exc.value.path, exc.value.line_no) == (path, 4)


def test_vocab_missing_blank_directive(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<b>\n左\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match="must start with a '#blank <index>' directive") as exc:
        load_vocab(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


def test_vocab_superscript_blank_index(tmp_path):
    # "²" is a digit to str.isdigit but no number to int()
    path = tmp_path / "vocab.txt"
    path.write_text("#blank ²\n<b>\n左\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_vocab(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


def test_vocab_huge_blank_index(tmp_path):
    # int() refuses more than 4,300 digits
    path = tmp_path / "vocab.txt"
    path.write_text(f"#blank {'9' * 5000}\n<b>\n左\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_vocab(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


@pytest.mark.parametrize("first", ["#blankx 0", "#blank0", "#Blank 0"])
def test_vocab_blank_directive_is_a_whole_field(tmp_path, first):
    path = tmp_path / "vocab.txt"
    path.write_text(f"{first}\n<b>\n左\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match="must start with a '#blank <index>' directive") as exc:
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
    with pytest.raises(MalformedLine, match=": emission matrix has V=3 but vocabulary has 2 tokens$") as exc:
        load_emissions(path, vocab)
    assert (exc.value.path, exc.value.line_no) == (path, 0)


def test_emissions_row_not_normalized(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.4]]))
    with pytest.raises(MalformedLine, match=r": frame 0: exponentiated row sums to 0\.900000, not 1") as exc:
        load_emissions(path, vocab)
    assert (exc.value.path, exc.value.line_no) == (path, 0)


def test_emissions_bad_magic(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]), magic=b"XMAT")
    with pytest.raises(MalformedLine, match=r": bad magic b'XMAT', expected b'EMAT'$") as exc:
        load_emissions(path, vocab)
    assert (exc.value.path, exc.value.line_no) == (path, 0)


def test_emissions_bad_version(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]), version=2)
    with pytest.raises(MalformedLine, match=r": unsupported EMAT version 2, expected 1$") as exc:
        load_emissions(path, vocab)
    assert (exc.value.path, exc.value.line_no) == (path, 0)


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
    with pytest.raises(MalformedLine, match=": frame 0: exponentiated row sums to nan,") as exc:
        load_emissions(path, vocab)
    assert (exc.value.path, exc.value.line_no) == (path, 0)


def test_truncated_payload_rejected(tmp_path):
    from homodecode.errors import MalformedLine

    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[0.5, 0.5]]))
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-4])
    with pytest.raises(MalformedLine):
        load_emissions(path, vocab)


def test_zero_probability_entries_allowed(tmp_path):
    vocab = Vocabulary(("<b>", "a"), 0)
    path = write_emat_raw(tmp_path / "m.emat", ln_rows([[1.0, 0.0]]))
    matrix = load_emissions(path, vocab)
    assert matrix.log_probs[0][1] == float("-inf")
