import random

import numpy as np
import pytest

from homodecode.emissions import Vocabulary
from homodecode.errors import MalformedLine
from homodecode.lexicon import (
    JyutpingCode,
    Lexicon,
    build_homophone_index,
    load_cin_table,
    load_lexicon,
    save_lexicon,
)

from helpers import table1_entries, write_cin, write_lexicon
from oracles import reference_homophone_groupings


def test_load_two_entries_under_one_code(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")])
    lex = load_lexicon(path)
    assert lex.size == 2
    assert lex.entries == (("左", JyutpingCode("zo", 2)), ("阻", JyutpingCode("zo", 2)))


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert load_lexicon(str(path)).size == 0


def test_invalid_tone_rejected(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo9")])
    with pytest.raises(MalformedLine, match=": tone 9 outside 1..6$") as exc:
        load_lexicon(path)
    assert (exc.value.path, exc.value.line_no) == (path, 1)


def test_bad_code_on_two_lines_raises_at_the_first(tmp_path):
    # each code text is parsed once and its JyutpingCode shared, so a bad
    # code must still be refused where it first appears
    path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo9"), ("俎", "zo2"), ("柤", "zo9")])
    with pytest.raises(MalformedLine, match=": tone 9 outside 1..6$") as exc:
        load_lexicon(path)
    assert (exc.value.path, exc.value.line_no) == (path, 2)


def test_entries_share_one_code_object_per_code_text(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2"), ("重", "cung4"), ("左", "zo2")])
    lex = load_lexicon(path)
    assert [char for char, _ in lex.entries] == ["左", "阻", "重"]
    assert lex.entries[0][1] is lex.entries[1][1]


def test_comments_and_duplicates(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("# comment\n左\tzo2\n左\tzo2\n左\tzo1\n", encoding="utf-8")
    lex = load_lexicon(str(path))
    assert lex.size == 2


@pytest.mark.parametrize("line", ["左 zo2", "左\tzo", "左\tZO2", "左右\tzo2", "\tzo2"])
def test_malformed_lines(tmp_path, line):
    path = tmp_path / "lex.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_lexicon(str(path))


def test_round_trip(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    lex = load_lexicon(path)
    out = tmp_path / "copy.tsv"
    save_lexicon(lex, str(out))
    assert load_lexicon(str(out)).entries == lex.entries


def _members(index, code):
    """The characters of one code, read from the arrays."""
    k = index.codes.index(code)
    return tuple(chr(index.points[r]) for r in index.code_rows[index.code_ptr[k]:index.code_ptr[k + 1]])


def test_homophone_index_table_rows(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    index = build_homophone_index(load_lexicon(path))
    assert _members(index, "zo2") == tuple(sorted("左阻俎柤詛座"))
    assert len(_members(index, "zo2")) == 6
    assert len(_members(index, "sai3")) == 9
    assert len(_members(index, "wong4")) == 9
    assert len(index.codes_of("左")) == 1


def test_homophone_index_singleton(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("王", "wong4")])
    index = build_homophone_index(load_lexicon(path))
    assert _members(index, "wong4") == ("王",)
    assert len(index.codes_of("王")) == 1
    assert index.homophones_of("王") == ()


def test_polyphone_counted_per_distinct_code(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("重", "cung4"), ("重", "zung6")])
    index = build_homophone_index(load_lexicon(path))
    assert index.codes_of("重") == ("cung4", "zung6")


def test_pron_count_matches_membership(tmp_path):
    # every character appears in the groups of exactly len(codes_of(char)) codes
    rng = random.Random(7)
    chars = [chr(0x4E00 + i) for i in range(40)]
    syllables = ["zo", "sai", "wong", "lei", "zeng"]
    entries = []
    for char in chars:
        for _ in range(rng.randint(1, 3)):
            entries.append((char, f"{rng.choice(syllables)}{rng.randint(1, 6)}"))
    lex_entries = list(dict.fromkeys(entries))
    path = write_lexicon(tmp_path / "lex.tsv", lex_entries)
    index = build_homophone_index(load_lexicon(path))
    assert index.points.shape[0] == len(chars)
    for char in chars:
        member_of = sum(1 for code in index.codes if char in _members(index, code))
        assert member_of == len(index.codes_of(char)) >= 1


def _assert_same_index(index, other):
    assert index.codes == other.codes
    for name in ("points", "char_ptr", "char_codes", "code_ptr", "code_rows"):
        assert np.array_equal(getattr(index, name), getattr(other, name)), name
        assert getattr(index, name).dtype == getattr(other, name).dtype == np.int32, name


def test_index_is_pure(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    lex = load_lexicon(path)
    _assert_same_index(build_homophone_index(lex), build_homophone_index(lex))


def _random_lexicon(rng, shared_codes):
    """Entries over CJK, ASCII, astral and lone-surrogate characters with
    polyphones, some pairs sharing two codes; with shared_codes the
    entries of one code text share one JyutpingCode, as load_lexicon's do,
    and otherwise each entry has its own."""
    pool = [chr(0x4E00 + i) for i in range(30)] + ["a", "#", "\U00020000", "\U0010FFFF", "\ud800"]
    texts = [f"{s}{t}" for s in ("zo", "sai", "wong") for t in (1, 2, 6)]
    parsed = {text: JyutpingCode.parse(text) for text in texts}
    entries = [(char, text) for char in pool for text in rng.sample(texts, rng.randint(1, 3))]
    x, y = rng.sample(pool, 2)  # a polyphone pair under the same two codes
    entries += [(char, text) for char in (x, y) for text in texts[:2]]
    rng.shuffle(entries)
    code = (lambda text: parsed[text]) if shared_codes else JyutpingCode.parse
    return Lexicon(tuple(dict.fromkeys((char, code(text)) for char, text in entries)))


def _reference_worlds(tmp_path, rng):
    """Random lexicons whose entries share code objects or not, an empty
    lexicon and the table-1 lexicon."""
    lexicons = [_random_lexicon(rng, shared) for shared in (True, False) * 4]
    return lexicons + [Lexicon(()), load_lexicon(write_lexicon(tmp_path / "t.tsv", table1_entries()))]


def test_index_groupings_equal_the_reference_build(tmp_path):
    # the arrays hold the sorted-tuple build's two groupings in content and
    # in insertion order, whether entries share code objects or not: codes
    # are by_code's keys, rows are codes_by_char's keys, and each span is
    # one of their values
    for lex in _reference_worlds(tmp_path, random.Random(2301)):
        index = build_homophone_index(lex)
        by_code, codes_by_char = reference_homophone_groupings(lex.entries)
        chars = list(codes_by_char)
        codes = list(by_code)
        assert index.codes == tuple(codes)
        assert index.points.tolist() == [ord(c) for c in chars]
        assert (len(index.char_ptr), len(index.code_ptr)) == (len(chars) + 1, len(codes) + 1)
        assert (index.char_ptr[-1], index.code_ptr[-1]) == (len(index.char_codes), len(index.code_rows))
        for row, char in enumerate(chars):
            span = index.char_codes[index.char_ptr[row]:index.char_ptr[row + 1]]
            assert tuple(codes[k] for k in span) == codes_by_char[char] == index.codes_of(char)
        for k, code in enumerate(codes):
            span = index.code_rows[index.code_ptr[k]:index.code_ptr[k + 1]]
            assert tuple(chars[r] for r in span) == by_code[code]
        for array in (index.points, index.char_ptr, index.char_codes, index.code_ptr, index.code_rows):
            assert not array.flags.writeable


def test_homophones_of_equals_the_reference_union(tmp_path):
    # for every character, homophones_of is the union of the reference
    # build's groups of its codes, minus itself, in code-point order; a
    # string that is not one character of the index has none, and no codes
    for lex in _reference_worlds(tmp_path, random.Random(2304)):
        index = build_homophone_index(lex)
        by_code, codes_by_char = reference_homophone_groupings(lex.entries)
        for char, codes in codes_by_char.items():
            union = {h for code in codes for h in by_code[code]} - {char}
            assert index.homophones_of(char) == tuple(sorted(union))
        for absent in ("", "ab", "\u5de6\u0301", "面", "\U0001F600", "\ud801", "\x00"):
            assert absent not in codes_by_char
            assert index.homophones_of(absent) == () and index.codes_of(absent) == ()


def test_index_arrays_take_no_part_in_eq_or_repr():
    # equality is identity; two builds of one lexicon, in any entry order,
    # hold equal codes and arrays, and repr shows the codes alone
    rng = random.Random(2302)
    lex = _random_lexicon(rng, shared_codes=False)
    index = build_homophone_index(lex)
    shuffled = list(lex.entries)
    rng.shuffle(shuffled)
    other = build_homophone_index(Lexicon(tuple(shuffled)))
    _assert_same_index(index, other)
    assert index == index and index != other and len({index, other}) == 2
    assert repr(index) == f"HomophoneIndex(codes={index.codes!r})"


@pytest.mark.parametrize("char", ["", "ab", "\u5de6\u0301"])
def test_index_refuses_a_character_that_is_not_one_scalar(char):
    lex = Lexicon((("左", JyutpingCode("zo", 2)), (char, JyutpingCode("zo", 2))))
    with pytest.raises(ValueError, match=f"lexicon entry {char!r} 'zo2': character must be one Unicode scalar"):
        build_homophone_index(lex)


def _scalar_lookup(index, vocab, token):
    homophones = tuple(h for h in index.homophones_of(token) if h in vocab.index)
    return [vocab.index[h] for h in homophones], [len(index.codes_of(h)) for h in homophones]


def _check_lookup(index, vocab, ids):
    counts, found, n_pron = index.in_vocab_homophones(vocab, np.array(ids, dtype=np.intp))
    assert counts.tolist() == [len(_scalar_lookup(index, vocab, vocab.tokens[i])[0]) for i in ids]
    ends = np.cumsum(counts).tolist()
    for i, n, end in zip(ids, counts.tolist(), ends):
        want_ids, want_n = _scalar_lookup(index, vocab, vocab.tokens[i])
        assert (found[end - n:end].tolist(), n_pron[end - n:end].tolist()) == (want_ids, want_n)
    return int(counts.sum())


def test_in_vocab_homophones_equal_the_scalar_walk():
    # for every character of the index, and for every entry of vocabularies
    # that leave homophones out, hold characters absent from the lexicon, a
    # blank and a multi-character token, the arrays give the homophones_of
    # walk filtered by the vocabulary, in its order, with N = len(codes_of(h))
    rng = random.Random(2303)
    checked = 0
    for shared in (True, False) * 3:
        lex = _random_lexicon(rng, shared)
        index = build_homophone_index(lex)
        chars = list(map(chr, index.points.tolist()))
        absent = ["面", "\U0001F600", "z"]
        full = ["<b>"] + chars + absent
        rng.shuffle(full)
        partial = ["<b>", "<unk>"] + rng.sample(chars, len(chars) // 2) + absent
        rng.shuffle(partial)
        for tokens in (full, partial):
            vocab = Vocabulary(tuple(tokens), tokens.index("<b>"))
            ids = list(range(vocab.size))
            checked += _check_lookup(index, vocab, ids)
            # any order, with repeats, one entry at a time, and none
            _check_lookup(index, vocab, rng.choices(ids, k=2 * len(ids)))
            for i in ids:
                _check_lookup(index, vocab, [i])
            assert _check_lookup(index, vocab, []) == 0
    assert checked > 500


def test_in_vocab_homophones_of_an_empty_index_and_a_shared_polyphone():
    vocab = Vocabulary(("<b>", "重", "中", "面", "ab"), 0)
    empty = build_homophone_index(Lexicon(()))
    counts, found, n_pron = empty.in_vocab_homophones(vocab, np.arange(vocab.size))
    assert counts.tolist() == [0] * vocab.size and found.size == 0 and n_pron.size == 0
    # 重 and 中 share both their codes: each is the other's homophone once, with N = 2
    codes = (JyutpingCode("zung", 1), JyutpingCode("cung", 4))
    index = build_homophone_index(Lexicon(tuple((c, code) for c in "重中" for code in codes)))
    counts, found, n_pron = index.in_vocab_homophones(vocab, np.arange(vocab.size))
    assert counts.tolist() == [0, 1, 1, 0, 0] and found.tolist() == [2, 1] and n_pron.tolist() == [2, 2]


def test_cin_chardef_parsing(tmp_path):
    path = write_cin(tmp_path / "t.cin", "TestMethod", {"帳": "abc", "賬": "abd"})
    table = load_cin_table(path)
    assert table.method_name == "TestMethod"
    assert table.codes["帳"] == ("abc",)
    assert table.codes["賬"] == ("abd",)


def test_cin_empty_chardef(tmp_path):
    path = write_cin(tmp_path / "t.cin", "Empty", {})
    assert load_cin_table(path).codes == {}


def test_cin_missing_chardef_block(tmp_path):
    path = tmp_path / "t.cin"
    path.write_text("%gen_inp\n%ename X\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=": no %chardef begin block found$") as exc:
        load_cin_table(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 0)


def test_cin_space_separator_and_multi_codes(tmp_path):
    path = tmp_path / "t.cin"
    path.write_text(
        "%ename Multi\n%chardef begin\nabc 帳\nxyz 帳\n%chardef end\n",
        encoding="utf-8",
    )
    table = load_cin_table(str(path))
    assert table.codes["帳"] == ("abc", "xyz")


def test_cin_chars_outside_block_ignored(tmp_path):
    path = tmp_path / "t.cin"
    path.write_text(
        "%ename X\nzzz 外\n%chardef begin\nabc 帳\n%chardef end\nyyy 外\n",
        encoding="utf-8",
    )
    table = load_cin_table(str(path))
    assert "外" not in table.codes


def test_cin_malformed_line(tmp_path):
    path = tmp_path / "t.cin"
    path.write_text("%chardef begin\njustonefield\n%chardef end\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_cin_table(str(path))


def test_cin_realistic_header_blocks(tmp_path):
    # files in the wild carry %keyname blocks and selkey/comment noise
    path = tmp_path / "t.cin"
    path.write_text(
        "# a real-world style table\n"
        "%gen_inp\n"
        "%ename Cangjie5\n"
        "%cname 倉頡五代\n"
        "%selkey 1234567890\n"
        "%keyname begin\n"
        "a 日\n"
        "b 月\n"
        "%keyname end\n"
        "%chardef begin\n"
        "a 日\n"
        "ab 明\n"
        "%chardef end\n",
        encoding="utf-8",
    )
    table = load_cin_table(str(path))
    assert table.method_name == "Cangjie5"
    assert table.codes == {"日": ("a",), "明": ("ab",)}


def test_non_utf8_bytes_name_file_and_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes("左\tzo2\r\n阻\tzo2\r\n".encode("utf-8") + b"\xff\tzo2\n")
    with pytest.raises(MalformedLine) as exc:
        load_lexicon(str(path))
    assert exc.value.line_no == 3
    assert exc.value.path == str(path)
