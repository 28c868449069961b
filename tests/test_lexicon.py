import random

import pytest

from homodecode.errors import MalformedLine
from homodecode.lexicon import (
    JyutpingCode,
    build_homophone_index,
    load_cin_table,
    load_lexicon,
    save_lexicon,
)

from helpers import table1_entries, write_cin, write_lexicon


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


def test_homophone_index_table_rows(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    index = build_homophone_index(load_lexicon(path))
    assert index.by_code["zo2"] == tuple(sorted("左阻俎柤詛座"))
    assert len(index.by_code["zo2"]) == 6
    assert len(index.by_code["sai3"]) == 9
    assert len(index.by_code["wong4"]) == 9
    assert len(index.codes_by_char["左"]) == 1


def test_homophone_index_singleton(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("王", "wong4")])
    index = build_homophone_index(load_lexicon(path))
    assert index.by_code["wong4"] == ("王",)
    assert len(index.codes_by_char["王"]) == 1
    assert index.homophones_of("王") == ()


def test_polyphone_counted_per_distinct_code(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", [("重", "cung4"), ("重", "zung6")])
    index = build_homophone_index(load_lexicon(path))
    assert len(index.codes_by_char["重"]) == 2


def test_pron_count_matches_membership(tmp_path):
    # every character appears in exactly len(codes_by_char[char]) by_code sets
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
    for char, codes in index.codes_by_char.items():
        member_of = sum(1 for chars_ in index.by_code.values() if char in chars_)
        assert member_of == len(codes)


def test_index_is_pure(tmp_path):
    path = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    lex = load_lexicon(path)
    assert build_homophone_index(lex) == build_homophone_index(lex)


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
