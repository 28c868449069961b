import math
import random
from dataclasses import replace

import numpy as np
import pytest

from homodecode import unified_writing
from homodecode.errors import (
    DimMismatch,
    EmptySentence,
    EmptyString,
    HomodecodeError,
    MalformedLine,
    MissingEmbedding,
    ZeroVector,
)
from homodecode.lexicon import (
    GlyphCodeTable,
    JyutpingCode,
    Lexicon,
    build_homophone_index,
    load_cin_table,
    load_lexicon,
)
from homodecode.unified_writing import (
    EmbeddingTable,
    FrequencyTable,
    UnifiedPair,
    UWConfig,
    apply_unified_writing,
    cosine_similarity,
    count_frequencies,
    discover_pairs,
    discover_pairs_naive,
    load_embeddings,
    load_frequency_table,
    load_pairs,
    normalized_edit_distance,
    rewrite_checker_score,
    save_pairs,
)

from helpers import (
    GLYPH_FIXTURE,
    table1_entries,
    variant_embeddings,
    write_cin,
    write_embeddings,
    write_lexicon,
)
from oracles import reference_homophone_groupings, reference_homophone_pairs


# --- metric primitives ---


def test_edit_distance_identity():
    assert normalized_edit_distance("wong4", "wong4") == 0.0


def test_edit_distance_one_sub_of_three():
    assert normalized_edit_distance("abc", "abd") == pytest.approx(1 / 3)


def test_edit_distance_boundary_quarter():
    assert normalized_edit_distance("abcd", "abce") == 0.25


def test_edit_distance_symmetric():
    rng = random.Random(3)
    for _ in range(200):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        assert normalized_edit_distance(a, b) == normalized_edit_distance(b, a)


def test_edit_distance_empty_rejected():
    with pytest.raises(EmptyString):
        normalized_edit_distance("", "a")


def test_cosine_identity():
    v = np.array([0.3, -0.2, 0.9])
    assert cosine_similarity(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_45_degrees():
    got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cosine_errors():
    with pytest.raises(ZeroVector):
        cosine_similarity(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DimMismatch):
        cosine_similarity(np.array([1.0]), np.array([1.0, 0.0]))


# --- embeddings and frequency files ---


def test_load_embeddings(tmp_path):
    path = write_embeddings(tmp_path / "emb.vec", {"左": [1.0, 0.0], "阻": [0.5, 0.5]})
    table = load_embeddings(path)
    assert table.dim == 2
    assert cosine_similarity(table.vectors["左"], table.vectors["左"]) == 1.0


def test_load_embeddings_bad_dim(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("1 3\n左 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_embeddings(str(path))


def test_load_embeddings_zero_vector_rejected(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("1 2\n左 0.0 0.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_embeddings(str(path))


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_load_embeddings_non_finite_rejected(tmp_path, component):
    # a NaN vector would pass every cosine gate: nan < cosine_min is False
    path = tmp_path / "emb.vec"
    path.write_text(f"2 2\n左 1.0 0.0\n阻 {component} 1.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_embeddings(str(path))
    assert exc.value.line_no == 3
    assert exc.value.path == str(path)


def test_load_embeddings_count_mismatch(tmp_path):
    path = tmp_path / "emb.vec"
    path.write_text("2 2\n左 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_embeddings(str(path))


def test_load_embeddings_superscript_header_digit(tmp_path):
    # "²" is a digit to str.isdigit but no number to int()
    path = tmp_path / "emb.vec"
    path.write_text("1 ²\n左 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_embeddings(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


def test_load_embeddings_huge_header_dim(tmp_path):
    # int() refuses more than 4,300 digits
    path = tmp_path / "emb.vec"
    path.write_text(f"1 {'9' * 5000}\n左 1.0 0.0\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_embeddings(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 1)


def test_frequency_table_round_trip(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("裏\t10\n裡\t2\n", encoding="utf-8")
    freq = load_frequency_table(str(path))
    assert freq.count("裏") == 10
    assert freq.count("missing") == 0


def test_frequency_table_superscript_count(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("裏\t10\na\t²\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_frequency_table(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 2)


def test_frequency_table_huge_count(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text(f"裏\t10\na\t{'9' * 5000}\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_frequency_table(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 2)


def test_count_frequencies():
    freq = count_frequencies(["裏面", "裏裡"])
    assert freq.count("裏") == 2
    assert freq.count("裡") == 1
    assert freq.count("面") == 1


# --- pair discovery ---


@pytest.fixture
def uw_fixture(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path / "lex.tsv", table1_entries()))
    tables = [
        load_cin_table(write_cin(tmp_path / "a.cin", "method_a", GLYPH_FIXTURE["method_a"])),
        load_cin_table(write_cin(tmp_path / "b.cin", "method_b", GLYPH_FIXTURE["method_b"])),
    ]
    emb = load_embeddings(write_embeddings(tmp_path / "emb.vec", variant_embeddings()))
    return lex, tables, emb


def test_discovery_recovers_variant_pairs(uw_fixture):
    lex, tables, emb = uw_fixture
    pairs = discover_pairs(lex, tables, emb, UWConfig())
    found = {frozenset((p.variant, p.canonical)) for p in pairs}
    assert found == {
        frozenset("帳賬"),
        frozenset("裏裡"),
        frozenset("淨凈"),
    }


def test_discovery_rejects_dissimilar_glyphs(uw_fixture):
    lex, tables, emb = uw_fixture
    pairs = discover_pairs(lex, tables, emb, UWConfig())
    assert frozenset("左阻") not in {frozenset((p.variant, p.canonical)) for p in pairs}


def test_discovery_lei5_scores(uw_fixture):
    lex, tables, emb = uw_fixture
    pairs = discover_pairs(lex, tables, emb, UWConfig())
    pair = next(p for p in pairs if {p.variant, p.canonical} == set("裏裡"))
    assert pair.jyutping_distance == 0.0
    assert dict(pair.glyph_distances)["method_a"] == 0.25
    assert pair.cosine == pytest.approx(0.9, abs=1e-9)


def test_discovery_empty_embeddings(uw_fixture, tmp_path):
    lex, tables, _ = uw_fixture
    empty = EmbeddingTable(dim=2, vectors={})
    assert discover_pairs(lex, tables, empty, UWConfig()) == []


def test_discovery_unreachable_cosine(uw_fixture):
    lex, tables, emb = uw_fixture
    assert discover_pairs(lex, tables, emb, UWConfig(cosine_min=1.0)) == []


def test_discovery_min_methods_relaxation(uw_fixture, tmp_path):
    lex, tables, emb = uw_fixture
    # replace method_b with a table where 帳/賬 codes are dissimilar: the
    # all-shared-methods default now rejects the pair, min_methods=1 keeps it
    broken_b = dict(GLYPH_FIXTURE["method_b"])
    broken_b["賬"] = "9999"
    tables = [tables[0], load_cin_table(write_cin(tmp_path / "b2.cin", "method_b", broken_b))]
    strict = discover_pairs(lex, tables, emb, UWConfig())
    relaxed = discover_pairs(lex, tables, emb, UWConfig(min_methods=1))
    strict_sets = {frozenset((p.variant, p.canonical)) for p in strict}
    relaxed_sets = {frozenset((p.variant, p.canonical)) for p in relaxed}
    assert frozenset("帳賬") not in strict_sets
    assert frozenset("帳賬") in relaxed_sets


def _random_uw_world(rng, n_chars, tmp_path, tag):
    chars = [chr(0x4E00 + i) for i in range(n_chars)]
    syllables = ["zo", "sai", "wong", "lei", "zeng", "gau", "min"]
    entries = []
    for char in chars:
        for _ in range(rng.randint(1, 2)):
            entries.append((char, f"{rng.choice(syllables)}{rng.randint(1, 6)}"))
    lex = load_lexicon(write_lexicon(tmp_path / f"lex{tag}.tsv", list(dict.fromkeys(entries))))
    tables = []
    for m in range(2):
        codes = {
            c: "".join(rng.choice("abcd") for _ in range(rng.randint(2, 4)))
            for c in chars
            if rng.random() < 0.8
        }
        tables.append(load_cin_table(write_cin(tmp_path / f"m{m}{tag}.cin", f"m{m}", codes)))
    vectors = {}
    for c in chars:
        if rng.random() < 0.9:
            vectors[c] = [rng.uniform(-1, 1) for _ in range(3)]
            if not any(vectors[c]):
                vectors[c] = [1.0, 0.0, 0.0]
    emb = load_embeddings(write_embeddings(tmp_path / f"emb{tag}.vec", vectors))
    return lex, tables, emb


def test_bucketed_equals_naive(tmp_path):
    rng = random.Random(404)
    for tag, n_chars in enumerate([10, 25, 60]):
        lex, tables, emb = _random_uw_world(rng, n_chars, tmp_path, tag)
        config = UWConfig()
        assert discover_pairs(lex, tables, emb, config) == discover_pairs_naive(
            lex, tables, emb, config
        )


def test_homophone_pairs_equal_the_combinations_walk(tmp_path):
    # the index's pairs are every group's combinations, deduplicated (a
    # polyphone pair can share two codes) and ordered by first, then second
    rng = random.Random(405)
    lexicons = [_random_uw_world(rng, n_chars, tmp_path, tag)[0] for tag, n_chars in enumerate([1, 12, 80])]
    codes = (JyutpingCode("zung", 1), JyutpingCode("cung", 4))
    lexicons += [Lexicon(()), Lexicon(tuple((c, code) for c in "重中種" for code in codes))]
    for lex in lexicons:
        index = build_homophone_index(lex)
        first, second = index.homophone_pairs()
        want_chars, want_pairs = reference_homophone_pairs(reference_homophone_groupings(lex.entries)[0])
        assert [chr(point) for point in index.points.tolist()] == want_chars
        # discovery names the same rows with the lexicon's own strings
        chars, *pairs = unified_writing._homophone_candidates(lex)
        assert chars == want_chars and all(np.array_equal(a, b) for a, b in zip(pairs, (first, second)))
        assert list(zip(first.tolist(), second.tolist())) == want_pairs


def _hazard_world(rng):
    """A small world holding every input that the array cosine prefilter
    must leave to the scalar gates: missing, zero, tiny, huge and
    wrong-length vectors, empty glyph codes, and scaled copies whose
    cosine is 1 up to rounding."""
    chars = [chr(0x4E00 + i) for i in range(rng.randint(4, 9))]
    entries = [(c, JyutpingCode(rng.choice(("zo", "lei")), rng.randint(1, 2))) for c in chars for _ in range(2)]
    lex = Lexicon(tuple(dict.fromkeys(entries)))
    tables = []
    for m in range(2):
        codes = {}
        for c in chars:
            if rng.random() < 0.8:
                codes[c] = ("".join(rng.choice("ab") for _ in range(rng.randint(1, 3))),)
                if rng.random() < 0.04:
                    codes[c] += ("",)
        tables.append(GlyphCodeTable(f"m{m}", codes))
    vectors = {}
    for c in chars:
        hazard = rng.random()
        vec = np.array([rng.choice((-1.0, 0.0, 1.0, 2.0, 0.3)) for _ in range(3)])
        if not vec.any():
            vec[0] = 1.0
        if hazard < 0.05:
            continue
        elif hazard < 0.09:
            vec = np.zeros(3)
        elif hazard < 0.13:
            vec = vec * 1e-160
        elif hazard < 0.17:
            vec = vec * 1e200
        elif hazard < 0.20:
            vec = np.append(vec, 1.0)
        elif hazard < 0.45 and vectors:
            vec = rng.choice(list(vectors.values())) * rng.choice((2.0, 3.0, 0.1, 7e-3))
        vectors[c] = vec
    emb = EmbeddingTable(3, vectors)
    ordinary = [v for v in vectors.values() if v.shape == (3,) and 1e-3 < np.linalg.norm(v) < 1e3]
    cosines = [0.0, 0.5, 1.0]
    if len(ordinary) >= 2:
        u, v = rng.sample(ordinary, 2)
        cosines.append(max(0.0, cosine_similarity(u, v)))  # a threshold some pair meets exactly
    config = UWConfig(
        glyph_max_distance=rng.choice((0.25, 0.5, 1.0)),
        cosine_min=rng.choice(cosines),
        min_methods=rng.choice((None, 1)),
    )
    return lex, tables, emb, config


def _discovery_outcome(discover, *args):
    try:
        return repr(discover(*args))
    except HomodecodeError as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cosine_prefilter_equals_naive_on_hazards():
    # the prefilter drops a pair only where the scalar gates surely return
    # None without raising, so the result, or the exception, is the naive walk's
    rng = random.Random(406)
    outcomes = []
    for _ in range(600):
        world = _hazard_world(rng)
        naive = _discovery_outcome(discover_pairs_naive, *world)
        assert _discovery_outcome(discover_pairs, *world) == naive
        outcomes.append(naive)
    raised = [o for o in outcomes if isinstance(o, type)]
    assert {DimMismatch, EmptyString, ZeroVector} <= set(raised)
    assert sum(o != "[]" for o in outcomes if isinstance(o, str)) >= 100


def test_jyutping_threshold_filters_on_closest_codes(tmp_path):
    # with the other gates open, each threshold keeps exactly the pairs of
    # the widest run whose closest pronunciations are that near
    lex, tables, emb = _random_uw_world(random.Random(405), 40, tmp_path, "j")
    config = UWConfig(jyutping_max_distance=1.0, glyph_max_distance=1.0, cosine_min=0.0)
    widest = discover_pairs(lex, tables, emb, config)
    assert any(p.jyutping_distance == 0.0 for p in widest)
    assert any(0.0 < p.jyutping_distance <= 0.5 for p in widest)
    assert any(p.jyutping_distance > 0.5 for p in widest)
    for limit in (0.0, 0.5):
        narrowed = discover_pairs(lex, tables, emb, replace(config, jyutping_max_distance=limit))
        assert narrowed == [p for p in widest if p.jyutping_distance <= limit]


def test_bucketed_discovery_measures_only_glyph_codes(uw_fixture, monkeypatch):
    # homophone-index candidates share a code, so their Jyutping distance is 0
    lex, tables, emb = uw_fixture
    glyph_codes = {code for table in tables for codes in table.codes.values() for code in codes}
    measured = []

    def recording(a, b):
        measured.append((a, b))
        return normalized_edit_distance(a, b)

    monkeypatch.setattr(unified_writing, "normalized_edit_distance", recording)
    assert len(discover_pairs(lex, tables, emb, UWConfig())) == 3
    assert measured
    assert all(a in glyph_codes and b in glyph_codes for a, b in measured)


def test_discovery_order_invariant(uw_fixture, tmp_path):
    lex, tables, emb = uw_fixture
    reversed_lex = load_lexicon(
        write_lexicon(tmp_path / "rev.tsv", [(c, k) for c, k in reversed(table1_entries())])
    )
    config = UWConfig()
    assert discover_pairs(lex, tables, emb, config) == discover_pairs(
        reversed_lex, tables, emb, config
    )


def test_pairs_file_round_trip(uw_fixture, tmp_path):
    lex, tables, emb = uw_fixture
    pairs = discover_pairs(lex, tables, emb, UWConfig())
    path = tmp_path / "pairs.tsv"
    save_pairs(pairs, str(path))
    assert load_pairs(str(path)) == pairs


@pytest.mark.parametrize("record", ["裡\t裏\tnan\t0.9\tm=0.25", "裡\t裏\t0.0\tinf\tm=0.25",
                                    "裡\t裏\t0.0\t0.9\tm=0.25;n=nan"])
def test_load_pairs_non_finite_rejected(tmp_path, record):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"帳\t賬\t0.0\t0.9\tm=0.25\n{record}\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_pairs(str(path))
    assert exc.value.line_no == 2
    assert exc.value.path == str(path)


# --- rewriting checker ---


def test_checker_identical_sentences():
    emb = EmbeddingTable(2, {"裏": np.array([1.0, 0.0]), "面": np.array([0.0, 1.0])})
    assert rewrite_checker_score("裏面", "裏面", emb) == 1.0


def test_checker_no_overlap():
    emb = EmbeddingTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([-1.0, 0.0])})
    assert rewrite_checker_score("a", "b", emb) == 0.0


def test_checker_single_substitution_score():
    rest = math.sqrt(1 - 0.95 * 0.95)
    emb = EmbeddingTable(
        2,
        {
            "a": np.array([0.0, 1.0]),
            "b": np.array([0.0, 1.0]),
            "c": np.array([0.0, 1.0]),
            "d": np.array([1.0, 0.0]),
            "x": np.array([0.95, rest]),
        },
    )
    assert rewrite_checker_score("abcd", "abcx", emb) == pytest.approx((3 + 0.95) / 4, abs=1e-9)


def test_checker_errors():
    emb = EmbeddingTable(2, {"a": np.array([1.0, 0.0])})
    with pytest.raises(EmptySentence):
        rewrite_checker_score("", "a", emb)
    with pytest.raises(MissingEmbedding):
        rewrite_checker_score("a", "z", emb)


# --- replacement ---


def variant_pair(variant, canonical):
    return UnifiedPair(variant=variant, canonical=canonical, jyutping_distance=0.0,
                       glyph_distances=(("m", 0.25),), cosine=0.95)


def close_embeddings(cos, chars=("裏", "裡"), extra=("面",)):
    rest = math.sqrt(1 - cos * cos)
    vectors = {chars[0]: np.array([1.0, 0.0]), chars[1]: np.array([cos, rest])}
    for i, c in enumerate(extra):
        vectors[c] = np.array([0.0, 1.0]) if i == 0 else np.array([1.0, 1.0]) / math.sqrt(2)
    return EmbeddingTable(2, vectors)


def test_apply_rewrites_to_frequent_form():
    corpus = ["裏面有嘢"] * 5 + ["裏面"] * 5 + ["裡面有嘢", "裡面"]
    corpus = [s for s in corpus]
    emb_vectors = {
        "裏": np.array([1.0, 0.0]),
        "裡": np.array([0.98, math.sqrt(1 - 0.98**2)]),
        "面": np.array([0.0, 1.0]),
        "有": np.array([0.5, 0.5]),
        "嘢": np.array([0.7, 0.3]),
    }
    emb = EmbeddingTable(2, emb_vectors)
    freq = count_frequencies(corpus)
    assert freq.count("裏") == 10
    assert freq.count("裡") == 2
    out, audit = apply_unified_writing(corpus, [variant_pair("裡", "裏")], freq, emb, UWConfig())
    assert all("裡" not in s for s in out)
    assert out[-1] == "裏面"
    kept = [r for r in audit if r.kept]
    assert len(kept) == 2
    assert all(r.variant == "裡" and r.canonical == "裏" for r in kept)


def test_apply_respects_checker_threshold():
    emb = close_embeddings(0.85)
    corpus = ["裡"]
    freq = FrequencyTable({"裏": 10, "裡": 1})
    out, audit = apply_unified_writing(corpus, [variant_pair("裡", "裏")], freq, emb, UWConfig())
    assert out == ["裡"]
    assert len(audit) == 1
    assert audit[0].kept is False
    assert audit[0].score == pytest.approx(0.85, abs=1e-9)


def test_apply_no_variants_is_identity():
    emb = close_embeddings(0.95)
    corpus = ["面面俱圓", "無關字句"]
    out, audit = apply_unified_writing(corpus, [variant_pair("裡", "裏")],
                                       count_frequencies(corpus), emb, UWConfig())
    assert out == corpus
    assert audit == []


def test_apply_missing_embedding_rejects_with_zero_score():
    emb = EmbeddingTable(2, {"裡": np.array([1.0, 0.0]), "裏": np.array([1.0, 0.0])})
    corpus = ["裡文"]  # 文 has no embedding
    freq = FrequencyTable({"裏": 5, "裡": 1})
    out, audit = apply_unified_writing(corpus, [variant_pair("裡", "裏")], freq, emb, UWConfig())
    assert out == corpus
    assert audit[0].score == 0.0
    assert audit[0].kept is False


def test_apply_direction_follows_frequency():
    emb = close_embeddings(0.99)
    pair = variant_pair("裡", "裏")
    # frequency favours 裡, so the nominal canonical is replaced instead
    freq = FrequencyTable({"裡": 50, "裏": 3})
    out, audit = apply_unified_writing(["裏面"], [pair], freq, emb, UWConfig())
    assert out == ["裡面"]


def test_apply_tie_breaks_to_smaller_code_point():
    emb = close_embeddings(0.99)
    pair = variant_pair("裡", "裏")
    freq = FrequencyTable({"裡": 4, "裏": 4})
    out, _ = apply_unified_writing(["裡面", "裏面"], [pair], freq, emb, UWConfig())
    # 裏 (U+88CF) < 裡 (U+88E1) so 裏 is canonical on ties
    assert out == ["裏面", "裏面"]


def test_apply_idempotent():
    emb = close_embeddings(0.95)
    corpus = ["裡面裡", "裏面", "無裡"]
    pair = variant_pair("裡", "裏")
    freq = count_frequencies(corpus)
    once, _ = apply_unified_writing(corpus, [pair], freq, emb, UWConfig())
    twice, audit2 = apply_unified_writing(once, [pair], freq, emb, UWConfig())
    assert once == twice


def test_apply_chained_pairs_settle_in_one_call():
    a, b, c = "一", "二", "三"
    vecs = {
        a: np.array([1.0, 0.0]),
        b: np.array([0.999, math.sqrt(1 - 0.999**2)]),
        c: np.array([0.998, math.sqrt(1 - 0.998**2)]),
    }
    emb = EmbeddingTable(2, vecs)
    pairs = [variant_pair(a, b), variant_pair(b, c)]
    freq = FrequencyTable({a: 1, b: 5, c: 9})
    once, audit = apply_unified_writing([a + a], pairs, freq, emb, UWConfig())
    assert once == [c + c]
    twice, _ = apply_unified_writing(once, pairs, freq, emb, UWConfig())
    assert twice == once


def test_apply_preserves_sentence_length():
    rng = random.Random(17)
    chars = ["裏", "裡", "面", "有"]
    emb = EmbeddingTable(
        2,
        {
            "裏": np.array([1.0, 0.0]),
            "裡": np.array([0.97, math.sqrt(1 - 0.97**2)]),
            "面": np.array([0.0, 1.0]),
            "有": np.array([0.6, 0.8]),
        },
    )
    pair = variant_pair("裡", "裏")
    for _ in range(100):
        corpus = [
            "".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 5))
        ]
        out, audit = apply_unified_writing(corpus, [pair], count_frequencies(corpus), emb, UWConfig())
        assert [len(s) for s in out] == [len(s) for s in corpus]
        for record in audit:
            assert record.kept == (record.score >= 0.9)
