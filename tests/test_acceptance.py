"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Timing bounds are asserted with perf_counter and the stated
tolerances are pinned in the asserts."""

import functools
import math
import random
import time

import numpy as np
import pytest

from homodecode.decoder import DecoderConfig, decode, homophone_adjusted_prob
from homodecode.emissions import EmissionMatrix, Vocabulary, load_vocab, save_emissions
from homodecode.evaluation import (
    ComparisonAssets,
    ManifestEntry,
    character_edit_distance,
    evaluate,
    run_comparison,
)
from homodecode.lexicon import (
    JyutpingCode,
    Lexicon,
    build_homophone_index,
    load_cin_table,
    load_lexicon,
)
from homodecode.ngram_lm import load_arpa, score_increment, score_sequence
from homodecode.unified_writing import (
    EmbeddingTable,
    UWConfig,
    apply_unified_writing,
    count_frequencies,
    discover_pairs,
    discover_pairs_naive,
)

from helpers import (
    GLYPH_FIXTURE,
    TABLE1_HOMOPHONES,
    table1_entries,
    variant_embeddings,
    write_arpa,
    write_cin,
    write_embeddings,
    write_lexicon,
    write_random_arpa,
    write_toy_arpa,
    write_vocab,
)
from oracles import arpa_score_sequence, best_ctc_transcript, enumerate_ctc_posteriors


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return run

    return wrap


@criterion(1, "homophone probability property suite")
def test_criterion_1_probability_properties():
    rng = random.Random(10_001)
    start = time.perf_counter()
    for _ in range(10_000):
        a_p = rng.random()
        q = rng.random()
        n = rng.randint(1, 40)
        gamma = rng.random()
        adjusted = homophone_adjusted_prob(a_p, q, n, gamma)
        assert adjusted >= a_p
        assert homophone_adjusted_prob(a_p, q, n, 0.0) == a_p
        assert homophone_adjusted_prob(a_p, q, 10, gamma) == a_p
        if n < 10:
            q_hi = rng.uniform(q, 1.0)
            assert homophone_adjusted_prob(a_p, q_hi, n, gamma) >= adjusted
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"property suite took {elapsed:.2f}s"


@criterion(2, "CTC exhaustive-enumeration equivalence")
def test_criterion_2_ctc_oracle_equivalence():
    rng = random.Random(20_002)
    tokens = ("<b>", "A", "B", "C")
    config = DecoderConfig(
        beam_size=10**6, alpha=0.0, beta=0.0, he_enabled=False,
        nbest=10**6, char_topk=0,
    )
    start = time.perf_counter()
    for _ in range(120):
        frames = rng.randint(1, 4)
        width = rng.randint(2, 4)
        vocab = Vocabulary(tokens[:width], 0)
        rows = []
        for _ in range(frames):
            weights = [rng.random() + 1e-3 for _ in range(width)]
            total = sum(weights)
            rows.append([w / total for w in weights])
        matrix = EmissionMatrix.from_linear(rows)
        result = decode(matrix, vocab, None, None, config)
        log_rows = matrix.log_probs.astype(np.float64).tolist()
        oracle = enumerate_ctc_posteriors(log_rows, 0)
        best = "".join(vocab.tokens[i] for i in best_ctc_transcript(oracle, vocab.tokens))
        assert result.best == best
        got = {e.transcript: math.exp(e.acoustic_score) for e in result.nbest}
        for key, posterior in oracle.items():
            transcript = "".join(vocab.tokens[i] for i in key)
            assert abs(got[transcript] - posterior) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s"


def _he_benefit_suite(tmp_path):
    """50 synthetic utterances over the homophone-table lexicon.

    30 are repairable by injection (the confusable frame puts its mass on
    the frequent homophone of the rare reference character), 10 decode
    correctly regardless, 10 confuse against a filler with no homophone
    link so no method can repair them.
    """
    rng = random.Random(30_003)
    families = {
        code: (chars[0], list(chars[1:]))  # (frequent, rare characters)
        for code, chars in TABLE1_HOMOPHONES.items()
    }
    fillers = list("天地人山水火木金土日月星雲風雨雪電春夏秋")
    lexicon_path = write_lexicon(tmp_path / "he_lex.tsv", table1_entries())
    index = build_homophone_index(load_lexicon(lexicon_path))

    all_chars = [c for chars in TABLE1_HOMOPHONES.values() for c in chars] + fillers
    tokens = ("<b>",) + tuple(dict.fromkeys(all_chars))
    vocab = Vocabulary(tokens, 0)
    token_index = {t: i for i, t in enumerate(tokens)}

    kinds = ["fixable"] * 30 + ["easy"] * 10 + ["unfixable"] * 10
    rng.shuffle(kinds)

    references = []
    confusions = []  # per utterance: (position, high-mass char) or None
    for kind in kinds:
        body = rng.sample(fillers, 4)
        if kind == "fixable":
            code = rng.choice(sorted(families))
            frequent, rares = families[code]
            position = rng.randrange(4)
            body[position] = rng.choice(rares)
            confusions.append((position, frequent))
        elif kind == "unfixable":
            position = rng.randrange(4)
            decoy = rng.choice([f for f in fillers if f not in body])
            confusions.append((position, decoy))
        else:
            confusions.append(None)
        references.append("".join(body))

    unigrams = {c: (-1.0, -0.2) for c in tokens[1:]}
    unigrams["<s>"] = (-99.0, -0.2)
    bigrams = {}
    for ref in references:
        previous = "<s>"
        for char in ref:
            bigrams[(previous, char)] = (-0.05, -0.2)
            previous = char
    lm = load_arpa(write_arpa(tmp_path / "he_lm.arpa", unigrams, bigrams))

    width = len(tokens)
    manifest = []
    for n, (ref, confusion) in enumerate(zip(references, confusions)):
        rows = []
        for position, char in enumerate(ref):
            if confusion is not None and confusion[0] == position:
                high = token_index[confusion[1]]
                low = token_index[char]
                peaks = {high: 0.75, low: 0.05, 0: 0.05}
            else:
                peaks = {token_index[char]: 0.9, 0: 0.04}
            fill = (1.0 - sum(peaks.values())) / (width - len(peaks))
            rows.append([peaks.get(i, fill) for i in range(width)])
        path = tmp_path / f"he_{n:02d}.emat"
        save_emissions(EmissionMatrix.from_linear(rows), str(path))
        manifest.append(ManifestEntry(f"u{n:02d}", str(path), ref))
    return manifest, vocab, index, lm


@criterion(3, "homophone extension directional benefit")
def test_criterion_3_he_directional_benefit(tmp_path):
    start = time.perf_counter()
    manifest, vocab, index, lm = _he_benefit_suite(tmp_path)
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    results = {r.variant: r for r in run_comparison(manifest, assets, ("lm", "lm_he"))}
    lm_report = results["lm"].report
    he_report = results["lm_he"].report
    assert he_report.aggregate_cer < lm_report.aggregate_cer
    flipped = sum(
        1
        for before, after in zip(lm_report.per_utterance, he_report.per_utterance)
        if before.cer > 0.0 and after.cer == 0.0
    )
    assert flipped >= 20, f"only {flipped}/50 utterances flipped to exact matches"
    assert results["lm_he"].he_injections > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"benefit suite took {elapsed:.2f}s"


@criterion(4, "ARPA back-off correctness")
def test_criterion_4_arpa_backoff(tmp_path):
    model = load_arpa(write_toy_arpa(tmp_path / "toy.arpa"))
    # hand computations on the 3-entry toy model
    assert abs(score_sequence(model, ["a", "b"]) - (-1.3)) < 1e-9
    assert abs(score_sequence(model, ["a"]) - (-1.0)) < 1e-9
    assert abs(score_sequence(model, ["a", "c"]) - (-1.0 - 0.2 - 99.0)) < 1e-9
    assert abs(score_increment(model, [], "a") - (-1.0)) < 1e-9
    assert abs(score_increment(model, ["a"], "b") - (-0.3)) < 1e-9

    rng = random.Random(40_004)
    path, tokens = write_random_arpa(tmp_path / "rand.arpa", rng)
    dense = load_arpa(path)
    for _ in range(1000):
        seq = [rng.choice(tokens + ["zz"]) for _ in range(rng.randint(0, 7))]
        nxt = rng.choice(tokens + ["zz"])
        inc = score_increment(dense, seq, nxt)
        full = score_sequence(dense, seq + [nxt]) - score_sequence(dense, seq)
        assert abs(inc - full) < 1e-9
        brute = arpa_score_sequence(dense.probs, dense.backoffs, dense.order, seq + [nxt])
        assert abs(score_sequence(dense, seq + [nxt]) - brute) < 1e-9


@criterion(5, "unified writing pipeline recovery")
def test_criterion_5_uw_recovery(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path / "lex.tsv", table1_entries()))
    tables = [
        load_cin_table(write_cin(tmp_path / "a.cin", "method_a", GLYPH_FIXTURE["method_a"])),
        load_cin_table(write_cin(tmp_path / "b.cin", "method_b", GLYPH_FIXTURE["method_b"])),
    ]
    from homodecode.unified_writing import load_embeddings

    vectors = variant_embeddings()
    vectors["面"] = [0.0, 0.0, 0.0, 1.0]
    emb = load_embeddings(write_embeddings(tmp_path / "emb.vec", vectors))
    pairs = discover_pairs(lex, tables, emb, UWConfig())
    found = {frozenset((p.variant, p.canonical)) for p in pairs}
    assert found == {frozenset("帳賬"), frozenset("裏裡"), frozenset("淨凈")}
    assert frozenset("左阻") not in found

    corpus = ["裏面", "裏面", "裡面", "帳面", "帳面", "賬面", "淨面", "淨面", "凈面"]
    freq = count_frequencies(corpus)
    once, audit = apply_unified_writing(corpus, pairs, freq, emb, UWConfig())
    twice, _ = apply_unified_writing(once, pairs, freq, emb, UWConfig())
    assert once == twice
    assert all(record.kept == (record.score >= 0.9) for record in audit)
    assert any(record.kept for record in audit)


def _random_uw_world(rng, n_chars):
    chars = [chr(0x4E00 + i) for i in rng.sample(range(4000), n_chars)]
    syllables = ["zo", "sai", "wong", "lei", "zeng", "gau", "min", "tin"]
    entries = []
    for char in chars:
        for _ in range(rng.randint(1, 2)):
            entries.append((char, JyutpingCode(rng.choice(syllables), rng.randint(1, 6))))
    lex = Lexicon(tuple(dict.fromkeys(entries)))
    tables = []
    from homodecode.lexicon import GlyphCodeTable

    for m in range(2):
        codes = {
            c: ("".join(rng.choice("abcd") for _ in range(rng.randint(2, 4))),)
            for c in chars
            if rng.random() < 0.85
        }
        tables.append(GlyphCodeTable(f"m{m}", codes))
    vectors = {
        c: np.array([rng.uniform(-1, 1) for _ in range(3)]) + 1e-6
        for c in chars
        if rng.random() < 0.9
    }
    emb = EmbeddingTable(3, vectors)
    return lex, tables, emb


@criterion(6, "bucketed discovery equals naive discovery, and scales")
def test_criterion_6_bucketed_vs_naive(tmp_path):
    rng = random.Random(60_006)
    config = UWConfig()
    for n_chars in (10, 25, 50, 100, 150, 200):
        lex, tables, emb = _random_uw_world(rng, n_chars)
        assert discover_pairs(lex, tables, emb, config) == discover_pairs_naive(
            lex, tables, emb, config
        )

    # performance bound on a 30,000-entry synthetic lexicon
    chars = []
    for base in (0x4E00, 0x3400, 0x20000):
        chars.extend(chr(base + i) for i in range(12_000))
    chars = chars[:30_000]
    syllables = [f"s{i}" for i in range(6000)]
    entries = tuple(
        (char, JyutpingCode(syllables[i % 6000], (i % 6) + 1)) for i, char in enumerate(chars)
    )
    big_lex = Lexicon(entries)
    big_tables = []
    from homodecode.lexicon import GlyphCodeTable

    for m in range(2):
        codes = {c: ("".join(rng.choice("abcdefgh") for _ in range(4)),) for c in chars}
        big_tables.append(GlyphCodeTable(f"big{m}", codes))
    vecs = np.asarray(np.random.default_rng(606).normal(size=(30_000, 8)))
    big_emb = EmbeddingTable(8, {c: vecs[i] for i, c in enumerate(chars)})
    start = time.perf_counter()
    discover_pairs(big_lex, big_tables, big_emb, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"30k-entry discovery took {elapsed:.2f}s"


@criterion(7, "32,693-token vocabulary scale check")
def test_criterion_7_scale(tmp_path):
    tokens = ["<b>"]
    for base, span in ((0x4E00, 20_992), (0x3400, 6_592), (0xF900, 474), (0x20000, 10_000)):
        tokens.extend(chr(base + i) for i in range(span))
        if len(tokens) >= 32_693:
            break
    tokens = tokens[:32_693]
    assert len(tokens) == 32_693
    path = write_vocab(tmp_path / "big_vocab.txt", tokens)
    vocab = load_vocab(path)
    assert vocab.size == 32_693

    rng = np.random.default_rng(707)
    weights = rng.random((50, vocab.size)) + 1e-4
    rows = weights / weights.sum(axis=1, keepdims=True)
    matrix = EmissionMatrix.from_linear(rows)

    code_pool = [f"s{a}{b}" for a in "abcdefghij" for b in "abcdefghij"]
    lex_entries = [(tokens[1 + i], f"{code_pool[i // 5]}{(i % 6) + 1}") for i in range(400)]
    index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "lex.tsv", lex_entries)))
    lm = load_arpa(write_arpa(tmp_path / "lm.arpa", {tokens[1 + i]: -1.5 for i in range(50)}))

    config = DecoderConfig()  # B=20 and the stock per-frame candidate preselection
    start = time.perf_counter()
    result = decode(matrix, vocab, index, lm, config)
    elapsed = time.perf_counter() - start
    assert result.nbest
    assert elapsed < 2.0, f"T=50 decode over 32,693 tokens took {elapsed:.2f}s"


@criterion(8, "character error rate metric")
def test_criterion_8_cer_metric():
    assert character_edit_distance("abc", "abc") == 0
    assert character_edit_distance("abcd", "abxd") == 1
    assert character_edit_distance("ab", "") == 2
    assert evaluate([("u", "abcd", "abxd")]).aggregate_cer == 0.25
    assert evaluate([("u1", "abcd", "abxd"), ("u2", "abcdef", "abcdef")]).aggregate_cer == pytest.approx(0.10)
    assert evaluate([("u", "abc", "abc")]).aggregate_cer == 0.0

    rng = random.Random(80_008)
    for _ in range(1000):
        pairs = [
            (
                f"u{i}",
                "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))),
                "".join(rng.choice("abcd") for _ in range(rng.randint(0, 6))),
            )
            for i in range(rng.randint(2, 5))
        ]
        for _, ref, hyp in pairs:
            assert character_edit_distance(ref, hyp) == character_edit_distance(hyp, ref)
        cut = rng.randint(1, len(pairs) - 1)
        whole = evaluate(pairs)
        left, right = evaluate(pairs[:cut]), evaluate(pairs[cut:])
        assert whole.total_edits == left.total_edits + right.total_edits
        assert whole.total_ref_len == left.total_ref_len + right.total_ref_len
        merged = (left.total_edits + right.total_edits) / (left.total_ref_len + right.total_ref_len)
        assert whole.aggregate_cer == pytest.approx(merged, abs=1e-12)
