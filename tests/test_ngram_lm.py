import random

import pytest

from homodecode.errors import CountMismatch, MalformedLine, MissingSection
from homodecode.ngram_lm import UNK_FALLBACK_LOG10, load_arpa, score_increment, score_sequence

from helpers import write_arpa, write_random_arpa, write_random_backoff_arpa, write_toy_arpa
from oracles import arpa_score_sequence


@pytest.fixture
def toy_model(tmp_path):
    return load_arpa(write_toy_arpa(tmp_path / "toy.arpa"))


def test_toy_parse(toy_model):
    assert toy_model.order == 2
    assert toy_model.probs[("a",)] == -1.0
    assert toy_model.probs[("a", "b")] == -0.3
    assert toy_model.backoffs[("a",)] == -0.2


def test_unigram_only_parse(tmp_path):
    path = write_arpa(tmp_path / "uni.arpa", {"a": -0.5, "b": -0.6, "c": -0.7})
    model = load_arpa(path)
    assert model.order == 1
    assert len(model.probs) == 3


def test_count_mismatch(tmp_path):
    text = "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-0.5\tb\n\n\\end\\\n"
    path = tmp_path / "bad.arpa"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CountMismatch) as exc:
        load_arpa(str(path))
    assert exc.value.declared == 3
    assert exc.value.found == 2


def test_missing_data_section(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("\\1-grams:\n-0.5\ta\n\\end\\\n", encoding="utf-8")
    with pytest.raises(MissingSection):
        load_arpa(str(path))


def test_missing_end(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n", encoding="utf-8")
    with pytest.raises(MissingSection):
        load_arpa(str(path))


def test_declared_section_absent(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=1\nngram 2=3\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(MissingSection):
        load_arpa(str(path))


def test_five_gram_order(tmp_path):
    unigrams = {t: (-1.0, -0.1) for t in "abcde"}
    path = write_arpa(tmp_path / "five.arpa", unigrams)
    # extend by hand with orders 2..5, one entry each
    text = (
        "\\data\\\n"
        "ngram 1=5\nngram 2=1\nngram 3=1\nngram 4=1\nngram 5=1\n\n"
        "\\1-grams:\n" + "".join(f"-1.0\t{t}\t-0.1\n" for t in "abcde") + "\n"
        "\\2-grams:\n-0.4\ta b\t-0.1\n\n"
        "\\3-grams:\n-0.3\ta b c\t-0.1\n\n"
        "\\4-grams:\n-0.2\ta b c d\t-0.1\n\n"
        "\\5-grams:\n-0.1\ta b c d e\n\n"
        "\\end\\\n"
    )
    path = tmp_path / "five.arpa"
    path.write_text(text, encoding="utf-8")
    model = load_arpa(str(path))
    assert model.order == 5
    assert model.probs[("a", "b", "c", "d", "e")] == -0.1


def test_score_a_b(toy_model):
    # P(a|<s>) backs off to the unigram; P(b|a) is the stored bigram
    assert score_sequence(toy_model, ["a", "b"]) == pytest.approx(-1.3, abs=1e-9)


def test_score_a_unknown(toy_model):
    # P(c|a) = backoff(a) + P(c) where c maps to the unknown fallback
    expected = -1.0 + (-0.2 + UNK_FALLBACK_LOG10)
    assert score_sequence(toy_model, ["a", "c"]) == pytest.approx(expected, abs=1e-9)


def test_score_single_unigram(toy_model):
    # no bigrams containing <s>: backoff(<s>) (absent, 0) + P(a)
    assert score_sequence(toy_model, ["a"]) == pytest.approx(-1.0, abs=1e-9)


def test_increment_empty_context(toy_model):
    assert score_increment(toy_model, [], "a") == pytest.approx(-1.0, abs=1e-9)


def test_increment_bigram(toy_model):
    assert score_increment(toy_model, ["a"], "b") == pytest.approx(-0.3, abs=1e-9)


def test_increment_unknown_token(toy_model):
    assert score_increment(toy_model, [], "zz") == pytest.approx(UNK_FALLBACK_LOG10, abs=1e-9)
    assert score_increment(toy_model, ["a"], "zz") == pytest.approx(-0.2 + UNK_FALLBACK_LOG10, abs=1e-9)


def _random_model(tmp_path, rng):
    path, tokens = write_random_arpa(tmp_path / "rand.arpa", rng)
    return load_arpa(path), tokens


def test_matches_bruteforce_oracle(tmp_path):
    rng = random.Random(1234)
    model, tokens = _random_model(tmp_path, rng)
    for _ in range(1000):
        seq = [rng.choice(tokens + ["zz"]) for _ in range(rng.randint(1, 8))]
        got = score_sequence(model, seq)
        want = arpa_score_sequence(model.probs, model.backoffs, model.order, seq)
        assert got == pytest.approx(want, abs=1e-9)


def test_incremental_consistency(tmp_path):
    rng = random.Random(97)
    model, tokens = _random_model(tmp_path, rng)
    for _ in range(1000):
        seq = [rng.choice(tokens + ["zz"]) for _ in range(rng.randint(0, 7))]
        nxt = rng.choice(tokens + ["zz"])
        inc = score_increment(model, seq, nxt)
        full = score_sequence(model, seq + [nxt]) - score_sequence(model, seq)
        assert inc == pytest.approx(full, abs=1e-9)


def test_context_is_the_normalised_tail_after_the_start_symbol(tmp_path):
    tokens = {"a": (-1.0, -0.2), "b": (-0.5, -0.1)}
    trigram = load_arpa(write_arpa(tmp_path / "lm3.arpa", tokens, {("a", "b"): -0.3}, {("a", "b", "a"): -0.1}))
    assert trigram.context([]) == ("<s>",)
    assert trigram.context(["a"]) == ("<s>", "a")
    assert trigram.context(["b", "zz", "a"]) == ("<unk>", "a")
    assert load_arpa(write_arpa(tmp_path / "lm1.arpa", tokens)).context(["a", "b"]) == ()
    # the decoder passes only a prefix's last order tokens
    rng = random.Random(11)
    for _ in range(200):
        history = [rng.choice(["a", "b", "zz"]) for _ in range(rng.randint(0, 6))]
        assert trigram.context(history[-trigram.order :]) == trigram.context(history)


def test_logprob_row_equals_conditional_logprob(tmp_path):
    rng = random.Random(4242)
    tokens = [f"w{i}" for i in range(7)]
    unk_modes = set()
    for trial in range(40):
        order = trial % 4 + 1
        model = load_arpa(write_random_backoff_arpa(tmp_path / f"m{trial}.arpa", rng, tokens, order))
        unigrams = [gram[0] for gram in model.probs if len(gram) == 1]
        unk_unigram = (model.unk,) in model.probs
        unk_higher = any(gram[-1] == model.unk for gram in model.probs if len(gram) > 1)
        unk_modes.add("unigram" if unk_unigram else "higher" if unk_higher else "absent")
        ids = {t: model.row_index(t) for t in unigrams + [model.unk]}
        assert sorted(ids.values()) == list(range(len(unigrams) + (0 if unk_unigram else 1)))
        assert model.row_index("never-seen") == ids[model.unk]
        stored = [gram[:-1] for gram in model.probs if len(gram) > 1]
        words = tokens + ["<s>", model.unk]
        for _ in range(25):
            if stored and rng.random() < 0.6:
                context = rng.choice(stored)  # hits stored successors and back-off weights
            else:
                context = tuple(rng.choice(words) for _ in range(rng.randint(0, order - 1)))
            row = model.logprob_row(context)
            assert row.shape == (len(ids),)
            for token, position in ids.items():
                assert row[position] == model.conditional_logprob(context, token), (context, token)
    assert unk_modes == {"unigram", "higher", "absent"}


def test_row_indices_are_row_index_per_token_and_kept(toy_model):
    tokens = ("<b>", "a", "b", "never-seen", "a")
    positions = toy_model.row_indices(tokens)
    assert positions.tolist() == [toy_model.row_index(t) for t in tokens]
    assert not positions.flags.writeable
    assert toy_model.row_indices(tokens) is positions
    assert toy_model.row_indices(tuple(list(tokens))) is positions  # an equal tuple reuses it too
    assert toy_model.row_indices(("b",)).tolist() == [toy_model.row_index("b")]
    assert toy_model.row_indices(tokens) is not positions  # only the last vocabulary is kept
    assert toy_model.row_indices(tokens).tolist() == positions.tolist()


def test_probabilities_nonpositive(toy_model):
    assert all(p <= 0.0 for p in toy_model.probs.values())


@pytest.mark.parametrize("entry", ["nan\ta", "-inf\ta", "-0.5\ta\tinf"])
def test_non_finite_numbers_rejected(tmp_path, entry):
    path = tmp_path / "bad.arpa"
    path.write_text(f"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\tb\n{entry}\n\n\\end\\\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_arpa(str(path))
    assert exc.value.line_no == 6
    assert exc.value.path == str(path)


@pytest.mark.parametrize(
    "declaration, section, line_no",
    [(f"ngram 1={'9' * 5000}", "1", 2), (f"ngram {'9' * 5000}=2", "1", 2), ("ngram 1=2", "9" * 5000, 4)],
    ids=["count", "order", "section"],
)
def test_huge_numbers_rejected(tmp_path, declaration, section, line_no):
    # int() refuses more than 4,300 digits
    path = tmp_path / "bad.arpa"
    path.write_text(f"\\data\\\n{declaration}\n\n\\{section}-grams:\n-0.5\ta\n-0.5\tb\n\n\\end\\\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_arpa(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), line_no)
