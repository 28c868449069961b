import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from homodecode.decoder import (
    LN10,
    LOCKSTEP_BUDGET,
    BeamHypothesis,
    DecoderConfig,
    HEAudit,
    _frame_candidates,
    ctc_step,
    decode,
    decode_many,
    extend_homophones,
    group_size,
    homophone_adjusted_prob,
)
from homodecode.emissions import EmissionMatrix, Vocabulary
from homodecode.errors import EmptyEmissions, InvalidProbability
from homodecode.lexicon import JyutpingCode, Lexicon, build_homophone_index, load_lexicon
from homodecode.ngram_lm import load_arpa, score_increment, score_sequence

from helpers import write_arpa, write_lexicon, write_random_backoff_arpa
from oracles import (
    best_ctc_transcript,
    enumerate_ctc_posteriors,
    plain_prefix_beam_decode,
    reference_decode,
    reference_frame_candidates,
)

NEG_INF = float("-inf")


def oracle_config(**overrides):
    base = dict(
        beam_size=10**6,
        alpha=0.0,
        beta=0.0,
        gamma=0.5,
        he_enabled=False,
        nbest=10**6,
        char_topk=0,
    )
    base.update(overrides)
    return DecoderConfig(**base)


def random_linear_rows(rng, frames, width):
    rows = []
    for _ in range(frames):
        weights = [rng.random() + 1e-3 for _ in range(width)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return rows


def matrix_from_linear(rows):
    return EmissionMatrix.from_linear(rows)


# --- Eq.-style probability adjustment ---


def test_adjusted_prob_gamma_zero_identity():
    rng = random.Random(5)
    for _ in range(50):
        a_p = rng.random()
        q = rng.random()
        n = rng.randint(1, 50)
        assert homophone_adjusted_prob(a_p, q, n, 0.0) == a_p


def test_adjusted_prob_discount_zero_at_ten_pronunciations():
    assert homophone_adjusted_prob(0.3, 0.9, 10, 0.5) == 0.3


def test_adjusted_prob_single_pronunciation():
    assert homophone_adjusted_prob(0.2, 0.8, 1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_adjusted_prob_two_pronunciations():
    expected = max(0.1, 0.05 + 0.3 * (1.0 - math.log10(2)))
    assert homophone_adjusted_prob(0.1, 0.6, 2, 0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2597, abs=1e-4)


def test_adjusted_prob_dominates_source():
    rng = random.Random(11)
    for _ in range(2000):
        a_p = rng.random()
        q = rng.random()
        n = rng.randint(1, 100)
        gamma = rng.random()
        assert homophone_adjusted_prob(a_p, q, n, gamma) >= a_p


def test_adjusted_prob_monotone_in_q_below_ten():
    rng = random.Random(13)
    for _ in range(500):
        a_p = rng.random()
        n = rng.randint(1, 9)
        gamma = rng.random()
        q1 = rng.random()
        q2 = rng.uniform(q1, 1.0)
        assert homophone_adjusted_prob(a_p, q2, n, gamma) >= homophone_adjusted_prob(a_p, q1, n, gamma)


def test_adjusted_prob_rejects_bad_inputs():
    with pytest.raises(InvalidProbability):
        homophone_adjusted_prob(1.2, 0.5, 1, 0.5)
    with pytest.raises(InvalidProbability):
        homophone_adjusted_prob(0.5, -0.1, 1, 0.5)
    with pytest.raises(ValueError):
        homophone_adjusted_prob(0.5, 0.5, 0, 0.5)
    with pytest.raises(ValueError):
        homophone_adjusted_prob(0.5, 0.5, 1, 1.5)


# --- single-step behaviour ---


def test_step_blank_only_frame():
    vocab = Vocabulary(("<b>", "A"), 0)
    config = oracle_config()
    start = [BeamHypothesis((), 0.0, NEG_INF)]
    row = np.log(np.array([1.0, 1e-300]))  # effectively all mass on blank
    row[1] = NEG_INF
    out = extend_homophones(ctc_step(start, row, vocab, config), row, None, vocab, config)
    assert [h.prefix for h in out] == [()]
    assert out[0].p_blank == pytest.approx(0.0)
    assert out[0].p_nonblank == NEG_INF


def test_step_uniform_two_way_branch():
    vocab = Vocabulary(("<b>", "A"), 0)
    config = oracle_config()
    start = [BeamHypothesis((), 0.0, NEG_INF)]
    row = np.log(np.array([0.5, 0.5]))
    out = extend_homophones(ctc_step(start, row, vocab, config), row, None, vocab, config)
    assert sorted(h.text(vocab) for h in out) == ["", "A"]


def test_two_frames_match_enumeration_frozen():
    # uniform 2x3 rows: exhaustive paths give P("")=1/9, P("A")=P("B")=3/9,
    # P("AB")=P("BA")=1/9
    vocab = Vocabulary(("<b>", "A", "B"), 0)
    matrix = matrix_from_linear([[1 / 3] * 3, [1 / 3] * 3])
    result = decode(matrix, vocab, None, None, oracle_config())
    got = {e.transcript: math.exp(e.acoustic_score) for e in result.nbest}
    assert got[""] == pytest.approx(1 / 9, abs=1e-7)
    assert got["A"] == pytest.approx(3 / 9, abs=1e-7)
    assert got["B"] == pytest.approx(3 / 9, abs=1e-7)
    assert got["AB"] == pytest.approx(1 / 9, abs=1e-7)
    assert got["BA"] == pytest.approx(1 / 9, abs=1e-7)
    assert result.best == "A"  # ties with "B" break by code point


def test_exhaustive_equivalence_random_small():
    rng = random.Random(2024)
    tokens = ("<b>", "A", "B", "C")
    vocab = Vocabulary(tokens, 0)
    for _ in range(30):
        frames = rng.randint(1, 4)
        width = rng.randint(2, 4)
        sub_vocab = Vocabulary(tokens[:width], 0)
        matrix = matrix_from_linear(random_linear_rows(rng, frames, width))
        result = decode(matrix, sub_vocab, None, None, oracle_config())
        log_rows = matrix.log_probs.astype(np.float64).tolist()
        oracle = enumerate_ctc_posteriors(log_rows, 0)
        best = best_ctc_transcript(oracle, sub_vocab.tokens)
        assert result.best == "".join(sub_vocab.tokens[i] for i in best)
        got = {e.transcript: math.exp(e.acoustic_score) for e in result.nbest}
        for key, post in oracle.items():
            transcript = "".join(sub_vocab.tokens[i] for i in key)
            assert got[transcript] == pytest.approx(post, abs=1e-9)


def test_three_frame_toy_matches_oracle_at_stock_beam():
    # the production beam width is already exhaustive for this toy size
    vocab = Vocabulary(("<b>", "A", "B"), 0)
    rows = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]]
    matrix = matrix_from_linear(rows)
    config = oracle_config(beam_size=20, nbest=20)
    result = decode(matrix, vocab, None, None, config)
    oracle = enumerate_ctc_posteriors(matrix.log_probs.astype(np.float64).tolist(), 0)
    best = best_ctc_transcript(oracle, vocab.tokens)
    assert result.best == "".join(vocab.tokens[i] for i in best)


def test_decode_all_blank_single_frame():
    vocab = Vocabulary(("<b>", "A"), 0)
    matrix = matrix_from_linear([[1.0, 0.0]])
    result = decode(matrix, vocab, None, None, oracle_config())
    assert result.best == ""


def test_decode_empty_emissions_rejected():
    vocab = Vocabulary(("<b>", "A"), 0)
    matrix = EmissionMatrix(np.zeros((0, 2), dtype=np.float32))
    with pytest.raises(EmptyEmissions):
        decode(matrix, vocab, None, None, oracle_config())


# --- homophone extension ---


@pytest.fixture
def zo2_setup(tmp_path):
    lex_path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")])
    index = build_homophone_index(load_lexicon(lex_path))
    vocab = Vocabulary(("<b>", "左", "阻"), 0)
    lm = load_arpa(write_arpa(tmp_path / "lm.arpa", {"左": -1.0, "阻": -0.5}))
    return vocab, index, lm


def test_he_flips_ranking_with_hand_computed_scores(zo2_setup):
    vocab, index, lm = zo2_setup
    matrix = matrix_from_linear([[0.1, 0.6, 0.3]])
    config = DecoderConfig(beam_size=20, alpha=0.45, beta=1.55, gamma=0.5,
                           he_enabled=False, nbest=10)
    ln = matrix.log_probs.astype(np.float64)
    p_left, p_zu = float(ln[0][1]), float(ln[0][2])

    no_he = decode(matrix, vocab, index, lm, config)
    fused = {e.transcript: e.fused_score for e in no_he.nbest}
    assert fused["左"] == pytest.approx(p_left + 0.45 * LN10 * -1.0 + 1.55, abs=1e-12)
    assert fused["阻"] == pytest.approx(p_zu + 0.45 * LN10 * -0.5 + 1.55, abs=1e-12)
    assert no_he.best == "左"
    assert len(no_he.he_injections) == 0

    with_he = decode(matrix, vocab, index, lm, DecoderConfig(
        beam_size=20, alpha=0.45, beta=1.55, gamma=0.5,
        he_enabled=True, nbest=10))
    fused = {e.transcript: e.fused_score for e in with_he.nbest}
    # injected 阻 gets max(organic ln 0.3, ext_mass + ln p) with
    # p = max(0.6, 0.5*0.6 + 0.5*0.3*1) = 0.6
    assert fused["阻"] == pytest.approx(math.log(0.6) + 0.45 * LN10 * -0.5 + 1.55, abs=1e-7)
    assert with_he.best == "阻"
    # probabilities recomputed by hand from the stored (float32) emissions
    a_p, q = math.exp(p_left), math.exp(p_zu)
    expected = [
        (0, "左", "阻", max(a_p, 0.5 * a_p + 0.5 * q)),
        (0, "阻", "左", max(q, 0.5 * q + 0.5 * a_p)),
    ]
    records = [(r.step, r.source, r.injected, r.prob) for r in with_he.he_injections]
    assert records == expected


def test_he_injects_all_wong4_homophones(tmp_path):
    chars = "王黃皇簧煌蝗惶磺凰"
    lex_path = write_lexicon(tmp_path / "lex.tsv", [(c, "wong4") for c in chars])
    index = build_homophone_index(load_lexicon(lex_path))
    vocab = Vocabulary(("<b>",) + tuple(chars), 0)
    peak = {1: 0.9}
    row = [peak.get(i, 0.1 / 9) for i in range(10)]
    matrix = matrix_from_linear([row])
    config = DecoderConfig(beam_size=50, alpha=0.0, beta=0.0, he_enabled=True,
                           nbest=50)
    result = decode(matrix, vocab, None if index is None else index, None, config)
    injected_from_peak = {r.injected for r in result.he_injections if r.source == "王"}
    assert injected_from_peak == set(chars) - {"王"}
    assert len(injected_from_peak) == 8


def test_two_step_he_hand_computation(tmp_path):
    # Full two-frame walk with injection, checked against arithmetic done
    # by hand on the linear probabilities:
    #   frame 0: b .2 | 左 .5 | 阻 .1      frame 1: b .1 | 左 .1 | 阻 .1 | 面 .7
    # Step 0 injects 阻 at p=max(.1, .25+.05)=.5 (replacing its organic
    # .1 via the max-merge) and 左 at p=.3 (organic .5 keeps the max).
    # Step 1's injections all evaluate to p=.1; the only new prefixes are
    # 左左 and 阻阻, each .5*.1, spawned from the 左阻/阻左 extensions.
    lex_path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")])
    index = build_homophone_index(load_lexicon(lex_path))
    vocab = Vocabulary(("<b>", "左", "阻", "面"), 0)
    config = DecoderConfig(beam_size=10**6, alpha=0.0, beta=0.0, gamma=0.5,
                           he_enabled=True, nbest=10**6, char_topk=0)
    matrix = matrix_from_linear([[0.2, 0.5, 0.1, 0.2], [0.1, 0.1, 0.1, 0.7]])
    rows = matrix.log_probs.astype(np.float64)
    audit = HEAudit()
    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t in range(2):
        expanded = ctc_step(beam, rows[t], vocab, config, None)
        beam = extend_homophones(expanded, rows[t], index, vocab, config, None,
                                 step=t, audit=audit)
    got = {h.text(vocab): (math.exp(h.p_blank), math.exp(h.p_nonblank)) for h in beam}
    expected = {
        "": (0.02, 0.0),
        "左": (0.05, 0.07),
        "阻": (0.05, 0.07),
        "面": (0.02, 0.28),
        "左阻": (0.0, 0.05),
        "左面": (0.0, 0.35),
        "阻左": (0.0, 0.05),
        "阻面": (0.0, 0.35),
        "面左": (0.0, 0.02),
        "面阻": (0.0, 0.02),
        "左左": (0.0, 0.05),
        "阻阻": (0.0, 0.05),
    }
    assert set(got) == set(expected)
    for transcript, (want_b, want_nb) in expected.items():
        assert got[transcript][0] == pytest.approx(want_b, abs=1e-6)
        assert got[transcript][1] == pytest.approx(want_nb, abs=1e-6)
    step0 = [(r.source, r.injected, round(r.prob, 6)) for r in audit if r.step == 0]
    assert step0 == [("左", "阻", 0.5), ("阻", "左", 0.3)]
    assert len([r for r in audit if r.step == 1]) == 6
    assert all(r.prob == pytest.approx(0.1, abs=1e-6) for r in audit if r.step == 1)


def test_he_disabled_matches_step_output(zo2_setup):
    vocab, index, lm = zo2_setup
    config = DecoderConfig(beam_size=5, alpha=0.45, beta=1.55, he_enabled=False,
                           nbest=5)
    row = np.log(np.array([0.2, 0.5, 0.3]))
    start = [BeamHypothesis((), 0.0, NEG_INF)]
    stepped = extend_homophones(ctc_step(start, row, vocab, config, lm), row, None, vocab,
                                replace(config, he_enabled=True), lm)
    expanded = ctc_step(start, row, vocab, config, lm)
    merged = extend_homophones(expanded, row, index, vocab, config, lm)
    assert [(h.prefix, h.p_blank, h.p_nonblank, h.fused_score) for h in stepped] == [
        (h.prefix, h.p_blank, h.p_nonblank, h.fused_score) for h in merged
    ]


def test_he_with_empty_index_is_identity(tmp_path, zo2_setup):
    # with nothing to inject, HE on decodes as HE off: an empty index, a
    # lexicon whose homophones all lie outside the vocabulary (no kept
    # homophone), and all-blank frames (no live cell)
    vocab, index, lm = zo2_setup
    empty_index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "e.tsv", [])))
    outside = [("左", "zo2"), ("佐", "zo2"), ("阻", "zo6"), ("助", "zo6")]
    outside_index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "o.tsv", outside)))
    mixed = matrix_from_linear([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]])
    blank = matrix_from_linear([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for he_index, matrix in ((empty_index, mixed), (outside_index, mixed), (index, blank)):
        on = decode(matrix, vocab, he_index, lm, DecoderConfig(he_enabled=True))
        off = decode(matrix, vocab, he_index, lm, DecoderConfig(he_enabled=False))
        assert on == off and _hex_result(on) == _hex_result(off)
        assert len(on.he_injections) == 0 and not on.he_injections

    # an all-blank frame after a beam of non-empty prefixes, one step at a time
    config = DecoderConfig(beam_size=5, he_enabled=True, char_topk=0)
    beam = decode(mixed, vocab, None, lm, replace(config, he_enabled=False)).nbest
    hyps = [BeamHypothesis(tuple(vocab.index[c] for c in e.transcript), math.log(0.3), math.log(0.2),
                           lm_score=e.lm_score) for e in beam]
    row = blank.log_probs[0].astype(np.float64)
    audit = HEAudit()
    stepped = [extend_homophones(ctc_step(hyps, row, vocab, c, lm), row, index, vocab, c, lm, audit=audit)
               for c in (config, replace(config, he_enabled=False))]
    hex_hyp = lambda h: (h.prefix, *(x.hex() for x in (h.p_blank, h.p_nonblank, h.lm_score, h.fused_score)))
    assert len(stepped[0]) > 1 and [hex_hyp(h) for h in stepped[0]] == [hex_hyp(h) for h in stepped[1]]
    assert len(audit) == 0 and list(audit) == []


def test_he_off_bit_identical_to_plain_decoder(tmp_path):
    rng = random.Random(31)
    tokens = ("<b>", "a", "b", "c")
    vocab = Vocabulary(tokens, 0)
    lm = load_arpa(write_arpa(
        tmp_path / "lm.arpa",
        {"a": (-0.7, -0.2), "b": (-0.9, -0.1), "c": (-1.2, -0.3)},
        {("a", "b"): -0.2, ("b", "c"): -0.4},
    ))
    for trial in range(20):
        frames = rng.randint(1, 5)
        matrix = matrix_from_linear(random_linear_rows(rng, frames, 4))
        config = DecoderConfig(beam_size=3, alpha=0.45, beta=1.55, he_enabled=False,
                               nbest=3)
        result_beam = []
        log_rows = matrix.log_probs.astype(np.float64)

        beam = [BeamHypothesis((), 0.0, NEG_INF)]
        for t in range(frames):
            beam = extend_homophones(ctc_step(beam, log_rows[t], vocab, config, lm), log_rows[t], None,
                                     vocab, config, lm)
        got = {h.prefix: (h.p_blank, h.p_nonblank, h.lm_score, h.fused_score) for h in beam}

        reference = plain_prefix_beam_decode(
            log_rows.tolist(), 0, tokens, 3, 0.45, 1.55,
            lm_increment=lambda ctx, tok: score_increment(lm, ctx, tok),
        )
        want = {p: (pb, pnb, lm_sc, fused) for p, pb, pnb, lm_sc, fused in reference}
        assert got == want


def test_determinism_including_audit(zo2_setup):
    vocab, index, lm = zo2_setup
    matrix = matrix_from_linear([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.3, 0.4, 0.3]])
    config = DecoderConfig()
    first = decode(matrix, vocab, index, lm, config)
    second = decode(matrix, vocab, index, lm, config)
    # DecodeResult equality covers the n-best only, so the audits are compared record by record
    assert first == second and len(first.he_injections) > 0
    assert list(first.he_injections) == list(second.he_injections)


def test_beam_monotone_degradation():
    rng = random.Random(71)
    tokens = ("<b>", "a", "b", "c", "d")
    for _ in range(40):
        width = rng.randint(2, 5)
        vocab = Vocabulary(tokens[:width], 0)
        frames = rng.randint(1, 5)
        matrix = matrix_from_linear(random_linear_rows(rng, frames, width))
        small = decode(matrix, vocab, None, None, oracle_config(beam_size=2, nbest=1))
        large = decode(matrix, vocab, None, None, oracle_config(beam_size=8, nbest=1))
        assert small.nbest[0].fused_score <= large.nbest[0].fused_score + 1e-12


def test_fusion_reranks_against_decode_without_lm(tmp_path):
    # a decode without an LM picks "a"; shallow fusion at alpha=0.45 picks
    # "b", whose LM score is the stored unigram
    vocab = Vocabulary(("<b>", "a", "b"), 0)
    lm = load_arpa(write_arpa(tmp_path / "lm.arpa", {"a": -3.0, "b": -0.2}))
    matrix = matrix_from_linear([[0.2, 0.45, 0.35]])
    fusion_off = DecoderConfig(beam_size=10, alpha=0.0, beta=0.0, he_enabled=False, nbest=5)
    assert decode(matrix, vocab, None, None, fusion_off).best == "a"
    fused = decode(matrix, vocab, None, lm, replace(fusion_off, alpha=0.45))
    assert fused.best == "b"
    lm_scores = {e.transcript: e.lm_score for e in fused.nbest}
    assert lm_scores["b"] == pytest.approx(-0.2, abs=1e-9)


def test_injected_sibling_lm_when_extension_merges_into_survivor(tmp_path):
    # beam holds both "左" and "左阻"; this frame extends "左" by 阻 into
    # the surviving "左阻" record (seeded by its blank path first), and
    # the homophone sibling "左左" must still get lm(左) + P(左|左)
    lex_path = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")])
    index = build_homophone_index(load_lexicon(lex_path))
    vocab = Vocabulary(("<b>", "左", "阻"), 0)
    lm = load_arpa(write_arpa(
        tmp_path / "lm.arpa",
        {"左": (-1.0, -0.2), "阻": (-0.5, -0.1)},
        {("左", "阻"): -0.15, ("左", "左"): -0.4},
    ))
    config = DecoderConfig(beam_size=10, alpha=0.45, beta=0.0, he_enabled=True,
                           nbest=10)
    lm_a = score_increment(lm, [], "左")
    survivor = BeamHypothesis((1, 2), math.log(0.2), math.log(0.1),
                              lm_score=lm_a + score_increment(lm, ["左"], "阻"))
    parent = BeamHypothesis((1,), math.log(0.3), math.log(0.1), lm_score=lm_a)
    row = np.log(np.array([0.2, 0.3, 0.5]))
    expanded = ctc_step([survivor, parent], row, vocab, config, lm)
    ext_row, ext_col = expanded.cell((1, 2))
    assert expanded.tokens[ext_col] == 2
    assert expanded.lm_score[ext_row, ext_col] == survivor.lm_score
    out = extend_homophones(expanded, row, index, vocab, config, lm)
    siblings = {h.prefix: h for h in out}
    assert siblings[(1, 1)].lm_score == lm_a + score_increment(lm, ["左"], "左")


def test_nbest_scores_are_exact_sums_over_he_worlds(tmp_path):
    # a prefix's LM score is its parent's plus one increment however it
    # was reached (extension, blank or repeat stay, homophone sibling), so
    # every n-best entry carries score_sequence of its transcript, and the
    # fused score of its parts, bit for bit
    rng = random.Random(2304)
    injections = 0
    for world in range(8):
        path = tmp_path / f"w{world}"
        path.mkdir()
        vocab, index, lm = _random_he_world(rng, path, backoff_lm=world % 2 == 1)
        for _ in range(20):
            matrix = matrix_from_linear(_quantised_rows(rng, rng.randint(1, 6), vocab.size))
            config = DecoderConfig(
                beam_size=rng.randint(1, 8),
                alpha=rng.uniform(0.0, 1.0),
                beta=rng.uniform(-0.5, 2.0),
                gamma=rng.random(),
                nbest=rng.randint(1, 8),
                char_topk=rng.choice((0, 2, vocab.size)),
            )
            result = decode(matrix, vocab, index, lm, config)
            injections += len(result.he_injections)
            for entry in result.nbest:
                tokens = list(entry.transcript)
                assert entry.lm_score.hex() == score_sequence(lm, tokens).hex()
                fused = entry.acoustic_score + config.alpha * LN10 * entry.lm_score + config.beta * len(tokens)
                assert entry.fused_score.hex() == fused.hex()
    assert injections > 0


def test_exact_tie_at_the_beam_cut_keeps_the_code_point_smaller_transcript(tmp_path):
    # a seeded HE world whose last frame ranks 俎簧 and 簧俎 last in a beam
    # one wider than beam_size, with equal fused scores; they tie only if
    # every LM score, a homophone sibling's included, is the exact sum, and
    # then the prune keeps the code-point-smaller 俎簧
    rng = random.Random(1405)
    vocab, index, lm = _random_he_world(rng, tmp_path, rng.random() < 0.5)
    matrix = matrix_from_linear(_quantised_rows(rng, rng.randint(2, 5), vocab.size))
    config = DecoderConfig(
        beam_size=rng.randint(1, 6),
        alpha=rng.uniform(0.0, 1.0),
        beta=rng.uniform(-0.5, 2.0),
        gamma=rng.random(),
        char_topk=rng.choice((0, 2, vocab.size)),
    )
    rows = matrix.log_probs
    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for row in rows[:-1]:
        beam = extend_homophones(ctc_step(beam, row, vocab, config, lm), row, index, vocab, config, lm)
    wider = replace(config, beam_size=config.beam_size + 1)
    wide = extend_homophones(ctc_step(beam, rows[-1], vocab, wider, lm), rows[-1], index, vocab, wider, lm)
    assert [h.text(vocab) for h in wide[-2:]] == ["俎簧", "簧俎"]
    assert wide[-2].fused_score.hex() == wide[-1].fused_score.hex()
    nbest = decode(matrix, vocab, index, lm, config).nbest
    assert [e.transcript for e in nbest] == [h.text(vocab) for h in wide[:-1]]


def test_nbest_sorted_with_code_point_ties():
    vocab = Vocabulary(("<b>", "B", "A"), 0)
    matrix = matrix_from_linear([[0.5, 0.25, 0.25]])
    result = decode(matrix, vocab, None, None, oracle_config())
    scores = [e.fused_score for e in result.nbest]
    assert scores == sorted(scores, reverse=True)
    tied = [e.transcript for e in result.nbest if e.fused_score == result.nbest[1].fused_score]
    assert tied == sorted(tied)


# --- the per-frame beam step against the frozen per-injection reference ---


def _quantised_rows(rng, frames, width):
    """Linear rows whose weights come from a few levels, so top-k cuts
    fall on ties, and whose zero weights become -inf log-probs."""
    rows = []
    for _ in range(frames):
        if rng.random() < 0.5:
            weights = [rng.choice((0.0, 1.0, 1.0, 2.0, 3.0)) for _ in range(width)]
            if not any(weights):
                weights[rng.randrange(width)] = 1.0
        else:
            weights = [rng.random() + 1e-3 for _ in range(width)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return rows


def _random_he_world(rng, path, backoff_lm=False):
    """Polyphonic lexicon, a vocabulary missing some homophones, and an
    order-3 LM that leaves some vocabulary tokens out of vocabulary.

    With backoff_lm the LM is instead an order-1 to 4 model from
    write_random_backoff_arpa, and half the lexicons put every character
    under one or two codes, so most siblings collide with organic
    extensions and with siblings injected from other sources.
    """
    pool = "左阻俎柤詛座世細勢婿貰些王黃皇簧"
    codes = ("zo2", "zo6", "sai3", "sai2", "wong4")
    if backoff_lm and rng.random() < 0.5:
        codes = codes[:2]
    entries = [(char, code) for char in pool for code in rng.sample(codes, rng.randint(1, 2))]
    index = build_homophone_index(load_lexicon(write_lexicon(path / "lex.tsv", entries)))
    chars = rng.sample(pool, rng.randint(4, 9)) + ["面"]
    blank = rng.randrange(len(chars) + 1)
    tokens = chars[:blank] + ["<b>"] + chars[blank:]
    vocab = Vocabulary(tuple(tokens), blank)
    if backoff_lm:
        lm = load_arpa(write_random_backoff_arpa(path / "lm.arpa", rng, chars, rng.randint(1, 4)))
        return vocab, index, lm
    known = rng.sample(chars, len(chars) - 2)
    unigrams = {t: (round(rng.uniform(-3.0, -0.2), 4), round(rng.uniform(-0.8, -0.05), 4))
                for t in known + ["<unk>", "<s>"]}
    bigrams = {}
    for u in known + ["<s>"]:
        for w in rng.sample(known, 3):
            bigrams[(u, w)] = (round(rng.uniform(-2.0, -0.1), 4), round(rng.uniform(-0.8, -0.05), 4))
    trigrams = {}
    for u, w in rng.sample(sorted(bigrams), 8):
        for v in rng.sample(known, 2):
            trigrams[(u, w, v)] = round(rng.uniform(-1.5, -0.05), 4)
    lm = load_arpa(write_arpa(path / "lm.arpa", unigrams, bigrams, trigrams))
    assert lm.order == 3
    return vocab, index, lm


def _decode_key(result):
    """A DecodeResult as values to compare: its n-best, scores by float.hex, and its audit."""
    nbest = [(e.transcript, e.fused_score.hex(), e.acoustic_score.hex(), e.lm_score.hex()) for e in result.nbest]
    audit = result.he_injections
    return nbest, list(audit), len(audit), audit.count_injected(result.best)


def test_lockstep_group_equals_its_utterances_decoded_alone(tmp_path):
    # decode_many steps a group's utterances through one ctc_step and one extend_homophones
    # per frame; each result, audit included, is that of its utterance decoded alone, for
    # ragged lengths (1-frame utterances included), an utterance listed twice (equal
    # prefixes in two utterances), -inf entries (utterances with unequal numbers of
    # candidates, or none), HE on and off, no LM or order-2 and order-3 LMs with OOV
    # tokens, char_topk below and above V, and multi-character tokens
    rng = random.Random(2811)
    injected = 0
    for world in range(9):
        path = tmp_path / f"w{world}"
        path.mkdir()
        vocab, index, lm3 = _random_he_world(rng, path)
        chars = [t for t in vocab.tokens if t != "<b>"]
        lm2 = load_arpa(write_random_backoff_arpa(path / "lm2.arpa", rng, rng.sample(chars, len(chars) - 2), 2))
        if world % 3 == 2:
            vocab = Vocabulary(vocab.tokens + ("左面", "面左"), vocab.blank_index)
        matrices = [EmissionMatrix.from_linear(_quantised_rows(rng, rng.randint(1, 5), vocab.size)) for _ in range(4)]
        matrices.insert(2, matrices[0])
        for lm in (None, lm2, lm3):
            for he in (False, True):
                config = DecoderConfig(beam_size=rng.randint(1, 5), alpha=rng.choice((0.0, 0.45)),
                                       beta=rng.choice((0.0, 1.55)), he_enabled=he, nbest=rng.randint(1, 6),
                                       char_topk=rng.choice((2, 3, 0, vocab.size + 5)))
                alone = [_decode_key(decode(m, vocab, index, lm, config)) for m in matrices]
                assert [_decode_key(r) for r in decode_many(matrices, vocab, index, lm, config)] == alone
                injected += sum(key[2] for key in alone)
    assert injected > 0


def test_group_size_bounds_the_entries_of_a_step():
    # max(1, LOCKSTEP_BUDGET // (beam_size * min(V - 1, char_topk or V) + V)): a group's cells
    # and its rows of V entries stay within the budget, and V = 32,693 never batches
    big = Vocabulary(tuple(chr(0x4E00 + i) for i in range(32692)) + ("<b>",), 32692)
    for config in (DecoderConfig(), DecoderConfig(char_topk=0), DecoderConfig(beam_size=1, char_topk=0),
                   DecoderConfig(beam_size=1, char_topk=1), DecoderConfig(beam_size=1, char_topk=64)):
        assert group_size(big, config) == 1
    ladder = Vocabulary(tuple(chr(0x4E00 + i) for i in range(50)) + ("<b>",), 50)  # the ladder benchmark's V
    assert group_size(ladder, DecoderConfig()) == LOCKSTEP_BUDGET // (20 * 50 + 51) > 1
    assert group_size(ladder, DecoderConfig(char_topk=10)) == LOCKSTEP_BUDGET // (20 * 10 + 51)
    assert group_size(ladder, DecoderConfig(beam_size=LOCKSTEP_BUDGET)) == 1
    for size in (2, 51, 400, 3000, LOCKSTEP_BUDGET - 1, LOCKSTEP_BUDGET):
        vocab = Vocabulary(tuple(chr(0x4E00 + i) for i in range(size - 1)) + ("<b>",), size - 1)
        for beam, topk in ((1, 0), (1, 1), (3, 2), (20, 64), (5, size + 5)):
            config = DecoderConfig(beam_size=beam, char_topk=topk)
            n = group_size(vocab, config)
            entries = beam * min(size - 1, topk or size) + size
            assert n >= 1 and (n == 1 or n * entries <= LOCKSTEP_BUDGET) and (n + 1) * entries > LOCKSTEP_BUDGET


def test_beam_step_bit_identical_to_reference(tmp_path):
    _check_against_reference(tmp_path, random.Random(2302), backoff_lm=False)


def test_beam_step_bit_identical_to_reference_with_backoff_lms(tmp_path):
    _check_against_reference(tmp_path, random.Random(2303), backoff_lm=True)


def _check_against_reference(tmp_path, rng, backoff_lm):
    for world in range(6):
        path = tmp_path / f"w{world}"
        path.mkdir()
        vocab, index, lm = _random_he_world(rng, path, backoff_lm)
        width = vocab.size
        for _ in range(25):
            matrix = matrix_from_linear(_quantised_rows(rng, rng.randint(1, 5), width))
            config = DecoderConfig(
                beam_size=rng.randint(1, 8 if backoff_lm else 4),
                alpha=rng.choice((0.0, rng.uniform(0.0, 1.0))),
                beta=rng.uniform(-0.5, 2.0),
                gamma=rng.random(),
                he_enabled=rng.random() < 0.8,
                nbest=rng.randint(1, 5),
            )
            rng.random()  # once drew rescore_enabled; kept so that the seeded cases stay the same
            config = replace(config, char_topk=rng.choice((0, 1, 2, width - 2, width - 1, width + 3)))
            use_lm = lm if rng.random() < 0.8 else None
            got = decode(matrix, vocab, index, use_lm, config)
            want = reference_decode(matrix, vocab, index, use_lm, config)
            assert [(e.transcript, e.fused_score, e.acoustic_score, e.lm_score) for e in got.nbest] == [
                (e.transcript, e.fused_score, e.acoustic_score, e.lm_score) for e in want.nbest
            ]
            assert [(r.step, r.source, r.injected, r.prob) for r in got.he_injections] == [
                (r.step, r.source, r.injected, r.prob) for r in want.he_injections
            ]


def test_he_step_builds_objects_only_for_survivors(tmp_path, monkeypatch):
    # V = 2,001 with homophone groups of 10: thousands of siblings per
    # frame, continuous emissions so no two scores tie at the cut
    from homodecode import decoder
    from homodecode.ngram_lm import NGramModel

    rng = random.Random(5)
    chars = [chr(0x4E00 + i) for i in range(2000)]
    lexicon = [(c, chr(97 + i // 260) + chr(97 + i // 10 % 26) + "1") for i, c in enumerate(chars)]
    index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "lex.tsv", lexicon)))
    vocab = Vocabulary(tuple(["<b>"] + chars), 0)
    lm = load_arpa(write_arpa(
        tmp_path / "lm.arpa",
        {c: (round(rng.uniform(-4.0, -2.0), 4), round(rng.uniform(-0.5, -0.1), 4)) for c in chars + ["<unk>", "<s>"]},
        {(rng.choice(chars), rng.choice(chars)): round(rng.uniform(-2.0, -0.5), 4) for _ in range(4000)},
    ))
    matrix = matrix_from_linear(random_linear_rows(rng, 4, vocab.size))
    config = DecoderConfig(beam_size=8, char_topk=32)

    built = []  # BeamHypothesis constructions per extend_homophones call
    inside = [False]
    real_extend = decoder.extend_homophones

    class CountedHypothesis(BeamHypothesis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if inside[0]:
                built[-1] += 1

    def counted_extend(*args, **kwargs):
        built.append(0)
        inside[0] = True
        try:
            return real_extend(*args, **kwargs)
        finally:
            inside[0] = False

    lm_calls = []
    real_conditional = NGramModel.conditional_logprob
    monkeypatch.setattr(decoder, "BeamHypothesis", CountedHypothesis)
    monkeypatch.setattr(decoder, "extend_homophones", counted_extend)
    monkeypatch.setattr(NGramModel, "conditional_logprob",
                        lambda self, *args: lm_calls.append(args) or real_conditional(self, *args))

    result = decode(matrix, vocab, index, lm, config)
    assert len(built) == matrix.frames
    assert len(result.he_injections) > 100 * config.beam_size * matrix.frames
    assert all(count <= 2 * config.beam_size for count in built), built
    # the LM is read through the per-frame BackoffGrid alone, and nothing rescores the n-best
    assert lm_calls == []


def test_prune_builds_transcripts_only_for_score_ties(tmp_path, monkeypatch):
    # the prune orders by fused score and joins a transcript only inside a
    # run of equal scores; with a beam wide enough to keep every prefix,
    # the hypotheses it orders are the beam it returns
    rng = random.Random(1510)
    vocab, index, lm = _random_he_world(rng, tmp_path)
    calls = [0]
    real_text = BeamHypothesis.text

    def counted_text(self, vocab):
        calls[0] += 1
        return real_text(self, vocab)

    monkeypatch.setattr(BeamHypothesis, "text", counted_text)
    frames = {"tied": 0, "untied": 0}
    for he_enabled, use_lm in ((False, None), (True, None), (True, lm)):
        config = DecoderConfig(beam_size=10**6, he_enabled=he_enabled, char_topk=0)
        beam = [BeamHypothesis((), 0.0, NEG_INF)]
        for row in matrix_from_linear(_quantised_rows(rng, 3, vocab.size)).log_probs:
            calls[0] = 0
            beam = extend_homophones(ctc_step(beam, row, vocab, config, use_lm), row, index, vocab, config, use_lm)
            assert calls[0] == sum(n for n in Counter(h.fused_score for h in beam).values() if n > 1)
            frames["tied"] += calls[0] > 0
            frames["untied"] += calls[0] < len(beam)
            keys = [(-h.fused_score, real_text(h, vocab)) for h in beam]
            assert keys == sorted(keys)
    assert all(frames.values()), frames


def test_frame_candidates_match_full_sort_on_ties_and_non_finite():
    rng = random.Random(17)
    for _ in range(300):
        width = rng.randint(2, 40)
        levels = (NEG_INF, float("nan"), -3.0, -2.0, -2.0, -1.0, -0.5)
        lp = np.array([rng.choice(levels) for _ in range(width)])
        blank = rng.randrange(width)
        for topk in (0, 1, 2, 5, width - 2, width - 1, width, width + 1):
            topk = max(topk, 0)
            assert _frame_candidates(lp, blank, topk) == reference_frame_candidates(lp, blank, topk)


# --- the array beam step against the frozen reference under exact search ---


def _hex_result(result):
    return (
        [(e.transcript, e.fused_score.hex(), e.acoustic_score.hex(), e.lm_score.hex()) for e in result.nbest],
        [(r.step, r.source, r.injected, r.prob.hex()) for r in result.he_injections],
    )


def _beam_order_collisions(matrix, vocab, index, lm, config):
    """How often a frame extends a beam holding a prefix and its parent:
    [child ranked before parent, parent ranked before child]."""
    counts = [0, 0]
    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t, row in enumerate(matrix.log_probs):
        rank = {h.prefix: n for n, h in enumerate(beam)}
        for prefix, n in rank.items():
            if prefix and prefix[:-1] in rank:
                counts[n > rank[prefix[:-1]]] += 1
        if config.he_enabled:
            expanded = ctc_step(beam, row, vocab, config, lm)
            beam = extend_homophones(expanded, row, index, vocab, config, lm, step=t)
        else:
            beam = extend_homophones(ctc_step(beam, row, vocab, config, lm), row, None, vocab, config, lm)
    return counts


def test_exact_search_bit_identical_to_reference_at_v300(tmp_path):
    # V = 300: 299 characters under 70 codes, a fifth of them polyphonic,
    # some lexicon characters outside the vocabulary and some vocabulary
    # characters outside the lexicon; rows put a large share on the blank
    # and a few peaks, so beams hold prefixes next to their parents
    rng = random.Random(4242)
    chars = [chr(0x4E00 + i) for i in range(310)]
    codes = [f"s{chr(97 + n // 6)}{1 + n % 6}" for n in range(70)]
    lexicon = [(c, code) for c in chars[:290] for code in rng.sample(codes, 2 if rng.random() < 0.2 else 1)]
    index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "lex.tsv", lexicon)))
    vocab_chars = chars[5:304]
    vocab = Vocabulary(tuple(["<b>"] + vocab_chars), 0)
    lm = load_arpa(write_random_backoff_arpa(tmp_path / "lm.arpa", rng, vocab_chars, 3))
    collisions = [0, 0]
    for beam_size in range(1, 9):
        for he_enabled in (False, True):
            rows = []
            for _ in range(rng.randint(3, 4)):
                weights = [rng.random() * 0.05 for _ in range(vocab.size)]
                for peak in rng.sample(range(1, vocab.size), 3):
                    weights[peak] = rng.uniform(0.3, 2.0)
                weights[0] = rng.uniform(1.0, 4.0)
                rows.append([w / sum(weights) for w in weights])
            matrix = matrix_from_linear(rows)
            config = DecoderConfig(
                beam_size=beam_size,
                gamma=rng.random(),
                he_enabled=he_enabled,
                nbest=beam_size,
                char_topk=0,
            )
            rng.random()  # once drew rescore_enabled; kept so that the seeded cases stay the same
            got = decode(matrix, vocab, index, lm, config)
            assert _hex_result(got) == _hex_result(reference_decode(matrix, vocab, index, lm, config))
            assert bool(got.he_injections) == he_enabled
            for n, count in enumerate(_beam_order_collisions(matrix, vocab, index, lm, config)):
                collisions[n] += count
    assert all(count > 0 for count in collisions), collisions


def test_collision_record_is_the_same_in_either_beam_order(tmp_path):
    # "左阻" is in the beam and so is its parent "左": the record for 左阻
    # is created by whichever comes first (its blank/repeat stay, or the
    # parent's extension by 阻), and both give it lm(左) + P(阻|左); the
    # masses add: p_blank = .3 * .2, p_nonblank = .1 * .5 + (.3 + .1) * .5
    vocab = Vocabulary(("<b>", "左", "阻"), 0)
    lm = load_arpa(write_arpa(
        tmp_path / "lm.arpa",
        {"左": (-1.0, -0.2), "阻": (-0.5, -0.1)},
        {("左", "阻"): -0.15},
    ))
    config = DecoderConfig(beam_size=10, alpha=0.45, beta=0.0, he_enabled=False)
    lm_a = score_increment(lm, [], "左")
    lm_ab = lm_a + score_increment(lm, ["左"], "阻")
    child = BeamHypothesis((1, 2), math.log(0.2), math.log(0.1), lm_score=lm_ab)
    parent = BeamHypothesis((1,), math.log(0.3), math.log(0.1), lm_score=lm_a)
    row = np.log(np.array([0.2, 0.3, 0.5]))
    child_first = {h.prefix: h for h in extend_homophones(
        ctc_step([child, parent], row, vocab, config, lm), row, None, vocab, config, lm)}[(1, 2)]
    parent_first = {h.prefix: h for h in extend_homophones(
        ctc_step([parent, child], row, vocab, config, lm), row, None, vocab, config, lm)}[(1, 2)]
    hex_record = lambda h: (h.prefix, *(x.hex() for x in (h.p_blank, h.p_nonblank, h.lm_score, h.fused_score)))
    assert hex_record(child_first) == hex_record(parent_first)
    assert child_first.lm_score == lm_ab
    assert child_first.p_blank == pytest.approx(math.log(0.3 * 0.2), abs=1e-12)
    assert child_first.p_nonblank == pytest.approx(math.log(0.1 * 0.5 + 0.4 * 0.5), abs=1e-12)


# --- the batched injection probabilities and the lazily built audit ---


def _he_run(rows, vocab, index, config, lm=None):
    """Step the beam over rows (log-probability arrays, not necessarily
    normalised) and return the HEAudit of every frame."""
    audit = HEAudit()
    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t, row in enumerate(rows):
        beam = extend_homophones(ctc_step(beam, row, vocab, config, lm), row, index, vocab, config, lm,
                                 step=t, audit=audit)
    return audit


def test_batched_adjusted_probs_equal_scalar_by_hex(tmp_path):
    # every audit record's prob, computed for the whole frame as arrays, is
    # homophone_adjusted_prob of the same clamped inputs bit for bit: with
    # a_p and q clamped from log-probabilities just above 0, q = 0 from -inf,
    # and N >= 10 codes (discount 0), at gamma 0, 0.5, 1 and at random
    rng = random.Random(1507)
    chars = [chr(0x4E00 + i) for i in range(20)]
    codes = [f"{syllable}{tone}" for syllable in ("zo", "sai") for tone in range(1, 7)]
    entries = [(chars[0], code) for code in codes[:10]] + [(chars[1], code) for code in codes[:11]]
    entries += [(c, code) for c in chars[2:] for code in rng.sample(codes, rng.randint(1, 3))]
    index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "lex.tsv", entries)))
    vocab = Vocabulary(tuple(["<b>"] + chars[:17]), 0)  # three lexicon characters are out of vocabulary
    seen = {"a_p clamped": 0, "q clamped": 0, "q zero": 0, "N >= 10": 0}
    for gamma in (0, 0.5, 1, 1.0) + tuple(rng.random() for _ in range(6)):
        config = DecoderConfig(beam_size=6, gamma=gamma, char_topk=rng.choice((0, 5)))
        rows = []
        for _ in range(8):
            row = np.log(np.array([rng.random() + 1e-3 for _ in range(vocab.size)]))
            for k in rng.sample(range(1, vocab.size), 4):
                row[k] = rng.choice((1e-12, 3e-6, 2e-4, NEG_INF))
            rows.append(row)
        for record in _he_run(rows, vocab, index, config):
            lp = rows[record.step]
            lp_a, lp_q = lp[vocab.index_of(record.source)], lp[vocab.index_of(record.injected)]
            a_p, q = min(1.0, math.exp(lp_a)), min(1.0, math.exp(lp_q))
            n = len(index.codes_of(record.injected))
            assert record.prob.hex() == homophone_adjusted_prob(a_p, q, n, gamma).hex()
            seen["a_p clamped"] += lp_a > 0.0
            seen["q clamped"] += lp_q > 0.0
            seen["q zero"] += q == 0.0
            seen["N >= 10"] += n >= 10
    assert all(seen.values()), seen


def test_scalar_range_checks_cannot_fire_on_the_hot_path(tmp_path, monkeypatch):
    # decode does not call homophone_adjusted_prob, and its range checks
    # would pass on every input the hot path forms: exp of any log-
    # probability clamped to 1 is in [0, 1], every homophone has at least
    # one code, and DecoderConfig admits gamma in [0, 1] only
    from homodecode import decoder

    def refuse(*args):
        raise AssertionError("homophone_adjusted_prob called while decoding")

    rng = random.Random(1508)
    vocab, index, lm = _random_he_world(rng, tmp_path)
    matrix = matrix_from_linear(_quantised_rows(rng, 4, vocab.size))
    monkeypatch.setattr(decoder, "homophone_adjusted_prob", refuse)
    assert len(decode(matrix, vocab, index, lm, DecoderConfig()).he_injections) > 0
    monkeypatch.undo()

    clamped = [min(1.0, math.exp(x)) for x in (NEG_INF, -3.4e38, -746.0, -1e-45, 0.0, 1e-7, 1e-4, 88.0)]
    counts = {len(index.codes_of(h)) for c in map(chr, index.points.tolist()) for h in index.homophones_of(c)}
    assert min(counts) >= 1
    for gamma in (0, 0.5, 1, rng.random()):
        DecoderConfig(gamma=gamma)
        for a_p in clamped:
            for q in clamped:
                for n in counts | {1, 10, 11}:
                    assert homophone_adjusted_prob(a_p, q, n, gamma) >= a_p
    for gamma in (-1e-9, 1.0 + 1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DecoderConfig(gamma=gamma)


def test_audit_matches_the_reference_record_tuple_on_he_worlds(tmp_path):
    rng = random.Random(2306)
    checked = 0
    for world in range(6):
        path = tmp_path / f"w{world}"
        path.mkdir()
        vocab, index, lm = _random_he_world(rng, path, backoff_lm=world % 2 == 1)
        for _ in range(10):
            matrix = matrix_from_linear(_quantised_rows(rng, rng.randint(1, 5), vocab.size))
            config = DecoderConfig(
                beam_size=rng.randint(1, 8),
                gamma=rng.random(),
                he_enabled=rng.random() < 0.8,
                char_topk=rng.choice((0, 2, vocab.size)),
            )
            got = decode(matrix, vocab, index, lm, config).he_injections
            want = reference_decode(matrix, vocab, index, lm, config).he_injections
            assert isinstance(got, HEAudit) and isinstance(want, tuple)
            assert len(got) == len(want) and bool(got) == bool(want)
            assert list(got) == list(want)
            rng.sample(range(2 * len(want)), min(len(want), 20))  # once drew indices; kept so the cases stay the same
            # one object per (step, source, injected) within one read
            records = list(got)
            shared = {}
            for record in records:
                assert shared.setdefault((record.step, record.source, record.injected), record) is record
            # count_injected counts the entries by their injected character
            for chars in ("", "".join(vocab.tokens), "".join(rng.sample(vocab.tokens, 3))):
                assert got.count_injected(chars) == sum(1 for r in want if r.injected in chars)
            checked += len(got)
    assert checked > 1000
    assert len(HEAudit()) == 0 and not HEAudit() and list(HEAudit()) == [] and HEAudit().count_injected("abc") == 0


def test_audit_matches_the_reference_with_astral_polyphones_and_token_sources():
    # the audit keeps ids and builds its strings when read: sources include
    # multi-character tokens (no homophones) and astral characters, two
    # characters share both their codes, and some homophones are outside
    # the vocabulary; count_injected takes strings, sets and lists
    rng = random.Random(2307)
    pool = ["左", "阻", "\U00020000", "\U00020001", "俎", "重", "中", "詛"]
    codes = [JyutpingCode("zo", 2), JyutpingCode("zo", 6), JyutpingCode("zung", 1)]
    entries = [(c, code) for c in pool for code in rng.sample(codes, rng.randint(1, 2))]
    entries += [(c, code) for c in ("重", "中") for code in codes[1:]]
    index = build_homophone_index(Lexicon(tuple(dict.fromkeys(entries))))
    vocab = Vocabulary(("<b>", "<unk>", "ab") + tuple(pool[:6]) + ("面",), 0)
    checked = 0
    for _ in range(12):
        matrix = matrix_from_linear(_quantised_rows(rng, rng.randint(1, 4), vocab.size))
        config = DecoderConfig(beam_size=rng.randint(1, 6), gamma=rng.random(), char_topk=rng.choice((0, 3)))
        got = decode(matrix, vocab, index, None, config).he_injections
        want = reference_decode(matrix, vocab, index, None, config).he_injections
        assert len(got) == len(want) and list(got) == list(want)
        for chars in ("", "".join(pool), set(pool[2:4]) | {"ab", "<unk>"}, list(vocab.tokens), ["\U00020000左"]):
            assert got.count_injected(chars) == sum(1 for r in want if r.injected in chars)
        checked += len(got)
    assert checked > 100


def test_unread_audit_builds_no_records(tmp_path, monkeypatch):
    from homodecode import decoder

    built = []

    class CountedInjection(decoder.HEInjection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(decoder, "HEInjection", CountedInjection)
    rng = random.Random(1509)
    vocab, index, lm = _random_he_world(rng, tmp_path)
    matrix = matrix_from_linear(_quantised_rows(rng, 5, vocab.size))
    audit = decode(matrix, vocab, index, lm, DecoderConfig()).he_injections
    assert len(audit) > 0 and built == []
    assert audit.count_injected(set(vocab.tokens)) == len(audit) and built == []
    records = list(audit)
    assert len(built) == len({id(r) for r in records}) < len(records)
    assert list(audit) == records
