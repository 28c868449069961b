import json
import random
from dataclasses import replace

import pytest

from homodecode.decoder import DecoderConfig
from homodecode.emissions import EmissionMatrix, Vocabulary, save_emissions
from homodecode.errors import EmptyReference, MalformedLine
from homodecode.evaluation import (
    ComparisonAssets,
    ManifestEntry,
    UtteranceError,
    character_edit_distance,
    comparison_table,
    evaluate,
    load_manifest,
    run_comparison,
)
from homodecode.lexicon import build_homophone_index, load_lexicon
from homodecode.ngram_lm import load_arpa
from homodecode.unified_writing import FrequencyTable, UWConfig, UnifiedPair

from helpers import write_arpa, write_lexicon


def test_edit_distance_trivial_cases():
    assert character_edit_distance("abc", "abc") == 0
    assert character_edit_distance("abcd", "abxd") == 1
    assert character_edit_distance("ab", "") == 2


def test_edit_distance_symmetry_and_triangle():
    rng = random.Random(55)
    for _ in range(300):
        strings = [
            "".join(rng.choice("abc") for _ in range(rng.randint(0, 6))) for _ in range(3)
        ]
        a, b, c = strings
        assert character_edit_distance(a, b) == character_edit_distance(b, a)
        assert character_edit_distance(a, c) <= (
            character_edit_distance(a, b) + character_edit_distance(b, c)
        )


def test_evaluate_single_pair():
    report = evaluate([("u1", "abcd", "abxd")])
    assert report.aggregate_cer == 0.25
    assert report.per_utterance[0].edits == 1


def test_evaluate_micro_average():
    report = evaluate([("u1", "abcd", "abxd"), ("u2", "abcdef", "abcdef")])
    assert report.aggregate_cer == pytest.approx(0.10)


def test_evaluate_perfect():
    report = evaluate([("u1", "abc", "abc"), ("u2", "xy", "xy")])
    assert report.aggregate_cer == 0.0


def test_evaluate_empty_reference():
    with pytest.raises(EmptyReference):
        evaluate([("u1", "", "abc")])


def test_evaluate_split_merge_consistency():
    rng = random.Random(77)
    for _ in range(200):
        pairs = [
            (
                f"u{i}",
                "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))),
                "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))),
            )
            for i in range(rng.randint(2, 6))
        ]
        cut = rng.randint(1, len(pairs) - 1)
        whole = evaluate(pairs)
        left, right = evaluate(pairs[:cut]), evaluate(pairs[cut:])
        assert whole.total_edits == left.total_edits + right.total_edits
        assert whole.total_ref_len == left.total_ref_len + right.total_ref_len


def test_manifest_loading(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"id": "u1", "emissions_path": "a.emat", "reference": "裏面"}\n'
        '{"id": "u2", "emissions_path": "b.emat", "reference": "左右"}\n',
        encoding="utf-8",
    )
    entries = load_manifest(str(path))
    assert entries[0] == ManifestEntry("u1", "a.emat", "裏面")
    assert len(entries) == 2


def test_manifest_bad_line(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": "u1"}\n', encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_manifest(str(path))
    assert exc.value.line_no == 1


@pytest.mark.parametrize("key, value", [("emissions_path", 0), ("emissions_path", None), ("reference", 5),
                                        ("reference", ["面"])])
def test_manifest_wrong_value_type(tmp_path, key, value):
    # an int path would open that file descriptor: 0 reads stdin
    path = tmp_path / "manifest.jsonl"
    entry = {"id": "u1", "emissions_path": "a.emat", "reference": "面", key: value}
    path.write_text('{"id": "u0", "emissions_path": "a.emat", "reference": "裏"}\n' + json.dumps(entry) + "\n",
                    encoding="utf-8")
    with pytest.raises(MalformedLine) as exc:
        load_manifest(str(path))
    assert (exc.value.path, exc.value.line_no) == (str(path), 2)
    assert key in str(exc.value)


def test_manifest_empty(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_manifest(str(path))


@pytest.fixture
def small_world(tmp_path):
    vocab = Vocabulary(("<b>", "左", "阻", "面"), 0)
    lexicon = load_lexicon(write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")]))
    index = build_homophone_index(lexicon)
    lm = load_arpa(write_arpa(tmp_path / "lm.arpa", {"左": -1.0, "阻": -0.3, "面": -0.5}))

    def emissions_for(rows, name):
        matrix = EmissionMatrix.from_linear(rows)
        path = tmp_path / name
        save_emissions(matrix, str(path))
        return str(path)

    manifest = [
        ManifestEntry("u1", emissions_for([[0.05, 0.7, 0.15, 0.1], [0.1, 0.1, 0.1, 0.7]], "u1.emat"), "阻面"),
        ManifestEntry("u2", emissions_for([[0.05, 0.1, 0.1, 0.75]], "u2.emat"), "面"),
    ]
    return vocab, index, lm, manifest


def test_run_comparison_two_variants(small_world):
    vocab, index, lm, manifest = small_world
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    results = run_comparison(manifest, assets, ("baseline", "lm"))
    assert [r.variant for r in results] == ["baseline", "lm"]
    table = comparison_table(results)
    assert table.count("\n") == 3  # header + 2 rows


def test_he_vacuous_with_empty_index(small_world, tmp_path):
    vocab, _, lm, manifest = small_world
    empty_index = build_homophone_index(load_lexicon(write_lexicon(tmp_path / "e.tsv", [])))
    assets = ComparisonAssets(vocab=vocab, index=empty_index, lm=lm, decoder_config=DecoderConfig())
    results = run_comparison(manifest, assets, ("lm", "lm_he"))
    assert results[0].report == results[1].report
    assert results[1].he_injections == 0


def test_he_improves_over_lm_in_synthetic_world(small_world):
    # u1's reference starts with the rare homophone 阻 while the emission
    # peaks on 左; the LM prefers 阻, injection lets it win
    vocab, index, lm, manifest = small_world
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    results = {r.variant: r for r in run_comparison(manifest, assets, ("lm", "lm_he"))}
    assert results["lm_he"].report.aggregate_cer < results["lm"].report.aggregate_cer
    assert results["lm_he"].he_injections > 0
    assert results["lm_he"].he_in_best > 0


def test_comparison_decode_error_carries_utterance_id(small_world, tmp_path):
    vocab, index, lm, manifest = small_world
    broken = manifest + [ManifestEntry("u3", str(tmp_path / "missing.emat"), "面")]
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    with pytest.raises(UtteranceError) as exc:
        run_comparison(broken, assets, ("baseline",))
    assert "u3" in str(exc.value)


def test_uw_variant_rewrites_hypotheses(small_world, tmp_path):
    import math

    import numpy as np

    from homodecode.unified_writing import EmbeddingTable

    vocab, index, lm, manifest = small_world
    # pretend 左/阻 are writing variants: rewriting decodes of 左 to 阻
    # repairs u1 under the lm_uw variant
    pair = UnifiedPair(variant="左", canonical="阻", jyutping_distance=0.0,
                       glyph_distances=(("m", 0.25),), cosine=0.95)
    emb = EmbeddingTable(
        2,
        {
            "左": np.array([0.97, math.sqrt(1 - 0.97**2)]),
            "阻": np.array([1.0, 0.0]),
            "面": np.array([0.0, 1.0]),
        },
    )
    freq = FrequencyTable({"阻": 10, "左": 1})
    assets = ComparisonAssets(
        vocab=vocab,
        index=index,
        lm=lm,
        decoder_config=DecoderConfig(alpha=0.0),
        uw_pairs=[pair],
        uw_freq=freq,
        uw_emb=emb,
        uw_config=UWConfig(),
    )
    results = {r.variant: r for r in run_comparison(manifest, assets, ("lm", "lm_uw"))}
    assert results["lm"].report.aggregate_cer > 0.0
    assert results["lm_uw"].report.aggregate_cer == 0.0


def test_uw_on_references_scores_against_the_canonical_form(small_world):
    import math

    import numpy as np

    from homodecode.unified_writing import EmbeddingTable

    vocab, index, lm, manifest = small_world
    # u1 decodes to 左面 and its reference now holds 左 too, the rare
    # written form of the pair 左/阻
    manifest = [ManifestEntry("u1", manifest[0].emissions_path, "左面"), manifest[1]]
    emb = EmbeddingTable(
        2,
        {"左": np.array([0.97, math.sqrt(1 - 0.97**2)]), "阻": np.array([1.0, 0.0]), "面": np.array([0.0, 1.0])},
    )
    assets = ComparisonAssets(
        vocab=vocab,
        index=index,
        lm=lm,
        decoder_config=DecoderConfig(alpha=0.0),
        uw_pairs=[UnifiedPair("左", "阻", 0.0, (("m", 0.25),), 0.95)],
        uw_freq=FrequencyTable({"阻": 10, "左": 1}),
        uw_emb=emb,
        uw_config=UWConfig(),
    )
    variants = ("lm", "lm_uw")
    raw = {r.variant: r.report for r in run_comparison(manifest, assets, variants)}
    on = replace(assets, uw_on_references=True)
    unified = {r.variant: r.report for r in run_comparison(manifest, on, variants)}
    for variant in variants:
        assert [u.reference for u in raw[variant].per_utterance] == ["左面", "面"]
        assert [u.reference for u in unified[variant].per_utterance] == ["阻面", "面"]
        # the option rewrites references only, never hypotheses
        assert [u.hypothesis for u in unified[variant].per_utterance] == [
            u.hypothesis for u in raw[variant].per_utterance
        ]
    assert [u.hypothesis for u in raw["lm"].per_utterance] == ["左面", "面"]
    assert [u.hypothesis for u in raw["lm_uw"].per_utterance] == ["阻面", "面"]
    assert (raw["lm"].total_edits, raw["lm_uw"].total_edits) == (0, 1)
    assert (unified["lm"].total_edits, unified["lm_uw"].total_edits) == (1, 0)


def test_run_comparison_repeats_exactly(small_world):
    vocab, index, lm, manifest = small_world
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    first = run_comparison(manifest, assets, ("baseline", "lm_he"))
    second = run_comparison(manifest, assets, ("baseline", "lm_he"))
    assert first == second


def test_uw_variants_reuse_the_decode_of_their_base(small_world, monkeypatch):
    from homodecode import evaluation
    from homodecode.unified_writing import EmbeddingTable

    vocab, index, lm, manifest = small_world
    assets = ComparisonAssets(
        vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig(),
        uw_pairs=[UnifiedPair("左", "阻", 0.0, (("m", 0.25),), 0.95)],
        uw_freq=FrequencyTable({"阻": 10, "左": 1}),
        uw_emb=EmbeddingTable(1, {}), uw_config=UWConfig(),
    )
    calls = []
    real_decode = evaluation.decode

    def counting_decode(matrix, vocab, index, lm, config):
        calls.append(config)
        return real_decode(matrix, vocab, index, lm, config)

    monkeypatch.setattr(evaluation, "decode", counting_decode)
    reused = {r.variant: r for r in run_comparison(manifest, assets)}
    # baseline, lm and lm_he: lm_uw and lm_he_uw reuse lm and lm_he
    assert len(calls) == 3 * len(manifest)
    for base, with_uw in (("lm", "lm_uw"), ("lm_he", "lm_he_uw")):
        assert reused[with_uw].he_injections == reused[base].he_injections
        assert reused[with_uw].he_in_best == reused[base].he_in_best


def test_run_comparison_drops_each_decode_once_counted(small_world, monkeypatch):
    import gc
    import weakref

    from homodecode import evaluation

    vocab, index, lm, manifest = small_world
    assets = ComparisonAssets(vocab=vocab, index=index, lm=lm, decoder_config=DecoderConfig())
    made = []
    real_decode = evaluation.decode

    def tracking_decode(matrix, vocab, index, lm, config):
        gc.collect()
        # the DecodeResult of the utterance before, and its audit, are gone
        assert all(ref() is None for ref in made)
        result = real_decode(matrix, vocab, index, lm, config)
        made.append(weakref.ref(result))
        return result

    monkeypatch.setattr(evaluation, "decode", tracking_decode)
    results = {r.variant: r for r in run_comparison(manifest, assets, ("lm", "lm_he", "lm_he_uw"))}
    assert len(made) == 2 * len(manifest)
    assert results["lm_he"].he_injections > 0
    assert (results["lm_he_uw"].he_injections, results["lm_he_uw"].he_in_best) == (
        results["lm_he"].he_injections, results["lm_he"].he_in_best)
