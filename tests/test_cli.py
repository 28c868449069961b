import itertools
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from homodecode.cli import build_parser, main
from homodecode.decoder import DecoderConfig
from homodecode.emissions import EmissionMatrix, load_emissions, load_vocab, save_emissions
from homodecode.lexicon import build_homophone_index, load_lexicon
from homodecode.ngram_lm import load_arpa
from homodecode.unified_writing import UWConfig

from helpers import (
    GLYPH_FIXTURE,
    table1_entries,
    variant_embeddings,
    write_arpa,
    write_cin,
    write_emat_raw,
    write_embeddings,
    write_lexicon,
    write_vocab,
)
from oracles import reference_decode


@pytest.fixture
def decode_world(tmp_path):
    vocab = write_vocab(tmp_path / "vocab.txt", ["<b>", "左", "阻", "面"])
    lexicon = write_lexicon(tmp_path / "lex.tsv", [("左", "zo2"), ("阻", "zo2")])
    lm = write_arpa(tmp_path / "lm.arpa", {"左": -1.0, "阻": -0.3, "面": -0.5})
    matrix = EmissionMatrix.from_linear(
        [[0.04, 0.03, 0.9, 0.03], [0.9, 0.04, 0.03, 0.03], [0.04, 0.03, 0.03, 0.9]]
    )
    emissions = tmp_path / "utt.emat"
    save_emissions(matrix, str(emissions))
    return {
        "vocab": vocab,
        "lexicon": lexicon,
        "lm": lm,
        "emissions": str(emissions),
        "dir": tmp_path,
    }


def run_decode(world, *extra):
    return main(
        [
            "decode",
            "--emissions", world["emissions"],
            "--vocab", world["vocab"],
            "--lexicon", world["lexicon"],
            "--lm", world["lm"],
            *extra,
        ]
    )


def test_decode_prints_best_transcript(decode_world, capsys):
    assert run_decode(decode_world) == 0
    # emission peaks spell out the expected transcript; the LM also
    # prefers it, so injection does not displace it
    assert capsys.readouterr().out == "阻面\n"


def test_decode_reproducible_outputs(decode_world, capsys, tmp_path):
    audit1 = tmp_path / "a1.jsonl"
    audit2 = tmp_path / "a2.jsonl"
    run_decode(decode_world, "--audit", str(audit1), "--nbest-out", str(tmp_path / "n1.jsonl"))
    first = capsys.readouterr().out
    run_decode(decode_world, "--audit", str(audit2), "--nbest-out", str(tmp_path / "n2.jsonl"))
    second = capsys.readouterr().out
    assert first == second
    assert audit1.read_bytes() == audit2.read_bytes()
    assert (tmp_path / "n1.jsonl").read_bytes() == (tmp_path / "n2.jsonl").read_bytes()
    rows = [json.loads(line) for line in audit1.read_text(encoding="utf-8").splitlines()]
    assert all(set(r) == {"step", "source", "injected", "prob"} for r in rows)


def test_decode_audit_jsonl_writes_the_record_tuple(decode_world, tmp_path, capsys):
    # the audit, built lazily from per-frame tables, writes the bytes that
    # the tuple of per-injection records of the reference decode gives
    audit = tmp_path / "audit.jsonl"
    assert run_decode(decode_world, "--audit", str(audit)) == 0
    vocab = load_vocab(decode_world["vocab"])
    want = reference_decode(
        load_emissions(decode_world["emissions"], vocab), vocab,
        build_homophone_index(load_lexicon(decode_world["lexicon"])), load_arpa(decode_world["lm"]), DecoderConfig(),
    ).he_injections
    assert len(want) > 0
    expected = "".join(json.dumps(vars(r), ensure_ascii=False, sort_keys=True) + "\n" for r in want)
    assert audit.read_bytes() == expected.encode("utf-8")


def test_decode_nbest_flag_caps_list(decode_world, tmp_path, capsys):
    out = tmp_path / "nbest.jsonl"
    run_decode(decode_world, "--nbest", "3", "--nbest-out", str(out))
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert 1 <= len(lines) <= 3
    assert "transcript" in json.loads(lines[0])


def test_decode_he_vacuous_on_empty_lexicon(decode_world, tmp_path, capsys):
    empty_lex = write_lexicon(tmp_path / "empty.tsv", [])
    world = dict(decode_world, lexicon=empty_lex)
    run_decode(world, "--he")
    with_he = capsys.readouterr().out
    run_decode(world, "--no-he")
    without = capsys.readouterr().out
    assert with_he == without


def test_decode_missing_lm_usage_error(decode_world, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "decode",
                "--emissions", decode_world["emissions"],
                "--vocab", decode_world["vocab"],
                "--lexicon", decode_world["lexicon"],
            ]
        )
    assert exc.value.code == 2


def test_decode_malformed_input_exit_2(decode_world, tmp_path, capsys):
    bad = tmp_path / "bad.emat"
    bad.write_bytes(b"NOPE")
    world = dict(decode_world, emissions=str(bad))
    assert run_decode(world) == 2
    assert "bad.emat" in capsys.readouterr().err


def _write_text(text):
    return lambda path: path.write_text(text, encoding="utf-8")


def _write_emat(rows_ln, **header):
    return lambda path: write_emat_raw(path, rows_ln, **header)


# one input per kind of fault; each names its file and the fault's line,
# or line 0 for a fault of the whole file or its header
@pytest.mark.parametrize("flag, name, write, line, message", [
    ("--lexicon", "lex.tsv", _write_text("左\tzo2\n阻\tzo9\n"), 2,
     "tone 9 outside 1..6"),
    ("--vocab", "vocab.txt", _write_text("#blank 0\n<b>\n左\n阻\n左\n面\n"), 5,
     "duplicate vocabulary token '左'"),
    ("--vocab", "vocab.txt", _write_text("<b>\n左\n"), 1,
     "vocabulary file must start with a '#blank <index>' directive"),
    ("--emissions", "utt.emat", _write_emat([[math.log(0.25)] * 4], magic=b"XMAT"), 0,
     "bad magic b'XMAT', expected b'EMAT'"),
    ("--emissions", "utt.emat", _write_emat([[math.log(1 / 3)] * 3]), 0,
     "emission matrix has V=3 but vocabulary has 4 tokens"),
    ("--emissions", "utt.emat", _write_emat([[math.log(0.25)] * 4, [math.log(0.125)] * 4]), 0,
     "frame 1: exponentiated row sums to 0.500000, not 1 within 1e-4"),
    ("--lm", "lm.arpa", _write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t左\n\n\\end\\\n"), 0,
     "\\1-grams: declared 2 entries, found 1"),
    ("--lm", "lm.arpa", _write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t左\n"), 0,
     "missing \\end\\ section"),
    ("--cin-dir", "a.cin", _write_text("%gen_inp\n%ename X\n"), 0,
     "no %chardef begin block found"),
], ids=["tone", "duplicate-token", "blank-directive", "magic", "vocab-size", "row-sum", "count", "section", "chardef"])
def test_malformed_input_names_file_and_line(decode_world, tmp_path, capsys, flag, name, write, line, message):
    bad = tmp_path / "bad"
    bad.mkdir()
    write(bad / name)
    if flag == "--cin-dir":
        embeddings = write_embeddings(tmp_path / "emb.vec", {"左": [1.0, 0.0], "阻": [0.0, 1.0]})
        args = ["uw", "discover", "--lexicon", decode_world["lexicon"], "--cin-dir", str(bad),
                "--embeddings", embeddings, "--out", str(tmp_path / "pairs.tsv")]
        assert main(args) == 2
    else:
        assert run_decode(dict(decode_world, **{flag[2:]: str(bad / name)})) == 2
    assert capsys.readouterr().err == f"error: {bad / name}:{line}: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--beam", "0", "beam_size must be >= 1"),
    ("--alpha", "nan", "alpha must be finite"),
    ("--char-topk", "-1", "char_topk must be >= 0"),
])
def test_decode_bad_setting_flag_exit_2(decode_world, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        run_decode(decode_world, flag, value)
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_decode_char_topk_flag(decode_world, tmp_path, capsys):
    # three characters: the default 64 searches them all, as 0 does, and
    # 1 keeps only the most probable non-blank character of each frame
    # (阻, 左, 面), so every transcript is a subsequence of 阻左面
    outputs = {}
    for topk in ("0", "1", None):
        out = tmp_path / f"nbest-{topk}.jsonl"
        extra = ("--char-topk", topk) if topk else ()
        assert run_decode(decode_world, *extra, "--no-he", "--nbest", "50", "--nbest-out", str(out)) == 0
        outputs[topk] = out.read_bytes()
    capsys.readouterr()
    assert outputs["0"] == outputs[None]
    exact = {json.loads(line)["transcript"] for line in outputs["0"].decode("utf-8").splitlines()}
    narrow = {json.loads(line)["transcript"] for line in outputs["1"].decode("utf-8").splitlines()}
    assert narrow <= {"".join(c) for n in range(4) for c in itertools.combinations("阻左面", n)}
    assert len(exact) > len(narrow)


def test_decode_defaults_are_decoder_config_defaults():
    args = build_parser().parse_args(["decode", "--emissions", "e", "--vocab", "v", "--lexicon", "x", "--lm", "m"])
    # every field has a flag whose parsed value sits under the field's name
    defaults = DecoderConfig()
    assert {f.name: getattr(args, f.name) for f in fields(DecoderConfig)} == vars(defaults)


@pytest.fixture
def uw_world(tmp_path):
    lexicon = write_lexicon(tmp_path / "lex.tsv", table1_entries())
    cin_dir = tmp_path / "cin"
    cin_dir.mkdir()
    write_cin(cin_dir / "a.cin", "method_a", GLYPH_FIXTURE["method_a"])
    write_cin(cin_dir / "b.cin", "method_b", GLYPH_FIXTURE["method_b"])
    vectors = variant_embeddings()
    vectors["面"] = [0.0, 0.0, 0.0, 1.0]
    embeddings = write_embeddings(tmp_path / "emb.vec", vectors)
    return {"lexicon": lexicon, "cin_dir": str(cin_dir), "embeddings": embeddings, "dir": tmp_path}


def test_uw_discover_finds_three_pairs(uw_world, capsys):
    out = uw_world["dir"] / "pairs.tsv"
    code = main(
        [
            "uw", "discover",
            "--lexicon", uw_world["lexicon"],
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "3\n"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


def test_uw_discover_unreachable_cosine(uw_world, capsys):
    out = uw_world["dir"] / "pairs.tsv"
    code = main(
        [
            "uw", "discover",
            "--lexicon", uw_world["lexicon"],
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(out),
            "--cosine-min", "1.01",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_uw_discover_bad_setting_flag_exit_2(uw_world, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "uw", "discover",
                "--lexicon", uw_world["lexicon"],
                "--cin-dir", uw_world["cin_dir"],
                "--embeddings", uw_world["embeddings"],
                "--out", str(uw_world["dir"] / "pairs.tsv"),
                "--cosine-min", "-1",
            ]
        )
    assert exc.value.code == 2
    assert "argument --cosine-min: cosine_min must be >= 0" in capsys.readouterr().err


def test_uw_discover_help_states_min_methods_default_once(capsys):
    with pytest.raises(SystemExit):
        main(["uw", "discover", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    help_text = text[text.rindex("--min-methods MIN_METHODS") :]
    assert help_text.count("default") == 1
    assert "(default: None)" in help_text


def test_uw_discover_defaults_are_uw_config_defaults():
    args = build_parser().parse_args(["uw", "discover", "--lexicon", "x", "--cin-dir", "c", "--embeddings", "e",
                                      "--out", "o"])
    # every threshold of discovery has a flag whose parsed value sits under the field's name
    names = ("jyutping_max_distance", "glyph_max_distance", "cosine_min", "min_methods")
    defaults = UWConfig()
    assert {name: getattr(args, name) for name in names} == {name: getattr(defaults, name) for name in names}
    # discovery never reads the checker threshold, so it has no flag
    assert not hasattr(args, "checker_min")


def test_uw_discover_non_utf8_lexicon_exit_2(uw_world, tmp_path, capsys):
    bad = tmp_path / "utf16.tsv"
    bad.write_bytes(b"\xff\xfe" + "左\tzo2\n".encode("utf-16-le"))
    code = main(
        [
            "uw", "discover",
            "--lexicon", str(bad),
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(tmp_path / "pairs.tsv"),
        ]
    )
    assert code == 2
    assert f"{bad}:1: not UTF-8" in capsys.readouterr().err


def test_uw_discover_empty_lexicon(uw_world, tmp_path, capsys):
    empty = write_lexicon(tmp_path / "empty.tsv", [])
    out = tmp_path / "pairs.tsv"
    code = main(
        [
            "uw", "discover",
            "--lexicon", empty,
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "0\n"


@pytest.fixture
def applied_world(uw_world, capsys):
    pairs = uw_world["dir"] / "pairs.tsv"
    main(
        [
            "uw", "discover",
            "--lexicon", uw_world["lexicon"],
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(pairs),
        ]
    )
    capsys.readouterr()
    corpus = uw_world["dir"] / "corpus.txt"
    corpus.write_text("裏面\n裏面\n裏面\n裡面\n", encoding="utf-8")
    return dict(uw_world, pairs=str(pairs), corpus=str(corpus))


def test_uw_apply_unifies_to_frequent_form(applied_world):
    out = applied_world["dir"] / "out.txt"
    audit = applied_world["dir"] / "audit.jsonl"
    code = main(
        [
            "uw", "apply",
            "--pairs", applied_world["pairs"],
            "--corpus", applied_world["corpus"],
            "--embeddings", applied_world["embeddings"],
            "--out", str(out),
            "--audit", str(audit),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "裏面\n裏面\n裏面\n裏面\n"
    rows = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert any(r["kept"] for r in rows)
    assert all(r["kept"] == (r["score"] >= 0.9) for r in rows)
    assert all(set(r) == {"sentence_index", "variant", "canonical", "score", "kept"} for r in rows)


def test_uw_apply_idempotent_on_own_output(applied_world):
    out1 = applied_world["dir"] / "out1.txt"
    out2 = applied_world["dir"] / "out2.txt"
    base = [
        "uw", "apply",
        "--pairs", applied_world["pairs"],
        "--embeddings", applied_world["embeddings"],
    ]
    main(base + ["--corpus", applied_world["corpus"], "--out", str(out1)])
    main(base + ["--corpus", str(out1), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_uw_apply_checker_min_one_blocks_rewrites(applied_world):
    out = applied_world["dir"] / "out.txt"
    code = main(
        [
            "uw", "apply",
            "--pairs", applied_world["pairs"],
            "--corpus", applied_world["corpus"],
            "--embeddings", applied_world["embeddings"],
            "--out", str(out),
            "--checker-min", "1.0",
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "裏面\n裏面\n裏面\n裡面\n"


def test_uw_apply_bad_setting_flag_exit_2(applied_world, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "uw", "apply",
                "--pairs", applied_world["pairs"],
                "--corpus", applied_world["corpus"],
                "--embeddings", applied_world["embeddings"],
                "--out", str(applied_world["dir"] / "out.txt"),
                "--checker-min", "nan",
            ]
        )
    assert exc.value.code == 2
    assert "argument --checker-min: checker_min must be finite" in capsys.readouterr().err


@pytest.fixture
def compare_world(tmp_path, uw_world, capsys):
    tokens = ["<b>", "左", "阻", "面", "裏", "裡", "帳", "賬", "淨", "凈"]
    vocab = write_vocab(tmp_path / "vocab.txt", tokens)
    lm = write_arpa(
        tmp_path / "lm.arpa",
        {"左": -1.0, "阻": -0.3, "面": -0.5, "裏": -0.6, "裡": -0.9,
         "帳": -0.7, "賬": -0.7, "淨": -0.7, "凈": -0.7},
    )
    pairs = tmp_path / "pairs.tsv"
    main(
        [
            "uw", "discover",
            "--lexicon", uw_world["lexicon"],
            "--cin-dir", uw_world["cin_dir"],
            "--embeddings", uw_world["embeddings"],
            "--out", str(pairs),
        ]
    )
    capsys.readouterr()

    def emissions_for(indices, name):
        width = len(tokens)
        rows = []
        for idx in indices:
            rows.append([0.91 if i == idx else 0.09 / (width - 1) for i in range(width)])
        path = tmp_path / name
        save_emissions(EmissionMatrix.from_linear(rows), str(path))
        return str(path)

    manifest = tmp_path / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "u1", "emissions_path": emissions_for([3], "u1.emat"),
                             "reference": "面"}, ensure_ascii=False) + "\n")
        fh.write(json.dumps({"id": "u2", "emissions_path": emissions_for([4, 3], "u2.emat"),
                             "reference": "裏面"}, ensure_ascii=False) + "\n")
    freq = tmp_path / "freq.tsv"
    freq.write_text("面\t2\n裏\t1\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "vocab": vocab,
                "lexicon": uw_world["lexicon"],
                "lm": lm,
                "embeddings": uw_world["embeddings"],
                "pairs": str(pairs),
                "frequency": str(freq),
                "output_dir": str(tmp_path / "out"),
            }
        ),
        encoding="utf-8",
    )
    return {"manifest": str(manifest), "config": str(config), "dir": tmp_path}


def test_compare_five_variant_ladder(compare_world, capsys):
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", compare_world["config"]])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("variant\t")
    assert [line.split("\t")[0] for line in lines[1:]] == [
        "baseline", "lm", "lm_he", "lm_uw", "lm_he_uw",
    ]
    out_dir = compare_world["dir"] / "out"
    assert (out_dir / "comparison.tsv").exists()
    for variant in ("baseline", "lm", "lm_he", "lm_uw", "lm_he_uw"):
        assert (out_dir / f"report_{variant}.jsonl").exists()
        assert (out_dir / f"report_{variant}.tsv").exists()


@pytest.mark.parametrize("key", ["pairs", "embeddings", "frequency"])
@pytest.mark.parametrize("variants, on_references", [(None, False), ("lm_uw", False), ("lm", True)])
def test_compare_uw_without_its_files_exit_2(compare_world, tmp_path, capsys, key, variants, on_references):
    # UW pairs are oriented by the frequency file alone, never by counts of
    # the reference transcripts, so a config without one is refused
    config = json.loads(Path(compare_world["config"]).read_text(encoding="utf-8"))
    del config[key]
    config["uw_on_references"] = on_references
    bad = tmp_path / "no_file.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    args = ["compare", "--manifest", compare_world["manifest"], "--config", str(bad)]
    assert main(args + (["--variants", variants] if variants else [])) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and repr(key) in err
    assert not (compare_world["dir"] / "out").exists()


def test_compare_byte_identical_reruns(compare_world, capsys):
    args = ["compare", "--manifest", compare_world["manifest"], "--config", compare_world["config"]]
    main(args)
    first_out = capsys.readouterr().out
    first = (compare_world["dir"] / "out" / "comparison.tsv").read_bytes()
    main(args)
    second_out = capsys.readouterr().out
    second = (compare_world["dir"] / "out" / "comparison.tsv").read_bytes()
    assert first_out == second_out
    assert first == second


def test_compare_perfect_hypotheses_zero_cer(compare_world, capsys):
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", compare_world["config"]])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        assert float(line.split("\t")[1]) == 0.0


def test_compare_unknown_variant_exit_2(compare_world, tmp_path, capsys):
    args = ["compare", "--manifest", compare_world["manifest"], "--config", compare_world["config"]]
    code = main(args + ["--variants", "baseline,nope"])
    assert code == 2
    assert "--variants: unknown variant 'nope'" in capsys.readouterr().err

    # an empty or repeated list would print a table without rows, or the same row twice; an empty
    # flag names no variant rather than falling back to the config's list
    assert main(args + ["--variants", "lm,lm"]) == 2
    assert "--variants: variant 'lm' is listed twice" in capsys.readouterr().err
    assert main(args + ["--variants", ""]) == 2
    assert "--variants: unknown variant ''" in capsys.readouterr().err
    config = json.loads(Path(compare_world["config"]).read_text(encoding="utf-8"))
    for variants, message in (([], "variants is empty"), (["lm", "lm"], "variants: variant 'lm' is listed twice")):
        path = tmp_path / "variants.json"
        path.write_text(json.dumps({**config, "variants": variants}), encoding="utf-8")
        assert main(["compare", "--manifest", compare_world["manifest"], "--config", str(path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_non_utf8_config_exit_2(compare_world, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{\n"vocab": "vocabulário.txt"\n}\n'.encode("latin-1"))
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(bad)])
    assert code == 2
    assert f"{bad}:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("section, literal", [("decoder", '{"alpha": NaN}'), ("uw", '{"cosine_min": Infinity}')])
def test_compare_non_finite_config_number_exit_2(compare_world, tmp_path, capsys, section, literal):
    # json accepts NaN/Infinity, and nan < 0.0 is False, so range checks alone let them through
    text = Path(compare_world["config"]).read_text(encoding="utf-8")
    config = tmp_path / "non_finite.json"
    config.write_text(text[:-1] + f', "{section}": {literal}}}', encoding="utf-8")
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(config) in err
    assert "must be finite" in err


def test_compare_unknown_config_key_exit_2(compare_world, tmp_path, capsys):
    # a misspelt "lexicon" would otherwise run lm_he without homophones;
    # "cin_dir" and "decoder.rescore_enabled" are keys that were removed
    for name, edit in (
        ("lexcon", lambda obj: obj.update(lexcon=obj.pop("lexicon"))),
        ("cin_dir", lambda obj: obj.update(cin_dir=str(tmp_path))),
        ("rescore_enabled", lambda obj: obj.update(decoder={"rescore_enabled": True})),
    ):
        obj = json.loads(Path(compare_world["config"]).read_text(encoding="utf-8"))
        edit(obj)
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err
        assert f"'{name}'" in err


@pytest.mark.parametrize("key, value, message", [
    # paths: an int or a bool would be taken as a file descriptor
    ("vocab", 0, "vocab must be str, got 0"),
    ("lexicon", True, "lexicon must be str or null, got True"),
    ("output_dir", 5, "output_dir must be str, got 5"),
    # integer settings
    ("decoder", {"beam_size": 2.5}, "beam_size must be int, got 2.5"),
    ("uw", {"min_methods": True}, "min_methods must be int or null, got True"),
    # flags: bool("false") is true
    ("uw_on_references", "false", "uw_on_references must be bool, got 'false'"),
    ("decoder", {"he_enabled": 1}, "he_enabled must be bool, got 1"),
    ("variants", "lm", "variants must be a list of str, got 'lm'"),
], ids=["vocab", "lexicon", "output_dir", "beam_size", "min_methods", "uw_on_references", "he_enabled", "variants"])
def test_compare_wrong_config_value_type_exit_2(compare_world, tmp_path, capsys, key, value, message):
    obj = json.loads(Path(compare_world["config"]).read_text(encoding="utf-8"))
    obj[key] = value
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
    assert code == 2
    assert f"{config}: bad config: {message}" in capsys.readouterr().err


def test_compare_huge_config_integer_exit_2(compare_world, tmp_path, capsys):
    # json.load raises a plain ValueError on an integer of more than 4,300 digits
    text = Path(compare_world["config"]).read_text(encoding="utf-8")
    config = tmp_path / "huge.json"
    config.write_text(text[:-1] + f', "decoder": {{"beam_size": {"9" * 5000}}}}}', encoding="utf-8")
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: ")


def test_compare_huge_manifest_integer_exit_2(compare_world, tmp_path, capsys):
    text = Path(compare_world["manifest"]).read_text(encoding="utf-8")
    manifest = tmp_path / "huge.jsonl"
    manifest.write_text(text.replace('"id": "u2"', f'"id": {"9" * 5000}'), encoding="utf-8")
    code = main(["compare", "--manifest", str(manifest), "--config", compare_world["config"]])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {manifest}:2: bad manifest entry: ")


def test_compare_config_not_an_object_exit_2(compare_world, tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[]", encoding="utf-8")
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
    assert code == 2
    assert f"{config}: bad config: expected a JSON object, got list" in capsys.readouterr().err


def test_compare_empty_manifest_exit_2(compare_world, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main(["compare", "--manifest", str(empty), "--config", compare_world["config"]])
    assert code == 2


def test_compare_missing_config_path_exit_2(compare_world, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text(json.dumps({"vocab": "/nonexistent/vocab.txt"}), encoding="utf-8")
    code = main(["compare", "--manifest", compare_world["manifest"], "--config", str(config)])
    assert code == 2
    assert "vocab" in capsys.readouterr().err


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "0.45" in text
    assert "1.55" in text
    assert "20" in text
    assert "0.5" in text
