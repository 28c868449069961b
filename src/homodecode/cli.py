"""Command-line entry point: decode / uw discover / uw apply / compare.

Every command is reproducible: the same inputs and flags produce
byte-identical outputs.  Malformed input files exit with status 2 and a
message naming the file (and line where known), flag values that the
decoder or UW settings reject with status 2 and a message naming the
flag; internal errors exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields

from .decoder import DecoderConfig, decode
from .emissions import load_emissions, load_vocab
from .errors import FormatError, HomodecodeError, check_types, open_text
from .evaluation import (
    VARIANTS,
    ComparisonAssets,
    UtteranceError,
    comparison_table,
    load_manifest,
    run_comparison,
    save_report_jsonl,
    save_report_tsv,
    write_jsonl,
)
from .lexicon import build_homophone_index, load_cin_table, load_lexicon
from .ngram_lm import load_arpa
from .unified_writing import (
    UWConfig,
    apply_unified_writing,
    count_frequencies,
    discover_pairs,
    load_embeddings,
    load_frequency_table,
    load_pairs,
    save_pairs,
)


@dataclass
class ToolConfig:
    """Paths plus decoder/UW settings, loaded from a JSON config file."""

    vocab: str
    lexicon: str | None = None
    lm: str | None = None
    embeddings: str | None = None
    frequency: str | None = None
    pairs: str | None = None
    output_dir: str = "."
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    uw: UWConfig = field(default_factory=UWConfig)
    variants: tuple[str, ...] = tuple(VARIANTS)
    uw_on_references: bool = False

    def __post_init__(self):
        check_types(self, (str,), "vocab", "output_dir")
        check_types(self, (str, type(None)), "lexicon", "lm", "embeddings", "frequency", "pairs")
        check_types(self, (bool,), "uw_on_references")
        if not (isinstance(self.variants, tuple) and all(isinstance(v, str) for v in self.variants)):
            raise TypeError(f"variants must be a list of str, got {self.variants!r}")

    @classmethod
    def from_json(cls, path: str) -> "ToolConfig":
        try:
            with open_text(path) as fh:
                obj = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer too long for int()
            raise FormatError(f"{path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: bad config: expected a JSON object, got {type(obj).__name__}")
        variants = obj.get("variants", tuple(VARIANTS))
        try:
            # a key that is no field (a misspelt "lexcon") is a TypeError naming it,
            # and so is a value of the wrong JSON type; a threshold too big for a
            # float is an OverflowError
            config = cls(
                **{
                    **obj,
                    "decoder": DecoderConfig(**obj.get("decoder", {})),
                    "uw": UWConfig(**obj.get("uw", {})),
                    "variants": tuple(variants) if isinstance(variants, list) else variants,
                }
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad config: {exc}") from exc
        for name in ("vocab", "lexicon", "lm", "embeddings", "frequency", "pairs"):
            value = getattr(config, name)
            if value is not None and not os.path.exists(value):
                raise FormatError(f"{path}: {name} path {value!r} does not exist")
        return config


def cmd_decode(args) -> int:
    vocab = load_vocab(args.vocab)
    lexicon = load_lexicon(args.lexicon)
    index = build_homophone_index(lexicon)
    lm = load_arpa(args.lm)
    emissions = load_emissions(args.emissions, vocab)
    result = decode(emissions, vocab, index, lm, _config_from_flags(DecoderConfig, args))
    print(result.best)
    # each record's fields are its JSON keys
    if args.nbest_out:
        write_jsonl(args.nbest_out, map(vars, result.nbest))
    if args.audit:
        write_jsonl(args.audit, map(vars, result.he_injections))
    return 0


def _load_cin_dir(path: str):
    names = sorted(n for n in os.listdir(path) if n.endswith(".cin"))
    if not names:
        raise FormatError(f"no .cin files in {path!r}")
    return [load_cin_table(os.path.join(path, name)) for name in names]


def cmd_uw_discover(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    glyphs = _load_cin_dir(args.cin_dir)
    emb = load_embeddings(args.embeddings)
    pairs = discover_pairs(lexicon, glyphs, emb, _config_from_flags(UWConfig, args))
    save_pairs(pairs, args.out)
    print(len(pairs))
    return 0


def cmd_uw_apply(args) -> int:
    pairs = load_pairs(args.pairs)
    emb = load_embeddings(args.embeddings)
    with open_text(args.corpus) as fh:
        corpus = fh.read().splitlines()
    freq = load_frequency_table(args.freq) if args.freq else count_frequencies(corpus)
    rewritten, audit = apply_unified_writing(corpus, pairs, freq, emb, _config_from_flags(UWConfig, args))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for sentence in rewritten:
            fh.write(sentence + "\n")
    if args.audit:
        write_jsonl(args.audit, map(vars, audit))
    return 0


def cmd_compare(args) -> int:
    config = ToolConfig.from_json(args.config)
    variants = config.variants if args.variants is None else tuple(args.variants.split(","))
    named = f"{args.config}: variants" if args.variants is None else "--variants"
    if not variants:
        raise FormatError(f"{named} is empty; pick from {', '.join(VARIANTS)}")
    for n, variant in enumerate(variants):
        if variant not in VARIANTS:
            raise FormatError(f"{named}: unknown variant {variant!r}; pick from {', '.join(VARIANTS)}")
        if variant in variants[:n]:
            raise FormatError(f"{named}: variant {variant!r} is listed twice")
    manifest = load_manifest(args.manifest)
    vocab = load_vocab(config.vocab)
    index = build_homophone_index(load_lexicon(config.lexicon)) if config.lexicon else None
    lm = load_arpa(config.lm) if config.lm else None

    uw_pairs = uw_freq = uw_emb = None
    if any(VARIANTS[v].uw for v in variants) or config.uw_on_references:
        for key in ("pairs", "embeddings", "frequency"):
            if not getattr(config, key):
                raise FormatError(f"{args.config}: UW needs {key!r} in the config")
        uw_pairs = load_pairs(config.pairs)
        uw_emb = load_embeddings(config.embeddings)
        uw_freq = load_frequency_table(config.frequency)

    assets = ComparisonAssets(
        vocab=vocab,
        index=index,
        lm=lm,
        decoder_config=config.decoder,
        uw_pairs=uw_pairs,
        uw_freq=uw_freq,
        uw_emb=uw_emb,
        uw_config=config.uw,
        uw_on_references=config.uw_on_references,
    )
    results = run_comparison(manifest, assets, variants)
    table = comparison_table(results)
    sys.stdout.write(table)
    os.makedirs(config.output_dir, exist_ok=True)
    with open(os.path.join(config.output_dir, "comparison.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table)
    for res in results:
        save_report_jsonl(res.report, os.path.join(config.output_dir, f"report_{res.variant}.jsonl"))
        save_report_tsv(res.report, os.path.join(config.output_dir, f"report_{res.variant}.tsv"))
    return 0


def _config_flag(cls, name: str, convert) -> dict:
    """add_argument keywords for the flag that sets field `name` of cls:
    the field's name as dest, its default, and a type that lets cls
    judge the value, so a value cls rejects exits 2 naming the flag."""

    def parse(text: str):
        value = convert(text)
        try:
            cls(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value" message reads it
    return {"type": parse, "default": getattr(cls, name), "dest": name}


def _config_from_flags(cls, args):
    """cls with every field that has a flag in args read from it, under
    the field's name, and the others at their defaults."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homodecode",
        description="Homophone-extension CTC beam search decoding and unified-writing normalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decode",
        help="decode one emission matrix to text",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--emissions", required=True, help="EMAT emission matrix file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--lexicon", required=True, help="Jyutping lexicon TSV")
    p.add_argument("--lm", required=True, help="ARPA language model")
    p.add_argument("--alpha", **_config_flag(DecoderConfig, "alpha", float), help="LM shallow fusion weight")
    p.add_argument("--beta", **_config_flag(DecoderConfig, "beta", float), help="length bonus weight")
    p.add_argument("--beam", **_config_flag(DecoderConfig, "beam_size", int), help="beam size")
    p.add_argument("--gamma", **_config_flag(DecoderConfig, "gamma", float),
                   help="homophone extension mixing weight")
    p.add_argument("--he", action=argparse.BooleanOptionalAction, default=DecoderConfig.he_enabled,
                   dest="he_enabled", help="homophone extension")
    p.add_argument("--nbest", **_config_flag(DecoderConfig, "nbest", int), help="n-best list size")
    p.add_argument("--char-topk", **_config_flag(DecoderConfig, "char_topk", int),
                   help="most probable characters searched per frame; 0 searches the whole vocabulary")
    p.add_argument("--nbest-out", help="write the n-best list as JSON-lines")
    p.add_argument("--audit", help="write homophone injection audit as JSON-lines")
    p.set_defaults(func=cmd_decode)

    uw = sub.add_parser("uw", help="unified writing tools")
    uw_sub = uw.add_subparsers(dest="uw_command", required=True)

    p = uw_sub.add_parser(
        "discover",
        help="discover variant character pairs",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--lexicon", required=True, help="Jyutping lexicon TSV")
    p.add_argument("--cin-dir", required=True, help="directory of .cin glyph tables")
    p.add_argument("--embeddings", required=True, help="character embedding table")
    p.add_argument("--out", required=True, help="output pairs TSV")
    p.add_argument("--jyutping-max", **_config_flag(UWConfig, "jyutping_max_distance", float),
                   help="max normalized Jyutping edit distance")
    p.add_argument("--glyph-max", **_config_flag(UWConfig, "glyph_max_distance", float),
                   help="max normalized glyph-code edit distance")
    p.add_argument("--cosine-min", **_config_flag(UWConfig, "cosine_min", float), help="min embedding cosine")
    p.add_argument("--min-methods", **_config_flag(UWConfig, "min_methods", int),
                   help="how many glyph methods must pass; every shared one if unset")
    p.set_defaults(func=cmd_uw_discover)

    p = uw_sub.add_parser(
        "apply",
        help="rewrite a corpus with discovered pairs",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--pairs", required=True, help="pairs TSV from 'uw discover'")
    p.add_argument("--corpus", required=True, help="input corpus, one sentence per line")
    p.add_argument("--embeddings", required=True, help="character embedding table")
    p.add_argument("--out", required=True, help="rewritten corpus output")
    p.add_argument("--freq", help="frequency TSV (default: counted from the corpus)")
    p.add_argument("--checker-min", **_config_flag(UWConfig, "checker_min", float), help="min checker score")
    p.add_argument("--audit", help="write rewrite audit as JSON-lines")
    p.set_defaults(func=cmd_uw_apply)

    p = sub.add_parser(
        "compare",
        help="compare method variants over a manifest",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--manifest", required=True, help="JSON-lines utterance manifest")
    p.add_argument("--config", required=True, help="tool config JSON")
    p.add_argument("--variants", default=None, help="comma-separated variant list; the config's if unset")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UtteranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.__cause__, (FormatError, OSError)) else 1
    except (FormatError, HomodecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
