"""Character error rate and the method-comparison harness.

CER is computed on raw character sequences, micro-averaged: total edit
operations over total reference length.  The harness decodes a manifest
of utterances under a ladder of method variants (baseline / +lm / +HE /
+UW / +HE+UW) and tabulates aggregate CER per variant.  Each distinct
decoder config decodes the manifest in lockstep groups of utterances
(decoder.decode_many), whose size decoder.group_size bounds.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, replace

from .decoder import DecoderConfig, decode_many, group_size
from .emissions import Vocabulary, load_emissions
from .errors import EmptyReference, FormatError, HomodecodeError, MalformedLine, check_types, open_text
from .lexicon import HomophoneIndex
from .ngram_lm import NGramModel
from .unified_writing import (
    EmbeddingTable,
    FrequencyTable,
    UnifiedPair,
    UWConfig,
    apply_unified_writing,
    character_edit_distance,
)


@dataclass(frozen=True)
class Variant:
    overrides: dict  # the DecoderConfig fields the variant sets
    uw: bool = False  # whether UW rewrites its 1-bests before they are scored


# the ladder in report order; variants with equal overrides share one decode
VARIANTS = {
    "baseline": Variant({"alpha": 0.0, "beta": 0.0, "he_enabled": False}),
    "lm": Variant({"he_enabled": False}),
    "lm_he": Variant({"he_enabled": True}),
    "lm_uw": Variant({"he_enabled": False}, uw=True),
    "lm_he_uw": Variant({"he_enabled": True}, uw=True),
}


class UtteranceError(HomodecodeError):
    """Wraps a load failure with the owning utterance id, or a decode
    failure with the ids of the lockstep group that was decoding."""

    def __init__(self, utt_id: str | tuple[str, ...], message: str):
        self.utt_id = utt_id
        ids = (utt_id,) if isinstance(utt_id, str) else utt_id
        super().__init__(f"utterance{'s' if len(ids) > 1 else ''} {', '.join(map(repr, ids))}: {message}")


@dataclass(frozen=True)
class UtteranceScore:
    utt_id: str
    reference: str
    hypothesis: str
    edits: int
    ref_len: int
    cer: float


@dataclass(frozen=True)
class EvalReport:
    per_utterance: tuple[UtteranceScore, ...]
    total_edits: int
    total_ref_len: int

    @property
    def aggregate_cer(self) -> float:
        return self.total_edits / self.total_ref_len if self.total_ref_len else 0.0


def evaluate(pairs: list[tuple[str, str, str]]) -> EvalReport:
    """Score (id, reference, hypothesis) triples; micro-averaged CER."""
    scored: list[UtteranceScore] = []
    total_edits = 0
    total_len = 0
    for utt_id, ref, hyp in sorted(pairs, key=lambda p: p[0]):
        if not ref:
            raise EmptyReference(utt_id)
        edits = character_edit_distance(ref, hyp)
        total_edits += edits
        total_len += len(ref)
        scored.append(UtteranceScore(utt_id, ref, hyp, edits, len(ref), edits / len(ref)))
    return EvalReport(tuple(scored), total_edits, total_len)


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    emissions_path: str
    reference: str

    def __post_init__(self):
        check_types(self, (str,), "emissions_path", "reference")


def load_manifest(path: str) -> list[ManifestEntry]:
    """JSON-lines manifest: {"id": ..., "emissions_path": ..., "reference": ...}."""
    entries: list[ManifestEntry] = []
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                entries.append(ManifestEntry(str(obj["id"]), obj["emissions_path"], obj["reference"]))
            except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or a too-long integer
                raise MalformedLine(line_no, f"bad manifest entry: {exc}", path) from exc
    if not entries:
        raise MalformedLine(0, "empty manifest", path)
    return entries


@dataclass
class ComparisonAssets:
    """Everything a comparison run needs besides the manifest."""

    vocab: Vocabulary
    index: HomophoneIndex | None
    lm: NGramModel | None
    decoder_config: DecoderConfig
    uw_pairs: list[UnifiedPair] | None = None
    uw_freq: FrequencyTable | None = None
    uw_emb: EmbeddingTable | None = None
    uw_config: UWConfig | None = None
    uw_on_references: bool = False


@dataclass(frozen=True)
class VariantResult:
    variant: str
    report: EvalReport
    he_injections: int
    he_in_best: int


def variant_config(base: DecoderConfig, variant: str) -> DecoderConfig:
    """Derive per-variant decoder settings from the configured defaults."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return replace(base, **VARIANTS[variant].overrides)


def _rewrite(texts: list[str], assets: ComparisonAssets) -> list[str]:
    if not assets.uw_pairs:
        return texts
    rewritten, _ = apply_unified_writing(
        texts, assets.uw_pairs, assets.uw_freq, assets.uw_emb, assets.uw_config or UWConfig()
    )
    return rewritten


def run_comparison(
    manifest: list[ManifestEntry],
    assets: ComparisonAssets,
    variants: tuple[str, ...] = tuple(VARIANTS),
) -> list[VariantResult]:
    """Decode every utterance under every variant and tabulate CER.

    Each distinct decoder config is decoded once: variants that only add
    UW rewriting reuse the 1-bests and HE counts of the variant they
    extend.  A config decodes the manifest in consecutive groups of
    group_size utterances, in manifest order; each group steps frame by
    frame in lockstep (decode_many), and every result equals the decode
    of its utterance alone; a failed decode names the group's utterances.
    Every emission matrix is loaded, and checked to have frames, before
    anything is decoded.
    """
    configs = [variant_config(assets.decoder_config, variant) for variant in variants]  # names checked upfront

    def load_one(entry: ManifestEntry):
        try:
            matrix = load_emissions(entry.emissions_path, assets.vocab)
            if matrix.frames == 0:
                raise FormatError(f"{entry.emissions_path}: emission matrix has zero frames")
        except Exception as exc:
            raise UtteranceError(entry.utt_id, str(exc)) from exc
        return matrix

    matrices = [load_one(entry) for entry in manifest]

    references = [entry.reference for entry in manifest]
    if assets.uw_on_references:
        references = _rewrite(references, assets)

    def decode_all(config: DecoderConfig) -> tuple[list[str], int, int]:
        """Every 1-best, with the config's he_injections and he_in_best
        counts; each group's DecodeResults and audits are dropped once
        counted, before the next group is decoded."""
        bests, injections, in_best = [], 0, 0
        size = group_size(assets.vocab, config)
        for first in range(0, len(matrices), size):
            try:
                group = decode_many(matrices[first : first + size], assets.vocab, assets.index, assets.lm, config)
            except Exception as exc:
                raise UtteranceError(tuple(e.utt_id for e in manifest[first : first + size]), str(exc)) from exc
            for result in group:
                best = result.best  # a property: read once
                bests.append(best)
                injections += len(result.he_injections)
                in_best += result.he_injections.count_injected(best)
            del group, result
        return bests, injections, in_best

    decoded_by_config: dict[tuple, tuple[list[str], int, int]] = {}
    results: list[VariantResult] = []
    for variant, config in zip(variants, configs):
        key = astuple(config)
        if key not in decoded_by_config:
            decoded_by_config[key] = decode_all(config)
        bests, injections, in_best = decoded_by_config[key]
        hyps = _rewrite(bests, assets) if VARIANTS[variant].uw else bests
        report = evaluate(
            [(entry.utt_id, ref, hyp) for entry, ref, hyp in zip(manifest, references, hyps)]
        )
        results.append(VariantResult(variant, report, injections, in_best))
    return results


def comparison_table(results: list[VariantResult]) -> str:
    """Render the ladder as a TSV table with a header row."""
    lines = ["variant\tcer\tedits\tref_len\the_injections\the_in_best"]
    for res in results:
        lines.append(
            f"{res.variant}\t{res.report.aggregate_cer:.6f}\t{res.report.total_edits}"
            f"\t{res.report.total_ref_len}\t{res.he_injections}\t{res.he_in_best}"
        )
    return "\n".join(lines) + "\n"


def save_report_tsv(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\tedits\tref_len\tcer\treference\thypothesis\n")
        for u in report.per_utterance:
            fh.write(f"{u.utt_id}\t{u.edits}\t{u.ref_len}\t{u.cer:.6f}\t{u.reference}\t{u.hypothesis}\n")
        fh.write(f"#aggregate\t{report.total_edits}\t{report.total_ref_len}\t{report.aggregate_cer:.6f}\t\t\n")


def write_jsonl(path: str, rows) -> None:
    """Write each row (a dict) as one line of key-sorted JSON, non-ASCII
    kept as UTF-8: the format of every JSON-lines file the toolkit writes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def save_report_jsonl(report: EvalReport, path: str) -> None:
    write_jsonl(
        path,
        (
            {"id": u.utt_id, "reference": u.reference, "hypothesis": u.hypothesis,
             "edits": u.edits, "ref_len": u.ref_len, "cer": u.cer}
            for u in report.per_utterance
        ),
    )
