"""Homophone-extension CTC decoding and unified-writing normalization."""

from .decoder import (
    BeamExpansion,
    BeamHypothesis,
    DecodeResult,
    DecoderConfig,
    HEAudit,
    HEInjection,
    NBestEntry,
    ctc_step,
    decode,
    extend_homophones,
    homophone_adjusted_prob,
)
from .emissions import EmissionMatrix, Vocabulary, load_emissions, load_vocab, save_emissions, save_vocab
from .evaluation import EvalReport, character_edit_distance, evaluate, run_comparison
from .lexicon import (
    GlyphCodeTable,
    HomophoneIndex,
    JyutpingCode,
    Lexicon,
    build_homophone_index,
    load_cin_table,
    load_lexicon,
    save_lexicon,
)
from .ngram_lm import NGramModel, load_arpa, score_increment, score_sequence
from .unified_writing import (
    EmbeddingTable,
    FrequencyTable,
    UnifiedPair,
    UWConfig,
    apply_unified_writing,
    cosine_similarity,
    discover_pairs,
    discover_pairs_naive,
    load_embeddings,
    normalized_edit_distance,
    rewrite_checker_score,
)

__version__ = "0.1.0"
