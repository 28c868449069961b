"""Variant-character discovery and checker-gated transcript rewriting.

Two stages: pair discovery filters all character combinations of the
lexicon through pronunciation, glyph-code and embedding-similarity
gates; replacement rewrites lower-frequency variants to their
higher-frequency form, keeping a rewrite only when a semantic checker
scores it above threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    DimMismatch,
    EmptySentence,
    EmptyString,
    MalformedLine,
    MissingEmbedding,
    ZeroVector,
    check_types,
    open_text,
    parse_count,
)
from .lexicon import TSV_BREAKS, GlyphCodeTable, Lexicon, build_homophone_index


@dataclass(frozen=True)
class UWConfig:
    """Thresholds for discovery and replacement."""

    jyutping_max_distance: float = 0.0
    glyph_max_distance: float = 0.25
    cosine_min: float = 0.5
    checker_min: float = 0.9
    # None means every method where both characters have codes must pass.
    min_methods: int | None = None

    def __post_init__(self):
        thresholds = ("jyutping_max_distance", "glyph_max_distance", "cosine_min", "checker_min")
        check_types(self, (float, int), *thresholds)
        check_types(self, (int, type(None)), "min_methods")
        for name in thresholds:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("jyutping_max_distance", "glyph_max_distance"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        # similarity thresholds may exceed 1 to act as unreachable filters
        for name in ("cosine_min", "checker_min"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.min_methods is not None and self.min_methods < 1:
            raise ValueError("min_methods must be >= 1 when set")


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]


@dataclass(frozen=True)
class UnifiedPair:
    """A surviving (variant, canonical) pair with its filter scores.

    At discovery time the orientation is the tie-break one (canonical is
    the code-point-smaller character); apply_unified_writing re-orients
    by corpus frequency.
    """

    variant: str
    canonical: str
    jyutping_distance: float
    glyph_distances: tuple[tuple[str, float], ...]
    cosine: float


@dataclass(frozen=True)
class FrequencyTable:
    counts: dict[str, int]

    def count(self, char: str) -> int:
        return self.counts.get(char, 0)


@dataclass(frozen=True)
class RewriteRecord:
    sentence_index: int
    variant: str
    canonical: str
    score: float
    kept: bool


def character_edit_distance(ref: str, hyp: str) -> int:
    """Levenshtein distance over Unicode scalars with unit edit costs.

    The one edit distance of the toolkit: CER counts it over transcripts,
    and normalized_edit_distance divides it for the discovery gates.
    """
    if ref == hyp:
        return 0
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    prev = list(range(len(hyp) + 1))
    for i, ca in enumerate(ref, start=1):
        row = [i]
        for j, cb in enumerate(hyp, start=1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = row
    return prev[-1]


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance divided by the longer string's length."""
    if not a or not b:
        raise EmptyString()
    return character_edit_distance(a, b) / max(len(a), len(b))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimMismatch(u.shape[0], v.shape[0])
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector()
    return float(u @ v) / (nu * nv)


def load_embeddings(path: str) -> EmbeddingTable:
    """Load a text embedding table: "<count> <dim>" header, then
    "<char> <f1> ... <fdim>" lines of finite, not all zero components."""
    vectors: dict[str, np.ndarray] = {}
    with open_text(path) as fh:
        header = fh.readline().split()
        expected = "expected '<count> <dim>' header"
        if len(header) != 2:
            raise MalformedLine(1, expected, path)
        count, dim = (parse_count(field, 1, expected, path) for field in header)
        for line_no, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            if len(fields) != dim + 1:
                raise MalformedLine(line_no, f"expected {dim} components, got {len(fields) - 1}", path)
            char = fields[0]
            try:
                values = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise MalformedLine(line_no, "bad float component", path) from exc
            if not all(map(math.isfinite, values)):
                raise MalformedLine(line_no, f"non-finite component for {char!r}", path)
            vec = np.array(values, dtype=np.float64)
            if not np.any(vec):
                raise MalformedLine(line_no, f"zero vector for {char!r}", path)
            vectors[char] = vec
    if len(vectors) != count:
        raise MalformedLine(1, f"header declared {count} vectors, found {len(vectors)}", path)
    return EmbeddingTable(dim=dim, vectors=vectors)


def load_frequency_table(path: str) -> FrequencyTable:
    """Load "<char>\\t<count>" TSV."""
    counts: dict[str, int] = {}
    expected = "expected '<char>\\t<count>'"
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedLine(line_no, expected, path)
            counts[fields[0]] = parse_count(fields[1], line_no, expected, path)
    return FrequencyTable(counts)


def count_frequencies(corpus: list[str]) -> FrequencyTable:
    counts: dict[str, int] = {}
    for sentence in corpus:
        for char in sentence:
            counts[char] = counts.get(char, 0) + 1
    return FrequencyTable(counts)


def _evaluate_pair(
    x: str,
    y: str,
    jyutping_distance: float,
    glyphs: list[GlyphCodeTable],
    emb: EmbeddingTable,
    config: UWConfig,
) -> UnifiedPair | None:
    """Run one unordered character pair that passed the pronunciation
    gate through the glyph-code and embedding filters."""
    glyph_distances: list[tuple[str, float]] = []
    passed = 0
    for table in glyphs:
        gx = table.codes.get(x)
        gy = table.codes.get(y)
        if not gx or not gy:
            continue
        d = min(normalized_edit_distance(cx, cy) for cx in gx for cy in gy)
        glyph_distances.append((table.method_name, d))
        if d <= config.glyph_max_distance:
            passed += 1
    if not glyph_distances:
        return None
    need = config.min_methods if config.min_methods is not None else len(glyph_distances)
    if passed < need:
        return None

    vx = emb.vectors.get(x)
    vy = emb.vectors.get(y)
    if vx is None or vy is None:
        return None
    cos = cosine_similarity(vx, vy)
    if cos < config.cosine_min:
        return None

    canonical, variant = sorted((x, y))
    return UnifiedPair(
        variant=variant,
        canonical=canonical,
        jyutping_distance=jyutping_distance,
        glyph_distances=tuple(glyph_distances),
        cosine=cos,
    )


# Pairs scored per array pass, so a pass gathers two (chunk, dim) blocks
# instead of two rows per candidate at once.
_PREFILTER_CHUNK = 4096
# Far above the gap between the array cosine and cosine_similarity's, which
# is about dim * 2.2e-16 for squared norms within [tiny, 1 / tiny].
_PREFILTER_MARGIN = 1e-9


def _homophone_candidates(lex: Lexicon) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The rows of lex's homophone index, which are its characters in
    code-point order, and each distinct pair sharing a code as rows first
    < second, in the exhaustive walk's order: by first, then by second.
    Each character is the string of its first entry, not one made anew by
    chr: 30,000 new strings raise discovery's peak RSS by about 2 MB."""
    first, second = build_homophone_index(lex).homophone_pairs()
    entries = lex.entries
    points = np.frombuffer("".join(map(itemgetter(0), entries)).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    first_entries = np.unique(points, return_index=True)[1]
    return list(map(itemgetter(0), map(entries.__getitem__, first_entries.tolist()))), first, second


def _cosine_prefilter(
    chars: list[str],
    first: np.ndarray,
    second: np.ndarray,
    glyphs: list[GlyphCodeTable],
    emb: EmbeddingTable,
    cosine_min: float,
) -> np.ndarray:
    """Mask of the candidates (chars[first[k]], chars[second[k]]) that
    _evaluate_pair may keep or raise on.

    A pair is dropped only when _evaluate_pair surely returns None
    without raising: both vectors are float64 of shape (dim,) with
    squared norms within [tiny, 1 / tiny], neither character has an
    empty glyph code, and the array cosine of the normalised rows is
    below cosine_min by more than rounding.  The scalar code re-decides
    every gate of the rest, so no stored score comes from this pass.
    """
    empty_code = {char for table in glyphs for char, codes in table.codes.items() if "" in codes}
    found = [emb.vectors.get(char) for char in chars]
    usable = [
        char not in empty_code
        and isinstance(vec, np.ndarray)
        and vec.dtype == np.float64
        and vec.shape == (emb.dim,)
        for char, vec in zip(chars, found)
    ]
    zero = np.zeros(emb.dim)
    vectors = np.array([vec if ok else zero for vec, ok in zip(found, usable)]).reshape(len(chars), emb.dim)
    screenable = np.array(usable, dtype=bool)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):  # an overflowing norm only leaves its row to the scalar gates
        squared = np.einsum("ij,ij->i", vectors, vectors)
    screenable &= (squared >= tiny) & (squared <= 1.0 / tiny)
    # normalise in place; the rows left to the scalar gates become zero
    vectors[~screenable] = 0.0
    vectors /= np.sqrt(np.where(screenable, squared, 1.0))[:, None]

    keep = ~(screenable[first] & screenable[second])
    cutoff = cosine_min - _PREFILTER_MARGIN
    for start in range(0, len(first), _PREFILTER_CHUNK):
        chunk = slice(start, start + _PREFILTER_CHUNK)
        keep[chunk] |= np.einsum("ij,ij->i", vectors[first[chunk]], vectors[second[chunk]]) >= cutoff
    return keep


def discover_pairs(
    lex: Lexicon,
    glyphs: list[GlyphCodeTable],
    emb: EmbeddingTable,
    config: UWConfig,
) -> list[UnifiedPair]:
    """Find all variant pairs surviving the three similarity filters.

    At the default pronunciation threshold of 0 only characters sharing
    a code can pass, so the candidates are the pairs within each group of
    the homophone index, at Jyutping distance 0, instead of the full
    L*(L-1) combination space; a positive threshold falls back to the
    exhaustive walk.  An array cosine prefilter drops the candidates
    that cannot pass the embedding gate, and the scalar gates of
    _evaluate_pair re-decide every survivor, so the result and any
    exception equal the exhaustive walk's.
    """
    if config.jyutping_max_distance != 0.0:
        return discover_pairs_naive(lex, glyphs, emb, config)
    chars, first, second = _homophone_candidates(lex)
    kept = _cosine_prefilter(chars, first, second, glyphs, emb, config.cosine_min)
    pairs = [
        _evaluate_pair(chars[i], chars[j], 0.0, glyphs, emb, config)
        for i, j in zip(first[kept].tolist(), second[kept].tolist())
    ]
    return sorted((p for p in pairs if p is not None), key=lambda p: (p.variant, p.canonical))


def discover_pairs_naive(
    lex: Lexicon,
    glyphs: list[GlyphCodeTable],
    emb: EmbeddingTable,
    config: UWConfig,
) -> list[UnifiedPair]:
    """Exhaustive double loop over all character combinations."""
    index = build_homophone_index(lex)
    chars = list(map(chr, index.points.tolist()))
    codes = {char: index.codes_of(char) for char in chars}
    pairs: list[UnifiedPair] = []
    for i, x in enumerate(chars):
        for y in chars[i + 1 :]:
            jd = min(normalized_edit_distance(cx, cy) for cx in codes[x] for cy in codes[y])
            if jd > config.jyutping_max_distance:
                continue
            pair = _evaluate_pair(x, y, jd, glyphs, emb, config)
            if pair is not None:
                pairs.append(pair)
    return sorted(pairs, key=lambda p: (p.variant, p.canonical))


def save_pairs(pairs: list[UnifiedPair], path: str) -> None:
    """Write pairs TSV: variant, canonical, jyutping distance, cosine,
    per-method glyph distances as "method=value;...".  A pair whose
    variant starts with "#" would read back as a comment line, and one
    with a tab or a line break in a character field, or with "=", ";", a
    tab or a line break in a method name, would split differently, so
    each raises ValueError before anything is written."""
    for p in pairs:
        record = f"pair {p.variant!r} -> {p.canonical!r}"
        if p.variant.startswith("#"):
            raise ValueError(f"{record} would read back as a comment")
        if TSV_BREAKS.intersection(p.variant + p.canonical):
            raise ValueError(f"{record} holds a tab or a line break")
        if any(TSV_BREAKS.union("=;").intersection(method) for method, _ in p.glyph_distances):
            raise ValueError(f"{record} has a method name that holds '=', ';', a tab or a line break")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in pairs:
            glyphs = ";".join(f"{m}={d!r}" for m, d in p.glyph_distances)
            fh.write(f"{p.variant}\t{p.canonical}\t{p.jyutping_distance!r}\t{p.cosine!r}\t{glyphs}\n")


def load_pairs(path: str) -> list[UnifiedPair]:
    pairs: list[UnifiedPair] = []
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise MalformedLine(line_no, "expected 5 tab-separated fields", path)
            try:
                glyph_distances = tuple(
                    (part.split("=", 1)[0], float(part.split("=", 1)[1]))
                    for part in fields[4].split(";")
                    if part
                )
                pair = UnifiedPair(
                    variant=fields[0],
                    canonical=fields[1],
                    jyutping_distance=float(fields[2]),
                    glyph_distances=glyph_distances,
                    cosine=float(fields[3]),
                )
            except (ValueError, IndexError) as exc:
                raise MalformedLine(line_no, "bad pair record", path) from exc
            numbers = (pair.jyutping_distance, pair.cosine, *(d for _, d in glyph_distances))
            if not all(map(math.isfinite, numbers)):
                raise MalformedLine(line_no, f"non-finite number in {line!r}", path)
            pairs.append(pair)
    return pairs


def rewrite_checker_score(original: str, rewritten: str, emb: EmbeddingTable) -> float:
    """Greedy-match embedding F-score between two sentences.

    Precision is the mean, over rewritten characters, of the best cosine
    against any original character (clamped to [0, 1]); recall is the
    symmetric quantity; the result is their harmonic mean.
    """
    if not original or not rewritten:
        raise EmptySentence()
    for char in original + rewritten:
        if char not in emb.vectors:
            raise MissingEmbedding(char)

    def best_match(char: str, others: str) -> float:
        vec = emb.vectors[char]
        best = 0.0
        for other in others:
            cos = cosine_similarity(vec, emb.vectors[other])
            if cos > best:
                best = min(1.0, cos)
        return best

    precision = sum(best_match(c, original) for c in rewritten) / len(rewritten)
    recall = sum(best_match(c, rewritten) for c in original) / len(original)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _orient(pair: UnifiedPair, freq: FrequencyTable) -> tuple[str, str]:
    """Pick direction variant -> canonical by frequency; ties keep the
    code-point-smaller character as canonical."""
    a, b = pair.variant, pair.canonical
    if freq.count(a) > freq.count(b):
        return b, a
    if freq.count(a) < freq.count(b):
        return a, b
    return (max(a, b), min(a, b))


def apply_unified_writing(
    corpus: list[str],
    pairs: list[UnifiedPair],
    freq: FrequencyTable,
    emb: EmbeddingTable,
    config: UWConfig,
) -> tuple[list[str], list[RewriteRecord]]:
    """Rewrite variants to their higher-frequency form, checker-gated.

    Each sentence is swept over all pairs until stable, so chained pairs
    (a's canonical being another pair's variant) settle in one call and
    a second call is a no-op.  A rewrite failing the checker (or hitting
    a character without an embedding, scored 0) leaves the sentence
    unchanged.  Returns the rewritten corpus and the audit log.
    """
    oriented = sorted({_orient(p, freq) for p in pairs})
    out: list[str] = []
    audit: list[RewriteRecord] = []
    for idx, sentence in enumerate(corpus):
        current = sentence
        records: dict[tuple[str, str], RewriteRecord] = {}
        while True:
            changed = False
            for variant, canonical in oriented:
                if variant not in current:
                    continue
                rewritten = current.replace(variant, canonical)
                try:
                    score = rewrite_checker_score(current, rewritten, emb)
                except MissingEmbedding:
                    score = 0.0
                kept = score >= config.checker_min
                records[(variant, canonical)] = RewriteRecord(idx, variant, canonical, score, kept)
                if kept:
                    current = rewritten
                    changed = True
            if not changed:
                break
        audit.extend(records[key] for key in records)
        out.append(current)
    return out, audit
