"""CTC prefix beam search with n-gram shallow fusion, homophone
extension, and final n-best LM rescoring.

The search tracks, per collapsed prefix, the natural-log probability of
ending in blank and in non-blank.  Pruning ranks prefixes by the fused
score

    logsumexp(p_blank, p_nonblank) + alpha * ln(10) * lm_score + beta * |prefix|

where lm_score is the accumulated log10 language-model score.  All
tie-breaks use transcript code-point order so repeated decodes are
bit-identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .emissions import EmissionMatrix, Vocabulary
from .errors import EmptyEmissions, InvalidProbability
from .lexicon import HomophoneIndex
from .ngram_lm import NGramModel, score_sequence

NEG_INF = float("-inf")
LN10 = math.log(10.0)


def _logaddexp(a: float, b: float) -> float:
    """Numerically stable log(exp(a) + exp(b))."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass
class DecoderConfig:
    """Beam search knobs.

    char_topk preselects that many highest-probability characters per
    frame before extension (0 considers the whole vocabulary); any input
    with V <= char_topk is searched exactly.  Each hypothesis still
    extends by a Python loop over the candidates (homophone siblings are
    scored as arrays), so this bound is what keeps a 32k-character
    vocabulary fast.
    """

    beam_size: int = 20
    alpha: float = 0.45
    beta: float = 1.55
    gamma: float = 0.5
    he_enabled: bool = True
    nbest: int = 10
    rescore_enabled: bool = True
    char_topk: int = 64

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.nbest < 1:
            raise ValueError("nbest must be >= 1")


@dataclass
class BeamHypothesis:
    """One decoding prefix. Probabilities are natural-log; lm_score log10.

    The ext_* fields are step-scoped bookkeeping: when a frame's
    character extensions append token ext_index, ext_mass holds the
    natural-log mass that multiplied its emission and ext_lm_inc the LM
    increment it received.  Homophone injection reads them to build
    sibling hypotheses; they are reset by the next step.
    """

    prefix: tuple[int, ...]
    p_blank: float
    p_nonblank: float
    lm_score: float = 0.0
    fused_score: float = 0.0
    ext_index: int | None = None
    ext_mass: float = NEG_INF
    ext_lm_inc: float = 0.0

    def acoustic_score(self) -> float:
        return _logaddexp(self.p_blank, self.p_nonblank)

    def text(self, vocab: Vocabulary) -> str:
        return "".join(vocab.tokens[i] for i in self.prefix)


@dataclass(frozen=True)
class HEInjection:
    """Audit record: at step, source char's homophone was injected with prob.

    One record is logged per injection, but all injections with the same
    (step, source, injected) share one record object.
    """

    step: int
    source: str
    injected: str
    prob: float


@dataclass(frozen=True)
class NBestEntry:
    transcript: str
    fused_score: float
    acoustic_score: float
    lm_score: float


@dataclass(frozen=True)
class DecodeResult:
    """The n-best list and every homophone injection in decode order.

    he_injections holds one entry per injection; entries for the same
    (step, source, injected) are the same HEInjection object.
    """

    nbest: tuple[NBestEntry, ...]
    he_injections: tuple[HEInjection, ...]

    @property
    def best(self) -> str:
        return self.nbest[0].transcript if self.nbest else ""


def homophone_adjusted_prob(a_p: float, q: float, n_pron: int, gamma: float) -> float:
    """Re-estimated probability for an injected homophone.

    Mixes the source character's acoustic probability a_p with the
    homophone's own emission q, discounted by how many pronunciations
    the homophone has (max(0, 1 - log10 N)), then floors the result at
    a_p so injection never scores below the original.
    """
    if not 0.0 <= a_p <= 1.0:
        raise InvalidProbability("a_p", a_p)
    if not 0.0 <= q <= 1.0:
        raise InvalidProbability("q", q)
    if n_pron < 1:
        raise ValueError(f"pronunciation count must be >= 1, got {n_pron}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    discount = max(0.0, 1.0 - math.log10(n_pron))
    return max(a_p, (1.0 - gamma) * a_p + gamma * q * discount)


def _score(hyps: list[BeamHypothesis], config: DecoderConfig) -> None:
    """Set each hypothesis's fused score (see the module docstring)."""
    lm_weight = config.alpha * LN10
    for hyp in hyps:
        hyp.fused_score = (
            _logaddexp(hyp.p_blank, hyp.p_nonblank)
            + lm_weight * hyp.lm_score
            + config.beta * len(hyp.prefix)
        )


def _prune(hyps: list[BeamHypothesis], vocab: Vocabulary, config: DecoderConfig) -> list[BeamHypothesis]:
    """Score every hypothesis and keep the beam_size best.

    Only hypotheses scoring at least the beam_size-th best fused score
    can survive, so transcript sort keys are built for those alone.
    """
    _score(hyps, config)
    if len(hyps) > config.beam_size:
        cut = heapq.nlargest(config.beam_size, [h.fused_score for h in hyps])[-1]
        hyps = [h for h in hyps if h.fused_score >= cut]
    hyps.sort(key=lambda h: (-h.fused_score, h.text(vocab)))
    return hyps[: config.beam_size]


def _frame_candidates(lp: np.ndarray, blank_index: int, topk: int) -> list[int]:
    """Non-blank candidate indices, most probable first, ties by index.

    With topk set, only the topk + 1 best entries (room for the blank)
    and any entries tied with the last of them are ordered.
    """
    neg = -lp
    if topk and topk + 1 < neg.shape[0]:
        kth = np.partition(neg, topk)[topk]
        # not "<= kth": a NaN kth (too few numbers) must keep every entry
        pool = np.flatnonzero(~(neg > kth))
        order = pool[np.argsort(neg[pool], kind="stable")]
    else:
        order = np.argsort(neg, kind="stable")
    cands: list[int] = []
    for idx in order:
        i = int(idx)
        if i == blank_index:
            continue
        if lp[i] == NEG_INF:
            break
        cands.append(i)
        if topk and len(cands) >= topk:
            break
    return cands


def _lm_context(lm: NGramModel, vocab: Vocabulary, prefix: tuple[int, ...]) -> tuple[str, ...]:
    """Normalised context that scores the token following prefix.

    Matches score_increment: a sentence-start symbol, then the prefix's
    last order-1 tokens mapped to the unknown symbol when out of vocabulary.
    """
    span = lm.order - 1
    if span <= 0:
        return ()
    effective = [lm.start] + [lm.normalize_token(vocab.tokens[i]) for i in prefix[-span:]]
    return tuple(effective[-span:])


def ctc_step(
    hyps: list[BeamHypothesis],
    frame: np.ndarray,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
    prune: bool = True,
) -> list[BeamHypothesis]:
    """One prefix beam search step over a single emission frame.

    Blank extends p_blank of the same prefix; a repeated character
    merges into p_nonblank of the same prefix; any character extends the
    prefix with an incremental LM score.  With prune=False the full
    expanded set is returned unscored (fused_score 0.0) so homophone
    injection can compete in the same step's prune; extend_homophones
    scores it.
    """
    lp = np.asarray(frame)
    blank = vocab.blank_index
    lp_blank = float(lp[blank])
    cand_ids = _frame_candidates(lp, blank, config.char_topk)
    cands = [(c, float(lp[c])) for c in cand_ids]
    if lm is not None:
        cand_pos = np.array([lm.row_index(vocab.tokens[c]) for c in cand_ids], dtype=np.intp)
    else:
        incs = [0.0] * len(cands)
    next_recs: dict[tuple[int, ...], BeamHypothesis] = {}

    for hyp in hyps:
        p_tot = _logaddexp(hyp.p_blank, hyp.p_nonblank)
        if p_tot == NEG_INF:
            continue
        last = hyp.prefix[-1] if hyp.prefix else None
        if lm is not None:  # every candidate's LM increment, from one row
            incs = lm.logprob_row(_lm_context(lm, vocab, hyp.prefix))[cand_pos].tolist()

        if lp_blank != NEG_INF:
            rec = next_recs.get(hyp.prefix)
            if rec is None:
                rec = BeamHypothesis(hyp.prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score)
                next_recs[hyp.prefix] = rec
            rec.p_blank = _logaddexp(rec.p_blank, p_tot + lp_blank)

        for (c, lp_c), inc in zip(cands, incs):
            if c == last:
                if hyp.p_nonblank != NEG_INF:
                    rec = next_recs.get(hyp.prefix)
                    if rec is None:
                        rec = BeamHypothesis(hyp.prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score)
                        next_recs[hyp.prefix] = rec
                    rec.p_nonblank = _logaddexp(rec.p_nonblank, hyp.p_nonblank + lp_c)
                mass = hyp.p_blank
            else:
                mass = p_tot
            if mass == NEG_INF:
                continue
            new_prefix = hyp.prefix + (c,)
            rec = next_recs.get(new_prefix)
            if rec is None:
                rec = BeamHypothesis(new_prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score + inc)
                next_recs[new_prefix] = rec
            elif rec.ext_index is not None:
                inc = rec.ext_lm_inc
            # a record seeded by the surviving prefix's blank/repeat path
            # still needs the extension increment for injection
            rec.ext_lm_inc = inc
            rec.p_nonblank = _logaddexp(rec.p_nonblank, mass + lp_c)
            rec.ext_index = c
            rec.ext_mass = _logaddexp(rec.ext_mass, mass)

    out = list(next_recs.values())
    return _prune(out, vocab, config) if prune else out


def _injection_table(
    c_idx: int,
    lp: np.ndarray,
    index: HomophoneIndex,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None,
    step: int,
) -> tuple[list[tuple[int, int, float]], list[HEInjection]]:
    """This frame's injections for source character c_idx.

    Returns (homophone index, LM row position, log adjusted probability)
    per in-vocabulary homophone with a positive adjusted probability, and
    the matching audit records, in homophones_of order.
    """
    source = vocab.tokens[c_idx]
    entries: list[tuple[int, int, float]] = []
    records: list[HEInjection] = []
    homophones = index.homophones_of(source)
    if not homophones:
        return entries, records
    a_p = min(1.0, math.exp(float(lp[c_idx])))
    for h_char in homophones:
        h_idx = vocab.index_of(h_char)
        if h_idx is None:
            continue
        q = min(1.0, math.exp(float(lp[h_idx])))
        p = homophone_adjusted_prob(a_p, q, index.pron_count[h_char], config.gamma)
        if p <= 0.0:
            continue
        entries.append((h_idx, lm.row_index(h_char) if lm is not None else 0, math.log(p)))
        records.append(HEInjection(step, source, h_char, p))
    return entries, records


def _merge_siblings(
    entries: list[tuple[int, int, float]],
    table_start: list[int],
    table_size: list[int],
    src_table: list[int],
    src_parent: list[int],
    src_mass: list[float],
    width: int,
) -> tuple[np.ndarray, ...]:
    """Every proposed sibling as arrays, merged per (parent, homophone).

    Source i (an extended hypothesis) proposes one sibling per entry of
    its injection table src_table[i], keyed parent * width + homophone,
    with mass src_mass[i] + log adjusted probability.  Returns, per
    distinct key in ascending order: the key, the index of its first
    proposal in creation order, that proposal's source and entry, and
    the largest mass of all its proposals.
    """
    h_ids = np.array([h_idx for h_idx, _, _ in entries])
    log_ps = np.array([log_p for _, _, log_p in entries])
    src_tab = np.array(src_table, dtype=np.intp)
    counts = np.array(table_size, dtype=np.intp)[src_tab]
    src = np.repeat(np.arange(len(src_table)), counts)
    skip = np.cumsum(counts) - counts - np.array(table_start, dtype=np.intp)[src_tab]
    entry = np.arange(int(counts.sum())) - np.repeat(skip, counts)
    keys = np.array(src_parent, dtype=np.int64)[src] * width + h_ids[entry]
    # a stable sort puts each key's first proposal first
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    heads = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    first = order[heads]
    contrib = np.array(src_mass)[src] + log_ps[entry]
    return sorted_keys[heads], first, src[first], entry[first], np.maximum.reduceat(contrib[order], heads)


def extend_homophones(
    hyps: list[BeamHypothesis],
    frame: np.ndarray,
    index: HomophoneIndex,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
    step: int = 0,
    audit: list[HEInjection] | None = None,
) -> list[BeamHypothesis]:
    """Inject homophone siblings for this step's character extensions.

    For every hypothesis extended by character c this step and every
    homophone h of c present in the vocabulary, a sibling hypothesis
    replaces c with h; its non-blank mass uses the adjusted probability
    from homophone_adjusted_prob and its LM increment is recomputed for
    h.  Injected and organic hypotheses then compete in one prune.
    Expects the unpruned output of ctc_step(prune=False).

    The adjusted probabilities depend only on the frame and the source
    character, so each distinct source gets one injection table per
    call, shared by every hypothesis it extended.  Siblings are scored
    as arrays: a sibling reached from several sources (or several
    hypotheses with one parent) keeps the largest non-blank mass and the
    LM score of its first creator, one reached organically too is merged
    into that hypothesis, and LM increments come from one logprob_row
    per parent.  Only siblings scoring at least the beam_size-th best
    fused score become BeamHypothesis objects.
    """
    if not config.he_enabled:
        return _prune(list(hyps), vocab, config)
    lp = np.asarray(frame)
    organic = list({h.prefix: h for h in hyps}.values())
    tables: dict[int, int] = {}  # source vocab id -> table number
    table_start: list[int] = []
    table_size: list[int] = []
    table_records: list[list[HEInjection]] = []
    entries: list[tuple[int, int, float]] = []  # every table, concatenated
    parents: dict[tuple[int, ...], int] = {}
    # per extended hypothesis with injections: table, parent, mass, LM score of the parent
    src_table: list[int] = []
    src_parent: list[int] = []
    src_mass: list[float] = []
    src_base_lm: list[float] = []

    for hyp in hyps:
        c_idx = hyp.ext_index
        if c_idx is None:
            continue
        t = tables.get(c_idx)
        if t is None:
            t = tables[c_idx] = len(table_start)
            table, records = _injection_table(c_idx, lp, index, vocab, config, lm, step)
            table_start.append(len(entries))
            table_size.append(len(table))
            table_records.append(records)
            entries.extend(table)
        if not table_size[t]:
            continue
        if audit is not None:
            audit.extend(table_records[t])
        src_table.append(t)
        src_parent.append(parents.setdefault(hyp.prefix[:-1], len(parents)))
        src_mass.append(hyp.ext_mass)
        src_base_lm.append(hyp.lm_score - hyp.ext_lm_inc)
    if not src_table:
        return _prune(organic, vocab, config)

    width = vocab.size
    sib_keys, first, first_src, first_entry, p_nonblank = _merge_siblings(
        entries, table_start, table_size, src_table, src_parent, src_mass, width
    )

    parent_list = list(parents)
    by_key: dict[int, BeamHypothesis] = {}
    for hyp in organic:
        if hyp.prefix:
            pid = parents.get(hyp.prefix[:-1])
            if pid is not None:
                by_key[pid * width + hyp.prefix[-1]] = hyp
    if by_key:
        hit = np.isin(sib_keys, np.fromiter(by_key, dtype=np.int64, count=len(by_key)))
        for key, mass in zip(sib_keys[hit].tolist(), p_nonblank[hit].tolist()):
            rec = by_key[key]
            if mass > rec.p_nonblank:
                rec.p_nonblank = mass
        fresh = ~hit
        sib_keys, first, first_src, first_entry, p_nonblank = (
            column[fresh] for column in (sib_keys, first, first_src, first_entry, p_nonblank)
        )

    # sorted keys group the remaining siblings by parent
    sib_parent = sib_keys // width
    inc = np.zeros(sib_keys.shape[0])
    if lm is not None:
        sib_pos = np.array([pos for _, pos, _ in entries])[first_entry]
        starts = np.flatnonzero(np.diff(sib_parent, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [sib_keys.shape[0]]):
            ctx = _lm_context(lm, vocab, parent_list[int(sib_parent[lo])])
            inc[lo:hi] = lm.logprob_row(ctx)[sib_pos[lo:hi]]
    lm_score = np.array(src_base_lm)[first_src] + inc
    lengths = np.array([len(p) + 1 for p in parent_list])[sib_parent]
    lm_weight = config.alpha * LN10
    fused = (p_nonblank + lm_weight * lm_score) + config.beta * lengths

    # only hypotheses at or above the beam_size-th best score can survive _prune
    _score(organic, config)
    chosen = np.arange(fused.shape[0])
    total = len(organic) + fused.shape[0]
    if total > config.beam_size:
        scores = np.concatenate((np.array([h.fused_score for h in organic]), fused))
        cut = np.partition(scores, total - config.beam_size)[total - config.beam_size]
        organic = [h for h in organic if h.fused_score >= cut]
        chosen = np.flatnonzero(fused >= cut)
    chosen = chosen[np.argsort(first[chosen], kind="stable")]
    survivors = [
        BeamHypothesis(parent_list[key // width] + (key % width,), NEG_INF, mass, lm_score=lm_sc, ext_lm_inc=lm_inc)
        for key, mass, lm_sc, lm_inc in zip(
            sib_keys[chosen].tolist(), p_nonblank[chosen].tolist(), lm_score[chosen].tolist(), inc[chosen].tolist()
        )
    ]
    return _prune(organic + survivors, vocab, config)


def decode(
    emissions: EmissionMatrix,
    vocab: Vocabulary,
    index: HomophoneIndex | None,
    lm: NGramModel | None,
    config: DecoderConfig,
) -> DecodeResult:
    """Run the full pipeline over all frames and return the n-best list.

    With rescore_enabled the final top-nbest transcripts are re-scored
    from scratch (acoustic logsumexp + alpha * ln10 * full LM score +
    beta * length) and re-sorted.  The rescored LM term carries the same
    alpha as shallow fusion, and the full LM score is the sum that search
    accumulated one increment at a time, so rescoring reproduces the
    search-time fused scores and their order (up to float rounding of
    that sum); it is not a second-pass reranker.
    """
    if emissions.frames == 0:
        raise EmptyEmissions()
    he_on = config.he_enabled and index is not None
    audit: list[HEInjection] = []
    log_probs = emissions.log_probs

    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t in range(emissions.frames):
        row = log_probs[t]
        if he_on:
            expanded = ctc_step(beam, row, vocab, config, lm, prune=False)
            beam = extend_homophones(expanded, row, index, vocab, config, lm, step=t, audit=audit)
        else:
            beam = ctc_step(beam, row, vocab, config, lm, prune=True)

    top = sorted(beam, key=lambda h: (-h.fused_score, h.text(vocab)))[: config.nbest]
    entries: list[NBestEntry] = []
    for hyp in top:
        transcript = hyp.text(vocab)
        acoustic = hyp.acoustic_score()
        lm_sc = hyp.lm_score
        if config.rescore_enabled and lm is not None:
            lm_sc = score_sequence(lm, [vocab.tokens[i] for i in hyp.prefix])
            final = acoustic + config.alpha * LN10 * lm_sc + config.beta * len(hyp.prefix)
        else:
            final = hyp.fused_score
        entries.append(NBestEntry(transcript, final, acoustic, lm_sc))
    if config.rescore_enabled:
        entries.sort(key=lambda e: (-e.fused_score, e.transcript))
    return DecodeResult(tuple(entries), tuple(audit))
