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
    frame before extension (0 considers the whole vocabulary).  It keeps
    a 32k-character vocabulary decodable in a hot pure-Python loop; any
    input with V <= char_topk is searched exactly.
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
    expanded set is returned so homophone injection can compete in the
    same step's prune.
    """
    lp = np.asarray(frame, dtype=np.float64)
    blank = vocab.blank_index
    lp_blank = float(lp[blank])
    # (index, log-prob, LM token) per candidate, shared by every hypothesis
    cands = [
        (c, float(lp[c]), lm.normalize_token(vocab.tokens[c]) if lm is not None else None)
        for c in _frame_candidates(lp, blank, config.char_topk)
    ]
    next_recs: dict[tuple[int, ...], BeamHypothesis] = {}

    for hyp in hyps:
        p_tot = _logaddexp(hyp.p_blank, hyp.p_nonblank)
        if p_tot == NEG_INF:
            continue
        last = hyp.prefix[-1] if hyp.prefix else None
        ctx = _lm_context(lm, vocab, hyp.prefix) if lm is not None else ()

        if lp_blank != NEG_INF:
            rec = next_recs.get(hyp.prefix)
            if rec is None:
                rec = BeamHypothesis(hyp.prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score)
                next_recs[hyp.prefix] = rec
            rec.p_blank = _logaddexp(rec.p_blank, p_tot + lp_blank)

        for c, lp_c, token in cands:
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
            if rec is None or rec.ext_index is None:
                # a record seeded by the surviving prefix's blank/repeat
                # path still needs the extension increment for injection
                inc = lm.conditional_logprob(ctx, token) if lm is not None else 0.0
                if rec is None:
                    rec = BeamHypothesis(new_prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score + inc)
                    next_recs[new_prefix] = rec
            else:
                inc = rec.ext_lm_inc
            rec.ext_lm_inc = inc
            rec.p_nonblank = _logaddexp(rec.p_nonblank, mass + lp_c)
            rec.ext_index = c
            rec.ext_mass = _logaddexp(rec.ext_mass, mass)

    out = list(next_recs.values())
    if prune:
        return _prune(out, vocab, config)
    _score(out, config)
    return out


def _injection_table(
    c_idx: int,
    lp: np.ndarray,
    index: HomophoneIndex,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None,
    step: int,
) -> tuple[list[tuple[int, str, float]], list[HEInjection]]:
    """This frame's injections for source character c_idx.

    Returns (homophone index, LM token, log adjusted probability) per
    in-vocabulary homophone with a positive adjusted probability, and the
    matching audit records, in homophones_of order.
    """
    source = vocab.tokens[c_idx]
    entries: list[tuple[int, str, float]] = []
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
        token = lm.normalize_token(h_char) if lm is not None else h_char
        entries.append((h_idx, token, math.log(p)))
        records.append(HEInjection(step, source, h_char, p))
    return entries, records


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
    call, shared by every hypothesis it extended.
    """
    if not config.he_enabled:
        return _prune(list(hyps), vocab, config)
    lp = np.asarray(frame, dtype=np.float64)
    by_prefix = {h.prefix: h for h in hyps}
    # siblings differ only in their last token: index them by parent
    children: dict[tuple[int, ...], dict[int, BeamHypothesis]] = {}
    for h in by_prefix.values():
        if h.prefix:
            children.setdefault(h.prefix[:-1], {})[h.prefix[-1]] = h
    tables: dict[int, tuple] = {}

    for hyp in hyps:
        c_idx = hyp.ext_index
        if c_idx is None:
            continue
        table = tables.get(c_idx)
        if table is None:
            table = tables[c_idx] = _injection_table(c_idx, lp, index, vocab, config, lm, step)
        entries, records = table
        if not entries:
            continue
        if audit is not None:
            audit.extend(records)
        parent = hyp.prefix[:-1]
        siblings = children.setdefault(parent, {})
        mass = hyp.ext_mass
        base_lm = hyp.lm_score - hyp.ext_lm_inc
        ctx = _lm_context(lm, vocab, parent) if lm is not None else ()
        for h_idx, token, log_p in entries:
            contrib = mass + log_p
            existing = siblings.get(h_idx)
            if existing is not None:
                if contrib > existing.p_nonblank:
                    existing.p_nonblank = contrib
                continue
            inc = lm.conditional_logprob(ctx, token) if lm is not None else 0.0
            rec = BeamHypothesis(parent + (h_idx,), NEG_INF, contrib, lm_score=base_lm + inc, ext_lm_inc=inc)
            siblings[h_idx] = rec
            by_prefix[rec.prefix] = rec

    return _prune(list(by_prefix.values()), vocab, config)


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
    beta * length) and re-sorted; with shallow fusion active this
    reproduces the search-time fused score exactly, and with alpha
    fusion disabled it acts as a classic second-pass LM reranker.
    """
    if emissions.frames == 0:
        raise EmptyEmissions()
    he_on = config.he_enabled and index is not None
    audit: list[HEInjection] = []
    log_probs = emissions.log_probs.astype(np.float64)

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
