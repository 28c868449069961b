"""CTC prefix beam search with n-gram shallow fusion and homophone
extension.

Every frame takes one path: ctc_step extends the beam into an unpruned
BeamExpansion, and extend_homophones injects homophone siblings into it
(none with homophone extension off) and prunes it.  The search tracks,
per collapsed prefix, the natural-log probability of ending in blank and
in non-blank.  Pruning ranks prefixes by the fused score

    logsumexp(p_blank, p_nonblank) + alpha * ln(10) * lm_score + beta * |prefix|

where lm_score is the accumulated log10 language-model score.  Every
prefix's lm_score is its parent's plus one logprob_row value, however
the prefix was reached, so it equals score_sequence of the prefix bit
for bit and the n-best needs no second LM pass.  All tie-breaks use
transcript code-point order so repeated decodes are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emissions import EmissionMatrix, Vocabulary
from .errors import EmptyEmissions, InvalidProbability, check_types
from .lexicon import HomophoneIndex
from .ngram_lm import NGramModel

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
    with V <= char_topk is searched exactly.  The beam extends by every
    candidate in one array pass, so exact search without homophone
    extension is practical at V = 32k; with it, every candidate becomes
    an injection source, so this bound is what keeps a 32k-character
    vocabulary fast.
    """

    beam_size: int = 20
    alpha: float = 0.45
    beta: float = 1.55
    gamma: float = 0.5
    he_enabled: bool = True
    nbest: int = 10
    char_topk: int = 64

    def __post_init__(self):
        check_types(self, (int,), "beam_size", "nbest", "char_topk")
        check_types(self, (float, int), "alpha", "beta", "gamma")
        check_types(self, (bool,), "he_enabled")
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
        if self.char_topk < 0:
            raise ValueError("char_topk must be >= 0 (0 searches the whole vocabulary)")


@dataclass
class BeamHypothesis:
    """One decoding prefix. Probabilities are natural-log; lm_score log10."""

    prefix: tuple[int, ...]
    p_blank: float
    p_nonblank: float
    lm_score: float = 0.0
    fused_score: float = 0.0

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


def _frame_candidates(lp: np.ndarray, blank_index: int, topk: int) -> list[int]:
    """Non-blank candidate indices, most probable first, ties by index,
    up to the first -inf entry.

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
    order = order[order != blank_index]
    dead = np.flatnonzero(lp[order] == NEG_INF)
    return order[: dead[0] if dead.shape[0] else None][: topk or None].tolist()


@dataclass
class BeamExpansion:
    """One frame's unpruned beam, as ctc_step returns it.

    Cell (i, k) extends parents[i] (rows maps its prefix to i) by token
    tokens[k] (columns maps a vocabulary id to k, or -1).  Per cell,
    mass is the natural-log mass of the parent that multiplies the
    emission (-inf where the cell extends nothing), p_nonblank that mass
    times the emission and lm_score the parent's LM score plus the LM
    increment; lm_rows[i] is the logprob_row of parents[i]'s context
    (None without an LM).  fresh marks the cells whose prefix is
    new this frame.  The beam's own prefixes, kept by blank or repeat,
    are BeamHypothesis objects in stays; an extension that lands on one
    is merged into it.  Records are created in row-major cell order,
    each stay just before its row's first cell (or, with a zero-
    probability blank, before the cell repeating its last token); when
    a stay precedes the extension merged into it, moved maps the cell's
    flat index to the stay's position (a cell at flat index f sits at
    2 * f + 1, a stay before it at 2 * f).  len() is the number of
    distinct prefixes.  extend_homophones places homophone siblings in
    cells of this grid, widened by a column per homophone that is not a
    frame candidate; of the expansion it changes only stays' p_nonblank.
    """

    parents: list[BeamHypothesis]
    rows: dict[tuple[int, ...], int]
    tokens: np.ndarray
    columns: np.ndarray
    lm_rows: list[np.ndarray] | None
    mass: np.ndarray
    p_nonblank: np.ndarray
    lm_score: np.ndarray
    fresh: np.ndarray
    stays: dict[tuple[int, ...], BeamHypothesis]
    moved: dict[int, int]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.fresh)) + len(self.stays)

    def cell(self, prefix: tuple[int, ...]) -> tuple[int, int] | None:
        """(row, column) of the extension that reaches prefix, if one does."""
        row = self.rows.get(prefix[:-1], -1) if prefix else -1
        col = int(self.columns[prefix[-1]]) if row >= 0 else -1
        return None if col < 0 or self.mass[row, col] == NEG_INF else (row, col)

    def fresh_cells(self) -> tuple[np.ndarray, ...]:
        """Row, token, non-blank mass and LM score of every fresh cell, row-major."""
        flat = np.flatnonzero(self.fresh)
        row, col = np.divmod(flat, max(self.tokens.shape[0], 1))
        return row, self.tokens[col], self.p_nonblank.ravel()[flat], self.lm_score.ravel()[flat]


def _select(exp: BeamExpansion, cells: tuple[np.ndarray, ...], vocab: Vocabulary, config: DecoderConfig):
    """The pruned beam over exp's stays and the new single-path prefixes
    in cells (parent row, appended token, non-blank mass, LM score): the
    beam_size best by fused score, best first, ties in transcript order.

    Each fused score is (acoustic + w * lm_score) + beta * length (see
    the module docstring); a cell's acoustic score is its p_nonblank, as
    its p_blank is -inf.  Only cells at or above the beam_size-th best
    fused score become BeamHypothesis objects.
    """
    lm_weight = config.alpha * LN10
    stays = list(exp.stays.values())
    for h in stays:
        h.fused_score = (h.acoustic_score() + lm_weight * h.lm_score) + config.beta * len(h.prefix)
    lengths = np.array([len(h.prefix) + 1 for h in exp.parents], dtype=np.intp)
    row, _, p_nonblank, lm_score = cells
    fused = (p_nonblank + lm_weight * lm_score) + config.beta * lengths[row]
    cells += (fused,)
    total = len(stays) + fused.shape[0]
    if total > config.beam_size:
        scores = np.concatenate((np.array([h.fused_score for h in stays]), fused))
        cut = np.partition(scores, total - config.beam_size)[total - config.beam_size]
        stays = [h for h in stays if h.fused_score >= cut]
        keep = np.flatnonzero(fused >= cut)
        cells = tuple(column[keep] for column in cells)
    beam = stays + [
        BeamHypothesis(exp.parents[i].prefix + (c,), NEG_INF, p_nb, lm_score=lm_sc, fused_score=f)
        for i, c, p_nb, lm_sc, f in zip(*(column.tolist() for column in cells))
    ]
    beam.sort(key=lambda h: (-h.fused_score, h.text(vocab)))
    return beam[: config.beam_size]


def ctc_step(
    hyps: list[BeamHypothesis],
    frame: np.ndarray,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
) -> BeamExpansion:
    """One prefix beam search step over a single emission frame.

    Blank extends p_blank of the same prefix; a repeated character
    merges into p_nonblank of the same prefix; any character extends the
    prefix with an incremental LM score.  The extensions are one
    (hypothesis x candidate) array pass with one logprob_row per
    hypothesis; a fresh extension's non-blank mass is its mass plus the
    emission, so no transcendental function is needed.  The blank and
    repeat records, and the extensions that land on a prefix already in
    the beam, take the scalar path.  hyps must hold distinct prefixes.

    Returns the unpruned BeamExpansion; extend_homophones injects
    homophones into it and prunes it, so that injected and organic
    prefixes compete in one prune.
    """
    lp = np.asarray(frame, dtype=np.float64)
    lp_blank = float(lp[vocab.blank_index])
    tokens = np.array(_frame_candidates(lp, vocab.blank_index, config.char_topk), dtype=np.intp)
    width = tokens.shape[0]
    columns = np.full(vocab.size, -1, dtype=np.intp)
    columns[tokens] = np.arange(width)
    p_all = [_logaddexp(hyp.p_blank, hyp.p_nonblank) for hyp in hyps]
    parents = [hyp for hyp, p in zip(hyps, p_all) if p != NEG_INF]
    p_tot = [p for p in p_all if p != NEG_INF]

    # each cell's mass is p_tot, or p_blank where the token repeats the prefix's last
    mass = np.repeat(np.array(p_tot, dtype=np.float64)[:, None], width, axis=1)
    last_col = [int(columns[h.prefix[-1]]) if h.prefix else -1 for h in parents]
    for i, k in enumerate(last_col):
        if k >= 0:
            mass[i, k] = parents[i].p_blank
    p_nonblank = mass + lp[tokens]
    lm_rows, inc = None, np.zeros_like(mass)
    if lm is not None and parents:
        # a context reads at most the last order - 1 tokens
        contexts = [lm.context([vocab.tokens[i] for i in h.prefix[-lm.order :]]) for h in parents]
        lm_rows = [lm.logprob_row(context) for context in contexts]
        positions = lm.row_indices(vocab.tokens)[tokens]
        inc = np.array([lm_row[positions] for lm_row in lm_rows])
    lm_score = np.array([h.lm_score for h in parents])[:, None] + inc
    exp = BeamExpansion(
        parents, {h.prefix: i for i, h in enumerate(parents)}, tokens, columns, lm_rows,
        mass, p_nonblank, lm_score, mass != NEG_INF, {}, {},
    )

    for j, hyp in enumerate(parents):
        k = last_col[j]
        repeat = k >= 0 and hyp.p_nonblank != NEG_INF
        if lp_blank == NEG_INF and not repeat:
            continue
        p_nb = hyp.p_nonblank + float(lp[tokens[k]]) if repeat else NEG_INF
        cell = exp.cell(hyp.prefix)
        if cell is not None:  # the extension of this prefix's parent lands here too
            i, c = cell
            exp.fresh[i, c] = False
            p_nb = _logaddexp(p_nb, float(p_nonblank[i, c]))
            if i > j:  # the stay is created before the cell; both carry the same LM score
                exp.moved[i * width + c] = 2 * (j * width + (0 if lp_blank != NEG_INF else k))
        exp.stays[hyp.prefix] = BeamHypothesis(hyp.prefix, p_tot[j] + lp_blank, p_nb, lm_score=hyp.lm_score)
    return exp


def _injection_table(
    c_idx: int,
    lp: np.ndarray,
    index: HomophoneIndex,
    vocab: Vocabulary,
    config: DecoderConfig,
    step: int,
) -> tuple[list[tuple[int, float]], list[HEInjection]]:
    """This frame's injections for source character c_idx.

    Returns (homophone index, log adjusted probability) per
    in-vocabulary homophone with a positive adjusted probability, and the
    matching audit records, in homophones_of order.
    """
    source = vocab.tokens[c_idx]
    entries: list[tuple[int, float]] = []
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
        entries.append((h_idx, math.log(p)))
        records.append(HEInjection(step, source, h_char, p))
    return entries, records


def extend_homophones(
    hyps: BeamExpansion,
    frame: np.ndarray,
    index: HomophoneIndex | None,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
    step: int = 0,
    audit: list[HEInjection] | None = None,
) -> list[BeamHypothesis]:
    """Inject homophone siblings into this step's expansion and prune it.

    hyps is the BeamExpansion that ctc_step built with the same lm.  For
    every prefix extended by character c this step and every homophone h
    of c present in the vocabulary, a sibling hypothesis replaces c with
    h; its non-blank mass uses the adjusted probability from
    homophone_adjusted_prob and its LM increment is recomputed for h.
    Injected and organic hypotheses then compete in one prune, which
    returns the beam_size best prefixes, best first.  With homophone
    extension off, or no index, nothing is injected and the expansion is
    pruned alone.

    The adjusted probabilities depend only on the frame and the source
    character, so each distinct source gets one injection table per
    call, shared by every cell it extends.  Sources and their audit
    records follow the order in which ctc_step created the records.
    A sibling is one more cell of the expansion's (parent x token) grid,
    widened by a column for each offered homophone that is not a frame
    candidate; such a column has no organic mass, and its LM score is
    the parent's plus that parent's logprob_row value, as ctc_step adds
    it.  Every offer is scattered into one sibling grid by max, so a
    sibling reached from several sources (or several cells of one
    parent) keeps the largest non-blank mass.  A sibling that is a
    prefix already in the beam is merged into that prefix by max and
    cleared from the grid; every other sibling, and every fresh cell,
    enters the prune with the larger of its organic and sibling mass.
    Only prefixes scoring at least the beam_size-th best fused score
    become BeamHypothesis objects.
    """
    exp = hyps  # named hyps, as before, for callers that pass it by keyword
    if not config.he_enabled or index is None:
        return _select(exp, exp.fresh_cells(), vocab, config)
    lp = np.asarray(frame)
    width = exp.tokens.shape[0]
    live = exp.mass != NEG_INF
    src = np.flatnonzero(live)  # row-major
    if exp.moved:  # cells merged into a stay created before them
        order = 2 * src + 1
        order[np.searchsorted(src, list(exp.moved))] = list(exp.moved.values())
        src = src[np.argsort(order)]
    # every live column's injection table and audit records, concatenated in column order
    size = np.zeros(width, dtype=np.intp)
    entries: list[tuple[int, float]] = []
    records: list[HEInjection] = []
    for k in np.flatnonzero(live.any(axis=0)).tolist():
        table, table_records = _injection_table(int(exp.tokens[k]), lp, index, vocab, config, step)
        size[k] = len(table)
        entries += table
        records += table_records
    first = np.cumsum(size) - size
    src = src[size[src % max(width, 1)] > 0]
    src_col = src % max(width, 1)
    if not src.shape[0]:
        return _select(exp, exp.fresh_cells(), vocab, config)
    if audit is not None:
        for start, stop in zip(first[src_col].tolist(), (first + size)[src_col].tolist()):
            audit.extend(records[start:stop])

    # every proposal as arrays: source cell src offers homophone h_id at log adjusted probability log_p
    n = size[src_col]
    entry = np.arange(n.sum()) + np.repeat(first[src_col] - (np.cumsum(n) - n), n)
    h_id = np.array([h for h, _ in entries], dtype=np.intp)[entry]
    log_p = np.array([p for _, p in entries])[entry]
    src = np.repeat(src, n)

    # widen the grid by a column per offered homophone that is no frame candidate: organic mass -inf
    extra = np.unique(h_id[exp.columns[h_id] < 0])
    columns = exp.columns.copy()
    columns[extra] = width + np.arange(extra.shape[0])
    tokens = np.concatenate((exp.tokens, extra))
    inc = np.zeros((len(exp.parents), extra.shape[0]))
    if exp.lm_rows is not None:
        positions = lm.row_indices(vocab.tokens)[extra]
        inc = np.array([lm_row[positions] for lm_row in exp.lm_rows])
    lm_score = np.hstack((exp.lm_score, np.array([h.lm_score for h in exp.parents])[:, None] + inc))
    organic = np.hstack((exp.p_nonblank, np.full(inc.shape, NEG_INF)))
    new = np.hstack((exp.fresh, np.zeros(inc.shape, dtype=bool)))

    sibling = np.full(organic.shape, NEG_INF)
    np.maximum.at(sibling, (src // width, columns[h_id]), exp.mass.ravel()[src] + log_p)
    for prefix, stay in exp.stays.items():
        i = exp.rows.get(prefix[:-1], -1) if prefix else -1
        c = int(columns[prefix[-1]]) if i >= 0 else -1
        if c >= 0:  # this sibling is a prefix in the beam already
            stay.p_nonblank = max(stay.p_nonblank, float(sibling[i, c]))
            sibling[i, c] = NEG_INF
    flat = np.flatnonzero(new | (sibling != NEG_INF))
    row, col = np.divmod(flat, tokens.shape[0])
    p_nonblank = np.maximum(organic, sibling).ravel()[flat]
    return _select(exp, (row, tokens[col], p_nonblank, lm_score.ravel()[flat]), vocab, config)


def decode(
    emissions: EmissionMatrix,
    vocab: Vocabulary,
    index: HomophoneIndex | None,
    lm: NGramModel | None,
    config: DecoderConfig,
) -> DecodeResult:
    """Run the full pipeline over all frames and return the n-best list:
    the nbest best prefixes of the final beam, in its order, with the
    fused score that ranked them.  There is no rescoring pass: each
    lm_score already equals score_sequence of its transcript.
    """
    if emissions.frames == 0:
        raise EmptyEmissions()
    audit: list[HEInjection] = []
    log_probs = emissions.log_probs

    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t in range(emissions.frames):
        row = log_probs[t]
        # each frame's expansion, LM rows included, is dropped before the next is built
        beam = extend_homophones(ctc_step(beam, row, vocab, config, lm), row, index, vocab, config, lm, t, audit)

    nbest = [NBestEntry(h.text(vocab), h.fused_score, h.acoustic_score(), h.lm_score) for h in beam[: config.nbest]]
    return DecodeResult(tuple(nbest), tuple(audit))
