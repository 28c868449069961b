"""CTC prefix beam search with n-gram shallow fusion and homophone
extension.

Every frame takes one path: ctc_step extends the beam into an unpruned
BeamExpansion, and extend_homophones injects homophone siblings into it
(none with homophone extension off) and prunes it.  The search tracks,
per collapsed prefix, the natural-log probability of ending in blank and
in non-blank.  Pruning ranks prefixes by the fused score

    logsumexp(p_blank, p_nonblank) + alpha * ln(10) * lm_score + beta * |prefix|

where lm_score is the accumulated log10 language-model score.  The LM is
read once per frame: ctc_step resolves every live parent's context into
one BackoffGrid, and the search reads from it only the columns it
scores, the frame's candidates and the homophones injected beside them.
Every prefix's lm_score is its parent's plus one value of that grid,
however the prefix was reached, so it equals score_sequence of the
prefix bit for bit and the n-best needs no second LM pass.  All
tie-breaks use transcript code-point order so repeated decodes are
bit-identical.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .emissions import EmissionMatrix, Vocabulary
from .errors import EmptyEmissions, InvalidProbability, check_types
from .lexicon import HomophoneIndex
from .ngram_lm import BackoffGrid, NGramModel

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
    an injection source whose homophones are gathered, scored and
    scattered each frame (hundreds of thousands of edges when every entry
    of a 32k-character vocabulary is a source), so this bound is what
    keeps such a vocabulary fast.  gamma weighs a homophone's own
    emission against its source's in homophone_adjusted_prob; it is
    checked here, once, as the search computes that formula as arrays
    without the function's checks.
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

    Within one read of an HEAudit, one record stands for every injection
    of injected from source at step, however many beam cells offered it;
    prob is the adjusted probability of homophone_adjusted_prob.
    """

    step: int
    source: str
    injected: str
    prob: float


class HEAudit:
    """Every homophone injection of a decode, in decode order: a log of
    HEInjection records that extend_homophones writes one frame at a time.

    A frame's entry is its injection table (per source column, the
    source's vocabulary id and its number of homophones; concatenated in
    column order, the homophones' ids, their adjusted probabilities and
    which of them were kept) and, in order, the column of every beam cell
    that injected from it.  Each such cell contributes its column's table
    in full, so the log holds one entry per injection.  It does not change
    after decode returns.  len() is O(1); iteration builds the records,
    their strings included, anew on every pass, and within one pass
    entries for the same (step, source, injected) are the same object;
    count_injected reads the ids and builds no record, so a decode whose
    audit is never iterated builds no record.  The log is no sequence: it
    is not indexed, and == and hash are those of the object.
    """

    def __init__(self) -> None:
        self._frames: list[tuple] = []  # (step, vocab, sources, counts, homophones, keep, prob, cells' columns)
        self._len = 0

    def _add_frame(self, step: int, vocab: Vocabulary, sources: np.ndarray, counts: np.ndarray,
                   homophones: np.ndarray, keep: np.ndarray, prob: np.ndarray, cells: np.ndarray,
                   entries: int) -> None:
        self._frames.append((step, vocab, sources, counts, homophones, keep, prob, cells))
        self._len += entries

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[HEInjection]:
        for step, vocab, sources, counts, homophones, keep, prob, cells in self._frames:
            tokens, bounds = vocab.tokens, np.cumsum(counts).tolist()
            entries = list(zip(homophones.tolist(), keep.tolist(), prob.tolist()))
            tables = [
                tuple(HEInjection(step, tokens[s], tokens[h], p) for h, k, p in entries[end - n : end] if k)
                for s, n, end in zip(sources.tolist(), counts.tolist(), bounds)
            ]
            for k in cells.tolist():
                yield from tables[k]

    def count_injected(self, chars) -> int:
        """The number of entries whose injected character is in chars,
        counted from each frame's homophone ids, keep flags and cells'
        columns with no record built; it equals
        sum(1 for r in self if r.injected in chars).  A homophone is one
        character, so its id is compared by its code point."""
        wanted = [ord(c) for c in set(chars) if len(c) == 1]
        total = 0
        for _, vocab, _, counts, homophones, keep, _, cells in self._frames:
            hit = keep & np.isin(vocab.code_points[homophones], wanted)
            hits = np.bincount(np.repeat(np.arange(counts.shape[0]), counts)[hit], minlength=counts.shape[0])
            total += int(np.dot(np.bincount(cells, minlength=counts.shape[0]), hits))
        return total

    def __repr__(self) -> str:
        return f"HEAudit(<{len(self)} injections>)"


@dataclass(frozen=True)
class NBestEntry:
    transcript: str
    fused_score: float
    acoustic_score: float
    lm_score: float


@dataclass(frozen=True)
class DecodeResult:
    """The n-best list and every homophone injection in decode order.

    he_injections is an HEAudit: one entry per injection, its records
    built on each iteration.  Equality and hash cover the n-best only, as
    an audit compares by identity; compare two audits with list().
    """

    nbest: tuple[NBestEntry, ...]
    he_injections: HEAudit = field(compare=False)

    @property
    def best(self) -> str:
        return self.nbest[0].transcript if self.nbest else ""


def homophone_adjusted_prob(a_p: float, q: float, n_pron: int, gamma: float) -> float:
    """Re-estimated probability for an injected homophone.

    Mixes the source character's acoustic probability a_p with the
    homophone's own emission q, discounted by how many pronunciations
    the homophone has (max(0, 1 - log10 N)), then floors the result at
    a_p so injection never scores below the original.  This is the scalar
    reference; extend_homophones computes the same operations for a whole
    frame as arrays.
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
    increment; lm_grid is the BackoffGrid of the parents' contexts, row
    i for parents[i] (None without an LM), from which the increments of
    any further column are read.  fresh marks the cells whose prefix is
    new this frame.  The beam's own prefixes, kept by blank or repeat,
    are BeamHypothesis objects in stays; an extension that lands on one
    is merged into it, and its cell stays live but not fresh.  len() is
    the number of distinct prefixes.  extend_homophones places homophone
    siblings in cells of this grid, widened by a column per homophone
    that is not a frame candidate; of the expansion it changes only
    stays' p_nonblank.
    """

    parents: list[BeamHypothesis]
    rows: dict[tuple[int, ...], int]
    tokens: np.ndarray
    columns: np.ndarray
    lm_grid: BackoffGrid | None
    mass: np.ndarray
    p_nonblank: np.ndarray
    lm_score: np.ndarray
    fresh: np.ndarray
    stays: dict[tuple[int, ...], BeamHypothesis]

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
    fused score become BeamHypothesis objects, and only hypotheses
    whose fused score another one shares build their transcripts.
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
    beam.sort(key=lambda h: -h.fused_score)
    # only exact score ties read transcripts: each run of equal scores is sorted by them, stably
    runs = [list(run) for _, run in groupby(beam, key=lambda h: h.fused_score)]
    beam = [h for run in runs for h in (sorted(run, key=lambda h: h.text(vocab)) if len(run) > 1 else run)]
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
    (hypothesis x candidate) array pass; the LM increments are one
    BackoffGrid over the hypotheses' contexts, read at the candidates'
    row positions, with no array of vocabulary length per hypothesis; a
    fresh extension's non-blank mass is its mass plus the emission, so
    no transcendental function is needed.  The blank and repeat records,
    and the extensions that land on a prefix already in the beam, take
    the scalar path.  hyps must hold distinct prefixes.

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
    lm_grid, inc = None, np.zeros_like(mass)
    if lm is not None and parents:
        # a context reads at most the last order - 1 tokens
        lm_grid = lm.backoff_grid([lm.context([vocab.tokens[i] for i in h.prefix[-lm.order :]]) for h in parents])
        inc = lm_grid.logprob(lm.row_indices(vocab.tokens)[tokens])
    lm_score = np.array([h.lm_score for h in parents])[:, None] + inc
    exp = BeamExpansion(
        parents, {h.prefix: i for i, h in enumerate(parents)}, tokens, columns, lm_grid,
        mass, p_nonblank, lm_score, mass != NEG_INF, {},
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
        exp.stays[hyp.prefix] = BeamHypothesis(hyp.prefix, p_tot[j] + lp_blank, p_nb, lm_score=hyp.lm_score)
    return exp


def extend_homophones(
    hyps: BeamExpansion,
    frame: np.ndarray,
    index: HomophoneIndex | None,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
    step: int = 0,
    audit: HEAudit | None = None,
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
    call, shared by every cell it extends.  The tables of all source
    columns are computed at once, as arrays over the sources'
    in-vocabulary homophones, which index.in_vocab_homophones gathers
    from the index's integer arrays (their ids in homophones_of order and
    their code counts N, with no homophones_of call), equal bit for bit to
    homophone_adjusted_prob of min(1, exp(lp[source])) and
    min(1, exp(lp[h])), which is never called here.  audit, if given, is
    the HEAudit that this function alone writes and orders: it receives
    the frame's tables as id arrays and the column of every source cell,
    in the order in which ctc_step creates the cells' records
    (row-major, each stay just before its row's first cell, or with a
    zero-probability blank before the cell repeating its last token; a
    cell merged into a stay is listed where the first of the two is
    created), and builds no HEInjection or string until iterated.
    A sibling is one more cell of the expansion's (parent x token) grid,
    widened by a column for each offered homophone that is not a frame
    candidate; such a column has no organic mass, and its LM score is
    the parent's plus that parent's value in the expansion's lm_grid, as
    ctc_step adds it: the extra columns are one more read of that grid,
    so the contexts are not resolved again.  Every offer is scattered
    into one sibling grid by max, so a sibling reached from several
    sources (or several cells of one parent) keeps the largest non-blank
    mass.  A sibling that is a prefix already in the beam is merged into
    that prefix by max and cleared from the grid; every other sibling,
    and every fresh cell, enters the prune with the larger of its
    organic and sibling mass.  Only prefixes scoring at least the
    beam_size-th best fused score become BeamHypothesis objects.  A
    frame with no live cell or no kept homophone leaves the sibling grid
    all -inf, so the expansion is pruned alone.
    """
    exp = hyps  # the parameter keeps the name hyps: keyword callers and the benchmark tracer read it
    if not config.he_enabled or index is None:
        return _select(exp, exp.fresh_cells(), vocab, config)
    lp = np.asarray(frame)
    width = exp.tokens.shape[0]
    live = exp.mass != NEG_INF
    cols = np.flatnonzero(live.any(axis=0))  # the source columns
    src = np.flatnonzero(live)  # row-major
    # the audit's order: the cell at flat index f is created at 2f + 1, the stay of row j at
    # 2 (j * width + k), k being 0 or, with a zero-probability blank, the column that it repeats
    created = 2 * src + 1
    for prefix in exp.stays:
        cell = exp.cell(prefix)
        if cell is not None:
            k = 0 if lp[vocab.blank_index] != NEG_INF else int(exp.columns[prefix[-1]])
            at = np.searchsorted(src, cell[0] * width + cell[1])
            created[at] = min(created[at], 2 * (exp.rows[prefix] * width + k))
    src = src[np.argsort(created)]

    # every source column's in-vocabulary homophones in homophones_of order, concatenated in column
    # order, with their polyphone discounts max(0, 1 - log10 N) (N a homophone's number of codes; one
    # discount per N up to the largest) and their adjusted probabilities; exp, log and log10 are
    # math's, as numpy's can differ in the last bit, and the rest is exact as arrays
    sources = exp.tokens[cols]
    counts, ids, n_pron = index.in_vocab_homophones(vocab, sources)
    discount = np.array([max(0.0, 1.0 - math.log10(n)) for n in range(1, n_pron.max(initial=1) + 1)])[n_pron - 1]
    a_p = np.repeat(np.minimum([math.exp(x) for x in lp[sources].tolist()], 1.0), counts)
    q = np.minimum([math.exp(x) for x in lp[ids].tolist()], 1.0)
    prob = np.maximum(a_p, (1.0 - config.gamma) * a_p + config.gamma * q * discount)
    keep = prob > 0.0
    size = np.bincount(np.repeat(cols, counts)[keep], minlength=width)  # kept homophones per column
    src = src[size[src % width] > 0]
    src_col = src % width
    n = size[src_col]
    if audit is not None:
        audit._add_frame(step, vocab, sources, counts, ids, keep, prob, np.searchsorted(cols, src_col),
                         int(n.sum()))

    # every proposal as arrays: source cell src offers homophone h_id at log adjusted probability log_p
    first = np.cumsum(size) - size
    entry = np.arange(n.sum()) + np.repeat(first[src_col] - (np.cumsum(n) - n), n)
    offered = ids[keep]  # each is offered by at least one cell, as every source column has a live cell
    h_id = offered[entry]
    log_p = np.array([math.log(x) for x in prob[keep].tolist()])[entry]
    src = np.repeat(src, n)

    # widen the grid by a column per offered homophone that is no frame candidate: organic mass -inf
    extra = np.sort(offered[exp.columns[offered] < 0])
    extra = extra[np.diff(extra, prepend=-1) != 0]  # np.unique's result without its slower hash table
    columns = exp.columns.copy()
    columns[extra] = width + np.arange(extra.shape[0])
    tokens = np.concatenate((exp.tokens, extra))
    inc = np.zeros((len(exp.parents), extra.shape[0]))
    if exp.lm_grid is not None:
        inc = exp.lm_grid.logprob(lm.row_indices(vocab.tokens)[extra])
    lm_score = np.hstack((exp.lm_score, np.array([h.lm_score for h in exp.parents])[:, None] + inc))
    organic = np.hstack((exp.p_nonblank, np.full(inc.shape, NEG_INF)))
    new = np.hstack((exp.fresh, np.zeros(inc.shape, dtype=bool)))

    # a flat index: np.maximum.at takes its fast path only for one index array
    sibling = np.full(organic.size, NEG_INF)
    np.maximum.at(sibling, src // width * tokens.shape[0] + columns[h_id], exp.mass.ravel()[src] + log_p)
    sibling = sibling.reshape(organic.shape)
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
    audit = HEAudit()
    log_probs = emissions.log_probs

    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t in range(emissions.frames):
        row = log_probs[t]
        # each frame's expansion, its BackoffGrid included, is dropped before the next is built
        beam = extend_homophones(ctc_step(beam, row, vocab, config, lm), row, index, vocab, config, lm, t, audit)

    nbest = [NBestEntry(h.text(vocab), h.fused_score, h.acoustic_score(), h.lm_score) for h in beam[: config.nbest]]
    return DecodeResult(tuple(nbest), audit)
