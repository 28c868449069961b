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

decode_many decodes a lockstep group of utterances: frame t of every
utterance with more than t frames goes through one ctc_step and one
extend_homophones, so the fixed cost of a step's array calls is paid
once per group.  Each utterance keeps its own candidates, prefixes,
prune and audit, so its result equals that of decode, which is
decode_many of one utterance; group_size bounds a group's entries.
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


# The entries that one lockstep step is sized for.  A group of several utterances shares the fixed
# cost of a step's numpy calls among them, but a step's scratch grows with the group: per utterance,
# its (parent x candidate) cells (about 10 KB per HE parent at V=51) and a few rows of V entries (its
# frame, its map from vocabulary id to candidate column and that map's widened copy).  group_size
# caps a group at this many of both, so a vocabulary larger than it never batches.  Chosen by
# measurement: groups of 4 on the ladder benchmark (V=51, beam 20) keep its peak RSS within 5% of
# one utterance per step; see CHANGES.md for the table of group size against that benchmark's wall
# time and peak RSS, and for what groups would cost and save at V=32,693.
LOCKSTEP_BUDGET = 5000


def group_size(vocab: Vocabulary, config: DecoderConfig) -> int:
    """How many utterances decode_many should step together under config:
    LOCKSTEP_BUDGET // (beam_size * width + V), and at least 1, where
    width = min(V - 1, char_topk or V) bounds a frame's candidates.  A
    production vocabulary (V = 32,693) gets groups of one under any
    config."""
    width = min(vocab.size - 1, config.char_topk or vocab.size)
    return max(1, LOCKSTEP_BUDGET // (config.beam_size * max(width, 1) + vocab.size))


@dataclass
class BeamExpansion:
    """One frame's unpruned beams, as ctc_step returns them: the beam of
    one utterance, or those of a lockstep group of utterances, each of
    which keeps its own candidates, cells, prefixes and merges.

    Row i extends parents[i], a hypothesis of the group's utterance
    utterance[i]; each utterance's rows are contiguous, utterance b's
    from row_start[b] to row_start[b + 1] - 1, and rows maps (utterance,
    prefix) to its row, as two utterances can hold one prefix.
    parent_row[i] is the row of the prefix's parent and last[i] its last
    token (-1 for either if there is none).  Utterance b's frame
    candidates, most probable first, are tokens[b * width : (b + 1) *
    width], width being the most candidates any utterance of the group
    has (a shorter list is padded with the blank), and columns[b] maps a
    vocabulary id to its column there, or -1.  Cell (i, k) extends
    parents[i] by candidate k of its utterance, so each utterance's cells
    are a block of whole rows, in the order of a step of that utterance
    alone.  Per cell, mass is the natural-log mass of the parent that
    multiplies the emission (-inf where the cell extends nothing, a
    padding cell included), p_nonblank that mass times the emission and
    lm_score the parent's LM score plus the LM increment.  lm_grid is the
    BackoffGrid of the rows' distinct contexts, in which parents[i] reads
    row lm_row[i] (both None without an LM), from which the increments of
    any further column are read.  fresh marks the cells whose prefix is
    new this frame.  The beams' own prefixes, kept by blank or repeat, are
    BeamHypothesis objects in stays, keyed by row; the extension that
    lands on row i's stay, flat cell merged[i] (-1 if none), is merged
    into it and stays live but not fresh.  len() is the number of
    distinct prefixes of all utterances.  extend_homophones places
    homophone siblings in cells of these arrays, widened by a column per
    homophone that is no frame candidate of the row's utterance; of the
    expansion it changes only stays' p_nonblank.
    """

    parents: list[BeamHypothesis]
    utterance: np.ndarray
    row_start: list[int]
    rows: dict[tuple[int, tuple[int, ...]], int]
    parent_row: np.ndarray
    last: np.ndarray
    tokens: np.ndarray
    columns: np.ndarray
    lm_grid: BackoffGrid | None
    lm_row: np.ndarray | None
    mass: np.ndarray
    p_nonblank: np.ndarray
    lm_score: np.ndarray
    fresh: np.ndarray
    stays: dict[int, BeamHypothesis]
    merged: np.ndarray

    def __len__(self) -> int:
        return int(np.count_nonzero(self.fresh)) + len(self.stays)

    def cell(self, prefix: tuple[int, ...], utterance: int = 0) -> tuple[int, int] | None:
        """(row, column) of the extension that reaches prefix in the
        group's utterance, if one does."""
        row = self.rows.get((utterance, prefix[:-1]), -1) if prefix else -1
        col = int(self.columns[utterance, prefix[-1]]) if row >= 0 else -1
        return None if col < 0 or self.mass[row, col] == NEG_INF else (row, col)

    def fresh_cells(self) -> tuple[np.ndarray, ...]:
        """Row, column, non-blank mass and LM score of every fresh cell, row-major."""
        flat = np.flatnonzero(self.fresh)
        row, col = np.divmod(flat, max(self.mass.shape[1], 1))
        return row, col, self.p_nonblank.ravel()[flat], self.lm_score.ravel()[flat]


@dataclass(frozen=True)
class LockstepBeams:
    """The pruned beams of a lockstep group, one per utterance in group
    order, as extend_homophones returns them for a group's frame.  len()
    counts their hypotheses, as len() of one utterance's beam does."""

    beams: tuple[list[BeamHypothesis], ...]

    def __len__(self) -> int:
        return sum(map(len, self.beams))


def _read(grid: BackoffGrid, positions: np.ndarray, lm_row: np.ndarray, utterance: np.ndarray) -> np.ndarray:
    """The (rows x columns) LM increments of a group: positions holds one
    row of row positions per utterance, and row i reads its utterance's
    row in the grid row lm_row[i].  The grid is read once, at the union
    of the positions (BackoffGrid.logprob is elementwise, so every value
    is the one a read of that row alone gives)."""
    if positions.shape[0] == 1:  # one utterance, as in decode: the union and gather cost decode_32k 6-10%
        values = grid.logprob(positions[0])
        return values if values.shape[0] == lm_row.shape[0] else values[lm_row]  # distinct contexts: the identity
    union = np.sort(positions, axis=None)
    union = union[np.diff(union, prepend=-1) != 0]  # np.unique's result without its slower hash table
    return grid.logprob(union)[lm_row[:, None], np.searchsorted(union, positions)[utterance]]


def _each(fn, values: np.ndarray) -> np.ndarray:
    """fn (a scalar math function) of every value, as a float64 array."""
    return np.fromiter(map(fn, values.tolist()), np.float64, values.shape[0])


def _select(exp: BeamExpansion, cells: tuple[np.ndarray, ...], tokens: np.ndarray, vocab: Vocabulary,
            config: DecoderConfig) -> list[list[BeamHypothesis]]:
    """Each utterance's pruned beam over its stays in exp and its new
    single-path prefixes in cells (parent row, column, non-blank mass, LM
    score; row-major), a cell appending the token tokens[b, column] to a
    parent of utterance b: the beam_size best by fused score, best first,
    ties in transcript order.

    Each fused score is (acoustic + w * lm_score) + beta * length (see
    the module docstring); a cell's acoustic score is its p_nonblank, as
    its p_blank is -inf.  The scores of all utterances are one array
    pass; the cut and the order are per utterance.  Only cells at or
    above their utterance's beam_size-th best fused score become
    BeamHypothesis objects, and only hypotheses whose fused score another
    one of the same utterance shares build their transcripts.
    """
    lm_weight = config.alpha * LN10
    groups = len(exp.row_start) - 1
    stays: list[list[BeamHypothesis]] = [[] for _ in range(groups)]
    utterance = exp.utterance.tolist()
    for i, h in exp.stays.items():
        h.fused_score = (h.acoustic_score() + lm_weight * h.lm_score) + config.beta * len(h.prefix)
        stays[utterance[i]].append(h)
    lengths = np.array([len(h.prefix) + 1 for h in exp.parents], dtype=np.intp)
    row, col, p_nonblank, lm_score = cells
    fused = (p_nonblank + lm_weight * lm_score) + config.beta * lengths[row]
    cuts = np.searchsorted(row, exp.row_start).tolist()  # each utterance's cells are one run
    cut = [NEG_INF] * groups
    for b, own in enumerate(stays):
        total = len(own) + cuts[b + 1] - cuts[b]
        if total > config.beam_size:
            scores = np.concatenate((np.array([h.fused_score for h in own]), fused[cuts[b] : cuts[b + 1]]))
            cut[b] = np.partition(scores, total - config.beam_size)[total - config.beam_size]
            stays[b] = [h for h in own if h.fused_score >= cut[b]]
    keep = np.flatnonzero(fused >= np.array(cut)[exp.utterance][row])
    kept = np.searchsorted(keep, cuts).tolist()
    row = row[keep]
    token = tokens[exp.utterance[row], col[keep]]
    new = [
        BeamHypothesis(exp.parents[i].prefix + (c,), NEG_INF, p_nb, lm_score=lm_sc, fused_score=f)
        for i, c, p_nb, lm_sc, f in zip(*(column.tolist() for column in (row, token, p_nonblank[keep], lm_score[keep],
                                                                            fused[keep])))
    ]
    beams = []
    for b, own in enumerate(stays):
        beam = own + new[kept[b] : kept[b + 1]]
        beam.sort(key=lambda h: -h.fused_score)
        # only exact score ties read transcripts: each run of equal scores is sorted by them, stably
        runs = [list(run) for _, run in groupby(beam, key=lambda h: h.fused_score)]
        beam = [h for run in runs for h in (sorted(run, key=lambda h: h.text(vocab)) if len(run) > 1 else run)]
        beams.append(beam[: config.beam_size])
    return beams


def ctc_step(
    hyps: list[BeamHypothesis] | list[list[BeamHypothesis]],
    frame: np.ndarray,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
) -> BeamExpansion:
    """One prefix beam search step over a single emission frame, or over
    one frame of each utterance of a lockstep group.

    Blank extends p_blank of the same prefix; a repeated character
    merges into p_nonblank of the same prefix; any character extends the
    prefix with an incremental LM score.  The extensions are one
    (hypothesis x candidate) array pass; the LM increments are one
    BackoffGrid over the hypotheses' distinct contexts, read at the
    candidates' row positions, with no array of vocabulary length per
    hypothesis; a fresh extension's non-blank mass is its mass plus the
    emission, so no transcendental function is needed.  The blank and
    repeat records, and the extensions that land on a prefix already in
    the beam, take the scalar path.  hyps must hold distinct prefixes.

    A group's step takes one beam per utterance as hyps and one frame per
    utterance as the rows of a 2-D frame.  Each utterance keeps its own
    candidates on its own rows, so every value of its cells is that of a
    step of the utterance alone; the cells of all utterances are one
    array pass, and one grid holds the contexts of all of them.

    Returns the unpruned BeamExpansion; extend_homophones injects
    homophones into it and prunes it, so that injected and organic
    prefixes compete in one prune.
    """
    # a float32 frame is read as it is: widening is exact, so every float64 sum with one of its
    # values, and every comparison of them, is the same
    lp = np.atleast_2d(np.asarray(frame))
    beams = [hyps] if np.ndim(frame) == 1 else hyps
    candidates = [np.array(_frame_candidates(row, vocab.blank_index, config.char_topk), dtype=np.intp) for row in lp]
    widths = [own.shape[0] for own in candidates]
    width = max(widths)
    tokens = np.full((len(beams), width), vocab.blank_index, dtype=np.intp)
    columns = np.full((len(beams), vocab.size), -1, dtype=np.int32)  # int32 halves the step's widest array
    for b, own in enumerate(candidates):
        tokens[b, : widths[b]] = own
        columns[b][own] = np.arange(widths[b])
    emission = lp[np.arange(len(beams))[:, None], tokens]
    parents, utterance, p_tot, row_start = [], [], [], [0]
    for b, beam in enumerate(beams):
        for hyp in beam:
            p = _logaddexp(hyp.p_blank, hyp.p_nonblank)
            if p != NEG_INF:
                parents.append(hyp)
                utterance.append(b)
                p_tot.append(p)
        row_start.append(len(parents))
    rows = {(b, h.prefix): i for i, (b, h) in enumerate(zip(utterance, parents))}
    parent_row = [rows.get((b, h.prefix[:-1]), -1) if h.prefix else -1 for b, h in zip(utterance, parents)]
    last = np.array([h.prefix[-1] if h.prefix else -1 for h in parents], dtype=np.intp)
    utterance = np.array(utterance, dtype=np.intp)

    # each cell's mass is p_tot, or p_blank where the token repeats the prefix's last; a padding cell's is -inf
    mass = np.repeat(np.array(p_tot, dtype=np.float64)[:, None], width, axis=1)
    if min(widths) < width:
        mass[np.arange(width) >= np.array(widths)[utterance][:, None]] = NEG_INF
    last_col = np.where(last >= 0, columns[utterance, last], -1)
    repeat = np.flatnonzero(last_col >= 0)
    mass[repeat, last_col[repeat]] = [parents[i].p_blank for i in repeat.tolist()]
    p_nonblank = mass + emission[utterance]
    lm_grid = lm_row = None
    inc = np.zeros_like(mass)
    if lm is not None and parents:
        # one grid row per distinct context, which reads at most the last order - 1 tokens
        span = lm.order - 1
        histories: dict[tuple[int, ...], int] = {}
        lm_row = np.array([histories.setdefault(h.prefix[-span:] if span else (), len(histories)) for h in parents],
                          dtype=np.intp)
        lm_grid = lm.backoff_grid([lm.context([vocab.tokens[i] for i in history]) for history in histories])
        inc = _read(lm_grid, lm.row_indices(vocab.tokens)[tokens], lm_row, utterance)
    lm_score = np.array([h.lm_score for h in parents], dtype=np.float64)[:, None] + inc

    stays, merged = {}, np.full(len(parents), -1, dtype=np.intp)
    lp_blank = lp[:, vocab.blank_index].tolist()
    for i, (b, up, k, hyp) in enumerate(zip(utterance.tolist(), parent_row, last_col.tolist(), parents)):
        repeat = k >= 0 and hyp.p_nonblank != NEG_INF
        if lp_blank[b] == NEG_INF and not repeat:
            continue
        p_nb = hyp.p_nonblank + float(lp[b, hyp.prefix[-1]]) if repeat else NEG_INF
        if up >= 0 and k >= 0 and mass[up, k] != NEG_INF:  # the extension of this prefix's parent lands here too
            p_nb = _logaddexp(p_nb, float(p_nonblank[up, k]))
            merged[i] = up * width + k
        stays[i] = BeamHypothesis(hyp.prefix, p_tot[i] + lp_blank[b], p_nb, lm_score=hyp.lm_score)
    fresh = mass != NEG_INF
    fresh.ravel()[merged[merged >= 0]] = False
    return BeamExpansion(
        parents, utterance, row_start, rows, np.array(parent_row, dtype=np.intp), last, tokens.ravel(), columns,
        lm_grid, lm_row, mass, p_nonblank, lm_score, fresh, stays, merged,
    )


def extend_homophones(
    hyps: BeamExpansion,
    frame: np.ndarray,
    index: HomophoneIndex | None,
    vocab: Vocabulary,
    config: DecoderConfig,
    lm: NGramModel | None = None,
    step: int = 0,
    audit: HEAudit | None | list[HEAudit | None] = None,
) -> list[BeamHypothesis] | LockstepBeams:
    """Inject homophone siblings into this step's expansion and prune it.

    hyps is the BeamExpansion that ctc_step built with the same frame
    and lm.  For every prefix extended by character c this step and every
    homophone h of c present in the vocabulary, a sibling hypothesis
    replaces c with h; its non-blank mass uses the adjusted probability
    from homophone_adjusted_prob and its LM increment is recomputed for
    h.  Injected and organic hypotheses then compete in one prune, which
    returns the beam_size best prefixes, best first.  With homophone
    extension off, or no index, nothing is injected and the expansion is
    pruned alone.  A group's step (a 2-D frame) takes as audit one
    HEAudit or None per utterance and returns LockstepBeams, one beam per
    utterance, each pruned on its own; nothing merges across utterances.

    The adjusted probabilities depend only on the frame and the source
    character, so each distinct source of an utterance gets one injection
    table per call, shared by every cell it extends.  The tables of all
    source columns of the group are computed at once, as arrays over the
    sources' in-vocabulary homophones, which one call of
    index.in_vocab_homophones gathers from the index's integer arrays
    (their ids in homophones_of order and their code counts N, with no
    homophones_of call), equal bit for bit to homophone_adjusted_prob of
    min(1, exp(lp[source])) and min(1, exp(lp[h])), which is never called
    here.  An utterance's audit, if given, is the HEAudit that this
    function alone writes and orders: it receives the utterance's tables
    as id arrays and the column of every source cell, in the order in
    which ctc_step creates the cells' records (row-major, each stay just
    before its row's first cell, or with a zero-probability blank before
    the cell repeating its last token; a cell merged into a stay is
    listed where the first of the two is created), and builds no
    HEInjection or string until iterated.  A sibling is one more cell of
    the expansion's arrays, widened by a column for each offered
    homophone that is no frame candidate of the row's utterance; such a
    column has no organic mass, and its LM score is the parent's plus
    that parent's value in the expansion's lm_grid, as ctc_step adds it:
    the extra columns are one more read of that grid, so the contexts
    are not resolved again.  Every offer is scattered into one sibling
    array by max, so a sibling reached from several sources (or several
    cells of one parent) keeps the largest non-blank mass.  A sibling
    that is a prefix already in its beam is merged into that prefix by
    max and cleared; every other sibling, and every fresh cell, enters
    the prune with the larger of its organic and sibling mass.  Only
    prefixes scoring at least their utterance's beam_size-th best fused
    score become BeamHypothesis objects.  A frame with no live cell or no
    kept homophone leaves every sibling -inf, so the expansion is pruned
    alone.
    """
    exp = hyps  # the parameter keeps the name hyps: keyword callers and the benchmark tracer read it
    single = np.ndim(frame) == 1
    if not config.he_enabled or index is None:
        beams = _select(exp, exp.fresh_cells(), exp.tokens.reshape(len(exp.row_start) - 1, -1), vocab, config)
    else:
        lp = np.atleast_2d(np.asarray(frame))
        audits = [audit] if single else audit or [None] * lp.shape[0]
        beams = _select(exp, *_inject(exp, lp, index, vocab, lm, config.gamma, step, audits), vocab, config)
    return beams[0] if single else LockstepBeams(tuple(beams))


def _inject(exp: BeamExpansion, lp: np.ndarray, index: HomophoneIndex, vocab: Vocabulary, lm: NGramModel | None,
            gamma: float, step: int, audits: list[HEAudit | None]) -> tuple[np.ndarray, ...]:
    """The cells that enter extend_homophones' prune, homophone siblings
    included, row-major in the widened arrays (parent row, column,
    non-blank mass and LM score), and each utterance's tokens of those
    columns."""
    groups, width = lp.shape[0], max(exp.mass.shape[1], 1)
    src = np.flatnonzero(exp.mass != NEG_INF)  # the live cells, row-major
    src_slot = exp.utterance[src // width] * width + src % width  # each one's candidate in exp.tokens
    is_source = np.zeros(exp.tokens.shape[0], dtype=bool)
    is_source[src_slot] = True
    slots = np.flatnonzero(is_source)  # every utterance's source columns, in group order
    # the audit's order: the cell at flat index f is created at 2f + 1, the stay of row i at
    # 2 (i * width + k), k being 0 or, with a zero-probability blank, the column that it repeats;
    # each utterance's times lie below the next utterance's
    created = 2 * src + 1
    stay = np.flatnonzero(exp.merged >= 0)
    cell = exp.merged[stay]
    k = np.where((lp[:, vocab.blank_index] == NEG_INF)[exp.utterance[stay]], cell % width, 0)
    at = np.searchsorted(src, cell)
    created[at] = np.minimum(created[at], 2 * (stay * width + k))

    # every source column's in-vocabulary homophones in homophones_of order, concatenated in column
    # order, with their polyphone discounts max(0, 1 - log10 N) (N a homophone's number of codes; one
    # discount per N up to the largest) and their adjusted probabilities; exp, log and log10 are
    # math's, as numpy's can differ in the last bit, and the rest is exact as arrays
    sources = exp.tokens[slots]
    source_utterance = slots // width
    counts, ids, n_pron = index.in_vocab_homophones(vocab, sources)
    homophone_utterance = np.repeat(source_utterance, counts)
    discount = np.array([max(0.0, 1.0 - math.log10(n)) for n in range(1, n_pron.max(initial=1) + 1)])[n_pron - 1]
    a_p = np.repeat(np.minimum(_each(math.exp, lp[source_utterance, sources]), 1.0), counts)
    q = np.minimum(_each(math.exp, lp[homophone_utterance, ids]), 1.0)
    prob = np.maximum(a_p, (1.0 - gamma) * a_p + gamma * q * discount)
    keep = prob > 0.0
    size = np.bincount(np.repeat(slots, counts)[keep], minlength=exp.tokens.shape[0])  # kept homophones per column
    offers = size[src_slot] > 0
    src, src_slot, created = src[offers], src_slot[offers], created[offers]
    src_cuts = np.searchsorted(src, np.array(exp.row_start) * width).tolist()
    order = np.argsort(created, kind="stable")
    src, src_slot = src[order], src_slot[order]
    n = size[src_slot]
    if any(audit is not None for audit in audits):
        # utterance b's source columns are slots[s[b]:s[b + 1]], their homophones ids[h[b]:h[b + 1]] and
        # its offering cells src[e[b]:e[b + 1]]
        s = np.searchsorted(slots, np.arange(groups + 1) * width)
        h = np.concatenate(([0], np.cumsum(counts)))[s].tolist()
        s, e = s.tolist(), src_cuts
        column = np.searchsorted(slots, src_slot)
        for b, audit in enumerate(audits):
            if audit is not None:
                audit._add_frame(step, vocab, sources[s[b] : s[b + 1]], counts[s[b] : s[b + 1]], ids[h[b] : h[b + 1]],
                                 keep[h[b] : h[b + 1]], prob[h[b] : h[b + 1]], column[e[b] : e[b + 1]] - s[b],
                                 int(n[e[b] : e[b + 1]].sum()))

    # each kept homophone: offered by at least one cell, as every source column has a live cell
    offered = ids[keep]
    log_p = _each(math.log, prob[keep])

    # widen the arrays by a column per offered homophone that is none of its utterance's candidates,
    # with organic mass -inf; utterances with fewer such columns are padded with the blank
    offered_at = homophone_utterance[keep] * vocab.size + offered  # its entry in the flat columns
    key = np.sort(offered_at[exp.columns.ravel()[offered_at] < 0])
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique's result without its slower hash table
    extra_utterance, extra = np.divmod(key, vocab.size)
    rank = np.arange(extra.shape[0]) - np.searchsorted(extra_utterance, extra_utterance)
    extras = np.full((groups, rank.max(initial=-1) + 1), vocab.blank_index, dtype=np.intp)
    extras[extra_utterance, rank] = extra
    columns = exp.columns.copy()
    columns.ravel()[key] = exp.mass.shape[1] + rank
    inc = np.zeros((len(exp.parents), extras.shape[1]))
    if exp.lm_grid is not None:
        inc = _read(exp.lm_grid, lm.row_indices(vocab.tokens)[extras], exp.lm_row, exp.utterance)
    lm_score = np.hstack((exp.lm_score, np.array([h.lm_score for h in exp.parents], dtype=np.float64)[:, None] + inc))
    organic = np.hstack((exp.p_nonblank, np.full(inc.shape, NEG_INF)))
    new = np.hstack((exp.fresh, np.zeros(inc.shape, dtype=bool)))
    wide = organic.shape[1]

    # every offer as arrays: source cell src, repeated n times, offers kept homophone entry at its
    # cell's mass plus log_p[entry]; a flat index, as np.maximum.at takes its fast path only for one
    # index array
    first = np.cumsum(size) - size
    entry = np.repeat(first[src_slot] - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
    target = columns.ravel()[offered_at][entry] + np.repeat(src // width * wide, n)
    sibling = np.full(organic.size, NEG_INF)
    np.maximum.at(sibling, target, log_p[entry] + np.repeat(exp.mass.ravel()[src], n))
    sibling = sibling.reshape(organic.shape)
    # a sibling that is a prefix in its beam already is merged into it
    stay = np.fromiter(exp.stays, dtype=np.intp, count=len(exp.stays))
    up = exp.parent_row[stay]
    col = np.where(up >= 0, columns[exp.utterance[stay], exp.last[stay]], -1)
    stay, up, col = stay[col >= 0], up[col >= 0], col[col >= 0]
    found = sibling[up, col]
    for i, value in zip(stay[found != NEG_INF].tolist(), found[found != NEG_INF].tolist()):
        exp.stays[i].p_nonblank = max(exp.stays[i].p_nonblank, value)
    sibling[up, col] = NEG_INF
    flat = np.flatnonzero(new | (sibling != NEG_INF))
    cells = (*np.divmod(flat, wide), np.maximum(organic, sibling).ravel()[flat], lm_score.ravel()[flat])
    return cells, np.hstack((exp.tokens.reshape(groups, -1), extras))


def decode_many(
    emissions: list[EmissionMatrix],
    vocab: Vocabulary,
    index: HomophoneIndex | None,
    lm: NGramModel | None,
    config: DecoderConfig,
) -> list[DecodeResult]:
    """Decode the utterances as one lockstep group and return one
    DecodeResult each, in order, every one equal, its audit included, to
    the decode of its utterance alone.

    Frame t of every utterance with more than t frames goes through one
    ctc_step and one extend_homophones, so the fixed cost of a step's
    array calls is paid once per group; each utterance keeps its own
    candidates, beam, prune and audit.  A step holds every utterance's
    cells and rows of V entries at once, so its memory grows with the
    group: group_size gives
    the group that LOCKSTEP_BUDGET allows.  Raises EmptyEmissions if any
    matrix has zero frames.
    """
    if any(matrix.frames == 0 for matrix in emissions):
        raise EmptyEmissions()
    audits = [HEAudit() for _ in emissions]
    beams = [[BeamHypothesis((), 0.0, NEG_INF)] for _ in emissions]
    for t in range(max((matrix.frames for matrix in emissions), default=0)):
        group = [b for b, matrix in enumerate(emissions) if matrix.frames > t]
        rows = np.array([emissions[b].log_probs[t] for b in group])
        # each frame's expansion, its BackoffGrid included, is dropped before the next is built
        stepped = extend_homophones(ctc_step([beams[b] for b in group], rows, vocab, config, lm), rows, index, vocab,
                                    config, lm, t, [audits[b] for b in group])
        for b, beam in zip(group, stepped.beams):
            beams[b] = beam
    return [
        DecodeResult(
            tuple(NBestEntry(h.text(vocab), h.fused_score, h.acoustic_score(), h.lm_score) for h in beam[: config.nbest]),
            audit,
        )
        for beam, audit in zip(beams, audits)
    ]


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
    lm_score already equals score_sequence of its transcript.  This is
    decode_many of one utterance.
    """
    return decode_many([emissions], vocab, index, lm, config)[0]
