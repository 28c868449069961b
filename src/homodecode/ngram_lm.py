"""ARPA-format back-off n-gram language model.

Scores are log10, matching the ARPA interchange format; the decoder
converts to natural log (multiply by ln 10) when fusing with acoustic
scores.

Two query paths give equal numbers.  conditional_logprob walks the
back-off recursion over the probs/backoffs dicts for one token; it
serves score_sequence and score_increment.  backoff_grid, which the
decoder calls once per frame, resolves a batch of contexts into a
BackoffGrid, which scores them at any list of row positions (each
unigram and <unk> has one) as one matrix, with no array of vocabulary
length per context.  The arrays it needs (unigram scores, and every
stored higher-order n-gram as a sorted (context slot, row position) key
with its score) are built on the first query and cached on the model,
so loading stays a plain parse, as are the row positions of the last
vocabulary that row_indices mapped.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedLine, open_text, parse_count

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"

# Log10 probability of an unknown unigram when the model carries no <unk>
# entry; -99 is the conventional ARPA "zero probability" sentinel.
UNK_FALLBACK_LOG10 = -99.0

_NGRAM_DECL_RE = re.compile(r"^ngram\s+(\d+)\s*=\s*(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


@dataclass(frozen=True)
class _RowView:
    """Dense form of a model for backoff_grid.

    Row positions are the unigrams in code-point order, then <unk> if it
    is not a unigram; a token's position is found by bisection, so no
    per-token map is kept.  Every stored n-gram above the unigrams whose
    last token has a row position is one key, slot * len(unigram) + that
    position, in ascending order, with its score at the same index of
    logp, so a slot's successors are one run of keys; a one-token context
    whose token has a row position uses that position as its slot, every
    other context has one in long_slots.
    """

    tokens: list[str]
    unk: str
    unk_position: int
    unigram: np.ndarray
    long_slots: dict[tuple[str, ...], int]
    keys: np.ndarray
    logp: np.ndarray

    def position(self, token: str) -> int | None:
        i = bisect_left(self.tokens, token)
        if i < len(self.tokens) and self.tokens[i] == token:
            return i
        return self.unk_position if token == self.unk else None

    def slot(self, context: tuple[str, ...]) -> int | None:
        if len(context) == 1:
            slot = self.position(context[0])
            if slot is not None:
                return slot
        return self.long_slots.get(context)


@dataclass(frozen=True)
class BackoffGrid:
    """A batch of contexts with their back-off state resolved, from which
    logprob reads log10 P(t | contexts[i]) at any row positions.

    acc[i] is the sum of the back-off weights of every suffix of
    contexts[i], longest first, as conditional_logprob adds them.  The
    stored successors of the contexts' suffixes that score a token are
    listed once per (context, row position) as rows, positions and
    values, sorted: each value is the back-off sum added before the
    longest suffix that stores that successor, plus its log-probability.
    """

    unigram: np.ndarray
    acc: np.ndarray
    rows: np.ndarray
    positions: np.ndarray
    values: np.ndarray

    def logprob(self, positions: np.ndarray) -> np.ndarray:
        """The (contexts x positions) matrix of log10 scores, as a new
        array; positions may repeat and may be empty.

        Each element equals conditional_logprob(context, token) exactly:
        the back-off weights are summed in the same order and each score
        is one addition of that sum and a stored log-probability.  Only
        the stored successors are searched for among positions, so a
        read costs no search per element.
        """
        positions = np.asarray(positions, dtype=np.intp)
        grid = self.acc[:, None] + self.unigram[positions]
        order = np.argsort(positions, kind="stable")
        ordered = positions[order]
        first = np.searchsorted(ordered, self.positions, "left")
        found = np.searchsorted(ordered, self.positions, "right") - first  # columns per stored successor
        entry = np.repeat(np.arange(found.shape[0]), found)
        columns = order[np.arange(entry.shape[0]) + np.repeat(first - (np.cumsum(found) - found), found)]
        grid[self.rows[entry], columns] = self.values[entry]
        return grid


@dataclass
class NGramModel:
    """Back-off model: probs/backoffs keyed by token tuples of any order."""

    order: int
    probs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    start: str = SENTENCE_START
    end: str = SENTENCE_END
    unk: str = UNKNOWN
    _rows: _RowView | None = field(default=None, init=False, repr=False, compare=False)
    _row_indices: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def normalize_token(self, token: str) -> str:
        """Map tokens absent from the unigram table to the unknown symbol."""
        return token if (token,) in self.probs else self.unk

    def context(self, history: list[str]) -> tuple[str, ...]:
        """The context that scores the token following history: a
        sentence-start symbol, then history's tokens mapped by
        normalize_token, truncated to the last order-1."""
        span = self.order - 1
        if span <= 0:
            return ()
        effective = [self.start] + [self.normalize_token(t) for t in history[-span:]]
        return tuple(effective[-span:])

    def conditional_logprob(self, context: tuple[str, ...], token: str) -> float:
        """log10 P(token | context) with standard back-off recursion.

        Context must already be truncated to at most order-1 tokens.
        Missing backoff weights count as 0.0 (weight 1), per ARPA
        convention.
        """
        acc = 0.0
        ctx = context
        while True:
            prob = self.probs.get(ctx + (token,))
            if prob is not None:
                return acc + prob
            if not ctx:
                return acc + UNK_FALLBACK_LOG10
            acc += self.backoffs.get(ctx, 0.0)
            ctx = ctx[1:]

    def row_indices(self, tokens: tuple[str, ...]) -> np.ndarray:
        """Row position of normalize_token(token) for every token, as a
        read-only array; the array for the last tokens asked for is kept,
        so a decode maps its vocabulary once."""
        cached = self._row_indices
        if cached is None or (cached[0] is not tokens and cached[0] != tokens):
            view = self._rows or self._build_rows()
            found = (view.position(token) for token in tokens)
            positions = np.array([view.unk_position if p is None else p for p in found], dtype=np.intp)
            positions.flags.writeable = False
            cached = self._row_indices = (tokens, positions)
        return cached[1]

    def backoff_grid(self, contexts: list[tuple[str, ...]]) -> BackoffGrid:
        """Resolve every context once: its back-off sum, and the stored
        successors of its suffixes, which one pair of searches over the
        sorted keys finds for all suffixes at once (see BackoffGrid)."""
        view = self._rows or self._build_rows()
        size = view.unigram.shape[0]
        acc = []
        rows, bases, sums = [], [], []  # per suffix with a slot: its context's row, its key base, the sum before it
        for i, context in enumerate(contexts):
            total = 0.0
            ctx = context
            while ctx:
                slot = view.slot(ctx)
                if slot is not None:
                    rows.append(i)
                    bases.append(slot * size)
                    sums.append(total)
                total += self.backoffs.get(ctx, 0.0)
                ctx = ctx[1:]
            acc.append(total)
        bases = np.array(bases, dtype=np.int64)
        lo = np.searchsorted(view.keys, bases)
        n = np.searchsorted(view.keys, bases + size) - lo  # stored successors per suffix
        at = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
        cell = np.repeat(np.array(rows, dtype=np.int64) * size - bases, n) + view.keys[at]
        value = np.repeat(np.array(sums, dtype=np.float64), n) + view.logp[at]
        # each context's suffixes come longest first, so the first of a cell is the one that scores it
        cells, first = np.unique(cell, return_index=True)
        return BackoffGrid(view.unigram, np.array(acc, dtype=np.float64), cells // size, cells % size, value[first])

    def _build_rows(self) -> _RowView:
        tokens = sorted(gram[0] for gram in self.probs if len(gram) == 1)
        unigram = [self.probs[(token,)] for token in tokens]
        positions = {token: i for i, token in enumerate(tokens)}  # only while building
        if self.unk not in positions:
            positions[self.unk] = len(unigram)
            unigram.append(UNK_FALLBACK_LOG10)
        long_slots: dict[tuple[str, ...], int] = {}
        slots: list[int] = []
        succ: list[int] = []
        succ_logp: list[float] = []
        for gram, logp in self.probs.items():
            position = positions.get(gram[-1])
            if len(gram) == 1 or position is None:
                continue  # unigrams fill the base row; other tokens have no row position
            context = gram[:-1]
            slot = positions.get(context[0]) if len(context) == 1 else None
            if slot is None:
                slot = long_slots.setdefault(context, len(positions) + len(long_slots))
            slots.append(slot)
            succ.append(position)
            succ_logp.append(logp)
        keys = np.array(slots, dtype=np.int64) * len(unigram) + np.array(succ, dtype=np.int64)
        order = np.argsort(keys)
        view = _RowView(
            tokens=tokens,
            unk=self.unk,
            unk_position=positions[self.unk],
            unigram=np.array(unigram, dtype=np.float64),
            long_slots=long_slots,
            keys=keys[order],
            logp=np.array(succ_logp, dtype=np.float64)[order],
        )
        self._rows = view
        return view


def load_arpa(path: str) -> NGramModel:
    """Parse an ARPA text file into an NGramModel.

    Each \\N-grams: line is "<logp> <tok1> ... <tokN> [<backoff>]" with
    whitespace separators; entry counts must match the \\data\\
    declarations and every number must be finite.
    """
    declared: dict[int, int] = {}
    found: dict[int, int] = {}
    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    section = None  # None -> preamble, 0 -> \data\, n -> \n-grams:, -1 -> after \end\
    saw_data = False
    saw_end = False
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "\\data\\":
                section = 0
                saw_data = True
                continue
            if line == "\\end\\":
                saw_end = True
                section = -1
                continue
            m = _SECTION_RE.match(line)
            if m:
                section = parse_count(m.group(1), line_no, f"bad section header {line!r}", path)
                found.setdefault(section, 0)
                continue
            if section == 0:
                m = _NGRAM_DECL_RE.match(line)
                bad = f"bad \\data\\ entry {line!r}"
                if not m:
                    raise MalformedLine(line_no, bad, path)
                order_n, count = (parse_count(number, line_no, bad, path) for number in m.groups())
                declared[order_n] = count
                continue
            if section is None or section < 0:
                continue
            n = section
            fields = line.split()
            if len(fields) == n + 1:
                has_backoff = False
            elif len(fields) == n + 2:
                has_backoff = True
            else:
                raise MalformedLine(line_no, f"expected {n}-gram entry, got {line!r}", path)
            try:
                logp = float(fields[0])
                bo = float(fields[-1]) if has_backoff else 0.0
            except ValueError as exc:
                raise MalformedLine(line_no, f"bad numeric field in {line!r}", path) from exc
            if not (math.isfinite(logp) and math.isfinite(bo)):
                raise MalformedLine(line_no, f"non-finite number in {line!r}", path)
            ngram = tuple(fields[1 : n + 1])
            probs[ngram] = logp
            if has_backoff and bo != 0.0:
                backoffs[ngram] = bo
            found[n] = found.get(n, 0) + 1
    if not saw_data:
        raise MalformedLine(0, "missing \\data\\ section", path)
    if not saw_end:
        raise MalformedLine(0, "missing \\end\\ section", path)
    for order_n, count in declared.items():
        if count > 0 and order_n not in found:
            raise MalformedLine(0, f"missing \\{order_n}-grams: section", path)
        if found.get(order_n, 0) != count:
            message = f"\\{order_n}-grams: declared {count} entries, found {found.get(order_n, 0)}"
            raise MalformedLine(0, message, path)
    for order_n, count in found.items():
        if order_n not in declared and count > 0:
            raise MalformedLine(0, f"\\{order_n}-grams: declared 0 entries, found {count}", path)
    orders = [n for n, c in declared.items() if c > 0]
    order = max(orders) if orders else 1
    return NGramModel(order=order, probs=probs, backoffs=backoffs)


def score_sequence(model: NGramModel, tokens: list[str]) -> float:
    """Sum of back-off conditional log10 probabilities over the sequence.

    A sentence-start context is prepended; the start symbol itself is
    not scored.  Unknown tokens back off to the unknown-symbol unigram.
    """
    total = 0.0
    for i, token in enumerate(tokens):
        total += model.conditional_logprob(model.context(tokens[:i]), model.normalize_token(token))
    return total


def score_increment(model: NGramModel, context: list[str], next_token: str) -> float:
    """log10 P(next | context), consulting only the last order-1 tokens.

    Equals score_sequence(context + [next]) - score_sequence(context).
    """
    return model.conditional_logprob(model.context(context), model.normalize_token(next_token))
