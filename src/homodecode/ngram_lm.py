"""ARPA-format back-off n-gram language model.

Scores are log10, matching the ARPA interchange format; the decoder
converts to natural log (multiply by ln 10) when fusing with acoustic
scores.

Two query paths give equal numbers.  conditional_logprob walks the
back-off recursion over the probs/backoffs dicts for one token; it
serves sequence scoring and rescoring.  logprob_row scores every token
at once for one context: each unigram and <unk> has a row position, and
the row starts from the unigram vector plus the summed back-off weights,
then takes each stored higher-order n-gram of the context's suffixes,
shortest suffix first.  The vectors it needs (unigram scores, and the
successors of every context as flat position/score arrays) are built on
the first row query and cached on the model, so loading stays a plain
parse, as are the row positions of the last vocabulary that row_indices
mapped.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import CountMismatch, MalformedLine, MissingSection, open_text, parse_count

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
    """Dense form of a model for logprob_row.

    Row positions are the unigrams in code-point order, then <unk> if it
    is not a unigram; a token's position is found by bisection, so no
    per-token map is kept.  The successors of a context are succ[lo:hi]
    (row positions) with scores succ_logp[lo:hi], where lo, hi =
    starts[slot : slot + 2]; a one-token context whose token has a row
    position uses that position as its slot, every other context has
    one in long_slots.
    """

    tokens: list[str]
    unk: str
    unk_position: int
    unigram: np.ndarray
    long_slots: dict[tuple[str, ...], int]
    starts: np.ndarray
    succ: np.ndarray
    succ_logp: np.ndarray

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

    def row_index(self, token: str) -> int:
        """Position of normalize_token(token) in the rows of logprob_row."""
        view = self._rows or self._build_rows()
        position = view.position(token)
        return view.unk_position if position is None else position

    def row_indices(self, tokens: tuple[str, ...]) -> np.ndarray:
        """row_index of every token, as a read-only array; the array for
        the last tokens asked for is kept, so a decode maps its
        vocabulary once."""
        cached = self._row_indices
        if cached is None or (cached[0] is not tokens and cached[0] != tokens):
            positions = np.array([self.row_index(token) for token in tokens], dtype=np.intp)
            positions.flags.writeable = False
            cached = self._row_indices = (tokens, positions)
        return cached[1]

    def logprob_row(self, context: tuple[str, ...]) -> np.ndarray:
        """log10 P(t | context) for every row position t, as a new array.

        Each element equals conditional_logprob(context, t) exactly: the
        back-off weights are summed in the same order and each score is
        one addition of that sum and a stored log-probability.
        """
        view = self._rows or self._build_rows()
        overrides = []  # (back-off sum, lo, hi), longest context first
        acc = 0.0
        ctx = context
        while ctx:
            slot = view.slot(ctx)
            if slot is not None:
                lo, hi = view.starts[slot : slot + 2]
                if lo < hi:
                    overrides.append((acc, lo, hi))
            acc += self.backoffs.get(ctx, 0.0)
            ctx = ctx[1:]
        row = acc + view.unigram
        for acc_k, lo, hi in reversed(overrides):
            row[view.succ[lo:hi]] = acc_k + view.succ_logp[lo:hi]
        return row

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
        slot_arr = np.array(slots, dtype=np.intp)
        order = np.argsort(slot_arr, kind="stable")
        view = _RowView(
            tokens=tokens,
            unk=self.unk,
            unk_position=positions[self.unk],
            unigram=np.array(unigram, dtype=np.float64),
            long_slots=long_slots,
            starts=np.searchsorted(slot_arr[order], np.arange(len(positions) + len(long_slots) + 1)),
            succ=np.array(succ, dtype=np.intp)[order],
            succ_logp=np.array(succ_logp, dtype=np.float64)[order],
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
        raise MissingSection("\\data\\", path)
    if not saw_end:
        raise MissingSection("\\end\\", path)
    for order_n, count in declared.items():
        if count > 0 and order_n not in found:
            raise MissingSection(f"\\{order_n}-grams:", path)
        if found.get(order_n, 0) != count:
            raise CountMismatch(order_n, count, found.get(order_n, 0), path)
    for order_n, count in found.items():
        if order_n not in declared and count > 0:
            raise CountMismatch(order_n, 0, count, path)
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
