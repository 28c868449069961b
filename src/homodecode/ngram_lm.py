"""ARPA-format back-off n-gram language model.

Scores are log10, matching the ARPA interchange format; the decoder
converts to natural log (multiply by ln 10) when fusing with acoustic
scores.  Queries are read-only and safe to run concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import CountMismatch, MalformedLine, MissingSection, open_text

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"
UNKNOWN = "<unk>"

# Log10 probability of an unknown unigram when the model carries no <unk>
# entry; -99 is the conventional ARPA "zero probability" sentinel.
UNK_FALLBACK_LOG10 = -99.0

_NGRAM_DECL_RE = re.compile(r"^ngram\s+(\d+)\s*=\s*(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


@dataclass
class NGramModel:
    """Back-off model: probs/backoffs keyed by token tuples of any order."""

    order: int
    probs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    counts: dict[int, int] = field(default_factory=dict)
    start: str = SENTENCE_START
    end: str = SENTENCE_END
    unk: str = UNKNOWN

    def normalize_token(self, token: str) -> str:
        """Map tokens absent from the unigram table to the unknown symbol."""
        return token if (token,) in self.probs else self.unk

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
                section = int(m.group(1))
                found.setdefault(section, 0)
                continue
            if section == 0:
                m = _NGRAM_DECL_RE.match(line)
                if not m:
                    raise MalformedLine(line_no, f"bad \\data\\ entry {line!r}", path)
                declared[int(m.group(1))] = int(m.group(2))
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
    return NGramModel(order=order, probs=probs, backoffs=backoffs, counts=dict(declared))


def score_sequence(model: NGramModel, tokens: list[str]) -> float:
    """Sum of back-off conditional log10 probabilities over the sequence.

    A sentence-start context is prepended; the start symbol itself is
    not scored.  Unknown tokens back off to the unknown-symbol unigram.
    """
    effective = [model.start] + [model.normalize_token(t) for t in tokens]
    span = model.order - 1
    total = 0.0
    for i in range(1, len(effective)):
        ctx = tuple(effective[max(0, i - span) : i]) if span > 0 else ()
        total += model.conditional_logprob(ctx, effective[i])
    return total


def score_increment(model: NGramModel, context: list[str], next_token: str) -> float:
    """log10 P(next | context), consulting only the last order-1 tokens.

    Equals score_sequence(context + [next]) - score_sequence(context).
    """
    span = model.order - 1
    if span <= 0:
        ctx: tuple[str, ...] = ()
    else:
        effective = [model.start] + [model.normalize_token(t) for t in context]
        ctx = tuple(effective[-span:])
    return model.conditional_logprob(ctx, model.normalize_token(next_token))
