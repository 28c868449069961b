"""Independent reference implementations used as test oracles.

Nothing here imports decoding or scoring code from the package beyond
plain data containers, so these stay valid checks of the real
implementations.  The one exception is the frozen reference beam step at
the end: it reuses the package's LM queries and homophone_adjusted_prob,
which have their own oracles, so that its scores can be compared bit for
bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from homodecode.decoder import (
    LN10,
    BeamHypothesis,
    DecodeResult,
    HEInjection,
    NBestEntry,
    homophone_adjusted_prob,
)
from homodecode.ngram_lm import score_increment

NEG_INF = float("-inf")


# --- exhaustive CTC alignment enumeration ---

def ctc_collapse(path, blank):
    """Merge repeats, then drop blanks."""
    out = []
    prev = None
    for sym in path:
        if sym != prev and sym != blank:
            out.append(sym)
        prev = sym
    return tuple(out)


def enumerate_ctc_posteriors(log_probs, blank):
    """Posterior of every collapsed transcript, by walking all V^T paths."""
    frames = len(log_probs)
    width = len(log_probs[0])
    posteriors: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(width), repeat=frames):
        logp = 0.0
        for t, sym in enumerate(path):
            lp = log_probs[t][sym]
            if lp == NEG_INF:
                logp = NEG_INF
                break
            logp += lp
        if logp == NEG_INF:
            continue
        key = ctc_collapse(path, blank)
        posteriors[key] = posteriors.get(key, 0.0) + math.exp(logp)
    return posteriors


def best_ctc_transcript(posteriors, tokens):
    """Max-posterior transcript index tuple; ties by code-point order."""
    ranked = sorted(
        posteriors,
        key=lambda k: (-posteriors[k], "".join(tokens[i] for i in k)),
    )
    return ranked[0]


# --- longest-match-first ARPA scoring ---

def arpa_conditional(probs, backoffs, context, token, unk="<unk>", unk_fallback=-99.0):
    """log10 P(token | context) by scanning for the longest stored match
    and summing the backoff weights of every longer context skipped."""
    word = token if (token,) in probs else unk
    for k in range(len(context), -1, -1):
        candidate = tuple(context[len(context) - k :]) + (word,)
        if candidate in probs:
            skipped = sum(
                backoffs.get(tuple(context[len(context) - j :]), 0.0)
                for j in range(len(context), k, -1)
            )
            return skipped + probs[candidate]
    skipped = sum(
        backoffs.get(tuple(context[len(context) - j :]), 0.0)
        for j in range(len(context), 0, -1)
    )
    return skipped + unk_fallback


def arpa_score_sequence(probs, backoffs, order, tokens, start="<s>", unk="<unk>"):
    seq = [start] + [t if (t,) in probs else unk for t in tokens]
    total = 0.0
    for i in range(1, len(seq)):
        ctx = seq[max(0, i - (order - 1)) : i] if order > 1 else []
        total += arpa_conditional(probs, backoffs, ctx, seq[i], unk=unk)
    return total


# --- standalone prefix beam search without any homophone machinery ---

def _logaddexp(a, b):
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def plain_prefix_beam_decode(log_probs, blank, tokens, beam_size, alpha, beta,
                             lm_increment=None, char_topk=0):
    """Minimal prefix beam search over index tuples.

    lm_increment(prefix_tokens, token) returns a log10 increment; None
    means no language model.  Returns the final pruned beam as a list of
    (prefix, p_blank, p_nonblank, lm_score, fused) tuples sorted the way
    the production decoder sorts.
    """
    ln10 = math.log(10.0)
    frames = len(log_probs)
    width = len(log_probs[0])
    beam = {(): (0.0, NEG_INF, 0.0)}
    for t in range(frames):
        row = log_probs[t]
        ranked = sorted(
            (i for i in range(width) if i != blank and row[i] != NEG_INF),
            key=lambda i: (-row[i], i),
        )
        if char_topk:
            ranked = ranked[:char_topk]
        nxt: dict[tuple, list] = {}
        for prefix, (p_b, p_nb, lm_sc) in beam.items():
            p_tot = _logaddexp(p_b, p_nb)
            if p_tot == NEG_INF:
                continue
            last = prefix[-1] if prefix else None
            if row[blank] != NEG_INF:
                rec = nxt.setdefault(prefix, [NEG_INF, NEG_INF, lm_sc])
                rec[0] = _logaddexp(rec[0], p_tot + row[blank])
            for c in ranked:
                if c == last:
                    if p_nb != NEG_INF:
                        rec = nxt.setdefault(prefix, [NEG_INF, NEG_INF, lm_sc])
                        rec[1] = _logaddexp(rec[1], p_nb + row[c])
                    mass = p_b
                else:
                    mass = p_tot
                if mass == NEG_INF:
                    continue
                new_prefix = prefix + (c,)
                rec = nxt.get(new_prefix)
                if rec is None:
                    inc = lm_increment([tokens[i] for i in prefix], tokens[c]) if lm_increment else 0.0
                    rec = [NEG_INF, NEG_INF, lm_sc + inc]
                    nxt[new_prefix] = rec
                rec[1] = _logaddexp(rec[1], mass + row[c])
        scored = []
        for prefix, (p_b, p_nb, lm_sc) in nxt.items():
            fused = _logaddexp(p_b, p_nb) + alpha * ln10 * lm_sc + beta * len(prefix)
            scored.append((prefix, p_b, p_nb, lm_sc, fused))
        scored.sort(key=lambda x: (-x[4], "".join(tokens[i] for i in x[0])))
        beam = {p: (p_b, p_nb, lm_sc) for p, p_b, p_nb, lm_sc, _ in scored[:beam_size]}
    result = []
    for prefix, (p_b, p_nb, lm_sc) in beam.items():
        fused = _logaddexp(p_b, p_nb) + alpha * ln10 * lm_sc + beta * len(prefix)
        result.append((prefix, p_b, p_nb, lm_sc, fused))
    result.sort(key=lambda x: (-x[4], "".join(tokens[i] for i in x[0])))
    return result


# --- the homophone index's two groupings, built from sorted tuples (the
#     build before its integer arrays) ---

def reference_homophone_groupings(entries):
    """by_code and codes_by_char of (character, JyutpingCode) entries,
    with the old build's insertion order: characters and codes sorted."""
    pairs = sorted({(char, code.text) for char, code in entries})
    codes_by_char = {char: tuple(c for _, c in group) for char, group in itertools.groupby(pairs, key=itemgetter(0))}
    pairs.sort(key=itemgetter(1))  # stable: each code's characters stay sorted
    by_code = {code: tuple(ch for ch, _ in group) for code, group in itertools.groupby(pairs, key=itemgetter(1))}
    return by_code, codes_by_char


def reference_homophone_pairs(by_code):
    """The characters of by_code's groups in code-point order, and each
    distinct pair sharing a code as positions first < second, ordered by
    first, then by second: the walk over every group's combinations."""
    chars = sorted({char for group in by_code.values() for char in group})
    row = {char: i for i, char in enumerate(chars)}
    pairs = {(row[x], row[y]) for group in by_code.values() for x, y in itertools.combinations(group, 2)}
    return chars, sorted(pairs)


# --- frozen per-injection beam step (the decoder before its per-frame
#     injection tables, top-k prune and partitioned candidate selection);
#     the rewritten step must match it bit for bit ---

@dataclass
class ReferenceHypothesis(BeamHypothesis):
    """A hypothesis that records its frame's extension for the reference
    step: the appended token, the mass that multiplied its emission and
    its parent's LM score."""

    ext_index: int | None = None
    ext_mass: float = NEG_INF
    ext_parent_lm: float = 0.0


def _reference_fused(hyp, config):
    return (
        hyp.acoustic_score()
        + config.alpha * LN10 * hyp.lm_score
        + config.beta * len(hyp.prefix)
    )


def reference_prune(hyps, vocab, config):
    for hyp in hyps:
        hyp.fused_score = _reference_fused(hyp, config)
    hyps.sort(key=lambda h: (-h.fused_score, h.text(vocab)))
    return hyps[: config.beam_size]


def reference_frame_candidates(lp, blank_index, topk):
    order = np.argsort(-lp, kind="stable")
    cands = []
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


def _reference_lm_increment(lm, vocab, prefix, token):
    if lm is None:
        return 0.0
    span = lm.order - 1
    ctx_ids = prefix[-span:] if span > 0 else ()
    return score_increment(lm, [vocab.tokens[i] for i in ctx_ids], token)


def reference_ctc_step(hyps, frame, vocab, config, lm=None, prune=True):
    lp = np.asarray(frame, dtype=np.float64)
    blank = vocab.blank_index
    lp_blank = float(lp[blank])
    cands = reference_frame_candidates(lp, blank, config.char_topk)
    next_recs = {}

    for hyp in hyps:
        p_tot = _logaddexp(hyp.p_blank, hyp.p_nonblank)
        if p_tot == NEG_INF:
            continue
        last = hyp.prefix[-1] if hyp.prefix else None

        if lp_blank != NEG_INF:
            rec = next_recs.get(hyp.prefix)
            if rec is None:
                rec = ReferenceHypothesis(hyp.prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score)
                next_recs[hyp.prefix] = rec
            rec.p_blank = _logaddexp(rec.p_blank, p_tot + lp_blank)

        for c in cands:
            lp_c = float(lp[c])
            if c == last:
                if hyp.p_nonblank != NEG_INF:
                    rec = next_recs.get(hyp.prefix)
                    if rec is None:
                        rec = ReferenceHypothesis(hyp.prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score)
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
                inc = _reference_lm_increment(lm, vocab, hyp.prefix, vocab.tokens[c])
                rec = ReferenceHypothesis(new_prefix, NEG_INF, NEG_INF, lm_score=hyp.lm_score + inc)
                next_recs[new_prefix] = rec
            rec.ext_parent_lm = hyp.lm_score
            rec.p_nonblank = _logaddexp(rec.p_nonblank, mass + lp_c)
            rec.ext_index = c
            rec.ext_mass = _logaddexp(rec.ext_mass, mass)

    out = list(next_recs.values())
    if prune:
        return reference_prune(out, vocab, config)
    for rec in out:
        rec.fused_score = _reference_fused(rec, config)
    return out


def reference_extend_homophones(hyps, frame, index, vocab, config, lm=None, step=0, audit=None):
    if not config.he_enabled:
        return reference_prune(list(hyps), vocab, config)
    lp = np.asarray(frame, dtype=np.float64)
    by_prefix = {h.prefix: h for h in hyps}
    extended = [h for h in hyps if h.ext_index is not None]

    for hyp in extended:
        c_idx = hyp.ext_index
        source = vocab.tokens[c_idx]
        homophones = index.homophones_of(source)
        if not homophones:
            continue
        a_p = min(1.0, math.exp(float(lp[c_idx])))
        parent = hyp.prefix[:-1]
        for h_char in homophones:
            h_idx = vocab.index_of(h_char)
            if h_idx is None:
                continue
            q = min(1.0, math.exp(float(lp[h_idx])))
            p = homophone_adjusted_prob(a_p, q, len(index.codes_of(h_char)), config.gamma)
            if p <= 0.0:
                continue
            if audit is not None:
                audit.append(HEInjection(step, source, h_char, p))
            contrib = hyp.ext_mass + math.log(p)
            sibling = parent + (h_idx,)
            existing = by_prefix.get(sibling)
            if existing is not None:
                existing.p_nonblank = max(existing.p_nonblank, contrib)
            else:
                inc = _reference_lm_increment(lm, vocab, parent, h_char)
                rec = ReferenceHypothesis(
                    sibling,
                    NEG_INF,
                    contrib,
                    lm_score=hyp.ext_parent_lm + inc,
                )
                by_prefix[sibling] = rec

    return reference_prune(list(by_prefix.values()), vocab, config)


def reference_decode(emissions, vocab, index, lm, config):
    """decode() driven by the frozen reference step above."""
    he_on = config.he_enabled and index is not None
    audit = []
    log_probs = emissions.log_probs.astype(np.float64)
    beam = [BeamHypothesis((), 0.0, NEG_INF)]
    for t in range(emissions.frames):
        row = log_probs[t]
        if he_on:
            expanded = reference_ctc_step(beam, row, vocab, config, lm, prune=False)
            beam = reference_extend_homophones(expanded, row, index, vocab, config, lm, step=t, audit=audit)
        else:
            beam = reference_ctc_step(beam, row, vocab, config, lm, prune=True)

    top = sorted(beam, key=lambda h: (-h.fused_score, h.text(vocab)))[: config.nbest]
    entries = [NBestEntry(h.text(vocab), h.fused_score, h.acoustic_score(), h.lm_score) for h in top]
    return DecodeResult(tuple(entries), tuple(audit))
