"""Shared fixture builders: table-driven lexicons, raw-format writers.

File writers here are intentionally independent of the package's save_*
functions so format tests exercise the loaders against bytes assembled
by hand.
"""

from __future__ import annotations

import struct

# Homophone groups plus the three variants-in-writing pairs used across
# the decoder and unified-writing fixtures.
TABLE1_HOMOPHONES = {
    "zo2": "左阻俎柤詛座",
    "sai3": "世細勢婿貰些僿埶楴",
    "wong4": "王黃皇簧煌蝗惶磺凰",
}
TABLE1_VARIANTS = {
    "zoeng3": "帳賬",
    "lei5": "裏裡",
    "zeng6": "淨凈",
}


def table1_entries():
    entries = []
    for code, chars in {**TABLE1_HOMOPHONES, **TABLE1_VARIANTS}.items():
        for char in chars:
            entries.append((char, code))
    return entries


def write_lexicon(path, entries):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for char, code in entries:
            fh.write(f"{char}\t{code}\n")
    return str(path)


def write_vocab(path, tokens, blank_index=0):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#blank {blank_index}\n")
        for token in tokens:
            fh.write(token + "\n")
    return str(path)


def write_emat_raw(path, rows_ln, magic=b"EMAT", version=1, width=None):
    """Assemble an EMAT file byte by byte from natural-log rows."""
    frames = len(rows_ln)
    width = width if width is not None else (len(rows_ln[0]) if rows_ln else 0)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<III", version, frames, width))
        for row in rows_ln:
            fh.write(struct.pack(f"<{len(row)}f", *row))
    return str(path)


def uniform_row(width):
    return [1.0 / width] * width


def peaked_row(width, peaks):
    """Linear-probability row: given {index: prob}, spread the remainder
    uniformly over the other entries."""
    total = sum(peaks.values())
    assert total <= 1.0 + 1e-12
    rest = width - len(peaks)
    fill = (1.0 - total) / rest if rest else 0.0
    return [peaks.get(i, fill) for i in range(width)]


TOY_ARPA = """\\data\\
ngram 1=2
ngram 2=1

\\1-grams:
-1.0\ta\t-0.2
-1.0\tb

\\2-grams:
-0.3\ta b

\\end\\
"""


def write_toy_arpa(path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TOY_ARPA)
    return str(path)


def write_arpa(path, unigrams, bigrams=None, trigrams=None):
    """Write a small ARPA file from {token: (logp, backoff|None)} and
    {(u, w): logp} tables."""
    bigrams = bigrams or {}
    trigrams = trigrams or {}
    lines = ["\\data\\", f"ngram 1={len(unigrams)}"]
    if bigrams or trigrams:
        lines.append(f"ngram 2={len(bigrams)}")
    if trigrams:
        lines.append(f"ngram 3={len(trigrams)}")
    lines += ["", "\\1-grams:"]
    for token, value in unigrams.items():
        logp, backoff = value if isinstance(value, tuple) else (value, None)
        if backoff is None:
            lines.append(f"{logp}\t{token}")
        else:
            lines.append(f"{logp}\t{token}\t{backoff}")
    if bigrams or trigrams:
        lines += ["", "\\2-grams:"]
        for gram, value in bigrams.items():
            logp, backoff = value if isinstance(value, tuple) else (value, None)
            suffix = "" if backoff is None else f"\t{backoff}"
            lines.append(f"{logp}\t{gram[0]} {gram[1]}{suffix}")
    if trigrams:
        lines += ["", "\\3-grams:"]
        for gram, logp in trigrams.items():
            lines.append(f"{logp}\t{gram[0]} {gram[1]} {gram[2]}")
    lines += ["", "\\end\\", ""]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return str(path)


def write_random_arpa(path, rng, n_tokens=10):
    """A dense random trigram model over t0..tN with <s>/<unk> entries."""
    tokens = [f"t{i}" for i in range(n_tokens)]
    unigrams = {}
    for t in tokens + ["<unk>", "<s>"]:
        unigrams[t] = (round(rng.uniform(-3.0, -0.2), 4), round(rng.uniform(-0.8, -0.05), 4))
    bigrams = {}
    for u in tokens + ["<s>"]:
        for w in rng.sample(tokens, 4):
            bigrams[(u, w)] = (round(rng.uniform(-2.0, -0.1), 4), round(rng.uniform(-0.8, -0.05), 4))
    trigrams = {}
    for (u, w) in rng.sample(sorted(bigrams), 12):
        for v in rng.sample(tokens, 2):
            trigrams[(u, w, v)] = round(rng.uniform(-1.5, -0.05), 4)
    write_arpa(path, unigrams, bigrams, trigrams)
    return str(path), tokens


def write_random_backoff_arpa(path, rng, tokens, order):
    """A random order-N model over tokens that covers every back-off case.

    Back-off weights are positive, negative or absent; <unk> is a unigram,
    absent, or present only in higher orders; two tokens (when there are
    more than three) are not unigrams but end higher-order n-grams and
    end one context of each order.
    """
    unk_mode = rng.choice(("unigram", "absent", "higher"))
    known = rng.sample(tokens, len(tokens) - 2 if len(tokens) > 3 else len(tokens))
    unknown = [t for t in tokens if t not in known] + (["<unk>"] if unk_mode == "higher" else [])

    def backoff():
        return rng.choice((None, round(rng.uniform(-0.8, -0.05), 4), round(rng.uniform(0.05, 0.6), 4)))

    unigram_words = known + ["<s>"] + (["<unk>"] if unk_mode == "unigram" else [])
    sections = [{(w,): (round(rng.uniform(-3.0, -0.2), 4), backoff()) for w in unigram_words}]
    for n in range(2, order + 1):
        grams = {}
        contexts = rng.sample(sorted(sections[-1]), min(len(sections[-1]), 6))
        if unknown:  # a context ending in a token that is not a unigram
            contexts.append(contexts[0][:-1] + (rng.choice(unknown),))
        for ctx in contexts:
            for w in rng.sample(known + unknown, min(len(known + unknown), 3)):
                grams[ctx + (w,)] = (round(rng.uniform(-2.0, -0.05), 4), backoff() if n < order else None)
        sections.append(grams)
    lines = ["\\data\\"] + [f"ngram {n}={len(grams)}" for n, grams in enumerate(sections, start=1)]
    for n, grams in enumerate(sections, start=1):
        lines += ["", f"\\{n}-grams:"]
        for gram, (logp, bo) in grams.items():
            lines.append(f"{logp}\t{' '.join(gram)}" + ("" if bo is None else f"\t{bo}"))
    lines += ["", "\\end\\", ""]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    return str(path)


# --- unified-writing fixture: glyph codes and embeddings for the
#     variant rows plus the explicit 左/阻 reject case ---

GLYPH_FIXTURE = {
    "method_a": {
        "帳": "ysmv", "賬": "ysmo",
        "裏": "jbnd", "裡": "ybnd",
        "淨": "eqsd", "凈": "iqsd",
        "左": "km", "阻": "nlbm",
    },
    "method_b": {
        "帳": "3023", "賬": "3028",
        "裏": "0073", "裡": "3073",
        "淨": "3712", "凈": "3719",
        "左": "4010", "阻": "7716",
    },
}


def write_cin(path, ename, chardefs, header_extra=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%gen_inp\n")
        fh.write(f"%ename {ename}\n")
        for line in header_extra:
            fh.write(line + "\n")
        fh.write("%chardef begin\n")
        for char, code in chardefs.items():
            fh.write(f"{code}\t{char}\n")
        fh.write("%chardef end\n")
    return str(path)


def variant_embeddings():
    """dim-4 vectors: each variant pair at cosine 0.9, 左/阻 orthogonal."""
    import math

    rest = math.sqrt(1.0 - 0.9 * 0.9)
    vectors = {
        "帳": [1.0, 0.0, 0.0, 0.0],
        "賬": [0.9, rest, 0.0, 0.0],
        "裏": [0.0, 1.0, 0.0, 0.0],
        "裡": [rest, 0.9, 0.0, 0.0],
        "淨": [0.0, 0.0, 1.0, 0.0],
        "凈": [0.0, rest, 0.9, 0.0],
        "左": [0.0, 0.0, 0.0, 1.0],
        "阻": [1.0, 0.0, 0.0, 0.0],
    }
    return vectors


def write_embeddings(path, vectors):
    dim = len(next(iter(vectors.values())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for char, vec in vectors.items():
            fh.write(char + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    return str(path)
