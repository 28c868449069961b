"""Seeded input generators for the three benchmark workloads.

Each generator writes plain input files (vocabulary, lexicon, ARPA LM,
EMAT emissions, cin tables, embeddings, pairs, frequency table) into an
output directory and an ``inputs.json`` that names them and records the
input properties the workload fixes.  The same seed gives byte-identical
files, so the program under test only ever sees generated inputs.

Run as a script to generate one workload's inputs:

    python3 benchmarks/generate.py --workload ladder --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import struct

import numpy as np

WORKLOADS = ("ladder", "decode_32k", "uw_discover")

# Homophone groups (first character frequent, the rest rare) and the three
# variant-in-writing pairs (first form frequent, second rare), as in the
# acceptance suite's Table 1 fixture.
HOMOPHONES = {
    "zo2": "左阻俎柤詛座",
    "sai3": "世細勢婿貰些僿埶楴",
    "wong4": "王黃皇簧煌蝗惶磺凰",
}
VARIANT_PAIRS = {
    "zoeng3": "帳賬",
    "lei5": "裏裡",
    "zeng6": "淨凈",
}
FILLERS = "天地人山水火木金土日月星雲風雨雪電春夏秋"

# Jyutping-like syllable inventory: every string is [a-z]+ so a tone digit
# appended to it parses as a lexicon code.
ONSETS = ("", "b", "p", "m", "f", "d", "t", "n", "l", "g", "k", "ng", "h", "gw", "kw", "w", "z", "c", "s", "j")
RIMES = (
    "aa", "aai", "aau", "aam", "aan", "aang", "aap", "aat", "aak", "ai", "au", "am", "an", "ang",
    "ap", "at", "ak", "e", "ei", "eng", "ek", "i", "iu", "im", "in", "ing", "ip", "it", "ik",
    "o", "oi", "ou", "on", "ong", "ot", "ok", "u", "ui", "un", "ung", "ut", "uk", "oe", "eoi",
    "eon", "oeng", "eot", "oek", "yu", "yun", "yut", "m", "ng",
)


def syllables() -> list[str]:
    return sorted({onset + rime for onset in ONSETS for rime in RIMES})


def cjk_chars(count: int, ranges=((0x4E00, 20_992), (0x3400, 6_592), (0xF900, 474), (0x20000, 42_711))) -> list[str]:
    """The first count characters of the given code-point ranges, in order."""
    out: list[str] = []
    for base, span in ranges:
        out.extend(chr(base + i) for i in range(min(span, count - len(out))))
        if len(out) >= count:
            break
    return out


# --- raw file writers (independent of the package's save_* functions) ---

def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_vocab(path: str, tokens) -> None:
    write_lines(path, ["#blank 0", *tokens])


def write_emat(path: str, linear_rows: np.ndarray) -> None:
    """EMAT v1: magic, u32 version, u32 T, u32 V, then float32 log-probs."""
    rows = np.asarray(linear_rows, dtype=np.float64)
    rows = rows / rows.sum(axis=1, keepdims=True)
    values = np.log(rows).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(b"EMAT")
        fh.write(struct.pack("<III", 1, values.shape[0], values.shape[1]))
        fh.write(values.tobytes())


def arpa_lines(sections: list[dict[tuple[str, ...], tuple[float, float | None]]]) -> list[str]:
    """ARPA text for n-gram tables ordered 1..N; values are (log10 p, backoff)."""
    lines = ["\\data\\"]
    lines += [f"ngram {n}={len(table)}" for n, table in enumerate(sections, start=1)]
    for n, table in enumerate(sections, start=1):
        lines += ["", f"\\{n}-grams:"]
        for gram, (logp, backoff) in table.items():
            suffix = "" if backoff is None else f"\t{backoff:.4f}"
            lines.append(f"{logp:.4f}\t{' '.join(gram)}{suffix}")
    lines += ["", "\\end\\"]
    return lines


def write_embeddings(path: str, vectors: dict[str, np.ndarray]) -> None:
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}"]
    for char, vec in vectors.items():
        lines.append(char + " " + " ".join(f"{x:.6f}" for x in vec))
    write_lines(path, lines)


def write_cin(path: str, ename: str, codes: dict[str, str]) -> None:
    write_lines(
        path,
        ["%gen_inp", f"%ename {ename}", "%chardef begin", *(f"{code}\t{char}" for char, code in codes.items()), "%chardef end"],
    )


def near_vector(rng: np.random.Generator, base: np.ndarray, cosine: float) -> np.ndarray:
    """A vector at the given cosine to base, with a random norm."""
    unit = base / np.linalg.norm(base)
    other = rng.normal(size=base.shape)
    other -= (other @ unit) * unit
    other /= np.linalg.norm(other)
    return (cosine * unit + math.sqrt(1.0 - cosine * cosine) * other) * rng.uniform(0.5, 2.0)


def peaked_rows(rng: np.random.Generator, width: int, peaks: list[dict[int, float]]) -> np.ndarray:
    """One row per frame: the given {index: prob} peaks, the remaining mass
    spread as random noise over every other entry (so no entry is zero)."""
    rows = rng.random((len(peaks), width)) + 0.01
    for t, frame in enumerate(peaks):
        keys = list(frame)
        rows[t, keys] = 0.0
        rows[t] *= (1.0 - sum(frame.values())) / rows[t].sum()
        rows[t, keys] = list(frame.values())
    return rows


# --- workload generators ---

def generate_ladder(seed: int, out: str) -> dict:
    """Criterion 3's 50-utterance homophone-extension suite, extended with
    the three variant pairs for unified writing.

    30 utterances are repairable by HE (the confusable frame peaks on the
    frequent homophone of a rare reference character), 10 confuse with an
    unrelated filler that nothing can repair, and 10 decode correctly; 9
    of the last carry the rare written form of a variant pair in their
    emissions while the reference uses the frequent form, so UW apply (and
    HE, since each pair shares a code) rewrites them.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    families = {code: (chars[0], list(chars[1:])) for code, chars in HOMOPHONES.items()}
    fillers = list(FILLERS)
    all_chars = [c for chars in HOMOPHONES.values() for c in chars]
    all_chars += [c for chars in VARIANT_PAIRS.values() for c in chars] + fillers
    tokens = ["<b>"] + list(dict.fromkeys(all_chars))
    token_index = {t: i for i, t in enumerate(tokens)}

    kinds = ["fixable"] * 30 + ["unfixable"] * 10 + ["variant"] * 9 + ["easy"]
    rng.shuffle(kinds)
    pair_cycle = [VARIANT_PAIRS[code] for code in sorted(VARIANT_PAIRS)] * 3
    rng.shuffle(pair_cycle)

    references, emitted = [], []
    for kind in kinds:
        body = rng.sample(fillers, 4)
        spoken = list(body)
        position = rng.randrange(4)
        if kind == "fixable":
            frequent, rares = families[rng.choice(sorted(families))]
            body[position] = rng.choice(rares)
            spoken = list(body)
            spoken[position] = frequent
        elif kind == "unfixable":
            spoken[position] = rng.choice([f for f in fillers if f not in body])
        elif kind == "variant":
            frequent, rare = pair_cycle.pop()
            body[position] = frequent
            spoken = list(body)
            spoken[position] = rare
        references.append("".join(body))
        emitted.append((spoken, position if kind in ("fixable", "unfixable") else None))

    files = {name: os.path.join(out, name) for name in (
        "vocab.txt", "lexicon.tsv", "lm.arpa", "pairs.tsv", "embeddings.vec", "frequency.tsv",
        "manifest.jsonl", "config.json")}
    write_vocab(files["vocab.txt"], tokens)
    lexicon = [(c, code) for code, chars in {**HOMOPHONES, **VARIANT_PAIRS}.items() for c in chars]
    write_lines(files["lexicon.tsv"], [f"{c}\t{code}" for c, code in lexicon])

    unigrams = {(t,): (-1.0, -0.2) for t in tokens[1:]}
    unigrams[("<s>",)] = (-99.0, -0.2)
    bigrams = {}
    for ref in references:
        previous = "<s>"
        for char in ref:
            bigrams[(previous, char)] = (-0.05, -0.2)
            previous = char
    write_lines(files["lm.arpa"], arpa_lines([unigrams, bigrams]))

    dim = 8
    vectors = {t: nrng.normal(size=dim) for t in tokens[1:]}
    for frequent, rare in VARIANT_PAIRS.values():
        vectors[rare] = near_vector(nrng, vectors[frequent], 0.9)
    write_embeddings(files["embeddings.vec"], vectors)
    write_lines(files["pairs.tsv"], [
        f"{rare}\t{frequent}\t0.0\t0.9\tmethod_a=0.25;method_b=0.25"
        for frequent, rare in (VARIANT_PAIRS[code] for code in sorted(VARIANT_PAIRS))
    ])
    counts = {t: 10 for t in tokens[1:]}
    for frequent, rare in VARIANT_PAIRS.values():
        counts[frequent], counts[rare] = 100, 3
    write_lines(files["frequency.tsv"], [f"{c}\t{n}" for c, n in counts.items()])

    manifest = []
    width = len(tokens)
    for n, (ref, (spoken, confused)) in enumerate(zip(references, emitted)):
        peaks = []
        for position, char in enumerate(spoken):
            if position == confused:
                peaks.append({token_index[char]: 0.75, token_index[ref[position]]: 0.05, 0: 0.05})
            else:
                peaks.append({token_index[char]: 0.9, 0: 0.04})
        path = os.path.join(out, f"u{n:02d}.emat")
        write_emat(path, peaked_rows(nrng, width, peaks))
        manifest.append(json.dumps({"id": f"u{n:02d}", "emissions_path": path, "reference": ref}, ensure_ascii=False))
    write_lines(files["manifest.jsonl"], manifest)
    with open(files["config.json"], "w", encoding="utf-8") as fh:
        json.dump({
            "vocab": files["vocab.txt"],
            "lexicon": files["lexicon.tsv"],
            "lm": files["lm.arpa"],
            "pairs": files["pairs.tsv"],
            "embeddings": files["embeddings.vec"],
            "frequency": files["frequency.tsv"],
            "output_dir": os.path.join(out, "report"),
            "variants": ["baseline", "lm", "lm_he", "lm_uw", "lm_he_uw"],
        }, fh, ensure_ascii=False, indent=1, sort_keys=True)
    return {
        "files": files,
        "references": references,
        "properties": {
            "vocab_size": width,
            "utterances": len(references),
            "frames": sum(len(r) for r in references),
            "mean_homophone_group": round(len(lexicon) / len(HOMOPHONES | VARIANT_PAIRS), 3),
            "lm_ngrams": {"1": len(unigrams), "2": len(bigrams)},
            "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
        },
    }


DECODE_VOCAB = 32_693
DECODE_CODES = 3_300
DECODE_LENGTHS = (2,) * 2 + (3,) * 4  # characters per utterance; the median lies among the 3s
DECODE_KINDS = ("fixable",) * 3 + ("unfixable",) + ("easy",) * 2


def generate_decode_32k(seed: int, out: str) -> dict:
    """A 32,693-token vocabulary with a dense homophone lexicon, an order-3
    ARPA LM and 6 short, blank-dominated utterances.

    Every character has one code (10% a second one); codes are dealt
    round-robin so every group holds 10 to 12 characters.  Three
    utterances peak on the frequent homophone of a rare reference
    character (HE repairs them), one ends on an unrelated decoy (nothing
    repairs it), two decode correctly.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    tokens = ["<b>"] + cjk_chars(DECODE_VOCAB - 1)
    chars = tokens[1:]
    inventory = [f"{s}{tone}" for s in syllables() for tone in range(1, 7)]
    codes = rng.sample(inventory, DECODE_CODES)
    dealt = chars[:]
    rng.shuffle(dealt)
    primary = {c: codes[i % DECODE_CODES] for i, c in enumerate(dealt)}
    groups: dict[str, list[str]] = {}
    for c in dealt:
        groups.setdefault(primary[c], []).append(c)
    lexicon = [(c, primary[c]) for c in chars]
    for c in rng.sample(chars, len(chars) // 10):
        second = rng.choice(codes)
        if second != primary[c]:
            lexicon.append((c, second))
    lexicon.sort(key=lambda e: (e[1], e[0]))
    members: dict[str, int] = {}
    for _, code in lexicon:
        members[code] = members.get(code, 0) + 1

    frequent = {code: group[0] for code, group in groups.items()}
    frequent_set = set(frequent.values())
    kinds = list(DECODE_KINDS)
    rng.shuffle(kinds)
    lengths = list(DECODE_LENGTHS)
    rng.shuffle(lengths)

    references, utterances = [], []
    for kind, length in zip(kinds, lengths):
        ref = rng.sample(chars, length)
        spoken = list(ref)
        # a decoy breaks the LM context of what follows it, so it sits last
        position = {"fixable": rng.randrange(length), "unfixable": length - 1}.get(kind)
        if kind == "fixable":
            code = rng.choice(codes)
            ref[position] = rng.choice(groups[code][1:])
            spoken = list(ref)
            spoken[position] = frequent[code]
        elif kind == "unfixable":
            decoy = rng.choice(chars)
            while decoy in ref or primary[decoy] == primary[ref[position]]:
                decoy = rng.choice(chars)
            spoken[position] = decoy
        references.append("".join(ref))
        utterances.append((spoken, position))

    # Reference n-grams beat their back-off estimate by a small margin, so
    # the LM alone cannot overturn the acoustic preference for a confusable
    # (at most 1.9 log10, about 2 nats, against ln(0.75/0.05) = 2.7 nats) but breaks the tie
    # when HE gives a homophone the source's acoustic mass.
    unigram = {c: (-3.2 if c in frequent_set else -3.5) for c in chars}
    unigrams = {(c,): (unigram[c], -0.3) for c in chars}
    unigrams[("</s>",)] = (-1.5, None)
    unigrams[("<s>",)] = (-99.0, -0.3)
    unigrams[("<unk>",)] = (-6.0, None)
    bigrams, trigrams = {}, {}
    for ref in references:
        seq = ["<s>", *ref]
        for i in range(1, len(seq)):
            bigram = -0.3 + unigram[seq[i]] + 0.6
            bigrams[tuple(seq[i - 1 : i + 1])] = (bigram, -0.1)
            if i >= 2:
                trigrams[tuple(seq[i - 2 : i + 1])] = (-0.1 + bigram + 0.4, None)
    while len(bigrams) < 20_000:
        u, w = rng.choice(chars), rng.choice(chars)
        bigrams.setdefault((u, w), (-0.3 + unigram[w] + rng.uniform(-1.0, 0.3), rng.uniform(-0.5, -0.1)))
    random_bigrams = sorted(bigrams)
    while len(trigrams) < 5_000:
        gram = rng.choice(random_bigrams) + (rng.choice(chars),)
        trigrams.setdefault(gram, (rng.uniform(-4.5, -3.0), None))

    files = {name: os.path.join(out, name) for name in ("vocab.txt", "lexicon.tsv", "lm.arpa")}
    write_vocab(files["vocab.txt"], tokens)
    write_lines(files["lexicon.tsv"], [f"{c}\t{code}" for c, code in lexicon])
    write_lines(files["lm.arpa"], arpa_lines([unigrams, bigrams, trigrams]))

    token_index = {t: i for i, t in enumerate(tokens)}
    emissions, frames = [], 0
    for n, (ref, (spoken, confused)) in enumerate(zip(references, utterances)):
        # blank-dominated: a blank frame before every character and at the end
        peaks = []
        for position, char in enumerate(spoken):
            peaks.append({0: 0.9})
            if position == confused:
                peaks.append({token_index[char]: 0.75, token_index[ref[position]]: 0.05, 0: 0.05})
            else:
                peaks.append({token_index[char]: 0.85, 0: 0.05})
        peaks.append({0: 0.9})
        path = os.path.join(out, f"u{n:02d}.emat")
        write_emat(path, peaked_rows(nrng, len(tokens), peaks))
        emissions.append(path)
        frames += len(peaks)
    return {
        "files": files,
        "references": references,
        "emissions": emissions,
        "properties": {
            "vocab_size": len(tokens),
            "utterances": len(references),
            "frames": frames,
            "lexicon_entries": len(lexicon),
            "mean_homophone_group": round(len(lexicon) / len(members), 3),
            "lm_ngrams": {"1": len(unigrams), "2": len(bigrams), "3": len(trigrams)},
            "kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
        },
    }


UW_LEXICON = 30_000
UW_PLANTED = 100
UW_BUCKET = 5


def generate_uw_discover(seed: int, out: str) -> dict:
    """A 30,000-entry lexicon in buckets of five characters per code, two
    cin tables of random 4-letter glyph codes, 8-d embeddings, and 100
    planted variant pairs that share a code, differ by one glyph-code
    letter in both tables and sit at cosine 0.9."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    chars = cjk_chars(UW_LEXICON, ((0x4E00, 12_000), (0x3400, 6_592), (0x20000, 42_711)))
    rng.shuffle(chars)
    background, planted_chars = chars[: UW_LEXICON - 2 * UW_PLANTED], chars[UW_LEXICON - 2 * UW_PLANTED :]
    n_codes = len(background) // UW_BUCKET
    codes = rng.sample([f"{s}{tone}" for s in syllables() for tone in range(1, 7)], n_codes)
    code_of = {c: codes[i // UW_BUCKET] for i, c in enumerate(background)}
    pairs = [(planted_chars[2 * i], planted_chars[2 * i + 1]) for i in range(UW_PLANTED)]
    for (x, y), code in zip(pairs, rng.sample(codes, UW_PLANTED)):
        code_of[x] = code_of[y] = code

    letters = "abcdefgh"
    tables = []
    for _ in range(2):
        glyph = {c: "".join(rng.choice(letters) for _ in range(4)) for c in background}
        for x, y in pairs:
            glyph[x] = "".join(rng.choice(letters) for _ in range(4))
            k = rng.randrange(4)
            swap = rng.choice([l for l in letters if l != glyph[x][k]])
            glyph[y] = glyph[x][:k] + swap + glyph[x][k + 1 :]
        tables.append(glyph)
    vectors = {c: nrng.normal(size=8) for c in background}
    for x, y in pairs:
        vectors[x] = nrng.normal(size=8)
        vectors[y] = near_vector(nrng, vectors[x], 0.9)

    ordered = sorted(code_of)
    files = {name: os.path.join(out, name) for name in ("lexicon.tsv", "embeddings.vec")}
    files["cin_a"] = os.path.join(out, "method_a.cin")
    files["cin_b"] = os.path.join(out, "method_b.cin")
    write_lines(files["lexicon.tsv"], [f"{c}\t{code_of[c]}" for c in ordered])
    write_cin(files["cin_a"], "method_a", {c: tables[0][c] for c in ordered})
    write_cin(files["cin_b"], "method_b", {c: tables[1][c] for c in ordered})
    write_embeddings(files["embeddings.vec"], {c: vectors[c] for c in ordered})
    return {
        "files": files,
        "planted": sorted(tuple(sorted(p)) for p in pairs),
        "properties": {
            "lexicon_entries": len(code_of),
            "codes": n_codes,
            "mean_homophone_group": round(len(code_of) / n_codes, 3),
            "planted_pairs": UW_PLANTED,
            "embedding_dim": 8,
            "glyph_methods": 2,
        },
    }


GENERATORS = {
    "ladder": generate_ladder,
    "decode_32k": generate_decode_32k,
    "uw_discover": generate_uw_discover,
}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write one workload's inputs under out and return its description."""
    os.makedirs(out, exist_ok=True)
    info = GENERATORS[workload](seed, out)
    info["workload"] = workload
    info["seed"] = seed
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, ensure_ascii=False, indent=1, sort_keys=True)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
