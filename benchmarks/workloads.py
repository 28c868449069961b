"""The three benchmark workloads: set-up, one pass of operations, checks.

A pass is the workload's fixed set of operations for one seed:

- ladder: one in-process ``homodecode compare`` over all five variants;
- decode_32k: every utterance loaded and decoded with HE off, then on;
- uw_discover: one ``discover_pairs`` call.

Every workload resolves the package's functions through their modules at
call time (``decoder.decode``, not a name bound at import), so a tracer
that patches those modules sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class OpResult:
    """One operation: its latency sample and whether its checks passed."""

    latency_s: float
    ok: bool
    error: str | None = None


@dataclass
class PassResult:
    seconds: float
    ops: list[OpResult]
    outputs: dict
    stats: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, kept here so checks do not rely on the program."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        row = [i]
        for j, cb in enumerate(b, start=1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = row
    return prev[-1]


def nbest_sorted(nbest) -> bool:
    keys = [(-e.fused_score, e.transcript) for e in nbest]
    return bool(nbest) and keys == sorted(keys)


class Workload:
    name = ""

    def __init__(self, info: dict, golden: dict | None):
        self.info = info
        self.files = info["files"]
        self.golden = golden
        self.tracer = None

    def mark_op(self, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.op_id = op_id

    def setup(self) -> None:
        """Load what every operation shares, through the package's loaders."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def golden_mismatch(self, outputs: dict) -> str | None:
        if self.golden is None or outputs == self.golden:
            return None
        return "outputs differ from the golden outputs for this seed"


class Ladder(Workload):
    """The five-variant comparison ladder through the command line entry."""

    name = "ladder"

    def run_pass(self) -> PassResult:
        from homodecode import cli

        self.mark_op(1)
        argv = ["compare", "--manifest", self.files["manifest.jsonl"], "--config", self.files["config.json"]]
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
        seconds = time.perf_counter() - start
        stats = {}
        try:
            outputs = self.read_outputs(status, captured.getvalue())
            error = self.check(outputs) or self.golden_mismatch(outputs)
            best = outputs["variants"]["lm_he_uw"]
            stats["accuracy"] = 1.0 - best["edits"] / best["ref_len"]
            stats["cer"] = {name: float(v["cer"]) for name, v in outputs["variants"].items()}
        except (OSError, ValueError, KeyError) as exc:
            outputs, error = {}, f"{type(exc).__name__}: {exc}"
        return PassResult(seconds, [OpResult(seconds, error is None, error)], outputs, stats)

    def read_outputs(self, status: int, stdout: str) -> dict:
        if status != 0:
            raise ValueError(f"compare exited with status {status}")
        with open(self.files["config.json"], encoding="utf-8") as fh:
            report_dir = json.load(fh)["output_dir"]
        with open(os.path.join(report_dir, "comparison.tsv"), encoding="utf-8") as fh:
            table = fh.read()
        if table != stdout:
            raise ValueError("printed table differs from comparison.tsv")
        variants = {}
        for line in table.splitlines()[1:]:
            name, cer, edits, ref_len = line.split("\t")[:4]
            hyps = []
            with open(os.path.join(report_dir, f"report_{name}.jsonl"), encoding="utf-8") as fh:
                for row in fh:
                    hyps.append(json.loads(row)["hypothesis"])
            variants[name] = {"cer": cer, "edits": int(edits), "ref_len": int(ref_len), "hypotheses": hyps}
        return {"variants": variants}

    def check(self, outputs: dict) -> str | None:
        variants = outputs["variants"]
        expected = ["baseline", "lm", "lm_he", "lm_uw", "lm_he_uw"]
        if sorted(variants) != sorted(expected):
            return f"variants {sorted(variants)} != {sorted(expected)}"
        utterances = len(self.info["references"])
        if any(len(v["hypotheses"]) != utterances for v in variants.values()):
            return "a report does not cover every utterance"
        if not variants["lm_he"]["edits"] < variants["lm"]["edits"]:
            return "lm_he CER is not below lm CER"
        return None


class Decode32k(Workload):
    """Direct decodes at production vocabulary size, HE off then on."""

    name = "decode_32k"

    def setup(self) -> None:
        from homodecode import emissions, lexicon, ngram_lm

        self.vocab = emissions.load_vocab(self.files["vocab.txt"])
        self.index = lexicon.build_homophone_index(lexicon.load_lexicon(self.files["lexicon.tsv"]))
        self.lm = ngram_lm.load_arpa(self.files["lm.arpa"])

    def run_pass(self) -> PassResult:
        from homodecode import decoder, emissions

        off_config = decoder.DecoderConfig(he_enabled=False)
        on_config = decoder.DecoderConfig()
        ops, outputs = [], []
        frames = edits_off = edits_on = ref_chars = 0
        off_s = on_s = 0.0
        start = time.perf_counter()
        for n, (path, ref) in enumerate(zip(self.info["emissions"], self.info["references"]), start=1):
            self.mark_op(n)
            try:
                t0 = time.perf_counter()
                matrix = emissions.load_emissions(path, self.vocab)
                t1 = time.perf_counter()
                off = decoder.decode(matrix, self.vocab, self.index, self.lm, off_config)
                t2 = time.perf_counter()
                on = decoder.decode(matrix, self.vocab, self.index, self.lm, on_config)
                t3 = time.perf_counter()
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append(OpResult(0.0, False, f"{type(exc).__name__}: {exc}"))
                outputs.append(None)
                continue
            frames += matrix.frames
            off_s += t2 - t1
            on_s += t3 - t2
            edits_off += edit_distance(ref, off.best)
            edits_on += edit_distance(ref, on.best)
            ref_chars += len(ref)
            outputs.append({
                "he_off": [e.transcript for e in off.nbest],
                "he_on": [e.transcript for e in on.nbest],
            })
            ok = nbest_sorted(off.nbest) and nbest_sorted(on.nbest)
            ops.append(OpResult((t1 - t0) + (t3 - t2), ok, None if ok else "n-best list empty or unsorted"))
        seconds = time.perf_counter() - start
        result = {"utterances": outputs}
        error = None
        if not edits_on < edits_off:
            error = f"HE-on edits {edits_on} not below HE-off edits {edits_off}"
        error = error or self.golden_mismatch(result)
        if error:
            for op in ops:
                op.ok, op.error = False, op.error or error
        stats = {
            "frames": frames, "he_off_s": off_s, "he_on_s": on_s,
            "edits_off": edits_off, "edits_on": edits_on, "ref_chars": ref_chars,
            "accuracy": 1.0 - edits_on / ref_chars if ref_chars else 0.0,
        }
        return PassResult(seconds, ops, result, stats)


class UWDiscover(Workload):
    """Variant-pair discovery over a 30,000-entry lexicon."""

    name = "uw_discover"

    def setup(self) -> None:
        from homodecode import lexicon, unified_writing

        self.lexicon = lexicon.load_lexicon(self.files["lexicon.tsv"])
        self.glyphs = [lexicon.load_cin_table(self.files[k]) for k in ("cin_a", "cin_b")]
        self.embeddings = unified_writing.load_embeddings(self.files["embeddings.vec"])

    def run_pass(self) -> PassResult:
        from homodecode import unified_writing

        self.mark_op(1)
        start = time.perf_counter()
        try:
            pairs = unified_writing.discover_pairs(
                self.lexicon, self.glyphs, self.embeddings, unified_writing.UWConfig()
            )
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            return PassResult(seconds, [OpResult(seconds, False, error)], {}, {"accuracy": 0.0})
        seconds = time.perf_counter() - start
        outputs = {"pairs": [[p.variant, p.canonical] for p in pairs]}
        found = {tuple(sorted(pair)) for pair in outputs["pairs"]}
        planted = [tuple(pair) for pair in self.info["planted"]]
        recall = sum(1 for pair in planted if pair in found) / len(planted)
        error = None if recall == 1.0 else f"recovered {recall:.2%} of planted pairs"
        error = error or self.golden_mismatch(outputs)
        return PassResult(seconds, [OpResult(seconds, error is None, error)], outputs, {"accuracy": recall})


WORKLOADS = {cls.name: cls for cls in (Ladder, Decode32k, UWDiscover)}
