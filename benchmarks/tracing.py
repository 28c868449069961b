"""Spans and counters around the package's public functions, from outside.

The tracer replaces each target function wherever the package looks it
up: every ``homodecode`` module attribute bound to the original object
(so ``homodecode.decoder.score_increment`` and
``homodecode.evaluation.decode`` are both covered), or the class
attribute for a method such as ``HomophoneIndex.homophones_of``.  A
target that no longer exists is listed as absent and the metrics built
on it are left out.

Every call pushes a frame on a per-thread stack, so a span's self time is
its duration minus the time of the wrapped calls it made.  High-frequency
functions are marked ``leaf``: they only add to per-thread counters.
The others are kept as spans (id, parent, thread id, operation id, name,
start, end, self time, attributes) in per-thread lists and written out
when the run ends.  A span opened on a worker thread with an empty stack
takes as parent the innermost span open on the thread that started the
tracer, which is the ``run_comparison`` that owns the thread pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


# --- hooks: turn a call's arguments and result into span attributes or
#     counters.  Each gets (local, args, kwargs, result) and returns a dict
#     of span attributes (or None). ---

def _emissions_hook(local, args, kwargs, result):
    frames, width = result.log_probs.shape
    return {"frames": int(frames), "bytes": int(frames) * int(width) * 4}


def _homophones_hook(local, args, kwargs, result):
    local.distinct("lexicon.homophones_of", _arg(args, kwargs, 1, "char"))


def _score_increment_hook(local, args, kwargs, result):
    context = _arg(args, kwargs, 1, "context")
    local.distinct("ngram_lm.score_increment", hash((tuple(context), _arg(args, kwargs, 2, "next_token"))))


def _decode_hook(local, args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    index = _arg(args, kwargs, 2, "index")
    return {
        "he_on": bool(config.he_enabled and index is not None),
        "frames": _arg(args, kwargs, 0, "emissions").frames,
        "injections": len(result.he_injections),
        "config": repr(config),
    }


def _ctc_step_hook(local, args, kwargs, result):
    return {"hyps_out": len(result)}


def _extend_hook(local, args, kwargs, result):
    return {"hyps_in": len(_arg(args, kwargs, 0, "hyps")), "hyps_out": len(result)}


def _edit_distance_hook(local, args, kwargs, result):
    if _arg(args, kwargs, 0, "a") == _arg(args, kwargs, 1, "b"):
        local.count("unified_writing.edit_distance.identical")


def _apply_hook(local, args, kwargs, result):
    audit = result[1]
    return {"records": len(audit), "kept": sum(1 for record in audit if record.kept)}


def _comparison_hook(local, args, kwargs, result):
    return {"workers": _arg(args, kwargs, 3, "max_workers", 1), "utterances": len(_arg(args, kwargs, 0, "manifest"))}


@dataclass(frozen=True)
class Target:
    """A function to wrap: "module:attr" or "module:Class.method"."""

    path: str
    name: str
    leaf: bool = False
    hook: Callable | None = None


TARGETS = (
    Target("homodecode.emissions:load_vocab", "emissions.load_vocab"),
    Target("homodecode.emissions:load_emissions", "emissions.load_emissions", hook=_emissions_hook),
    Target("homodecode.lexicon:load_lexicon", "lexicon.load_lexicon"),
    Target("homodecode.lexicon:build_homophone_index", "lexicon.build_homophone_index"),
    Target("homodecode.lexicon:HomophoneIndex.homophones_of", "lexicon.homophones_of", True, _homophones_hook),
    Target("homodecode.lexicon:load_cin_table", "lexicon.load_cin_table"),
    Target("homodecode.ngram_lm:load_arpa", "ngram_lm.load_arpa"),
    Target("homodecode.ngram_lm:score_increment", "ngram_lm.score_increment", True, _score_increment_hook),
    Target("homodecode.ngram_lm:score_sequence", "ngram_lm.score_sequence", True),
    Target("homodecode.decoder:decode", "decoder.decode", hook=_decode_hook),
    Target("homodecode.decoder:ctc_step", "decoder.ctc_step", hook=_ctc_step_hook),
    Target("homodecode.decoder:extend_homophones", "decoder.extend_homophones", hook=_extend_hook),
    Target("homodecode.decoder:homophone_adjusted_prob", "decoder.homophone_adjusted_prob", True),
    Target("homodecode.unified_writing:load_embeddings", "unified_writing.load_embeddings"),
    Target("homodecode.unified_writing:load_pairs", "unified_writing.load_pairs"),
    Target("homodecode.unified_writing:load_frequency_table", "unified_writing.load_frequency_table"),
    Target("homodecode.unified_writing:discover_pairs", "unified_writing.discover_pairs"),
    Target("homodecode.unified_writing:normalized_edit_distance", "unified_writing.edit_distance", True,
           _edit_distance_hook),
    Target("homodecode.unified_writing:cosine_similarity", "unified_writing.cosine", True),
    Target("homodecode.unified_writing:apply_unified_writing", "unified_writing.apply", hook=_apply_hook),
    Target("homodecode.unified_writing:rewrite_checker_score", "unified_writing.checker", True),
    Target("homodecode.evaluation:load_manifest", "evaluation.load_manifest"),
    Target("homodecode.evaluation:run_comparison", "evaluation.run_comparison", hook=_comparison_hook),
    Target("homodecode.evaluation:character_edit_distance", "evaluation.edit_distance", True),
    Target("homodecode.cli:main", "cli.main"),
)

# Loader spans whose time counts as input loading when called directly by
# the command line entry point (cli.load.s).
LOADERS = (
    "emissions.load_vocab", "lexicon.load_lexicon", "lexicon.build_homophone_index",
    "lexicon.load_cin_table", "ngram_lm.load_arpa", "unified_writing.load_embeddings",
    "unified_writing.load_pairs", "unified_writing.load_frequency_table", "evaluation.load_manifest",
)


class _ThreadState:
    """Per-thread stack, call statistics, counters and finished spans."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[list] = []  # [span id or 0, start ns, child ns]
        self.calls: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters: dict[str, int] = {}
        self.sets: dict[str, set] = {}
        self.spans: list[tuple] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def distinct(self, name: str, key) -> None:
        self.sets.setdefault(name, set()).add(key)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.op_id = 0
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._root: _ThreadState | None = None
        self._merged: tuple | None = None

    # -- installation --

    def install(self) -> None:
        """Patch every target; the calling thread becomes the root thread."""
        self._root = self._state()
        for target in self.targets:
            module_name, _, attr = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(target.name)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    self.absent.append(target.name)
                    continue
                self._patch(owner, method, self._wrap(target, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "homodecode" or name.startswith("homodecode.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, target: Target, fn):
        tracer = self
        name, leaf, hook = target.name, target.leaf, target.hook
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if leaf:
                span_id = parent = 0
            else:
                span_id = next(tracer._ids)
                parent = tracer._parent(stack)
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                calls = state.calls.get(name)
                if calls is None:
                    calls = state.calls[name] = [0, 0, 0]
                calls[0] += 1
                calls[1] += duration
                calls[2] += duration - frame[2]
            attrs = None
            if hook is not None:
                try:
                    attrs = hook(state, args, kwargs, result)
                except Exception:  # a changed signature must not break the traced program
                    state.count(f"hook_errors.{name}")
            if not leaf:
                state.spans.append(
                    (span_id, parent, state.thread_id, tracer.op_id, name, frame[1], end, duration - frame[2], attrs)
                )
            return result

        return wrapper

    def _parent(self, stack: list[list]) -> int:
        for frame in reversed(stack):
            if frame[0]:
                return frame[0]
        root = self._root
        if root is not None and root.stack is not stack:
            for frame in reversed(list(root.stack)):
                if frame[0]:
                    return frame[0]
        return 0

    # -- results --

    def merged(self) -> tuple[dict, dict, dict, list[tuple]]:
        """Calls, counters, distinct sets and spans of every thread (read after the traced run)."""
        if self._merged is None:
            self._merged = self._merge()
        return self._merged

    def _merge(self) -> tuple[dict, dict, dict, list[tuple]]:
        calls: dict[str, list[int]] = {}
        counters: dict[str, int] = {}
        sets: dict[str, set] = {}
        spans: list[tuple] = []
        for state in self._states:
            for name, (n, total, self_ns) in state.calls.items():
                acc = calls.setdefault(name, [0, 0, 0])
                acc[0] += n
                acc[1] += total
                acc[2] += self_ns
            for name, n in state.counters.items():
                counters[name] = counters.get(name, 0) + n
            for name, keys in state.sets.items():
                sets.setdefault(name, set()).update(keys)
            spans.extend(state.spans)
        spans.sort(key=lambda span: span[0])
        return calls, counters, sets, spans

    def hook_errors(self) -> dict[str, int]:
        """Calls whose span attributes could not be read, by target."""
        counters = self.merged()[1]
        return {k.split(".", 1)[1]: n for k, n in counters.items() if k.startswith("hook_errors.")}

    def write_spans(self, path: str) -> None:
        fields = ("id", "parent", "thread", "op", "name", "start_ns", "end_ns", "self_ns", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.merged()[3]:
                fh.write(json.dumps(dict(zip(fields, span)), ensure_ascii=False) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed by name; metrics of absent targets are left out."""
        calls, counters, sets, spans = self.merged()
        by_id = {span[0]: span for span in spans}

        def n_calls(name):
            return calls.get(name, [0, 0, 0])[0]

        def total_s(*names):
            return sum(calls.get(name, [0, 0, 0])[1] for name in names) / 1e9

        def self_s(name):
            return calls.get(name, [0, 0, 0])[2] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        def named(name):
            return [span for span in spans if span[4] == name]

        def attr(span, key):
            return (span[8] or {}).get(key, 0)

        def attr_sum(name, key):
            return sum(attr(span, key) for span in named(name))

        def under(span, ancestor_name):
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[4] == ancestor_name:
                    return True
                parent = by_id.get(parent[1])
            return False

        decodes = named("decoder.decode")
        he_on = [s for s in decodes if attr(s, "he_on")]
        he_off = [s for s in decodes if not attr(s, "he_on")]
        comparisons = named("evaluation.run_comparison")
        compared = [s for s in decodes if under(s, "evaluation.run_comparison")]
        configs = {attr(s, "config") for s in compared}
        utterances = sum(attr(s, "utterances") for s in comparisons)
        ctc_steps = n_calls("decoder.ctc_step")
        extends = n_calls("decoder.extend_homophones")
        hyps_in = attr_sum("decoder.extend_homophones", "hyps_in")
        apply_records = attr_sum("unified_writing.apply", "records")
        cli_spans = {s[0] for s in named("cli.main")}
        report_write_ns = 0
        for main in named("cli.main"):
            ends = [s[6] for s in comparisons if s[1] == main[0]]
            if ends:
                report_write_ns += main[6] - max(ends)

        m = {
            "emissions.load.calls": n_calls("emissions.load_emissions"),
            "emissions.load.s": total_s("emissions.load_emissions"),
            "emissions.load.mb": attr_sum("emissions.load_emissions", "bytes") / 1e6,
            "lexicon.load.s": total_s("lexicon.load_lexicon"),
            "lexicon.index_build.s": total_s("lexicon.build_homophone_index"),
            "lexicon.homophones_of.calls": n_calls("lexicon.homophones_of"),
            "lexicon.homophones_of.s": total_s("lexicon.homophones_of"),
            "lexicon.homophones_of.distinct_ratio": ratio(
                len(sets.get("lexicon.homophones_of", ())), n_calls("lexicon.homophones_of")),
            "ngram_lm.load.s": total_s("ngram_lm.load_arpa"),
            "ngram_lm.score_increment.calls": n_calls("ngram_lm.score_increment"),
            "ngram_lm.score_increment.s": total_s("ngram_lm.score_increment"),
            "ngram_lm.score_increment.distinct_ratio": ratio(
                len(sets.get("ngram_lm.score_increment", ())), n_calls("ngram_lm.score_increment")),
            "ngram_lm.score_sequence.calls": n_calls("ngram_lm.score_sequence"),
            "ngram_lm.score_sequence.s": total_s("ngram_lm.score_sequence"),
            "decoder.decode.he_on.calls": len(he_on),
            "decoder.decode.he_on.s": sum(s[6] - s[5] for s in he_on) / 1e9,
            "decoder.decode.he_off.calls": len(he_off),
            "decoder.decode.he_off.s": sum(s[6] - s[5] for s in he_off) / 1e9,
            "decoder.ctc_step.calls": ctc_steps,
            "decoder.ctc_step.self_s": self_s("decoder.ctc_step"),
            "decoder.ctc_step.hyps_out_per_call": ratio(attr_sum("decoder.ctc_step", "hyps_out"), ctc_steps),
            "decoder.extend_homophones.self_s": self_s("decoder.extend_homophones"),
            "decoder.extend_homophones.hyps_in_per_call": ratio(hyps_in, extends),
            "decoder.extend_homophones.keep_ratio": ratio(
                attr_sum("decoder.extend_homophones", "hyps_out"), hyps_in),
            "decoder.homophone_adjusted_prob.calls": n_calls("decoder.homophone_adjusted_prob"),
            "decoder.he.injections": attr_sum("decoder.decode", "injections"),
            "unified_writing.load.s": total_s(
                "lexicon.load_cin_table", "unified_writing.load_embeddings",
                "unified_writing.load_pairs", "unified_writing.load_frequency_table"),
            "unified_writing.discover.s": total_s("unified_writing.discover_pairs"),
            "unified_writing.edit_distance.calls": n_calls("unified_writing.edit_distance"),
            "unified_writing.edit_distance.s": total_s("unified_writing.edit_distance"),
            "unified_writing.edit_distance.identical_share": ratio(
                counters.get("unified_writing.edit_distance.identical", 0), n_calls("unified_writing.edit_distance")),
            "unified_writing.cosine.calls": n_calls("unified_writing.cosine"),
            "unified_writing.cosine.s": total_s("unified_writing.cosine"),
            "unified_writing.apply.s": total_s("unified_writing.apply"),
            "unified_writing.checker.calls": n_calls("unified_writing.checker"),
            "unified_writing.checker.s": total_s("unified_writing.checker"),
            "unified_writing.checker.kept_ratio": ratio(attr_sum("unified_writing.apply", "kept"), apply_records),
            "evaluation.decode_calls": len(compared),
            "evaluation.distinct_configs": len(configs),
            "evaluation.decode_reuse": ratio(len(configs) * utterances, len(compared)),
            "evaluation.edit_distance.calls": n_calls("evaluation.edit_distance"),
            "evaluation.edit_distance.s": total_s("evaluation.edit_distance"),
            "evaluation.workers": max((attr(s, "workers") for s in comparisons), default=0),
            "evaluation.pool_parallelism": ratio(
                sum(s[6] - s[5] for s in compared), sum(s[6] - s[5] for s in comparisons)),
            "cli.compare.s": total_s("cli.main"),
            "cli.load.s": sum(s[6] - s[5] for s in spans if s[4] in LOADERS and s[1] in cli_spans) / 1e9,
            "cli.report_write.s": report_write_ns / 1e9,
        }
        return {
            name: value for name, value in m.items()
            if not any(dep in self.absent for dep in PER_LAYER[name][1])
        }


# name -> (unit, targets it is built from).  A metric is left out when one
# of its targets is absent.
PER_LAYER = {
    "emissions.load.calls": ("count", ("emissions.load_emissions",)),
    "emissions.load.s": ("s", ("emissions.load_emissions",)),
    "emissions.load.mb": ("MB", ("emissions.load_emissions",)),
    "lexicon.load.s": ("s", ("lexicon.load_lexicon",)),
    "lexicon.index_build.s": ("s", ("lexicon.build_homophone_index",)),
    "lexicon.homophones_of.calls": ("count", ("lexicon.homophones_of",)),
    "lexicon.homophones_of.s": ("s", ("lexicon.homophones_of",)),
    "lexicon.homophones_of.distinct_ratio": ("ratio", ("lexicon.homophones_of",)),
    "ngram_lm.load.s": ("s", ("ngram_lm.load_arpa",)),
    "ngram_lm.score_increment.calls": ("count", ("ngram_lm.score_increment",)),
    "ngram_lm.score_increment.s": ("s", ("ngram_lm.score_increment",)),
    "ngram_lm.score_increment.distinct_ratio": ("ratio", ("ngram_lm.score_increment",)),
    "ngram_lm.score_sequence.calls": ("count", ("ngram_lm.score_sequence",)),
    "ngram_lm.score_sequence.s": ("s", ("ngram_lm.score_sequence",)),
    "decoder.decode.he_on.calls": ("count", ("decoder.decode",)),
    "decoder.decode.he_on.s": ("s", ("decoder.decode",)),
    "decoder.decode.he_off.calls": ("count", ("decoder.decode",)),
    "decoder.decode.he_off.s": ("s", ("decoder.decode",)),
    "decoder.ctc_step.calls": ("count", ("decoder.ctc_step",)),
    "decoder.ctc_step.self_s": ("s", ("decoder.ctc_step",)),
    "decoder.ctc_step.hyps_out_per_call": ("hyps/call", ("decoder.ctc_step",)),
    "decoder.extend_homophones.self_s": ("s", ("decoder.extend_homophones",)),
    "decoder.extend_homophones.hyps_in_per_call": ("hyps/call", ("decoder.extend_homophones",)),
    "decoder.extend_homophones.keep_ratio": ("ratio", ("decoder.extend_homophones",)),
    "decoder.homophone_adjusted_prob.calls": ("count", ("decoder.homophone_adjusted_prob",)),
    "decoder.he.injections": ("count", ("decoder.decode",)),
    "unified_writing.load.s": ("s", ("unified_writing.load_embeddings",)),
    "unified_writing.discover.s": ("s", ("unified_writing.discover_pairs",)),
    "unified_writing.edit_distance.calls": ("count", ("unified_writing.edit_distance",)),
    "unified_writing.edit_distance.s": ("s", ("unified_writing.edit_distance",)),
    "unified_writing.edit_distance.identical_share": ("ratio", ("unified_writing.edit_distance",)),
    "unified_writing.cosine.calls": ("count", ("unified_writing.cosine",)),
    "unified_writing.cosine.s": ("s", ("unified_writing.cosine",)),
    "unified_writing.apply.s": ("s", ("unified_writing.apply",)),
    "unified_writing.checker.calls": ("count", ("unified_writing.checker",)),
    "unified_writing.checker.s": ("s", ("unified_writing.checker",)),
    "unified_writing.checker.kept_ratio": ("ratio", ("unified_writing.apply",)),
    "evaluation.decode_calls": ("count", ("decoder.decode", "evaluation.run_comparison")),
    "evaluation.distinct_configs": ("count", ("decoder.decode", "evaluation.run_comparison")),
    "evaluation.decode_reuse": ("ratio", ("decoder.decode", "evaluation.run_comparison")),
    "evaluation.edit_distance.calls": ("count", ("evaluation.edit_distance",)),
    "evaluation.edit_distance.s": ("s", ("evaluation.edit_distance",)),
    "evaluation.workers": ("count", ("evaluation.run_comparison",)),
    "evaluation.pool_parallelism": ("ratio", ("decoder.decode", "evaluation.run_comparison")),
    "cli.compare.s": ("s", ("cli.main",)),
    "cli.load.s": ("s", ("cli.main",)),
    "cli.report_write.s": ("s", ("cli.main", "evaluation.run_comparison")),
}
