"""Spans and counters around the public calls of each wordbeam module.

Each wrapped name is looked up at run time in the module (or class)
where the CLI, ``decoder.decode`` and ``trends`` find it, and replaced by
a wrapper. A name that no longer exists is reported as absent instead of
failing, so the benchmark keeps running across refactors that remove it.

``SetupClock`` is the one patch untraced runs use: it times a command's
set-up, from its start to its first decode, and removes itself at that
first decode. ``Tracer`` is used only by the traced run: it records a
span per call (name, start, end, parent and the id of the matrix or
sample being worked on).

High-frequency language-model calls (``conditional`` and friends) are
counted but get no span: millions of spans would not fit in memory and
would swamp the timings they try to explain. Their time stays in the
enclosing span.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

_MISSING = object()


class Patcher:
    """Replaces attributes of modules and classes and puts them back."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _original(self, owner, attr: str):
        raw = vars(owner).get(attr, _MISSING)
        if raw is _MISSING:
            self.absent.append(f"{_name(owner)}.{attr}")
            return None
        self._patched.append((owner, attr, raw))
        return getattr(owner, attr)

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        fn = self._original(owner, attr)
        if fn is not None:
            setattr(owner, attr, make(fn))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()


class SetupClock(Patcher):
    """Set-up time of one CLI command, measured inside the real command.

    Set-up runs from the command's start to its first decode (word beam
    search or best path, as the CLI and ``trends`` look them up), less
    the time spent before it producing matrices (reading a matrix file,
    or emitting a synthetic one). It covers whatever the command builds
    before decoding: word list, trie, language model, recognizers. The
    first decode removes every patch, so the rest of the command runs
    unwrapped.
    """

    def __init__(self, wb) -> None:
        super().__init__()
        self.start = perf_counter()
        self.first_decode: float | None = None
        self.producing: list[tuple[float, float]] = []  # wall intervals
        for owner in (wb.cli, wb.trends):
            for attr in ("decode", "best_path_decode"):
                self.replace(owner, attr, self._mark)
        self.replace(wb.cli, "read_matrix_file", self._producer)
        sim_cls = getattr(wb.trends, "RecognizerSim", None)
        if sim_cls is not None:
            self.replace(sim_cls, "emit", self._producer)
        else:
            self.absent.append("trends.RecognizerSim")

    def _mark(self, fn):
        def wrapper(*args, **kwargs):
            if self.first_decode is None:
                self.first_decode = perf_counter()
                self.restore()
            return fn(*args, **kwargs)

        return wrapper

    def _producer(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.producing.append((t0, perf_counter()))

        return wrapper

    def seconds(self, end: float, measure) -> float:
        """Set-up seconds; a command that never decoded is all set-up.

        ``measure(a, b)`` gives the seconds of the wall interval [a, b].
        """
        stop = self.first_decode if self.first_decode is not None else end
        return measure(self.start, stop) - sum(measure(a, b) for a, b in self.producing)


class Tracer(Patcher):
    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent, item id, info]
        self.counts: Counter[str] = Counter()
        self.item = ""
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, info])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- patching ------------------------------------------------------
    def timed(self, owner, attr: str, layer: str, *, info=None, item=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``info(bound)`` annotates the span, ``item(bound)`` sets the
        current matrix or sample id, ``after(bound, result)`` runs once
        the span is closed (for counters derived from the result).
        ``bound`` maps parameter names to the call's arguments.
        """
        fn = self._original(owner, attr)
        if fn is None:
            return
        sig = _signature(fn)
        needs_args = info is not None or item is not None or after is not None
        tracer = self

        def wrapper(*args, **kwargs):
            bound = _bind(sig, args, kwargs) if needs_args else None
            if item is not None:
                tracer.item = item(bound)
            idx = tracer.begin(layer, info(bound) if info is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(bound, result)
            return result

        setattr(owner, attr, wrapper)

    def counted(self, owner, attr: str, key: str) -> None:
        fn = self._original(owner, attr)
        if fn is None:
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- results -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, item, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "id": item, "info": info}) + "\n")


def _name(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind(sig, args, kwargs) -> dict:
    if sig is None:
        return {}
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _mode_name(mode) -> str:
    kind = getattr(mode, "kind", None)
    return kind.replace("_", "-") if isinstance(kind, str) else "unknown"


def tree_nodes(tree) -> int | None:
    """Nodes of a built prefix tree, root included, by walking its
    ``_root``/``children`` links; None when the tree is not built that way."""
    root = getattr(tree, "_root", None)
    if not isinstance(getattr(root, "children", None), dict):
        return None
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count


def install(tracer: Tracer, wb) -> None:
    """Wrap the public calls of every layer where their callers look them up.

    ``wb`` is a namespace holding the imported wordbeam modules.
    """
    cli, decoder, trends, files = wb.cli, wb.decoder, wb.trends, wb.files
    lm_cls = getattr(wb.language_model, "NgramModel", None)
    sim_cls = getattr(wb.synth, "RecognizerSim", None)

    def path_id(b):
        return str(b.get("path", ""))

    def count_nodes(b, tree):
        # The walk is the tracer's own work: its span keeps it out of
        # the caller's self time (trace.* spans belong to no layer).
        idx = tracer.begin("trace.count_nodes")
        nodes = tree_nodes(tree)
        tracer.end(idx)
        if nodes is None:
            tracer.absent.append("PrefixTree._root")
        else:
            tracer.counts["prefix_tree.nodes"] += nodes
            tracer.counts["prefix_tree.walked"] += 1

    def decode_info(b):
        m = b.get("m")
        return {"mode": _mode_name(b.get("mode")), "frames": getattr(m, "num_frames", 0)}

    def complete_info(b):
        return {"mode": _mode_name(b.get("mode"))}

    def count_completions(b, result):
        beams = b.get("beams")
        try:
            before = set(beams.keys())
            tracer.counts["decoder.completions"] += len(before - set(result.keys()))
        except AttributeError:
            pass

    def count_tie(b, result):
        hyps = b.get("hypotheses") or ()
        sizes = Counter(getattr(h, "text", None) for h in hyps)
        tracer.counts["ensemble.votes"] += 1
        if sizes:
            top = max(sizes.values())
            tracer.counts["ensemble.tie_breaks"] += sum(v == top for v in sizes.values()) > 1

    def vote_item(b):
        return f"vote{tracer.counts['ensemble.votes']}"

    tracer.timed(cli, "read_matrix_file", "files.read_matrix", item=path_id)
    tracer.timed(cli, "load_word_list", "files.load_word_list")
    tracer.timed(files, "PosteriorMatrix", "ctc.posterior_matrix")
    tracer.timed(wb.synth, "PosteriorMatrix", "ctc.posterior_matrix")
    for owner in (cli, trends):
        tracer.timed(owner, "PrefixTree", "prefix_tree.build", after=count_nodes)
        tracer.timed(owner, "best_path_decode", "ctc.best_path")
        tracer.timed(owner, "decode", "decoder.decode", info=decode_info)
        tracer.timed(owner, "vote", "ensemble.vote", item=vote_item, after=count_tie)
    tracer.timed(trends, "word_accuracy", "evaluation.word_accuracy")
    tracer.timed(cli, "run_trend_experiment", "trends.run")
    tracer.timed(decoder, "complete_beams", "decoder.complete", info=complete_info,
                 after=count_completions)
    tracer.replace(decoder, "frame_beams", lambda fn: _frame_counter(tracer, fn))
    if lm_cls is not None:
        tracer.timed(lm_cls, "train", "language_model.train")
        tracer.timed(lm_cls, "forecast_for_prefix", "language_model.forecast")
        for attr, key in (("remainder_probability", "language_model.remainder_calls"),
                          ("word_probability", "language_model.word_probability_calls"),
                          ("conditional", "language_model.conditional_calls")):
            tracer.counted(lm_cls, attr, key)
    else:
        tracer.absent.append("language_model.NgramModel")
    if sim_cls is not None:
        tracer.timed(sim_cls, "emit", "synth.emit", item=lambda b: str(b.get("word", "")))
    else:
        tracer.absent.append("synth.RecognizerSim")


def _frame_counter(tracer: Tracer, fn):
    """Wrap the per-frame beam generator to count merged and pruned candidates.

    The set yielded after a frame is cut to the beam width before the
    next frame; the last set goes to completion uncut.
    """
    sig = _signature(fn)
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        width = _bind(sig, args, kwargs).get("width", 0)
        gen = fn(*args, **kwargs)

        def frames():
            prev = None
            for beams in gen:
                n = len(beams)
                counts["decoder.frames_seen"] += 1
                counts["decoder.candidates"] += n
                if prev is not None and width:
                    counts["decoder.pruned"] += max(0, prev - width)
                prev = n
                yield beams

        return frames()

    return wrapper


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans and counters."""
    selft = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    frames: Counter[str] = Counter()
    decodes: Counter[str] = Counter()
    for (name, start, end, parent, item, info), st in zip(tracer.spans, selft):
        key = name
        if name in ("decoder.decode", "decoder.complete"):
            key = f"{name}.{info['mode']}"
            if name == "decoder.decode":
                frames[info["mode"]] += info["frames"]
                decodes[info["mode"]] += 1
        elif name.startswith("cli."):
            key = "cli"
        total[key] += st
        calls[key] += 1

    def per(key: str, scale: float, base: float | None = None) -> float:
        n = calls[key] if base is None else base
        return scale * total[key] / n if n else 0.0

    dict_modes = ("words", "ngrams", "ngrams-forecast", "ngrams-forecast-sample")
    lm_decodes = sum(decodes[m] for m in dict_modes[1:])
    forecast_decodes = decodes["ngrams-forecast"] + decodes["ngrams-forecast-sample"]
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {
        "cli.self_ms": (per("cli", 1e3), "ms"),
        "files.read_matrix_ms": (per("files.read_matrix", 1e3), "ms"),
        "ctc.posterior_matrix_ms": (per("ctc.posterior_matrix", 1e3), "ms"),
        "ctc.best_path_ms": (per("ctc.best_path", 1e3), "ms"),
        "files.load_word_list_s": (per("files.load_word_list", 1.0), "s"),
        "prefix_tree.build_s": (per("prefix_tree.build", 1.0), "s"),
        "prefix_tree.nodes": (c["prefix_tree.nodes"] / c["prefix_tree.walked"]
                              if c["prefix_tree.walked"] else 0.0, "count"),
        "language_model.train_s": (per("language_model.train", 1.0), "s"),
    }
    all_frames = sum(frames.values())
    all_decodes = sum(decodes.values())
    decode_self = sum(total[f"decoder.decode.{m}"] for m in dict_modes)
    complete_self = sum(total[f"decoder.complete.{m}"] for m in dict_modes)
    out["decoder.frame_us"] = (1e6 * decode_self / all_frames if all_frames else 0.0, "us")
    out["decoder.complete_ms"] = (1e3 * complete_self / all_decodes if all_decodes else 0.0, "ms")
    for m in dict_modes:
        out[f"decoder.frame_us.{m}"] = (per(f"decoder.decode.{m}", 1e6, frames[m]), "us")
        out[f"decoder.complete_ms.{m}"] = (per(f"decoder.complete.{m}", 1e3, decodes[m]), "ms")
    seen = c["decoder.frames_seen"]
    out["decoder.beams_per_frame"] = (c["decoder.candidates"] / seen if seen else 0.0, "count")
    out["decoder.pruned_share"] = (c["decoder.pruned"] / c["decoder.candidates"]
                                   if c["decoder.candidates"] else 0.0, "ratio")
    out["decoder.completions"] = (c["decoder.completions"] / all_decodes if all_decodes else 0.0,
                                  "count")
    out["language_model.forecast_ms"] = (per("language_model.forecast", 1e3, forecast_decodes),
                                         "ms")
    c["language_model.forecast_calls"] = calls["language_model.forecast"]
    for key in ("forecast_calls", "remainder_calls", "word_probability_calls",
                "conditional_calls"):
        n = c[f"language_model.{key}"]
        out[f"language_model.{key}"] = (n / lm_decodes if lm_decodes else 0.0, "count")
    votes = c["ensemble.votes"]
    out["ensemble.vote_us"] = (per("ensemble.vote", 1e6), "us")
    out["ensemble.tie_break_share"] = (c["ensemble.tie_breaks"] / votes if votes else 0.0, "ratio")
    out["synth.emit_ms"] = (per("synth.emit", 1e3), "ms")
    out["evaluation.word_accuracy_ms"] = (per("evaluation.word_accuracy", 1e3), "ms")
    out["trends.self_s"] = (per("trends.run", 1.0), "s")
    return out
