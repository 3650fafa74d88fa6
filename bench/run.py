"""Benchmark of the wordbeam CLI on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload short-words --seed 1 --seconds 20 --trace 0

The run generates its inputs from ``--seed`` under ``.bench_work/``,
then runs the workload's commands through ``wordbeam.cli.main`` in this
process, back to back, in passes for about ``--seconds`` (at least two
passes). Each untraced command also reports its set-up: the time it
spends before its first decode, apart from producing matrices. Every
output is checked and fingerprinted. Untraced times are in reference
seconds, scaled by the host's speed as sampled during the command (see
``speed.py``); they are medians over the passes.
With ``--trace 1`` the passes alternate between untraced and traced, and
the per-layer figures come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the full record (per-command figures, fingerprints, input
statistics, environment, and with tracing every layer figure). See
``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

MODES = ("bestpath", "words", "ngrams", "ngrams-forecast", "ngrams-forecast-sample")
# The long-lines and trends passes take 8-12 reference seconds (up to
# 20 s of wall time on a slow host); a third pass would make each of
# their runs take a minute or more.
MIN_PASSES = 2
ROOT_SHARE_MIN = 0.99  # least share of a traced command's wall time its spans cover


@dataclass
class Command:
    name: str
    argv: list[str]
    frames: int  # total frames of the matrices it reads; 0 for reproduce-trends
    items: int  # matrices decoded, samples voted, or report cells
    check: object  # stdout -> check.Checked
    # A command whose cost varies too much from seed to seed for any
    # affordable run to steady it runs once per run (traced in a traced
    # run): it is checked, fingerprinted and timed, and its set-up counts
    # in ``setup_s``, but it is left out of ``batch_s``.
    bounded: bool = True
    # word_accuracy leaves out best path, which has no search to prune
    # and whose accuracy on noisy input swings from seed to seed, and the
    # long-lines line that underflows.
    scored: bool = True
    # An unbounded command that runs after the passes, once peak memory
    # has been read: the long-lines line that underflows, as its memory
    # depends on whether it does (see long_lines).
    after_peak: bool = False


@dataclass
class Workload:
    commands: list[Command]
    stats: dict = field(default_factory=dict)


def load_wordbeam():
    src = ROOT / "src"
    if not (src / "wordbeam" / "__init__.py").is_file():
        raise ImportError(f"no wordbeam package under {src}")
    sys.path.insert(0, str(src))
    from wordbeam import cli, decoder, files, language_model, synth, trends

    return types.SimpleNamespace(cli=cli, decoder=decoder, files=files,
                                 language_model=language_model, synth=synth, trends=trends)


# -- workloads ------------------------------------------------------------

# Each bounded command is sized to take a similar share of a pass, so
# that a slowdown of any one of them moves ``batch_s`` (see README).
# Best path reads the same files several times over: parsing is most of
# its cost, and one read of each file is too little work to weigh.

def short_words(seed: int) -> Workload:
    """Isolated words, extra separator over a-j, 2,000 words, width 25, 3 members."""
    inp = inputs.short_words(WORK / f"short-words-{seed}", seed, n_samples=100, members=3)
    d = _rel(inp.dict_path)
    dictionary = frozenset(inp.words)
    sep = inputs.SHORT_SEPARATOR
    flags = ["--scheme", "extrasep", "--sep", sep, "--width", "25"]
    # (matrices, repeats) per mode; the LM modes cost 10-40x more per
    # matrix than words mode, so they run on slices.
    slices = {"bestpath": (100, 30), "words": (100, 2), "ngrams": (15, 1),
              "ngrams-forecast": (3, 1), "ngrams-forecast-sample": (4, 1)}
    commands = []
    for mode in MODES:
        count, repeats = slices[mode]
        names = inp.names[:count] * repeats
        paths = [_rel(p) for p in inp.paths(0, names)]
        dict_flags = [] if mode == "bestpath" else ["--dict", d]
        commands.append(Command(
            f"decode {mode}", ["decode", *paths, "--mode", mode, *dict_flags, *flags],
            sum(inp.frames[n] for n in names), len(names),
            _decode_check(paths, [inp.truth[n] for n in names],
                          None if mode == "bestpath" else dictionary, sep),
            scored=mode != "bestpath",
        ))
    dirs = [_rel(p) for p in inp.member_dirs]
    ids = sorted(inp.names)
    truth = [inp.truth[n] for n in ids]
    commands.append(Command(
        "ensemble words", ["ensemble", *dirs, "--mode", "words", "--dict", d, *flags],
        3 * sum(inp.frames.values()), len(ids),
        lambda out: check.check_rows(out, ids, truth, dictionary, sep, check.group_size_ok(3)),
    ))
    return Workload(commands, _stats(inp))


# Line lengths in characters, spread evenly over the 2-24 word range; a
# line grows word by word until it reaches its target, so every seed has
# the same length profile (about 5 frames per character). The profile
# runs four times over: recognition errors come in bursts of several
# words on one line (a spurious space turns one word into two or three
# short dictionary words), so word_accuracy spreads widely from seed to
# seed. Over ten-seed sets drawn from 60 seeds, its spread (IQR /
# median) had a median of 0.055 with one copy (about 120 words), 0.030
# with three and 0.026 with four (0.037 at the 90th percentile).
LINE_TARGETS = (20, 40, 60, 80, 100, 120, 140, 160, 999) * 4
BESTPATH_REPEATS = 5
# ngrams mode runs once per run, on the two shortest lines and on the
# longest one (where linear-domain scores underflow). A short line costs
# 0.04-2.3 s in that mode depending on its words, so the two-line slice
# spreads 0.35 (IQR / median) over seeds 1-10: in every pass it would
# set the spread of batch_s. Its set-up (word list, trie, LM) stays in
# setup_s. The longest line underflows to a score of exactly 0.0 at
# 7-9 of ten seeds, and the process then peaks about a third higher in
# memory (129 against 97 MiB), so it runs after peak_rss_mib is read.
NGRAM_LINES = (0, 1)
LONGEST_LINE = 8


def long_lines(seed: int) -> Workload:
    """Lines of 2-24 words over a-z, 50,000 words, plain coding, width 25."""
    inp = inputs.long_lines(WORK / f"long-lines-{seed}", seed, LINE_TARGETS)
    d = _rel(inp.dict_path)
    dictionary = frozenset(inp.words)
    space = inputs.LONG_SPACE
    runs = [("bestpath", "bestpath", inp.names * BESTPATH_REPEATS, True),
            ("words", "words", inp.names, True),
            ("ngrams", "ngrams", [inp.names[i] for i in NGRAM_LINES], False),
            ("ngrams", "ngrams longest-line", [inp.names[LONGEST_LINE]], False)]
    commands = []
    for mode, label, names, bounded in runs:
        paths = [_rel(p) for p in inp.paths(0, names)]
        dict_flags = [] if mode == "bestpath" else ["--dict", d, "--nonword-chars", space]
        commands.append(Command(
            f"decode {label}", ["decode", *paths, "--mode", mode, "--width", "25", *dict_flags],
            sum(inp.frames[n] for n in names), len(names),
            _decode_check(paths, [inp.truth[n] for n in names],
                          None if mode == "bestpath" else dictionary, space),
            bounded=bounded, scored=mode != "bestpath" and label != "ngrams longest-line",
            after_peak=label == "ngrams longest-line",
        ))
    return Workload(commands, _stats(inp))


# word_accuracy varies from seed to seed with the experiment's random
# dictionary as well as with the words drawn, so a pass spreads its
# words over many experiment seeds. Its spread (IQR / median) over seeds
# 1-20 was 0.031 with one experiment seed of 300 words and 0.019 with
# ten seeds of 30 words; with twenty seeds of 30 words (twice the cost)
# it was 0.006 over seeds 1-40. Each experiment seed is a command of its
# own, so that a pass times the experiment's set-up 20 times: one
# set-up takes about 5 ms and spreads by a third between passes.
TREND_RUNS = 20
TREND_WORDS = 30
TREND_MEMBERS = 10
TREND_COUNTS = (1, 3, 5, 10)  # ensemble sizes the report shows for 10 members


def trends(seed: int) -> Workload:
    """reproduce-trends at 20 experiment seeds, 10 members, default noise, width 8."""
    commands = []
    for j in range(TREND_RUNS):
        argv = ["reproduce-trends", "--seed", str(seed * TREND_RUNS + j), "--seeds", "1",
                "--members", str(TREND_MEMBERS), "--n-words", str(TREND_WORDS), "--width", "8"]
        commands.append(Command(
            f"reproduce-trends {j}", argv, 0, 1 + len(TREND_COUNTS) + 4,
            lambda out: check.check_trend_report(out, TREND_COUNTS)))
    return Workload(commands, {"experiment_seeds": TREND_RUNS, "words_per_seed": TREND_WORDS,
                               "members": TREND_MEMBERS})


WORKLOADS = {"short-words": short_words, "long-lines": long_lines, "trends": trends}


def _rel(path) -> str:
    return Path(path).relative_to(ROOT).as_posix()


def _decode_check(ids, truth, dictionary, nonword):
    return lambda out: check.check_rows(out, ids, truth, dictionary, nonword, check.score_ok)


def _stats(inp: inputs.Inputs) -> dict:
    frames = sorted(inp.frames.values())
    return {
        "matrices": len(frames), "members": len(inp.member_dirs),
        "frames_min": frames[0], "frames_median": statistics.median(frames),
        "frames_max": frames[-1], "dictionary_words": len(inp.words),
        "trie_nodes": inputs.trie_nodes(inp.words),
    }


# -- measurement ----------------------------------------------------------

def run_command(wb, cmd: Command, clock: tracing.SetupClock | None = None):
    """(stdout, exit code) of one CLI command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            if clock is not None:
                clock.start = perf_counter()
            rc = wb.cli.main(list(cmd.argv))
        finally:
            if clock is not None:
                clock.restore()
    return buf.getvalue(), rc


@dataclass
class PassLog:
    # Untraced times are reference seconds (see speed.py), traced ones wall.
    times: dict[str, list[float]]  # seconds per untraced run of each command
    setups: dict[str, list[float]]  # set-up seconds per untraced run
    outputs: dict[str, list[str]]
    codes: dict[str, list[int]]
    untraced: list[float]  # seconds per pass
    traced: list[float]
    untraced_wall: list[float] = field(default_factory=list)  # wall seconds per pass
    # Per traced command: the share of its measured wall time that its
    # root span, and so the self times of the spans under it, covers.
    root_shares: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0  # read after the passes, before the after_peak commands


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(wb, wl: Workload, seconds: float, tracer: tracing.Tracer | None) -> PassLog:
    """Closed loop over the workload's commands for about ``seconds``.

    Commands that are not bounded run once first (traced in a traced run).
    Then the bounded commands run in passes until ``seconds`` have passed
    since the start, and at least ``MIN_PASSES`` untraced passes ran.
    With a tracer, passes alternate untraced / traced, and at least
    ``MIN_PASSES`` of each run. Last, peak memory is read and the
    ``after_peak`` commands run once.
    """
    names = [c.name for c in wl.commands]
    log = PassLog(*({n: [] for n in names} for _ in range(4)), [], [])
    once = [c for c in wl.commands if not c.bounded and not c.after_peak]
    bounded = [c for c in wl.commands if c.bounded]
    start = perf_counter()
    run_pass(wb, once, log, tracer)
    while True:
        traced = tracer is not None and len(log.traced) < len(log.untraced)
        total, wall = run_pass(wb, bounded, log, tracer if traced else None)
        if traced:
            log.traced.append(wall)
        else:
            log.untraced.append(total)
            log.untraced_wall.append(wall)
        enough = len(log.untraced) >= MIN_PASSES and (tracer is None
                                                      or len(log.traced) >= MIN_PASSES)
        if enough and perf_counter() - start >= seconds:
            break
    log.peak_rss_mib = peak_rss_mib()
    run_pass(wb, [c for c in wl.commands if c.after_peak], log, tracer)
    return log


def run_pass(wb, commands: list[Command], log: PassLog,
             tracer: tracing.Tracer | None) -> tuple[float, float]:
    """Run each command once; return the summed (reference, wall) time.

    Untraced commands run under a ``speed.SpeedSampler`` and are timed in
    reference seconds; traced ones in wall seconds, both figures alike.
    """
    total = total_wall = 0.0
    if tracer is not None:
        tracing.install(tracer, wb)
    try:
        for cmd in commands:
            gc.collect()
            if tracer is None:
                clock = tracing.SetupClock(wb)
                with speed.SpeedSampler() as sampler:
                    t0 = perf_counter()
                    out, rc = run_command(wb, cmd, clock)
                    t1 = perf_counter()
                wall, elapsed = sampler.measure(t0, t1)
                log.times[cmd.name].append(elapsed)
                log.setups[cmd.name].append(
                    clock.seconds(t1, lambda a, b: sampler.measure(a, b)[1]))
            else:
                root = len(tracer.spans)
                t0 = perf_counter()
                idx = tracer.begin("cli." + cmd.argv[0])
                try:
                    out, rc = run_command(wb, cmd)
                finally:
                    tracer.end(idx)
                wall = elapsed = perf_counter() - t0
                _, begin, end = tracer.spans[root][:3]
                log.root_shares.append((end - begin) / elapsed)
            total += elapsed
            total_wall += wall
            log.outputs[cmd.name].append(out)
            log.codes[cmd.name].append(rc)
    finally:
        if tracer is not None:
            tracer.restore()
    return total, total_wall


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="wordbeam benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        wb = load_wordbeam()
    except ImportError as exc:
        print(f"bench: cannot import the program from source: {exc}", file=sys.stderr)
        return 2
    run_start = perf_counter()
    os.chdir(ROOT)
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed)

    tracer = tracing.Tracer() if args.trace else None
    log = run_passes(wb, wl, args.seconds, tracer)

    correct = True
    problems: list[str] = []
    stored = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    attempted = failed = 0
    words = hits = 0.0
    per_command: dict[str, dict] = {}
    for cmd in wl.commands:
        outs, codes = log.outputs[cmd.name], log.codes[cmd.name]
        prints = [check.fingerprint(o) for o in outs]
        if any(c != 0 for c in codes):
            correct = False
            problems.append(f"{cmd.name}: exit codes {sorted(set(codes))}")
        if len(set(prints)) != 1:
            correct = False
            problems.append(f"{cmd.name}: output differs between passes of the same code")
        result = cmd.check(outs[0])
        attempted += result.attempted
        failed += result.failed
        if cmd.scored:
            words += result.words
            hits += result.hits
        # A traced run runs its unbounded commands traced only.
        times, setups = log.times[cmd.name], log.setups[cmd.name]
        median_s = statistics.median(times) if times else None
        want = stored.get("workloads", {}).get(args.workload, {}).get(cmd.name)
        status = "unrecorded"
        if args.seed == stored.get("seed") and want is not None:
            status = "same" if want == prints[0] else "changed"
        per_command[cmd.name] = {
            "median_s": median_s, "times_s": times, "items": cmd.items,
            "setup_s": statistics.median(setups) if setups else None, "setups_s": setups,
            "items_per_s": cmd.items / median_s if times else None, "bounded": cmd.bounded,
            "us_per_frame": median_s / cmd.frames * 1e6 if times and cmd.frames else None,
            "accuracy": result.accuracy,
            "attempted": result.attempted, "failed": result.failed,
            "sha256": prints[0], "fingerprint": status,
        }
        if status == "changed":
            print(f"changed: {args.workload} {cmd.name} sha256 {prints[0]}")

    # Per-command figures under the names users look for.
    by_command = {}
    for cmd in wl.commands:
        pc = per_command[cmd.name]
        if cmd.name.startswith("decode "):
            by_command["matrices_per_s." + cmd.name[7:].replace(" ", ".")] = pc["items_per_s"]
        elif cmd.name.startswith("ensemble"):
            by_command["ensemble_samples_per_s"] = pc["items_per_s"]
        else:
            by_command["trend_s"] = by_command.get("trend_s", 0.0) + pc["median_s"]
    by_command["failed_share"] = failed / attempted

    # Set-up of a pass: the summed set-up of its bounded commands, plus
    # that of the commands run once (from their one untraced run).
    bounded = [c.name for c in wl.commands if c.bounded]
    bounded_s = sum(per_command[n]["median_s"] for n in bounded)
    for n in bounded:
        per_command[n]["share"] = per_command[n]["median_s"] / bounded_s
    once_setup = sum(log.setups[c.name][0] for c in wl.commands
                     if not c.bounded and log.setups[c.name])
    pass_setups = [once_setup + sum(log.setups[n][i] for n in bounded)
                   for i in range(len(log.untraced))]
    end_to_end = {
        "setup_s": (statistics.median(pass_setups), "s"),
        "batch_s": (statistics.median(log.untraced), "s"),
        "word_accuracy": (100.0 * hits / words, "%"),
        "peak_rss_mib": (log.peak_rss_mib, "MiB"),
    }
    record = {
        "workload": args.workload, "environment": environment(args.seed),
        "inputs": wl.stats, "setup_times_s": pass_setups, "pass_times_s": log.untraced,
        "pass_wall_s": log.untraced_wall, "peak_rss_mib_final": peak_rss_mib(),
        "passes": len(log.untraced), "commands": per_command, "by_command": by_command,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "problems": problems,
    }
    layers: dict[str, tuple[float, str]] = {}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        overhead = statistics.median(log.traced) / statistics.median(log.untraced_wall) - 1.0
        layers["trace.overhead_share"] = (overhead, "ratio")
        selft = tracer.self_times()
        cli_self = [st / (s[2] - s[1]) for s, st in zip(tracer.spans, selft)
                    if s[3] < 0 and s[0].startswith("cli.")]
        open_spans = sum(s[2] == 0.0 for s in tracer.spans)
        covered = min(log.root_shares)
        trace_file = work / "trace.jsonl"
        tracer.write(trace_file)
        record["layers"] = {k: v[0] for k, v in layers.items()}
        record["trace"] = {"absent": sorted(set(tracer.absent)), "spans": len(tracer.spans),
                           "root_share_min": covered, "cli_self_share_max": max(cli_self),
                           "file": _rel(trace_file)}
        # Self times add up to their root span by definition; what can
        # fail is the root span covering the wall time measured around
        # the command, with every span closed.
        if covered < ROOT_SHARE_MIN or open_spans:
            correct = False
            problems.append(f"spans cover only {covered:.4f} of a command's wall time, "
                            f"{open_spans} spans left open")
    # BENCHMARK.json names the metrics of the result line: every
    # end-to-end metric untraced, every per-layer metric traced.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    source = layers if tracer is not None else end_to_end
    names = [m["name"] for m in listed["per_layer" if tracer is not None else "end_to_end"]]
    metrics = {name: source[name] for name in names}
    record["wall_s"] = perf_counter() - run_start
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
