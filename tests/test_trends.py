"""Trend report layout, its settings and columns, the experiment's
per-member memo, its batches and its one tree per seed."""

import dataclasses
import hashlib
import random
import re
from collections import Counter

import pytest

from wordbeam import InputValidationError, RecognizerSim, synth, trends
from wordbeam.cli import EXIT_OK, main
from wordbeam.trends import SeedOutcome, TrendConfig, TrendReport, run_trend_experiment


def _report(seed: int) -> TrendReport:
    cfg = TrendConfig(seed=seed, n_seeds=1, members=10)
    outcome = SeedOutcome(
        seed=seed,
        ensemble_accuracy={1: 96.67, 3: 90.0, 5: 93.33, 10: 100.0},
        wbs_plain=90.0, wbs_extrasep=96.67, bestpath_plain=50.0, bestpath_extrasep=60.0,
    )
    return TrendReport(config=cfg, outcomes=[outcome])


def _seed_row(report: TrendReport) -> str:
    seed = str(report.outcomes[0].seed)
    return next(line for line in report.format().splitlines() if line.startswith(seed))


def test_long_seed_is_its_own_cell():
    row = _seed_row(_report(3141592653))
    assert row.split() == ["3141592653", "96.67", "90.00", "93.33", "100.00"]


def test_short_seed_keeps_the_column_layout():
    row = _seed_row(_report(7))
    assert row == "7         96.67    90.00    93.33    100.00"


@pytest.mark.parametrize("fields, message", [
    ({"n_words": 0}, "n_seeds, n_words and members must be positive"),
])
def test_config_rejects_bad_fields(fields, message):
    with pytest.raises(InputValidationError, match=message):
        TrendConfig(**fields)


def test_only_what_a_caller_sets_is_a_field():
    # The experiment's design is module constants; the columns follow from members.
    assert [f.name for f in dataclasses.fields(TrendConfig)] == [
        "seed", "n_seeds", "n_words", "members", "noise_level", "width"]
    assert len(dataclasses.fields(RecognizerSim)) == 5


def test_member_counts_follow_from_members():
    assert TrendConfig(members=3).member_counts == (1, 3)
    assert TrendConfig().member_counts == (1, 3, 5, 10)
    assert TrendConfig(members=12).member_counts == (1, 3, 5, 10, 12)


@pytest.mark.parametrize("members", range(1, 13))
def test_report_columns_follow_from_members(capsys, members):
    # The columns the command printed when it worked them out itself.
    counts = tuple(c for c in (1, 3, 5, 10) if c <= members)
    if members not in counts:
        counts = counts + (members,)
    assert main(["reproduce-trends", "--seeds", "1", "--n-words", "5",
                 "--members", str(members)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("seed "))
    assert header == "seed      " + "".join(f"n={c:<7}" for c in counts)
    mean = next(line for line in lines if line.startswith("mean "))
    assert len(mean.split()) == 1 + len(counts)
    gains = any(line.startswith("ensemble gains") for line in lines)
    assert gains == ({1, 5, 10} <= set(counts))


# 80 words drawn from 20 per seed: most of the list repeats.
_MEMO_CFG = TrendConfig(seed=11, n_seeds=2, n_words=80, members=3, noise_level=0.6, width=6)
_MEMO_REPORT_SHA256 = "c78374a097dc6ea44392d9c7eb950fd297ed0f73f38a631b60ac08d9e6e5d975"


@pytest.fixture
def memo_dictionary(monkeypatch):
    """Dictionaries of 20 words, as ``_MEMO_REPORT_SHA256`` was taken with."""
    monkeypatch.setattr(trends, "DICTIONARY_SIZE", 20)


def test_each_member_decodes_each_distinct_word_once(monkeypatch, one_process, memo_dictionary):
    cfg = _MEMO_CFG
    calls: Counter = Counter()
    batches: list[int] = []
    decode_batch = trends.decode_batch

    def counted(matrices, alphabet, tree, *, width):
        batches.append(len(matrices))
        for m in matrices:
            calls[alphabet, m.probs.tobytes()] += 1  # one matrix per (member, lane, word)
        return decode_batch(matrices, alphabet, tree, width=width)

    monkeypatch.setattr(trends, "decode_batch", counted)
    report = run_trend_experiment(cfg).format()
    distinct = 0
    for k in range(cfg.n_seeds):
        rng = random.Random(f"trend|{cfg.seed + 1000 * k}")
        dictionary = trends._make_dictionary(rng)
        distinct += len({rng.choice(dictionary) for _ in range(cfg.n_words)})
    assert distinct < cfg.n_seeds * cfg.n_words / 2
    assert set(calls.values()) == {1}
    assert len(calls) == (cfg.members + 1) * distinct  # every member, plus the plain lane
    assert max(batches) <= trends.BATCH_DECODES
    # The report of the experiment that decoded every word of the list.
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_both_lanes_share_one_tree_per_seed(monkeypatch, one_process, memo_dictionary):
    cfg = _MEMO_CFG
    built: list = []
    alphabets: dict[int, set] = {}
    tree_class, decode_batch = trends.PrefixTree, trends.decode_batch

    def counted_tree(*args):
        built.append(tree_class(*args))
        return built[-1]

    def recorded(matrices, alphabet, tree, *, width):
        alphabets.setdefault(id(tree), set()).add(alphabet)
        return decode_batch(matrices, alphabet, tree, width=width)

    monkeypatch.setattr(trends, "PrefixTree", counted_tree)
    monkeypatch.setattr(trends, "decode_batch", recorded)
    report = run_trend_experiment(cfg).format()
    assert len(built) == cfg.n_seeds
    for tree in built:
        # the plain and the extra-separator lane, through one words-mode scorer
        assert {a.separator for a in alphabets[id(tree)]} == {None, trends.SEPARATOR}
        assert len(tree._scorers) == 1
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_the_report_does_not_depend_on_the_batch_size(monkeypatch, memo_dictionary):
    # Batches of 7 split every lane, and the last batch of a lane runs short.
    monkeypatch.setattr(trends, "BATCH_DECODES", 7)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_first_matrix_is_emitted_alone_and_best_path_decoded_first(monkeypatch, one_process,
                                                                    memo_dictionary):
    # A command's set-up ends at its first decode, less the time spent
    # emitting before it: the first matrix comes from ``RecognizerSim.emit``
    # alone and is best-path decoded alone before anything else is emitted.
    # The first member's other best paths are taken once per decode batch.
    events: list[str] = []
    emit, emit_many = trends.RecognizerSim.emit, trends.emit_many
    best_path_decode, decode_batch = trends.best_path_decode, trends.decode_batch

    def recorded_emit(self, word):
        events.append("emit")
        return emit(self, word)

    def recorded_emit_many(pairs):
        events.append("emit_many")
        return emit_many(pairs)

    def recorded_best_path(matrices, alphabet):
        events.append(f"best_path {len(matrices)}")
        return best_path_decode(matrices, alphabet)

    monkeypatch.setattr(trends.RecognizerSim, "emit", recorded_emit)
    monkeypatch.setattr(trends, "emit_many", recorded_emit_many)
    def recorded_decode_batch(matrices, alphabet, tree, *, width):
        events.append("decode")
        return decode_batch(matrices, alphabet, tree, width=width)

    monkeypatch.setattr(trends, "best_path_decode", recorded_best_path)
    monkeypatch.setattr(trends, "decode_batch", recorded_decode_batch)
    monkeypatch.setattr(trends, "BATCH_DECODES", 7)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert events[:3] == ["emit", "best_path 1", "emit_many"]
    assert "emit_many" in events[events.index("emit", 1):]  # each lane batches its rest
    # Each lane: its lone first matrix, then one best path call before the
    # decode of each batch that holds first-member jobs.
    calls = "".join(f"{e};" for e in events if not e.startswith("emit"))
    lanes = re.findall(r"best_path 1;(?:(?:best_path \d+;)?decode;)+", calls)
    assert "".join(lanes) == calls
    assert len(lanes) == 2 * _MEMO_CFG.n_seeds
    assert calls.count("decode") > len(lanes)
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_a_lane_decodes_its_batches_shortest_first(monkeypatch, one_process, memo_dictionary):
    # A lane's jobs go by word length, so a batch's longest matrix is no
    # longer than the next batch's shortest.
    monkeypatch.setattr(trends, "BATCH_DECODES", 7)
    lanes: dict = {}
    decode_batch = trends.decode_batch

    def recorded(matrices, alphabet, tree, *, width):
        frames = [m.num_frames for m in matrices]
        lanes.setdefault((id(tree), alphabet), []).append((min(frames), max(frames)))
        return decode_batch(matrices, alphabet, tree, width=width)

    monkeypatch.setattr(trends, "decode_batch", recorded)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert len(lanes) == 2 * _MEMO_CFG.n_seeds
    for spans in lanes.values():
        assert len(spans) > 2
        for (_, longest), (shortest, _) in zip(spans, spans[1:]):
            assert longest <= shortest
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


@pytest.mark.parametrize("batch", [None, 7, 2])
def test_a_lane_emits_each_batch_by_one_call(monkeypatch, one_process, memo_dictionary, batch):
    # ``emit_many`` bounds its own temporaries, so a lane hands it a whole
    # batch: a lane's first batch less its lone first matrix, then whole ones.
    if batch is not None:
        monkeypatch.setattr(trends, "BATCH_DECODES", batch)
    events: list[tuple[str, int]] = []
    parts: list[int] = []
    emit_many, emit_width, decode_batch = trends.emit_many, synth._emit_width, trends.decode_batch

    def recorded_emit_many(pairs):
        events.append(("emit", len(pairs)))
        return emit_many(pairs)

    def recorded_emit_width(plans, c_max):
        parts.append(len(plans))
        return emit_width(plans, c_max)

    def recorded_decode_batch(matrices, alphabet, tree, *, width):
        events.append(("decode", len(matrices)))
        return decode_batch(matrices, alphabet, tree, width=width)

    monkeypatch.setattr(trends, "emit_many", recorded_emit_many)
    monkeypatch.setattr(synth, "_emit_width", recorded_emit_width)
    monkeypatch.setattr(trends, "decode_batch", recorded_decode_batch)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert [kind for kind, _ in events] == ["emit", "decode"] * (len(events) // 2)
    emitted, decoded = [n for _, n in events[0::2]], [n for _, n in events[1::2]]
    lanes = 2 * _MEMO_CFG.n_seeds
    steps = sorted(d - e for e, d in zip(emitted, decoded))
    assert steps == [0] * (len(decoded) - lanes) + [1] * lanes
    assert max(decoded) <= trends.BATCH_DECODES
    assert sum(d < trends.BATCH_DECODES for d in decoded) <= lanes
    assert max(parts) == min(synth.EMIT_JOBS, trends.BATCH_DECODES)
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256
