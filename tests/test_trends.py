"""Trend report layout, the experiment's per-member memo, its batches and its one tree per seed."""

import hashlib
import random
import re
from collections import Counter

import pytest

from wordbeam import trends
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


# 80 words drawn from 20 per seed: most of the list repeats.
_MEMO_CFG = TrendConfig(seed=11, n_seeds=2, n_words=80, members=3, member_counts=(1, 3),
                        dictionary_size=20, noise_level=0.6, width=6)
_MEMO_REPORT_SHA256 = "c78374a097dc6ea44392d9c7eb950fd297ed0f73f38a631b60ac08d9e6e5d975"


def test_each_member_decodes_each_distinct_word_once(monkeypatch, one_process):
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
        dictionary = trends._make_dictionary(rng, cfg)
        distinct += len({rng.choice(dictionary) for _ in range(cfg.n_words)})
    assert distinct < cfg.n_seeds * cfg.n_words / 2
    assert set(calls.values()) == {1}
    assert len(calls) == (cfg.members + 1) * distinct  # every member, plus the plain lane
    assert max(batches) <= trends.BATCH_DECODES
    # The report of the experiment that decoded every word of the list.
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_both_lanes_share_one_tree_per_seed(monkeypatch, one_process):
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
        assert {a.separator for a in alphabets[id(tree)]} == {None, cfg.separator}
        assert len(tree._scorers) == 1
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_the_report_does_not_depend_on_the_batch_size(monkeypatch):
    # Batches of 7 split every lane, and the last batch of a lane runs short.
    monkeypatch.setattr(trends, "BATCH_DECODES", 7)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256


def test_first_matrix_is_emitted_alone_and_best_path_decoded_first(monkeypatch, one_process):
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


def test_a_lane_decodes_its_batches_shortest_first(monkeypatch, one_process):
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
def test_emission_goes_a_third_of_a_batch_at_a_time(monkeypatch, batch):
    if batch is not None:
        monkeypatch.setattr(trends, "BATCH_DECODES", batch)
    chunk = max(1, trends.BATCH_DECODES // 3)
    sizes: list[int] = []
    emit_many = trends.emit_many

    def recorded(pairs):
        sizes.append(len(pairs))
        return emit_many(pairs)

    monkeypatch.setattr(trends, "emit_many", recorded)
    report = run_trend_experiment(_MEMO_CFG).format()
    assert max(sizes) == chunk
    assert hashlib.sha256(report.encode()).hexdigest() == _MEMO_REPORT_SHA256
