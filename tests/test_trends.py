"""Trend report layout."""

from wordbeam.trends import SeedOutcome, TrendConfig, TrendReport


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
