"""CI's peak-memory steps and the scenarios of ``ci_peaks.py``."""

import re
from pathlib import Path

import ci_peaks

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_runs_every_scenario_once():
    called = re.findall(r"ci_peaks\.py\"?\s+([\w-]+)", WORKFLOW.read_text(encoding="utf-8"))
    assert sorted(called) == sorted(ci_peaks.SCENARIOS)
