"""Golden state-count reports: any change to a count fails here.

Each golden CSV was written by ``falab report-merge`` or
``falab report-per-pattern`` on the pattern set stored next to it, with
``--seed 3`` and the default cap.  Both reruns must reproduce it byte for
byte, except the ``# tool_version`` line.
"""

from pathlib import Path

import pytest

from falab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def without_version(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("# tool_version:")]


@pytest.mark.parametrize("command, name", [
    ("report-merge", "dotstar_all_input_k5"),
    ("report-per-pattern", "levenshtein_d3"),
])
def test_report_matches_golden_on_every_rerun(tmp_path, command, name):
    golden = (GOLDEN / f"{name}.{command}.csv").read_text()
    for run in range(2):
        out = tmp_path / f"{run}.csv"
        assert main([command, str(GOLDEN / f"{name}.json"), "--seed", "3",
                     "--out", str(out)]) == 0
        assert without_version(out.read_text()) == without_version(golden)
