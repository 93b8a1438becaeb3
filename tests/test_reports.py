"""Golden state-count reports: any change to a count fails here.

Each golden CSV was written by ``falab report-merge`` or
``falab report-per-pattern`` on the pattern set stored next to it, with
``--seed 3`` and the default cap.  Both reruns must reproduce it byte for
byte, except the ``# tool_version`` line, and so must a run on the
Python kernel, whose subset walk is the specification of the compiled
one.
"""

from pathlib import Path

import pytest

from falab.cli import main

from conftest import cli_with_python_kernel

GOLDEN = Path(__file__).parent / "golden"


def without_version(text: str) -> list[str]:
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("# tool_version:")]


REPORTS = [
    ("report-merge", "dotstar_all_input_k5"),
    ("report-per-pattern", "levenshtein_d3"),
]


@pytest.mark.parametrize("command, name", REPORTS)
def test_report_matches_golden_on_every_rerun(tmp_path, command, name):
    golden = (GOLDEN / f"{name}.{command}.csv").read_text()
    for run in range(2):
        out = tmp_path / f"{run}.csv"
        assert main([command, str(GOLDEN / f"{name}.json"), "--seed", "3",
                     "--out", str(out)]) == 0
        assert without_version(out.read_text()) == without_version(golden)


@pytest.mark.parametrize("command, name", REPORTS)
def test_report_matches_golden_on_the_python_kernel(tmp_path, command, name):
    golden = (GOLDEN / f"{name}.{command}.csv").read_text()
    out = tmp_path / "out.csv"
    proc = cli_with_python_kernel([command, str(GOLDEN / f"{name}.json"),
                                   "--seed", "3", "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert without_version(out.read_text()) == without_version(golden)
