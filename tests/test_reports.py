"""Golden state-count reports: any change to a count fails here.

Each golden CSV was written by ``falab report-merge`` or
``falab report-per-pattern`` on the pattern set stored next to it, with
``--seed 3`` and the default cap.  Both reruns must reproduce it byte for
byte, except the ``# tool_version`` line, and so must a run on the
Python kernel, whose subset walk is the specification of the compiled
one.  Runs on the same pattern sets pin the companion plot file and the
growth line that ``experiment``'s fixed thresholds decide.
"""

from pathlib import Path

import pytest

from falab.cli import main
from falab.experiment import POLYNOMIAL_SLOPE, R2_MARGIN

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


# The companion file emit_report writes next to each report: x, then the
# optimized-NFA and minimal-DFA state counts; a row over the cap keeps an
# empty mdfa_states cell.  Per-pattern x is the pattern length.
PLOTS = [
    ("report-merge", "dotstar_all_input_k5", ["--cap", "100"],
     "x\topt_nfa_states\tmdfa_states\n"
     "1\t6\t5\n2\t11\t15\n3\t16\t43\n4\t21\t\n5\t26\t\n"),
    ("report-per-pattern", "levenshtein_d3", [],
     "x\topt_nfa_states\tmdfa_states\n"
     "6\t28\t153\n7\t32\t231\n6\t28\t153\n4\t20\t52\n"),
]


@pytest.mark.parametrize("command, name, flags, plot", PLOTS)
def test_plot_companion_file(tmp_path, command, name, flags, plot):
    out = tmp_path / "out.csv"
    assert main([command, str(GOLDEN / f"{name}.json"), "--seed", "3",
                 "--out", str(out), *flags]) == 0
    assert (tmp_path / "out.csv.plot.tsv").read_text() == plot
    if flags:  # k = 4 and 5 are over the cap
        rows = out.read_text().splitlines()[-2:]
        assert [row.split(",")[-1] for row in rows] == ["CAP_EXCEEDED"] * 2


# The mdfa growth line of the dotstar merge golden, whose semi-log fit
# beats the log-log fit by 0.022 in R^2 at a log-log slope of 2.344.
MDFA_GROWTH = ("# growth[mdfa]: {} (loglog slope=2.344 r2=0.973, "
               "semilog slope=0.953 r2=0.995)\n")


# The report subcommands take no threshold flags: the one case runs with
# none, so experiment's constants decide the label.
@pytest.mark.parametrize("flags, label", [([], "polynomial")])
def test_growth_threshold_flags(tmp_path, flags, label):
    assert 0.995 - 0.973 < R2_MARGIN and 2.344 > POLYNOMIAL_SLOPE
    name = "dotstar_all_input_k5"
    golden = (GOLDEN / f"{name}.report-merge.csv").read_text()
    assert MDFA_GROWTH.format("polynomial") in golden
    out = tmp_path / "out.csv"
    assert main(["report-merge", str(GOLDEN / f"{name}.json"), "--seed", "3",
                 "--out", str(out), *flags]) == 0
    growth = [line for line in out.read_text().splitlines(keepends=True)
              if line.startswith("# growth[mdfa]")]
    assert growth == [MDFA_GROWTH.format(label)]
