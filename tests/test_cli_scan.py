"""Golden ``falab simulate`` and ``falab active-rules`` outputs, and the
exit codes of both subcommands.

``levenshtein_all_input_r10.json`` merges ten ALL_INPUT Levenshtein rules
and ``levenshtein_all_input_r10.input`` holds a 512-byte stream; both are
rebuilt from their seeds by ``golden_scan_inputs``.  The ``.simulate.txt``
and ``.active-rules.json`` outputs were written by the pure-Python kernel
before the compiled kernel existed; each must come out byte for byte
under both kernels.
"""

import json
from pathlib import Path

import pytest

from falab.cli import main
from falab.core import Automaton, StartKind
from falab.documents import save_automaton
from falab.generators import SplitMix64, compile_pattern, gen_mesh_patterns
from falab.transform import merge_patterns

GOLDEN = Path(__file__).parent / "golden"
NAME = "levenshtein_all_input_r10"
AUTOMATON = GOLDEN / f"{NAME}.json"
STREAM = GOLDEN / f"{NAME}.input"
COMMANDS = [("simulate", "simulate.txt"),
            ("active-rules", "active-rules.json")]


def golden_scan_inputs() -> tuple[Automaton, bytes]:
    """The golden automaton and stream, from their seeds."""
    patterns = gen_mesh_patterns("levenshtein", 10, 4, 7, (0, 1, 2), 4, 11)
    merged = merge_patterns(
        [compile_pattern(p, StartKind.ALL_INPUT) for p in patterns],
        [p.id for p in patterns])
    # The rules' letters, but one byte in eight is drawn from a set that
    # also holds 0x00 and 0xFF.
    rng = SplitMix64(12)
    letters, rare = b"abcd", b"abcd\x00\xff"
    stream = bytes(rare[rng.below(len(rare))] if rng.below(8) == 0
                   else letters[rng.below(len(letters))] for _ in range(512))
    return merged, stream


def test_golden_inputs_follow_their_recipe(tmp_path):
    merged, stream = golden_scan_inputs()
    save_automaton(merged, str(tmp_path / "merged.json"))
    assert (tmp_path / "merged.json").read_text() == AUTOMATON.read_text()
    assert stream == STREAM.read_bytes()


@pytest.mark.parametrize("command, suffix", COMMANDS)
def test_output_matches_golden(tmp_path, kernel, command, suffix):
    golden = (GOLDEN / f"{NAME}.{suffix}").read_bytes()
    out = tmp_path / suffix
    assert main([command, str(AUTOMATON), "--input", str(STREAM),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.parametrize("command, suffix", COMMANDS)
def test_stdout_matches_golden(capsys, kernel, command, suffix):
    golden = (GOLDEN / f"{NAME}.{suffix}").read_text()
    assert main([command, str(AUTOMATON), "--input", str(STREAM)]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("command", [c for c, _ in COMMANDS])
class TestExitCodes:
    def test_missing_input_file_exits_1(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.bin"
        assert main([command, str(AUTOMATON), "--input", str(missing)]) == 1
        assert "missing.bin" in capsys.readouterr().err

    def test_invalid_automaton_exits_1(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "version": 1, "states": 1, "accepts": [], "edges": [],
            "starts": [{"id": 3, "kind": "all-input"}]}))
        assert main([command, str(bad), "--input", str(STREAM)]) == 1
        assert "invalid automaton" in capsys.readouterr().err

    def test_missing_input_flag_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, str(AUTOMATON)])
        assert exited.value.code == 2
        assert "--input" in capsys.readouterr().err
