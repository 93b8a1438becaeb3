import pytest

from falab.documents import write_text_atomic
from falab.experiment import emit_report


class TestWriteTextAtomic:
    def test_writes_and_replaces(self, tmp_path):
        out = tmp_path / "out.txt"
        write_text_atomic(str(out), "one\n")
        write_text_atomic(str(out), "two\n")
        assert out.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(OSError, match="cannot write"):
            write_text_atomic(str(target), "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_open_names_the_path(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "out.csv"
        with pytest.raises(OSError, match="no-such-dir"):
            write_text_atomic(str(missing), "data\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_encode_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(str(tmp_path / "out.txt"), "\udc80")
        assert list(tmp_path.iterdir()) == []

    def test_report_into_a_directory_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "report.csv"
        target.mkdir()
        with pytest.raises(OSError, match="report.csv"):
            emit_report([], [], str(target))
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
