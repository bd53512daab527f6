"""The shared argparse types of the ``python -m repro.*`` CLIs."""

import argparse

import pytest

from repro.cliutil import output_path, positive_int


class TestOutputPath:
    def test_file_in_existing_directory(self, tmp_path):
        target = str(tmp_path / "report.json")
        assert output_path(target) == target

    def test_bare_file_name_means_the_working_directory(self):
        assert output_path("report.json") == "report.json"

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(argparse.ArgumentTypeError, match="does not exist"):
            output_path(str(tmp_path / "missing" / "report.json"))

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(argparse.ArgumentTypeError, match="is a directory"):
            output_path(str(tmp_path))


class TestPositiveInt:
    def test_accepts_positive(self):
        assert positive_int("4") == 4

    @pytest.mark.parametrize("text", ["0", "-2"])
    def test_rejects_zero_and_negative(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="positive"):
            positive_int(text)

    def test_rejects_non_integer(self):
        with pytest.raises(argparse.ArgumentTypeError, match="invalid int"):
            positive_int("two")
