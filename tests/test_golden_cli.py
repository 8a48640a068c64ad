"""Byte-for-byte replay of the README command-line examples.

tests/golden/readme_cli.json holds the exact stdout and exit code of every
example in the README "Command line" block, plus the SSYT path of
``enumerate`` and a JSON crystal export.  Its "files" are written to a
scratch directory first, so that ``brsk --in column.json`` finds its input.
"""

import json
from pathlib import Path

import pytest

from bitableaux.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"][:3]))
def test_readme_example_is_byte_identical(case, tmp_path, monkeypatch, capsys):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(case["argv"])
    assert code == case["exit"]
    out = capsys.readouterr()
    assert out.out == case["stdout"]
    assert out.err == ""
