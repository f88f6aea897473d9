"""Every `refdyn ...` example of the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from refdyn.cli import main
from refdyn.transitions import conic_line_system

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[str]:
    cli = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("refdyn ")]


def test_the_readme_has_examples():
    assert len(_examples()) == 12


@pytest.mark.parametrize("line", _examples())
def test_readme_example_exits_0(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    # the --matrix-file example reads the conic-line system
    (tmp_path / "system.json").write_text(conic_line_system().to_json())
    assert main(shlex.split(line, comments=True)[1:]) == 0
    assert capsys.readouterr().out
