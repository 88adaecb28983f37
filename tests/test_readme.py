"""README's examples stay current: the library example runs as written, and
every ``apxpat`` command of the CLI block parses (without running)."""

import re
import shlex
from pathlib import Path

import pytest

from apxpat.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the given level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, flags=re.S).group(1)


def _cli_commands() -> list[list[str]]:
    joined = _block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("apxpat ")]


def test_library_example_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})


def test_cli_block_found():
    assert len(_cli_commands()) >= 10


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: " ".join(argv[:3]))
def test_cli_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert callable(args.func)
